//! A typed view of PosMap block contents, uniform across the three formats
//! the paper evaluates (raw leaves, flat counters, compressed counters).
//!
//! The frontends manipulate PosMap blocks through this enum so that the PLB,
//! the recursion walk and PMMAC do not care which representation is
//! configured.

use crate::config::PosMapFormat;
use oram_crypto::prf::AesPrf;
use posmap::compressed::IncrementOutcome;
use posmap::{CompressedPosMapBlock, UncompressedPosMapBlock};

/// The address half of every fresh-leaf draw's PRF input.  A unified
/// address carries its recursion level in the top byte and H ≪ 255, so no
/// block address equals it: a draw never shares a PRF input with a
/// counter-derived leaf, and one key serves both.
const DRAW_DOMAIN: u64 = u64::MAX;

/// Draws a fresh uniform leaf in `[0, 2^levels)` in counter mode:
/// `PRF_K(DRAW_DOMAIN ‖ n) mod 2^L`, where `n` is `*draws`, which then
/// advances.  Every leaf the frontend picks at random comes from here, so
/// `*draws` must never repeat under one key: it is persisted with the
/// instance.
pub(crate) fn draw_leaf(prf: &AesPrf, draws: &mut u64, levels: u32) -> u64 {
    let leaf = prf.leaf_for(DRAW_DOMAIN, *draws, levels);
    *draws += 1;
    leaf
}

/// The result of advancing (remapping) one entry of a PosMap block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvanceResult {
    /// The child block's new leaf (where it must be appended/evicted to).
    pub new_leaf: u64,
    /// The child block's new access counter (`None` for the raw-leaf format,
    /// which has no counters).
    pub new_counter: Option<u64>,
    /// Present when the advance overflowed an individual counter and forced a
    /// group remap (§5.2.2): every sibling must be remapped through the
    /// Backend.
    pub group_remap: Option<GroupRemapInfo>,
}

/// Information needed to carry out a group remap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRemapInfo {
    /// The counters each entry held *before* the group counter was bumped
    /// (needed to locate the siblings on their old paths).
    pub old_counters: Vec<u64>,
    /// The counter every entry holds after the remap (`GC_new ‖ 0`).
    pub new_counter: u64,
}

/// The contents of one PosMap block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PosMapBlockPayload {
    /// X raw leaves.
    Leaves(UncompressedPosMapBlock),
    /// X flat 64-bit counters.
    FlatCounters(Vec<u64>),
    /// Compressed group/individual counters.
    Compressed(CompressedPosMapBlock),
}

impl PosMapBlockPayload {
    /// Creates an all-zero payload in the given format with `x` entries.
    pub fn new_zeroed(format: PosMapFormat, x: u64) -> Self {
        match format {
            PosMapFormat::UncompressedLeaves => {
                Self::Leaves(UncompressedPosMapBlock::new(x as usize))
            }
            PosMapFormat::FlatCounters => Self::FlatCounters(vec![0u64; x as usize]),
            PosMapFormat::Compressed { alpha, beta } => {
                Self::Compressed(CompressedPosMapBlock::new(x as usize, alpha, beta))
            }
        }
    }

    /// Parses a payload from the serialised PosMap block bytes.
    pub fn from_bytes(bytes: &[u8], format: PosMapFormat, x: u64) -> Self {
        match format {
            PosMapFormat::UncompressedLeaves => {
                Self::Leaves(UncompressedPosMapBlock::from_bytes(bytes, x as usize))
            }
            PosMapFormat::FlatCounters => {
                let counters = (0..x as usize)
                    .map(|i| {
                        u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"))
                    })
                    .collect();
                Self::FlatCounters(counters)
            }
            PosMapFormat::Compressed { alpha, beta } => Self::Compressed(
                CompressedPosMapBlock::from_bytes(bytes, x as usize, alpha, beta),
            ),
        }
    }

    /// Serialises the payload into exactly `block_bytes` bytes.
    pub fn to_bytes(&self, block_bytes: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.to_bytes_into(block_bytes, &mut out);
        out
    }

    /// [`Self::to_bytes`] into `out` (replacing its contents), reusing its
    /// capacity: the PLB eviction path serialises every victim this way.
    pub fn to_bytes_into(&self, block_bytes: usize, out: &mut Vec<u8>) {
        match self {
            Self::Leaves(b) => b.to_bytes_into(block_bytes, out),
            Self::FlatCounters(counters) => {
                out.clear();
                out.resize(block_bytes, 0);
                for (i, c) in counters.iter().enumerate() {
                    out[i * 8..(i + 1) * 8].copy_from_slice(&c.to_le_bytes());
                }
            }
            Self::Compressed(b) => b.to_bytes_into(block_bytes, out),
        }
    }

    /// Number of entries (X).
    pub fn x(&self) -> usize {
        match self {
            Self::Leaves(b) => b.x(),
            Self::FlatCounters(c) => c.len(),
            Self::Compressed(b) => b.x(),
        }
    }

    /// The child's current access counter, or `None` for the raw-leaf format.
    pub fn child_counter(&self, index: usize) -> Option<u64> {
        match self {
            Self::Leaves(_) => None,
            Self::FlatCounters(c) => Some(c[index]),
            Self::Compressed(b) => Some(b.counter_of(index)),
        }
    }

    /// The child block's *current* leaf, derived from the entry.
    ///
    /// `child_unified_addr` is the child's address in the unified space (used
    /// as the PRF input for counter-based formats); `leaf_level` is L of the
    /// tree the child lives in.
    pub fn child_leaf(
        &self,
        index: usize,
        child_unified_addr: u64,
        prf: &AesPrf,
        leaf_level: u32,
    ) -> u64 {
        match self {
            Self::Leaves(b) => b.leaf(index),
            Self::FlatCounters(c) => prf.leaf_for(child_unified_addr, c[index], leaf_level),
            Self::Compressed(b) => {
                prf.leaf_for(child_unified_addr, b.counter_of(index), leaf_level)
            }
        }
    }

    /// Advances (remaps) entry `index`: assigns the child a fresh leaf and,
    /// for counter formats, increments its counter.  Returns the new leaf,
    /// the new counter, and group-remap information if an individual counter
    /// overflowed.  The raw-leaf format draws the new leaf from the PRF in
    /// counter mode, with `draws` as the counter.
    pub fn advance_entry(
        &mut self,
        index: usize,
        child_unified_addr: u64,
        prf: &AesPrf,
        leaf_level: u32,
        draws: &mut u64,
    ) -> AdvanceResult {
        match self {
            Self::Leaves(b) => {
                let new_leaf = draw_leaf(prf, draws, leaf_level);
                b.set_leaf(index, new_leaf);
                AdvanceResult {
                    new_leaf,
                    new_counter: None,
                    group_remap: None,
                }
            }
            Self::FlatCounters(c) => {
                c[index] = c[index].checked_add(1).expect("64-bit counter overflow");
                let new_counter = c[index];
                AdvanceResult {
                    new_leaf: prf.leaf_for(child_unified_addr, new_counter, leaf_level),
                    new_counter: Some(new_counter),
                    group_remap: None,
                }
            }
            Self::Compressed(b) => {
                // Only a group remap reads the old counters, and the
                // increment remaps the group exactly when IC_index is at its
                // β-bit maximum: collect them on that path alone.
                let old_counters = (b.individual_counter(index) == (1u64 << b.beta()) - 1)
                    .then(|| (0..b.x()).map(|j| b.counter_of(j)).collect());
                let outcome = b.increment(index);
                let new_counter = b.counter_of(index);
                let group_remap = match outcome {
                    IncrementOutcome::Normal => None,
                    IncrementOutcome::GroupRemap => Some(GroupRemapInfo {
                        old_counters: old_counters.expect("an overflowing IC remaps the group"),
                        new_counter,
                    }),
                };
                AdvanceResult {
                    new_leaf: prf.leaf_for(child_unified_addr, new_counter, leaf_level),
                    new_counter: Some(new_counter),
                    group_remap,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prf() -> AesPrf {
        AesPrf::new([9u8; 16])
    }

    #[test]
    fn roundtrip_all_formats() {
        let formats = [
            (PosMapFormat::UncompressedLeaves, 16u64),
            (PosMapFormat::FlatCounters, 8),
            (PosMapFormat::compressed_default(), 32),
        ];
        let mut draws = 0;
        for (format, x) in formats {
            let mut payload = PosMapBlockPayload::new_zeroed(format, x);
            for j in 0..(x as usize).min(5) {
                payload.advance_entry(j, 1000 + j as u64, &prf(), 20, &mut draws);
            }
            let bytes = payload.to_bytes(64);
            let parsed = PosMapBlockPayload::from_bytes(&bytes, format, x);
            assert_eq!(parsed, payload, "format {format:?}");
        }
    }

    #[test]
    fn leaves_format_has_no_counters() {
        let payload = PosMapBlockPayload::new_zeroed(PosMapFormat::UncompressedLeaves, 16);
        assert_eq!(payload.child_counter(0), None);
    }

    #[test]
    fn counter_formats_start_at_zero_and_increment() {
        for format in [
            PosMapFormat::FlatCounters,
            PosMapFormat::compressed_default(),
        ] {
            let x = format.max_x(64);
            let mut payload = PosMapBlockPayload::new_zeroed(format, x);
            assert_eq!(payload.child_counter(3), Some(0));
            let mut draws = 0;
            let adv = payload.advance_entry(3, 77, &prf(), 24, &mut draws);
            assert_eq!(adv.new_counter, Some(1));
            assert_eq!(payload.child_counter(3), Some(1));
            assert!(adv.group_remap.is_none());
            // The current leaf reported after the advance matches the one the
            // advance returned.
            assert_eq!(payload.child_leaf(3, 77, &prf(), 24), adv.new_leaf);
        }
    }

    #[test]
    fn leaf_is_deterministic_function_of_counter_for_prf_formats() {
        let mut payload = PosMapBlockPayload::new_zeroed(PosMapFormat::FlatCounters, 8);
        let l0 = payload.child_leaf(2, 55, &prf(), 20);
        let l0_again = payload.child_leaf(2, 55, &prf(), 20);
        assert_eq!(l0, l0_again);
        let mut draws = 0;
        payload.advance_entry(2, 55, &prf(), 20, &mut draws);
        assert_ne!(payload.child_leaf(2, 55, &prf(), 20), l0);
    }

    #[test]
    fn compressed_overflow_reports_group_remap_with_old_counters() {
        let format = PosMapFormat::Compressed { alpha: 16, beta: 2 };
        let mut payload = PosMapBlockPayload::new_zeroed(format, 4);
        let mut draws = 0;
        // Overflow entry 0: beta = 2 so the 4th increment remaps the group.
        for _ in 0..3 {
            let adv = payload.advance_entry(0, 10, &prf(), 16, &mut draws);
            assert!(adv.group_remap.is_none());
        }
        // Also bump entry 1 so old counters are distinguishable.
        payload.advance_entry(1, 11, &prf(), 16, &mut draws);
        let adv = payload.advance_entry(0, 10, &prf(), 16, &mut draws);
        let remap = adv.group_remap.expect("group remap expected");
        assert_eq!(remap.old_counters, vec![3, 1, 0, 0]);
        // After the remap every entry carries GC=1, IC=0 → counter 4.
        assert_eq!(remap.new_counter, 1 << 2);
        for j in 0..4 {
            assert_eq!(payload.child_counter(j), Some(1 << 2));
        }
    }

    #[test]
    fn advance_changes_leaf_for_raw_leaf_format() {
        let mut payload = PosMapBlockPayload::new_zeroed(PosMapFormat::UncompressedLeaves, 16);
        let mut draws = 0;
        let before = payload.child_leaf(7, 0, &prf(), 20);
        let adv = payload.advance_entry(7, 0, &prf(), 20, &mut draws);
        assert_eq!(payload.child_leaf(7, 0, &prf(), 20), adv.new_leaf);
        assert!(adv.new_leaf < (1 << 20));
        // With overwhelming probability the leaf changed.
        assert_ne!(adv.new_leaf, before);
    }
}
