//! The compressed PosMap block format (§5.2): a group counter plus `X`
//! individual counters, turned into leaves through a PRF.
//!
//! A compressed PosMap block covering blocks `{a, …, a+X-1}` stores
//!
//! ```text
//! GC || IC_0 || IC_1 || … || IC_{X-1}
//! ```
//!
//! where `GC` is an α-bit *group counter* and each `IC_j` a β-bit *individual
//! counter*.  The current leaf of block `a+j` is `PRF_K(a+j ‖ GC ‖ IC_j) mod
//! 2^L`.  Remapping a block increments its individual counter; when an
//! individual counter rolls over the group counter is incremented and **all**
//! blocks of the group must be remapped through the Backend (§5.2.2) so the
//! input to the PRF never repeats.
//!
//! With α = 64, β = 14 a 64-byte (512-bit) block packs X′ = 32 counters
//! exactly, double the X = 16 of the uncompressed format, and the worst-case
//! group-remap overhead is X′/2^β = 0.2% (§5.3).  The same counters double as
//! the non-repeating write counters PMMAC needs (§6.2.2).

/// Default group-counter width in bits (§5.3).
pub const DEFAULT_ALPHA: u32 = 64;
/// Default individual-counter width in bits (§5.3).
pub const DEFAULT_BETA: u32 = 14;

/// Outcome of incrementing an individual counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementOutcome {
    /// The individual counter advanced normally; only this block's leaf
    /// changes.
    Normal,
    /// The individual counter rolled over: the group counter was incremented
    /// and every individual counter reset.  The caller must remap **all**
    /// blocks of the group through the Backend before continuing (§5.2.2).
    GroupRemap,
}

/// A compressed PosMap block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedPosMapBlock {
    group_counter: u64,
    individual: Vec<u64>,
    alpha: u32,
    beta: u32,
}

impl CompressedPosMapBlock {
    /// Creates an all-zero block of `x` entries with the given counter
    /// widths.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is 0 or exceeds 64, or `beta` is 0 or exceeds 32.
    pub fn new(x: usize, alpha: u32, beta: u32) -> Self {
        assert!(alpha > 0 && alpha <= 64, "alpha must be in 1..=64");
        assert!(beta > 0 && beta <= 32, "beta must be in 1..=32");
        Self {
            group_counter: 0,
            individual: vec![0; x],
            alpha,
            beta,
        }
    }

    /// Creates a block with the paper's default α = 64, β = 14.
    pub fn with_defaults(x: usize) -> Self {
        Self::new(x, DEFAULT_ALPHA, DEFAULT_BETA)
    }

    /// Number of entries (X).
    pub fn x(&self) -> usize {
        self.individual.len()
    }

    /// Group-counter width in bits.
    pub fn alpha(&self) -> u32 {
        self.alpha
    }

    /// Individual-counter width in bits.
    pub fn beta(&self) -> u32 {
        self.beta
    }

    /// Current group counter.
    pub fn group_counter(&self) -> u64 {
        self.group_counter
    }

    /// Current individual counter of entry `index`.
    pub fn individual_counter(&self, index: usize) -> u64 {
        self.individual[index]
    }

    /// Maximum X that fits in a block of `block_bytes` bytes for the given
    /// counter widths (§5.3: 64-byte blocks with α = 64, β = 14 give X = 32).
    pub fn max_x_for_block(block_bytes: usize, alpha: u32, beta: u32) -> usize {
        ((block_bytes * 8).saturating_sub(alpha as usize)) / beta as usize
    }

    /// The scalar, never-repeating access counter of entry `index`:
    /// `GC‖IC_j = (GC << β) | IC_j`.  This is the counter fed to the PRF for
    /// leaf generation and to PMMAC for MAC computation (§6.2.2).
    pub fn counter_of(&self, index: usize) -> u64 {
        (self.group_counter << self.beta) | self.individual[index]
    }

    /// Increments the counter of entry `index` (remapping that block).
    ///
    /// Returns [`IncrementOutcome::GroupRemap`] if the individual counter
    /// rolled over, in which case the group counter has been incremented and
    /// every individual counter reset to zero; the caller must then remap
    /// every block of the group.
    ///
    /// # Panics
    ///
    /// Panics if the group counter would exceed its α-bit budget, which with
    /// α = 64 cannot happen within the lifetime of a simulation.
    pub fn increment(&mut self, index: usize) -> IncrementOutcome {
        let max_ic = (1u64 << self.beta) - 1;
        if self.individual[index] < max_ic {
            self.individual[index] += 1;
            IncrementOutcome::Normal
        } else {
            let max_gc = if self.alpha == 64 {
                u64::MAX
            } else {
                (1u64 << self.alpha) - 1
            };
            assert!(
                self.group_counter < max_gc,
                "group counter exhausted its {}-bit budget",
                self.alpha
            );
            self.group_counter += 1;
            for ic in &mut self.individual {
                *ic = 0;
            }
            IncrementOutcome::GroupRemap
        }
    }

    /// Serialises the block into exactly `block_bytes` bytes (bit-packed:
    /// `GC` in the low α bits, then each `IC_j` in β bits).
    ///
    /// # Panics
    ///
    /// Panics if the counters do not fit in `block_bytes`.
    pub fn to_bytes(&self, block_bytes: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.to_bytes_into(block_bytes, &mut out);
        out
    }

    /// [`Self::to_bytes`] into `out` (replacing its contents), reusing its
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if the counters do not fit in `block_bytes`.
    pub fn to_bytes_into(&self, block_bytes: usize, out: &mut Vec<u8>) {
        let needed_bits = self.alpha as usize + self.individual.len() * self.beta as usize;
        assert!(
            needed_bits <= block_bytes * 8,
            "{needed_bits} counter bits do not fit in a {block_bytes}-byte block"
        );
        out.clear();
        out.resize(block_bytes, 0);
        let mut writer = BitWriter::new(out);
        writer.write(self.group_counter, self.alpha);
        for &ic in &self.individual {
            writer.write(ic, self.beta);
        }
    }

    /// Parses a block serialised by [`Self::to_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if the byte slice is too short.
    pub fn from_bytes(bytes: &[u8], x: usize, alpha: u32, beta: u32) -> Self {
        let needed_bits = alpha as usize + x * beta as usize;
        assert!(bytes.len() * 8 >= needed_bits, "block too short");
        let mut reader = BitReader::new(bytes);
        let group_counter = reader.read(alpha);
        let individual = (0..x).map(|_| reader.read(beta)).collect();
        Self {
            group_counter,
            individual,
            alpha,
            beta,
        }
    }
}

/// Minimal LSB-first bit writer.
struct BitWriter<'a> {
    out: &'a mut [u8],
    bit_pos: usize,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut [u8]) -> Self {
        Self { out, bit_pos: 0 }
    }

    fn write(&mut self, value: u64, bits: u32) {
        for i in 0..bits {
            let bit = (value >> i) & 1;
            if bit != 0 {
                let pos = self.bit_pos + i as usize;
                self.out[pos / 8] |= 1 << (pos % 8);
            }
        }
        self.bit_pos += bits as usize;
    }
}

/// Minimal LSB-first bit reader.
struct BitReader<'a> {
    bytes: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, bit_pos: 0 }
    }

    fn read(&mut self, bits: u32) -> u64 {
        let mut value = 0u64;
        for i in 0..bits {
            let pos = self.bit_pos + i as usize;
            let bit = (self.bytes[pos / 8] >> (pos % 8)) & 1;
            value |= u64::from(bit) << i;
        }
        self.bit_pos += bits as usize;
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_crypto::prf::AesPrf;

    #[test]
    fn paper_packing_example() {
        // §5.3: B = 512 bits, α = 64, β = 14 ⇒ X′ = 32 exactly.
        assert_eq!(CompressedPosMapBlock::max_x_for_block(64, 64, 14), 32);
        // And the uncompressed format only reaches 16 for the same block.
        let block = CompressedPosMapBlock::with_defaults(32);
        let bytes = block.to_bytes(64);
        assert_eq!(bytes.len(), 64);
    }

    #[test]
    fn counters_roundtrip_through_bytes() {
        let mut block = CompressedPosMapBlock::new(8, 64, 14);
        for j in 0..8 {
            for _ in 0..=j {
                block.increment(j);
            }
        }
        let bytes = block.to_bytes(64);
        let parsed = CompressedPosMapBlock::from_bytes(&bytes, 8, 64, 14);
        assert_eq!(parsed, block);
    }

    #[test]
    fn increment_is_strictly_monotonic_in_scalar_counter() {
        // The scalar counter GC‖IC must never repeat — that is what makes the
        // PRF leaves fresh and the PMMAC counters replay-proof.
        let mut block = CompressedPosMapBlock::new(4, 16, 3);
        let mut last = block.counter_of(2);
        for _ in 0..100 {
            block.increment(2);
            let now = block.counter_of(2);
            assert!(
                now > last,
                "counter must strictly increase: {last} -> {now}"
            );
            last = now;
        }
    }

    #[test]
    fn group_remap_fires_every_2_to_the_beta_accesses() {
        let beta = 4u32;
        let mut block = CompressedPosMapBlock::new(8, 16, beta);
        let mut remaps = 0;
        let accesses = 3 * (1 << beta);
        for _ in 0..accesses {
            if block.increment(0) == IncrementOutcome::GroupRemap {
                remaps += 1;
            }
        }
        assert_eq!(remaps, 3);
        // After a remap every individual counter is reset.
        assert!(block.group_counter() >= 3);
    }

    #[test]
    fn group_remap_resets_all_individual_counters() {
        let mut block = CompressedPosMapBlock::new(4, 16, 2);
        block.increment(1);
        block.increment(3);
        // Drive entry 0 to overflow: 2^2 = 4 increments.
        for _ in 0..3 {
            assert_eq!(block.increment(0), IncrementOutcome::Normal);
        }
        assert_eq!(block.increment(0), IncrementOutcome::GroupRemap);
        for j in 0..4 {
            assert_eq!(block.individual_counter(j), 0);
        }
        assert_eq!(block.group_counter(), 1);
    }

    #[test]
    fn leaves_derived_from_counters_change_after_increment() {
        let prf = AesPrf::new([1u8; 16]);
        let mut block = CompressedPosMapBlock::with_defaults(32);
        let base_addr = 1000u64;
        let levels = 20;
        let before = prf.leaf_for(base_addr + 5, block.counter_of(5), levels);
        block.increment(5);
        let after = prf.leaf_for(base_addr + 5, block.counter_of(5), levels);
        assert_ne!(before, after);
    }

    #[test]
    fn worst_case_remap_overhead_matches_paper() {
        // §5.3: X'/2^β = 32/2^14 ≈ 0.2%.
        let overhead = 32.0 / f64::from(1u32 << 14);
        assert!((overhead - 0.002).abs() < 0.0005);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn to_bytes_rejects_undersized_block() {
        let block = CompressedPosMapBlock::with_defaults(64);
        let _ = block.to_bytes(64);
    }
}
