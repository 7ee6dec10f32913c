//! The named design points of the evaluation (§7.1.4 naming: P = PLB,
//! I = integrity/PMMAC, C = compressed PosMap, followed by X).
//!
//! `SchemePoint` is only a name.  What a point *is* — PLB, PMMAC, PosMap
//! format, X, the trees it builds — is its [`crate::FreecursiveConfig`],
//! resolved by [`crate::OramBuilder::for_scheme`]; the functional frontend
//! and the timing simulator in `oram-sim` both read that one table.

/// A design point that can be attached to the secure processor model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemePoint {
    /// No ORAM at all: flat-latency DRAM (the denominator of every slowdown).
    Insecure,
    /// Baseline Recursive ORAM with 32-byte PosMap ORAM blocks (X = 8),
    /// separate trees, no PLB (\[26\]).
    RX8,
    /// PLB + unified tree with uncompressed PosMap blocks (X = 16 at 64 B).
    PX16,
    /// PLB + compressed PosMap (X = 32 at 64 B) — the headline PC_X32 point.
    PcX32,
    /// PC with 128-byte blocks (X = 64), used in the Figure 8 comparison.
    PcX64,
    /// PLB + PMMAC with flat 64-bit counters (X = 8).
    PiX8,
    /// PLB + compressed PosMap + PMMAC (X = 32) — complete Freecursive ORAM.
    PicX32,
    /// Phantom-style non-recursive ORAM with 4 KB blocks and an on-chip
    /// block buffer (Figure 9).
    Phantom4K,
}

impl SchemePoint {
    /// All ORAM design points (excluding the insecure baseline and Phantom).
    pub fn freecursive_points() -> [SchemePoint; 5] {
        [
            SchemePoint::RX8,
            SchemePoint::PX16,
            SchemePoint::PcX32,
            SchemePoint::PiX8,
            SchemePoint::PicX32,
        ]
    }

    /// Every scheme point, including the insecure baseline and Phantom —
    /// everything [`crate::OramBuilder::build`] can construct functionally.
    pub fn all_points() -> [SchemePoint; 8] {
        [
            SchemePoint::Insecure,
            SchemePoint::RX8,
            SchemePoint::PX16,
            SchemePoint::PcX32,
            SchemePoint::PcX64,
            SchemePoint::PiX8,
            SchemePoint::PicX32,
            SchemePoint::Phantom4K,
        ]
    }

    /// The label used in the figures.
    pub fn label(&self) -> &'static str {
        match self {
            SchemePoint::Insecure => "insecure",
            SchemePoint::RX8 => "R_X8",
            SchemePoint::PX16 => "P_X16",
            SchemePoint::PcX32 => "PC_X32",
            SchemePoint::PcX64 => "PC_X64",
            SchemePoint::PiX8 => "PI_X8",
            SchemePoint::PicX32 => "PIC_X32",
            SchemePoint::Phantom4K => "Phantom_4KB",
        }
    }

    /// The data block size in bytes this point is evaluated at (§7.1.4/§7.1.5
    /// and Figure 9): 64 B for the paper's main table, 128 B for `PC_X64`,
    /// 4 KB for Phantom.
    pub fn default_block_bytes(&self) -> usize {
        match self {
            SchemePoint::PcX64 => 128,
            SchemePoint::Phantom4K => 4096,
            _ => 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OramBuilder;

    #[test]
    fn x_values_match_paper_names_at_64_bytes() {
        // Every name's `_X<n>` suffix is the X its point resolves to at its
        // evaluation block size: 64 B, and 128 B for PC_X64, where the
        // compressed X doubles (see `default_block_sizes_follow_the_evaluation`).
        let points = SchemePoint::freecursive_points();
        for scheme in points.into_iter().chain([SchemePoint::PcX64]) {
            let config = OramBuilder::for_scheme(scheme).freecursive_config();
            let named: u64 = scheme.label().rsplit("_X").next().unwrap().parse().unwrap();
            assert_eq!(config.unwrap().x(), named, "{scheme:?}");
        }
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let mut labels: Vec<_> = SchemePoint::all_points()
            .iter()
            .map(|s| s.label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn default_block_sizes_follow_the_evaluation() {
        assert_eq!(SchemePoint::PcX32.default_block_bytes(), 64);
        assert_eq!(SchemePoint::PcX64.default_block_bytes(), 128);
        assert_eq!(SchemePoint::Phantom4K.default_block_bytes(), 4096);
    }
}
