//! Recursive ORAM addressing: the multi-level page-table arithmetic of §3.2
//! and the unified `i‖a_i` address space of §4.2.1.
//!
//! With `X` leaves per PosMap block, the leaf of data block `a_0` is stored in
//! PosMap block `a_1 = a_0 / X` of level 1, whose leaf is stored in block
//! `a_2 = a_0 / X²` of level 2, and so on until a level small enough to keep
//! on chip.  `H` denotes the total number of ORAMs in the recursion,
//! `H = ⌈log(N/p)/log X⌉ + 1` for an on-chip PosMap with `p` entries.

/// Bit position at which the recursion-level tag is packed into a unified
/// block address (`i‖a_i`, §4.2.1).  56 bits of block index supports ORAMs
/// far beyond anything simulated here.
pub const LEVEL_TAG_SHIFT: u32 = 56;

/// Describes one recursion: the data ORAM plus its chain of PosMap levels.
///
/// Level 0 is the Data ORAM; level `i ≥ 1` holds the PosMap blocks whose
/// entries give the leaves of level `i - 1` blocks.  Level `H - 1` is the
/// deepest PosMap ORAM; its blocks' leaves (or counters) live in the on-chip
/// PosMap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecursionAddressing {
    /// Number of data blocks (N).
    data_blocks: u64,
    /// Leaves (or counters) per PosMap block (X).
    x: u64,
    /// On-chip PosMap capacity in entries (p).
    onchip_entries: u64,
    /// Total number of ORAMs in the recursion (H), including the Data ORAM.
    num_levels: u32,
}

impl RecursionAddressing {
    /// Builds the addressing for `data_blocks` data blocks with `x` entries
    /// per PosMap block and an on-chip PosMap of `onchip_entries` entries.
    ///
    /// Recursion is applied until the deepest level has at most
    /// `onchip_entries` blocks, i.e. the on-chip PosMap can hold one entry per
    /// block of level `H - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `x < 2` or either capacity is zero.
    pub fn new(data_blocks: u64, x: u64, onchip_entries: u64) -> Self {
        assert!(x >= 2, "X must be at least 2");
        assert!(data_blocks > 0, "need at least one data block");
        assert!(onchip_entries > 0, "on-chip PosMap must have capacity");
        let mut num_levels = 1u32;
        let mut blocks = data_blocks;
        while blocks > onchip_entries {
            blocks = blocks.div_ceil(x);
            num_levels += 1;
        }
        Self {
            data_blocks,
            x,
            onchip_entries,
            num_levels,
        }
    }

    /// Number of ORAMs in the recursion, including the Data ORAM (the
    /// paper's `H`).
    pub fn num_levels(&self) -> u32 {
        self.num_levels
    }

    /// Number of PosMap ORAM levels (`H - 1`).
    pub fn num_posmap_levels(&self) -> u32 {
        self.num_levels - 1
    }

    /// Leaves/counters per PosMap block (X).
    pub fn x(&self) -> u64 {
        self.x
    }

    /// Number of data blocks (N).
    pub fn data_blocks(&self) -> u64 {
        self.data_blocks
    }

    /// On-chip PosMap capacity in entries.
    pub fn onchip_entries(&self) -> u64 {
        self.onchip_entries
    }

    /// Number of blocks that exist at recursion level `i` (level 0 = data
    /// blocks, level `i` = PosMap blocks covering level `i - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels`.
    pub fn blocks_at_level(&self, level: u32) -> u64 {
        assert!(level < self.num_levels, "level {level} out of range");
        let mut blocks = self.data_blocks;
        for _ in 0..level {
            blocks = blocks.div_ceil(self.x);
        }
        blocks
    }

    /// Number of entries required in the on-chip PosMap (one per block of the
    /// deepest PosMap level, or per data block when there is no recursion).
    pub fn required_onchip_entries(&self) -> u64 {
        self.blocks_at_level(self.num_levels - 1)
    }

    /// Address of the level-`i` PosMap block that covers data block `a0`
    /// (`a_i = a_0 / X^i`, §3.2).
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels`.
    pub fn posmap_block_addr(&self, level: u32, a0: u64) -> u64 {
        assert!(level < self.num_levels, "level {level} out of range");
        let mut a = a0;
        for _ in 0..level {
            a /= self.x;
        }
        a
    }

    /// The index (0..X) of data-side block `a_{i-1}` within its covering
    /// level-`i` PosMap block.
    pub fn entry_index(&self, level: u32, a0: u64) -> usize {
        assert!(level >= 1, "entry_index is defined for PosMap levels only");
        usize::try_from(self.posmap_block_addr(level - 1, a0) % self.x)
            .expect("entry index bounded by X fits usize")
    }

    /// The unified-tree address `i‖a_i` of the level-`i` block covering `a0`
    /// (§4.2.1).  Level 0 returns `a0` itself.
    pub fn unified_addr(&self, level: u32, a0: u64) -> u64 {
        let a_i = self.posmap_block_addr(level, a0);
        tag_address(level, a_i)
    }

    /// Total number of blocks (data + all PosMap levels) stored in the
    /// unified ORAM tree, saturating at `u64::MAX` (no tree holds that many,
    /// so a saturated total is rejected like any other oversized one).
    pub fn unified_total_blocks(&self) -> u64 {
        (0..self.num_levels)
            .map(|l| self.blocks_at_level(l))
            .fold(0, u64::saturating_add)
    }
}

/// Packs a recursion level tag and block index into a unified address.
///
/// # Panics
///
/// Panics if the index does not fit below the tag bits.
pub fn tag_address(level: u32, index: u64) -> u64 {
    assert!(index < (1u64 << LEVEL_TAG_SHIFT), "block index too large");
    (u64::from(level) << LEVEL_TAG_SHIFT) | index
}

/// Splits a unified address into `(level, index)`.
pub fn untag_address(unified: u64) -> (u32, u64) {
    (
        u32::try_from(unified >> LEVEL_TAG_SHIFT).expect("8-bit level tag fits u32"),
        unified & ((1u64 << LEVEL_TAG_SHIFT) - 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_h_formula_holds() {
        // H = ceil(log(N/p) / log X) + 1 when N, p, X are powers of two.
        for (n, x, p) in [
            (1u64 << 26, 8u64, 1u64 << 13),
            (1 << 26, 32, 1 << 9),
            (1 << 30, 8, 1 << 13),
            (1 << 20, 16, 1 << 10),
        ] {
            let rec = RecursionAddressing::new(n, x, p);
            let expected = ((n as f64 / p as f64).log2() / (x as f64).log2()).ceil() as u32 + 1;
            assert_eq!(rec.num_levels(), expected, "N={n} X={x} p={p}");
            assert!(rec.required_onchip_entries() <= p);
        }
    }

    #[test]
    fn no_recursion_needed_when_data_fits_on_chip() {
        let rec = RecursionAddressing::new(100, 8, 128);
        assert_eq!(rec.num_levels(), 1);
        assert_eq!(rec.num_posmap_levels(), 0);
        assert_eq!(rec.required_onchip_entries(), 100);
    }

    #[test]
    fn posmap_block_addr_divides_by_x_per_level() {
        let rec = RecursionAddressing::new(1 << 20, 8, 1 << 4);
        let a0 = 0b1001001u64; // 73
        assert_eq!(rec.posmap_block_addr(0, a0), 73);
        assert_eq!(rec.posmap_block_addr(1, a0), 9);
        assert_eq!(rec.posmap_block_addr(2, a0), 1);
        assert_eq!(rec.posmap_block_addr(3, a0), 0);
    }

    #[test]
    fn entry_index_identifies_slot_within_covering_block() {
        let rec = RecursionAddressing::new(1 << 20, 8, 1 << 4);
        // Data block 73 = 8*9 + 1 is entry 1 of PosMap block 9 at level 1.
        assert_eq!(rec.entry_index(1, 73), 1);
        // PosMap block 9 = 8*1 + 1 is entry 1 of level-2 block 1.
        assert_eq!(rec.entry_index(2, 73), 1);
    }

    #[test]
    fn unified_addresses_are_disjoint_across_levels() {
        let rec = RecursionAddressing::new(1 << 16, 8, 1 << 6);
        let a = rec.unified_addr(0, 5);
        let b = rec.unified_addr(1, 5);
        let c = rec.unified_addr(2, 5);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(untag_address(b), (1, 5 / 8));
        assert_eq!(untag_address(a), (0, 5));
    }

    #[test]
    fn blocks_at_level_shrink_by_x() {
        let rec = RecursionAddressing::new(1 << 26, 32, 1 << 9);
        assert_eq!(rec.blocks_at_level(0), 1 << 26);
        assert_eq!(rec.blocks_at_level(1), 1 << 21);
        assert_eq!(rec.blocks_at_level(2), 1 << 16);
        assert_eq!(rec.blocks_at_level(3), 1 << 11);
        assert_eq!(rec.blocks_at_level(4), 1 << 6);
        // Storing PosMap blocks alongside data adds well under one tree level
        // of extra blocks (§4.2.1).
        let total = rec.unified_total_blocks();
        assert!(total < 2 * rec.data_blocks());
    }

    #[test]
    fn tag_untag_roundtrip() {
        for level in 0..8u32 {
            for index in [0u64, 1, 12345, (1 << 40) + 7] {
                assert_eq!(untag_address(tag_address(level, index)), (level, index));
            }
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn tag_rejects_oversized_index() {
        let _ = tag_address(1, 1 << 60);
    }
}
