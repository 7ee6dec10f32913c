//! Configuration for the Freecursive ORAM controller.
//!
//! The paper names its design points with the letters **P** (PLB), **I**
//! (integrity / PMMAC) and **C** (compressed PosMap) followed by the PosMap
//! block fan-out X (§7.1.4).  The presets below reproduce those points:
//!
//! | Preset       | PLB | PMMAC | Compressed | X (64 B blocks) |
//! |--------------|-----|-------|------------|-----------------|
//! | `R_X8`       | –   | –     | –          | 8 (baseline Recursive ORAM: one tree per level, 32 B PosMap blocks) |
//! | `P_X16`      | ✓   | –     | –          | 16 |
//! | `PC_X32`     | ✓   | –     | ✓          | 32 |
//! | `PI_X8`      | ✓   | ✓     | –          | 8 (flat 64-bit counters) |
//! | `PIC_X32`    | ✓   | ✓     | ✓          | 32 |
//!
//! Every row is the same frontend.  The PLB column is
//! [`FreecursiveConfig::plb_capacity_bytes`]: with a PLB all levels share
//! one unified tree (§4.2); without one (capacity 0) each recursion level
//! keeps its own tree, which is exactly Recursive ORAM (§3.2).
//!
//! The preset constructors below are the raw material of
//! [`crate::OramBuilder`]; external code should construct design points
//! through the builder (`OramBuilder::for_scheme(SchemePoint::PicX32)`)
//! rather than calling the presets directly.  The presets are pure: they
//! keep the trees in memory with no write-ahead log.  Only the builder
//! reads the environment (`ORAM_STORAGE`, `ORAM_MEMORY_BUDGET`,
//! `ORAM_DURABILITY`), and a malformed value is a build error.
//!
//! A configuration is the whole description of a design point:
//! [`FreecursiveConfig::addressing`] and [`FreecursiveConfig::trees`] give
//! the recursion and the trees it builds, which the functional frontend
//! walks (in deployment and, over the insecure backend, in the `oram-sim`
//! timing simulator).

use crate::error::ConfigError;
use oram_crypto::mac::MAC_BYTES;
use path_oram::{Durability, EncryptionMode, OramParams, StorageKind};
use posmap::compressed::{CompressedPosMapBlock, DEFAULT_ALPHA, DEFAULT_BETA};
use posmap::{Plb, RecursionAddressing};

/// How PosMap blocks represent the leaves of the blocks they cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PosMapFormat {
    /// X raw leaf labels per block (4 bytes each); leaves drawn uniformly at
    /// random on every remap.  The baseline format (§3.2).
    UncompressedLeaves,
    /// X flat 64-bit access counters per block; leaves derived via the PRF.
    /// Required by PMMAC when compression is disabled (§6.2.2, PI_X8).
    FlatCounters,
    /// The compressed format of §5.2: an α-bit group counter plus X β-bit
    /// individual counters; leaves derived via the PRF.
    Compressed {
        /// Group-counter width in bits.
        alpha: u32,
        /// Individual-counter width in bits.
        beta: u32,
    },
}

impl PosMapFormat {
    /// The default compressed format (α = 64, β = 14, §5.3).
    pub fn compressed_default() -> Self {
        PosMapFormat::Compressed {
            alpha: DEFAULT_ALPHA,
            beta: DEFAULT_BETA,
        }
    }

    /// Whether leaves are derived from counters through the PRF (rather than
    /// stored explicitly).
    pub fn uses_prf(&self) -> bool {
        !matches!(self, PosMapFormat::UncompressedLeaves)
    }

    /// Largest power-of-two X that fits in a PosMap block of `block_bytes`
    /// bytes under this format (the paper restricts X to powers of two to
    /// keep address translation simple, §5.3 footnote).
    pub fn max_x(&self, block_bytes: usize) -> u64 {
        let raw = match self {
            PosMapFormat::UncompressedLeaves => block_bytes / 4,
            PosMapFormat::FlatCounters => block_bytes / 8,
            PosMapFormat::Compressed { alpha, beta } => {
                CompressedPosMapBlock::max_x_for_block(block_bytes, *alpha, *beta)
            }
        };
        if raw == 0 {
            0
        } else {
            1u64 << (63 - (raw as u64).leading_zeros())
        }
    }

    /// The smallest PosMap block, in bytes, that holds `x` entries of this
    /// format: the block size of a PosMap level's own tree when there is no
    /// PLB (X = 8 raw leaves give the `R_X8` baseline's 32-byte blocks).
    pub(crate) fn block_bytes_for(&self, x: u64) -> usize {
        let x = x as usize;
        match self {
            PosMapFormat::UncompressedLeaves => x * posmap::uncompressed::LEAF_ENTRY_BYTES,
            PosMapFormat::FlatCounters => x * 8,
            PosMapFormat::Compressed { alpha, beta } => {
                (*alpha as usize + x * *beta as usize).div_ceil(8)
            }
        }
    }
}

/// Full configuration of a Freecursive ORAM controller instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FreecursiveConfig {
    /// Number of data blocks the ORAM must hold (N).
    pub num_blocks: u64,
    /// Data block size in bytes (B), typically the LLC line size.
    pub block_bytes: usize,
    /// Slots per bucket (Z).
    pub z: usize,
    /// PosMap block format.
    pub posmap_format: PosMapFormat,
    /// Explicit X override; `None` derives the largest power-of-two X that
    /// fits the block.
    pub x_override: Option<u64>,
    /// Enable PMMAC integrity verification (§6).
    pub pmmac: bool,
    /// PLB capacity in bytes.  0 means no PLB: nothing then needs the
    /// recursion levels to share a tree (§4.1.2), so each level gets its
    /// own, of blocks just large enough for X entries of the format, and
    /// every request walks all H of them — the Recursive ORAM of `R_X8`.
    /// A nonzero capacity is sized by [`Plb::with_capacity_bytes`], which
    /// clamps it to at least four blocks per way (see
    /// [`FreecursiveConfig::plb`]).
    pub plb_capacity_bytes: usize,
    /// PLB associativity (1 = direct-mapped, the paper's default §7.1.3).
    pub plb_associativity: usize,
    /// On-chip PosMap capacity in entries.
    pub onchip_entries: u64,
    /// Bucket encryption discipline.
    pub encryption: EncryptionMode,
    /// Stash capacity in blocks.
    pub stash_capacity: usize,
    /// Seed for deterministic key and leaf generation.
    pub seed: u64,
    /// Where the trees live (in-memory arena or file-backed store).  The
    /// presets say [`StorageKind::Mem`]; [`crate::OramBuilder`] fills in
    /// its override or the `ORAM_STORAGE` selection, so the
    /// `ORAM_STORAGE=file` test leg covers every builder.
    pub storage: StorageKind,
    /// Write-ahead-log discipline for file-backed trees (see
    /// [`path_oram::wal`]): `None` (no log, the presets' value),
    /// `Batch(n)` or `Strict`.  [`crate::OramBuilder`] fills in its
    /// override or the `ORAM_DURABILITY=strict|batch:<n>` selection, so the
    /// crash-recovery CI leg can switch every builder at once.
    /// Memory-backed trees ignore it.
    pub durability: Durability,
}

impl FreecursiveConfig {
    fn base(num_blocks: u64, block_bytes: usize) -> Self {
        Self {
            num_blocks,
            block_bytes,
            z: 4,
            posmap_format: PosMapFormat::compressed_default(),
            x_override: None,
            pmmac: false,
            plb_capacity_bytes: 64 << 10,
            plb_associativity: 1,
            onchip_entries: (8 << 10) / 8,
            encryption: EncryptionMode::GlobalSeed,
            stash_capacity: path_oram::params::DEFAULT_STASH_CAPACITY,
            seed: 1,
            storage: StorageKind::Mem,
            durability: Durability::None,
        }
    }

    /// The paper's `R_X8` baseline, Recursive ORAM as optimised by \[26\]:
    /// no PLB (so one tree per recursion level), raw leaves, no integrity,
    /// X = 8 (32-byte PosMap blocks) and an 8 KB on-chip PosMap.
    ///
    /// ```
    /// use freecursive::{Oram, OramBuilder, SchemePoint};
    ///
    /// # fn main() -> Result<(), freecursive::FreecursiveError> {
    /// let mut oram = OramBuilder::for_scheme(SchemePoint::RX8)
    ///     .num_blocks(1 << 12)
    ///     .onchip_entries(16)
    ///     .build_freecursive()?;
    /// oram.write(5, &vec![0xAA; 64])?;
    /// assert_eq!(oram.read(5)?, vec![0xAA; 64]);
    /// // Every request walked all H trees.
    /// let h = u64::from(oram.num_levels());
    /// assert_eq!(oram.stats().total_backend_accesses(), 2 * h);
    /// # Ok(())
    /// # }
    /// ```
    pub fn r_x8(num_blocks: u64, block_bytes: usize) -> Self {
        Self {
            posmap_format: PosMapFormat::UncompressedLeaves,
            x_override: Some(8),
            plb_capacity_bytes: 0,
            onchip_entries: (8 << 10) / 4,
            ..Self::base(num_blocks, block_bytes)
        }
    }

    /// The paper's `PC_X32` design point: PLB + compressed PosMap, no
    /// integrity (§7.1.4).
    pub fn pc_x32(num_blocks: u64, block_bytes: usize) -> Self {
        Self::base(num_blocks, block_bytes)
    }

    /// The paper's `P_X16` design point: PLB with uncompressed PosMap blocks.
    pub fn p_x16(num_blocks: u64, block_bytes: usize) -> Self {
        Self {
            posmap_format: PosMapFormat::UncompressedLeaves,
            ..Self::base(num_blocks, block_bytes)
        }
    }

    /// The paper's `PI_X8` design point: PLB + PMMAC with flat 64-bit
    /// counters (no compression).
    pub fn pi_x8(num_blocks: u64, block_bytes: usize) -> Self {
        Self {
            posmap_format: PosMapFormat::FlatCounters,
            pmmac: true,
            ..Self::base(num_blocks, block_bytes)
        }
    }

    /// The paper's `PIC_X32` design point: PLB + compressed PosMap + PMMAC —
    /// the complete Freecursive ORAM.
    pub fn pic_x32(num_blocks: u64, block_bytes: usize) -> Self {
        Self {
            pmmac: true,
            ..Self::base(num_blocks, block_bytes)
        }
    }

    /// The PosMap fan-out X in effect.
    pub fn x(&self) -> u64 {
        self.x_override
            .unwrap_or_else(|| self.posmap_format.max_x(self.block_bytes))
    }

    /// The recursion this configuration sets up: H, X and the block count
    /// of every level.
    pub fn addressing(&self) -> RecursionAddressing {
        RecursionAddressing::new(self.num_blocks, self.x(), self.onchip_entries)
    }

    /// The (empty) PLB this configuration describes: `None` at capacity 0,
    /// else sized by [`Plb::with_capacity_bytes`] in data-block-sized
    /// PosMap blocks.
    pub fn plb<V>(&self) -> Option<Plb<V>> {
        let ways = self.plb_associativity.max(1);
        (self.plb_capacity_bytes > 0)
            .then(|| Plb::with_capacity_bytes(self.plb_capacity_bytes, self.block_bytes, ways))
    }

    /// Index into [`FreecursiveConfig::trees`] of the tree serving
    /// recursion level `level`.
    pub fn tree_of(&self, level: u32) -> usize {
        if self.plb_capacity_bytes > 0 {
            0
        } else {
            level as usize
        }
    }

    /// Block count and payload bytes (block plus any PMMAC trailer) of each
    /// ORAM tree this configuration builds: the one unified tree with a
    /// PLB, otherwise one tree per recursion level, index = level.
    pub fn trees(&self) -> Vec<(u64, usize)> {
        let rec = self.addressing();
        let mac = if self.pmmac { MAC_BYTES } else { 0 };
        if self.plb_capacity_bytes > 0 {
            return vec![(rec.unified_total_blocks(), self.block_bytes + mac)];
        }
        let posmap_bytes = self.posmap_format.block_bytes_for(rec.x());
        (0..rec.num_levels())
            .map(|level| {
                let bytes = if level == 0 {
                    self.block_bytes
                } else {
                    posmap_bytes
                };
                (rec.blocks_at_level(level), bytes + mac)
            })
            .collect()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when parameters are inconsistent: PMMAC with
    /// the uncompressed-leaf format, an X that does not fit the unified
    /// tree's block, degenerate sizes, or a tree deeper than
    /// [`path_oram::OramParams::MAX_LEAF_LEVEL`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_blocks == 0 || self.block_bytes == 0 || self.z == 0 {
            return Err(ConfigError::Degenerate);
        }
        if self.pmmac && self.posmap_format == PosMapFormat::UncompressedLeaves {
            return Err(ConfigError::PmmacNeedsCounters);
        }
        let x = self.x();
        if x < 2 {
            return Err(ConfigError::XTooSmall { x });
        }
        // Only the unified tree makes PosMap blocks data-block sized.
        let max = self.posmap_format.max_x(self.block_bytes);
        if self.plb_capacity_bytes > 0 && x > max {
            return Err(ConfigError::XTooLarge { x, max });
        }
        if self.onchip_entries == 0 {
            return Err(ConfigError::Degenerate);
        }
        for (blocks, _) in self.trees() {
            if OramParams::leaf_level_for(blocks, self.z).is_none() {
                return Err(ConfigError::TooManyBlocks {
                    num_blocks: self.num_blocks,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OramBuilder;
    use crate::scheme::SchemePoint;

    fn preset(scheme: SchemePoint, n: u64, block: usize) -> FreecursiveConfig {
        OramBuilder::for_scheme(scheme)
            .num_blocks(n)
            .block_bytes(block)
            .freecursive_config()
            .unwrap()
    }

    #[test]
    fn presets_match_paper_x_values_for_64_byte_blocks() {
        assert_eq!(preset(SchemePoint::RX8, 1 << 20, 64).x(), 8);
        assert_eq!(preset(SchemePoint::PX16, 1 << 20, 64).x(), 16);
        assert_eq!(preset(SchemePoint::PcX32, 1 << 20, 64).x(), 32);
        assert_eq!(preset(SchemePoint::PiX8, 1 << 20, 64).x(), 8);
        assert_eq!(preset(SchemePoint::PicX32, 1 << 20, 64).x(), 32);
    }

    #[test]
    fn compressed_x_doubles_with_128_byte_blocks() {
        // PC_X64 in §7.1.5.
        assert_eq!(preset(SchemePoint::PcX32, 1 << 20, 128).x(), 64);
    }

    #[test]
    fn validation_accepts_presets() {
        for scheme in [
            SchemePoint::RX8,
            SchemePoint::PX16,
            SchemePoint::PcX32,
            SchemePoint::PiX8,
            SchemePoint::PicX32,
        ] {
            let cfg = preset(scheme, 1 << 16, 64);
            assert!(cfg.validate().is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn pmmac_with_uncompressed_leaves_is_rejected() {
        let cfg = FreecursiveConfig {
            pmmac: true,
            ..preset(SchemePoint::PX16, 1 << 16, 64)
        };
        assert_eq!(cfg.validate(), Err(ConfigError::PmmacNeedsCounters));
    }

    #[test]
    fn oversized_x_override_is_rejected() {
        let cfg = FreecursiveConfig {
            x_override: Some(1 << 20),
            ..preset(SchemePoint::PcX32, 1 << 16, 64)
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::XTooLarge { .. })));
    }

    #[test]
    fn pmmac_trees_carry_the_mac_field() {
        // One unified tree each; only PIC_X32's payload grows by the MAC.
        let pc = preset(SchemePoint::PcX32, 1 << 16, 64).trees();
        let pic = preset(SchemePoint::PicX32, 1 << 16, 64).trees();
        assert_eq!((pc.len(), pc[0].1), (1, 64));
        assert_eq!(pic, vec![(pc[0].0, 64 + MAC_BYTES)]);
    }

    #[test]
    fn baseline_posmap_trees_use_small_blocks() {
        // R_X8: one tree per level, data blocks at level 0 and 32-byte PosMap
        // blocks (X = 8 raw 4-byte leaves) above, as in [26].
        let rx8 = preset(SchemePoint::RX8, 1 << 16, 64);
        let rec = rx8.addressing();
        assert!(rec.num_levels() >= 3);
        let expected: Vec<_> = (0..rec.num_levels())
            .map(|level| (rec.blocks_at_level(level), if level == 0 { 64 } else { 32 }))
            .collect();
        assert_eq!(rx8.trees(), expected);
    }

    #[test]
    fn presets_never_read_the_environment() {
        let cfg = FreecursiveConfig::pic_x32(1 << 10, 64);
        assert_eq!(
            (cfg.storage, cfg.durability),
            (StorageKind::Mem, Durability::None)
        );
    }

    #[test]
    fn format_prf_usage() {
        assert!(!PosMapFormat::UncompressedLeaves.uses_prf());
        assert!(PosMapFormat::FlatCounters.uses_prf());
        assert!(PosMapFormat::compressed_default().uses_prf());
    }
}
