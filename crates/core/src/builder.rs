//! The single construction path for every evaluation design point.
//!
//! [`OramBuilder`] replaces the old ad-hoc constructors
//! (`FreecursiveConfig::pic_x32`, `FreecursiveConfig::r_x8`, …) with one
//! entry point keyed by [`SchemePoint`]:
//!
//! ```
//! use freecursive::{Oram, OramBuilder, SchemePoint};
//!
//! # fn main() -> Result<(), freecursive::FreecursiveError> {
//! // Any design point, as a trait object:
//! let mut oram = OramBuilder::for_scheme(SchemePoint::PicX32)
//!     .num_blocks(1 << 12)
//!     .build()?;
//! oram.write(7, &vec![0xAB; 64])?;
//! assert_eq!(oram.read(7)?, vec![0xAB; 64]);
//! # Ok(())
//! # }
//! ```
//!
//! Every knob of the underlying configurations is exposed as an override;
//! unset knobs fall back to the paper's defaults for the chosen scheme
//! (including the per-scheme block size: 64 B for the main table, 128 B for
//! `PC_X64`, 4 KB for Phantom).

use crate::config::{FreecursiveConfig, PosMapFormat};
use crate::error::{ConfigError, FreecursiveError};
use crate::frontend::FreecursiveOram;
use crate::insecure::InsecureOram;
use crate::scheme::SchemePoint;
use crate::service::OramService;
use crate::sharded::ShardedOram;
use crate::traits::Oram;
use path_oram::{Durability, EncryptionMode, OramBackend, OramError, PathOramBackend, StorageKind};
use std::path::Path;

/// The process environment, as [`OramBuilder::environment`] reads it.
fn env_var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Builder for every ORAM design point of the evaluation.
///
/// See the [module documentation](self) for an overview and the `build_*`
/// methods for the concrete construction targets.
#[derive(Debug, Clone)]
pub struct OramBuilder {
    scheme: SchemePoint,
    num_blocks: u64,
    block_bytes: Option<usize>,
    z: Option<usize>,
    onchip_entries: Option<u64>,
    plb_capacity_bytes: Option<usize>,
    plb_associativity: Option<usize>,
    posmap_format: Option<PosMapFormat>,
    x_override: Option<u64>,
    encryption: Option<EncryptionMode>,
    stash_capacity: Option<usize>,
    seed: Option<u64>,
    shards: u64,
    storage: Option<StorageKind>,
    durability: Option<Durability>,
}

impl OramBuilder {
    /// Starts a builder for the given design point with the paper's default
    /// geometry (2^20 blocks of the scheme's evaluation block size).
    pub fn for_scheme(scheme: SchemePoint) -> Self {
        Self {
            scheme,
            num_blocks: 1 << 20,
            block_bytes: None,
            z: None,
            onchip_entries: None,
            plb_capacity_bytes: None,
            plb_associativity: None,
            posmap_format: None,
            x_override: None,
            encryption: None,
            stash_capacity: None,
            seed: None,
            shards: 1,
            storage: None,
            durability: None,
        }
    }

    /// The design point this builder constructs.
    pub fn scheme(&self) -> SchemePoint {
        self.scheme
    }

    /// Sets the number of data blocks (N).
    pub fn num_blocks(mut self, n: u64) -> Self {
        self.num_blocks = n;
        self
    }

    /// Sets the data block size in bytes (default: the scheme's evaluation
    /// block size, see [`SchemePoint::default_block_bytes`]).
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = Some(bytes);
        self
    }

    /// Sets the slots per bucket (Z).
    pub fn z(mut self, z: usize) -> Self {
        self.z = Some(z);
        self
    }

    /// Sets the on-chip PosMap capacity in entries.
    ///
    /// Ignored for [`SchemePoint::Phantom4K`], whose defining property is a
    /// fully on-chip position map (the capacity is pinned to `num_blocks`);
    /// every other scheme honours the override.
    pub fn onchip_entries(mut self, entries: u64) -> Self {
        self.onchip_entries = Some(entries);
        self
    }

    /// Sets the PLB capacity in bytes.
    ///
    /// 0 means no PLB: the frontend then keeps one tree per recursion level
    /// instead of the unified tree and walks all of them on every request —
    /// the `R_X8` shape, with this scheme's PosMap format and PMMAC flag
    /// (see [`FreecursiveConfig::plb_capacity_bytes`]).  Any other value is
    /// clamped to at least four blocks per way
    /// ([`posmap::Plb::with_capacity_bytes`]).
    pub fn plb_capacity_bytes(mut self, bytes: usize) -> Self {
        self.plb_capacity_bytes = Some(bytes);
        self
    }

    /// Sets the PLB associativity.
    pub fn plb_associativity(mut self, ways: usize) -> Self {
        self.plb_associativity = Some(ways);
        self
    }

    /// Overrides the PosMap block format (e.g. a non-default α/β for the
    /// compressed format).
    pub fn posmap_format(mut self, format: PosMapFormat) -> Self {
        self.posmap_format = Some(format);
        self
    }

    /// Overrides the PosMap fan-out X explicitly.
    pub fn x(mut self, x: u64) -> Self {
        self.x_override = Some(x);
        self
    }

    /// Sets the bucket encryption discipline.
    pub fn encryption(mut self, mode: EncryptionMode) -> Self {
        self.encryption = Some(mode);
        self
    }

    /// Sets the stash capacity in blocks.
    pub fn stash_capacity(mut self, blocks: usize) -> Self {
        self.stash_capacity = Some(blocks);
        self
    }

    /// Sets the key seed: every tree, PRF and MAC key derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The key seed in effect (explicit override, or the default seed 1
    /// every configuration falls back to).  Layers stacked on top of the
    /// built instance (e.g. the oblivious map's key-hashing seed) derive
    /// their own randomness from this value so one builder knob seeds the
    /// whole stack deterministically.
    pub fn seed_in_effect(&self) -> u64 {
        self.seed.unwrap_or(1)
    }

    /// Sets the number of shards for [`OramBuilder::build_sharded`] /
    /// [`OramBuilder::build_service`] (default 1).  `num_blocks` stays the
    /// *global* capacity: it is divided across the shards, padding the
    /// per-shard capacity up to `ceil(num_blocks / n)` when it doesn't
    /// divide evenly (so the composite's reported capacity rounds up to
    /// `n * ceil(num_blocks / n)`).
    pub fn shards(mut self, n: u64) -> Self {
        self.shards = n;
        self
    }

    /// Sets where the ORAM tree lives: the in-memory arena (default), a
    /// file-backed store in a chosen directory, a tiered store splitting
    /// the treetop into RAM with the rest file-backed, or throwaway
    /// temp-dir variants of either.  Unset, `ORAM_STORAGE` decides
    /// (`file` selects temp-file storage, `tiered` temp-dir tiered storage
    /// with the treetop budget from `ORAM_MEMORY_BUDGET`; see
    /// [`OramBuilder::storage_in_effect`]).  With more than one
    /// [`OramBuilder::shards`], file-backed shards descend into
    /// `shard<i>/` subdirectories of the given directory.
    pub fn storage(mut self, kind: StorageKind) -> Self {
        self.storage = Some(kind);
        self
    }

    /// Sets the write-ahead-log discipline for file-backed trees:
    /// [`Durability::None`] (no log, the default), `Batch(n)` (fsync the log
    /// every `n` path writebacks) or `Strict` (fsync every writeback).
    /// Unset, `ORAM_DURABILITY=strict|batch:<n>` decides (see
    /// [`Durability::from_env`]).  Memory-backed trees ignore it.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = Some(durability);
        self
    }

    /// The storage kind in effect: the explicit override, or else the
    /// environment's `ORAM_STORAGE` / `ORAM_MEMORY_BUDGET` selection.
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Backend`] wrapping [`path_oram::OramError::Storage`]
    /// for a malformed environment value.
    pub fn storage_in_effect(&self) -> Result<StorageKind, FreecursiveError> {
        Ok(self.environment(env_var)?.0)
    }

    /// Resolves the storage kind and durability once, reading variables
    /// through `var` ([`StorageKind::from_env`] / [`Durability::from_env`])
    /// only for the knobs left unset: the one place the configuration
    /// consults the environment.  The one other variable the stack reads,
    /// `ORAM_CRYPTO_FORCE_SOFT`, is read by `oram-crypto` itself (its
    /// engine selection, shared by the CRC-64 dispatch), because the cipher
    /// engine is chosen once per process and sits below any configuration:
    /// every instance in the process uses the same one.
    fn environment(
        &self,
        var: impl Fn(&str) -> Option<String>,
    ) -> Result<(StorageKind, Durability), OramError> {
        let storage = match &self.storage {
            Some(kind) => kind.clone(),
            None => StorageKind::from_env(&var)?,
        };
        let durability = match self.durability {
            Some(durability) => durability,
            None => Durability::from_env(&var)?,
        };
        Ok((storage, durability))
    }

    /// The block size in effect (explicit override or scheme default).
    pub fn block_bytes_in_effect(&self) -> usize {
        self.block_bytes
            .unwrap_or_else(|| self.scheme.default_block_bytes())
    }

    /// Resolves the [`FreecursiveConfig`] for a tree-backed scheme point
    /// (`R_X8`, `P_X16`, `PC_X32`, `PC_X64`, `PI_X8`, `PIC_X32`, or the
    /// non-recursive `Phantom_4KB` emulation).
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnsupportedScheme`] for `insecure`, or any validation
    /// error of the resolved configuration.
    pub fn freecursive_config(&self) -> Result<FreecursiveConfig, FreecursiveError> {
        let block = self.block_bytes_in_effect();
        let mut config = match self.scheme {
            SchemePoint::RX8 => FreecursiveConfig::r_x8(self.num_blocks, block),
            SchemePoint::PX16 => FreecursiveConfig::p_x16(self.num_blocks, block),
            SchemePoint::PcX32 | SchemePoint::PcX64 => {
                FreecursiveConfig::pc_x32(self.num_blocks, block)
            }
            SchemePoint::PiX8 => FreecursiveConfig::pi_x8(self.num_blocks, block),
            SchemePoint::PicX32 => FreecursiveConfig::pic_x32(self.num_blocks, block),
            // Phantom keeps the whole position map on chip: a non-recursive
            // ORAM (H = 1), so the PosMap format never reaches the tree.
            SchemePoint::Phantom4K => {
                let mut cfg = FreecursiveConfig::p_x16(self.num_blocks, block);
                cfg.onchip_entries = self.num_blocks;
                cfg
            }
            SchemePoint::Insecure => {
                return Err(ConfigError::UnsupportedScheme {
                    scheme: self.scheme.label(),
                }
                .into())
            }
        };
        if let Some(z) = self.z {
            config.z = z;
        }
        if let Some(entries) = self.onchip_entries {
            // Phantom's defining property is the fully on-chip PosMap; don't
            // let a smaller override reintroduce recursion silently.
            if self.scheme != SchemePoint::Phantom4K {
                config.onchip_entries = entries;
            }
        }
        if let Some(bytes) = self.plb_capacity_bytes {
            config.plb_capacity_bytes = bytes;
        }
        if let Some(ways) = self.plb_associativity {
            config.plb_associativity = ways;
        }
        if let Some(format) = self.posmap_format {
            config.posmap_format = format;
        }
        if let Some(x) = self.x_override {
            config.x_override = Some(x);
        }
        if let Some(mode) = self.encryption {
            config.encryption = mode;
        }
        if let Some(capacity) = self.stash_capacity {
            config.stash_capacity = capacity;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        (config.storage, config.durability) = self.environment(env_var)?;
        config.validate()?;
        Ok(config)
    }

    /// Builds a [`FreecursiveOram`] over an explicit backend type — the
    /// generic seam (e.g. `build_freecursive_on::<InsecureBackend>()` for a
    /// full frontend over flat memory).
    ///
    /// # Errors
    ///
    /// As for [`OramBuilder::freecursive_config`], plus backend construction
    /// failures.
    pub fn build_freecursive_on<B: OramBackend>(
        &self,
    ) -> Result<FreecursiveOram<B>, FreecursiveError> {
        FreecursiveOram::new(self.freecursive_config()?)
    }

    /// Builds a [`FreecursiveOram`] over the Path ORAM backend.
    ///
    /// # Errors
    ///
    /// As for [`OramBuilder::build_freecursive_on`].
    pub fn build_freecursive(&self) -> Result<FreecursiveOram, FreecursiveError> {
        self.build_freecursive_on::<PathOramBackend>()
    }

    /// Builds the flat [`InsecureOram`] baseline.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnsupportedScheme`] unless the scheme is `insecure`,
    /// or [`ConfigError::Degenerate`] for zero sizes.
    pub fn build_insecure(&self) -> Result<InsecureOram, FreecursiveError> {
        if self.scheme != SchemePoint::Insecure {
            return Err(ConfigError::UnsupportedScheme {
                scheme: self.scheme.label(),
            }
            .into());
        }
        InsecureOram::new(self.num_blocks, self.block_bytes_in_effect())
    }

    /// Builds the design point as a trait object — the uniform entry point
    /// when the caller doesn't care which frontend serves the scheme.
    ///
    /// Honours every knob, including [`OramBuilder::shards`]: with more
    /// than one shard this returns the [`ShardedOram`] composite (for the
    /// worker-thread runtime use [`OramBuilder::build_service`], which has
    /// no trait-object shape to return).
    ///
    /// # Errors
    ///
    /// Any configuration or backend construction failure for the scheme.
    pub fn build(&self) -> Result<Box<dyn Oram>, FreecursiveError> {
        if self.shards > 1 {
            return Ok(Box::new(self.build_sharded()?));
        }
        Ok(match self.scheme {
            SchemePoint::Insecure => Box::new(self.build_insecure()?),
            _ => Box::new(self.build_freecursive()?),
        })
    }

    /// Builds the [`OramBuilder::shards`] shard instances: the global
    /// `num_blocks` is divided across the shards (padding the per-shard
    /// capacity to `ceil(num_blocks / shards)` for uneven splits), the
    /// shared configuration is validated **once**, and each shard gets a
    /// distinct key seed (`base_seed + shard_index`, base 1 unless
    /// [`OramBuilder::seed`] was set) so shards never share randomness or
    /// keys.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Degenerate`] for zero shards, otherwise as for
    /// [`OramBuilder::build`] on the per-shard configuration.
    fn shard_instances(&self) -> Result<Vec<Box<dyn Oram>>, FreecursiveError> {
        if self.shards == 0 {
            return Err(ConfigError::Degenerate.into());
        }
        let per_shard = self.num_blocks.div_ceil(self.shards);
        let base_seed = self.seed.unwrap_or(1);
        // The prototype builds ONE shard: its own shard count must be 1 or
        // the `build()` call below would recurse into `build_sharded`.
        let prototype = self.clone().num_blocks(per_shard).shards(1);
        // Validate the shared configuration once, up front, so a bad knob
        // combination fails identically for every shard count (the
        // per-shard builds below re-use the already-validated settings and
        // differ only in seed).
        if self.scheme != SchemePoint::Insecure {
            prototype.freecursive_config()?;
        }
        // File-backed storage descends into one subdirectory per shard, so
        // shards never collide on tree files.
        let storage = self.storage_in_effect()?;
        (0..self.shards)
            .map(|shard| {
                prototype
                    .clone()
                    .seed(base_seed.wrapping_add(shard))
                    .storage(storage.subdir(&format!("shard{shard}")))
                    .build()
            })
            .collect()
    }

    /// Builds a [`ShardedOram`] composite: `shards` independent instances
    /// of this design point behind the low-bits address router, executing
    /// on the caller's thread.  See [`OramBuilder::shards`] for how
    /// `num_blocks` is split.
    ///
    /// # Errors
    ///
    /// As for [`OramBuilder::build`], plus [`ConfigError::Degenerate`] for
    /// zero shards.
    pub fn build_sharded(&self) -> Result<ShardedOram, FreecursiveError> {
        ShardedOram::new(self.shard_instances()?)
    }

    /// Builds a running [`OramService`]: the same shards as
    /// [`OramBuilder::build_sharded`], each on its own worker thread,
    /// driven through [`crate::OramClient`] handles.
    ///
    /// # Errors
    ///
    /// As for [`OramBuilder::build_sharded`], plus thread-spawn failures.
    pub fn build_service(&self) -> Result<OramService, FreecursiveError> {
        OramService::from_shards(self.shard_instances()?)
    }

    /// Rebuilds an instance from a snapshot directory written by
    /// [`crate::Oram::persist`], as a trait object.  The snapshot records
    /// which frontend wrote it (Freecursive, with or without a PLB;
    /// Insecure; or a sharded composite with per-shard subdirectories) and
    /// its full configuration — including whether the trees were memory- or
    /// file-backed; file-backed snapshots reopen their tree files in place,
    /// so `dir` stays the live storage directory of the resumed instance.
    ///
    /// The resumed instance continues the exact request-for-request
    /// behaviour of the persisted one: responses, final contents, stats
    /// and randomness all match an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Integrity`] if a state file fails its digest
    /// check; [`FreecursiveError::Backend`] wrapping
    /// [`path_oram::OramError::Snapshot`] /
    /// [`path_oram::OramError::Storage`] for version mismatches, truncated
    /// or missing files, and I/O failures; [`FreecursiveError::Config`] if
    /// the recorded configuration no longer validates.
    pub fn resume(dir: impl AsRef<Path>) -> Result<Box<dyn Oram>, FreecursiveError> {
        Self::resume_at(dir.as_ref(), true)
    }

    fn resume_at(dir: &Path, allow_composite: bool) -> Result<Box<dyn Oram>, FreecursiveError> {
        let (kind, payload) =
            path_oram::snapshot::read_state_file(&crate::persist::state_path(dir))?;
        match kind {
            crate::persist::KIND_FREECURSIVE | crate::persist::KIND_FREECURSIVE_XOSHIRO => {
                Ok(Box::new(FreecursiveOram::<PathOramBackend>::resume(dir)?))
            }
            crate::persist::KIND_INSECURE => Ok(Box::new(InsecureOram::resume(dir)?)),
            crate::persist::KIND_SHARDED if allow_composite => {
                let mut r = path_oram::snapshot::SnapReader::new(&payload);
                let num_shards = r.len(1 << 20)?;
                r.finish()?;
                let shards = (0..num_shards)
                    .map(|index| Self::resume_at(&dir.join(format!("shard{index}")), false))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Box::new(ShardedOram::new(shards)?))
            }
            other => Err(crate::persist::wrong_kind("resumable ORAM", other).into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use path_oram::InsecureBackend;

    #[test]
    fn builder_resolves_the_paper_presets() {
        let cfg = OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(1 << 16)
            .freecursive_config()
            .unwrap();
        assert!(cfg.pmmac);
        assert_eq!(cfg.x(), 32);
        let cfg = OramBuilder::for_scheme(SchemePoint::PX16)
            .num_blocks(1 << 16)
            .freecursive_config()
            .unwrap();
        assert!(!cfg.pmmac);
        assert_eq!(cfg.x(), 16);
        // PC_X64 defaults to 128-byte blocks, doubling X.
        let cfg = OramBuilder::for_scheme(SchemePoint::PcX64)
            .num_blocks(1 << 16)
            .freecursive_config()
            .unwrap();
        assert_eq!(cfg.block_bytes, 128);
        assert_eq!(cfg.x(), 64);
        // R_X8 is the same frontend with no PLB: raw leaves, X = 8.
        let cfg = OramBuilder::for_scheme(SchemePoint::RX8)
            .num_blocks(1 << 16)
            .freecursive_config()
            .unwrap();
        assert_eq!(cfg.plb_capacity_bytes, 0);
        assert!(!cfg.pmmac);
        assert_eq!(cfg.posmap_format, PosMapFormat::UncompressedLeaves);
        assert_eq!((cfg.x(), cfg.onchip_entries), (8, 2048));
    }

    #[test]
    fn overrides_reach_the_config() {
        let cfg = OramBuilder::for_scheme(SchemePoint::PcX32)
            .num_blocks(1 << 12)
            .block_bytes(128)
            .z(3)
            .onchip_entries(64)
            .plb_capacity_bytes(32 << 10)
            .plb_associativity(4)
            .seed(99)
            .freecursive_config()
            .unwrap();
        assert_eq!(cfg.block_bytes, 128);
        assert_eq!(cfg.z, 3);
        assert_eq!(cfg.onchip_entries, 64);
        assert_eq!(cfg.plb_capacity_bytes, 32 << 10);
        assert_eq!(cfg.plb_associativity, 4);
        assert_eq!(cfg.seed, 99);
    }

    /// An environment holding exactly the `NAME=value` pairs in `vars`.
    fn env(vars: &str) -> impl Fn(&str) -> Option<String> + '_ {
        move |name| {
            let mut pairs = vars.split_whitespace();
            pairs.find_map(|pair| pair.strip_prefix(name)?.strip_prefix('=').map(String::from))
        }
    }

    #[test]
    fn malformed_environment_values_are_errors_not_panics() {
        let builder = OramBuilder::for_scheme(SchemePoint::PcX32);
        for vars in [
            "ORAM_STORAGE=bogus",
            "ORAM_DURABILITY=stric",
            "ORAM_STORAGE=tiered ORAM_MEMORY_BUDGET=lots",
        ] {
            let resolved = builder.environment(env(vars));
            assert!(matches!(resolved, Err(OramError::Storage { .. })), "{vars}");
        }
    }

    #[test]
    fn the_environment_fills_only_unset_knobs() {
        let builder = OramBuilder::for_scheme(SchemePoint::PcX32);
        let unset = (StorageKind::Mem, Durability::None);
        assert_eq!(builder.environment(env("")), Ok(unset));
        let vars = "ORAM_STORAGE=tiered ORAM_MEMORY_BUDGET=64k ORAM_DURABILITY=batch:8";
        let tiered = StorageKind::TempTiered {
            memory_budget: 64 << 10,
        };
        assert_eq!(
            builder.environment(env(vars)),
            Ok((tiered, Durability::Batch(8)))
        );
        // Explicit knobs win, and the variables they shadow are not read.
        let pinned = builder
            .storage(StorageKind::TempFile)
            .durability(Durability::Strict);
        let bad = "ORAM_STORAGE=bogus ORAM_MEMORY_BUDGET=lots ORAM_DURABILITY=stric";
        let explicit = (StorageKind::TempFile, Durability::Strict);
        assert_eq!(pinned.environment(env(bad)), Ok(explicit));
    }

    #[test]
    fn phantom_is_non_recursive() {
        let oram = OramBuilder::for_scheme(SchemePoint::Phantom4K)
            .num_blocks(256)
            .block_bytes(64)
            .build_freecursive()
            .unwrap();
        assert_eq!(oram.num_levels(), 1);
    }

    #[test]
    fn mismatched_scheme_and_target_is_an_error() {
        assert!(matches!(
            OramBuilder::for_scheme(SchemePoint::Insecure).freecursive_config(),
            Err(FreecursiveError::Config(
                ConfigError::UnsupportedScheme { .. }
            ))
        ));
        assert!(matches!(
            OramBuilder::for_scheme(SchemePoint::PcX32).build_insecure(),
            Err(FreecursiveError::Config(
                ConfigError::UnsupportedScheme { .. }
            ))
        ));
    }

    #[test]
    fn rx8_rejects_degenerate_sizes_instead_of_panicking() {
        let rx8 = || OramBuilder::for_scheme(SchemePoint::RX8).num_blocks(1 << 10);
        for (field, builder) in [
            ("num_blocks", rx8().num_blocks(0)),
            ("block_bytes", rx8().block_bytes(0)),
            ("z", rx8().z(0)),
            ("onchip_entries", rx8().onchip_entries(0)),
        ] {
            assert!(
                matches!(
                    builder.build(),
                    Err(FreecursiveError::Config(ConfigError::Degenerate))
                ),
                "{field} = 0"
            );
        }
        // PosMap blocks holding fewer than two entries are the other
        // degenerate shape.
        assert!(matches!(
            rx8().x(1).build(),
            Err(FreecursiveError::Config(ConfigError::XTooSmall { x: 1 }))
        ));
    }

    /// Builds `builder` and expects the oversized-capacity error.
    fn assert_too_many_blocks(builder: OramBuilder) {
        let num_blocks = builder.num_blocks;
        assert!(
            matches!(
                builder.build(),
                Err(FreecursiveError::Config(ConfigError::TooManyBlocks { num_blocks: n })) if n == num_blocks
            ),
            "{} at {num_blocks} blocks",
            builder.scheme().label()
        );
    }

    #[test]
    fn oversized_pic_x32_is_a_config_error() {
        let builder = OramBuilder::for_scheme(SchemePoint::PicX32).num_blocks(1 << 40);
        assert!(matches!(
            builder.freecursive_config(),
            Err(FreecursiveError::Config(ConfigError::TooManyBlocks { .. }))
        ));
        assert_too_many_blocks(builder);
    }

    #[test]
    fn oversized_rx8_is_a_config_error() {
        assert_too_many_blocks(OramBuilder::for_scheme(SchemePoint::RX8).num_blocks(1 << 40));
    }

    #[test]
    fn oversized_insecure_is_a_config_error() {
        assert_too_many_blocks(OramBuilder::for_scheme(SchemePoint::Insecure).num_blocks(1 << 34));
    }

    #[test]
    fn insecure_near_u64_max_is_a_config_error_not_a_hang() {
        assert_too_many_blocks(
            OramBuilder::for_scheme(SchemePoint::Insecure).num_blocks((1 << 63) - 1),
        );
    }

    #[test]
    fn invalid_overrides_surface_as_config_errors() {
        assert!(matches!(
            OramBuilder::for_scheme(SchemePoint::PcX32)
                .num_blocks(1 << 12)
                .x(1 << 20)
                .freecursive_config(),
            Err(FreecursiveError::Config(ConfigError::XTooLarge { .. }))
        ));
    }

    #[test]
    fn build_sharded_divides_capacity_and_pads_uneven_splits() {
        use crate::traits::Oram as _;
        // Even split: 64 blocks over 4 shards of 16.
        let oram = OramBuilder::for_scheme(SchemePoint::Insecure)
            .num_blocks(64)
            .block_bytes(16)
            .shards(4)
            .build_sharded()
            .unwrap();
        assert_eq!(oram.num_shards(), 4);
        assert_eq!(oram.num_blocks(), 64);
        // Uneven split: 10 blocks over 4 shards pads each to ceil(10/4) = 3,
        // reported capacity 12 — and the whole padded space is usable.
        let mut oram = OramBuilder::for_scheme(SchemePoint::Insecure)
            .num_blocks(10)
            .block_bytes(16)
            .shards(4)
            .build_sharded()
            .unwrap();
        assert_eq!(oram.num_blocks(), 12);
        for addr in 0..12u64 {
            oram.write(addr, &[addr as u8; 16]).unwrap();
            assert_eq!(oram.read(addr).unwrap(), vec![addr as u8; 16]);
        }
        // Zero shards is a configuration error.
        assert!(matches!(
            OramBuilder::for_scheme(SchemePoint::Insecure)
                .num_blocks(8)
                .shards(0)
                .build_sharded(),
            Err(FreecursiveError::Config(ConfigError::Degenerate))
        ));
    }

    #[test]
    fn build_honours_the_shards_knob() {
        use crate::traits::Oram as _;
        // The uniform trait-object entry point must not silently ignore
        // `.shards(n)`: with 4 shards over 10 blocks it returns the
        // composite, observable through the padded capacity (12, not 10).
        let mut oram = OramBuilder::for_scheme(SchemePoint::Insecure)
            .num_blocks(10)
            .block_bytes(16)
            .shards(4)
            .build()
            .unwrap();
        assert_eq!(oram.num_blocks(), 12);
        oram.write(11, &[3u8; 16]).unwrap();
        assert_eq!(oram.read(11).unwrap(), vec![3u8; 16]);
    }

    #[test]
    fn sharded_tree_schemes_build_from_one_validated_config() {
        use crate::traits::Oram as _;
        // A real tree scheme across shards: each shard is an independent
        // PicX32 instance at a quarter of the capacity.
        let mut oram = OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(1 << 10)
            .block_bytes(64)
            .onchip_entries(32)
            .shards(4)
            .build_sharded()
            .unwrap();
        oram.write(1023, &[0xCD; 64]).unwrap();
        assert_eq!(oram.read(1023).unwrap(), vec![0xCD; 64]);
        // An invalid knob fails at the shared-config validation, before any
        // shard is built.
        assert!(matches!(
            OramBuilder::for_scheme(SchemePoint::PcX32)
                .num_blocks(1 << 10)
                .x(1 << 20)
                .shards(4)
                .build_sharded(),
            Err(FreecursiveError::Config(ConfigError::XTooLarge { .. }))
        ));
    }

    #[test]
    fn generic_seam_builds_over_the_insecure_backend() {
        let mut oram = OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(1 << 10)
            .onchip_entries(32)
            .build_freecursive_on::<InsecureBackend>()
            .unwrap();
        use crate::traits::Oram as _;
        oram.write(1, &[3u8; 64]).unwrap();
        assert_eq!(oram.read(1).unwrap(), vec![3u8; 64]);
        // The full frontend machinery ran: PMMAC verified MACs even though
        // the backend is a flat hash map.
        assert!(oram.stats().macs_verified > 0);
    }
}
