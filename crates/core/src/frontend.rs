//! The Freecursive ORAM frontend: PLB + unified ORAM tree (§4), compressed
//! PosMap (§5), and PMMAC integrity verification (§6).
//!
//! All PosMap blocks and data blocks live in a **single** ORAM tree (the
//! unified tree `ORam_U`), addressed in the disjoint `i‖a_i` space.  The
//! frontend keeps recently used PosMap blocks in the PLB; on an access it
//! probes the PLB from the data level upward, fetches only the PosMap blocks
//! it is missing (each with a `readrmv`), and finally accesses the data
//! block.  PLB evictions are `append`ed back into the stash (§4.2.2–§4.2.4).
//!
//! The same code path implements every tree-backed design point of the
//! evaluation; which one you get is decided by the [`FreecursiveConfig`]
//! PosMap format, PMMAC flag and PLB capacity.  With no PLB (capacity 0)
//! nothing forces the levels into one tree (§4.1.2), so each recursion
//! level keeps its own and the walk starts at the top every time: that is
//! the Recursive ORAM baseline `R_X8` (§3.2).

use crate::config::FreecursiveConfig;
use crate::error::FreecursiveError;
use crate::payload::{draw_leaf, AdvanceResult, GroupRemapInfo, PosMapBlockPayload};
use crate::stats::FrontendStats;
use crate::traits::{Oram, Request, Response};
use oram_crypto::mac::{Mac, MacKey, MAC_BYTES};
use oram_crypto::prf::AesPrf;
use path_oram::{AccessOp, OramBackend, OramError, OramParams, PathOramBackend};
use posmap::addressing::{tag_address, untag_address, RecursionAddressing};
use posmap::onchip::{OnChipEntryKind, OnChipPosMap};
use posmap::{Plb, PlbEntry};

/// What the frontend stores per PLB-resident PosMap block: the typed payload
/// plus the access counter that will authenticate it when it is appended back
/// (the counter does not change while the block is PLB-resident, §6.2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlbPayload {
    /// The PosMap block contents.
    pub block: PosMapBlockPayload,
    /// The block's own access counter (`None` when PMMAC is disabled and the
    /// format is raw leaves).
    pub counter: Option<u64>,
}

/// The result of resolving one recursion step: the child's current position
/// and its freshly assigned one.
#[derive(Debug, Clone)]
struct ResolvedChild {
    current_leaf: u64,
    current_counter: Option<u64>,
    advance: AdvanceResult,
}

/// The Freecursive ORAM controller: frontend plus a pluggable
/// [`OramBackend`] (the functional Path ORAM tree by default).
///
/// The backend type parameter is the paper's Frontend/Backend seam (§3.1):
/// everything PLB-, compression- and PMMAC-related lives here and is
/// oblivious to how the backend stores paths.  Use
/// [`crate::OramBuilder`] to construct instances:
///
/// ```
/// use freecursive::{Oram, OramBuilder, SchemePoint};
///
/// # fn main() -> Result<(), freecursive::FreecursiveError> {
/// // The full design: PLB + compressed PosMap + PMMAC.
/// let mut oram = OramBuilder::for_scheme(SchemePoint::PicX32)
///     .num_blocks(1 << 12)
///     .build_freecursive()?;
/// oram.write(42, &vec![7u8; 64])?;
/// assert_eq!(oram.read(42)?, vec![7u8; 64]);
/// assert!(oram.stats().macs_verified > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FreecursiveOram<B: OramBackend = PathOramBackend> {
    config: FreecursiveConfig,
    rec: RecursionAddressing,
    /// The ORAM trees: the unified tree alone when there is a PLB, else one
    /// tree per recursion level (index = level, so index 0 is always the
    /// tree holding the data blocks).
    trees: Vec<B>,
    /// `None` when the configured PLB capacity is 0.
    plb: Option<Plb<PlbPayload>>,
    /// Without a PLB: the PosMap block fetched last, parked on chip as the
    /// parent of the next level's block and appended back to its tree once
    /// that block is fetched (the last one after the data access).  Always
    /// empty between requests, and unused with a PLB.
    parked: Option<PlbEntry<PlbPayload>>,
    onchip: OnChipPosMap,
    /// Derives every leaf: counter leaves of blocks whose parent holds a
    /// counter, and fresh draws of raw leaves (see `draw_leaf`).
    prf: AesPrf,
    mac_key: MacKey,
    /// How many fresh leaves have been drawn from `prf`: the next draw's
    /// counter.  Persisted, so a resumed instance never repeats a draw.
    draws: u64,
    stats: FrontendStats,
    /// Scratch: payloads fetched from the backend land here (capacity reused
    /// across requests, so the fetch path does not allocate).  Its length
    /// after a fetch is the backend payload size: block bytes plus the MAC
    /// field when PMMAC is on.
    payload_buf: Vec<u8>,
    /// Scratch: sealed (data ‖ MAC) payloads for write-back.
    sealed_buf: Vec<u8>,
    /// Scratch: the serialised PosMap block of a PLB victim (or displaced
    /// parked entry) on its way back to its tree.
    victim_buf: Vec<u8>,
    /// Scratch: discarded pre-images of write requests.
    result_buf: Vec<u8>,
    /// An all-zero data block, the write-back image of `read_remove`.
    zero_block: Vec<u8>,
}

/// Controller geometry and key material derived deterministically from a
/// configuration — computed identically by `new` and the resume path, so a
/// snapshot only needs to carry the configuration itself.
struct Derived {
    /// Geometry and bucket-cipher key of each tree; the index is the tree's
    /// storage label.
    trees: Vec<(OramParams, [u8; 16])>,
    prf_key: [u8; 16],
    mac_key: [u8; 16],
}

impl Derived {
    fn from_config(config: &FreecursiveConfig) -> Self {
        let key = |tag: u8, label: u32| {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&config.seed.to_le_bytes());
            key[8] = tag;
            key[12..].copy_from_slice(&label.to_le_bytes());
            key
        };
        let trees = config
            .trees()
            .into_iter()
            .zip(0u32..)
            .map(|((blocks, payload_bytes), label)| {
                let params = OramParams::new(blocks, payload_bytes, config.z)
                    .with_stash_capacity(config.stash_capacity);
                (params, key(0xE1, label))
            })
            .collect();
        Self {
            trees,
            prf_key: key(0x9F, 0),
            mac_key: key(0x3C, 0),
        }
    }
}

impl<B: OramBackend> FreecursiveOram<B> {
    /// Builds the controller from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FreecursiveError::Config`] if the configuration fails
    /// [`FreecursiveConfig::validate`], or [`FreecursiveError::Backend`] if
    /// backend construction fails.
    pub fn new(config: FreecursiveConfig) -> Result<Self, FreecursiveError> {
        config.validate()?;
        let derived = Derived::from_config(&config);
        let trees = derived
            .trees
            .iter()
            .zip(0u32..)
            .map(|(&(params, key), label)| {
                B::new_backend_with(
                    params,
                    config.encryption,
                    key,
                    config.seed,
                    &config.storage,
                    config.durability,
                    label,
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(Self::assemble(config, derived, trees))
    }

    /// Everything `new` does after the trees exist; shared with the resume
    /// path, which constructs them from a snapshot instead.
    fn assemble(config: FreecursiveConfig, derived: Derived, trees: Vec<B>) -> Self {
        let rec = config.addressing();
        let plb = config.plb();
        let onchip_kind = if config.pmmac {
            OnChipEntryKind::Counter
        } else {
            OnChipEntryKind::Leaf
        };
        let mut onchip = OnChipPosMap::new(rec.required_onchip_entries(), onchip_kind);
        let prf = AesPrf::new(derived.prf_key);
        let mut draws = 0;
        if !config.pmmac {
            // A deployed ORAM starts with every block mapped to a uniform
            // random leaf; with PMMAC the zero counters already map through
            // the PRF to pseudorandom leaves, but raw leaf entries must be
            // randomised explicitly or every first touch walks path 0.  The
            // top level's blocks live in the last tree.
            let top_tree = trees.last().expect("at least the data tree");
            let leaf_level = top_tree.params().leaf_level();
            for i in 0..onchip.len() as u64 {
                onchip.set(i, draw_leaf(&prf, &mut draws, leaf_level));
            }
        }
        let payload_bytes = trees
            .iter()
            .map(|t| t.params().block_bytes)
            .max()
            .unwrap_or_default();
        let zero_block = vec![0u8; config.block_bytes];
        Self {
            prf,
            mac_key: MacKey::new(derived.mac_key),
            draws,
            config,
            rec,
            trees,
            plb,
            parked: None,
            onchip,
            stats: FrontendStats::default(),
            payload_buf: Vec::with_capacity(payload_bytes),
            sealed_buf: Vec::with_capacity(payload_bytes),
            victim_buf: Vec::with_capacity(payload_bytes),
            result_buf: Vec::new(),
            zero_block,
        }
    }

    /// The recursion addressing in use (H, X, per-level block counts).
    pub fn addressing(&self) -> &RecursionAddressing {
        &self.rec
    }

    /// The backend of the tree holding the data blocks: the unified tree
    /// with a PLB, the level-0 tree without one (read-only view).
    pub fn backend(&self) -> &B {
        &self.trees[0]
    }

    /// Mutable access to [`FreecursiveOram::backend`] — the active
    /// adversary's handle on untrusted memory (the test harness's
    /// `freecursive_repro::Adversary` tampers through it).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.trees[0]
    }

    /// Every tree's backend, indexed by the tree's label in
    /// [`FreecursiveConfig::trees`] (read-only view; index 0 is
    /// [`FreecursiveOram::backend`]).
    pub fn trees(&self) -> &[B] {
        &self.trees
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &FreecursiveConfig {
        &self.config
    }

    /// The number of ORAM levels in the recursion (H).
    pub fn num_levels(&self) -> u32 {
        self.rec.num_levels()
    }

    /// Current PLB occupancy in blocks (diagnostics; 0 without a PLB).
    pub fn plb_occupancy(&self) -> usize {
        self.plb.as_ref().map_or(0, Plb::len)
    }

    /// Leaf level L of the tree serving recursion level `level`.
    fn leaf_level(&self, level: u32) -> u32 {
        self.trees[self.config.tree_of(level)].params().leaf_level()
    }

    /// Bytes of a level-`level` block's contents: its tree's payload minus
    /// the PMMAC trailer.
    fn block_bytes_at(&self, level: u32) -> usize {
        let mac = if self.config.pmmac { MAC_BYTES } else { 0 };
        self.trees[self.config.tree_of(level)].params().block_bytes - mac
    }

    // ------------------------------------------------------------------
    // Snapshot persistence
    // ------------------------------------------------------------------

    fn put_config(out: &mut Vec<u8>, config: &FreecursiveConfig) {
        use path_oram::snapshot::{put_opt_u64, put_u64};
        let FreecursiveConfig {
            num_blocks,
            block_bytes,
            z,
            posmap_format,
            x_override,
            pmmac,
            plb_capacity_bytes,
            plb_associativity,
            onchip_entries,
            encryption,
            stash_capacity,
            seed,
            storage,
            durability,
        } = config;
        put_u64(out, *num_blocks);
        put_u64(out, *block_bytes as u64);
        put_u64(out, *z as u64);
        crate::persist::put_posmap_format(out, *posmap_format);
        put_opt_u64(out, *x_override);
        path_oram::snapshot::put_bool(out, *pmmac);
        put_u64(out, *plb_capacity_bytes as u64);
        put_u64(out, *plb_associativity as u64);
        put_u64(out, *onchip_entries);
        crate::persist::put_encryption(out, *encryption);
        put_u64(out, *stash_capacity as u64);
        put_u64(out, *seed);
        storage.save(out);
        durability.save(out);
    }

    fn get_config(
        r: &mut path_oram::snapshot::SnapReader<'_>,
        dir: &std::path::Path,
    ) -> Result<FreecursiveConfig, OramError> {
        Ok(FreecursiveConfig {
            num_blocks: r.u64()?,
            block_bytes: r.u64()? as usize,
            z: r.u64()? as usize,
            posmap_format: crate::persist::get_posmap_format(r)?,
            x_override: r.opt_u64()?,
            pmmac: r.bool()?,
            plb_capacity_bytes: r.u64()? as usize,
            plb_associativity: r.u64()? as usize,
            onchip_entries: r.u64()?,
            encryption: crate::persist::get_encryption(r)?,
            stash_capacity: r.u64()? as usize,
            seed: r.u64()?,
            storage: path_oram::StorageKind::load(r, dir)?,
            durability: path_oram::Durability::load(r)?,
        })
    }

    /// Persists the whole instance into `dir`: configuration, on-chip
    /// PosMap, PLB contents (with LRU order), the leaf-draw counter,
    /// statistics and each tree's backend controller state in a
    /// digest-sealed `oram.state`, plus each tree's files, written by its
    /// backend's store under its index as label.  Resume with
    /// [`crate::OramBuilder::resume`] (or
    /// [`FreecursiveOram::resume`] for a concrete backend type); the
    /// resumed instance's responses are byte-identical to an uninterrupted
    /// run's.
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Backend`] wrapping storage/snapshot failures.
    pub fn persist(&self, dir: &std::path::Path) -> Result<(), FreecursiveError> {
        use path_oram::snapshot::{put_bytes, put_opt_u64, put_u64};
        std::fs::create_dir_all(dir).map_err(|e| crate::persist::dir_error(dir, e))?;
        let mut payload = Vec::new();
        Self::put_config(&mut payload, &self.config);
        put_u64(&mut payload, self.draws);
        put_u64(&mut payload, self.onchip.entries().len() as u64);
        for &entry in self.onchip.entries() {
            put_u64(&mut payload, entry);
        }
        let sets: Vec<_> = self.plb.iter().flat_map(Plb::iter_sets).collect();
        put_u64(&mut payload, sets.len() as u64);
        for set in sets {
            put_u64(&mut payload, set.len() as u64);
            for entry in set {
                put_u64(&mut payload, entry.unified_addr);
                put_u64(&mut payload, entry.leaf);
                put_opt_u64(&mut payload, entry.payload.counter);
                put_bytes(
                    &mut payload,
                    &entry.payload.block.to_bytes(self.config.block_bytes),
                );
            }
        }
        let plb_stats = self.plb.as_ref().map(Plb::stats).unwrap_or_default();
        crate::persist::put_plb_stats(&mut payload, &plb_stats);
        crate::persist::put_frontend_stats(&mut payload, &self.stats);
        let mut backend_state = Vec::new();
        for tree in &self.trees {
            backend_state.clear();
            tree.save_state(&mut backend_state)?;
            put_bytes(&mut payload, &backend_state);
        }
        path_oram::snapshot::write_state_file(
            &crate::persist::state_path(dir),
            crate::persist::KIND_FREECURSIVE,
            &payload,
        )?;
        for (tree, label) in self.trees.iter().zip(0u32..) {
            tree.persist_tree(dir, label)?;
        }
        Ok(())
    }

    /// Rebuilds an instance from a snapshot directory written by
    /// [`FreecursiveOram::persist`].
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Integrity`] if the state file fails its digest
    /// check, [`FreecursiveError::Backend`] wrapping
    /// [`OramError::Snapshot`]/[`OramError::Storage`] for version
    /// mismatches, truncation, or I/O failures.
    pub fn resume(dir: &std::path::Path) -> Result<Self, FreecursiveError> {
        use path_oram::snapshot::SnapReader;
        let (kind, payload) =
            path_oram::snapshot::read_state_file(&crate::persist::state_path(dir))?;
        let xoshiro = match kind {
            crate::persist::KIND_FREECURSIVE => false,
            crate::persist::KIND_FREECURSIVE_XOSHIRO => true,
            _ => return Err(crate::persist::wrong_kind("Freecursive ORAM", kind).into()),
        };
        let mut r = SnapReader::new(&payload);
        let config = Self::get_config(&mut r, dir)?;
        config.validate()?;
        let draws = if xoshiro {
            // The four words of the generator that drew leaves before the
            // PRF did.  This instance never drew from the PRF, so its draws
            // start at 0 without repeating one.
            for _ in 0..4 {
                r.u64()?;
            }
            0
        } else {
            r.u64()?
        };
        let onchip_count = r.len(r.remaining() / 8)?;
        let mut onchip_entries = Vec::with_capacity(onchip_count);
        for _ in 0..onchip_count {
            onchip_entries.push(r.u64()?);
        }
        let num_sets = r.len(r.remaining())?;
        let x = config.x();
        let mut sets: Vec<Vec<PlbEntry<PlbPayload>>> = Vec::with_capacity(num_sets);
        for _ in 0..num_sets {
            let set_len = r.len(r.remaining())?;
            let mut set = Vec::with_capacity(set_len);
            for _ in 0..set_len {
                let unified_addr = r.u64()?;
                let leaf = r.u64()?;
                let counter = r.opt_u64()?;
                let block_bytes = r.bytes()?;
                let block = PosMapBlockPayload::from_bytes(block_bytes, config.posmap_format, x);
                set.push(PlbEntry {
                    unified_addr,
                    leaf,
                    payload: PlbPayload { block, counter },
                });
            }
            sets.push(set);
        }
        let plb_stats = crate::persist::get_plb_stats(&mut r)?;
        let stats = crate::persist::get_frontend_stats(&mut r)?;
        // One backend state per tree; the configuration says how many.
        let derived = Derived::from_config(&config);
        let states = derived
            .trees
            .iter()
            .map(|_| r.bytes())
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;

        let trees = derived
            .trees
            .iter()
            .zip(0u32..)
            .zip(states)
            .map(|((&(params, key), label), state)| {
                B::resume_backend(
                    params,
                    config.encryption,
                    key,
                    config.seed,
                    &config.storage,
                    config.durability,
                    dir,
                    label,
                    state,
                )
            })
            .collect::<Result<_, _>>()?;
        let mut oram = Self::assemble(config, derived, trees);
        oram.draws = draws;
        if !oram.onchip.load_entries(&onchip_entries) {
            return Err(OramError::Snapshot {
                detail: "on-chip posmap size does not match the configuration".into(),
            }
            .into());
        }
        if num_sets != oram.plb.as_ref().map_or(0, |plb| plb.iter_sets().count()) {
            return Err(OramError::Snapshot {
                detail: "plb set count does not match the configuration".into(),
            }
            .into());
        }
        if let Some(plb) = &mut oram.plb {
            // Re-inserting set by set in saved order restores residency and
            // LRU state exactly (the index function is unchanged); an
            // eviction here would mean the snapshot disagrees with the
            // configured geometry.
            for entry in sets.into_iter().flatten() {
                if plb.insert(entry).is_some() {
                    return Err(OramError::Snapshot {
                        detail: "plb snapshot overflows the configured associativity".into(),
                    }
                    .into());
                }
            }
            plb.set_stats(plb_stats);
        }
        oram.stats = stats;
        Ok(oram)
    }

    // ------------------------------------------------------------------
    // PMMAC helpers
    // ------------------------------------------------------------------

    /// Verifies a fetched backend payload in place: with PMMAC, the MAC
    /// trailer (the last [`MAC_BYTES`]) is checked against the expected
    /// counter over the data before it.  A counter of zero means the block
    /// has never been written back by this controller, so the backend's implicit
    /// zero block is accepted without verification (a real deployment writes
    /// MACs during initialisation instead).
    ///
    /// Takes its fields individually (instead of `&mut self`) so callers can
    /// keep `self.payload_buf` borrowed across the call — this is what lets
    /// the fetch path run without copying the payload out first.
    // lint: ct-scope, no-alloc
    fn verify_payload(
        config: &FreecursiveConfig,
        mac_key: &MacKey,
        stats: &mut FrontendStats,
        unified_addr: u64,
        counter: Option<u64>,
        payload: &[u8],
    ) -> Result<(), OramError> {
        if !config.pmmac {
            return Ok(());
        }
        let (data, mac_bytes) = payload.split_at(payload.len() - MAC_BYTES);
        let counter = counter.expect("pmmac requires counters");
        stats.macs_verified += 1;
        if counter == 0 {
            return Ok(());
        }
        let mut mac = [0u8; MAC_BYTES];
        mac.copy_from_slice(mac_bytes);
        if !mac_key.verify(counter, unified_addr, data, &Mac(mac)) {
            stats.integrity_violations += 1;
            return Err(OramError::IntegrityViolation { addr: unified_addr });
        }
        Ok(())
    }

    /// Assembles the backend payload for a write-back into `out` (cleared
    /// first): data plus (if PMMAC) the MAC under the block's new counter.
    /// Field-wise for the same reason as [`Self::verify_payload`].
    fn seal_payload(
        config: &FreecursiveConfig,
        mac_key: &MacKey,
        stats: &mut FrontendStats,
        unified_addr: u64,
        counter: Option<u64>,
        data: &[u8],
        out: &mut Vec<u8>,
    ) {
        out.clear();
        // lint: allow(no-alloc, writes into the reused sealed scratch whose capacity persists across requests)
        out.extend_from_slice(data);
        if !config.pmmac {
            return;
        }
        let counter = counter.expect("pmmac requires counters");
        let mac = mac_key.compute(counter, unified_addr, data);
        stats.macs_computed += 1;
        // lint: allow(no-alloc, the MAC trailer fits the scratch capacity reserved at construction)
        out.extend_from_slice(mac.as_bytes());
    }

    /// [`Self::verify_payload`] on the fetched `payload` of `verify =
    /// (unified_addr, counter)`, then [`Self::seal_payload`] of `fresh =
    /// (unified_addr, counter, data)` into `out`, with both MACs hashed in
    /// one pass ([`MacKey::verify_and_compute`]) when there are two to
    /// hash.  An integrity violation is returned before `out` is filled,
    /// so the caller's next backend access, append or copy to the user
    /// comes after the check.  Field-wise for the same reason as
    /// [`Self::verify_payload`].
    // lint: ct-scope, no-alloc
    #[allow(clippy::too_many_arguments)]
    fn verify_and_seal(
        config: &FreecursiveConfig,
        mac_key: &MacKey,
        stats: &mut FrontendStats,
        (unified_addr, counter): (u64, Option<u64>),
        payload: &[u8],
        (fresh_addr, fresh_counter): (u64, Option<u64>),
        data: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), OramError> {
        if !config.pmmac || counter == Some(0) {
            // Nothing to pair: without PMMAC nothing is hashed, and a
            // never-written block is accepted unhashed.
            Self::verify_payload(config, mac_key, stats, unified_addr, counter, payload)?;
            Self::seal_payload(config, mac_key, stats, fresh_addr, fresh_counter, data, out);
            return Ok(());
        }
        let (fetched, mac_bytes) = payload.split_at(payload.len() - MAC_BYTES);
        let counter = counter.expect("pmmac requires counters");
        let fresh_counter = fresh_counter.expect("pmmac requires counters");
        let mut tag = [0u8; MAC_BYTES];
        tag.copy_from_slice(mac_bytes);
        stats.macs_verified += 1;
        let (ok, mac) = mac_key.verify_and_compute(
            (counter, unified_addr, fetched),
            &Mac(tag),
            (fresh_counter, fresh_addr, data),
        );
        if !ok {
            stats.integrity_violations += 1;
            return Err(OramError::IntegrityViolation { addr: unified_addr });
        }
        stats.macs_computed += 1;
        out.clear();
        // lint: allow(no-alloc, writes into the reused sealed scratch whose capacity persists across requests)
        out.extend_from_slice(data);
        // lint: allow(no-alloc, the MAC trailer fits the scratch capacity reserved at construction)
        out.extend_from_slice(mac.as_bytes());
        Ok(())
    }
    // lint: end

    /// Accounts one path access to the tree serving `level`: returns the
    /// bytes it moved, and charges the hashes a Merkle-tree scheme (\[25\])
    /// would have spent on it — every block on the path, once to check the
    /// read and once to update the write-back (§6.3), where PMMAC hashes
    /// only the block of interest.
    fn path_access_bytes(&mut self, level: u32) -> u64 {
        let params = *self.trees[self.config.tree_of(level)].params();
        self.stats.merkle_equivalent_hashes += 2 * u64::from(params.levels()) * params.z as u64;
        params.access_bytes()
    }

    // ------------------------------------------------------------------
    // Recursion walk
    // ------------------------------------------------------------------

    /// Resolves the child block at recursion level `level` covering `a0` from
    /// its parent (the on-chip PosMap for the top level, otherwise the
    /// level + 1 PosMap block, which the walk holds on chip: in the PLB, or
    /// without one in the parked slot), advancing the parent entry so the
    /// child is remapped.
    fn resolve_child(&mut self, level: u32, a0: u64) -> ResolvedChild {
        let child_unified = self.rec.unified_addr(level, a0);
        let leaf_level = self.leaf_level(level);
        let h = self.rec.num_levels();
        if level == h - 1 {
            // Parent is the on-chip PosMap.
            let idx = self.rec.posmap_block_addr(h - 1, a0);
            if self.config.pmmac {
                let current_counter = self.onchip.get(idx);
                let new_counter = self.onchip.increment(idx);
                // One batched PRF call derives both the fetch leaf and the
                // remap leaf.
                let (current_leaf, new_leaf) =
                    self.prf
                        .leaf_pair_for(child_unified, current_counter, new_counter, leaf_level);
                ResolvedChild {
                    current_leaf,
                    current_counter: Some(current_counter),
                    advance: AdvanceResult {
                        new_leaf,
                        new_counter: Some(new_counter),
                        group_remap: None,
                    },
                }
            } else {
                let current_leaf = self.onchip.get(idx);
                let new_leaf = draw_leaf(&self.prf, &mut self.draws, leaf_level);
                self.onchip.set(idx, new_leaf);
                ResolvedChild {
                    current_leaf,
                    current_counter: None,
                    advance: AdvanceResult {
                        new_leaf,
                        new_counter: None,
                        group_remap: None,
                    },
                }
            }
        } else {
            let parent_unified = self.rec.unified_addr(level + 1, a0);
            let entry_index = self.rec.entry_index(level + 1, a0);
            let entry = match &mut self.plb {
                Some(plb) => plb.peek_mut(parent_unified),
                None => self.parked.as_mut(),
            }
            .expect("parent PosMap block must be on chip during the walk");
            let current_counter = entry.payload.block.child_counter(entry_index);
            let current_leaf =
                entry
                    .payload
                    .block
                    .child_leaf(entry_index, child_unified, &self.prf, leaf_level);
            let advance = entry.payload.block.advance_entry(
                entry_index,
                child_unified,
                &self.prf,
                leaf_level,
                &mut self.draws,
            );
            ResolvedChild {
                current_leaf,
                current_counter,
                advance,
            }
        }
    }

    /// Carries out a group remap (§5.2.2): every sibling of the child at
    /// `level` covered by the same parent PosMap block is remapped to the
    /// path given by the new group counter.  The in-flight child
    /// (`skip_entry`) is excluded — its remap happens through the access that
    /// triggered the overflow.
    fn group_remap(
        &mut self,
        level: u32,
        a0: u64,
        skip_entry: usize,
        info: &GroupRemapInfo,
    ) -> Result<(), OramError> {
        self.stats.group_remaps += 1;
        let parent_index = self.rec.posmap_block_addr(level + 1, a0);
        let x = self.rec.x();
        let level_blocks = self.rec.blocks_at_level(level);
        let tree = self.config.tree_of(level);
        let leaf_level = self.leaf_level(level);
        let block_bytes = self.block_bytes_at(level);
        for j in 0..x as usize {
            if j == skip_entry {
                continue;
            }
            let sibling_index = parent_index * x + j as u64;
            if sibling_index >= level_blocks {
                continue;
            }
            let sibling_unified = tag_address(level, sibling_index);
            let old_counter = info.old_counters[j];
            let new_counter = info.new_counter;
            // A sibling PosMap block may currently live in the PLB; its
            // stored leaf/counter must be updated in place instead of going
            // through the Backend (and only the new leaf is needed).
            if let Some(entry) = self.plb.as_mut().and_then(|p| p.peek_mut(sibling_unified)) {
                entry.leaf = self.prf.leaf_for(sibling_unified, new_counter, leaf_level);
                entry.payload.counter = Some(new_counter);
                continue;
            }
            // Backend round-trip: derive the fetch leaf and the remap leaf
            // in one batched PRF call.
            let (old_leaf, new_leaf) =
                self.prf
                    .leaf_pair_for(sibling_unified, old_counter, new_counter, leaf_level);
            let fetched = self.trees[tree].access_into(
                AccessOp::ReadRmv,
                sibling_unified,
                old_leaf,
                0,
                None,
                &mut self.payload_buf,
            )?;
            assert!(fetched, "backend readrmv returned no data");
            self.stats.group_remap_accesses += 1;
            self.stats.posmap_bytes_moved += self.path_access_bytes(level);
            Self::verify_and_seal(
                &self.config,
                &self.mac_key,
                &mut self.stats,
                (sibling_unified, Some(old_counter)),
                &self.payload_buf,
                (sibling_unified, Some(new_counter)),
                &self.payload_buf[..block_bytes],
                &mut self.sealed_buf,
            )?;
            self.trees[tree].access(
                AccessOp::Append,
                sibling_unified,
                0,
                new_leaf,
                Some(&self.sealed_buf),
            )?;
            self.stats.appends += 1;
        }
        Ok(())
    }

    /// Parses a level-`level` PosMap block fetched from the Backend.  A
    /// never-written block (all zero bytes) is given freshly randomised
    /// leaves when the format stores raw leaves, emulating the random
    /// initial position map a deployed ORAM starts from; counter-based
    /// formats need no special handling because zero counters already PRF
    /// to pseudorandom leaves.
    fn parse_posmap_block(&mut self, level: u32, data: &[u8]) -> PosMapBlockPayload {
        let x = self.rec.x();
        if matches!(
            self.config.posmap_format,
            crate::config::PosMapFormat::UncompressedLeaves
        ) && data.iter().all(|&b| b == 0)
        {
            // The entries are leaves of the level below, in its tree.
            let child_level = self.leaf_level(level - 1);
            let mut block = PosMapBlockPayload::new_zeroed(self.config.posmap_format, x);
            if let PosMapBlockPayload::Leaves(leaves) = &mut block {
                for j in 0..x as usize {
                    leaves.set_leaf(j, draw_leaf(&self.prf, &mut self.draws, child_level));
                }
            }
            return block;
        }
        PosMapBlockPayload::from_bytes(data, self.config.posmap_format, x)
    }

    /// Serializes the PosMap block that putting `child_unified` on chip
    /// would displace — the least recently used way of its full PLB set,
    /// or without a PLB the parked entry — into `self.victim_buf`, and
    /// returns its `(unified_addr, counter)`, or `None` when nothing would
    /// be displaced.  The victim stays on chip.
    fn stage_victim(&mut self, child_unified: u64) -> Option<(u64, Option<u64>)> {
        let victim = match &self.plb {
            Some(plb) => plb.victim_for(child_unified),
            None => self.parked.as_ref(),
        }?;
        let (level, _) = untag_address(victim.unified_addr);
        let block_bytes = self.block_bytes_at(level);
        victim
            .payload
            .block
            .to_bytes_into(block_bytes, &mut self.victim_buf);
        Some((victim.unified_addr, victim.payload.counter))
    }

    /// Appends a PosMap block leaving the chip — evicted from the PLB
    /// (§4.2.4 step 2), or displaced from the parked slot — back into the
    /// tree serving its level, sealed in `self.sealed_buf`.
    fn append_sealed(&mut self, victim: &PlbEntry<PlbPayload>) -> Result<(), OramError> {
        let (level, _) = untag_address(victim.unified_addr);
        let tree = self.config.tree_of(level);
        self.trees[tree].access(
            AccessOp::Append,
            victim.unified_addr,
            0,
            victim.leaf,
            Some(&self.sealed_buf),
        )?;
        self.stats.appends += 1;
        Ok(())
    }

    /// Seals and appends a PosMap block leaving the chip with no check to
    /// pair its MAC with: the parked parent of the data block.
    fn append_evicted(&mut self, victim: PlbEntry<PlbPayload>) -> Result<(), OramError> {
        let (level, _) = untag_address(victim.unified_addr);
        victim
            .payload
            .block
            .to_bytes_into(self.block_bytes_at(level), &mut self.victim_buf);
        Self::seal_payload(
            &self.config,
            &self.mac_key,
            &mut self.stats,
            victim.unified_addr,
            victim.payload.counter,
            &self.victim_buf,
            &mut self.sealed_buf,
        );
        self.append_sealed(&victim)
    }

    /// Performs one full ORAM access for data block `a0` (§4.2.4), writing
    /// the block's previous contents into `out` (cleared first; capacity is
    /// reused by callers that pass a long-lived buffer).
    ///
    /// `remove` implements the frontend-level read-remove: the old contents
    /// are returned and a zero block is written back under a fresh counter,
    /// so the access is observationally identical to a read (same path
    /// touched, same bytes moved) and PMMAC state stays consistent.
    fn access_inner(
        &mut self,
        a0: u64,
        write_data: Option<&[u8]>,
        remove: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), OramError> {
        out.clear();
        // lint: allow(secret-branch, range validation of caller input; a malformed address aborts visibly before any memory touch)
        if a0 >= self.config.num_blocks {
            return Err(OramError::AddressOutOfRange {
                addr: a0,
                capacity: self.config.num_blocks,
            });
        }
        if let Some(d) = write_data {
            if d.len() != self.config.block_bytes {
                return Err(OramError::BlockSizeMismatch {
                    expected: self.config.block_bytes,
                    actual: d.len(),
                });
            }
        }
        self.stats.frontend_requests += 1;
        let h = self.rec.num_levels();

        // Step 1: PLB lookup loop — find the lowest level whose *parent*
        // PosMap block is already on chip.  Without a PLB nothing is, and
        // the walk starts at the top without probing.
        let mut start_level = h - 1;
        if let Some(plb) = &mut self.plb {
            for i in 0..h - 1 {
                let parent_unified = self.rec.unified_addr(i + 1, a0);
                // lint: allow(secret-branch, the PLB lookup loop's termination level is the hit depth revealed by design per section 4.1.2)
                if plb.lookup(parent_unified).is_some() {
                    start_level = i;
                    break;
                }
            }
            self.stats.plb = plb.stats();
        }

        // Steps 2 and 3: walk down from `start_level`, fetching PosMap blocks
        // onto the chip, then access the data block itself.
        for level in (0..=start_level).rev() {
            let child_unified = self.rec.unified_addr(level, a0);
            let resolved = self.resolve_child(level, a0);
            if let Some(remap) = &resolved.advance.group_remap {
                let skip = self.rec.entry_index(level + 1, a0);
                self.group_remap(level, a0, skip, remap)?;
            }

            let tree = self.config.tree_of(level);
            let fetched = self.trees[tree].access_into(
                AccessOp::ReadRmv,
                child_unified,
                resolved.current_leaf,
                0,
                None,
                &mut self.payload_buf,
            )?;
            assert!(fetched, "backend readrmv returned no data");
            let bytes = self.path_access_bytes(level);
            if level >= 1 {
                self.stats.posmap_backend_accesses += 1;
                self.stats.posmap_bytes_moved += bytes;
            } else {
                self.stats.data_backend_accesses += 1;
                self.stats.data_bytes_moved += bytes;
            }
            let block_bytes = self.block_bytes_at(level);
            let fetched = (child_unified, resolved.current_counter);

            if level >= 1 {
                // The PosMap block goes on chip: into the PLB, whose victim
                // is appended back; or, without a PLB, into the parked slot,
                // whose previous occupant — this block's parent, already
                // advanced — goes back to its own tree.  The fetched block
                // is verified first, in the same pass as the victim's seal:
                // a block that fails its check never goes on chip, and the
                // victim stays where it was.
                let victim = self.stage_victim(child_unified);
                match victim {
                    Some(victim) => Self::verify_and_seal(
                        &self.config,
                        &self.mac_key,
                        &mut self.stats,
                        fetched,
                        &self.payload_buf,
                        victim,
                        &self.victim_buf,
                        &mut self.sealed_buf,
                    )?,
                    None => Self::verify_payload(
                        &self.config,
                        &self.mac_key,
                        &mut self.stats,
                        fetched.0,
                        fetched.1,
                        &self.payload_buf,
                    )?,
                }
                let payload = std::mem::take(&mut self.payload_buf);
                let block = self.parse_posmap_block(level, &payload[..block_bytes]);
                self.payload_buf = payload;
                let entry = PlbEntry {
                    unified_addr: child_unified,
                    leaf: resolved.advance.new_leaf,
                    payload: PlbPayload {
                        block,
                        counter: resolved.advance.new_counter,
                    },
                };
                let displaced = match &mut self.plb {
                    // lint: allow(no-alloc, PLB way lists are bounded by the associativity and reuse their capacity after warm-up)
                    Some(plb) => plb.insert(entry),
                    None => self.parked.replace(entry),
                };
                if let Some(displaced) = displaced {
                    debug_assert_eq!(Some(displaced.unified_addr), victim.map(|v| v.0));
                    self.append_sealed(&displaced)?;
                }
                if let Some(plb) = &self.plb {
                    self.stats.plb = plb.stats();
                }
            } else {
                // Data block access: the fetched block's check and the
                // write-back's MAC in one pass; only a block that passed
                // reaches `out`.
                let write_back: &[u8] = if remove {
                    &self.zero_block
                } else if let Some(new_data) = write_data {
                    new_data
                } else {
                    &self.payload_buf[..block_bytes]
                };
                Self::verify_and_seal(
                    &self.config,
                    &self.mac_key,
                    &mut self.stats,
                    fetched,
                    &self.payload_buf,
                    (child_unified, resolved.advance.new_counter),
                    write_back,
                    &mut self.sealed_buf,
                )?;
                // lint: allow(no-alloc, grows the caller's buffer to block_bytes once; steady state reuses its capacity)
                out.extend_from_slice(&self.payload_buf[..block_bytes]);
                self.trees[tree].access(
                    AccessOp::Append,
                    child_unified,
                    0,
                    resolved.advance.new_leaf,
                    Some(&self.sealed_buf),
                )?;
                self.stats.appends += 1;
                if let Some(parent) = self.parked.take() {
                    self.append_evicted(parent)?;
                }
                // lint: allow(no-alloc, diagnostics snapshot of flat counters; copied once per request after the path work)
                let mut backend = self.trees[0].stats().clone();
                for tree in &self.trees[1..] {
                    backend.accumulate(tree.stats());
                }
                self.stats.backend = backend;
                return Ok(());
            }
        }
        unreachable!("the walk always terminates with the data-level access")
    }
    // lint: end

    /// Dispatches one borrowed request — the single implementation behind
    /// both [`Oram::access`] and [`Oram::access_batch`], so the two paths
    /// cannot diverge.
    fn access_ref(&mut self, request: &Request) -> Result<Response, FreecursiveError> {
        let response = match request {
            Request::Read { addr } => {
                let mut data = Vec::new();
                self.access_inner(*addr, None, false, &mut data)?;
                Response {
                    addr: *addr,
                    data: Some(data),
                }
            }
            Request::Write { addr, data } => {
                let mut discard = std::mem::take(&mut self.result_buf);
                let result = self.access_inner(*addr, Some(data), false, &mut discard);
                self.result_buf = discard;
                result?;
                Response {
                    addr: *addr,
                    data: None,
                }
            }
            Request::ReadRemove { addr } => {
                let mut data = Vec::new();
                self.access_inner(*addr, None, true, &mut data)?;
                Response {
                    addr: *addr,
                    data: Some(data),
                }
            }
        };
        Ok(response)
    }
}

impl<B: OramBackend> Oram for FreecursiveOram<B> {
    fn block_bytes(&self) -> usize {
        self.config.block_bytes
    }

    fn num_blocks(&self) -> u64 {
        self.config.num_blocks
    }

    fn access(&mut self, request: Request) -> Result<Response, FreecursiveError> {
        self.access_ref(&request)
    }

    fn access_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, FreecursiveError> {
        // The batched path executes the same walk as `access` but without
        // per-request `Request` cloning: write payloads are borrowed straight
        // out of the batch.  Batching changes how many requests one call
        // carries, never the tree I/O, so responses and the tree are
        // byte-identical to issuing the requests one by one (pinned down by
        // the integration tests).
        requests
            .iter()
            .enumerate()
            .map(|(index, request)| {
                self.access_ref(request)
                    .map_err(|e| e.with_batch_index(index))
            })
            .collect()
    }

    fn access_batch_owned(
        &mut self,
        requests: Vec<Request>,
    ) -> Result<Vec<Response>, FreecursiveError> {
        // The by-ref override already borrows write payloads without
        // cloning, so the owned path needs no separate implementation.
        self.access_batch(&requests)
    }

    fn read(&mut self, addr: u64) -> Result<Vec<u8>, FreecursiveError> {
        let mut out = Vec::new();
        self.access_inner(addr, None, false, &mut out)?;
        Ok(out)
    }

    fn read_into(&mut self, addr: u64, out: &mut Vec<u8>) -> Result<(), FreecursiveError> {
        // Zero-copy override: the pre-image lands straight in the caller's
        // buffer instead of a per-request allocation.
        Ok(self.access_inner(addr, None, false, out)?)
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), FreecursiveError> {
        let mut discard = std::mem::take(&mut self.result_buf);
        let result = self.access_inner(addr, Some(data), false, &mut discard);
        self.result_buf = discard;
        Ok(result?)
    }

    fn read_remove(&mut self, addr: u64) -> Result<Vec<u8>, FreecursiveError> {
        let mut out = Vec::new();
        self.access_inner(addr, None, true, &mut out)?;
        Ok(out)
    }

    fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FrontendStats::default();
        if let Some(plb) = &mut self.plb {
            plb.reset_stats();
        }
        for tree in &mut self.trees {
            tree.reset_stats();
        }
    }

    fn persist(&self, dir: &std::path::Path) -> Result<(), FreecursiveError> {
        FreecursiveOram::persist(self, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OramBuilder;
    use crate::config::PosMapFormat;
    use crate::scheme::SchemePoint;

    fn point(scheme: SchemePoint, n: u64, block: usize) -> OramBuilder {
        OramBuilder::for_scheme(scheme)
            .num_blocks(n)
            .block_bytes(block)
    }

    fn all_design_points(n: u64, block: usize) -> Vec<(&'static str, OramBuilder)> {
        [
            SchemePoint::PX16,
            SchemePoint::PcX32,
            SchemePoint::PiX8,
            SchemePoint::PicX32,
        ]
        .into_iter()
        .map(|s| (s.label(), point(s, n, block)))
        .collect()
    }

    #[test]
    fn write_read_roundtrip_for_every_design_point() {
        for (name, builder) in all_design_points(1 << 12, 64) {
            let mut o = builder.onchip_entries(64).build_freecursive().unwrap();
            for addr in (0..200u64).step_by(13) {
                let data = vec![(addr % 251) as u8; 64];
                o.write(addr, &data).unwrap();
            }
            for addr in (0..200u64).step_by(13) {
                assert_eq!(
                    o.read(addr).unwrap(),
                    vec![(addr % 251) as u8; 64],
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn unwritten_blocks_read_as_zero() {
        for (name, builder) in all_design_points(1 << 10, 64) {
            let mut o = builder.onchip_entries(32).build_freecursive().unwrap();
            assert_eq!(o.read(17).unwrap(), vec![0u8; 64], "{name}");
        }
    }

    #[test]
    fn read_remove_resets_the_block_and_stays_verifiable() {
        for (name, builder) in all_design_points(1 << 10, 64) {
            let mut o = builder.onchip_entries(32).build_freecursive().unwrap();
            o.write(9, &[0xEE; 64]).unwrap();
            assert_eq!(o.read_remove(9).unwrap(), vec![0xEE; 64], "{name}");
            // The block now reads as zero, and with PMMAC on the zero block
            // still verifies (it was re-MACed under a fresh counter).
            assert_eq!(o.read(9).unwrap(), vec![0u8; 64], "{name}");
            assert_eq!(o.stats().integrity_violations, 0, "{name}");
        }
    }

    #[test]
    fn sequential_locality_skips_most_posmap_accesses() {
        // A unit-stride scan touches the same PosMap blocks repeatedly, so the
        // PLB should make the number of PosMap backend accesses per request
        // far smaller than H - 1 (this is the whole point of the PLB, §4).
        let mut o = point(SchemePoint::PcX32, 1 << 14, 64)
            .onchip_entries(32)
            .build_freecursive()
            .unwrap();
        let h = f64::from(o.num_levels());
        for addr in 0..2000u64 {
            o.read(addr).unwrap();
        }
        let per_request =
            o.stats().posmap_backend_accesses as f64 / o.stats().frontend_requests as f64;
        assert!(
            per_request < 0.4,
            "expected ≪ {} posmap accesses per request, got {per_request}",
            h - 1.0
        );
    }

    #[test]
    fn random_access_pattern_needs_more_posmap_accesses_than_sequential() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let make = || {
            point(SchemePoint::PcX32, 1 << 14, 64)
                .onchip_entries(32)
                .build_freecursive()
                .unwrap()
        };
        let mut seq = make();
        for addr in 0..1500u64 {
            seq.read(addr).unwrap();
        }
        let mut rnd = make();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1500u64 {
            rnd.read(rng.gen_range(0..1 << 14)).unwrap();
        }
        assert!(
            rnd.stats().posmap_backend_accesses > seq.stats().posmap_backend_accesses,
            "random {} vs sequential {}",
            rnd.stats().posmap_backend_accesses,
            seq.stats().posmap_backend_accesses
        );
    }

    #[test]
    fn pmmac_counts_hashes_only_for_blocks_of_interest() {
        let mut o = point(SchemePoint::PicX32, 1 << 12, 64)
            .onchip_entries(64)
            .build_freecursive()
            .unwrap();
        for addr in 0..300u64 {
            o.read(addr % 64).unwrap();
        }
        let stats = o.stats();
        // One verification and one computation per backend path access plus
        // appends — far fewer than the Merkle equivalent.
        let reduction = stats.hash_reduction_factor().unwrap();
        assert!(
            reduction > 10.0,
            "hash reduction {reduction} should be large (paper: ≥68x at L=16)"
        );
    }

    #[test]
    fn mixed_read_write_consistency_with_pmmac() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut o = point(SchemePoint::PicX32, 1 << 10, 32)
            .onchip_entries(32)
            .build_freecursive()
            .unwrap();
        let n = 1u64 << 10;
        let mut reference: Vec<Option<Vec<u8>>> = vec![None; n as usize];
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..2500u32 {
            let addr = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                let mut data = vec![0u8; 32];
                rng.fill(&mut data[..]);
                data[0] = i as u8;
                o.write(addr, &data).unwrap();
                reference[addr as usize] = Some(data);
            } else {
                let got = o.read(addr).unwrap();
                match &reference[addr as usize] {
                    Some(expected) => assert_eq!(&got, expected, "addr {addr} access {i}"),
                    None => assert_eq!(got, vec![0u8; 32]),
                }
            }
        }
        assert_eq!(o.stats().integrity_violations, 0);
    }

    /// PIC_X32 on a warm PLB, with one data byte flipped in every PosMap
    /// block resident in the tree: the PosMap fetch whose check is paired
    /// with the PLB victim's MAC must surface as an integrity violation at
    /// that PosMap block, and every read before it returns the right bytes.
    /// The failing block is not put on chip, and the victim stays resident.
    /// Buckets are left unencrypted so the test can find the PosMap blocks;
    /// PMMAC is what catches the flip either way.
    #[test]
    fn tampered_posmap_block_on_a_warm_plb_fails_the_paired_check() {
        const N: u64 = 1 << 12;
        let mut o = point(SchemePoint::PicX32, N, 64)
            .onchip_entries(64)
            .plb_capacity_bytes(8 * 64)
            .encryption(path_oram::EncryptionMode::None)
            .build_freecursive()
            .unwrap();
        let data = |a: u64| vec![(a % 251) as u8 ^ 0x5A; 64];
        for a in 0..N {
            o.write(a, &data(a)).unwrap();
        }
        assert!(o.plb.as_ref().unwrap().stats().evictions > 0, "PLB is warm");

        let params = *o.backend().params();
        let base = params.bucket_data_base();
        let mut tampered = 0;
        for idx in 0..params.num_buckets() {
            if !o.backend().storage().is_initialized(idx) {
                continue;
            }
            let image = o.backend().storage().snapshot_bucket(idx);
            for slot in 0..params.z {
                // Slot metadata: [valid: 1B][addr: 8B][leaf: 4B] after the
                // 8-byte seed header.
                let meta = &image[8 + slot * 13..8 + (slot + 1) * 13];
                let addr = u64::from_le_bytes(meta[1..9].try_into().unwrap());
                if meta[0] == 1 && untag_address(addr).0 >= 1 {
                    let offset = base + slot * params.block_bytes;
                    assert!(o.backend_mut().storage_mut().tamper_xor(idx, offset, 0x01));
                    tampered += 1;
                }
            }
        }
        assert!(tampered > 0, "some PosMap block must sit in the tree");

        // Each read walks to a fresh level-1 PosMap block, which misses the
        // PLB; every insert then displaces a victim.  Every PosMap block in
        // the tree is tampered, so a read's first PosMap fetch is the one
        // that fails, and the PLB must hold the same blocks after it.
        let resident = |o: &FreecursiveOram<PathOramBackend>| {
            let mut addrs: Vec<u64> = o
                .plb
                .as_ref()
                .unwrap()
                .iter_sets()
                .flatten()
                .map(|e| e.unified_addr)
                .collect();
            addrs.sort_unstable();
            addrs
        };
        for i in 0..N {
            let a = (i * 32 + i / (N / 32)) % N;
            let before = resident(&o);
            match o.read(a) {
                Ok(bytes) => assert_eq!(bytes, data(a), "silent wrong data at {a}"),
                Err(FreecursiveError::Integrity { addr }) => {
                    assert!(untag_address(addr).0 >= 1, "the PosMap block fails");
                    let plb = o.plb.as_ref().unwrap();
                    assert!(
                        plb.victim_for(addr).is_some(),
                        "the failing fetch was paired with a PLB victim's seal"
                    );
                    assert!(!plb.contains(addr), "the tampered block never goes on chip");
                    assert_eq!(resident(&o), before, "the victim stays in the PLB");
                    assert_eq!(o.stats().integrity_violations, 1);
                    return;
                }
                Err(e) => panic!("read {a}: expected Integrity, got {e:?}"),
            }
        }
        panic!("no read reached a tampered PosMap block");
    }

    #[test]
    fn group_remap_triggers_with_tiny_individual_counters() {
        // Shrink beta so individual counters overflow quickly and the §5.2.2
        // machinery gets exercised, then verify data is still intact.
        let mut o = point(SchemePoint::PicX32, 1 << 10, 64)
            .posmap_format(PosMapFormat::Compressed { alpha: 32, beta: 3 })
            .onchip_entries(32)
            .build_freecursive()
            .unwrap();
        o.write(5, &[0x55; 64]).unwrap();
        // Hammer the same block so its individual counter overflows repeatedly.
        for _ in 0..40 {
            assert_eq!(o.read(5).unwrap(), vec![0x55; 64]);
        }
        assert!(
            o.stats().group_remaps > 0,
            "expected at least one group remap"
        );
        assert!(o.stats().group_remap_accesses > 0);
        // Other blocks in the same group survived their forced remaps.
        assert_eq!(o.read(6).unwrap(), vec![0u8; 64]);
        assert_eq!(o.stats().integrity_violations, 0);
    }

    #[test]
    fn out_of_range_and_wrong_size_are_rejected() {
        let mut o = point(SchemePoint::PcX32, 1 << 10, 64)
            .build_freecursive()
            .unwrap();
        assert!(matches!(
            o.read(1 << 10),
            Err(FreecursiveError::Backend(
                OramError::AddressOutOfRange { .. }
            ))
        ));
        assert!(matches!(
            o.write(0, &[0u8; 63]),
            Err(FreecursiveError::Backend(
                OramError::BlockSizeMismatch { .. }
            ))
        ));
    }

    #[test]
    fn stats_distinguish_posmap_and_data_traffic() {
        let mut o = point(SchemePoint::PcX32, 1 << 14, 64)
            .onchip_entries(16)
            .build_freecursive()
            .unwrap();
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500u32 {
            o.read(rng.gen_range(0..1 << 14)).unwrap();
        }
        let s = o.stats();
        assert_eq!(s.data_backend_accesses, 500);
        assert!(s.posmap_backend_accesses > 0);
        assert!(s.posmap_bytes_moved > 0);
        assert!(s.data_bytes_moved > 0);
        assert_eq!(
            s.total_bytes_moved(),
            s.total_backend_accesses() * o.backend().params().access_bytes()
        );
    }

    #[test]
    fn raw_leaf_format_spreads_first_touches_across_the_tree() {
        // Regression test: with zero-initialised PosMap state every first
        // touch used to walk path 0, overloading it and growing the stash
        // without bound.  The frontend now emulates a randomly initialised
        // position map, so a first-touch-heavy workload keeps the stash small.
        let mut o = point(SchemePoint::PX16, 1 << 12, 64)
            .onchip_entries(64)
            .build_freecursive()
            .unwrap();
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..2500u32 {
            let addr = rng.gen_range(0..1 << 12);
            if rng.gen_bool(0.4) {
                o.write(addr, &[3u8; 64]).unwrap();
            } else {
                o.read(addr).unwrap();
            }
        }
        let max = o.backend().stats().max_stash_occupancy;
        assert!(max < 50, "stash should stay far below capacity, got {max}");
    }

    #[test]
    fn stash_occupancy_stays_bounded_under_load() {
        let mut o = point(SchemePoint::PcX32, 1 << 12, 32)
            .onchip_entries(64)
            .build_freecursive()
            .unwrap();
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..3000u32 {
            let addr = rng.gen_range(0..1 << 12);
            if rng.gen_bool(0.3) {
                o.write(addr, &[1u8; 32]).unwrap();
            } else {
                o.read(addr).unwrap();
            }
        }
        assert!(
            o.backend().stats().max_stash_occupancy <= o.backend().params().stash_capacity,
            "max stash occupancy {} within capacity",
            o.backend().stats().max_stash_occupancy
        );
    }

    #[test]
    fn access_batch_matches_sequential_semantics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let make = || {
            point(SchemePoint::PicX32, 1 << 10, 32)
                .onchip_entries(32)
                .build_freecursive()
                .unwrap()
        };
        let mut batched = make();
        let mut sequential = make();
        let mut rng = StdRng::seed_from_u64(21);
        let requests: Vec<Request> = (0..300)
            .map(|i| {
                let addr = rng.gen_range(0u64..1 << 10);
                match i % 3 {
                    0 => Request::Read { addr },
                    1 => Request::Write {
                        addr,
                        data: vec![(i % 251) as u8; 32],
                    },
                    _ => Request::ReadRemove { addr },
                }
            })
            .collect();
        let batch_responses = batched.access_batch(&requests).unwrap();
        let seq_responses: Vec<Response> = requests
            .iter()
            .map(|r| sequential.access(r.clone()).unwrap())
            .collect();
        assert_eq!(batch_responses, seq_responses);
        for addr in 0..(1u64 << 10) {
            assert_eq!(batched.read(addr).unwrap(), sequential.read(addr).unwrap());
        }
    }
}
