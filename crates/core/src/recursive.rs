//! The baseline Recursive ORAM frontend (Shi et al. \[30\], as optimised by Ren
//! et al. \[26\]) — the `R_X8` comparison point of the evaluation.
//!
//! Each PosMap level lives in its **own** ORAM tree; a single data access
//! walks the on-chip PosMap, then every PosMap ORAM from the smallest down to
//! ORAM 1, and finally the Data ORAM (§3.2) — `H` full path accesses in
//! total, independent of program locality.  This is the overhead the PLB is
//! designed to remove.

use crate::error::{ConfigError, FreecursiveError};
use crate::stats::FrontendStats;
use crate::traits::{Oram, Request, Response};
use path_oram::{
    AccessOp, Durability, EncryptionMode, OramBackend, OramError, OramParams, PathOramBackend,
    StorageKind,
};
use posmap::addressing::RecursionAddressing;
use posmap::onchip::{OnChipEntryKind, OnChipPosMap};
use posmap::UncompressedPosMapBlock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the baseline Recursive ORAM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecursiveOramConfig {
    /// Number of data blocks (N).
    pub num_blocks: u64,
    /// Data block size in bytes (the LLC line size).
    pub data_block_bytes: usize,
    /// PosMap ORAM block size in bytes; \[26\] uses 32 bytes, giving X = 8.
    pub posmap_block_bytes: usize,
    /// Slots per bucket.
    pub z: usize,
    /// On-chip PosMap capacity in entries.
    pub onchip_entries: u64,
    /// Bucket encryption discipline for every tree.
    pub encryption: EncryptionMode,
    /// RNG seed for deterministic leaf generation.
    pub seed: u64,
    /// Where the per-level trees live; every level shares one storage
    /// directory, distinguished by its level label.
    pub storage: StorageKind,
    /// Write-ahead-log discipline for file-backed trees (see
    /// [`path_oram::wal`]); memory-backed trees ignore it.
    pub durability: Durability,
}

impl RecursiveOramConfig {
    /// The paper's `R_X8` baseline: 32-byte PosMap ORAM blocks (X = 8)
    /// following \[26\].
    pub fn r_x8(num_blocks: u64, data_block_bytes: usize) -> Self {
        Self {
            num_blocks,
            data_block_bytes,
            posmap_block_bytes: 32,
            z: 4,
            onchip_entries: (8 << 10) / 4,
            encryption: EncryptionMode::GlobalSeed,
            seed: 1,
            storage: StorageKind::from_env(),
            durability: Durability::from_env(),
        }
    }

    /// Sets the on-chip PosMap capacity in entries.
    pub fn with_onchip_entries(mut self, entries: u64) -> Self {
        self.onchip_entries = entries;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Leaves per PosMap block (X).
    pub fn x(&self) -> u64 {
        (self.posmap_block_bytes / posmap::uncompressed::LEAF_ENTRY_BYTES) as u64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Degenerate`] for a zero size, [`ConfigError::XTooSmall`]
    /// when a PosMap block holds fewer than two leaves.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_blocks == 0
            || self.data_block_bytes == 0
            || self.posmap_block_bytes == 0
            || self.z == 0
            || self.onchip_entries == 0
        {
            return Err(ConfigError::Degenerate);
        }
        let x = self.x();
        if x < 2 {
            return Err(ConfigError::XTooSmall { x });
        }
        Ok(())
    }
}

/// The baseline Recursive Path ORAM controller: one ORAM tree per recursion
/// level, uncompressed PosMap blocks, no PLB, no integrity.  Generic over
/// the same [`OramBackend`] seam as [`crate::FreecursiveOram`].
///
/// # Examples
///
/// ```
/// use freecursive::{Oram, OramBuilder, SchemePoint};
///
/// # fn main() -> Result<(), freecursive::FreecursiveError> {
/// let mut oram = OramBuilder::for_scheme(SchemePoint::RX8)
///     .num_blocks(1 << 12)
///     .build_recursive()?;
/// oram.write(5, &vec![0xAA; 64])?;
/// assert_eq!(oram.read(5)?, vec![0xAA; 64]);
/// // Every request walked all H ORAMs.
/// let h = oram.num_levels() as u64;
/// assert_eq!(oram.stats().total_backend_accesses(), 2 * h);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RecursiveOram<B: OramBackend = PathOramBackend> {
    config: RecursiveOramConfig,
    rec: RecursionAddressing,
    /// Index 0 is the Data ORAM; index `i ≥ 1` is PosMap ORAM `i`.
    backends: Vec<B>,
    onchip: OnChipPosMap,
    rng: StdRng,
    stats: FrontendStats,
    /// Scratch: PosMap block payloads fetched during the walk (capacity
    /// reused across requests).
    posmap_buf: Vec<u8>,
}

/// Geometry and key material of recursion level `level`, derived
/// deterministically from the configuration (shared by `new` and `resume`).
fn level_geometry(
    config: &RecursiveOramConfig,
    rec: &RecursionAddressing,
    level: u32,
) -> (OramParams, [u8; 16]) {
    let block_bytes = if level == 0 {
        config.data_block_bytes
    } else {
        config.posmap_block_bytes
    };
    let params = OramParams::new(rec.blocks_at_level(level), block_bytes, config.z);
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&config.seed.to_le_bytes());
    key[8..].copy_from_slice(&u64::from(level).to_le_bytes());
    (params, key)
}

impl<B: OramBackend> RecursiveOram<B> {
    /// Builds the controller, allocating one ORAM tree per recursion level.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] from [`RecursiveOramConfig::validate`], and backend
    /// construction errors.
    pub fn new(config: RecursiveOramConfig) -> Result<Self, FreecursiveError> {
        config.validate()?;
        let rec = RecursionAddressing::new(config.num_blocks, config.x(), config.onchip_entries);
        let mut backends = Vec::new();
        for level in 0..rec.num_levels() {
            let (params, key) = level_geometry(&config, &rec, level);
            backends.push(B::new_backend_with(
                params,
                config.encryption,
                key,
                config.seed,
                &config.storage,
                config.durability,
                level,
            )?);
        }
        Ok(Self::assemble(config, rec, backends))
    }

    /// Everything `new` does after the per-level backends exist; shared
    /// with the resume path.
    fn assemble(config: RecursiveOramConfig, rec: RecursionAddressing, backends: Vec<B>) -> Self {
        let mut onchip = OnChipPosMap::new(rec.required_onchip_entries(), OnChipEntryKind::Leaf);
        // A deployed ORAM is initialised with every block mapped to a uniform
        // random leaf (§3.1).  Emulate that here: zero-initialised entries
        // would send every first-touch access down path 0, which both leaks
        // and overloads that one path.
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed_5a17);
        let top_leaves = backends[(rec.num_levels() - 1) as usize]
            .params()
            .num_leaves();
        for i in 0..onchip.len() as u64 {
            onchip.set(i, rng.gen_range(0..top_leaves));
        }
        let posmap_buf = Vec::with_capacity(config.posmap_block_bytes);
        Self {
            rng,
            config,
            rec,
            backends,
            onchip,
            stats: FrontendStats::default(),
            posmap_buf,
        }
    }

    // ------------------------------------------------------------------
    // Snapshot persistence
    // ------------------------------------------------------------------

    fn put_config(out: &mut Vec<u8>, config: &RecursiveOramConfig) {
        use path_oram::snapshot::put_u64;
        let RecursiveOramConfig {
            num_blocks,
            data_block_bytes,
            posmap_block_bytes,
            z,
            onchip_entries,
            encryption,
            seed,
            storage,
            durability,
        } = config;
        put_u64(out, *num_blocks);
        put_u64(out, *data_block_bytes as u64);
        put_u64(out, *posmap_block_bytes as u64);
        put_u64(out, *z as u64);
        put_u64(out, *onchip_entries);
        crate::persist::put_encryption(out, *encryption);
        put_u64(out, *seed);
        storage.save(out);
        durability.save(out);
    }

    fn get_config(
        r: &mut path_oram::snapshot::SnapReader<'_>,
        dir: &std::path::Path,
    ) -> Result<RecursiveOramConfig, OramError> {
        Ok(RecursiveOramConfig {
            num_blocks: r.u64()?,
            data_block_bytes: r.u64()? as usize,
            posmap_block_bytes: r.u64()? as usize,
            z: r.u64()? as usize,
            onchip_entries: r.u64()?,
            encryption: crate::persist::get_encryption(r)?,
            seed: r.u64()?,
            storage: StorageKind::load(r, dir)?,
            durability: Durability::load(r)?,
        })
    }

    /// Persists the whole instance into `dir`: configuration, on-chip
    /// PosMap, RNG position, statistics and each level's backend state in a
    /// digest-sealed `oram.state`, plus one set of tree files per recursion
    /// level (labelled by level index).
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Backend`] wrapping storage/snapshot failures.
    pub fn persist(&self, dir: &std::path::Path) -> Result<(), FreecursiveError> {
        use path_oram::snapshot::{put_bytes, put_u64};
        std::fs::create_dir_all(dir).map_err(|e| crate::persist::dir_error(dir, e))?;
        let mut payload = Vec::new();
        Self::put_config(&mut payload, &self.config);
        crate::persist::put_rng_state(&mut payload, self.rng.state());
        put_u64(&mut payload, self.onchip.entries().len() as u64);
        for &entry in self.onchip.entries() {
            put_u64(&mut payload, entry);
        }
        crate::persist::put_frontend_stats(&mut payload, &self.stats);
        put_u64(&mut payload, self.backends.len() as u64);
        let mut backend_state = Vec::new();
        for backend in &self.backends {
            backend_state.clear();
            backend.save_state(&mut backend_state)?;
            put_bytes(&mut payload, &backend_state);
        }
        path_oram::snapshot::write_state_file(
            &crate::persist::state_path(dir),
            crate::persist::KIND_RECURSIVE,
            &payload,
        )?;
        for (level, backend) in self.backends.iter().enumerate() {
            backend.persist_tree(dir, level as u32)?;
        }
        Ok(())
    }

    /// Rebuilds an instance from a snapshot directory written by
    /// [`RecursiveOram::persist`].
    ///
    /// # Errors
    ///
    /// As for [`FreecursiveOram::resume`](crate::FreecursiveOram::resume).
    pub fn resume(dir: &std::path::Path) -> Result<Self, FreecursiveError> {
        use path_oram::snapshot::SnapReader;
        let (kind, payload) =
            path_oram::snapshot::read_state_file(&crate::persist::state_path(dir))?;
        if kind != crate::persist::KIND_RECURSIVE {
            return Err(crate::persist::wrong_kind("Recursive ORAM", kind).into());
        }
        let mut r = SnapReader::new(&payload);
        let config = Self::get_config(&mut r, dir)?;
        config.validate()?;
        let rng_state = crate::persist::get_rng_state(&mut r)?;
        let onchip_count = r.len(r.remaining() / 8)?;
        let mut onchip_entries = Vec::with_capacity(onchip_count);
        for _ in 0..onchip_count {
            onchip_entries.push(r.u64()?);
        }
        let stats = crate::persist::get_frontend_stats(&mut r)?;
        let rec = RecursionAddressing::new(config.num_blocks, config.x(), config.onchip_entries);
        let level_count = r.len(r.remaining())?;
        if level_count != rec.num_levels() as usize {
            return Err(OramError::Snapshot {
                detail: format!(
                    "snapshot has {level_count} recursion levels, configuration implies {}",
                    rec.num_levels()
                ),
            }
            .into());
        }
        let mut backends = Vec::with_capacity(level_count);
        for level in 0..rec.num_levels() {
            let state = r.bytes()?;
            let (params, key) = level_geometry(&config, &rec, level);
            backends.push(B::resume_backend(
                params,
                config.encryption,
                key,
                config.seed,
                &config.storage,
                config.durability,
                dir,
                level,
                state,
            )?);
        }
        r.finish()?;
        let mut oram = Self::assemble(config, rec, backends);
        oram.rng = StdRng::from_state(rng_state);
        if !oram.onchip.load_entries(&onchip_entries) {
            return Err(OramError::Snapshot {
                detail: "on-chip posmap size does not match the configuration".into(),
            }
            .into());
        }
        oram.stats = stats;
        Ok(oram)
    }

    /// Number of ORAMs in the recursion (H).
    pub fn num_levels(&self) -> u32 {
        self.rec.num_levels()
    }

    /// The recursion addressing in use.
    pub fn addressing(&self) -> &RecursionAddressing {
        &self.rec
    }

    /// Per-level backends (diagnostics; index 0 is the Data ORAM).
    pub fn backend(&self, level: u32) -> &B {
        &self.backends[level as usize]
    }

    // lint: ct-scope, no-alloc
    fn random_leaf(&mut self, level: u32) -> u64 {
        let leaves = self.backends[level as usize].params().num_leaves();
        self.rng.gen_range(0..leaves)
    }

    fn access_inner(
        &mut self,
        addr: u64,
        op: AccessOp,
        data: Option<&[u8]>,
    ) -> Result<Option<Vec<u8>>, OramError> {
        // lint: allow(secret-branch, range validation of caller input; a malformed address aborts visibly before any memory touch)
        if addr >= self.config.num_blocks {
            return Err(OramError::AddressOutOfRange {
                addr,
                capacity: self.config.num_blocks,
            });
        }
        self.stats.frontend_requests += 1;
        let h = self.rec.num_levels();
        let x = self.rec.x();

        // Root of the walk: the on-chip PosMap holds the leaf of the level
        // H-1 block covering `addr`.
        let top = h - 1;
        let top_addr = self.rec.posmap_block_addr(top, addr);
        let mut cur_leaf = self.onchip.get(top_addr);
        let mut new_leaf = self.random_leaf(top);
        self.onchip.set(top_addr, new_leaf);

        // Walk PosMap ORAMs H-1 .. 1 (a "page table walk", §3.2).
        for level in (1..=top).rev() {
            let a_i = self.rec.posmap_block_addr(level, addr);
            let fetched = self.backends[level as usize].access_into(
                AccessOp::ReadRmv,
                a_i,
                cur_leaf,
                0,
                None,
                &mut self.posmap_buf,
            )?;
            assert!(fetched, "backend readrmv returned no data");
            let bytes = &self.posmap_buf;
            let mut block = if bytes.iter().all(|&b| b == 0) {
                // A never-written PosMap block: in a deployed system its
                // entries would have been initialised to random leaves; do
                // that now so children are spread over the whole tree.
                let mut fresh = UncompressedPosMapBlock::new(x as usize);
                let child_leaves = self.backends[(level - 1) as usize].params().num_leaves();
                for j in 0..x as usize {
                    fresh.set_leaf(j, self.rng.gen_range(0..child_leaves));
                }
                fresh
            } else {
                UncompressedPosMapBlock::from_bytes(bytes, x as usize)
            };
            let entry = self.rec.entry_index(level, addr);
            let child_cur_leaf = block.leaf(entry);
            let child_new_leaf = self.random_leaf(level - 1);
            block.set_leaf(entry, child_new_leaf);
            let serialized = block.to_bytes(self.config.posmap_block_bytes);
            self.backends[level as usize].access(
                AccessOp::Append,
                a_i,
                0,
                new_leaf,
                Some(&serialized),
            )?;
            let access_bytes = self.backends[level as usize].params().access_bytes();
            self.stats.posmap_backend_accesses += 1;
            self.stats.posmap_bytes_moved += access_bytes;
            self.stats.appends += 1;
            cur_leaf = child_cur_leaf;
            new_leaf = child_new_leaf;
        }

        // Finally the Data ORAM access.
        let result = self.backends[0].access(op, addr, cur_leaf, new_leaf, data)?;
        self.stats.data_backend_accesses += 1;
        self.stats.data_bytes_moved += self.backends[0].params().access_bytes();
        let mut backend_totals = path_oram::BackendStats::default();
        for backend in &self.backends {
            backend_totals.accumulate(backend.stats());
        }
        self.stats.backend = backend_totals;
        Ok(result)
    }
    // lint: end

    /// Rejects write payloads of the wrong length before any tree is walked.
    fn check_write_size(&self, data: &[u8]) -> Result<(), FreecursiveError> {
        if data.len() != self.config.data_block_bytes {
            return Err(OramError::BlockSizeMismatch {
                expected: self.config.data_block_bytes,
                actual: data.len(),
            }
            .into());
        }
        Ok(())
    }

    /// Dispatches one borrowed request — the single implementation behind
    /// both [`Oram::access`] and [`Oram::access_batch`], so the two paths
    /// cannot diverge.
    fn access_ref(&mut self, request: &Request) -> Result<Response, FreecursiveError> {
        let response = match request {
            Request::Read { addr } => Response {
                addr: *addr,
                data: Some(
                    self.access_inner(*addr, AccessOp::Read, None)?
                        .expect("read returns data"),
                ),
            },
            Request::Write { addr, data } => {
                self.check_write_size(data)?;
                self.access_inner(*addr, AccessOp::Write, Some(data))?;
                Response {
                    addr: *addr,
                    data: None,
                }
            }
            // The data-ORAM `readrmv` removes the block outright; with no
            // PMMAC counters to keep consistent, the backend's implicit
            // zero-initialisation makes later reads return zeros, which is
            // exactly the read-remove contract.
            Request::ReadRemove { addr } => Response {
                addr: *addr,
                data: Some(
                    self.access_inner(*addr, AccessOp::ReadRmv, None)?
                        .expect("readrmv returns data"),
                ),
            },
        };
        Ok(response)
    }
}

impl<B: OramBackend> Oram for RecursiveOram<B> {
    fn block_bytes(&self) -> usize {
        self.config.data_block_bytes
    }

    fn num_blocks(&self) -> u64 {
        self.config.num_blocks
    }

    fn access(&mut self, request: Request) -> Result<Response, FreecursiveError> {
        self.access_ref(&request)
    }

    fn access_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, FreecursiveError> {
        // Borrows write payloads out of the batch instead of cloning each
        // request; otherwise exactly the sequential walk, request by request.
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
        Ok(self
            .access_inner(addr, AccessOp::Read, None)?
            .expect("read returns data"))
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), FreecursiveError> {
        self.check_write_size(data)?;
        self.access_inner(addr, AccessOp::Write, Some(data))?;
        Ok(())
    }

    fn read_remove(&mut self, addr: u64) -> Result<Vec<u8>, FreecursiveError> {
        Ok(self
            .access_inner(addr, AccessOp::ReadRmv, None)?
            .expect("readrmv returns data"))
    }

    fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FrontendStats::default();
        for b in &mut self.backends {
            b.reset_stats();
        }
    }

    fn persist(&self, dir: &std::path::Path) -> Result<(), FreecursiveError> {
        RecursiveOram::persist(self, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_oram() -> RecursiveOram {
        // Small on-chip PosMap to force several levels of recursion.
        crate::builder::OramBuilder::for_scheme(crate::scheme::SchemePoint::RX8)
            .num_blocks(1 << 12)
            .block_bytes(64)
            .onchip_entries(16)
            .build_recursive()
            .unwrap()
    }

    #[test]
    fn recursion_depth_matches_formula() {
        let oram = small_oram();
        // N = 2^12, X = 8, p = 16: H = ceil(log(2^12/16)/log 8) + 1 = 3 + 1.
        assert_eq!(oram.num_levels(), 4);
    }

    #[test]
    fn write_read_roundtrip_across_many_blocks() {
        let mut oram = small_oram();
        for addr in (0..64u64).step_by(7) {
            let data = vec![addr as u8; 64];
            oram.write(addr, &data).unwrap();
        }
        for addr in (0..64u64).step_by(7) {
            assert_eq!(oram.read(addr).unwrap(), vec![addr as u8; 64]);
        }
    }

    #[test]
    fn every_request_walks_all_levels() {
        let mut oram = small_oram();
        let h = u64::from(oram.num_levels());
        for addr in 0..20u64 {
            oram.read(addr).unwrap();
        }
        assert_eq!(oram.stats().frontend_requests, 20);
        assert_eq!(oram.stats().data_backend_accesses, 20);
        assert_eq!(oram.stats().posmap_backend_accesses, 20 * (h - 1));
        assert_eq!(oram.stats().backend_accesses_per_request(), Some(h as f64));
    }

    #[test]
    fn posmap_bandwidth_fraction_is_substantial() {
        // The motivation for the whole paper (Figure 3): with small blocks a
        // large fraction of bytes moved belongs to PosMap ORAMs.
        let mut oram = small_oram();
        for addr in 0..50u64 {
            oram.read(addr % 100).unwrap();
        }
        let frac = oram.stats().posmap_bandwidth_fraction().unwrap();
        assert!(frac > 0.2, "posmap fraction {frac}");
    }

    #[test]
    fn random_workload_is_consistent_with_reference_model() {
        let mut oram = small_oram();
        let n = 256u64;
        let mut reference: Vec<Option<Vec<u8>>> = vec![None; n as usize];
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..1500u32 {
            let addr = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                let mut data = vec![0u8; 64];
                rng.fill(&mut data[..]);
                data[0] = i as u8;
                oram.write(addr, &data).unwrap();
                reference[addr as usize] = Some(data);
            } else {
                let got = oram.read(addr).unwrap();
                match &reference[addr as usize] {
                    Some(expected) => assert_eq!(&got, expected),
                    None => assert_eq!(got, vec![0u8; 64]),
                }
            }
        }
    }

    #[test]
    fn out_of_range_address_is_rejected() {
        let mut oram = small_oram();
        assert!(matches!(
            oram.read(1 << 12),
            Err(FreecursiveError::Backend(
                OramError::AddressOutOfRange { .. }
            ))
        ));
    }

    #[test]
    fn read_remove_returns_old_contents_and_zeroes_the_block() {
        let mut oram = small_oram();
        oram.write(11, &[0xCD; 64]).unwrap();
        assert_eq!(oram.read_remove(11).unwrap(), vec![0xCD; 64]);
        assert_eq!(oram.read(11).unwrap(), vec![0u8; 64]);
    }
}
