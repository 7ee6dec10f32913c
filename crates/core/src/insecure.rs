//! The `Insecure` design point as a functional [`Oram`] implementation: a
//! flat memory with no position map, no PLB and no integrity — the
//! denominator of every slowdown the evaluation reports.
//!
//! Built on [`path_oram::InsecureBackend`] so the "no ORAM" baseline goes
//! through the exact same backend seam as the real designs, which keeps the
//! [`crate::OramBuilder`] dispatch uniform and gives tests an apples-to-apples
//! contents oracle.

use crate::error::{ConfigError, FreecursiveError};
use crate::stats::FrontendStats;
use crate::traits::{Oram, Request, Response};
use path_oram::{AccessOp, InsecureBackend, OramBackend, OramError, OramParams};

/// A flat, non-oblivious memory implementing the [`Oram`] contract.
#[derive(Debug, Clone)]
pub struct InsecureOram {
    backend: InsecureBackend,
    num_blocks: u64,
    block_bytes: usize,
    stats: FrontendStats,
}

impl InsecureOram {
    /// Creates a flat memory of `num_blocks` blocks of `block_bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FreecursiveError::Config`] if either size is zero, or if
    /// `num_blocks` exceeds what the backend's geometry can describe.
    pub fn new(num_blocks: u64, block_bytes: usize) -> Result<Self, FreecursiveError> {
        if num_blocks == 0 || block_bytes == 0 {
            return Err(ConfigError::Degenerate.into());
        }
        if OramParams::leaf_level_for(num_blocks, 1).is_none() {
            return Err(ConfigError::TooManyBlocks { num_blocks }.into());
        }
        let params = OramParams::new(num_blocks, block_bytes, 1);
        Ok(Self {
            backend: InsecureBackend::new(params),
            num_blocks,
            block_bytes,
            stats: FrontendStats::default(),
        })
    }

    /// Persists the flat memory into `dir` (one digest-sealed state file;
    /// there are no tree files).  Mostly useful so sharded composites with
    /// `Insecure` shards can persist uniformly.
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Backend`] wrapping storage failures.
    pub fn persist(&self, dir: &std::path::Path) -> Result<(), FreecursiveError> {
        use path_oram::snapshot::{put_bytes, put_u64};
        use path_oram::OramBackend as _;
        std::fs::create_dir_all(dir).map_err(|e| crate::persist::dir_error(dir, e))?;
        let mut payload = Vec::new();
        put_u64(&mut payload, self.num_blocks);
        put_u64(&mut payload, self.block_bytes as u64);
        crate::persist::put_frontend_stats(&mut payload, &self.stats);
        let mut backend_state = Vec::new();
        self.backend.save_state(&mut backend_state)?;
        put_bytes(&mut payload, &backend_state);
        path_oram::snapshot::write_state_file(
            &crate::persist::state_path(dir),
            crate::persist::KIND_INSECURE,
            &payload,
        )?;
        Ok(())
    }

    /// Rebuilds an instance from a snapshot directory written by
    /// [`InsecureOram::persist`].
    ///
    /// # Errors
    ///
    /// As for [`crate::FreecursiveOram::resume`].
    pub fn resume(dir: &std::path::Path) -> Result<Self, FreecursiveError> {
        use path_oram::snapshot::SnapReader;
        use path_oram::{OramBackend as _, StorageKind};
        let (kind, payload) =
            path_oram::snapshot::read_state_file(&crate::persist::state_path(dir))?;
        if kind != crate::persist::KIND_INSECURE {
            return Err(crate::persist::wrong_kind("Insecure ORAM", kind).into());
        }
        let mut r = SnapReader::new(&payload);
        let num_blocks = r.u64()?;
        let block_bytes = r.u64()? as usize;
        let stats = crate::persist::get_frontend_stats(&mut r)?;
        let backend_state = r.bytes()?.to_vec();
        r.finish()?;
        let mut oram = Self::new(num_blocks, block_bytes)?;
        oram.backend = InsecureBackend::resume_backend(
            OramParams::new(num_blocks, block_bytes, 1),
            path_oram::EncryptionMode::None,
            [0u8; 16],
            0,
            &StorageKind::Mem,
            path_oram::Durability::None,
            dir,
            0,
            &backend_state,
        )?;
        oram.stats = stats;
        Ok(oram)
    }

    fn check_addr(&self, addr: u64) -> Result<(), FreecursiveError> {
        if addr >= self.num_blocks {
            return Err(OramError::AddressOutOfRange {
                addr,
                capacity: self.num_blocks,
            }
            .into());
        }
        Ok(())
    }

    fn count(&mut self) {
        self.stats.frontend_requests += 1;
        self.stats.data_backend_accesses += 1;
        self.stats.data_bytes_moved += self.block_bytes as u64;
        self.stats.backend = self.backend.stats().clone();
    }
}

impl Oram for InsecureOram {
    fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn access(&mut self, request: Request) -> Result<Response, FreecursiveError> {
        self.check_addr(request.addr())?;
        let response = match request {
            Request::Read { addr } => {
                let data = self
                    .backend
                    .access(AccessOp::Read, addr, 0, 0, None)?
                    .expect("read returns data");
                Response {
                    addr,
                    data: Some(data),
                }
            }
            Request::Write { addr, data } => {
                self.backend
                    .access(AccessOp::Write, addr, 0, 0, Some(&data))?;
                Response { addr, data: None }
            }
            Request::ReadRemove { addr } => {
                let data = self
                    .backend
                    .access(AccessOp::ReadRmv, addr, 0, 0, None)?
                    .expect("readrmv returns data");
                Response {
                    addr,
                    data: Some(data),
                }
            }
        };
        self.count();
        Ok(response)
    }

    fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FrontendStats::default();
        self.backend.reset_stats();
    }

    fn persist(&self, dir: &std::path::Path) -> Result<(), FreecursiveError> {
        InsecureOram::persist(self, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_memory_roundtrip_and_read_remove() {
        let mut m = InsecureOram::new(64, 16).unwrap();
        assert_eq!(m.read(5).unwrap(), vec![0u8; 16]);
        m.write(5, &[9u8; 16]).unwrap();
        assert_eq!(m.read(5).unwrap(), vec![9u8; 16]);
        assert_eq!(m.read_remove(5).unwrap(), vec![9u8; 16]);
        assert_eq!(m.read(5).unwrap(), vec![0u8; 16]);
        assert_eq!(m.stats().frontend_requests, 5);
    }

    #[test]
    fn bounds_and_sizes_are_enforced() {
        let mut m = InsecureOram::new(8, 16).unwrap();
        assert!(m.read(8).is_err());
        assert!(m.write(0, &[0u8; 15]).is_err());
        assert!(InsecureOram::new(0, 16).is_err());
    }
}
