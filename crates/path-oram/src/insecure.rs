//! An *insecure* flat-memory backend: the `Insecure` scheme point of the
//! evaluation, and a fast functional stand-in for the Path ORAM machinery.
//!
//! [`InsecureBackend`] implements [`OramBackend`] over a plain hash map: no
//! tree, no stash, no encryption, no obliviousness — an adversary observing
//! it learns the full access pattern.  It exists for two purposes:
//!
//! 1. it is the "no ORAM" baseline every slowdown in the paper is measured
//!    against (the denominator of Figures 6 and 8), and
//! 2. it proves the frontends really are backend-generic: a
//!    `FreecursiveOram<InsecureBackend>` runs the complete PLB / compressed
//!    PosMap / PMMAC logic at hash-map speed, which makes large functional
//!    test workloads cheap.
//!
//! Leaf arguments are accepted and ignored: correctness of this backend never
//! depends on the caller's position map, which also makes it useful for
//! isolating frontend bugs (a wrong leaf that would surface as
//! [`OramError::BlockNotFound`] on the real backend is invisible here).

use crate::backend::OramBackend;
use crate::encryption::EncryptionMode;
use crate::error::OramError;
use crate::params::OramParams;
use crate::stats::BackendStats;
use crate::types::{AccessOp, BlockData, BlockId, Leaf};
use std::collections::HashMap;

/// A flat, unencrypted, non-oblivious [`OramBackend`] implementation.
#[derive(Debug, Clone)]
pub struct InsecureBackend {
    params: OramParams,
    blocks: HashMap<BlockId, BlockData>,
    stats: BackendStats,
}

impl InsecureBackend {
    /// Creates an empty flat backend for the given geometry (only
    /// `block_bytes` and the byte-accounting figures of `params` are used).
    pub fn new(params: OramParams) -> Self {
        Self {
            params,
            blocks: HashMap::new(),
            stats: BackendStats::default(),
        }
    }

    /// Whether a block address is currently stored.
    pub fn is_resident(&self, addr: BlockId) -> bool {
        self.blocks.contains_key(&addr)
    }
}

impl OramBackend for InsecureBackend {
    fn new_backend(
        params: OramParams,
        _encryption: EncryptionMode,
        _key: [u8; 16],
        _seed: u64,
    ) -> Result<Self, OramError> {
        Ok(Self::new(params))
    }

    fn params(&self) -> &OramParams {
        &self.params
    }

    fn access_into(
        &mut self,
        op: AccessOp,
        addr: BlockId,
        _leaf: Leaf,
        _new_leaf: Leaf,
        data: Option<&[u8]>,
        out: &mut Vec<u8>,
    ) -> Result<bool, OramError> {
        out.clear();
        if let Some(d) = data {
            if d.len() != self.params.block_bytes {
                return Err(OramError::BlockSizeMismatch {
                    expected: self.params.block_bytes,
                    actual: d.len(),
                });
            }
        }
        let block_bytes = self.params.block_bytes as u64;
        let has_data = match op {
            AccessOp::Read => {
                self.stats.path_accesses += 1;
                self.stats.bytes_read += block_bytes;
                match self.blocks.get(&addr) {
                    Some(payload) => out.extend_from_slice(payload),
                    None => out.resize(self.params.block_bytes, 0),
                }
                true
            }
            AccessOp::Write => {
                let payload = data.ok_or(OramError::MissingWriteData)?.to_vec();
                self.stats.path_accesses += 1;
                self.stats.bytes_written += block_bytes;
                self.blocks.insert(addr, payload);
                false
            }
            AccessOp::ReadRmv => {
                self.stats.path_accesses += 1;
                self.stats.bytes_read += block_bytes;
                match self.blocks.remove(&addr) {
                    Some(payload) => out.extend_from_slice(&payload),
                    None => out.resize(self.params.block_bytes, 0),
                }
                true
            }
            AccessOp::Append => {
                if self.blocks.contains_key(&addr) {
                    return Err(OramError::DuplicateAppend { addr });
                }
                let payload = data.ok_or(OramError::MissingWriteData)?.to_vec();
                self.stats.appends += 1;
                self.stats.bytes_written += block_bytes;
                self.blocks.insert(addr, payload);
                false
            }
        };
        Ok(has_data)
    }

    fn stats(&self) -> &BackendStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
    }

    fn save_state(&self, out: &mut Vec<u8>) -> Result<(), OramError> {
        // No external tree: the whole backend — blocks (sorted for a
        // canonical encoding) plus stats — rides in the state bytes.
        use crate::snapshot::{put_bytes, put_u64};
        let mut addrs: Vec<BlockId> = self.blocks.keys().copied().collect();
        addrs.sort_unstable();
        put_u64(out, addrs.len() as u64);
        for addr in addrs {
            put_u64(out, addr);
            put_bytes(out, &self.blocks[&addr]);
        }
        self.stats.save(out);
        Ok(())
    }

    fn persist_tree(&self, _dir: &std::path::Path, _label: u32) -> Result<(), OramError> {
        // Nothing outside the state bytes to persist.
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn resume_backend(
        params: OramParams,
        _encryption: EncryptionMode,
        _key: [u8; 16],
        _seed: u64,
        _storage: &crate::StorageKind,
        _durability: crate::Durability,
        _dir: &std::path::Path,
        _label: u32,
        state: &[u8],
    ) -> Result<Self, OramError> {
        let mut backend = Self::new(params);
        let mut r = crate::snapshot::SnapReader::new(state);
        let count = r.len(r.remaining() / 8)?;
        for _ in 0..count {
            let addr = r.u64()?;
            let payload = r.bytes()?.to_vec();
            backend.blocks.insert(addr, payload);
        }
        backend.stats = BackendStats::load(&mut r)?;
        r.finish()?;
        Ok(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> InsecureBackend {
        InsecureBackend::new(OramParams::new(256, 32, 4))
    }

    #[test]
    fn flat_semantics_match_the_backend_contract() {
        let mut b = backend();
        // Never-written blocks read as zero.
        let out = b.access(AccessOp::Read, 9, 0, 0, None).unwrap().unwrap();
        assert_eq!(out, vec![0u8; 32]);
        // Write then read, leaves irrelevant.
        b.access(AccessOp::Write, 9, 3, 7, Some(&[5u8; 32]))
            .unwrap();
        let out = b.access(AccessOp::Read, 9, 99, 1, None).unwrap().unwrap();
        assert_eq!(out, vec![5u8; 32]);
        // ReadRmv removes; Append restores; duplicate append rejected.
        let out = b.access(AccessOp::ReadRmv, 9, 0, 0, None).unwrap().unwrap();
        assert_eq!(out, vec![5u8; 32]);
        assert!(!b.is_resident(9));
        b.access(AccessOp::Append, 9, 0, 0, Some(&out)).unwrap();
        assert_eq!(
            b.access(AccessOp::Append, 9, 0, 0, Some(&out)),
            Err(OramError::DuplicateAppend { addr: 9 })
        );
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let mut b = backend();
        assert_eq!(
            b.access(AccessOp::Write, 0, 0, 0, Some(&[1u8; 31])),
            Err(OramError::BlockSizeMismatch {
                expected: 32,
                actual: 31
            })
        );
    }

    #[test]
    fn stats_count_accesses_and_appends() {
        let mut b = backend();
        b.access(AccessOp::Write, 1, 0, 0, Some(&[0u8; 32]))
            .unwrap();
        b.access(AccessOp::Read, 1, 0, 0, None).unwrap();
        b.access(AccessOp::ReadRmv, 1, 0, 0, None).unwrap();
        b.access(AccessOp::Append, 1, 0, 0, Some(&[0u8; 32]))
            .unwrap();
        assert_eq!(b.stats().path_accesses, 3);
        assert_eq!(b.stats().appends, 1);
        b.reset_stats();
        assert_eq!(b.stats(), &BackendStats::default());
    }
}
