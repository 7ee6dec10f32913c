//! A functional Path ORAM *Backend* (Stefanov et al. \[34\]) as used by the
//! Freecursive ORAM controller.
//!
//! In the paper's terminology the ORAM controller is split into a *Frontend*
//! (PosMap management — the paper's contribution, implemented in the
//! `freecursive` crate) and a *Backend* (the Path ORAM tree machinery, §3.1).
//! This crate implements the Backend:
//!
//! * [`params::OramParams`] — tree geometry (N, Z, block size, levels) and the
//!   bucket byte layout padded to DRAM bursts.
//! * [`tree`] — path/bucket index arithmetic for the binary ORAM tree.
//! * [`bucket`] — Z-slot buckets with dummy blocks: the zero-copy
//!   [`bucket::BucketView`] / [`bucket::BucketWriter`] codec the hot path
//!   uses.
//! * [`stash::Stash`] — the bounded on-chip stash, a fixed-capacity slab of
//!   block-sized slots.
//! * [`storage::TreeStorage`] — the one store for the untrusted memory
//!   holding the tree: the top K tree levels — the paper's treetop, touched
//!   on every access (§5.1) — in a RAM arena, and the levels below in a
//!   sparse tree file in the subtree layout of \[26\].  The storage kinds
//!   are this one store at K = levels with no file (memory), K = 0 (file)
//!   and a budget-derived K (tiered).  It exposes an explicit tampering API
//!   for the active-adversary model and persists to one on-disk snapshot
//!   format.  The tier split and its crash-safety argument are mapped end
//!   to end in `docs/ARCHITECTURE.md` at the workspace root.
//! * [`wal`] — the write-ahead log behind the file tier's crash
//!   consistency: sealed path writebacks are logged (per the
//!   [`wal::Durability`] fsync discipline) before the tree file is touched,
//!   folded into checkpoints, and replayed on resume.
//! * [`encryption::BucketCipher`] — probabilistic bucket encryption in the
//!   per-bucket-seed style of \[26\] or the global-seed style the paper
//!   introduces to defeat pad-replay attacks (§6.4).
//! * [`backend::PathOramBackend`] — the access algorithm (path read, stash
//!   update, greedy write-back) supporting `read`, `write`, `readrmv` and
//!   `append` operations (§4.2.2).
//! * [`insecure::InsecureBackend`] — a flat, non-oblivious implementation of
//!   the same [`backend::OramBackend`] trait: the paper's `Insecure` baseline
//!   and a fast substrate for functional tests.
//!
//! The Backend never sees program addresses in the clear beyond the block
//! address tags required by Path ORAM itself, and is oblivious by
//! construction: every non-append access reads and rewrites exactly one
//! root-to-leaf path chosen by the caller-supplied leaf.
//!
//! # Examples
//!
//! ```
//! use path_oram::{OramParams, PathOramBackend, AccessOp, EncryptionMode};
//! use path_oram::backend::OramBackend as _;
//!
//! # fn main() -> Result<(), path_oram::OramError> {
//! let params = OramParams::new(1 << 10, 64, 4);
//! let mut backend = PathOramBackend::new(params, EncryptionMode::GlobalSeed, [0u8; 16], 7)?;
//!
//! // The frontend owns the position map; here we play both roles.
//! let data = vec![0xAB; 64];
//! backend.access(AccessOp::Write, 42, 13, 99, Some(&data))?;
//! let read_back = backend.access(AccessOp::Read, 42, 99, 5, None)?;
//! assert_eq!(read_back.unwrap(), data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bucket;
pub mod encryption;
pub mod error;
pub mod insecure;
pub mod params;
pub mod snapshot;
pub mod stash;
pub mod stats;
pub mod storage;
pub mod tree;
pub mod types;
pub mod wal;

pub use backend::{OramBackend, PathOramBackend};
pub use encryption::{BucketCipher, EncryptionMode};
pub use error::OramError;
pub use insecure::InsecureBackend;
pub use params::OramParams;
pub use stash::Stash;
pub use stats::BackendStats;
pub use storage::{treetop_levels_for_budget, StorageKind, TreeStorage, DEFAULT_MEMORY_BUDGET};
pub use types::{AccessOp, BlockData, BlockId, Leaf};
pub use wal::{Durability, Wal};

// `OramBackend: Send` is a supertrait promise (backends move into per-shard
// worker threads in a sharded deployment); pin it down at compile time for
// every backend and the building blocks they own, so a non-`Send` field
// added to any of them fails here rather than at a distant frontend call
// site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<PathOramBackend>();
    assert_send::<InsecureBackend>();
    assert_send::<TreeStorage>();
    assert_send::<Wal>();
    assert_send::<Stash>();
    assert_send::<BucketCipher>();
    assert_send::<Box<dyn OramBackend>>();
};
