//! # Freecursive ORAM
//!
//! A faithful algorithmic reproduction of **"Freecursive ORAM: \[Nearly\] Free
//! Recursion and Integrity Verification for Position-based Oblivious RAM"**
//! (Fletcher, Ren, Kwon, van Dijk, Devadas — ASPLOS 2015).
//!
//! How this crate's frontends fit the whole system — crate graph, the life
//! of one access down to bytes on disk, the RAM treetop over the file tier,
//! and the per-layer obliviousness argument — is mapped end to end in
//! `docs/ARCHITECTURE.md` at the workspace root.
//!
//! The paper's contribution is an ORAM *frontend* — the logic that manages
//! the Position Map (PosMap) — consisting of three mechanisms:
//!
//! 1. the **PosMap Lookaside Buffer (PLB)** plus a **unified ORAM tree**,
//!    which exploit program address locality to skip most Recursive-ORAM
//!    PosMap accesses without leaking the access pattern (§4);
//! 2. the **compressed PosMap**, which replaces stored leaves with a group
//!    counter and per-block individual counters fed through a PRF, doubling
//!    the PosMap fan-out X and improving the construction asymptotically
//!    (§5);
//! 3. **PosMap MAC (PMMAC)**, which reuses those counters as the
//!    non-repeating nonces of a replay-resistant MAC, giving integrity
//!    verification that hashes only the block of interest instead of a whole
//!    Merkle path (§6).
//!
//! This crate contains the functional controllers behind one processor-facing
//! interface, the [`Oram`] trait: [`FreecursiveOram`], the one tree-backed
//! frontend (PLB/compressed/PMMAC; with no PLB it keeps one tree per
//! recursion level, which is the `R_X8` Recursive ORAM baseline of the
//! evaluation), and [`InsecureOram`] (the flat "no ORAM" baseline).  The tree
//! frontend is generic over the [`path_oram::OramBackend`] substrate seam,
//! and every design point is constructed through [`OramBuilder`] keyed by
//! [`SchemePoint`].  The scalable trace-driven *timing* simulator that
//! regenerates the paper's figures lives in the `oram-sim` crate; the Path
//! ORAM backend substrate in `path-oram`.
//!
//! On top of the single-instance controllers sits the scale-out layer:
//! [`ShardedOram`] (an address-partitioned composite of independent
//! instances, itself an [`Oram`] — see [`sharded`]) and
//! [`OramService`]/[`OramClient`] (the same shards on worker threads behind
//! cheaply-clonable client handles — see [`service`]), both built through
//! [`OramBuilder::shards`].
//!
//! # Quick start
//!
//! ```
//! use freecursive::{Oram, OramBuilder, Request, SchemePoint};
//!
//! # fn main() -> Result<(), freecursive::FreecursiveError> {
//! // The full PIC_X32 design at 2^12 blocks of 64 bytes.
//! let mut oram = OramBuilder::for_scheme(SchemePoint::PicX32)
//!     .num_blocks(1 << 12)
//!     .build_freecursive()?;
//!
//! oram.write(1000, &vec![42u8; 64])?;
//! assert_eq!(oram.read(1000)?, vec![42u8; 64]);
//!
//! // The batched path serves mixed request streams in one call.
//! let responses = oram.access_batch(&[
//!     Request::Read { addr: 1000 },
//!     Request::Write { addr: 3, data: vec![7u8; 64] },
//! ])?;
//! assert_eq!(responses[0].data.as_deref(), Some(&[42u8; 64][..]));
//!
//! // The stats expose exactly the quantities the paper evaluates.
//! println!("posmap fraction of traffic: {:?}",
//!          oram.stats().posmap_bandwidth_fraction());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod config;
pub mod error;
pub mod frontend;
pub mod insecure;
pub mod payload;
pub(crate) mod persist;
#[cfg(test)]
mod recursive;
pub mod scheme;
pub mod service;
pub mod sharded;
pub mod stats;
pub mod traits;

pub use analysis::AsymptoticParams;
pub use builder::OramBuilder;
pub use config::{FreecursiveConfig, PosMapFormat};
pub use error::{ConfigError, FreecursiveError, MapError};
pub use frontend::FreecursiveOram;
pub use insecure::InsecureOram;
pub use scheme::SchemePoint;
pub use service::{OramClient, OramService, PendingBatch};
pub use sharded::{ShardRouter, ShardedOram};
pub use stats::FrontendStats;
pub use traits::{Oram, Request, Response};

// Re-export the substrate types callers commonly need alongside the frontend.
pub use path_oram::{
    Durability, EncryptionMode, InsecureBackend, OramBackend, OramError, PathOramBackend,
    StorageKind,
};

// `Oram: Send` is a supertrait promise; pin it down for every frontend (the
// backends carry their own assertions in `path_oram`, the PosMap structures
// in `posmap`).  A non-`Send` field added to any of these becomes a compile
// error here instead of a distant one at an `OramService` call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FreecursiveOram<PathOramBackend>>();
    assert_send::<FreecursiveOram<InsecureBackend>>();
    assert_send::<InsecureOram>();
    assert_send::<Box<dyn Oram>>();
    assert_send::<ShardedOram>();
    assert_send::<OramClient>();
    assert_send::<OramService>();
};
