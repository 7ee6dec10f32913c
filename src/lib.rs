//! The workspace's differential harness.
//!
//! An ORAM's functional contract is that of a flat array of blocks, so
//! every block-level suite checks a design point the same way: replay one
//! seeded request [`schedule`] against the subject and against the [`flat`]
//! oracle — the `Insecure` scheme point, an [`InsecureOram`] — and demand
//! equal [`Response`]s ([`agree`], [`answers`]) and equal final contents
//! ([`same_contents`]).  Suites that persist take their snapshot
//! directories from [`ScratchDir`], which cleans up even when an assertion
//! fires first.
//!
//! The active [`Adversary`] of the threat model lives here too: it tampers
//! with a [`freecursive::FreecursiveOram`]'s untrusted memory for the
//! integrity tests and the `integrity_attack` example.  Its passive
//! counterpart is [`LeafRecorder`], a backend that logs the leaf of every
//! path access a frontend asks for.
//!
//! This package also owns the cross-crate integration tests (`tests/`) and
//! the runnable examples (`examples/`); the functionality lives in the
//! member crates.

#![forbid(unsafe_code)]

pub mod adversary;

pub use adversary::Adversary;

use freecursive::{
    Durability, EncryptionMode, InsecureOram, Oram, OramBackend, OramBuilder, OramError,
    PathOramBackend, Request, Response, SchemePoint, StorageKind,
};
use path_oram::{AccessOp, BackendStats, OramParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Display;
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The kind of request one [`schedule`] slot issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// [`Request::Read`].
    Read,
    /// [`Request::Write`] of fresh random bytes.
    Write,
    /// [`Request::ReadRemove`].
    ReadRemove,
}

/// A seeded request stream of `len` requests over `addrs`.
///
/// Request `i` is a `mix[i % mix.len()]`.  One `StdRng` seeded with `seed`
/// draws each request's address and then, for a write, its `block_bytes`
/// of data, whose first byte is stamped with `i`.
pub fn schedule(
    seed: u64,
    len: usize,
    addrs: Range<u64>,
    block_bytes: usize,
    mix: &[Op],
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let addr = rng.gen_range(addrs.clone());
            match mix[i % mix.len()] {
                Op::Read => Request::Read { addr },
                Op::Write => {
                    let mut data = vec![0u8; block_bytes];
                    rng.fill(&mut data[..]);
                    data[0] = i as u8;
                    Request::Write { addr, data }
                }
                Op::ReadRemove => Request::ReadRemove { addr },
            }
        })
        .collect()
}

/// The flat oracle: `num_blocks` zeroed blocks of `block_bytes`, built as
/// the `Insecure` scheme point.  It keeps its blocks in memory whatever
/// `ORAM_STORAGE` selects, so it is the same oracle on every test leg.
pub fn flat(num_blocks: u64, block_bytes: usize) -> InsecureOram {
    OramBuilder::for_scheme(SchemePoint::Insecure)
        .num_blocks(num_blocks)
        .block_bytes(block_bytes)
        .build_insecure()
        .expect("flat oracle geometry")
}

/// Runs every request of `requests`, in order, on both sides and asserts
/// that each pair of responses is equal.
pub fn agree<S: Oram + ?Sized>(
    subject: &mut S,
    oracle: &mut InsecureOram,
    requests: &[Request],
    label: impl Display,
) {
    for (i, request) in requests.iter().enumerate() {
        let expected = oracle
            .access(request.clone())
            .unwrap_or_else(|e| panic!("{label}: the oracle refused request {i}: {e}"));
        let got = subject
            .access(request.clone())
            .unwrap_or_else(|e| panic!("{label}: request {i}: {e}"));
        assert_eq!(got, expected, "{label}: request {i}");
    }
}

/// The oracle's responses to `requests`, one access at a time: what a
/// subject must return for the same requests submitted as a batch.
pub fn answers(oracle: &mut InsecureOram, requests: &[Request]) -> Vec<Response> {
    requests
        .iter()
        .map(|request| oracle.access(request.clone()).expect("oracle access"))
        .collect()
}

/// Asserts that every block of the oracle's address space reads the same
/// on both sides.
pub fn same_contents<S: Oram + ?Sized>(
    subject: &mut S,
    oracle: &mut InsecureOram,
    label: impl Display,
) {
    for addr in 0..oracle.num_blocks() {
        let got = subject
            .read(addr)
            .unwrap_or_else(|e| panic!("{label}: block {addr}: {e}"));
        let expected = oracle.read(addr).expect("oracle read");
        assert_eq!(got, expected, "{label}: block {addr}");
    }
}

/// A [`PathOramBackend`] that records the leaf of every path access it
/// serves: the sequence of paths an observer of untrusted memory sees.
/// Appends touch no path and are not recorded.  Build a frontend over it
/// with [`OramBuilder::build_freecursive_on`]; read each tree's log through
/// [`freecursive::FreecursiveOram::trees`].
#[derive(Debug)]
pub struct LeafRecorder {
    inner: PathOramBackend,
    leaves: Vec<u64>,
}

impl LeafRecorder {
    /// The leaf of every path access so far, in order.
    pub fn leaves(&self) -> &[u64] {
        &self.leaves
    }

    fn wrap(inner: PathOramBackend) -> Self {
        Self {
            inner,
            leaves: Vec::new(),
        }
    }
}

impl OramBackend for LeafRecorder {
    fn new_backend(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        seed: u64,
    ) -> Result<Self, OramError> {
        PathOramBackend::new_backend(params, encryption, key, seed).map(Self::wrap)
    }

    fn new_backend_with(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        seed: u64,
        storage: &StorageKind,
        durability: Durability,
        label: u32,
    ) -> Result<Self, OramError> {
        PathOramBackend::new_backend_with(params, encryption, key, seed, storage, durability, label)
            .map(Self::wrap)
    }

    fn params(&self) -> &OramParams {
        self.inner.params()
    }

    fn access_into(
        &mut self,
        op: AccessOp,
        addr: u64,
        leaf: u64,
        new_leaf: u64,
        data: Option<&[u8]>,
        out: &mut Vec<u8>,
    ) -> Result<bool, OramError> {
        if op != AccessOp::Append {
            self.leaves.push(leaf);
        }
        self.inner.access_into(op, addr, leaf, new_leaf, data, out)
    }

    fn stats(&self) -> &BackendStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `oram-<tag>-<pid>-<n>`, unique within the process.
    pub fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "oram-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create scratch directory");
        Self(path)
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
