//! Differential equivalence suite for tiered storage (a RAM treetop over
//! the file).
//!
//! The contract under test: `StorageKind::Tiered` — top K tree levels in a
//! RAM arena, the rest in the file store, K derived from the
//! `memory_budget` knob — is **behaviourally invisible**.  A seeded mixed
//! workload through a tiered instance must produce byte-identical responses
//! and final contents to an in-memory oracle for every treetop split,
//! including both degenerate corners (budget 0: everything file-backed;
//! unbounded budget: the whole tree in the arena).  The same must hold when
//! the workload is submitted through `access_batch`, and across a mid-run
//! persist/resume cycle, where the budget travels inside the snapshot's
//! config codec.  Batching changes how many requests one call carries,
//! never the tree I/O: under strict durability a batched run leaves the
//! same tree, metadata and log files as the sequential one.

use freecursive::{Durability, Oram, OramBuilder, Request, SchemePoint, StorageKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const N: u64 = 512;
const BLOCK: usize = 32;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn snap_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "oram-tiered-diff-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn builder(scheme: SchemePoint, storage: StorageKind) -> OramBuilder {
    OramBuilder::for_scheme(scheme)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(32)
        .seed(7)
        .storage(storage)
}

/// The seeded mixed workload: reads, writes and read-removes drawn from one
/// generator, so subject and oracle see the same stream.
fn request(i: u64, rng: &mut StdRng) -> Request {
    let addr = rng.gen_range(0..N);
    match i % 4 {
        0 | 1 => Request::Read { addr },
        2 => {
            let mut data = vec![0u8; BLOCK];
            rng.fill(&mut data[..]);
            data[0] = i as u8;
            Request::Write { addr, data }
        }
        _ => Request::ReadRemove { addr },
    }
}

/// Treetop budgets spanning the K sweep: 0 pins nothing (pure spill, K=0),
/// the mid values split the tree, `u64::MAX` pins everything (K=levels,
/// the file tier only sees checkpoints).
const BUDGET_SWEEP: [u64; 4] = [0, 2 << 10, 32 << 10, u64::MAX];

#[test]
fn tiered_matches_the_mem_oracle_across_the_k_sweep() {
    for scheme in [SchemePoint::PX16, SchemePoint::PicX32] {
        for budget in BUDGET_SWEEP {
            let label = format!("{} budget={budget}", scheme.label());
            let mut oracle = builder(scheme, StorageKind::Mem).build().unwrap();
            let mut subject = builder(
                scheme,
                StorageKind::TempTiered {
                    memory_budget: budget,
                },
            )
            .build()
            .unwrap();
            let mut rng = StdRng::seed_from_u64(0x71E2);
            for i in 0..2000 {
                let req = request(i, &mut rng);
                let expected = oracle.access(req.clone()).unwrap();
                let got = subject.access(req).unwrap();
                assert_eq!(got, expected, "{label}: access {i}");
            }
            for addr in 0..N {
                assert_eq!(
                    subject.read(addr).unwrap(),
                    oracle.read(addr).unwrap(),
                    "{label}: final contents of block {addr}"
                );
            }
        }
    }
}

#[test]
fn batched_submission_is_byte_identical_to_sequential_over_every_store() {
    // `Oram::access_batch` on every store kind: batched responses
    // byte-identical to the same requests issued one at a time, and the
    // final contents identical too.
    for storage in [
        StorageKind::TempFile,
        StorageKind::TempTiered {
            memory_budget: 2 << 10,
        },
        StorageKind::TempTiered { memory_budget: 0 },
        StorageKind::Mem,
    ] {
        let label = format!("{storage:?}");
        let mut sequential = builder(SchemePoint::PX16, storage.clone()).build().unwrap();
        let mut batched = builder(SchemePoint::PX16, storage).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let mut i = 0u64;
        while i < 2000 {
            let window: Vec<Request> = (0..16)
                .map(|_| {
                    let req = request(i, &mut rng);
                    i += 1;
                    req
                })
                .collect();
            let expected: Vec<_> = window
                .iter()
                .map(|req| sequential.access(req.clone()).unwrap())
                .collect();
            let got = batched.access_batch(&window).unwrap();
            assert_eq!(got, expected, "{label}: batch ending at {i}");
        }
        for addr in 0..N {
            assert_eq!(
                batched.read(addr).unwrap(),
                sequential.read(addr).unwrap(),
                "{label}: final contents of block {addr}"
            );
        }
    }
}

#[test]
fn batched_and_sequential_submission_leave_identical_strict_files() {
    // Batching must not change the tree I/O: the same requests in
    // `access_batch` windows of 16 and one at a time leave byte-identical
    // tree, metadata and log files, treetop or not.
    const FILES: [&str; 3] = ["tree0.oram", "tree0.meta", "tree0.wal"];
    let run = |tag: &str, budget: Option<u64>, batched: bool| {
        let dir = snap_dir(tag);
        let storage = match budget {
            None => StorageKind::File { dir: dir.clone() },
            Some(memory_budget) => StorageKind::Tiered {
                dir: dir.clone(),
                memory_budget,
            },
        };
        let mut oram = builder(SchemePoint::PX16, storage)
            .durability(Durability::Strict)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0x5791C7);
        let requests: Vec<Request> = (0..480).map(|i| request(i, &mut rng)).collect();
        let responses: Vec<_> = if batched {
            requests
                .chunks(16)
                .flat_map(|window| oram.access_batch(window).unwrap())
                .collect()
        } else {
            requests
                .into_iter()
                .map(|req| oram.access(req).unwrap())
                .collect()
        };
        drop(oram);
        let files = FILES.map(|name| std::fs::read(dir.join(name)).unwrap());
        std::fs::remove_dir_all(&dir).ok();
        (responses, files)
    };
    for budget in [None, Some(64 << 10)] {
        let (seq_responses, seq_files) = run("strict-seq", budget, false);
        let (batch_responses, batch_files) = run("strict-batch", budget, true);
        assert_eq!(batch_responses, seq_responses, "budget {budget:?}");
        for (name, (batched, sequential)) in FILES.iter().zip(batch_files.iter().zip(&seq_files)) {
            assert!(
                batched == sequential,
                "budget {budget:?}: {name} differs ({} vs {} bytes)",
                batched.len(),
                sequential.len()
            );
        }
    }
}

#[test]
fn tiered_persist_resume_is_byte_identical_and_carries_the_budget() {
    for budget in [0u64, 2 << 10, u64::MAX] {
        let label = format!("budget={budget}");
        let dir = snap_dir(&label.replace('=', "-"));
        let mut oracle = builder(SchemePoint::PcX32, StorageKind::Mem)
            .build()
            .unwrap();
        let mut subject = builder(
            SchemePoint::PcX32,
            StorageKind::Tiered {
                dir: dir.clone(),
                memory_budget: budget,
            },
        )
        .build()
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for i in 0..2000 {
            let req = request(i, &mut rng);
            let expected = oracle.access(req.clone()).unwrap();
            let got = subject.access(req).unwrap();
            assert_eq!(got, expected, "{label}: access {i}");
            if i == 999 {
                subject.persist(&dir).unwrap();
                // Drop before resuming: the resumed instance may see only
                // what reached the snapshot directory, exactly as a fresh
                // process would.  The tiered kind (and its budget) is
                // restored from the snapshot's own config codec.
                drop(subject);
                subject = OramBuilder::resume(&dir).unwrap();
            }
        }
        for addr in 0..N {
            assert_eq!(
                subject.read(addr).unwrap(),
                oracle.read(addr).unwrap(),
                "{label}: final contents of block {addr}"
            );
        }
        drop(subject);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn batches_spanning_a_persist_cycle_stay_consistent() {
    // Interleave `access_batch` calls with persist/resume: a snapshot taken
    // between batches must resume to exactly the contents the oracle holds.
    let dir = snap_dir("batch-persist");
    let mut oracle = builder(SchemePoint::PX16, StorageKind::Mem)
        .build()
        .unwrap();
    let mut subject = builder(
        SchemePoint::PX16,
        StorageKind::Tiered {
            dir: dir.clone(),
            memory_budget: 2 << 10,
        },
    )
    .build()
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut i = 0u64;
    for round in 0..8 {
        let window: Vec<Request> = (0..64)
            .map(|_| {
                let req = request(i, &mut rng);
                i += 1;
                req
            })
            .collect();
        let expected: Vec<_> = window
            .iter()
            .map(|req| oracle.access(req.clone()).unwrap())
            .collect();
        let got = subject.access_batch(&window).unwrap();
        assert_eq!(got, expected, "round {round}");
        if round % 2 == 1 {
            subject.persist(&dir).unwrap();
            drop(subject);
            subject = OramBuilder::resume(&dir).unwrap();
        }
    }
    for addr in 0..N {
        assert_eq!(
            subject.read(addr).unwrap(),
            oracle.read(addr).unwrap(),
            "final contents of block {addr}"
        );
    }
    drop(subject);
    std::fs::remove_dir_all(&dir).ok();
}
