//! Differential equivalence suite for tiered storage (a RAM treetop over
//! the file).
//!
//! The contract under test: `StorageKind::Tiered` — top K tree levels in a
//! RAM arena, the rest in the file store, K derived from the
//! `memory_budget` knob — is **behaviourally invisible**.  A seeded mixed
//! workload through a tiered instance must produce byte-identical responses
//! and final contents to the flat oracle for every treetop split,
//! including both degenerate corners (budget 0: everything file-backed;
//! unbounded budget: the whole tree in the arena).  The same must hold when
//! the workload is submitted through `access_batch`, and across a mid-run
//! persist/resume cycle, where the budget travels inside the snapshot's
//! config codec.  Batching changes how many requests one call carries,
//! never the tree I/O: under strict durability a batched run leaves the
//! same tree, metadata and log files as the sequential one.

use freecursive::{Durability, Oram, OramBuilder, Request, SchemePoint, StorageKind};
use freecursive_repro::Op::{Read, ReadRemove, Write};
use freecursive_repro::{agree, answers, flat, same_contents, schedule, ScratchDir};

const N: u64 = 512;
const BLOCK: usize = 32;

fn builder(scheme: SchemePoint, storage: StorageKind) -> OramBuilder {
    OramBuilder::for_scheme(scheme)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(32)
        .seed(7)
        .storage(storage)
}

/// The seeded mixed workload: two reads, a write and a read-remove in
/// turn over every block.
fn requests(seed: u64, len: usize) -> Vec<Request> {
    schedule(seed, len, 0..N, BLOCK, &[Read, Read, Write, ReadRemove])
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
            let mut oracle = flat(N, BLOCK);
            let mut subject = builder(
                scheme,
                StorageKind::TempTiered {
                    memory_budget: budget,
                },
            )
            .build()
            .unwrap();
            agree(&mut subject, &mut oracle, &requests(0x71E2, 2000), &label);
            same_contents(&mut subject, &mut oracle, &label);
        }
    }
}

#[test]
fn batched_submission_is_byte_identical_to_sequential_over_every_store() {
    // `Oram::access_batch` on every store kind: batched responses
    // byte-identical to the same requests issued one at a time to the flat
    // oracle, and the final contents identical too.
    for storage in [
        StorageKind::TempFile,
        StorageKind::TempTiered {
            memory_budget: 2 << 10,
        },
        StorageKind::TempTiered { memory_budget: 0 },
        StorageKind::Mem,
    ] {
        let label = format!("{storage:?}");
        let mut oracle = flat(N, BLOCK);
        let mut batched = builder(SchemePoint::PX16, storage).build().unwrap();
        for (k, window) in requests(0xBA7C, 2000).chunks(16).enumerate() {
            let got = batched.access_batch(window).unwrap();
            assert_eq!(got, answers(&mut oracle, window), "{label}: batch {k}");
        }
        same_contents(&mut batched, &mut oracle, &label);
    }
}

#[test]
fn batched_and_sequential_submission_leave_identical_strict_files() {
    // Batching must not change the tree I/O: the same requests in
    // `access_batch` windows of 16 and one at a time leave byte-identical
    // tree, metadata and log files, treetop or not.
    const FILES: [&str; 3] = ["tree0.oram", "tree0.meta", "tree0.wal"];
    let run = |tag: &str, budget: Option<u64>, batched: bool| {
        let dir = ScratchDir::new(tag);
        let storage = match budget {
            None => StorageKind::File {
                dir: dir.to_path_buf(),
            },
            Some(memory_budget) => StorageKind::Tiered {
                dir: dir.to_path_buf(),
                memory_budget,
            },
        };
        let mut oram = builder(SchemePoint::PX16, storage)
            .durability(Durability::Strict)
            .build()
            .unwrap();
        let stream = requests(0x5791C7, 480);
        let responses: Vec<_> = if batched {
            stream
                .chunks(16)
                .flat_map(|window| oram.access_batch(window).unwrap())
                .collect()
        } else {
            stream
                .into_iter()
                .map(|req| oram.access(req).unwrap())
                .collect()
        };
        drop(oram);
        let files = FILES.map(|name| std::fs::read(dir.join(name)).unwrap());
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
        let dir = ScratchDir::new("tiered-resume");
        let mut oracle = flat(N, BLOCK);
        let mut subject = builder(
            SchemePoint::PcX32,
            StorageKind::Tiered {
                dir: dir.to_path_buf(),
                memory_budget: budget,
            },
        )
        .build()
        .unwrap();
        let stream = requests(0x5EED, 2000);
        let (before, after) = stream.split_at(1000);
        agree(&mut subject, &mut oracle, before, &label);
        subject.persist(&dir).unwrap();
        // Drop before resuming: the resumed instance may see only what
        // reached the snapshot directory, exactly as a fresh process would.
        // The tiered kind (and its budget) is restored from the snapshot's
        // own config codec.
        drop(subject);
        subject = OramBuilder::resume(&dir).unwrap();
        agree(&mut subject, &mut oracle, after, format!("{label} resumed"));
        same_contents(&mut subject, &mut oracle, &label);
    }
}

#[test]
fn batches_spanning_a_persist_cycle_stay_consistent() {
    // Interleave `access_batch` calls with persist/resume: a snapshot taken
    // between batches must resume to exactly the contents the oracle holds.
    let dir = ScratchDir::new("batch-persist");
    let mut oracle = flat(N, BLOCK);
    let mut subject = builder(
        SchemePoint::PX16,
        StorageKind::Tiered {
            dir: dir.to_path_buf(),
            memory_budget: 2 << 10,
        },
    )
    .build()
    .unwrap();
    for (round, window) in requests(0xC0DE, 8 * 64).chunks(64).enumerate() {
        let got = subject.access_batch(window).unwrap();
        assert_eq!(got, answers(&mut oracle, window), "round {round}");
        if round % 2 == 1 {
            subject.persist(&dir).unwrap();
            drop(subject);
            subject = OramBuilder::resume(&dir).unwrap();
        }
    }
    same_contents(&mut subject, &mut oracle, "final contents");
}
