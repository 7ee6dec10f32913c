//! Byte-level equivalence harness for the zero-copy backend hot path.
//!
//! The arena/in-place `PathOramBackend` must be observationally identical to
//! the flat oracle under the full Freecursive frontend, across several
//! scheme points and a long seeded random workload — and so must the same
//! frontend over the flat [`InsecureBackend`], the backend the simulator
//! runs on.  (`InsecureBackend` has no tree, so its *byte accounting* is
//! block-granular by design; the tree-side accounting invariants and the
//! run-to-run identity of `bytes_read` / `bytes_written` /
//! `max_stash_occupancy` are pinned down separately below — the indexed
//! eviction made the backend fully deterministic, which the old
//! hash-map-ordered eviction was not.)

use freecursive::{InsecureBackend, Oram, OramBuilder, Request, SchemePoint};
use freecursive_repro::Op::{Read, ReadRemove, Write};
use freecursive_repro::{agree, flat, same_contents, schedule};
use path_oram::{BackendStats, OramBackend as _};

const N: u64 = 1 << 10;
const BLOCK: usize = 32;
const ACCESSES: usize = 4000;

fn builder(scheme: SchemePoint) -> OramBuilder {
    OramBuilder::for_scheme(scheme)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(64)
}

/// The seeded random workload every harness below replays: two writes,
/// two reads and a read-remove in turn.
fn workload(seed: u64) -> Vec<Request> {
    schedule(
        seed,
        ACCESSES,
        0..N,
        BLOCK,
        &[Write, Write, Read, Read, ReadRemove],
    )
}

/// Tree backend and flat backend vs. the flat oracle: identical responses
/// over 4k accesses for five configurations (with and without compression,
/// PMMAC and a PLB), and identical final contents.
#[test]
fn path_backend_matches_insecure_oracle_across_scheme_points() {
    let configs = [
        ("P_X16", builder(SchemePoint::PX16)),
        ("PC_X32", builder(SchemePoint::PcX32)),
        ("PIC_X32", builder(SchemePoint::PicX32)),
        ("R_X8", builder(SchemePoint::RX8)),
        (
            "PIC_X32 without a PLB",
            builder(SchemePoint::PicX32).plb_capacity_bytes(0),
        ),
    ];
    for (i, (label, config)) in configs.into_iter().enumerate() {
        let requests = workload(0xE0_0001 + i as u64);
        let mut on_tree = config.build_freecursive().unwrap();
        let mut on_flat = config.build_freecursive_on::<InsecureBackend>().unwrap();
        for (subject, backend) in [
            (&mut on_tree as &mut dyn Oram, "tree"),
            (&mut on_flat, "flat backend"),
        ] {
            let mut oracle = flat(N, BLOCK);
            agree(
                subject,
                &mut oracle,
                &requests,
                format!("{label} on {backend}"),
            );
            same_contents(subject, &mut oracle, format!("{label} on {backend}"));
        }
    }
}

/// Replaying the same workload twice produces bit-identical backend
/// counters: `bytes_read`, `bytes_written` and `max_stash_occupancy` are
/// reproducible quantities, not artefacts of hash-map iteration order.
#[test]
fn backend_stats_are_deterministic_across_runs() {
    let run = |scheme: SchemePoint| -> BackendStats {
        let mut oram = builder(scheme).build_freecursive().unwrap();
        for request in workload(0xD0_0002) {
            oram.access(request).unwrap();
        }
        oram.stats().backend.clone()
    };
    for scheme in [SchemePoint::PX16, SchemePoint::PcX32, SchemePoint::PicX32] {
        let a = run(scheme);
        let b = run(scheme);
        assert_eq!(a, b, "{}", scheme.label());
        assert!(
            a.bytes_read > 0 && a.max_stash_occupancy > 0,
            "{}",
            scheme.label()
        );
    }
}

/// The tree backend's byte accounting follows the Path ORAM shape: every
/// path access moves exactly one path in each direction, every bucket on a
/// written path goes through the cipher, and the stash stays within its
/// configured capacity.
#[test]
fn backend_accounting_invariants_hold_under_the_frontend() {
    let mut oram = builder(SchemePoint::PicX32).build_freecursive().unwrap();
    for request in workload(0xC0_0003) {
        oram.access(request).unwrap();
    }
    let params = *oram.backend().params();
    let stats = &oram.stats().backend;
    assert_eq!(stats.bytes_read, stats.path_accesses * params.path_bytes());
    assert_eq!(stats.bytes_written, stats.bytes_read);
    assert_eq!(
        stats.buckets_encrypted,
        stats.path_accesses * u64::from(params.levels())
    );
    // Reads only decrypt initialised buckets, so the decrypt counter is
    // bounded by (and, once the tree is warm, close to) the encrypt counter.
    assert!(stats.buckets_decrypted <= stats.buckets_encrypted);
    assert!(stats.buckets_decrypted > stats.buckets_encrypted / 2);
    assert!(stats.max_stash_occupancy <= params.stash_capacity);
}

/// Steady state never grows the backing stores: the arena footprint is
/// fixed at construction and the stash slab never reallocates beyond its
/// capacity + transient headroom.  (The allocator-level proof lives in
/// `tests/backend_zero_alloc.rs`.)
#[test]
fn arena_and_stash_capacities_are_stable_after_warmup() {
    let mut oram = builder(SchemePoint::PcX32).build_freecursive().unwrap();
    for request in workload(0xB0_0004) {
        oram.access(request).unwrap();
    }
    let backend = oram.backend();
    let arena_bytes = backend.storage().num_buckets() * backend.storage().bucket_bytes();
    let slab_slots = backend.stash_slot_capacity();
    let params = *backend.params();
    assert_eq!(
        slab_slots,
        params.stash_capacity + params.levels() as usize * params.z + 1,
        "slab never grew beyond its constructed bound"
    );
    // Run the workload again: both bounds are unchanged.
    for request in workload(0xB0_0005) {
        oram.access(request).unwrap();
    }
    let backend = oram.backend();
    assert_eq!(
        backend.storage().num_buckets() * backend.storage().bucket_bytes(),
        arena_bytes
    );
    assert_eq!(backend.stash_slot_capacity(), slab_slots);
    assert!(backend.storage().resident_bytes() <= arena_bytes as u64);
}
