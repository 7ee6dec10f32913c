//! Differential persistence suite and snapshot fault-injection tests.
//!
//! The contract under test: `persist(dir)` + `OramBuilder::resume(dir)` is
//! **behaviourally invisible**.  A seeded workload that is persisted
//! mid-run and resumed into a fresh instance (only the snapshot directory
//! crosses the gap — the original instance is dropped first, so this is
//! what a process restart sees) must produce byte-identical responses and
//! final contents to the flat oracle run uninterrupted, across every scheme
//! point, both tree stores, and both AES engines (the CI matrix runs this
//! file under `ORAM_CRYPTO_FORCE_SOFT` as well).
//!
//! The fault-injection half flips and truncates bytes in the persisted
//! state file and in tree bucket slots on disk: integrity-protected
//! content must surface `FreecursiveError::Integrity` — never silently
//! wrong data — while version mismatches and short files surface as
//! `Config`/`Backend` errors, not panics.

use freecursive::{
    Durability, FreecursiveError, Oram, OramBuilder, Request, SchemePoint, StorageKind,
};
use freecursive_repro::Op::{Read, ReadRemove, Write};
use freecursive_repro::{agree, flat, same_contents, schedule, Op, ScratchDir};
use std::collections::BTreeMap;

const N: u64 = 512;
const BLOCK: usize = 32;
const ACCESSES: usize = 4000;
const PERSIST_AT: usize = ACCESSES / 2;
/// Two reads, a write, a read-remove.
const MIX: [Op; 4] = [Read, Read, Write, ReadRemove];

fn builder(scheme: SchemePoint, storage: StorageKind) -> OramBuilder {
    OramBuilder::for_scheme(scheme)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(32)
        .seed(7)
        .storage(storage)
}

/// The seeded mixed workload over every block.
fn requests(seed: u64, len: usize) -> Vec<Request> {
    schedule(seed, len, 0..N, BLOCK, &MIX)
}

/// Every file of a snapshot directory, by name.
fn snapshot_files(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn persist_resume_is_byte_identical_to_an_uninterrupted_run() {
    let schemes = [
        SchemePoint::RX8,
        SchemePoint::PX16,
        SchemePoint::PcX32,
        SchemePoint::PicX32,
    ];
    for scheme in schemes {
        for storage in [StorageKind::Mem, StorageKind::TempFile] {
            let label = format!("{}-{:?}", scheme.label(), storage);
            let dir = ScratchDir::new("persistence");

            // The flat oracle runs the whole workload uninterrupted, and so
            // does the subject's twin, which persists at the same point but
            // goes on running.
            let mut oracle = flat(N, BLOCK);
            let mut subject = builder(scheme, storage.clone()).build().unwrap();
            let mut twin = builder(scheme, storage.clone()).build().unwrap();
            let stream = requests(0xD1FF, ACCESSES);
            let (before, after) = stream.split_at(PERSIST_AT);

            agree(&mut subject, &mut oracle, before, &label);
            twin.access_batch(before).unwrap();
            subject.persist(&dir).unwrap();
            twin.persist(&ScratchDir::new("persistence-twin")).unwrap();
            // Drop before resuming: the resumed instance may see only what
            // reached the snapshot directory, exactly as a fresh process
            // would.
            drop(subject);
            subject = OramBuilder::resume(&dir).unwrap();
            agree(&mut subject, &mut oracle, after, format!("{label} resumed"));

            same_contents(&mut subject, &mut oracle, &label);
            assert_eq!(
                subject.stats().frontend_requests,
                oracle.stats().frontend_requests,
                "{label}: stats continue across the snapshot"
            );

            // The twin runs the rest of the stream and the same final reads.
            // Responses alone cannot show that the resumed instance goes on
            // drawing the leaves the twin draws (a restarted draw counter
            // answers every request correctly); the two final snapshots,
            // trees and controller state alike, must be the same bytes.
            twin.access_batch(after).unwrap();
            same_contents(&mut twin, &mut oracle, format!("{label} twin"));
            let (resumed_end, twin_end) = (ScratchDir::new("resumed"), ScratchDir::new("twin"));
            subject.persist(&resumed_end).unwrap();
            twin.persist(&twin_end).unwrap();
            let (resumed_files, twin_files) =
                (snapshot_files(&resumed_end), snapshot_files(&twin_end));
            assert_eq!(
                resumed_files.keys().collect::<Vec<_>>(),
                twin_files.keys().collect::<Vec<_>>(),
                "{label}"
            );
            for (name, bytes) in &resumed_files {
                assert!(
                    bytes == &twin_files[name],
                    "{label}: {name} differs from the twin's"
                );
            }
        }
    }
}

/// Ciphertext compatibility across the keystream kernel change, and
/// resumption across the change of leaf source.
///
/// `tests/fixtures/pr11_file_wal/` is a file-backed PIC_X32 instance (128
/// blocks of 32 B, builder seed 7, `Durability::Batch(8)`) that the commit
/// *before* the fused AES-CTR kernel drove through the first 1012 requests
/// of the `0xF1C5` stream and persisted in place: tree file, tree metadata,
/// a WAL holding the records since its last checkpoint, and the controller
/// snapshot `oram.state`.  The keystream construction is part of that
/// on-disk format, so running the same requests today must leave
/// byte-identical tree files.
///
/// That `oram.state` carries the four words of the xoshiro256++ generator
/// that drew leaves then, under the read-only legacy kind tag.  Today's
/// controller snapshot carries the PRF's draw counter instead, so it is
/// pinned against `oram.state.draw_counter`, recorded at the same stream
/// point.  Both resume, with the checked-in tree files, and go on
/// answering exactly as an uninterrupted run does.
#[test]
fn directory_persisted_before_the_fused_kernel_is_byte_identical_and_resumes() {
    const BLOCKS: u64 = 128;
    const PERSISTED_AT: usize = 1012;
    const TREE_FILES: [&str; 3] = ["tree0.oram", "tree0.meta", "tree0.wal"];
    const STATES: [&str; 2] = ["oram.state", "oram.state.draw_counter"];
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr11_file_wal");
    let stream = schedule(0xF1C5, PERSISTED_AT + 600, 0..BLOCKS, BLOCK, &MIX);
    let (before, after) = stream.split_at(PERSISTED_AT);
    let live = ScratchDir::new("golden-live");
    let mut oracle = flat(BLOCKS, BLOCK);
    let mut fresh = OramBuilder::for_scheme(SchemePoint::PicX32)
        .num_blocks(BLOCKS)
        .block_bytes(BLOCK)
        .onchip_entries(32)
        .seed(7)
        .storage(StorageKind::File {
            dir: live.to_path_buf(),
        })
        .durability(Durability::Batch(8))
        .build()
        .unwrap();
    agree(&mut fresh, &mut oracle, before, "fresh");
    fresh.persist(&live).unwrap();
    drop(fresh);
    let read = |dir: &std::path::Path, file: &str| std::fs::read(dir.join(file)).unwrap();
    for file in TREE_FILES {
        assert!(
            read(&live, file) == read(&fixture, file),
            "{file} differs from the one the previous kernel wrote"
        );
    }
    assert!(
        read(&live, "oram.state") == read(&fixture, STATES[1]),
        "oram.state differs from {}",
        STATES[1]
    );

    // Resume a copy (resuming appends to the WAL) of the checked-in files,
    // once under each state file.
    for state in STATES {
        let copy = ScratchDir::new("golden-copy");
        for file in TREE_FILES {
            std::fs::copy(fixture.join(file), copy.join(file)).unwrap();
        }
        std::fs::copy(fixture.join(state), copy.join("oram.state")).unwrap();
        let mut oracle = flat(BLOCKS, BLOCK);
        oracle.access_batch(before).unwrap();
        let mut resumed = OramBuilder::resume(&copy).unwrap();
        agree(
            &mut resumed,
            &mut oracle,
            after,
            format!("resumed from {state}"),
        );
        same_contents(
            &mut resumed,
            &mut oracle,
            format!("{state}: final contents"),
        );
    }
}

#[test]
fn recursive_and_insecure_schemes_roundtrip_too() {
    // R_X8 keeps one tree per recursion level, so the file-backed kinds
    // must persist, log and reopen every level's `tree<level>.*` files.
    let tiered = StorageKind::TempTiered {
        memory_budget: 4 << 10,
    };
    let subjects = [
        builder(SchemePoint::RX8, StorageKind::Mem),
        builder(SchemePoint::RX8, StorageKind::TempFile).durability(Durability::Strict),
        builder(SchemePoint::RX8, tiered).durability(Durability::Strict),
        builder(SchemePoint::Insecure, StorageKind::Mem),
    ];
    for (k, subject_builder) in subjects.into_iter().enumerate() {
        let label = format!(
            "{} {:?}",
            subject_builder.scheme().label(),
            subject_builder.storage_in_effect().unwrap()
        );
        let dir = ScratchDir::new(&format!("extra-{k}"));
        let mut oracle = flat(N, BLOCK);
        let mut subject = subject_builder.build().unwrap();
        let stream = requests(0xBEE, 600);
        let (before, after) = stream.split_at(300);
        agree(&mut subject, &mut oracle, before, &label);
        subject.persist(&dir).unwrap();
        drop(subject);
        subject = OramBuilder::resume(&dir).unwrap();
        agree(&mut subject, &mut oracle, after, format!("{label} resumed"));
        same_contents(&mut subject, &mut oracle, &label);
    }
}

#[test]
fn sharded_composites_persist_into_per_shard_subdirectories() {
    let dir = ScratchDir::new("sharded");
    let mut oracle = flat(N, BLOCK);
    let mut subject = builder(SchemePoint::PicX32, StorageKind::Mem)
        .shards(4)
        .build_sharded()
        .unwrap();
    let stream = requests(0x5AAD, 1200);
    let (before, after) = stream.split_at(800);
    agree(&mut subject, &mut oracle, before, "sharded");
    subject.persist(&dir).unwrap();
    for shard in 0..4 {
        assert!(
            dir.join(format!("shard{shard}"))
                .join("oram.state")
                .exists(),
            "per-shard snapshot directory"
        );
    }
    drop(subject);
    let mut resumed = OramBuilder::resume(&dir).unwrap();
    agree(&mut resumed, &mut oracle, after, "post-resume");
    same_contents(&mut resumed, &mut oracle, "post-resume");
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// Builds a persisted PicX32 snapshot to corrupt, returning its directory.
fn persisted_snapshot(tag: &str, storage: StorageKind) -> ScratchDir {
    let dir = ScratchDir::new(tag);
    let mut subject = builder(SchemePoint::PicX32, storage).build().unwrap();
    for request in requests(0xFA, 400) {
        subject.access(request).unwrap();
    }
    subject.persist(&dir).unwrap();
    dir
}

fn is_backend_error(e: &FreecursiveError) -> bool {
    matches!(
        e,
        FreecursiveError::Backend(_) | FreecursiveError::Config(_)
    )
}

/// `Box<dyn Oram>` has no `Debug`, so `unwrap_err` is unavailable on the
/// resume result; this is the expect-an-error unwrap.
fn resume_err(dir: &std::path::Path) -> FreecursiveError {
    match OramBuilder::resume(dir) {
        Err(e) => e,
        Ok(_) => panic!("resume unexpectedly succeeded"),
    }
}

#[test]
fn flipping_any_state_file_byte_surfaces_as_integrity_violation() {
    let dir = persisted_snapshot("state-flip", StorageKind::Mem);
    let state = dir.join("oram.state");
    let pristine = std::fs::read(&state).unwrap();
    // Sample positions across the whole file: header, payload, digest.
    for pos in [0, 5, 7, 40, pristine.len() / 2, pristine.len() - 1] {
        let mut corrupt = pristine.clone();
        corrupt[pos] ^= 0x08;
        std::fs::write(&state, &corrupt).unwrap();
        match OramBuilder::resume(&dir) {
            Err(FreecursiveError::Integrity { .. }) => {}
            other => panic!(
                "flip at byte {pos}: expected Integrity, got {:?}",
                other.err()
            ),
        }
    }
    std::fs::write(&state, &pristine).unwrap();
    assert!(OramBuilder::resume(&dir).is_ok(), "pristine file resumes");
}

#[test]
fn truncated_and_missing_state_files_are_backend_errors_not_panics() {
    let dir = persisted_snapshot("state-trunc", StorageKind::Mem);
    let state = dir.join("oram.state");
    let pristine = std::fs::read(&state).unwrap();
    for len in [0, 3, 15, 40, pristine.len() - 1] {
        std::fs::write(&state, &pristine[..len]).unwrap();
        let err = resume_err(&dir);
        assert!(
            is_backend_error(&err) || matches!(err, FreecursiveError::Integrity { .. }),
            "truncation to {len}: got {err:?}"
        );
    }
    std::fs::remove_file(&state).unwrap();
    let err = resume_err(&dir);
    assert!(is_backend_error(&err), "missing state file: got {err:?}");
}

#[test]
fn torn_snapshot_temp_file_beside_a_valid_snapshot_is_ignored() {
    // A crash *inside* an atomic state write leaves `oram.state.tmp` (the
    // pre-rename scratch file) beside the last complete snapshot.  Resume
    // must ignore the partial file — whatever garbage it holds — resume
    // from the valid `oram.state`, and clean the orphan up.
    let dir = persisted_snapshot("state-torn-tmp", StorageKind::Mem);
    let tmp = dir.join("oram.state.tmp");
    let pristine = std::fs::read(dir.join("oram.state")).unwrap();
    for torn in [
        Vec::new(),                              // crash before any byte
        pristine[..pristine.len() / 2].to_vec(), // half-written copy
        vec![0xFFu8; pristine.len() + 64],       // wrong-sized garbage
    ] {
        std::fs::write(&tmp, &torn).unwrap();
        let mut resumed = OramBuilder::resume(&dir)
            .unwrap_or_else(|e| panic!("a torn temp file must not block resume: {e:?}"));
        resumed.read(0).unwrap();
        drop(resumed);
        assert!(
            !tmp.exists(),
            "resume should clean up the orphaned temp file"
        );
    }
}

#[test]
fn version_mismatch_with_valid_digest_is_a_backend_error() {
    let dir = persisted_snapshot("state-version", StorageKind::Mem);
    let state = dir.join("oram.state");
    let mut bytes = std::fs::read(&state).unwrap();
    // Rewrite the version field and re-seal the digest so the file is a
    // *well-formed* snapshot of an unsupported version, not a corrupt one.
    const DIGEST_BYTES: usize = 28;
    let body_len = bytes.len() - DIGEST_BYTES;
    bytes[4..6].copy_from_slice(&77u16.to_le_bytes());
    let digest = oram_crypto::Sha3_224::digest(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&digest);
    std::fs::write(&state, &bytes).unwrap();
    let err = resume_err(&dir);
    assert!(
        matches!(&err, FreecursiveError::Backend(e) if e.to_string().contains("version")),
        "got {err:?}"
    );
}

#[test]
fn corrupt_tree_metadata_is_an_integrity_violation() {
    let dir = persisted_snapshot("meta-flip", StorageKind::Mem);
    let meta = dir.join("tree0.meta");
    let mut bytes = std::fs::read(&meta).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&meta, &bytes).unwrap();
    match OramBuilder::resume(&dir) {
        Err(FreecursiveError::Integrity { .. }) => {}
        other => panic!("expected Integrity, got {:?}", other.err()),
    }
}

#[test]
fn tampered_tree_payload_bytes_on_disk_yield_integrity_never_wrong_data() {
    use freecursive::FreecursiveOram;
    // File-backed subject so the tamper API flips real bytes on disk; a
    // parallel oracle supplies the expected contents.
    let dir = ScratchDir::new("tree-flip");
    let mut oracle = flat(N, BLOCK);
    let mut subject = builder(
        SchemePoint::PicX32,
        StorageKind::File {
            dir: dir.to_path_buf(),
        },
    )
    .build_freecursive()
    .unwrap();
    agree(
        &mut subject,
        &mut oracle,
        &requests(0xFA11, 600),
        "tree-flip",
    );
    subject.persist(&dir).unwrap();
    drop(subject);

    let mut resumed = FreecursiveOram::<freecursive::PathOramBackend>::resume(&dir).unwrap();
    // Flip one byte inside slot 0's *data* region of every initialised
    // bucket — on-disk ciphertext corruption that leaves the bucket framing
    // parseable, so any real block in slot 0 decrypts to wrong bytes whose
    // MAC must now fail.  (Corrupting slot metadata instead garbles the
    // framing and surfaces as Backend errors; the adversary suite covers
    // that leg.)
    let data_offset = 8 + 4 * 13 + 2;
    let storage = resumed.backend_mut().storage_mut();
    assert!(storage.is_file_backed());
    let mut flipped = 0u64;
    for idx in 0..storage.num_buckets() as u64 {
        if storage.tamper_xor(idx, data_offset, 0xFF) {
            flipped += 1;
        }
    }
    assert!(flipped > 0, "tamper must reach the tree");

    // Sweep: every response is either byte-identical to the oracle or an
    // integrity violation.  Silent wrong data is the one forbidden outcome.
    let mut violations = 0u64;
    for addr in 0..N {
        let expected = oracle.read(addr).unwrap();
        match resumed.read(addr) {
            Ok(data) => assert_eq!(data, expected, "silent wrong data on block {addr}"),
            Err(e) => {
                assert!(
                    e.is_integrity_violation(),
                    "block {addr}: expected Integrity, got {e:?}"
                );
                violations += 1;
                // The threat model halts the machine here; stop driving
                // the instance past its first detected violation.
                break;
            }
        }
    }
    assert!(violations > 0, "corruption must be detected");
}

#[test]
fn resuming_with_the_wrong_scheme_resumer_is_a_backend_error() {
    let dir = persisted_snapshot("wrong-kind", StorageKind::Mem);
    let err = freecursive::InsecureOram::resume(&dir).unwrap_err();
    assert!(is_backend_error(&err), "got {err:?}");
}

#[test]
fn a_state_file_with_the_retired_kind_tag_is_a_snapshot_error() {
    // Tag 2 named the separate Recursive ORAM frontend that R_X8 used to
    // be.  A well-formed state file carrying it must be refused cleanly.
    let dir = persisted_snapshot("retired-kind", StorageKind::Mem);
    let state = dir.join("oram.state");
    let (_, payload) = path_oram::snapshot::read_state_file(&state).unwrap();
    path_oram::snapshot::write_state_file(&state, 2, &payload).unwrap();
    let err = resume_err(&dir);
    assert!(
        matches!(&err, FreecursiveError::Backend(path_oram::OramError::Snapshot { detail }) if detail.contains("kind tag 2")),
        "got {err:?}"
    );
}
