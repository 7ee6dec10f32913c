//! Kill-point recovery suite for the crash-consistent file tier of
//! [`TreeStorage`], driven through the entry points the backend calls:
//! `TreeStorage::create` with `StorageKind::File`, `write_path`,
//! `checkpoint` and `open_snapshot`.
//!
//! The durability contract under test (see `path_oram::wal`):
//!
//! * a path writeback is WAL-logged **before** the tree file is touched, so
//!   a kill at any byte of the sequence leaves either a torn log record
//!   (the writeback never happened) or a complete one (replay finishes the
//!   tree writes on reopen);
//! * recovery replays the checksum-valid log tail, stopping cleanly at the
//!   first torn or invalid record — it never panics, and it never applies
//!   unvalidated bytes;
//! * the recovered store equals the state an uninterrupted run had after
//!   some *prefix* of the workload — exactly the writebacks whose log
//!   records were complete — never a torn mixture and never silently wrong
//!   data.
//!
//! Every sweep below drives the same deterministic workload against a
//! differential oracle (a flat per-bucket model), injects a kill at a
//! chosen point via the store's fault hooks, and resumes a fresh copy of
//! the directory as each store kind — `File`, `Tiered` with a two-level
//! treetop, and `Mem` — checking every recovered image byte-for-byte
//! against the oracle's prefix state.  WAL replay lands in whichever tier
//! holds each bucket, and the `Mem` resume must leave the directory's bytes
//! as they were.
//! Because the simulated kill is in-process (the budgeted prefix of the
//! record reaches the file, nothing after it does), the recovery point is
//! exact, not merely bounded.

use freecursive_repro::ScratchDir;
use path_oram::{Durability, OramParams, StorageKind, TreeStorage};
use std::ffi::OsString;
use std::path::Path;

fn params() -> OramParams {
    OramParams::new(64, 16, 4)
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Every file under `dir` with its bytes, by name.
fn dir_bytes(dir: &Path) -> Vec<(OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (entry.file_name(), std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A fresh file-backed store (`K` = 0) under `dir`.
fn create(p: &OramParams, dir: &Path, durability: Durability) -> TreeStorage {
    let kind = StorageKind::File {
        dir: dir.to_path_buf(),
    };
    TreeStorage::create(p, &kind, 0, durability).unwrap()
}

/// One writeback of the deterministic workload: a root-to-leaf path (as
/// linear bucket indices) and the sealed image to write along it.
struct Writeback {
    indices: Vec<u64>,
    image: Vec<u8>,
}

/// A fixed pseudo-random workload of `n` path writebacks.  Leaves cycle
/// through the tree so every sweep touches overlapping paths (the root is
/// rewritten by each of them — the interesting case for replay
/// idempotence), and images are distinct per step so a wrong recovery
/// point cannot alias a right one.
fn workload(p: &OramParams, n: usize) -> Vec<Writeback> {
    let leaf_level = p.leaf_level();
    let bb = p.bucket_bytes();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|step| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let leaf = state % p.num_leaves();
            let indices = path_oram::tree::path_linear_indices(leaf, leaf_level);
            let image: Vec<u8> = (0..indices.len() * bb)
                .map(|i| {
                    ((i as u64)
                        .wrapping_mul(31)
                        .wrapping_add(step as u64 * 131 + 7)
                        % 251) as u8
                        + 1
                })
                .collect();
            Writeback { indices, image }
        })
        .collect()
}

/// The differential oracle: a flat model of the tree applying writebacks
/// in order.  `None` = never written (the store reports uninitialised).
struct Oracle {
    buckets: Vec<Option<Vec<u8>>>,
    bucket_bytes: usize,
}

impl Oracle {
    fn new(p: &OramParams) -> Self {
        Self {
            buckets: vec![None; p.num_buckets() as usize],
            bucket_bytes: p.bucket_bytes(),
        }
    }

    fn apply(&mut self, wb: &Writeback) {
        for (level, &index) in wb.indices.iter().enumerate() {
            let image =
                wb.image[level * self.bucket_bytes..(level + 1) * self.bucket_bytes].to_vec();
            self.buckets[index as usize] = Some(image);
        }
    }

    /// Model state after the first `prefix` writebacks.
    fn after(p: &OramParams, wbs: &[Writeback], prefix: usize) -> Self {
        let mut oracle = Self::new(p);
        for wb in &wbs[..prefix] {
            oracle.apply(wb);
        }
        oracle
    }

    /// Asserts the store's full image equals this model, bucket for bucket.
    fn assert_matches(&self, store: &TreeStorage, context: &str) {
        let mut out = vec![0u8; self.bucket_bytes];
        for (index, expected) in self.buckets.iter().enumerate() {
            let index = index as u64;
            match expected {
                Some(image) => {
                    assert!(
                        store.is_initialized(index),
                        "{context}: bucket {index} lost"
                    );
                    store.read_bucket_into(index, &mut out).unwrap();
                    assert_eq!(&out, image, "{context}: bucket {index} content diverged");
                }
                None => {
                    assert!(
                        !store.is_initialized(index),
                        "{context}: bucket {index} materialised from nowhere"
                    );
                }
            }
        }
    }
}

const WORKLOAD_LEN: usize = 12;

/// Resumes a fresh copy of `dir` as each of `File`, `Tiered` with a
/// two-level treetop and `Mem`, and checks that every one recovers without
/// error onto exactly `writebacks` of `wbs`.  A file-backed open must leave
/// a directory that reads back as the same tree; the `Mem` open only reads
/// its copy, whose bytes must come out unchanged.
fn assert_recovers(p: &OramParams, wbs: &[Writeback], dir: &Path, writebacks: u64, context: &str) {
    let oracle = Oracle::after(p, wbs, writebacks as usize);
    for kind in 0..3 {
        let copy = ScratchDir::new("crash-resume");
        let kind = match kind {
            0 => StorageKind::File {
                dir: copy.to_path_buf(),
            },
            1 => StorageKind::Tiered {
                dir: copy.to_path_buf(),
                // K = 2: the root and its two children.
                memory_budget: 3 * p.bucket_bytes() as u64,
            },
            _ => StorageKind::Mem,
        };
        copy_dir(dir, &copy);
        let before = dir_bytes(&copy);
        let context = format!("{context} as {kind:?}");
        let recovered = TreeStorage::open_snapshot(p, &kind, &copy, 0, Durability::Strict)
            .unwrap_or_else(|e| panic!("{context} must recover cleanly: {e}"));
        assert_eq!(recovered.wal_seq(), writebacks, "{context}");
        oracle.assert_matches(&recovered, &context);
        drop(recovered);
        if kind.is_file_backed() {
            // The open folded what it replayed: the directory alone now
            // holds the recovered tree, treetop included.
            let reread =
                TreeStorage::open_snapshot(p, &StorageKind::Mem, &copy, 0, Durability::None)
                    .unwrap();
            oracle.assert_matches(&reread, &format!("{context}, reread"));
        } else {
            assert!(dir_bytes(&copy) == before, "{context}: the open wrote");
        }
    }
}

/// Byte length of one WAL record for this geometry (header-relative), probed
/// from a real log so the sweeps stay honest if the format changes.
fn probe_record_len(p: &OramParams) -> (u64, u64) {
    let dir = ScratchDir::new("crash-probe");
    let mut store = create(p, &dir, Durability::Strict);
    let wal_path = dir.join("tree0.wal");
    let header_len = std::fs::metadata(&wal_path).unwrap().len();
    let wb = &workload(p, 1)[0];
    store.write_path(&wb.indices, &wb.image).unwrap();
    let after_one = std::fs::metadata(&wal_path).unwrap().len();
    drop(store);
    (header_len, after_one - header_len)
}

/// Sweep A: kill inside the WAL append of every writeback, at the record
/// boundary and at offsets throughout the record.  The log holds k-1
/// complete records plus a torn prefix of record k; recovery must land
/// exactly on the state after k-1 writebacks.
#[test]
fn kill_points_inside_every_wal_append_recover_the_exact_prefix() {
    let p = params();
    let (_, rec_len) = probe_record_len(&p);
    let wbs = workload(&p, WORKLOAD_LEN);
    for k in 1..=WORKLOAD_LEN {
        for offset in [0, 1, rec_len / 2, rec_len - 1] {
            let dir = ScratchDir::new("crash-sweep-a");
            let mut store = create(&p, &dir, Durability::Strict);
            // Permit records 1..k in full, then `offset` bytes of record k.
            store.set_fail_after_wal_bytes((k as u64 - 1) * rec_len + offset);
            let mut completed = 0usize;
            let mut killed = false;
            for wb in &wbs {
                match store.write_path(&wb.indices, &wb.image) {
                    Ok(()) => completed += 1,
                    Err(path_oram::OramError::Storage { detail }) => {
                        assert!(
                            detail.contains("injected crash"),
                            "unexpected error: {detail}"
                        );
                        killed = true;
                        break;
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            assert!(killed, "kill point k={k} offset={offset} never fired");
            assert_eq!(completed, k - 1);
            drop(store);
            let context = format!("k={k} offset={offset}");
            assert_recovers(&p, &wbs, &dir, k as u64 - 1, &context);
        }
    }
}

/// Sweep B: kill inside the tree writes of every writeback, at every
/// bucket of its path.  The file store writes a path as whole subtree
/// windows; the kill budget is still charged per path bucket, and the
/// window that would cross it fails before any of its bytes reach the
/// file.  The WAL record is complete, so recovery must *finish* the
/// writeback: state after k, not k-1.
#[test]
fn kill_points_inside_every_tree_write_replay_to_completion() {
    let p = params();
    let wbs = workload(&p, WORKLOAD_LEN);
    let path_len = wbs[0].indices.len() as u64;
    for k in 1..=WORKLOAD_LEN {
        for torn_buckets in 0..path_len {
            let dir = ScratchDir::new("crash-sweep-b");
            let mut store = create(&p, &dir, Durability::Strict);
            store.set_fail_after_tree_writes((k as u64 - 1) * path_len + torn_buckets);
            let mut killed = false;
            for wb in &wbs {
                match store.write_path(&wb.indices, &wb.image) {
                    Ok(()) => {}
                    Err(path_oram::OramError::Storage { detail }) => {
                        assert!(
                            detail.contains("injected crash"),
                            "unexpected error: {detail}"
                        );
                        killed = true;
                        break;
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            assert!(killed, "kill point k={k} torn={torn_buckets} never fired");
            drop(store);
            // The logged writeback must be replayed.
            let context = format!("k={k} torn={torn_buckets}");
            assert_recovers(&p, &wbs, &dir, k as u64, &context);
        }
    }
}

/// Builds a directory whose WAL holds the whole workload but whose tree
/// file absorbed **none** of it (tree writes fail from the first bucket).
/// This is the worst-case recovery shape: everything rides on the log.
fn stale_tree_full_log(p: &OramParams, wbs: &[Writeback]) -> ScratchDir {
    let dir = ScratchDir::new("crash-stale");
    let mut store = create(p, &dir, Durability::Strict);
    store.set_fail_after_tree_writes(0);
    for wb in wbs {
        // Every call logs its record, then dies on the first tree write.
        assert!(store.write_path(&wb.indices, &wb.image).is_err());
    }
    drop(store);
    dir
}

/// Post-mortem truncation sweep: chop the log at every byte length and
/// reopen.  Recovery must never panic and never error — a short log is the
/// expected shape of a crash — and must recover exactly the writebacks
/// whose records survived in full.
#[test]
fn truncating_the_log_at_every_byte_recovers_a_valid_prefix() {
    let p = params();
    let (header_len, rec_len) = probe_record_len(&p);
    let wbs = workload(&p, 6);
    let master = stale_tree_full_log(&p, &wbs);
    let wal_bytes = std::fs::read(master.join("tree0.wal")).unwrap();
    assert_eq!(wal_bytes.len() as u64, header_len + 6 * rec_len);

    let dir = ScratchDir::new("crash-trunc");
    for len in 0..=wal_bytes.len() {
        copy_dir(&master, &dir);
        std::fs::write(dir.join("tree0.wal"), &wal_bytes[..len]).unwrap();
        let complete_records = (len as u64).saturating_sub(header_len) / rec_len;
        let context = format!("truncation at {len}");
        assert_recovers(&p, &wbs, &dir, complete_records, &context);
    }
}

/// Post-mortem corruption sweep: flip one byte at positions across the log
/// and reopen.  The per-record digests must stop replay at the corrupted
/// record — never panic, never apply the poisoned bytes, never touch a
/// record *before* the flip.
#[test]
fn flipping_any_log_byte_recovers_the_checksummed_prefix() {
    let p = params();
    let (header_len, rec_len) = probe_record_len(&p);
    let wbs = workload(&p, 6);
    let master = stale_tree_full_log(&p, &wbs);
    let wal_bytes = std::fs::read(master.join("tree0.wal")).unwrap();

    let dir = ScratchDir::new("crash-flip");
    for pos in (0..wal_bytes.len()).step_by(3) {
        copy_dir(&master, &dir);
        let mut poisoned = wal_bytes.clone();
        poisoned[pos] ^= 0x41;
        std::fs::write(dir.join("tree0.wal"), &poisoned).unwrap();
        // A flip in the header invalidates the whole log; a flip in record
        // r (1-based) stops replay just before it.
        let intact_records = if (pos as u64) < header_len {
            0
        } else {
            ((pos as u64) - header_len) / rec_len
        };
        assert_recovers(&p, &wbs, &dir, intact_records, &format!("flip at {pos}"));
    }
}

/// Batch mode buffers fsyncs but still orders the log ahead of the tree:
/// the in-process kill sweep must hold under `Batch` exactly as under
/// `Strict` (the fsync discipline changes what a *power loss* keeps, not
/// what a process kill keeps).
#[test]
fn batch_mode_kill_points_recover_like_strict() {
    let p = params();
    let (_, rec_len) = probe_record_len(&p);
    let wbs = workload(&p, WORKLOAD_LEN);
    for k in [1usize, 5, WORKLOAD_LEN] {
        let dir = ScratchDir::new("crash-batch");
        let mut store = create(&p, &dir, Durability::Batch(4));
        store.set_fail_after_wal_bytes((k as u64 - 1) * rec_len + rec_len / 3);
        for wb in &wbs {
            if store.write_path(&wb.indices, &wb.image).is_err() {
                break;
            }
        }
        drop(store);
        assert_recovers(&p, &wbs, &dir, k as u64 - 1, &format!("batch k={k}"));
    }
}

/// The checkpoint covers every applied record, so recovery from the
/// metadata alone must be complete — even with the log gone entirely.
#[test]
fn recovery_after_a_checkpoint_needs_no_log_tail() {
    let p = params();
    let wbs = workload(&p, WORKLOAD_LEN);
    let dir = ScratchDir::new("crash-ckpt");
    let mut store = create(&p, &dir, Durability::Strict);
    for wb in &wbs {
        store.write_path(&wb.indices, &wb.image).unwrap();
    }
    store.checkpoint().unwrap();
    drop(store);
    // Simulate the worst truncation crash: the log vanishes entirely.
    std::fs::remove_file(dir.join("tree0.wal")).unwrap();
    assert_recovers(&p, &wbs, &dir, WORKLOAD_LEN as u64, "post-checkpoint");
}

// ---------------------------------------------------------------------
// Recycled logs: a checkpoint restarts the log in place, so records of
// earlier generations sit past the live end until they are overwritten.
// ---------------------------------------------------------------------

/// Checkpoint interval of the recycled-log legs.
const GENERATION: usize = 4;
/// Writebacks folded by two checkpoints.
const FOLDED: usize = 2 * GENERATION;
/// Live records of the third generation: fewer than a generation holds,
/// so the second generation's last records stay behind them.
const LIVE: usize = 2;

/// A directory whose log was restarted twice (checkpoints after writebacks
/// 4 and 8) and then took `LIVE` records whose tree writes all failed, so
/// recovery of writebacks 9 and 10 rides on the log alone — with records 7
/// and 8 of the previous generation stale past them.
fn recycled_log(p: &OramParams, wbs: &[Writeback]) -> ScratchDir {
    let dir = ScratchDir::new("crash-recycled");
    let mut store = create(p, &dir, Durability::Strict);
    store.set_checkpoint_interval(GENERATION as u64);
    for wb in &wbs[..FOLDED] {
        store.write_path(&wb.indices, &wb.image).unwrap();
    }
    store.set_fail_after_tree_writes(0);
    for wb in &wbs[FOLDED..FOLDED + LIVE] {
        assert!(store.write_path(&wb.indices, &wb.image).is_err());
    }
    drop(store);
    dir
}

#[test]
fn a_recycled_log_recovers_exactly_its_live_records() {
    let p = params();
    let (header_len, rec_len) = probe_record_len(&p);
    let wbs = workload(&p, FOLDED + LIVE);
    let master = recycled_log(&p, &wbs);
    let wal = master.join("tree0.wal");
    // The file kept the size of a full generation: the restarts rewrote
    // it in place instead of truncating it.
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        header_len + GENERATION as u64 * rec_len
    );
    let mut replayed = Vec::new();
    let summary = path_oram::wal::replay(&wal, p.bucket_bytes(), |seq, _, _| {
        replayed.push(seq);
        Ok(())
    })
    .unwrap()
    .unwrap();
    assert_eq!(summary.base_seq, FOLDED as u64);
    assert_eq!(replayed, [9, 10], "exactly the live records replay");
    assert!(summary.torn_tail, "the stale records end history");
    assert_recovers(&p, &wbs, &master, (FOLDED + LIVE) as u64, "recycled log");
}

/// The truncation sweep over a recycled log: a cut inside the live records
/// keeps the complete ones, a cut in the stale tail keeps them all, and a
/// cut inside the header leaves the checkpoint alone.
#[test]
fn truncating_a_recycled_log_at_every_byte_recovers_a_valid_prefix() {
    let p = params();
    let (header_len, rec_len) = probe_record_len(&p);
    let wbs = workload(&p, FOLDED + LIVE);
    let master = recycled_log(&p, &wbs);
    let wal_bytes = std::fs::read(master.join("tree0.wal")).unwrap();
    let dir = ScratchDir::new("crash-recycled-trunc");
    for len in 0..=wal_bytes.len() {
        copy_dir(&master, &dir);
        std::fs::write(dir.join("tree0.wal"), &wal_bytes[..len]).unwrap();
        let live = ((len as u64).saturating_sub(header_len) / rec_len).min(LIVE as u64);
        assert_recovers(
            &p,
            &wbs,
            &dir,
            FOLDED as u64 + live,
            &format!("truncation at {len}"),
        );
    }
}

/// The corruption sweep over a recycled log: a flip in live record r stops
/// replay just before it, a flip in the stale tail changes nothing, and a
/// flip in the header leaves the checkpoint alone.
#[test]
fn flipping_any_byte_of_a_recycled_log_recovers_the_checksummed_prefix() {
    let p = params();
    let (header_len, rec_len) = probe_record_len(&p);
    let wbs = workload(&p, FOLDED + LIVE);
    let master = recycled_log(&p, &wbs);
    let wal_bytes = std::fs::read(master.join("tree0.wal")).unwrap();
    let dir = ScratchDir::new("crash-recycled-flip");
    for pos in (0..wal_bytes.len()).step_by(3) {
        copy_dir(&master, &dir);
        let mut poisoned = wal_bytes.clone();
        poisoned[pos] ^= 0x41;
        std::fs::write(dir.join("tree0.wal"), &poisoned).unwrap();
        let intact = if (pos as u64) < header_len {
            0
        } else {
            (((pos as u64) - header_len) / rec_len).min(LIVE as u64)
        };
        assert_recovers(
            &p,
            &wbs,
            &dir,
            FOLDED as u64 + intact,
            &format!("flip at {pos}"),
        );
    }
}

/// A kill inside the checkpoint's header rewrite: the meta file already
/// covers every record, and the log holds the new header's first bytes over
/// the old header's last ones.  Whatever the cut, the old header (its
/// records replay idempotently), a torn one (no tail) or the new one (only
/// stale records behind it) recover the same tree from the meta file.
#[test]
fn a_kill_inside_the_checkpoint_header_rewrite_recovers_from_the_meta_file() {
    let p = params();
    let (header_len, _) = probe_record_len(&p);
    let header_len = header_len as usize;
    let wbs = workload(&p, FOLDED + LIVE);
    let master = ScratchDir::new("crash-header-rewrite");
    let mut store = create(&p, &master, Durability::Strict);
    store.set_checkpoint_interval(GENERATION as u64);
    for wb in &wbs {
        store.write_path(&wb.indices, &wb.image).unwrap();
    }
    let wal = master.join("tree0.wal");
    let old = std::fs::read(&wal).unwrap();
    store.checkpoint().unwrap();
    drop(store);
    let new = std::fs::read(&wal).unwrap();
    assert_eq!(
        old[header_len..],
        new[header_len..],
        "a restart rewrites only the header"
    );
    assert_ne!(old[..header_len], new[..header_len]);

    let dir = ScratchDir::new("crash-header-rewrite-cut");
    for cut in 0..=header_len {
        copy_dir(&master, &dir);
        let mut torn = new.clone();
        torn[cut..header_len].copy_from_slice(&old[cut..header_len]);
        std::fs::write(dir.join("tree0.wal"), &torn).unwrap();
        assert_recovers(
            &p,
            &wbs,
            &dir,
            (FOLDED + LIVE) as u64,
            &format!("header cut at {cut}"),
        );
    }
}

// ---------------------------------------------------------------------
// ORAM-level legs: the controller-state barrier over a crash-consistent
// store.
// ---------------------------------------------------------------------

mod oram_level {
    use freecursive::{Durability, FreecursiveError, Oram, OramBuilder, SchemePoint, StorageKind};
    use freecursive_repro::ScratchDir;

    fn builder(dir: &std::path::Path) -> OramBuilder {
        OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(256)
            .block_bytes(64)
            .onchip_entries(32)
            .storage(StorageKind::File {
                dir: dir.to_path_buf(),
            })
            .durability(Durability::Strict)
            .seed(7)
    }

    /// persist → drop → resume over a logged file store round-trips, and
    /// the resumed instance serves the persisted contents.
    #[test]
    fn persist_then_resume_round_trips_under_strict_durability() {
        let dir = ScratchDir::new("crash-oram-ok");
        let mut oram = builder(&dir).build_freecursive().unwrap();
        for addr in 0..16u64 {
            oram.write(addr, &[addr as u8 + 1; 64]).unwrap();
        }
        oram.persist(&dir).unwrap();
        drop(oram);
        let mut resumed = OramBuilder::resume(&dir).unwrap();
        for addr in 0..16u64 {
            assert_eq!(resumed.read(addr).unwrap(), vec![addr as u8 + 1; 64]);
        }
    }

    /// Accesses after the last persist move the tree past the controller
    /// barrier.  Resume must detect the mismatch and fail cleanly — under
    /// PR 5's unlogged store this same shape silently resumed against a
    /// drifted tree and failed later with integrity errors.
    #[test]
    fn resume_past_the_barrier_is_a_clean_error_not_silent_corruption() {
        let dir = ScratchDir::new("crash-oram-drift");
        let mut oram = builder(&dir).build_freecursive().unwrap();
        for addr in 0..8u64 {
            oram.write(addr, &[addr as u8 + 1; 64]).unwrap();
        }
        oram.persist(&dir).unwrap();
        // Post-barrier work: WAL-logged writebacks the controller state
        // knows nothing about.
        for addr in 8..16u64 {
            oram.write(addr, &[0xEE; 64]).unwrap();
        }
        drop(oram);
        match OramBuilder::resume(&dir) {
            Err(FreecursiveError::Backend(path_oram::OramError::Snapshot { detail })) => {
                assert!(
                    detail.contains("barrier") || detail.contains("writeback"),
                    "barrier error should explain itself: {detail}"
                );
            }
            Err(other) => panic!("expected a clean barrier error, got: {other}"),
            Ok(_) => panic!("resume must not silently accept a drifted tree"),
        }
    }

    /// The durability knob rides the snapshot: a resumed instance keeps
    /// logging without the caller restating the mode.
    #[test]
    fn resumed_instances_keep_their_wal() {
        let dir = ScratchDir::new("crash-oram-rewal");
        let mut oram = builder(&dir).build_freecursive().unwrap();
        oram.write(3, &[0x3A; 64]).unwrap();
        oram.persist(&dir).unwrap();
        drop(oram);
        let _resumed = OramBuilder::resume(&dir).unwrap();
        assert!(
            dir.join("tree0.wal").exists(),
            "resume under a logged config must reopen a log generation"
        );
    }
}
