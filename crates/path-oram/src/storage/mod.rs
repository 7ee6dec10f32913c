//! Untrusted external memory holding the encrypted ORAM tree.
//!
//! The protocol only ever assumes `ReadBucket`/`WriteBucket` on untrusted
//! storage (§2).  [`TreeStorage`] is the one store the backend holds:
//! bucket-slot get/put over the `bucket_bytes` stride, the batched
//! whole-path access the one-pass seal/decrypt pipeline uses, the
//! active-adversary API and snapshot persistence.  It is built on the
//! paper's treetop observation (§5.1): level ℓ holds `2^ℓ` buckets while
//! every access touches exactly one bucket per level, so the top `K` levels
//! live in a RAM arena and levels ≥ `K` spill to the store's file tier — a
//! sparse file addressed with positional I/O ([`std::os::unix::fs::FileExt`]),
//! laid out with the subtree layout of Ren et al. \[26\]
//! ([`dram_sim::SubtreeLayout`]) so a root-to-leaf path falls into at most
//! ⌈levels/k⌉ contiguous extents.  The store is one type: it owns the arena,
//! the one initialised bitmap, the WAL sequence number, the open/replay path
//! and the persist path.  Each [`StorageKind`] is this store at one value of
//! `K`:
//!
//! * `Mem` — `K` = levels and no file: the arena is the whole tree, and the
//!   backend reads and seals buckets in place through its arena accessors.
//! * `File` / `TempFile` — `K` = 0: every bucket lives in the file.
//!   Capacity is bounded by disk, not RAM, and the tree survives process
//!   exit.
//! * `Tiered` / `TempTiered` — `K` derived from a byte budget
//!   ([`treetop_levels_for_budget`]).  See the [`TreeStorage`] docs for the
//!   tier invariants and the WAL-exemption argument.
//!
//! Every kind exposes the same *active-adversary* API the threat model
//! needs (§2): flipping bits, replaying stale buckets, and rolling back
//! bucket seeds — for buckets in the file these tamper with the actual
//! bytes on disk.
//!
//! Where this module sits in the stack — and how a path access flows
//! through it — is mapped end to end in `docs/ARCHITECTURE.md` at the
//! workspace root.
//!
//! With a [`Durability`] discipline other than `None`, the file tier keeps
//! a write-ahead log (see [`crate::wal`]): the file suffix of every path
//! writeback is appended to `tree<label>.wal` before the tree file is
//! touched, the log is folded into the `tree<label>.meta` checkpoint every
//! `checkpoint_interval` writebacks, and [`TreeStorage::open_snapshot`]
//! replays the checksum-valid log tail past the last checkpoint — so a kill
//! at any instant recovers to a consistent prefix of the logged writebacks.
//!
//! # What the file tier does and does not leak
//!
//! File offsets are a deterministic function of bucket indices, exactly as
//! arena offsets were: an observer of file I/O sees the same
//! one-path-read-one-path-write trace per access that a DRAM adversary saw.
//! The file tier reads and writes a path as whole subtree windows, and the
//! window offsets and lengths are a function of the path's index list — of
//! the public leaf — alone, never of which buckets hold real blocks.
//! Obliviousness is unchanged.  What the file tier adds is *persistence
//! residue*: bucket ciphertexts outlive the process, so the snapshot
//! machinery (and the operator) must treat tree files as untrusted
//! ciphertext, which they already are in the threat model.

mod kind;
mod window;

pub use kind::{StorageKind, DEFAULT_MEMORY_BUDGET};

use crate::error::OramError;
use crate::params::OramParams;
use crate::wal::{self, Durability, Wal, MAX_RECORD_BUCKETS};
use dram_sim::SubtreeLayout;
use kind::{write_tree_meta, OpenTree};
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use window::{windows, Stage};

/// Levels per subtree (`k`) of the file layout.  Four levels pack 15 buckets
/// per subtree — with the paper's 320-byte buckets that is one ~4.7 KB
/// extent, about one OS page run per touched subtree.
pub const FILE_SUBTREE_LEVELS: u32 = 4;

/// Logged writebacks between automatic WAL folds (see
/// [`TreeStorage::write_path`]).  At the paper's ~320-byte buckets and
/// ~20-level paths this folds the log roughly every 6 MB, keeping replay
/// time and log residue bounded without making checkpoint fsyncs a
/// per-access cost.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 1024;

/// Monotonic discriminator for [`StorageKind::TempFile`] directories.
static TEMP_STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The subtree layout every tree file uses (base 0, `k` =
/// [`FILE_SUBTREE_LEVELS`] capped at the tree height).
fn file_layout(params: &OramParams) -> SubtreeLayout {
    SubtreeLayout::new(
        params.levels(),
        params.bucket_bytes() as u64,
        FILE_SUBTREE_LEVELS.min(params.levels()),
        0,
    )
}

/// Tree file path for `label` under `dir`.
fn tree_file_path(dir: &Path, label: u32) -> PathBuf {
    dir.join(format!("tree{label}.oram"))
}

/// Tree metadata file path for `label` under `dir`.
fn tree_meta_path(dir: &Path, label: u32) -> PathBuf {
    dir.join(format!("tree{label}.meta"))
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> OramError {
    OramError::Storage {
        detail: format!("{context} {}: {e}", path.display()),
    }
}

/// Bucket-granular variant of [`io_err`]: records the operation *and* the
/// bucket index, so a recovery-suite failure names the exact slot (e.g.
/// `write_path bucket 12 @ tree0.oram: ...`).  Only runs on the error path,
/// so the allocation never touches a successful access.
fn io_err_bucket(op: &str, index: u64, path: &Path, e: std::io::Error) -> OramError {
    OramError::Storage {
        detail: format!("{op} bucket {index} @ {}: {e}", path.display()),
    }
}

#[inline]
fn bit_get(bitmap: &[u64], index: u64) -> bool {
    bitmap[index as usize / 64] >> (index % 64) & 1 == 1
}

#[inline]
fn bit_set(bitmap: &mut [u64], index: u64) {
    bitmap[index as usize / 64] |= 1u64 << (index % 64);
}

#[inline]
fn bit_clear(bitmap: &mut [u64], index: u64) {
    bitmap[index as usize / 64] &= !(1u64 << (index % 64));
}

fn popcount_bytes(bitmap: &[u64], bucket_bytes: usize) -> u64 {
    let buckets: u64 = bitmap.iter().map(|w| u64::from(w.count_ones())).sum();
    buckets * bucket_bytes as u64
}

/// Number of tree levels a treetop byte budget pins in RAM: the largest
/// `K ≤ levels` with `(2^K - 1) * bucket_bytes ≤ memory_budget` (the top
/// `K` levels occupy linear bucket indices `0 .. 2^K - 1`).  `K = 0` is a
/// pure file tier, `K = levels` a RAM-resident tree that only touches disk
/// at checkpoints.
pub fn treetop_levels_for_budget(params: &OramParams, memory_budget: u64) -> u32 {
    let bucket_bytes = params.bucket_bytes() as u64;
    let mut k = 0u32;
    while k < params.levels() {
        let buckets = (1u64 << (k + 1)) - 1;
        if buckets.saturating_mul(bucket_bytes) > memory_budget {
            break;
        }
        k += 1;
    }
    k
}

/// The file tier of a [`TreeStorage`]: the open tree file and what writing
/// it takes.  A plain bundle of fields; the store does all the work.
#[derive(Debug)]
struct FileTier {
    file: File,
    /// The tree file's path, `tree<label>.oram` under `dir`.
    path: PathBuf,
    /// The directory holding the tree, metadata and log files.
    dir: PathBuf,
    label: u32,
    /// Window staging for path reads and writebacks; allocated once so the
    /// steady-state access path stays allocation-free.
    stage: Stage,
    /// Set for the temporary kinds: the files and the directory are
    /// removed on drop.
    remove_on_drop: bool,
    /// The write-ahead log; `None` under [`Durability::None`], in which
    /// case the whole logging/checkpointing machinery is inert.
    wal: Option<Wal>,
    /// Logged writebacks since the last log fold.
    records_since_checkpoint: u64,
    /// Auto-checkpoint cadence in writebacks.
    checkpoint_interval: u64,
    /// Fault injection (kill-point suite): remaining bucket writes the
    /// tree file will accept before a simulated kill.
    fail_tree_writes_after: Option<u64>,
}

impl Drop for FileTier {
    fn drop(&mut self) {
        if self.remove_on_drop {
            // Best-effort cleanup of a throwaway temp store.
            let _ = std::fs::remove_file(&self.path);
            let _ = std::fs::remove_file(tree_meta_path(&self.dir, self.label));
            let _ = std::fs::remove_file(wal::wal_file_path(&self.dir, self.label));
            let _ = std::fs::remove_dir(&self.dir);
        }
    }
}

/// Charges `buckets` bucket writes against the tier's fault-injection
/// budget, failing (and exhausting it) when they do not all fit.
fn charge_tree_writes(
    tier: &mut FileTier,
    buckets: u64,
    first_index: u64,
) -> Result<(), OramError> {
    let Some(budget) = tier.fail_tree_writes_after else {
        return Ok(());
    };
    if budget < buckets {
        tier.fail_tree_writes_after = Some(0);
        return Err(OramError::Storage {
            detail: format!(
                "injected crash before tree write of bucket {first_index} @ {}",
                tier.path.display()
            ),
        });
    }
    tier.fail_tree_writes_after = Some(budget - buckets);
    Ok(())
}

/// The one tree store: a RAM arena over the top `K` levels and, for the
/// file-backed kinds, a sparse tree file spanning the *whole* tree below it.
///
/// The paper's treetop observation (§5.1) is that the top of the tree is
/// touched on **every** access — level `ℓ` has only `2^ℓ` buckets, so a
/// small, fixed byte budget pins the levels with all the reuse while the
/// exponentially larger bottom levels (with almost none) stay on disk.
/// Because a path's linear bucket indices are `2^ℓ - 1 ≤ index < 2^{ℓ+1}-1`
/// at level `ℓ`, "level < K" is exactly "linear index < 2^K - 1": routing
/// is one comparison, and an ascending index list such as a root-to-leaf
/// path splits into an arena prefix plus a file suffix.  This arena is the
/// only RAM copy of the upper tree.
/// Each [`StorageKind`] is this store at one value of `K`: `Mem` is
/// `K` = levels with no file, `File` is `K` = 0, and `Tiered` takes `K`
/// from [`treetop_levels_for_budget`].
///
/// Without a file the arena is the whole tree.  It is allocated zeroed in
/// one shot; the allocator services large zeroed requests with untouched
/// copy-on-write pages, so a mostly-empty tree costs physical memory only
/// for the buckets actually written.  The backend reads and seals such a
/// tree in place through [`TreeStorage::arena_bucket`],
/// [`TreeStorage::arena_slot_mut`] and [`TreeStorage::arena_mut`].
///
/// A bucket that has never been written reads as all zero bytes; the
/// initialised bitmap tells the backend which buckets to skip.  Buckets are
/// indexed by the *linear* (heap-order) index of
/// [`crate::tree::bucket_linear_index`].
///
/// # The file tier
///
/// Bucket images sit in one sparse file at their
/// [`dram_sim::SubtreeLayout`] offsets, accessed with positional I/O; a
/// path is read and written as whole subtree windows.  The initialised
/// bitmap lives in memory and is written to the sidecar `tree<label>.meta`
/// by [`TreeStorage::persist_to`] and by checkpoints.  Crash consistency
/// depends on the [`Durability`] the store was built with: under
/// [`Durability::None`] the tree is consistent only at successful persist
/// boundaries; under `Batch`/`Strict` every file-tier writeback is logged
/// to `tree<label>.wal` before it is applied, the log is folded into the
/// metadata every `checkpoint_interval` writebacks, and
/// [`TreeStorage::open_snapshot`] replays the checksum-valid log tail, so a
/// kill at any instant recovers to a consistent prefix of the logged
/// writebacks.
///
/// # Tier invariants
///
/// * The file tier is laid out for the **full** tree (same sparse file,
///   same subtree layout, same sidecar metadata at every `K`), so
///   snapshots of every kind are interchangeable.  Treetop regions of the
///   file are only guaranteed current at checkpoint/persist boundaries.
/// * Between checkpoints the arena is authoritative for treetop buckets;
///   the dirty bitmap records which arena images the file does not have
///   yet.  [`TreeStorage::checkpoint`] and [`TreeStorage::persist_to`]
///   flush them first.
/// * One initialised bitmap covers both tiers, so metadata checkpoints
///   cover both.
///
/// # Why WAL exemption of the treetop is crash-safe
///
/// Only the file suffix of a writeback is logged under a logged
/// [`Durability`]; treetop writes land only in RAM and are **not** logged
/// — logging them would reintroduce the per-access I/O the arena exists to
/// remove.  Crash safety is preserved because recovery can never
/// *silently* serve a stale treetop: the controller snapshot records the
/// WAL sequence barrier at persist time, persist/checkpoint flush the
/// treetop before advertising that barrier, and
/// `PathOramBackend::load_controller_state` refuses any store whose
/// recovered sequence number differs from the barrier.  A kill between
/// persists therefore recovers to the last completed persist/checkpoint
/// (where the tiers were mutually consistent) or is rejected with a
/// descriptive error — never to a tree whose deep levels have advanced past
/// its treetop.
#[derive(Debug)]
pub struct TreeStorage {
    /// The treetop arena: bucket `i < treetop_buckets` lives at
    /// `[i * bucket_bytes, (i + 1) * bucket_bytes)`.
    top: Vec<u8>,
    /// `2^K - 1`: buckets with linear index below this live in the arena.
    treetop_buckets: u64,
    /// `K`, the number of RAM-resident levels.
    treetop_levels: u32,
    bucket_bytes: usize,
    num_buckets: usize,
    /// The layout of the tree file the file tier keeps and a persist writes.
    layout: SubtreeLayout,
    /// One bit per bucket of either tier: has it ever been written?
    initialized: Vec<u64>,
    /// Sequence number of the last *logged* writeback the contents cover:
    /// the last WAL append while the file tier logs, otherwise the number
    /// the tree was created (0) or recovered at.  Carrying it without a log
    /// lets a logged snapshot resume in memory with the controller barrier
    /// check still lined up.
    wal_seq: u64,
    /// One bit per treetop bucket: the arena image is newer than the tree
    /// file.  Empty without a file tier.
    top_dirty: Vec<u64>,
    /// The file tier; `None` when the arena is the whole tree.
    file: Option<FileTier>,
}

impl TreeStorage {
    /// Allocates an in-memory store for every bucket of the tree described
    /// by `params` (the `Mem` kind).  All buckets start uninitialised (and
    /// all-zero).
    pub fn new(params: &OramParams) -> Self {
        Self::with_treetop(params, params.levels())
    }

    /// A zeroed arena over the top `treetop_levels` levels and no file tier
    /// yet ([`TreeStorage::attach_file`] adds one).
    fn with_treetop(params: &OramParams, treetop_levels: u32) -> Self {
        let num_buckets = params.num_buckets() as usize;
        let treetop_buckets = (1usize << treetop_levels) - 1;
        Self {
            top: vec![0u8; treetop_buckets * params.bucket_bytes()],
            treetop_buckets: treetop_buckets as u64,
            treetop_levels,
            bucket_bytes: params.bucket_bytes(),
            num_buckets,
            layout: file_layout(params),
            initialized: vec![0u64; num_buckets.div_ceil(64)],
            wal_seq: 0,
            top_dirty: Vec::new(),
            file: None,
        }
    }

    /// Puts the tree file `file` at `path`, `tree<label>.oram` under `dir`,
    /// below the arena, with no log yet.
    fn attach_file(&mut self, file: File, path: PathBuf, dir: &Path, label: u32, temp: bool) {
        self.top_dirty = vec![0u64; (self.treetop_buckets as usize).div_ceil(64)];
        self.file = Some(FileTier {
            file,
            path,
            dir: dir.to_path_buf(),
            label,
            stage: Stage::new(&self.layout, self.bucket_bytes),
            remove_on_drop: temp,
            wal: None,
            records_since_checkpoint: 0,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            fail_tree_writes_after: None,
        });
    }

    /// Opens a fresh log generation after `wal_seq` when there is a file
    /// tier and `durability` logs.
    fn start_log(&mut self, durability: Durability) -> Result<(), OramError> {
        if let Some(tier) = self.file.as_mut().filter(|_| durability.is_logged()) {
            tier.wal = Some(Wal::create(
                &tier.dir,
                tier.label,
                self.bucket_bytes,
                self.wal_seq,
                durability,
            )?);
        }
        Ok(())
    }

    /// Creates a fresh store of the given kind.  `label` distinguishes
    /// several trees sharing one directory (the per-level ORAMs of a
    /// frontend without a PLB).  A file-backed kind truncates any
    /// `tree<label>` files already in its directory (the temporary kinds
    /// use a unique directory, removed on drop).  `durability` selects the
    /// WAL discipline of the file tier; under a logged one the store also
    /// writes an initial (empty) checkpoint and opens a fresh log, so a
    /// kill before the first persist already recovers.  Without a file tier
    /// there is nothing to log and it is ignored.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure creating the file tier.
    pub fn create(
        params: &OramParams,
        kind: &StorageKind,
        label: u32,
        durability: Durability,
    ) -> Result<Self, OramError> {
        let mut store = Self::with_treetop(params, kind.treetop_levels(params));
        let (dir, temp) = match kind {
            StorageKind::Mem => return Ok(store),
            StorageKind::File { dir } | StorageKind::Tiered { dir, .. } => (dir.clone(), false),
            StorageKind::TempFile | StorageKind::TempTiered { .. } => {
                let unique = format!(
                    "oram-tree-{}-{}",
                    std::process::id(),
                    TEMP_STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
                );
                (std::env::temp_dir().join(unique), true)
            }
        };
        std::fs::create_dir_all(&dir).map_err(|e| io_err("creating", &dir, e))?;
        let path = tree_file_path(&dir, label);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("creating", &path, e))?;
        // A sparse file: the full tree geometry is reserved in the address
        // space, but unwritten regions occupy no disk blocks (the file
        // analogue of the arena's copy-on-write zero pages).
        file.set_len(store.layout.total_bytes())
            .map_err(|e| io_err("sizing", &path, e))?;
        // A fresh tree owes nothing to any previous occupant of the
        // directory: a leftover log would replay a stranger's buckets.
        let _ = std::fs::remove_file(wal::wal_file_path(&dir, label));
        store.attach_file(file, path, &dir, label, temp);
        if durability.is_logged() {
            store.checkpoint()?;
        }
        store.start_log(durability)?;
        Ok(store)
    }

    /// Opens a store of the given kind over the tree persisted under `dir`;
    /// the kind supplies only `K`.  The metadata and tree file are
    /// validated (the file must span the whole layout), the arena is filled
    /// from the file, and a checksum-valid WAL tail left behind by a crash
    /// is replayed into whichever tier holds each bucket.  Without a file
    /// tier the directory is only read.  With one, `dir` becomes the live
    /// directory: whatever the log contributed is folded into a fresh
    /// checkpoint, the log is dropped if `durability` does not log, and a
    /// new log generation is opened if it does.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure, [`OramError::Snapshot`] /
    /// [`OramError::IntegrityViolation`] for missing, short or corrupt tree
    /// files.
    pub fn open_snapshot(
        params: &OramParams,
        kind: &StorageKind,
        dir: &Path,
        label: u32,
        durability: Durability,
    ) -> Result<Self, OramError> {
        if matches!(kind, StorageKind::TempFile | StorageKind::TempTiered { .. }) {
            return Err(OramError::Snapshot {
                detail: "cannot resume a snapshot into a temporary store; \
                         use StorageKind::File, StorageKind::Tiered or \
                         StorageKind::Mem"
                    .into(),
            });
        }
        let mut store = Self::with_treetop(params, kind.treetop_levels(params));
        let (tree, initialized, wal_seq) =
            OpenTree::open(params, &store.layout, dir, label, kind.is_file_backed())?;
        store.initialized = initialized;
        store.wal_seq = wal_seq;
        for index in (0..store.treetop_buckets).filter(|&i| bit_get(&store.initialized, i)) {
            let offset = store.layout.linear_bucket_address(index);
            let range = store.top_range(index);
            tree.file
                .read_exact_at(&mut store.top[range], offset)
                .map_err(|e| io_err_bucket("load bucket", index, &tree.path, e))?;
        }
        if kind.is_file_backed() {
            store.attach_file(tree.file, tree.path, dir, label, false);
        }
        if store.replay_wal(dir, label)? && store.file.is_some() {
            // Fold whatever the log contributed into a fresh checkpoint so
            // the recovered state stands on its own...
            store.checkpoint()?;
            if !durability.is_logged() {
                // ...and drop the log when the new discipline won't keep one.
                let _ = std::fs::remove_file(wal::wal_file_path(dir, label));
            }
        }
        store.start_log(durability)?;
        Ok(store)
    }

    /// Replays the checksum-valid tail of the log under `dir`, if there is
    /// one, through [`TreeStorage::write_bucket`] — into the arena or the
    /// file, whichever holds each bucket — and advances `wal_seq` to the
    /// last record.  Replay stops cleanly at the first torn or invalid
    /// record — the expected shape of a crash — and is idempotent (records
    /// are full bucket post-images), so it does not matter how much of the
    /// log the tree had absorbed before the kill.  Returns whether there was
    /// a log.
    fn replay_wal(&mut self, dir: &Path, label: u32) -> Result<bool, OramError> {
        let (num_buckets, bucket_bytes) = (self.num_buckets as u64, self.bucket_bytes);
        let wal_path = wal::wal_file_path(dir, label);
        let summary = wal::replay(&wal_path, bucket_bytes, |seq, indices, images| {
            for (&index, image) in indices.iter().zip(images.chunks_exact(bucket_bytes)) {
                if index >= num_buckets {
                    return Err(OramError::Storage {
                        detail: format!(
                            "WAL record {seq} names bucket {index} outside the \
                             {num_buckets}-bucket tree @ {}",
                            wal_path.display()
                        ),
                    });
                }
                self.write_bucket(index, image)?;
            }
            Ok(())
        })?;
        if let Some(s) = summary.as_ref().filter(|s| s.header_valid) {
            self.wal_seq = self.wal_seq.max(s.last_seq);
        }
        Ok(summary.is_some())
    }

    /// Whether part of the tree lives in a file (every kind but `Mem`).
    /// Without a file the arena is the whole tree.
    #[inline]
    pub fn is_file_backed(&self) -> bool {
        self.file.is_some()
    }

    /// `K`, the number of RAM-resident levels: every level for `Mem`, none
    /// for `File`, the budget's for `Tiered`.
    pub fn treetop_levels(&self) -> u32 {
        self.treetop_levels
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Serialised bucket size in bytes.
    pub fn bucket_bytes(&self) -> usize {
        self.bucket_bytes
    }

    /// Sequence number of the last *logged* writeback this store's contents
    /// cover (0 for trees that never logged; treetop writes are WAL-exempt).
    /// The controller barrier recorded in snapshots compares against this
    /// on resume.
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    /// Whether a bucket has ever been written.
    #[inline]
    pub fn is_initialized(&self, index: u64) -> bool {
        bit_get(&self.initialized, index)
    }

    /// Overrides the auto-checkpoint cadence of the file tier (clamped to
    /// ≥ 1).  Test harness hook; the default is
    /// [`DEFAULT_CHECKPOINT_INTERVAL`].
    #[doc(hidden)]
    pub fn set_checkpoint_interval(&mut self, records: u64) {
        if let Some(tier) = self.file.as_mut() {
            tier.checkpoint_interval = records.max(1);
        }
    }

    /// Fault-injection hook (kill-point suite): permit at most `bytes`
    /// further WAL bytes, then fail appends leaving a torn record.  No-op
    /// without a WAL.
    #[doc(hidden)]
    pub fn set_fail_after_wal_bytes(&mut self, bytes: u64) {
        if let Some(wal) = self.file.as_mut().and_then(|tier| tier.wal.as_mut()) {
            wal.set_crash_after_bytes(bytes);
        }
    }

    /// Fault-injection hook (kill-point suite): permit at most `writes`
    /// further bucket writes to the tree file, then fail.  Budgets are
    /// charged per bucket; a path window that would cross the budget fails
    /// before any of its bytes reach the file.  No-op without a file tier.
    #[doc(hidden)]
    pub fn set_fail_after_tree_writes(&mut self, writes: u64) {
        if let Some(tier) = self.file.as_mut() {
            tier.fail_tree_writes_after = Some(writes);
        }
    }

    // lint: ct-scope, no-alloc
    #[inline]
    fn top_range(&self, index: u64) -> Range<usize> {
        let start = index as usize * self.bucket_bytes;
        start..start + self.bucket_bytes
    }

    /// Marks treetop bucket `index` rewritten in the arena: initialised
    /// and, over a file tier, newer than the file.
    #[inline]
    fn mark_top(&mut self, index: u64) {
        bit_set(&mut self.initialized, index);
        if self.file.is_some() {
            bit_set(&mut self.top_dirty, index);
        }
    }

    /// The raw (encrypted) image of treetop bucket `index`: a
    /// `bucket_bytes`-long view into the arena.  A bucket that has never
    /// been written reads as all zero bytes; check
    /// [`TreeStorage::is_initialized`] to distinguish.  Panics below the
    /// treetop.
    #[inline]
    pub fn arena_bucket(&self, index: u64) -> &[u8] {
        &self.top[self.top_range(index)]
    }

    /// Mutable view of treetop bucket `index`'s arena slot, marking the
    /// bucket written.  This is the zero-copy write path: the backend
    /// serialises and seals the eviction output directly into the slot.
    #[inline]
    pub fn arena_slot_mut(&mut self, index: u64) -> &mut [u8] {
        self.mark_top(index);
        let range = self.top_range(index);
        &mut self.top[range]
    }

    /// Byte offset of treetop bucket `index`'s image within the arena (see
    /// [`TreeStorage::arena_mut`]).
    #[inline]
    pub fn arena_offset(&self, index: u64) -> usize {
        index as usize * self.bucket_bytes
    }

    /// The whole arena, mutable.  This is the batched-cipher hook: the
    /// backend serialises a path's buckets into their slots via
    /// [`TreeStorage::arena_slot_mut`] (which marks them written), then
    /// seals all of them in one keystream pass over this slice using
    /// [`TreeStorage::arena_offset`]-based spans.  Does **not** mark
    /// anything written.
    #[inline]
    pub fn arena_mut(&mut self) -> &mut [u8] {
        &mut self.top
    }

    /// How many leading buckets of `indices` live in the arena.  The rest
    /// must all live in the file, as they do in any ascending list.
    fn treetop_prefix(&self, indices: &[u64]) -> usize {
        let split = indices
            .iter()
            .position(|&index| index >= self.treetop_buckets)
            .unwrap_or(indices.len());
        debug_assert!(indices[split..].iter().all(|&i| i >= self.treetop_buckets));
        split
    }

    /// Batched span read: copies every *initialised* bucket of `indices`
    /// (ascending, as a root-to-leaf path is) into
    /// `buf` at stride `level * bucket_bytes`; slots of uninitialised
    /// buckets are left untouched.  This is the read half of the one-pass
    /// path pipeline: the caller decrypts the whole buffer in one batched
    /// cipher pass afterwards.  The arena prefix is served with memcpys,
    /// the file suffix with one positional read per subtree window (see
    /// `read_windows`).  Takes `&mut self` to stage those windows for the
    /// writeback.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn read_path_into(&mut self, indices: &[u64], buf: &mut [u8]) -> Result<(), OramError> {
        let bb = self.bucket_bytes;
        let split = self.treetop_prefix(indices);
        for (level, &index) in indices[..split].iter().enumerate() {
            if self.is_initialized(index) {
                buf[level * bb..(level + 1) * bb].copy_from_slice(self.arena_bucket(index));
            }
        }
        if split == indices.len() {
            return Ok(());
        }
        self.read_windows(&indices[split..], &mut buf[split * bb..])
    }

    /// Batched span write: writes every bucket of `indices` (ascending)
    /// from `buf` at stride `level * bucket_bytes`, marking all of them
    /// initialised — the write half of the pipeline, called once per
    /// eviction after the batched sealing pass.  The arena prefix is
    /// copied in.  The file suffix alone is appended to the WAL as one
    /// record (the treetop's WAL exemption, see the type docs), then
    /// written with one positional write per subtree window (see
    /// `write_windows`); every `checkpoint_interval` logged writebacks the
    /// log is folded into the metadata.  That automatic fold covers only
    /// the file tier: the treetop reaches the file at
    /// [`TreeStorage::checkpoint`] and [`TreeStorage::persist_to`].
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn write_path(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError> {
        let bb = self.bucket_bytes;
        let split = self.treetop_prefix(indices);
        for (level, &index) in indices[..split].iter().enumerate() {
            self.arena_slot_mut(index)
                .copy_from_slice(&buf[level * bb..(level + 1) * bb]);
        }
        if split == indices.len() {
            return Ok(());
        }
        let (indices, buf) = (&indices[split..], &buf[split * bb..]);
        // WAL-before-tree: the sealed image is appended (and, per the fsync
        // discipline, made durable) before the first in-place tree write
        // starts.  A kill anywhere in here leaves either a torn log record
        // (the writeback never happened) or a complete one (replay finishes
        // the tree writes on open).
        let tier = self
            .file
            .as_mut()
            .expect("bucket index past the end of the tree");
        if let Some(wal) = tier.wal.as_mut() {
            // lint: allow(no-alloc, `Wal::append` frames the record in its preallocated buffer; not `Vec::append`)
            self.wal_seq = wal.append(indices, buf)?;
        }
        self.write_windows(indices, buf)?;
        if let Some(tier) = self.file.as_mut().filter(|tier| tier.wal.is_some()) {
            tier.records_since_checkpoint += 1;
            if tier.records_since_checkpoint >= tier.checkpoint_interval {
                self.fold_log()?;
            }
        }
        Ok(())
    }

    /// Reads the file-tier buckets `indices` into `buf` like
    /// [`TreeStorage::read_path_into`]: sorted by file offset, each window
    /// (see [`windows`]) with a single positional read — at most
    /// ⌈levels/k⌉ reads for a root-to-leaf path.  Windows cover every
    /// bucket of the list, initialised or not, so which bytes are read
    /// depends on the index list (the leaf) alone.  A window may cover
    /// buckets of *other* paths; their bytes are never copied out, but each
    /// window stays staged so the writeback can rewrite it whole.
    fn read_windows(&mut self, indices: &[u64], buf: &mut [u8]) -> Result<(), OramError> {
        let bb = self.bucket_bytes;
        let mut runs = [(0u64, 0usize); MAX_RECORD_BUCKETS];
        let n = self.runs_by_offset(indices, &mut runs);
        let tier = self
            .file
            .as_mut()
            .expect("bucket index past the end of the tree");
        let stage = &mut tier.stage;
        stage.drop_all();
        let slots = stage.spans.len();
        let mut staged = 0;
        for group in windows(&runs[..n], bb as u64, stage.window as u64) {
            let start = runs[group.start].0;
            let len = (runs[group.end - 1].0 - start) as usize + bb;
            // A list with more windows than a path has reads the surplus
            // through the spare slot, unstaged.
            let slot = staged.min(slots);
            let chunk = &mut stage.slot_mut(slot)[..len];
            tier.file
                .read_exact_at(chunk, start)
                .map_err(|e| io_err("reading path extent from", &tier.path, e))?;
            for &(offset, level) in &runs[group] {
                if bit_get(&self.initialized, indices[level]) {
                    let rel = (offset - start) as usize;
                    buf[level * bb..(level + 1) * bb].copy_from_slice(&chunk[rel..rel + bb]);
                }
            }
            if slot < slots {
                stage.spans[slot] = (start, len);
                staged += 1;
            }
        }
        stage.valid.set(staged);
        Ok(())
    }

    /// Sorts the buckets of `indices` by file offset into `runs` as
    /// `(offset, position in indices)` pairs; returns how many there are.
    fn runs_by_offset(&self, indices: &[u64], runs: &mut [(u64, usize)]) -> usize {
        assert!(
            indices.len() <= runs.len(),
            "index list longer than the WAL record bound"
        );
        for (run, (level, &index)) in runs.iter_mut().zip(indices.iter().enumerate()) {
            *run = (self.layout.linear_bucket_address(index), level);
        }
        runs[..indices.len()].sort_unstable();
        indices.len()
    }

    /// Writes the file-tier buckets `indices` from `buf` (one image per
    /// index, at stride `bucket_bytes`) with one positional write per window
    /// (see [`windows`]).  The bytes between the buckets are the file's own
    /// current bytes — taken from the window the preceding path read
    /// staged, or read back first when no staged window contains this one —
    /// so the file ends up byte-identical to writing each bucket alone, and
    /// a torn window write rewrites the neighbours with what they already
    /// held.
    fn write_windows(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError> {
        let bb = self.bucket_bytes;
        let mut runs = [(0u64, 0usize); MAX_RECORD_BUCKETS];
        let n = self.runs_by_offset(indices, &mut runs);
        let tier = self
            .file
            .as_mut()
            .expect("bucket index past the end of the tree");
        // Nothing counts as staged while the file is being written, so an
        // error part-way leaves the staging dropped.
        let staged = tier.stage.valid.take();
        let mut coherent = true;
        for group in windows(&runs[..n], bb as u64, tier.stage.window as u64) {
            let start = runs[group.start].0;
            let len = (runs[group.end - 1].0 - start) as usize + bb;
            let first_index = indices[runs[group.start].1];
            charge_tree_writes(tier, group.len() as u64, first_index)?;
            let (slot, at) = match tier.stage.containing(staged, start, len) {
                Some(slot) => (slot, (start - tier.stage.spans[slot].0) as usize),
                None => {
                    // Not staged (a write with no path read before it):
                    // read the window's bytes first.
                    // It may overlap staged windows, which it makes stale.
                    coherent = false;
                    let spare = tier.stage.spans.len();
                    tier.file
                        .read_exact_at(&mut tier.stage.slot_mut(spare)[..len], start)
                        .map_err(|e| {
                            io_err_bucket("write_path window read", first_index, &tier.path, e)
                        })?;
                    (spare, 0)
                }
            };
            let image = &mut tier.stage.slot_mut(slot)[at..at + len];
            for &(offset, level) in &runs[group.start..group.end] {
                let rel = (offset - start) as usize;
                image[rel..rel + bb].copy_from_slice(&buf[level * bb..(level + 1) * bb]);
            }
            tier.file
                .write_all_at(image, start)
                .map_err(|e| io_err_bucket("write_path window", first_index, &tier.path, e))?;
            for &(_, level) in &runs[group] {
                bit_set(&mut self.initialized, indices[level]);
            }
        }
        if coherent {
            tier.stage.valid.set(staged);
        }
        Ok(())
    }
    // lint: end

    /// Copies the raw (encrypted) image of a bucket into `out`, which must
    /// be exactly `bucket_bytes` long.  Uninitialised buckets read as zero
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn read_bucket_into(&self, index: u64, out: &mut [u8]) -> Result<(), OramError> {
        match self.file.as_ref().filter(|_| index >= self.treetop_buckets) {
            Some(tier) => tier
                .file
                .read_exact_at(out, self.layout.linear_bucket_address(index))
                .map_err(|e| io_err_bucket("read_bucket", index, &tier.path, e)),
            None => {
                out.copy_from_slice(self.arena_bucket(index));
                Ok(())
            }
        }
    }

    /// Writes the raw image of a bucket, marking it initialised.  `image`
    /// must be exactly `bucket_bytes` long.  Not logged: only
    /// [`TreeStorage::write_path`] writebacks reach the WAL.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn write_bucket(&mut self, index: u64, image: &[u8]) -> Result<(), OramError> {
        assert_eq!(
            image.len(),
            self.bucket_bytes,
            "bucket image must be exactly bucket_bytes long"
        );
        let offset = self.layout.linear_bucket_address(index);
        match self.file.as_mut().filter(|_| index >= self.treetop_buckets) {
            Some(tier) => {
                charge_tree_writes(tier, 1, index)?;
                tier.stage.drop_all();
                tier.file
                    .write_all_at(image, offset)
                    .map_err(|e| io_err_bucket("write_bucket", index, &tier.path, e))?;
                bit_set(&mut self.initialized, index);
            }
            None => self.arena_slot_mut(index).copy_from_slice(image),
        }
        Ok(())
    }

    /// Total bytes currently resident (diagnostics): initialised buckets
    /// times the bucket size.
    pub fn resident_bytes(&self) -> u64 {
        popcount_bytes(&self.initialized, self.bucket_bytes)
    }

    // ------------------------------------------------------------------
    // Active-adversary API (§2): these model a malicious data centre.
    // ------------------------------------------------------------------

    /// Rewrites an initialised bucket's raw image with `edit`; `false` if
    /// the bucket is uninitialised or the I/O fails.
    fn edit_bucket(&mut self, index: u64, edit: impl FnOnce(&mut [u8])) -> bool {
        if !self.is_initialized(index) {
            return false;
        }
        let mut image = vec![0u8; self.bucket_bytes];
        if self.read_bucket_into(index, &mut image).is_err() {
            return false;
        }
        edit(&mut image);
        self.write_bucket(index, &image).is_ok()
    }

    /// Flips the bits of `mask` at `offset` within bucket `index`; returns
    /// `false` (and does nothing) if the bucket is uninitialised or the
    /// offset is out of range.  In the file this flips the byte on disk.
    pub fn tamper_xor(&mut self, index: u64, offset: usize, mask: u8) -> bool {
        index < self.num_buckets as u64
            && offset < self.bucket_bytes
            && self.edit_bucket(index, |image| image[offset] ^= mask)
    }

    /// Takes a snapshot of a bucket's current ciphertext (for replay
    /// attacks).  An uninitialised bucket snapshots as an empty vector.
    pub fn snapshot_bucket(&self, index: u64) -> Vec<u8> {
        if !self.is_initialized(index) {
            return Vec::new();
        }
        let mut image = vec![0u8; self.bucket_bytes];
        self.read_bucket_into(index, &mut image)
            .expect("snapshotting an initialised bucket");
        image
    }

    /// Replays a previously snapshotted ciphertext into a bucket.  An empty
    /// snapshot restores the bucket to its uninitialised (all-zero) state.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length is neither zero nor a full bucket
    /// image (test-harness contract).
    pub fn replay_bucket(&mut self, index: u64, snapshot: &[u8]) {
        assert!(
            snapshot.is_empty() || snapshot.len() == self.bucket_bytes,
            "snapshot must be a full bucket image"
        );
        if snapshot.is_empty() {
            self.write_bucket(index, &vec![0u8; self.bucket_bytes])
                .expect("zeroing a bucket on replay");
            bit_clear(&mut self.initialized, index);
        } else {
            self.write_bucket(index, snapshot)
                .expect("replaying a bucket image");
        }
    }

    /// Rolls back the plaintext seed field in a bucket header by `delta`
    /// (the seed is stored in the clear, §6.4).  Returns `false` if the
    /// bucket is uninitialised.
    pub fn rollback_seed(&mut self, index: u64, delta: u64) -> bool {
        self.edit_bucket(index, |image| {
            let seed = u64::from_le_bytes(image[..8].try_into().expect("8-byte header"));
            image[..8].copy_from_slice(&seed.wrapping_sub(delta).to_le_bytes());
        })
    }

    // ------------------------------------------------------------------
    // Persistence.
    // ------------------------------------------------------------------

    /// Writes every dirty treetop image into the tree file.  Positional
    /// writes only, so it works from `&self`; the dirty bits stay set,
    /// which is harmless — re-flushing an image already in the file is
    /// idempotent.
    fn flush_treetop(&self) -> Result<(), OramError> {
        let Some(tier) = &self.file else {
            return Ok(());
        };
        // These writes bypass the window staging.
        tier.stage.drop_all();
        for index in (0..self.treetop_buckets).filter(|&i| bit_get(&self.top_dirty, i)) {
            tier.file
                .write_all_at(
                    self.arena_bucket(index),
                    self.layout.linear_bucket_address(index),
                )
                .map_err(|e| io_err_bucket("flush treetop bucket", index, &tier.path, e))?;
        }
        Ok(())
    }

    /// Persists the tree into `dir` as `tree<label>.oram` (bucket images at
    /// their subtree-layout offsets; one format for every kind, so any
    /// snapshot resumes as any kind) plus `tree<label>.meta` (geometry,
    /// initialised bitmap and `wal_seq`, digest-sealed).  Over a file tier
    /// the treetop is flushed into the live tree file first, and persisting
    /// into the live directory then just syncs.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn persist_to(&self, dir: &Path, label: u32) -> Result<(), OramError> {
        self.flush_treetop()?;
        let target = tree_file_path(dir, label);
        let live = self.file.as_ref().filter(|tier| {
            matches!(
                (std::fs::canonicalize(&target), std::fs::canonicalize(&tier.path)),
                (Ok(a), Ok(b)) if a == b
            )
        });
        match live {
            Some(tier) => {
                // The tree file's length is fixed at create, so a data sync
                // covers everything a reopen reads back.
                tier.file
                    .sync_data()
                    .map_err(|e| io_err("syncing", &tier.path, e))?;
                // The live log, without the stale tail earlier generations
                // left behind: a persisted directory holds exactly what it
                // needs.  Its live records stay: replay is idempotent, and
                // the meta written below covers everything applied so far.
                if let Some(wal) = &tier.wal {
                    wal.trim()?;
                }
            }
            None => self.copy_tree(dir, &target, label)?,
        }
        write_tree_meta(
            &tree_meta_path(dir, label),
            self.num_buckets,
            self.bucket_bytes,
            self.layout.subtree_levels(),
            &self.initialized,
            self.wal_seq,
        )
    }

    /// Writes a standalone copy of the tree to `target`, a fresh sparse
    /// `tree<label>.oram` under `dir`: each initialised bucket at its layout
    /// offset, then synced.  The copy is complete as of `wal_seq`, so a
    /// stale log beside it — which would replay foreign buckets over it on
    /// resume — is removed.  The caller writes the metadata file.
    fn copy_tree(&self, dir: &Path, target: &Path, label: u32) -> Result<(), OramError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
        let out = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(target)
            .map_err(|e| io_err("creating", target, e))?;
        out.set_len(self.layout.total_bytes())
            .map_err(|e| io_err("sizing", target, e))?;
        let mut buf = vec![0u8; self.bucket_bytes];
        for index in (0..self.num_buckets as u64).filter(|&i| self.is_initialized(i)) {
            self.read_bucket_into(index, &mut buf)?;
            out.write_all_at(&buf, self.layout.linear_bucket_address(index))
                .map_err(|e| io_err_bucket("persist bucket", index, target, e))?;
        }
        out.sync_all().map_err(|e| io_err("syncing", target, e))?;
        let _ = std::fs::remove_file(wal::wal_file_path(dir, label));
        Ok(())
    }

    /// Checkpoints both tiers: flushes every dirty arena image into the
    /// tree file, then folds the log (see `fold_log`).  After this returns,
    /// the on-disk state alone reconstructs both tiers.  A no-op without a
    /// file tier.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    // lint: no-panic
    pub fn checkpoint(&mut self) -> Result<(), OramError> {
        self.flush_treetop()?;
        self.top_dirty.fill(0);
        self.fold_log()
    }

    /// Folds the applied log into the on-disk checkpoint: sync the tree
    /// file, rewrite `tree<label>.meta` (atomically, see
    /// [`crate::snapshot::write_state_file`]) to cover sequence number
    /// `wal_seq`, then restart the log in place ([`Wal::restart`]: a new
    /// header, synced; the next records overwrite the old ones).  A crash
    /// between any two of these steps is safe: before the meta write the
    /// old checkpoint + full log still recover everything; after it the new
    /// checkpoint covers every record of the old generation, so an old, a
    /// torn or a new header all recover the same tree.  The logged
    /// `write_path` runs this alone every `checkpoint_interval` writebacks.
    fn fold_log(&mut self) -> Result<(), OramError> {
        let Some(tier) = self.file.as_mut() else {
            return Ok(());
        };
        // `sync_data`: the tree file keeps the length `create` gave it, so
        // no metadata a reopen needs is left behind.
        tier.file
            .sync_data()
            .map_err(|e| io_err("syncing", &tier.path, e))?;
        write_tree_meta(
            &tree_meta_path(&tier.dir, tier.label),
            self.num_buckets,
            self.bucket_bytes,
            self.layout.subtree_levels(),
            &self.initialized,
            self.wal_seq,
        )?;
        if let Some(wal) = tier.wal.as_mut() {
            wal.restart(self.wal_seq)?;
        }
        tier.records_since_checkpoint = 0;
        Ok(())
    }
    // lint: end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OramParams {
        OramParams::new(64, 16, 4)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oram-storage-test-{tag}-{}-{}",
            std::process::id(),
            TEMP_STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A budget that puts exactly `k` levels in the treetop.
    fn budget_for_levels(p: &OramParams, k: u32) -> u64 {
        ((1u64 << k) - 1) * p.bucket_bytes() as u64
    }

    fn store(p: &OramParams, kind: &StorageKind, durability: Durability) -> TreeStorage {
        TreeStorage::create(p, kind, 0, durability).unwrap()
    }

    /// A fresh store under `dir` with a treetop of `k` levels: `File` at
    /// 0, `Tiered` above, and `Mem` for `None` (no file).
    fn store_in(p: &OramParams, dir: &Path, k: Option<u32>, durability: Durability) -> TreeStorage {
        let kind = match k {
            None => StorageKind::Mem,
            Some(0) => StorageKind::File {
                dir: dir.to_path_buf(),
            },
            Some(k) => StorageKind::Tiered {
                dir: dir.to_path_buf(),
                memory_budget: budget_for_levels(p, k),
            },
        };
        store(p, &kind, durability)
    }

    /// Resumes the tree under `dir` as a `File` store there.
    fn open_file(
        p: &OramParams,
        dir: &Path,
        durability: Durability,
    ) -> Result<TreeStorage, OramError> {
        let kind = StorageKind::File {
            dir: dir.to_path_buf(),
        };
        TreeStorage::open_snapshot(p, &kind, dir, 0, durability)
    }

    /// Runs the shared store-contract checks against any store.
    fn check_store_contract(s: &mut TreeStorage) {
        assert!(s.num_buckets() > 0);
        assert!(!s.is_initialized(0));
        let bb = s.bucket_bytes();
        let mut out = vec![0xFFu8; bb];
        s.read_bucket_into(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "uninitialised reads as zero");
        assert_eq!(s.resident_bytes(), 0);

        // Write/read round trip.
        let image = vec![0xCD; bb];
        s.write_bucket(3, &image).unwrap();
        assert!(s.is_initialized(3));
        assert!(!s.is_initialized(2));
        s.read_bucket_into(3, &mut out).unwrap();
        assert_eq!(out, image);
        assert_eq!(s.resident_bytes(), bb as u64);

        // Tampering.
        s.write_bucket(0, &vec![0u8; bb]).unwrap();
        assert!(s.tamper_xor(0, 10, 0xFF));
        s.read_bucket_into(0, &mut out).unwrap();
        assert_eq!(out[10], 0xFF);
        assert_eq!(out[9], 0x00);
        assert!(!s.tamper_xor(0, 1 << 20, 1));
        assert!(!s.tamper_xor(1, 0, 1));

        // Snapshot and replay.
        let old = vec![1u8; bb];
        let new = vec![2u8; bb];
        s.write_bucket(5, &old).unwrap();
        let snap = s.snapshot_bucket(5);
        s.write_bucket(5, &new).unwrap();
        s.replay_bucket(5, &snap);
        s.read_bucket_into(5, &mut out).unwrap();
        assert_eq!(out, old);

        // Empty replay uninitialises.
        let empty = s.snapshot_bucket(7);
        assert!(empty.is_empty());
        s.write_bucket(7, &vec![9u8; bb]).unwrap();
        s.replay_bucket(7, &empty);
        assert!(!s.is_initialized(7));
        s.read_bucket_into(7, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));

        // Seed rollback.
        let mut image = vec![0u8; bb];
        image[..8].copy_from_slice(&100u64.to_le_bytes());
        s.write_bucket(2, &image).unwrap();
        assert!(s.rollback_seed(2, 1));
        s.read_bucket_into(2, &mut out).unwrap();
        assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 99);
        assert!(!s.rollback_seed(6, 1));

        // Batched path access.
        let indices = [0u64, 2, 5];
        let mut buf = vec![0u8; 3 * bb];
        s.read_path_into(&indices, &mut buf).unwrap();
        s.read_bucket_into(0, &mut out).unwrap();
        assert_eq!(&buf[..bb], &out[..]);
        let patterned: Vec<u8> = (0..3 * bb).map(|i| (i % 251) as u8).collect();
        s.write_path(&indices, &patterned).unwrap();
        for (level, &idx) in indices.iter().enumerate() {
            s.read_bucket_into(idx, &mut out).unwrap();
            assert_eq!(out, &patterned[level * bb..(level + 1) * bb]);
            assert!(s.is_initialized(idx));
        }
    }

    #[test]
    fn mem_store_satisfies_the_contract() {
        check_store_contract(&mut TreeStorage::new(&params()));
    }

    #[test]
    fn file_store_satisfies_the_contract() {
        let p = params();
        check_store_contract(&mut store(&p, &StorageKind::TempFile, Durability::None));
    }

    #[test]
    fn tiered_store_satisfies_the_contract_across_the_k_sweep() {
        let p = params();
        // K = 0 (pure spill), a mid split, and K = levels (pure arena).
        for k in [0, 3, p.levels()] {
            let kind = StorageKind::TempTiered {
                memory_budget: budget_for_levels(&p, k),
            };
            let mut s = store(&p, &kind, Durability::None);
            assert_eq!(s.treetop_levels(), k);
            check_store_contract(&mut s);
        }
    }

    #[test]
    fn treetop_levels_are_all_none_or_the_budgets_per_kind() {
        let p = params();
        let tiered = StorageKind::TempTiered {
            memory_budget: budget_for_levels(&p, 2) + 1,
        };
        for (kind, k, file_backed) in [
            (StorageKind::Mem, p.levels(), false),
            (StorageKind::TempFile, 0, true),
            (tiered, 2, true),
        ] {
            let mut s = store(&p, &kind, Durability::None);
            assert_eq!(s.treetop_levels(), k, "{kind:?}");
            assert_eq!(s.is_file_backed(), file_backed, "{kind:?}");
            let bb = s.bucket_bytes();
            s.write_bucket(1, &vec![5u8; bb]).unwrap();
            assert_eq!(s.snapshot_bucket(1), vec![5u8; bb]);
        }
    }

    #[test]
    fn mem_store_zero_copy_accessors_still_work() {
        let p = params();
        let mut s = TreeStorage::new(&p);
        s.arena_slot_mut(5)[0] = 0xAB;
        assert!(s.is_initialized(5));
        assert_eq!(s.arena_bucket(5)[0], 0xAB);
        assert_eq!(s.arena_offset(5), 5 * s.bucket_bytes());
        // Adjacent buckets sit back to back in the arena.
        for idx in 0..s.num_buckets() as u64 {
            let image = vec![idx as u8 + 1; s.bucket_bytes()];
            s.write_bucket(idx, &image).unwrap();
        }
        for idx in 0..s.num_buckets() as u64 {
            assert!(s.arena_bucket(idx).iter().all(|&b| b == idx as u8 + 1));
        }
    }

    #[test]
    #[should_panic(expected = "bucket_bytes")]
    fn mem_store_rejects_wrong_size_image() {
        let mut s = TreeStorage::new(&params());
        let _ = s.write_bucket(0, &[0u8; 3]);
    }

    #[test]
    #[should_panic(expected = "bucket_bytes")]
    fn file_store_rejects_wrong_size_image() {
        let mut s = store(&params(), &StorageKind::TempFile, Durability::None);
        let _ = s.write_bucket(0, &[0u8; 3]);
    }

    #[test]
    fn stores_persist_into_a_common_interchangeable_format() {
        let p = params();
        let dir_a = temp_dir("interchange-a");
        let dir_b = temp_dir("interchange-b");

        // Populate a mem store and persist it.
        let mut mem = TreeStorage::new(&p);
        let image_a = vec![0xA1; mem.bucket_bytes()];
        let image_b = vec![0xB2; mem.bucket_bytes()];
        mem.write_bucket(1, &image_a).unwrap();
        mem.write_bucket(30, &image_b).unwrap();
        mem.persist_to(&dir_a, 0).unwrap();

        // Resume it file-backed, verify contents, mutate, persist elsewhere.
        let mut file = open_file(&p, &dir_a, Durability::None).unwrap();
        let mut out = vec![0u8; p.bucket_bytes()];
        file.read_bucket_into(1, &mut out).unwrap();
        assert_eq!(out, image_a);
        file.read_bucket_into(30, &mut out).unwrap();
        assert_eq!(out, image_b);
        assert!(!file.is_initialized(2));
        let image_c = vec![0xC3; p.bucket_bytes()];
        file.write_bucket(2, &image_c).unwrap();
        file.persist_to(&dir_b, 0).unwrap();

        // Resume *that* as a mem store.
        let mem2 =
            TreeStorage::open_snapshot(&p, &StorageKind::Mem, &dir_b, 0, Durability::None).unwrap();
        assert_eq!(mem2.arena_bucket(1), &image_a[..]);
        assert_eq!(mem2.arena_bucket(2), &image_c[..]);
        assert_eq!(mem2.arena_bucket(30), &image_b[..]);
        assert_eq!(mem2.resident_bytes(), 3 * mem2.bucket_bytes() as u64);

        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn file_store_persists_in_place_with_a_flush() {
        let p = params();
        let dir = temp_dir("inplace");
        let mut s = store_in(&p, &dir, Some(0), Durability::None);
        s.write_bucket(4, &vec![0x44; p.bucket_bytes()]).unwrap();
        s.persist_to(&dir, 0).unwrap();
        drop(s);
        let s2 = open_file(&p, &dir, Durability::None).unwrap();
        let mut out = vec![0u8; p.bucket_bytes()];
        s2.read_bucket_into(4, &mut out).unwrap();
        assert_eq!(out, vec![0x44; p.bucket_bytes()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_without_metadata_is_a_storage_error() {
        let p = params();
        let dir = temp_dir("nometa");
        assert!(matches!(
            open_file(&p, &dir, Durability::None),
            Err(OramError::Storage { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_metadata_is_an_integrity_violation() {
        let p = params();
        let dir = temp_dir("badmeta");
        let mut s = store_in(&p, &dir, Some(0), Durability::None);
        s.write_bucket(0, &vec![7u8; p.bucket_bytes()]).unwrap();
        s.persist_to(&dir, 0).unwrap();
        drop(s);
        let meta = tree_meta_path(&dir, 0);
        let mut bytes = std::fs::read(&meta).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&meta, &bytes).unwrap();
        assert!(matches!(
            open_file(&p, &dir, Durability::None),
            Err(OramError::IntegrityViolation { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn geometry_mismatch_is_a_snapshot_error() {
        let dir = temp_dir("geom");
        let s = store_in(&params(), &dir, Some(0), Durability::None);
        s.persist_to(&dir, 0).unwrap();
        drop(s);
        // Different geometry: more blocks, different bucket size.
        let other = OramParams::new(1 << 10, 64, 4);
        assert!(matches!(
            open_file(&other, &dir, Durability::None),
            Err(OramError::Snapshot { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Before every kind resumed through one open, only the file kinds
    /// checked the tree file's length: a `Mem` resume of a truncated file
    /// returned `Ok` when only bucket 0 was written, and a `Storage` error
    /// from a short read when every bucket was.
    #[test]
    fn a_truncated_tree_file_is_a_snapshot_error_for_every_kind() {
        let p = OramParams::new(256, 16, 4);
        for written in [1, p.num_buckets()] {
            let dir = temp_dir("truncated");
            let mut s = TreeStorage::new(&p);
            for index in 0..written {
                s.write_bucket(index, &vec![index as u8 | 1; p.bucket_bytes()])
                    .unwrap();
            }
            s.persist_to(&dir, 0).unwrap();
            let tree = tree_file_path(&dir, 0);
            let len = std::fs::metadata(&tree).unwrap().len();
            std::fs::OpenOptions::new()
                .write(true)
                .open(&tree)
                .unwrap()
                .set_len(len / 2)
                .unwrap();
            for kind in [
                StorageKind::Mem,
                StorageKind::File { dir: dir.clone() },
                StorageKind::Tiered {
                    dir: dir.clone(),
                    memory_budget: budget_for_levels(&p, 3),
                },
            ] {
                let opened = TreeStorage::open_snapshot(&p, &kind, &dir, 0, Durability::None);
                assert!(
                    matches!(opened, Err(OramError::Snapshot { .. })),
                    "{kind:?} with {written} buckets written: {opened:?}"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn temp_stores_clean_up_after_themselves() {
        let p = params();
        let tiered = StorageKind::TempTiered {
            memory_budget: budget_for_levels(&p, 2),
        };
        for kind in [StorageKind::TempFile, tiered] {
            let s = store(&p, &kind, Durability::Strict);
            let dir = s.file.as_ref().unwrap().dir.clone();
            assert!(dir.join("tree0.wal").exists());
            drop(s);
            assert!(!dir.exists(), "{kind:?} directory should be removed");
        }
    }

    #[test]
    fn wal_store_recovers_writebacks_never_persisted() {
        let p = params();
        let dir = temp_dir("walrec");
        let mut s = store_in(&p, &dir, Some(0), Durability::Strict);
        let bb = p.bucket_bytes();
        let indices = [0u64, 1, 3];
        let image: Vec<u8> = (0..3 * bb).map(|i| (i % 249) as u8 + 1).collect();
        s.write_path(&indices, &image).unwrap();
        // No persist_to: only create()'s empty checkpoint and the WAL
        // survive the drop.
        drop(s);
        let s2 = open_file(&p, &dir, Durability::Strict).unwrap();
        assert_eq!(s2.wal_seq(), 1);
        let mut out = vec![0u8; bb];
        for (level, &idx) in indices.iter().enumerate() {
            assert!(s2.is_initialized(idx));
            s2.read_bucket_into(idx, &mut out).unwrap();
            assert_eq!(out, &image[level * bb..(level + 1) * bb]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_folds_the_log_and_survives_reopen() {
        let p = params();
        let dir = temp_dir("ckpt");
        let mut s = store_in(&p, &dir, Some(0), Durability::Batch(8));
        s.set_checkpoint_interval(2);
        let bb = p.bucket_bytes();
        for round in 0..5u64 {
            let image = vec![round as u8 + 1; 2 * bb];
            s.write_path(&[round, round + 8], &image).unwrap();
        }
        assert_eq!(s.wal_seq(), 5);
        // Five writebacks at interval 2 → folds after #2 and #4; the live
        // log holds only record #5 (the stale records of the recycled
        // generations behind it end replay).
        let mut live = Vec::new();
        let summary = wal::replay(&wal::wal_file_path(&dir, 0), bb, |seq, indices, _| {
            live.push((seq, indices.to_vec()));
            Ok(())
        })
        .unwrap()
        .unwrap();
        assert_eq!((summary.base_seq, summary.last_seq), (4, 5));
        assert_eq!(live, vec![(5, vec![4, 12])]);
        drop(s);
        let s2 = open_file(&p, &dir, Durability::Batch(8)).unwrap();
        assert_eq!(s2.wal_seq(), 5);
        let mut out = vec![0u8; bb];
        s2.read_bucket_into(4, &mut out).unwrap();
        assert_eq!(out, vec![5u8; bb]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_without_durability_folds_and_drops_the_log() {
        let p = params();
        let dir = temp_dir("drop-wal");
        let mut s = store_in(&p, &dir, Some(0), Durability::Strict);
        let bb = p.bucket_bytes();
        s.write_path(&[2, 9], &vec![0x5A; 2 * bb]).unwrap();
        drop(s);
        let s2 = open_file(&p, &dir, Durability::None).unwrap();
        assert!(s2.file.as_ref().unwrap().wal.is_none());
        assert!(!wal::wal_file_path(&dir, 0).exists());
        assert_eq!(s2.wal_seq(), 1);
        let mut out = vec![0u8; bb];
        s2.read_bucket_into(9, &mut out).unwrap();
        assert_eq!(out, vec![0x5A; bb]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_load_replays_a_wal_tail() {
        let p = params();
        let dir = temp_dir("mem-tail");
        let mut s = store_in(&p, &dir, Some(0), Durability::Strict);
        let bb = p.bucket_bytes();
        s.write_path(&[1, 6], &vec![0x77; 2 * bb]).unwrap();
        // Meta is still the empty create() checkpoint; the data lives only
        // in the WAL.  A memory resume must see the same recovered tree.
        drop(s);
        let mem =
            TreeStorage::open_snapshot(&p, &StorageKind::Mem, &dir, 0, Durability::None).unwrap();
        assert_eq!(mem.wal_seq(), 1);
        assert_eq!(mem.arena_bucket(6), &vec![0x77u8; bb][..]);
        assert!(mem.is_initialized(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The kind supplies only `K`: every kind opens the tree under the
    /// `dir` it is given, not the directory the kind names.
    #[test]
    fn open_snapshot_opens_the_dir_argument_for_every_kind() {
        let p = params();
        let (dir_a, dir_b) = (temp_dir("open-arg-a"), temp_dir("open-arg-b"));
        let bb = p.bucket_bytes();
        let mut s = TreeStorage::new(&p);
        s.write_bucket(1, &vec![0x1B; bb]).unwrap();
        s.write_bucket(20, &vec![0x2B; bb]).unwrap();
        s.persist_to(&dir_b, 0).unwrap();
        for kind in [
            StorageKind::File { dir: dir_a.clone() },
            StorageKind::Tiered {
                dir: dir_a.clone(),
                memory_budget: budget_for_levels(&p, 2),
            },
            StorageKind::Mem,
        ] {
            let opened = TreeStorage::open_snapshot(&p, &kind, &dir_b, 0, Durability::Strict)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(opened.snapshot_bucket(1), vec![0x1B; bb], "{kind:?}");
            assert_eq!(opened.snapshot_bucket(20), vec![0x2B; bb], "{kind:?}");
            assert_eq!(opened.resident_bytes(), 2 * bb as u64, "{kind:?}");
        }
        assert_eq!(
            std::fs::read_dir(&dir_a).unwrap().count(),
            0,
            "A stays empty"
        );
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn treetop_levels_track_the_byte_budget() {
        let p = params();
        let bb = p.bucket_bytes() as u64;
        assert_eq!(treetop_levels_for_budget(&p, 0), 0);
        assert_eq!(treetop_levels_for_budget(&p, bb - 1), 0);
        assert_eq!(treetop_levels_for_budget(&p, bb), 1);
        assert_eq!(treetop_levels_for_budget(&p, 3 * bb), 2);
        assert_eq!(treetop_levels_for_budget(&p, 3 * bb + 1), 2);
        // A huge budget is capped at the tree height.
        assert_eq!(treetop_levels_for_budget(&p, u64::MAX), p.levels());
    }

    #[test]
    fn tiered_store_interchanges_with_mem_and_file_snapshots() {
        let p = params();
        let dir_a = temp_dir("tier-interchange-a");
        let dir_b = temp_dir("tier-interchange-b");
        let tiered = |dir: &Path| StorageKind::Tiered {
            dir: dir.to_path_buf(),
            memory_budget: budget_for_levels(&p, 3),
        };
        let bb = p.bucket_bytes();

        // Populate a tiered store with buckets on both sides of the split
        // and persist it.
        let mut s = store(&p, &tiered(&dir_a), Durability::None);
        let top_image = vec![0x1A; bb];
        let deep_image = vec![0x2B; bb];
        let deep_idx = (1 << 3) - 1 + 4;
        s.write_bucket(1, &top_image).unwrap();
        s.write_bucket(deep_idx, &deep_image).unwrap();
        s.persist_to(&dir_a, 0).unwrap();
        drop(s);

        // Resume as a plain mem store: both tiers must be visible.
        let mem =
            TreeStorage::open_snapshot(&p, &StorageKind::Mem, &dir_a, 0, Durability::None).unwrap();
        assert_eq!(mem.arena_bucket(1), &top_image[..]);
        assert_eq!(mem.arena_bucket(deep_idx), &deep_image[..]);

        // Mutate via a `File` store, persist elsewhere, resume tiered.
        let mut file = open_file(&p, &dir_a, Durability::None).unwrap();
        let image_c = vec![0x3C; bb];
        file.write_bucket(2, &image_c).unwrap();
        file.persist_to(&dir_b, 0).unwrap();
        drop(file);

        let s2 =
            TreeStorage::open_snapshot(&p, &tiered(&dir_b), &dir_b, 0, Durability::None).unwrap();
        let mut out = vec![0u8; bb];
        s2.read_bucket_into(1, &mut out).unwrap();
        assert_eq!(out, top_image);
        s2.read_bucket_into(2, &mut out).unwrap();
        assert_eq!(out, image_c);
        s2.read_bucket_into(deep_idx, &mut out).unwrap();
        assert_eq!(out, deep_image);

        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn tiered_wal_recovery_covers_the_spill_tier_only_until_checkpoint() {
        let p = params();
        let dir = temp_dir("tier-walrec");
        let kind = StorageKind::Tiered {
            dir: dir.clone(),
            memory_budget: budget_for_levels(&p, 2),
        };
        let reopen = || TreeStorage::open_snapshot(&p, &kind, &dir, 0, Durability::Strict).unwrap();
        let mut s = store(&p, &kind, Durability::Strict);
        let bb = p.bucket_bytes();
        assert_eq!(s.treetop_levels(), 2);
        // A root-to-leaf path: [0, 1] in the treetop, [3, 8] in the file.
        let indices = [0u64, 1, 3, 8];
        let image: Vec<u8> = (0..4 * bb).map(|i| (i % 247) as u8 + 1).collect();
        s.write_path(&indices, &image).unwrap();
        assert_eq!(s.wal_seq(), 1, "only the spill suffix is one WAL record");
        drop(s);

        // Kill before any checkpoint: the logged deep buckets recover, the
        // WAL-exempt treetop does not (the controller's sequence barrier is
        // what rejects such a state at the backend layer).
        let s2 = reopen();
        assert_eq!(s2.wal_seq(), 1);
        let mut out = vec![0u8; bb];
        for (level, &idx) in indices.iter().enumerate().skip(2) {
            assert!(s2.is_initialized(idx));
            s2.read_bucket_into(idx, &mut out).unwrap();
            assert_eq!(out, &image[level * bb..(level + 1) * bb]);
        }
        assert!(!s2.is_initialized(0));
        assert!(!s2.is_initialized(1));
        drop(s2);

        // Same writeback followed by an explicit checkpoint: the flushed
        // treetop survives reopen alongside the deep buckets.
        let mut s3 = reopen();
        s3.write_path(&indices, &image).unwrap();
        s3.checkpoint().unwrap();
        drop(s3);
        let s4 = reopen();
        for (level, &idx) in indices.iter().enumerate() {
            assert!(s4.is_initialized(idx));
            s4.read_bucket_into(idx, &mut out).unwrap();
            assert_eq!(out, &image[level * bb..(level + 1) * bb]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A file-backed store at `K` = 0 is the file store: the same seeded
    /// path writes (each after a read of its path, with a checkpoint
    /// between two runs of them) leave `File` and `Tiered { memory_budget:
    /// 0 }` with byte-identical tree, metadata and log files.
    #[test]
    fn tiered_at_k0_leaves_the_same_files_as_file() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = window_params();
        let (dir_f, dir_t) = (temp_dir("k0-file"), temp_dir("k0-tiered"));
        let mut file = store_in(&p, &dir_f, Some(0), Durability::Strict);
        let tiered_kind = StorageKind::Tiered {
            dir: dir_t.clone(),
            memory_budget: 0,
        };
        let mut tiered = store(&p, &tiered_kind, Durability::Strict);
        assert_eq!(tiered.treetop_levels(), 0);
        let bb = p.bucket_bytes();
        let mut rng = StdRng::seed_from_u64(0x0C0);
        let mut scratch = vec![0u8; p.levels() as usize * bb];
        for step in 0..120 {
            let indices =
                crate::tree::path_linear_indices(rng.gen_range(0..p.num_leaves()), p.leaf_level());
            let image: Vec<u8> = (0..indices.len() * bb).map(|_| rng.gen()).collect();
            for s in [&mut file, &mut tiered] {
                s.read_path_into(&indices, &mut scratch).unwrap();
                s.write_path(&indices, &image).unwrap();
                if step == 60 {
                    s.checkpoint().unwrap();
                }
            }
        }
        assert_eq!(file.wal_seq(), tiered.wal_seq());
        for name in ["tree0.oram", "tree0.meta", "tree0.wal"] {
            assert!(
                std::fs::read(dir_f.join(name)).unwrap()
                    == std::fs::read(dir_t.join(name)).unwrap(),
                "{name} differs"
            );
        }
        drop((file, tiered));
        std::fs::remove_dir_all(&dir_f).unwrap();
        std::fs::remove_dir_all(&dir_t).unwrap();
    }

    /// Drives `windowed` through `write_path` (whole-window writes in the
    /// file, staged by a preceding path read or read back) and `reference`
    /// through per-bucket `write_bucket`s with the same operations, and
    /// checks after every step that the two tree files are byte-identical
    /// (once a persist has written them, for stores without a file) and at
    /// the end that every bucket reads back alike.  The operations:
    /// root-to-leaf paths with and without a read first, a read of another
    /// path first, a tampered or flushed neighbour between read and write,
    /// ascending chunks of upper-level buckets that no path read staged,
    /// and buckets returned to uninitialised.
    fn check_window_writes_match_per_bucket_writes(
        p: &OramParams,
        windowed: &mut TreeStorage,
        reference: &mut TreeStorage,
        dirs: (&Path, &Path),
        seed: u64,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let bb = p.bucket_bytes();
        let buckets = p.num_buckets();
        // The top 8 levels: with K = 6 a chunk's windows can span treetop
        // buckets of the next subtree.
        let upper = buckets.min(255);
        let mut scratch = vec![0u8; MAX_RECORD_BUCKETS * bb];
        for step in 0..300 {
            let indices: Vec<u64> = if rng.gen_range(0..4) == 0 {
                // An ascending chunk of upper-level buckets, many windows.
                (0..upper)
                    .filter(|_| rng.gen_bool(0.25))
                    .take(MAX_RECORD_BUCKETS)
                    .collect()
            } else {
                crate::tree::path_linear_indices(rng.gen_range(0..p.num_leaves()), p.leaf_level())
            };
            if indices.is_empty() {
                continue;
            }
            let image: Vec<u8> = (0..indices.len() * bb).map(|_| rng.gen()).collect();
            match rng.gen_range(0..6) {
                0 => {} // no read before the write
                1 => {
                    let other = crate::tree::path_linear_indices(
                        rng.gen_range(0..p.num_leaves()),
                        p.leaf_level(),
                    );
                    windowed
                        .read_path_into(&other, &mut scratch[..other.len() * bb])
                        .unwrap();
                }
                _ => windowed
                    .read_path_into(&indices, &mut scratch[..indices.len() * bb])
                    .unwrap(),
            }
            match rng.gen_range(0..8) {
                // A neighbour changes between the read and the write.
                0 => {
                    let (index, at, mask) = (rng.gen_range(0..buckets), rng.gen_range(0..bb), 0x5A);
                    assert_eq!(
                        windowed.tamper_xor(index, at, mask),
                        reference.tamper_xor(index, at, mask)
                    );
                }
                1 => {
                    let index = rng.gen_range(0..buckets);
                    windowed.replay_bucket(index, &[]);
                    reference.replay_bucket(index, &[]);
                }
                2 => {
                    windowed.persist_to(dirs.0, 0).unwrap();
                    reference.persist_to(dirs.1, 0).unwrap();
                }
                3 => {
                    let index = rng.gen_range(0..buckets);
                    let single: Vec<u8> = (0..bb).map(|_| rng.gen()).collect();
                    windowed.write_bucket(index, &single).unwrap();
                    reference.write_bucket(index, &single).unwrap();
                }
                _ => {}
            }
            windowed.write_path(&indices, &image).unwrap();
            for (level, &index) in indices.iter().enumerate() {
                reference
                    .write_bucket(index, &image[level * bb..(level + 1) * bb])
                    .unwrap();
            }
            assert!(
                std::fs::read(tree_file_path(dirs.0, 0)).ok()
                    == std::fs::read(tree_file_path(dirs.1, 0)).ok(),
                "step {step}: tree files diverged"
            );
        }
        let (mut a, mut b) = (vec![0u8; bb], vec![0u8; bb]);
        for index in 0..buckets {
            assert_eq!(
                windowed.is_initialized(index),
                reference.is_initialized(index)
            );
            windowed.read_bucket_into(index, &mut a).unwrap();
            reference.read_bucket_into(index, &mut b).unwrap();
            assert_eq!(a, b, "bucket {index}");
        }
    }

    fn window_params() -> OramParams {
        let p = OramParams::new(1 << 10, 16, 4);
        assert!(p.levels() > 2 * FILE_SUBTREE_LEVELS, "three level groups");
        p
    }

    /// Runs the window check with a fresh pair of stores of treetop `k`
    /// (`None`: no file) in two scratch directories.
    fn check_windows_at(k: Option<u32>, windowed_durability: Durability, seed: u64) {
        let p = window_params();
        let (dir_w, dir_r) = (temp_dir("window-w"), temp_dir("window-r"));
        let mut windowed = store_in(&p, &dir_w, k, windowed_durability);
        // The windowed store also logs and checkpoints (restarting its log)
        // as it goes; neither touches the tree bytes.
        windowed.set_checkpoint_interval(16);
        let mut reference = store_in(&p, &dir_r, k, Durability::None);
        check_window_writes_match_per_bucket_writes(
            &p,
            &mut windowed,
            &mut reference,
            (&dir_w, &dir_r),
            seed,
        );
        drop((windowed, reference));
        std::fs::remove_dir_all(&dir_w).unwrap();
        std::fs::remove_dir_all(&dir_r).unwrap();
    }

    #[test]
    fn file_store_window_writes_are_byte_identical_to_bucket_writes() {
        check_windows_at(Some(0), Durability::Batch(4), 0x57A6);
    }

    #[test]
    fn tiered_window_writes_are_byte_identical_to_bucket_writes() {
        // Treetops that end inside a subtree (K not a multiple of k = 4):
        // the spill tier's windows start mid-extent.  Then the whole tree
        // in the arena, over a file and without one.
        let levels = window_params().levels();
        for k in [Some(3), Some(6), Some(levels), None] {
            check_windows_at(k, Durability::None, 0x71E2 + u64::from(k.unwrap_or(0)));
        }
    }
}
