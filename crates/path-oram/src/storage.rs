//! Pluggable untrusted external memory holding the encrypted ORAM tree.
//!
//! The protocol only ever assumes `ReadBucket`/`WriteBucket` on untrusted
//! storage (§2), so the tree's home is a seam: the [`TreeStore`] trait
//! describes bucket-slot get/put over the `bucket_bytes` stride (plus the
//! batched whole-path access the one-pass seal/decrypt pipeline uses), with
//! three implementations:
//!
//! * [`MemStore`] — the original flat zeroed arena.  This is the hot-path
//!   store: the backend keeps its zero-copy access to the arena, so putting
//!   the trait in front costs the memory path nothing.
//! * [`FileStore`] — a sparse file addressed with positional I/O
//!   ([`std::os::unix::fs::FileExt`]), laid out with the subtree layout of
//!   Ren et al. \[26\] ([`dram_sim::SubtreeLayout`]) so a root-to-leaf path
//!   falls into at most ⌈levels/k⌉ contiguous extents.  Capacity is bounded
//!   by disk, not RAM, and the tree survives process exit.
//! * [`TieredStore`] — the treetop split of the two: the top `K` tree
//!   levels (the buckets *every* access touches — the paper's treetop
//!   observation, §5.1) live in a RAM arena while levels ≥ `K` spill to a
//!   whole-tree [`FileStore`] underneath, with `K` derived from a byte
//!   budget ([`treetop_levels_for_budget`]).  See the type-level docs for
//!   the tier invariants and the WAL-exemption argument.
//!
//! [`TreeStorage`] is the concrete enum the backend holds (three-variant
//! static dispatch; no boxing on the hot path).  All stores expose the same
//! *active-adversary* API the threat model needs (§2): flipping bits,
//! replaying stale buckets, and rolling back bucket seeds — for the file
//! store these tamper with the actual bytes on disk.
//!
//! Where this module sits in the stack — and how a path access flows
//! through it — is mapped end to end in `docs/ARCHITECTURE.md` at the
//! workspace root.
//!
//! With a [`Durability`] discipline other than `None`, the file store keeps
//! a write-ahead log (see [`crate::wal`]): every path writeback is appended
//! to `tree<label>.wal` before the tree file is touched, the log is folded
//! into the `tree<label>.meta` checkpoint every `checkpoint_interval`
//! writebacks, and [`FileStore::open`] replays the checksum-valid log tail
//! past the last checkpoint — so a kill at any instant recovers to a
//! consistent prefix of the access history.
//!
//! # What the file store does and does not leak
//!
//! File offsets are a deterministic function of bucket indices, exactly as
//! arena offsets were: an observer of file I/O sees the same
//! one-path-read-one-path-write trace per access that a DRAM adversary saw.
//! The file store reads and writes a path as whole subtree windows, and the
//! window offsets and lengths are a function of the path's index list — of
//! the public leaf — alone, never of which buckets hold real blocks.
//! Obliviousness is unchanged.  What the file store adds is *persistence
//! residue*: bucket ciphertexts outlive the process, so the snapshot
//! machinery (and the operator) must treat tree files as untrusted
//! ciphertext, which they already are in the threat model.

use crate::error::OramError;
use crate::params::OramParams;
use crate::snapshot::{self, SnapReader};
use crate::wal::{self, Durability, Wal, MAX_RECORD_BUCKETS};
use dram_sim::SubtreeLayout;
use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Levels per subtree (`k`) of the file layout.  Four levels pack 15 buckets
/// per subtree — with the paper's 320-byte buckets that is one ~4.7 KB
/// extent, about one OS page run per touched subtree.
pub const FILE_SUBTREE_LEVELS: u32 = 4;

/// State-file kind byte of a tree metadata file (see [`crate::snapshot`]).
const TREE_META_KIND: u8 = 0x10;

/// Writebacks between automatic WAL checkpoints (see
/// [`FileStore::checkpoint`]).  At the paper's ~320-byte buckets and
/// ~20-level paths this folds the log roughly every 6 MB, keeping replay
/// time and log residue bounded without making checkpoint fsyncs a
/// per-access cost.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 1024;

/// Where a backend keeps its ORAM tree.
///
/// Construction-time knob, threaded from `OramBuilder::storage` through the
/// frontends to [`TreeStorage::create`].  Backends without untrusted tree
/// storage (e.g. the flat insecure baseline) ignore it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageKind {
    /// The in-memory arena ([`MemStore`]); the default.
    Mem,
    /// A file-backed tree ([`FileStore`]) living in the given directory.
    /// Constructing a *fresh* instance truncates any tree files already
    /// there; resuming a snapshot reopens them in place.
    File {
        /// Directory holding the tree files (`tree<label>.oram` /
        /// `tree<label>.meta`).
        dir: PathBuf,
    },
    /// A file-backed tree in a unique temporary directory that is deleted
    /// when the store is dropped.  This is what `ORAM_STORAGE=file` resolves
    /// to: every test/benchmark instance gets its own throwaway tree files.
    TempFile,
    /// A tiered tree ([`TieredStore`]) living in the given directory: the
    /// top levels in a RAM arena (as many as `memory_budget` bytes allow,
    /// see [`treetop_levels_for_budget`]), everything deeper in the same
    /// on-disk format as [`StorageKind::File`].
    Tiered {
        /// Directory holding the tree files (same layout as
        /// [`StorageKind::File`]; a tiered snapshot can be resumed by any
        /// store kind and vice versa).
        dir: PathBuf,
        /// Treetop byte budget: the top `K` levels are pinned in RAM for
        /// the largest `K` with `(2^K - 1) * bucket_bytes ≤ memory_budget`.
        memory_budget: u64,
    },
    /// A tiered tree in a unique temporary directory that is deleted when
    /// the store is dropped.  This is what `ORAM_STORAGE=tiered` resolves
    /// to, with the budget taken from `ORAM_MEMORY_BUDGET` (or
    /// [`DEFAULT_MEMORY_BUDGET`]).
    TempTiered {
        /// Treetop byte budget (see [`StorageKind::Tiered`]).
        memory_budget: u64,
    },
}

/// Monotonic discriminator for [`StorageKind::TempFile`] directories.
static TEMP_STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Treetop byte budget used when a tiered kind is requested without an
/// explicit budget (`ORAM_STORAGE=tiered` with `ORAM_MEMORY_BUDGET` unset):
/// 64 MiB.  Generous enough to hold every test-sized tree entirely in RAM
/// and roughly a third of the paper's 1 M-block design-point tree; the
/// arena never allocates more than the tree actually needs.
pub const DEFAULT_MEMORY_BUDGET: u64 = 64 << 20;

impl StorageKind {
    /// Parses an `ORAM_STORAGE`-style selector: `mem` (or empty) selects
    /// [`StorageKind::Mem`], `file` selects [`StorageKind::TempFile`],
    /// `tiered` selects [`StorageKind::TempTiered`] with the given budget
    /// (or [`DEFAULT_MEMORY_BUDGET`]).  Matching is ASCII-case-insensitive.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] for any other value — an unrecognised
    /// selector is a configuration mistake and must fail loudly, not fall
    /// back to the memory store and silently un-test what the caller asked
    /// to test.
    pub fn parse(value: &str, memory_budget: Option<u64>) -> Result<StorageKind, OramError> {
        let v = value.trim();
        if v.is_empty() || v.eq_ignore_ascii_case("mem") {
            Ok(StorageKind::Mem)
        } else if v.eq_ignore_ascii_case("file") {
            Ok(StorageKind::TempFile)
        } else if v.eq_ignore_ascii_case("tiered") {
            Ok(StorageKind::TempTiered {
                memory_budget: memory_budget.unwrap_or(DEFAULT_MEMORY_BUDGET),
            })
        } else {
            Err(OramError::Storage {
                detail: format!(
                    "unknown ORAM_STORAGE value {value:?}: expected \"mem\", \"file\" \
                     or \"tiered\""
                ),
            })
        }
    }

    /// Parses an `ORAM_MEMORY_BUDGET`-style byte count: a plain integer,
    /// optionally suffixed `k`/`m`/`g` for KiB/MiB/GiB (case-insensitive).
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] for anything else.
    pub fn parse_memory_budget(value: &str) -> Result<u64, OramError> {
        let v = value.trim();
        let (digits, shift) = match v.as_bytes().last() {
            Some(b'k' | b'K') => (&v[..v.len() - 1], 10),
            Some(b'm' | b'M') => (&v[..v.len() - 1], 20),
            Some(b'g' | b'G') => (&v[..v.len() - 1], 30),
            _ => (v, 0),
        };
        digits
            .trim()
            .parse::<u64>()
            .ok()
            .and_then(|n| n.checked_shl(shift).filter(|s| s >> shift == n))
            .ok_or_else(|| OramError::Storage {
                detail: format!(
                    "invalid ORAM_MEMORY_BUDGET value {value:?}: expected a byte count \
                     like 8388608, 8192k, 96m or 1g"
                ),
            })
    }

    /// Resolves the ambient default: `ORAM_STORAGE` selects the kind via
    /// [`StorageKind::parse`] (with the treetop budget from
    /// `ORAM_MEMORY_BUDGET`); unset selects [`StorageKind::Mem`].  This is
    /// how the CI file- and tiered-storage test legs run the whole suite
    /// over the other stores without touching call sites.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised `ORAM_STORAGE` or unparsable
    /// `ORAM_MEMORY_BUDGET` value: both are operator configuration errors,
    /// and silently falling back to the memory store would un-test exactly
    /// what the operator asked to test.
    pub fn from_env() -> StorageKind {
        let budget = match std::env::var("ORAM_MEMORY_BUDGET") {
            Ok(v) => Some(Self::parse_memory_budget(&v).unwrap_or_else(|e| panic!("{e}"))),
            Err(_) => None,
        };
        match std::env::var("ORAM_STORAGE") {
            Ok(v) => Self::parse(&v, budget).unwrap_or_else(|e| panic!("{e}")),
            Err(_) => StorageKind::Mem,
        }
    }

    /// A storage kind rooted under `name` within this one: directory-backed
    /// stores descend into a subdirectory (the per-shard wiring of
    /// `build_sharded`/`build_service`), memory and temp stores are
    /// unaffected (each temp store is unique already).  Tiered kinds keep
    /// their budget: every shard owns an independent tree, so each gets the
    /// full treetop budget for its own (smaller) tree.
    pub fn subdir(&self, name: &str) -> StorageKind {
        match self {
            StorageKind::File { dir } => StorageKind::File {
                dir: dir.join(name),
            },
            StorageKind::Tiered { dir, memory_budget } => StorageKind::Tiered {
                dir: dir.join(name),
                memory_budget: *memory_budget,
            },
            other => other.clone(),
        }
    }

    /// Whether this kind keeps the tree in files.
    pub fn is_file_backed(&self) -> bool {
        !matches!(self, StorageKind::Mem)
    }

    /// One-byte tag recorded in snapshots (temp stores persist as plain
    /// directory-rooted ones: the snapshot directory *is* their new home).
    pub fn tag(&self) -> u8 {
        match self {
            StorageKind::Mem => 0,
            StorageKind::File { .. } | StorageKind::TempFile => 1,
            StorageKind::Tiered { .. } | StorageKind::TempTiered { .. } => 2,
        }
    }

    /// Inverse of [`StorageKind::tag`] for the budget-free tags, rooting
    /// file-backed kinds at `dir`.  Tag 2 (tiered) carries a budget field
    /// in snapshots and must go through [`StorageKind::load`].
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] for an unknown or budget-carrying tag.
    pub fn from_tag(tag: u8, dir: &Path) -> Result<StorageKind, OramError> {
        match tag {
            0 => Ok(StorageKind::Mem),
            1 => Ok(StorageKind::File {
                dir: dir.to_path_buf(),
            }),
            2 => Err(OramError::Snapshot {
                detail: "storage kind tag 2 (tiered) carries a budget field; \
                         decode it with StorageKind::load"
                    .into(),
            }),
            other => Err(OramError::Snapshot {
                detail: format!("unknown storage kind tag {other}"),
            }),
        }
    }

    /// Appends this kind's snapshot encoding to `out`: the one-byte
    /// [`StorageKind::tag`], followed (for tiered kinds only) by the
    /// treetop budget as a little-endian `u64`.  Old snapshots — written
    /// before tiered storage existed — decode unchanged: the budget field
    /// exists only behind tag 2, which they never wrote.
    pub fn save(&self, out: &mut Vec<u8>) {
        snapshot::put_u8(out, self.tag());
        if let StorageKind::Tiered { memory_budget, .. }
        | StorageKind::TempTiered { memory_budget } = self
        {
            snapshot::put_u64(out, *memory_budget);
        }
    }

    /// Inverse of [`StorageKind::save`], rooting directory-backed kinds at
    /// `dir` (the snapshot directory).
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on an unknown tag or truncated encoding.
    pub fn load(r: &mut SnapReader<'_>, dir: &Path) -> Result<StorageKind, OramError> {
        let tag = r.u8()?;
        if tag == 2 {
            Ok(StorageKind::Tiered {
                dir: dir.to_path_buf(),
                memory_budget: r.u64()?,
            })
        } else {
            Self::from_tag(tag, dir)
        }
    }
}

/// The storage seam: bucket-slot get/put over the `bucket_bytes` stride,
/// batched whole-path access, the active-adversary tampering API, and
/// snapshot persistence.
///
/// A bucket that has never been written reads as all zero bytes; the
/// initialised bitmap tells the backend which buckets to skip.  All methods
/// are indexed by the *linear* (heap-order) bucket index of
/// [`crate::tree::bucket_linear_index`]; where buckets land physically
/// (arena offset, file offset under the subtree layout) is the store's
/// business.
pub trait TreeStore: std::fmt::Debug + Send {
    /// Number of buckets.
    fn num_buckets(&self) -> usize;

    /// Serialised bucket size in bytes.
    fn bucket_bytes(&self) -> usize;

    /// Whether a bucket has ever been written.
    fn is_initialized(&self, index: u64) -> bool;

    /// Copies the raw (encrypted) image of a bucket into `out`, which must
    /// be exactly `bucket_bytes` long.  Uninitialised buckets read as zero
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    fn read_bucket_into(&self, index: u64, out: &mut [u8]) -> Result<(), OramError>;

    /// Writes the raw image of a bucket, marking it initialised.  `image`
    /// must be exactly `bucket_bytes` long.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    fn write_bucket(&mut self, index: u64, image: &[u8]) -> Result<(), OramError>;

    /// Batched span read: copies every *initialised* bucket of `indices`
    /// into `buf` at stride `level * bucket_bytes`.  Slots of uninitialised
    /// buckets are left untouched (the caller skips them via
    /// [`TreeStore::is_initialized`]).  This is the read half of the
    /// one-pass path pipeline: the caller decrypts the whole buffer in one
    /// batched cipher pass afterwards.  The default reads bucket by bucket;
    /// the file store overrides it to coalesce the path into its subtree
    /// extents (one positional read per extent).  Takes `&mut self` so
    /// overrides can stage through a reusable scratch buffer.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    fn read_path_into(&mut self, indices: &[u64], buf: &mut [u8]) -> Result<(), OramError> {
        let bb = self.bucket_bytes();
        for (level, &index) in indices.iter().enumerate() {
            if self.is_initialized(index) {
                self.read_bucket_into(index, &mut buf[level * bb..(level + 1) * bb])?;
            }
        }
        Ok(())
    }

    /// Batched span write: writes every bucket of `indices` from `buf` at
    /// stride `level * bucket_bytes`, marking all of them initialised — the
    /// write half of the pipeline, called once per eviction after the
    /// batched sealing pass.  The default writes bucket by bucket; the file
    /// store overrides it to write each of the path's subtree windows with
    /// one positional write.  A path's buckets are interleaved with *other*
    /// paths' buckets inside each window, so it fills the gaps with the
    /// bytes the file already holds there — staged by the preceding
    /// [`TreeStore::read_path_into`] of the same list, or read back — and
    /// the result is byte-identical to per-bucket writes.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    fn write_path(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError> {
        let bb = self.bucket_bytes();
        for (level, &index) in indices.iter().enumerate() {
            self.write_bucket(index, &buf[level * bb..(level + 1) * bb])?;
        }
        Ok(())
    }

    /// Total bytes currently resident (diagnostics): initialised buckets
    /// times the bucket size.
    fn resident_bytes(&self) -> u64;

    // ------------------------------------------------------------------
    // Active-adversary API (§2): these model a malicious data centre.
    // ------------------------------------------------------------------

    /// Flips the bits of `mask` at `offset` within bucket `index`; returns
    /// `false` (and does nothing) if the bucket is uninitialised or the
    /// offset is out of range.  For the file store this flips the byte on
    /// disk.
    fn tamper_xor(&mut self, index: u64, offset: usize, mask: u8) -> bool;

    /// Takes a snapshot of a bucket's current ciphertext (for replay
    /// attacks).  An uninitialised bucket snapshots as an empty vector.
    fn snapshot_bucket(&self, index: u64) -> Vec<u8>;

    /// Replays a previously snapshotted ciphertext into a bucket.  An empty
    /// snapshot restores the bucket to its uninitialised (all-zero) state.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length is neither zero nor a full bucket
    /// image (test-harness contract, mirroring the original arena API).
    fn replay_bucket(&mut self, index: u64, snapshot: &[u8]);

    /// Rolls back the plaintext seed field in a bucket header by `delta`
    /// (the seed is stored in the clear, §6.4).  Returns `false` if the
    /// bucket is uninitialised.
    fn rollback_seed(&mut self, index: u64, delta: u64) -> bool;

    // ------------------------------------------------------------------
    // Persistence.
    // ------------------------------------------------------------------

    /// Persists the tree into `dir` as `tree<label>.oram` (bucket images at
    /// their subtree-layout offsets; one common format for both stores, so
    /// a memory-built snapshot can resume file-backed and vice versa) plus
    /// `tree<label>.meta` (geometry + initialised bitmap, digest-sealed).
    /// A file store persisting into its own live directory just flushes.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    fn persist_to(&self, dir: &Path, label: u32) -> Result<(), OramError>;
}

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

/// Groups offset-sorted `(file offset, level)` runs into I/O windows: a
/// window starts at its first bucket and takes every following bucket that
/// still ends within `window` bytes of that start.  Yields the run range of
/// each window.  Under the subtree layout a root-to-leaf path's buckets of
/// one level group share an extent, so a path has at most ⌈levels/k⌉
/// windows of at most one extent each.
fn windows(
    runs: &[(u64, usize)],
    bucket_bytes: u64,
    window: u64,
) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = runs.get(i)?.0;
        let fits = runs[i..]
            .iter()
            .take_while(|&&(offset, _)| offset + bucket_bytes - start <= window)
            .count();
        let group = i..i + fits;
        i += fits;
        Some(group)
    })
}

/// The file store's window staging: the bytes of the windows the last path
/// read covered, kept so that the path's writeback can rewrite whole
/// windows without reading them again.
///
/// Invariant: the first `valid` slots hold exactly the file's current bytes
/// of the windows recorded for them.  Every write to the tree file either
/// goes through a staged window (and updates it first) or drops the staging.
#[derive(Debug)]
struct Stage {
    /// One slot of `window` bytes per window a root-to-leaf path can have
    /// (⌈levels/k⌉), plus a spare for windows that are not staged.
    buf: Vec<u8>,
    /// Bytes of one subtree extent: the largest window.
    window: usize,
    /// `(file offset, length)` of the window staged in each slot.
    spans: Vec<(u64, usize)>,
    /// How many leading slots are valid; 0 when nothing is.  A `Cell` so the
    /// tiered store's `&self` treetop flush can drop it.
    valid: Cell<usize>,
}

impl Stage {
    fn new(layout: &SubtreeLayout, bucket_bytes: usize) -> Self {
        let window = (((1usize << layout.subtree_levels()) - 1) * bucket_bytes).max(bucket_bytes);
        let slots = layout.levels().div_ceil(layout.subtree_levels()) as usize;
        Self {
            buf: vec![0u8; (slots + 1) * window],
            window,
            spans: vec![(0, 0); slots],
            valid: Cell::new(0),
        }
    }

    /// Forgets everything staged.
    fn drop_all(&self) {
        self.valid.set(0);
    }

    /// Slot `slot`'s bytes (`slot == spans.len()` is the spare).
    fn slot_mut(&mut self, slot: usize) -> &mut [u8] {
        &mut self.buf[slot * self.window..(slot + 1) * self.window]
    }

    /// The slot among the first `staged` whose window contains
    /// `[start, start + len)`.
    fn containing(&self, staged: usize, start: u64, len: usize) -> Option<usize> {
        self.spans[..staged]
            .iter()
            .position(|&(s, l)| s <= start && start + len as u64 <= s + l as u64)
    }
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

/// Serialises a tree metadata file: geometry, the initialised bitmap, and
/// the WAL sequence number the tree file is known to cover (`wal_seq`; 0
/// for trees that never logged).
fn write_tree_meta(
    path: &Path,
    num_buckets: usize,
    bucket_bytes: usize,
    subtree_levels: u32,
    initialized: &[u64],
    wal_seq: u64,
) -> Result<(), OramError> {
    let mut payload = Vec::with_capacity(40 + initialized.len() * 8);
    snapshot::put_u64(&mut payload, num_buckets as u64);
    snapshot::put_u64(&mut payload, bucket_bytes as u64);
    snapshot::put_u32(&mut payload, subtree_levels);
    snapshot::put_u64(&mut payload, initialized.len() as u64);
    for &word in initialized {
        snapshot::put_u64(&mut payload, word);
    }
    snapshot::put_u64(&mut payload, wal_seq);
    snapshot::write_state_file(path, TREE_META_KIND, &payload)
}

/// Reads and validates a tree metadata file against the expected geometry,
/// returning the initialised bitmap and the checkpointed WAL sequence
/// number.
fn read_tree_meta(
    path: &Path,
    num_buckets: usize,
    bucket_bytes: usize,
    expected_subtree_levels: u32,
) -> Result<(Vec<u64>, u64), OramError> {
    let (kind, payload) = snapshot::read_state_file(path)?;
    if kind != TREE_META_KIND {
        return Err(OramError::Snapshot {
            detail: format!("{} is not a tree metadata file", path.display()),
        });
    }
    let mut r = SnapReader::new(&payload);
    let file_buckets = r.u64()? as usize;
    let file_bucket_bytes = r.u64()? as usize;
    let file_subtree_levels = r.u32()?;
    if file_buckets != num_buckets || file_bucket_bytes != bucket_bytes {
        return Err(OramError::Snapshot {
            detail: format!(
                "tree geometry mismatch: snapshot has {file_buckets} buckets x \
                 {file_bucket_bytes} B, expected {num_buckets} x {bucket_bytes} B"
            ),
        });
    }
    // Every bucket's file offset is a function of the layout's k; a
    // mismatch here would read all buckets from the wrong offsets, so it
    // must be a hard error, not a recorded-and-ignored field.
    if file_subtree_levels != expected_subtree_levels {
        return Err(OramError::Snapshot {
            detail: format!(
                "tree layout mismatch: snapshot uses {file_subtree_levels} levels per subtree, \
                 this build expects {expected_subtree_levels}"
            ),
        });
    }
    let words = r.len(num_buckets.div_ceil(64))?;
    if words != num_buckets.div_ceil(64) {
        return Err(OramError::Snapshot {
            detail: format!(
                "bitmap has {words} words, expected {}",
                num_buckets.div_ceil(64)
            ),
        });
    }
    let mut bitmap = Vec::with_capacity(words);
    for _ in 0..words {
        bitmap.push(r.u64()?);
    }
    let wal_seq = r.u64()?;
    r.finish()?;
    Ok((bitmap, wal_seq))
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

// =====================================================================
// MemStore
// =====================================================================

/// The in-memory tree store: one flat, contiguous arena of encrypted bucket
/// images.
///
/// Bucket `i` occupies `[i * bucket_bytes, (i + 1) * bucket_bytes)` of the
/// arena, so a path read is `L + 1` slice views into one allocation.  The
/// arena is allocated zeroed in one shot; on the platforms we target the
/// allocator services large zeroed requests with untouched copy-on-write
/// pages, so a mostly-empty tree costs physical memory only for the buckets
/// actually written.
///
/// Beyond the [`TreeStore`] contract, `MemStore` exposes the zero-copy
/// arena accessors ([`MemStore::read_bucket`], [`MemStore::bucket_slot_mut`],
/// [`MemStore::arena_mut`]) the backend's hot path is built on.
#[derive(Debug, Clone)]
pub struct MemStore {
    arena: Vec<u8>,
    /// One bit per bucket: has this bucket ever been written?
    initialized: Vec<u64>,
    bucket_bytes: usize,
    num_buckets: usize,
    levels: u32,
    /// The WAL sequence number this store's contents cover: 0 for a fresh
    /// arena, the recovered sequence number after [`MemStore::load`].  The
    /// memory store never logs (there is nothing to make durable), but it
    /// carries the counter so a file-backed WAL'd snapshot can resume
    /// in-memory and the controller barrier check still lines up.
    wal_seq: u64,
}

impl MemStore {
    /// Allocates storage for every bucket of the tree described by `params`.
    /// All buckets start uninitialised (and all-zero).
    pub fn new(params: &OramParams) -> Self {
        let num_buckets = params.num_buckets() as usize;
        let bucket_bytes = params.bucket_bytes();
        Self {
            arena: vec![0u8; num_buckets * bucket_bytes],
            initialized: vec![0u64; num_buckets.div_ceil(64)],
            bucket_bytes,
            num_buckets,
            levels: params.levels(),
            wal_seq: 0,
        }
    }

    /// Loads a memory store from tree files persisted under `dir` (the
    /// common on-disk format, see [`TreeStore::persist_to`]).
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure, [`OramError::Snapshot`] /
    /// [`OramError::IntegrityViolation`] for bad metadata.
    pub fn load(params: &OramParams, dir: &Path, label: u32) -> Result<Self, OramError> {
        let mut store = Self::new(params);
        let meta = tree_meta_path(dir, label);
        let (initialized, meta_seq) = read_tree_meta(
            &meta,
            store.num_buckets,
            store.bucket_bytes,
            FILE_SUBTREE_LEVELS.min(params.levels()),
        )?;
        store.initialized = initialized;
        store.wal_seq = meta_seq;
        let tree_path = tree_file_path(dir, label);
        let file = File::open(&tree_path).map_err(|e| io_err("opening", &tree_path, e))?;
        let layout = file_layout(params);
        for index in 0..store.num_buckets as u64 {
            if !bit_get(&store.initialized, index) {
                continue;
            }
            let offset = layout.linear_bucket_address(index);
            let range = store.range(index);
            file.read_exact_at(&mut store.arena[range], offset)
                .map_err(|e| io_err_bucket("load bucket", index, &tree_path, e))?;
        }
        // If the snapshot directory carries a WAL (a WAL'd file store that
        // crashed or simply never re-checkpointed), replay its checksum-valid
        // tail into the arena so the memory resume sees the same recovered
        // tree a file resume would.
        let num_buckets = store.num_buckets as u64;
        let bucket_bytes = store.bucket_bytes;
        let wal_path = wal::wal_file_path(dir, label);
        let summary = wal::replay(&wal_path, bucket_bytes, |seq, indices, images| {
            for (i, &index) in indices.iter().enumerate() {
                if index >= num_buckets {
                    return Err(OramError::Storage {
                        detail: format!(
                            "WAL record {seq} names bucket {index} outside the \
                             {num_buckets}-bucket tree @ {}",
                            wal_path.display()
                        ),
                    });
                }
                let range = store.range(index);
                store.arena[range]
                    .copy_from_slice(&images[i * bucket_bytes..(i + 1) * bucket_bytes]);
                bit_set(&mut store.initialized, index);
            }
            Ok(())
        })?;
        if let Some(s) = summary {
            if s.header_valid {
                store.wal_seq = store.wal_seq.max(s.last_seq);
            }
        }
        Ok(store)
    }

    /// The WAL sequence number this store's contents cover (see the field
    /// docs; always 0 for a store that was never loaded from a WAL'd
    /// snapshot).
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    // lint: ct-scope, no-alloc
    #[inline]
    fn range(&self, index: u64) -> std::ops::Range<usize> {
        let start = index as usize * self.bucket_bytes;
        start..start + self.bucket_bytes
    }

    /// Reads the raw (encrypted) image of a bucket: a `bucket_bytes`-long
    /// view into the arena.  A bucket that has never been written reads as
    /// all zero bytes; check [`TreeStore::is_initialized`] to distinguish.
    #[inline]
    pub fn read_bucket(&self, index: u64) -> &[u8] {
        &self.arena[self.range(index)]
    }

    /// Mutable view of a bucket's arena slot, marking the bucket
    /// initialised.  This is the zero-copy write path: the backend
    /// serialises and seals the eviction output directly into the slot.
    #[inline]
    pub fn bucket_slot_mut(&mut self, index: u64) -> &mut [u8] {
        self.mark_initialized(index);
        let range = self.range(index);
        &mut self.arena[range]
    }

    /// Byte offset of a bucket's image within the arena (see
    /// [`MemStore::arena_mut`]).
    #[inline]
    pub fn bucket_offset(&self, index: u64) -> usize {
        index as usize * self.bucket_bytes
    }

    /// The whole arena, mutable.  This is the batched-cipher hook: the
    /// backend serialises a path's buckets into their slots via
    /// [`MemStore::bucket_slot_mut`] (which marks them initialised), then
    /// seals all of them in one keystream pass over this slice using
    /// [`MemStore::bucket_offset`]-based spans.  Does **not** mark anything
    /// initialised.
    #[inline]
    pub fn arena_mut(&mut self) -> &mut [u8] {
        &mut self.arena
    }

    fn mark_initialized(&mut self, index: u64) {
        bit_set(&mut self.initialized, index);
    }
    // lint: end
}

impl TreeStore for MemStore {
    fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    fn bucket_bytes(&self) -> usize {
        self.bucket_bytes
    }

    #[inline]
    fn is_initialized(&self, index: u64) -> bool {
        bit_get(&self.initialized, index)
    }

    fn read_bucket_into(&self, index: u64, out: &mut [u8]) -> Result<(), OramError> {
        out.copy_from_slice(self.read_bucket(index));
        Ok(())
    }

    fn write_bucket(&mut self, index: u64, image: &[u8]) -> Result<(), OramError> {
        assert_eq!(
            image.len(),
            self.bucket_bytes,
            "bucket image must be exactly bucket_bytes long"
        );
        self.bucket_slot_mut(index).copy_from_slice(image);
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        popcount_bytes(&self.initialized, self.bucket_bytes)
    }

    fn tamper_xor(&mut self, index: u64, offset: usize, mask: u8) -> bool {
        if index as usize >= self.num_buckets
            || offset >= self.bucket_bytes
            || !self.is_initialized(index)
        {
            return false;
        }
        let start = self.range(index).start;
        self.arena[start + offset] ^= mask;
        true
    }

    fn snapshot_bucket(&self, index: u64) -> Vec<u8> {
        if self.is_initialized(index) {
            self.read_bucket(index).to_vec()
        } else {
            Vec::new()
        }
    }

    fn replay_bucket(&mut self, index: u64, snapshot: &[u8]) {
        assert!(
            snapshot.is_empty() || snapshot.len() == self.bucket_bytes,
            "snapshot must be a full bucket image"
        );
        if snapshot.is_empty() {
            let range = self.range(index);
            self.arena[range].fill(0);
            bit_clear(&mut self.initialized, index);
        } else {
            self.write_bucket(index, snapshot)
                .expect("arena writes are infallible");
        }
    }

    fn rollback_seed(&mut self, index: u64, delta: u64) -> bool {
        if !self.is_initialized(index) {
            return false;
        }
        let start = self.range(index).start;
        let header = &mut self.arena[start..start + 8];
        let seed = u64::from_le_bytes(header.try_into().expect("8-byte header"));
        header.copy_from_slice(&seed.wrapping_sub(delta).to_le_bytes());
        true
    }

    fn persist_to(&self, dir: &Path, label: u32) -> Result<(), OramError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
        let tree_path = tree_file_path(dir, label);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tree_path)
            .map_err(|e| io_err("creating", &tree_path, e))?;
        // The tree file carries bucket images at their subtree-layout
        // offsets: the arena is linear heap order, so this is a permuting
        // copy of the initialised buckets into a sparse file.
        let layout = SubtreeLayout::new(
            self.levels,
            self.bucket_bytes as u64,
            FILE_SUBTREE_LEVELS.min(self.levels),
            0,
        );
        file.set_len(layout.total_bytes())
            .map_err(|e| io_err("sizing", &tree_path, e))?;
        for index in 0..self.num_buckets as u64 {
            if !self.is_initialized(index) {
                continue;
            }
            let offset = layout.linear_bucket_address(index);
            file.write_all_at(self.read_bucket(index), offset)
                .map_err(|e| io_err_bucket("persist bucket", index, &tree_path, e))?;
        }
        file.sync_all()
            .map_err(|e| io_err("syncing", &tree_path, e))?;
        // A stale WAL beside the target would replay over the fresh tree on
        // resume; this snapshot is complete, so drop it.
        let _ = std::fs::remove_file(wal::wal_file_path(dir, label));
        write_tree_meta(
            &tree_meta_path(dir, label),
            self.num_buckets,
            self.bucket_bytes,
            FILE_SUBTREE_LEVELS.min(self.levels),
            &self.initialized,
            self.wal_seq,
        )
    }
}

// =====================================================================
// FileStore
// =====================================================================

/// The file-backed tree store: bucket images in one sparse file at their
/// [`dram_sim::SubtreeLayout`] offsets, accessed with positional I/O.
///
/// The initialised bitmap lives in memory while the store is live and is
/// written to the sidecar `tree<label>.meta` file by
/// [`TreeStore::persist_to`] and by WAL checkpoints.  Crash consistency
/// depends on the [`Durability`] discipline the store was built with:
/// under [`Durability::None`] the tree is consistent only at successful
/// `persist` boundaries (the pre-WAL behaviour); under `Batch`/`Strict`
/// every writeback is logged to `tree<label>.wal` before it is applied and
/// [`FileStore::open`] replays the checksum-valid log tail, so a kill at
/// any instant recovers to a consistent prefix of the access history.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    tree_path: PathBuf,
    dir: PathBuf,
    label: u32,
    layout: SubtreeLayout,
    initialized: Vec<u64>,
    bucket_bytes: usize,
    num_buckets: usize,
    /// Window staging for path reads and writebacks; allocated once so the
    /// steady-state access path stays allocation-free.
    stage: Stage,
    /// Set for [`StorageKind::TempFile`] stores: the directory is removed
    /// on drop.
    remove_on_drop: bool,
    /// The write-ahead log; `None` under [`Durability::None`], in which
    /// case the whole logging/checkpointing machinery is inert.
    wal: Option<Wal>,
    /// Sequence number of the last writeback applied to the tree (== the
    /// last WAL append when logging, frozen at its recovered value when
    /// not).
    wal_seq: u64,
    /// Writebacks since the last checkpoint fold.
    records_since_checkpoint: u64,
    /// Auto-checkpoint cadence in writebacks.
    checkpoint_interval: u64,
    /// Fault injection (kill-point suite): remaining bucket writes the
    /// tree file will accept before a simulated kill.
    fail_tree_writes_after: Option<u64>,
}

impl FileStore {
    /// Creates a **fresh** file-backed tree under `dir` (truncating any
    /// existing `tree<label>` files there).  Under a logged [`Durability`]
    /// the store also writes an initial (empty) checkpoint and opens a
    /// fresh WAL, so a kill before the first explicit `persist` already
    /// recovers instead of leaving an unreadable directory.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn create(
        params: &OramParams,
        dir: &Path,
        label: u32,
        durability: Durability,
    ) -> Result<Self, OramError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
        let tree_path = tree_file_path(dir, label);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tree_path)
            .map_err(|e| io_err("creating", &tree_path, e))?;
        let layout = file_layout(params);
        // A sparse file: the full tree geometry is reserved in the address
        // space, but unwritten regions occupy no disk blocks (the file
        // analogue of the arena's copy-on-write zero pages).
        file.set_len(layout.total_bytes())
            .map_err(|e| io_err("sizing", &tree_path, e))?;
        // A fresh tree owes nothing to any previous occupant of the
        // directory: a leftover log would replay a stranger's buckets.
        let _ = std::fs::remove_file(wal::wal_file_path(dir, label));
        let num_buckets = params.num_buckets() as usize;
        let stage = Stage::new(&layout, params.bucket_bytes());
        let mut store = Self {
            file,
            tree_path,
            dir: dir.to_path_buf(),
            label,
            layout,
            initialized: vec![0u64; num_buckets.div_ceil(64)],
            bucket_bytes: params.bucket_bytes(),
            num_buckets,
            stage,
            remove_on_drop: false,
            wal: None,
            wal_seq: 0,
            records_since_checkpoint: 0,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            fail_tree_writes_after: None,
        };
        if durability.is_logged() {
            store.checkpoint()?;
            store.wal = Some(Wal::create(
                &store.dir,
                label,
                store.bucket_bytes,
                0,
                durability,
            )?);
        }
        Ok(store)
    }

    /// Creates a fresh file-backed tree in a unique temporary directory
    /// that is removed when the store is dropped.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn create_temp(
        params: &OramParams,
        label: u32,
        durability: Durability,
    ) -> Result<Self, OramError> {
        let unique = format!(
            "oram-tree-{}-{}",
            std::process::id(),
            TEMP_STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let dir = std::env::temp_dir().join(unique);
        let mut store = Self::create(params, &dir, label, durability)?;
        store.remove_on_drop = true;
        Ok(store)
    }

    /// Reopens a persisted file-backed tree in place: the snapshot
    /// directory becomes (or stays) the live storage directory.
    ///
    /// Recovery happens here: if a `tree<label>.wal` is present its
    /// checksum-valid tail is replayed into the tree (stopping cleanly at
    /// the first torn or invalid record — the expected shape of a crash),
    /// the recovered state is folded into a fresh checkpoint, and — under
    /// a logged [`Durability`] — a new log generation is opened.  Replay is
    /// idempotent (records are full bucket post-images), so it does not
    /// matter how much of the log the tree file had already absorbed before
    /// the kill.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure, [`OramError::Snapshot`] /
    /// [`OramError::IntegrityViolation`] for missing or corrupt metadata.
    pub fn open(
        params: &OramParams,
        dir: &Path,
        label: u32,
        durability: Durability,
    ) -> Result<Self, OramError> {
        let num_buckets = params.num_buckets() as usize;
        let bucket_bytes = params.bucket_bytes();
        let (mut initialized, meta_seq) = read_tree_meta(
            &tree_meta_path(dir, label),
            num_buckets,
            bucket_bytes,
            FILE_SUBTREE_LEVELS.min(params.levels()),
        )?;
        let tree_path = tree_file_path(dir, label);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&tree_path)
            .map_err(|e| io_err("opening", &tree_path, e))?;
        let layout = file_layout(params);
        let actual = file
            .metadata()
            .map_err(|e| io_err("inspecting", &tree_path, e))?
            .len();
        if actual < layout.total_bytes() {
            return Err(OramError::Snapshot {
                detail: format!(
                    "tree file {} is short: {actual} bytes, expected {}",
                    tree_path.display(),
                    layout.total_bytes()
                ),
            });
        }
        // Replay the checksum-valid WAL tail (if any) over the tree file.
        let wal_path = wal::wal_file_path(dir, label);
        let summary = wal::replay(&wal_path, bucket_bytes, |seq, indices, images| {
            for (i, &index) in indices.iter().enumerate() {
                if index >= num_buckets as u64 {
                    return Err(OramError::Storage {
                        detail: format!(
                            "WAL record {seq} names bucket {index} outside the \
                             {num_buckets}-bucket tree @ {}",
                            wal_path.display()
                        ),
                    });
                }
                file.write_all_at(
                    &images[i * bucket_bytes..(i + 1) * bucket_bytes],
                    layout.linear_bucket_address(index),
                )
                .map_err(|e| io_err_bucket("replay bucket", index, &tree_path, e))?;
                bit_set(&mut initialized, index);
            }
            Ok(())
        })?;
        let mut wal_seq = meta_seq;
        if let Some(s) = &summary {
            if s.header_valid {
                wal_seq = wal_seq.max(s.last_seq);
            }
        }
        let stage = Stage::new(&layout, bucket_bytes);
        let mut store = Self {
            file,
            tree_path,
            dir: dir.to_path_buf(),
            label,
            layout,
            initialized,
            bucket_bytes,
            num_buckets,
            stage,
            remove_on_drop: false,
            wal: None,
            wal_seq,
            records_since_checkpoint: 0,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            fail_tree_writes_after: None,
        };
        if summary.is_some() {
            // Fold whatever the log contributed into a fresh checkpoint so
            // the recovered state stands on its own...
            store.checkpoint()?;
            if !durability.is_logged() {
                // ...and drop the log when the new discipline won't keep one.
                let _ = std::fs::remove_file(&wal_path);
            }
        }
        if durability.is_logged() {
            store.wal = Some(Wal::create(
                &store.dir,
                label,
                bucket_bytes,
                store.wal_seq,
                durability,
            )?);
        }
        Ok(store)
    }

    /// The directory holding this store's tree files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the last writeback applied to this tree.
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    /// Whether this store keeps a write-ahead log.
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// Folds the applied log into the on-disk checkpoint: flush the tree
    /// file, rewrite `tree<label>.meta` (atomically, see
    /// [`crate::snapshot::write_state_file`]) to cover sequence number
    /// `wal_seq`, then restart the log in place ([`Wal::restart`]: a new
    /// header, synced; the next records overwrite the old ones).  A crash
    /// between any two of these steps is safe: before the meta write the
    /// old checkpoint + full log still recover everything; after it the new
    /// checkpoint covers every record of the old generation, so an old, a
    /// torn or a new header all recover the same tree.
    ///
    /// Runs automatically every `checkpoint_interval` writebacks; callable
    /// directly for an explicit fold.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    // lint: no-panic
    pub fn checkpoint(&mut self) -> Result<(), OramError> {
        self.file
            .sync_all()
            .map_err(|e| io_err("syncing", &self.tree_path, e))?;
        write_tree_meta(
            &tree_meta_path(&self.dir, self.label),
            self.num_buckets,
            self.bucket_bytes,
            self.layout.subtree_levels(),
            &self.initialized,
            self.wal_seq,
        )?;
        if let Some(wal) = self.wal.as_mut() {
            wal.restart(self.wal_seq)?;
        }
        self.records_since_checkpoint = 0;
        Ok(())
    }
    // lint: end

    /// Overrides the auto-checkpoint cadence (clamped to ≥ 1).  Test
    /// harness hook; the default is [`DEFAULT_CHECKPOINT_INTERVAL`].
    #[doc(hidden)]
    pub fn set_checkpoint_interval(&mut self, records: u64) {
        self.checkpoint_interval = records.max(1);
    }

    /// Fault-injection hook (kill-point suite): permit at most `bytes`
    /// further WAL bytes, then fail appends leaving a torn record.  No-op
    /// without a WAL.
    #[doc(hidden)]
    pub fn set_fail_after_wal_bytes(&mut self, bytes: u64) {
        if let Some(wal) = self.wal.as_mut() {
            wal.set_crash_after_bytes(bytes);
        }
    }

    /// Fault-injection hook (kill-point suite): permit at most `writes`
    /// further bucket writes to the tree file, then fail.  Budgets are
    /// charged per bucket; a path window that would cross the budget fails
    /// before any of its bytes reach the file.
    #[doc(hidden)]
    pub fn set_fail_after_tree_writes(&mut self, writes: u64) {
        self.fail_tree_writes_after = Some(writes);
    }

    /// Charges `buckets` bucket writes against the fault-injection budget,
    /// failing (and exhausting it) when they do not all fit.
    fn charge_tree_writes(&mut self, buckets: u64, first_index: u64) -> Result<(), OramError> {
        let Some(budget) = self.fail_tree_writes_after else {
            return Ok(());
        };
        if budget < buckets {
            self.fail_tree_writes_after = Some(0);
            return Err(OramError::Storage {
                detail: format!(
                    "injected crash before tree write of bucket {first_index} @ {}",
                    self.tree_path.display()
                ),
            });
        }
        self.fail_tree_writes_after = Some(budget - buckets);
        Ok(())
    }

    #[inline]
    fn offset(&self, index: u64) -> u64 {
        self.layout.linear_bucket_address(index)
    }

    /// Sorts the buckets of `indices` by file offset into `runs` as
    /// `(offset, position in indices)` pairs; returns how many there are.
    // lint: ct-scope, no-alloc
    fn runs_by_offset(&self, indices: &[u64], runs: &mut [(u64, usize)]) -> usize {
        assert!(
            indices.len() <= runs.len(),
            "index list longer than the WAL record bound"
        );
        for (run, (level, &index)) in runs.iter_mut().zip(indices.iter().enumerate()) {
            *run = (self.offset(index), level);
        }
        runs[..indices.len()].sort_unstable();
        indices.len()
    }

    /// Writes `buf` (one image per index, at stride `bucket_bytes`) with one
    /// positional write per window (see [`windows`]).  The bytes between
    /// the buckets are the file's own current bytes — taken from the window
    /// the preceding path read staged, or read back first when no staged
    /// window contains this one — so the file ends up byte-identical to
    /// writing each bucket alone, and a torn window write rewrites the
    /// neighbours with what they already held.
    fn write_windows(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError> {
        let bb = self.bucket_bytes;
        let mut runs = [(0u64, 0usize); MAX_RECORD_BUCKETS];
        let n = self.runs_by_offset(indices, &mut runs);
        // Nothing counts as staged while the file is being written, so an
        // error part-way leaves the staging dropped.
        let staged = self.stage.valid.take();
        let mut coherent = true;
        for group in windows(&runs[..n], bb as u64, self.stage.window as u64) {
            let start = runs[group.start].0;
            let len = (runs[group.end - 1].0 - start) as usize + bb;
            let first_index = indices[runs[group.start].1];
            self.charge_tree_writes(group.len() as u64, first_index)?;
            let (slot, at) = match self.stage.containing(staged, start, len) {
                Some(slot) => (slot, (start - self.stage.spans[slot].0) as usize),
                None => {
                    // Not staged (an `end_batch` flush chunk, a write with
                    // no read before it): read the window's bytes first.
                    // It may overlap staged windows, which it makes stale.
                    coherent = false;
                    let spare = self.stage.spans.len();
                    self.file
                        .read_exact_at(&mut self.stage.slot_mut(spare)[..len], start)
                        .map_err(|e| {
                            io_err_bucket("write_path window read", first_index, &self.tree_path, e)
                        })?;
                    (spare, 0)
                }
            };
            let image = &mut self.stage.slot_mut(slot)[at..at + len];
            for &(offset, level) in &runs[group.start..group.end] {
                let rel = (offset - start) as usize;
                image[rel..rel + bb].copy_from_slice(&buf[level * bb..(level + 1) * bb]);
            }
            self.file
                .write_all_at(image, start)
                .map_err(|e| io_err_bucket("write_path window", first_index, &self.tree_path, e))?;
            for &(_, level) in &runs[group] {
                bit_set(&mut self.initialized, indices[level]);
            }
        }
        if coherent {
            self.stage.valid.set(staged);
        }
        Ok(())
    }
    // lint: end
}

impl Drop for FileStore {
    fn drop(&mut self) {
        if self.remove_on_drop {
            // Best-effort cleanup of a throwaway temp store.
            let _ = std::fs::remove_file(&self.tree_path);
            let _ = std::fs::remove_file(tree_meta_path(&self.dir, self.label));
            let _ = std::fs::remove_file(wal::wal_file_path(&self.dir, self.label));
            let _ = std::fs::remove_dir(&self.dir);
        }
    }
}

impl TreeStore for FileStore {
    fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    fn bucket_bytes(&self) -> usize {
        self.bucket_bytes
    }

    #[inline]
    fn is_initialized(&self, index: u64) -> bool {
        bit_get(&self.initialized, index)
    }

    fn read_bucket_into(&self, index: u64, out: &mut [u8]) -> Result<(), OramError> {
        debug_assert_eq!(out.len(), self.bucket_bytes);
        self.file
            .read_exact_at(out, self.offset(index))
            .map_err(|e| io_err_bucket("read_bucket", index, &self.tree_path, e))
    }

    fn write_bucket(&mut self, index: u64, image: &[u8]) -> Result<(), OramError> {
        assert_eq!(
            image.len(),
            self.bucket_bytes,
            "bucket image must be exactly bucket_bytes long"
        );
        self.charge_tree_writes(1, index)?;
        self.stage.drop_all();
        self.file
            .write_all_at(image, self.offset(index))
            .map_err(|e| io_err_bucket("write_bucket", index, &self.tree_path, e))?;
        bit_set(&mut self.initialized, index);
        Ok(())
    }

    // lint: ct-scope, no-alloc
    fn write_path(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError> {
        // WAL-before-tree: the sealed path image is appended (and, per the
        // fsync discipline, made durable) before the first in-place tree
        // write starts.  A kill anywhere in here leaves either a torn log
        // record (the writeback never happened) or a complete one (replay
        // finishes the tree writes on open).
        if let Some(wal) = self.wal.as_mut() {
            // lint: allow(no-alloc, `Wal::append` frames the record in its preallocated buffer; not `Vec::append`)
            self.wal_seq = wal.append(indices, buf)?;
        }
        self.write_windows(indices, buf)?;
        if self.wal.is_some() {
            self.records_since_checkpoint += 1;
            if self.records_since_checkpoint >= self.checkpoint_interval {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    fn read_path_into(&mut self, indices: &[u64], buf: &mut [u8]) -> Result<(), OramError> {
        // Coalesced path read: sort the buckets by file offset and read each
        // window (see `windows`) with a single positional read — at most
        // ⌈levels/k⌉ reads for a root-to-leaf path.  Windows cover every
        // bucket of the list, initialised or not, so which bytes are read
        // depends on the index list (the leaf) alone.  A window may cover
        // buckets of *other* paths; their bytes are never copied out, but
        // each window stays staged so the writeback can rewrite it whole.
        let bb = self.bucket_bytes;
        let mut runs = [(0u64, 0usize); MAX_RECORD_BUCKETS];
        let n = self.runs_by_offset(indices, &mut runs);
        self.stage.drop_all();
        let slots = self.stage.spans.len();
        let mut staged = 0;
        for group in windows(&runs[..n], bb as u64, self.stage.window as u64) {
            let start = runs[group.start].0;
            let len = (runs[group.end - 1].0 - start) as usize + bb;
            // A list with more windows than a path has reads the surplus
            // through the spare slot, unstaged.
            let slot = staged.min(slots);
            let chunk = &mut self.stage.slot_mut(slot)[..len];
            self.file
                .read_exact_at(chunk, start)
                .map_err(|e| io_err("reading path extent from", &self.tree_path, e))?;
            for &(offset, level) in &runs[group] {
                if bit_get(&self.initialized, indices[level]) {
                    let rel = (offset - start) as usize;
                    buf[level * bb..(level + 1) * bb].copy_from_slice(&chunk[rel..rel + bb]);
                }
            }
            if slot < slots {
                self.stage.spans[slot] = (start, len);
                staged += 1;
            }
        }
        self.stage.valid.set(staged);
        Ok(())
    }
    // lint: end

    fn resident_bytes(&self) -> u64 {
        popcount_bytes(&self.initialized, self.bucket_bytes)
    }

    fn tamper_xor(&mut self, index: u64, offset: usize, mask: u8) -> bool {
        if index as usize >= self.num_buckets
            || offset >= self.bucket_bytes
            || !self.is_initialized(index)
        {
            return false;
        }
        self.stage.drop_all();
        let pos = self.offset(index) + offset as u64;
        let mut byte = [0u8];
        if self.file.read_exact_at(&mut byte, pos).is_err() {
            return false;
        }
        byte[0] ^= mask;
        self.file.write_all_at(&byte, pos).is_ok()
    }

    fn snapshot_bucket(&self, index: u64) -> Vec<u8> {
        if !self.is_initialized(index) {
            return Vec::new();
        }
        let mut out = vec![0u8; self.bucket_bytes];
        self.read_bucket_into(index, &mut out)
            .expect("snapshotting an initialised bucket");
        out
    }

    fn replay_bucket(&mut self, index: u64, snapshot: &[u8]) {
        assert!(
            snapshot.is_empty() || snapshot.len() == self.bucket_bytes,
            "snapshot must be a full bucket image"
        );
        if snapshot.is_empty() {
            self.stage.drop_all();
            let zeros = vec![0u8; self.bucket_bytes];
            self.file
                .write_all_at(&zeros, self.offset(index))
                .expect("zeroing a bucket on replay");
            bit_clear(&mut self.initialized, index);
        } else {
            self.write_bucket(index, snapshot)
                .expect("replaying a bucket image");
        }
    }

    fn rollback_seed(&mut self, index: u64, delta: u64) -> bool {
        if !self.is_initialized(index) {
            return false;
        }
        self.stage.drop_all();
        let pos = self.offset(index);
        let mut header = [0u8; 8];
        if self.file.read_exact_at(&mut header, pos).is_err() {
            return false;
        }
        let seed = u64::from_le_bytes(header);
        self.file
            .write_all_at(&seed.wrapping_sub(delta).to_le_bytes(), pos)
            .is_ok()
    }

    fn persist_to(&self, dir: &Path, label: u32) -> Result<(), OramError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
        let target = tree_file_path(dir, label);
        let in_place = match (
            std::fs::canonicalize(&target),
            std::fs::canonicalize(&self.tree_path),
        ) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        if in_place {
            self.file
                .sync_all()
                .map_err(|e| io_err("syncing", &self.tree_path, e))?;
            // The live log, without the stale tail earlier generations left
            // behind: a persisted directory holds exactly what it needs.
            if let Some(wal) = &self.wal {
                wal.trim()?;
            }
        } else {
            // Persisting into a different directory: copy the initialised
            // buckets into a fresh sparse file at the same offsets.
            let out = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&target)
                .map_err(|e| io_err("creating", &target, e))?;
            out.set_len(self.layout.total_bytes())
                .map_err(|e| io_err("sizing", &target, e))?;
            let mut buf = vec![0u8; self.bucket_bytes];
            for index in 0..self.num_buckets as u64 {
                if !self.is_initialized(index) {
                    continue;
                }
                self.read_bucket_into(index, &mut buf)?;
                out.write_all_at(&buf, self.offset(index))
                    .map_err(|e| io_err_bucket("persist bucket", index, &target, e))?;
            }
            out.sync_all().map_err(|e| io_err("syncing", &target, e))?;
            // The copy is complete as of wal_seq; a stale log beside the
            // target would replay foreign buckets over it on resume.
            let _ = std::fs::remove_file(wal::wal_file_path(dir, label));
        }
        // In place, the live records stay: replay is idempotent, and the
        // meta written below covers everything applied so far anyway.
        write_tree_meta(
            &tree_meta_path(dir, label),
            self.num_buckets,
            self.bucket_bytes,
            self.layout.subtree_levels(),
            &self.initialized,
            self.wal_seq,
        )
    }
}

// =====================================================================
// TieredStore
// =====================================================================

/// Number of tree levels a treetop byte budget pins in RAM: the largest
/// `K ≤ levels` with `(2^K - 1) * bucket_bytes ≤ memory_budget` (the top
/// `K` levels occupy linear bucket indices `0 .. 2^K - 1`).  `K = 0`
/// degenerates to a pure file store, `K = levels` to a RAM-resident tree
/// that only touches disk at checkpoints.
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

/// The tiered tree store: the top `K` levels in a RAM arena, levels ≥ `K`
/// in a [`FileStore`] spanning the *whole* tree file.
///
/// The paper's treetop observation (§5.1) is that the top of the tree is
/// touched on **every** access — level `ℓ` has only `2^ℓ` buckets, so a
/// small, fixed byte budget pins the levels with all the reuse while the
/// exponentially larger bottom levels (with almost none) stay on disk.
/// Because a path's linear bucket indices are `2^ℓ - 1 ≤ index < 2^{ℓ+1}-1`
/// at level `ℓ`, "level < K" is exactly "linear index < 2^K - 1": tier
/// routing is one comparison, and a root-to-leaf path splits into a
/// contiguous arena prefix plus a contiguous file suffix.
///
/// # Tier invariants
///
/// * The inner [`FileStore`] is laid out for the **full** tree (same sparse
///   file, same subtree layout, same sidecar metadata as a pure file
///   store), so tiered snapshots stay interchangeable with both other
///   stores.  Treetop regions of the file are only guaranteed current at
///   checkpoint/persist boundaries.
/// * Between checkpoints the arena is authoritative for treetop buckets;
///   the dirty bitmap records which arena images the file does not have
///   yet.  [`TieredStore::checkpoint`] and [`TreeStore::persist_to`] flush
///   them before delegating to the file store.
/// * The initialised bitmap lives in the inner file store (one bitmap for
///   the whole tree), so metadata checkpoints cover both tiers.
///
/// # Why WAL exemption of the treetop is crash-safe
///
/// Deep writebacks go through [`FileStore::write_path`] and are logged
/// under a logged [`Durability`]; treetop writes land only in RAM and are
/// **not** logged — logging them would reintroduce the per-access I/O the
/// tier exists to remove.  Crash safety is preserved because recovery can
/// never *silently* serve a stale treetop: the controller snapshot records
/// the WAL sequence barrier at persist time, persist/checkpoint flush the
/// treetop before advertising that barrier, and
/// `PathOramBackend::load_controller_state` refuses any store whose
/// recovered sequence number differs from the barrier.  A kill between
/// persists therefore recovers to the last completed persist/checkpoint
/// (where the tiers were mutually consistent) or is rejected with a
/// descriptive error — never to a tree whose deep levels have advanced past
/// its treetop.
#[derive(Debug)]
pub struct TieredStore {
    /// The spill tier, spanning the whole tree file; also owns the
    /// initialised bitmap, the WAL and the checkpoint machinery.
    file: FileStore,
    /// The treetop arena: bucket `i < treetop_buckets` lives at
    /// `[i * bucket_bytes, (i+1) * bucket_bytes)`, exactly like a
    /// [`MemStore`] arena truncated to the top levels.
    top: Vec<u8>,
    /// One bit per treetop bucket: the arena image is newer than the tree
    /// file (cleared by [`TieredStore::checkpoint`]).
    top_dirty: Vec<u64>,
    /// `2^K - 1`: buckets with linear index below this live in the arena.
    treetop_buckets: u64,
    /// `K`, the number of RAM-resident levels.
    treetop_levels: u32,
    /// The byte budget `K` was derived from (echoed into snapshots by the
    /// config codecs).
    memory_budget: u64,
}

impl TieredStore {
    fn from_file(params: &OramParams, file: FileStore, memory_budget: u64) -> Self {
        let treetop_levels = treetop_levels_for_budget(params, memory_budget);
        let treetop_buckets =
            (((1u64 << treetop_levels) - 1) as usize).min(file.num_buckets) as u64;
        Self {
            top: vec![0u8; treetop_buckets as usize * file.bucket_bytes],
            top_dirty: vec![0u64; (treetop_buckets as usize).div_ceil(64)],
            treetop_buckets,
            treetop_levels,
            memory_budget,
            file,
        }
    }

    /// Creates a **fresh** tiered tree under `dir` (truncating any existing
    /// `tree<label>` files there); see [`FileStore::create`] for the
    /// durability semantics of the spill tier.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn create(
        params: &OramParams,
        dir: &Path,
        label: u32,
        durability: Durability,
        memory_budget: u64,
    ) -> Result<Self, OramError> {
        let file = FileStore::create(params, dir, label, durability)?;
        Ok(Self::from_file(params, file, memory_budget))
    }

    /// Creates a fresh tiered tree in a unique temporary directory that is
    /// removed when the store is dropped.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn create_temp(
        params: &OramParams,
        label: u32,
        durability: Durability,
        memory_budget: u64,
    ) -> Result<Self, OramError> {
        let file = FileStore::create_temp(params, label, durability)?;
        Ok(Self::from_file(params, file, memory_budget))
    }

    /// Reopens a persisted tree in place as a tiered store: the file tier
    /// recovers exactly as [`FileStore::open`] (WAL tail replay included),
    /// then the initialised treetop buckets are loaded from the tree file
    /// into the arena.  Tiered, file-backed and in-memory snapshots share
    /// one on-disk format, so any of them can be reopened tiered.
    ///
    /// # Errors
    ///
    /// As for [`FileStore::open`].
    pub fn open(
        params: &OramParams,
        dir: &Path,
        label: u32,
        durability: Durability,
        memory_budget: u64,
    ) -> Result<Self, OramError> {
        let file = FileStore::open(params, dir, label, durability)?;
        let mut store = Self::from_file(params, file, memory_budget);
        let bb = store.file.bucket_bytes;
        for index in 0..store.treetop_buckets {
            if !bit_get(&store.file.initialized, index) {
                continue;
            }
            let range = index as usize * bb..(index as usize + 1) * bb;
            store
                .file
                .file
                .read_exact_at(&mut store.top[range], store.file.offset(index))
                .map_err(|e| {
                    io_err_bucket("load treetop bucket", index, &store.file.tree_path, e)
                })?;
        }
        Ok(store)
    }

    /// The directory holding this store's tree files.
    pub fn dir(&self) -> &Path {
        self.file.dir()
    }

    /// Sequence number of the last *logged* writeback applied to this tree
    /// (treetop writes are WAL-exempt; see the type-level docs).
    pub fn wal_seq(&self) -> u64 {
        self.file.wal_seq()
    }

    /// Whether the spill tier keeps a write-ahead log.
    pub fn has_wal(&self) -> bool {
        self.file.has_wal()
    }

    /// Number of RAM-resident levels (`K`).
    pub fn treetop_levels(&self) -> u32 {
        self.treetop_levels
    }

    /// Number of RAM-resident buckets (`2^K - 1`).
    pub fn treetop_buckets(&self) -> u64 {
        self.treetop_buckets
    }

    /// The byte budget the treetop split was derived from.
    pub fn memory_budget(&self) -> u64 {
        self.memory_budget
    }

    #[inline]
    fn is_treetop(&self, index: u64) -> bool {
        index < self.treetop_buckets
    }

    // lint: ct-scope, no-alloc
    #[inline]
    fn top_range(&self, index: u64) -> std::ops::Range<usize> {
        let start = index as usize * self.file.bucket_bytes;
        start..start + self.file.bucket_bytes
    }
    // lint: end

    /// Writes every dirty (or, for `clear_dirty = false` callers on the
    /// `&self` persist path, every since-flush-dirty) treetop image into
    /// the tree file without touching the dirty bitmap.  Positional writes
    /// only, so it works from `&self`; idempotent, so leaving bits set and
    /// re-flushing later is safe.
    fn write_dirty_treetop_to_file(&self) -> Result<(), OramError> {
        // These writes bypass the file store's window staging.
        self.file.stage.drop_all();
        let bb = self.file.bucket_bytes;
        for index in 0..self.treetop_buckets {
            if !bit_get(&self.top_dirty, index) {
                continue;
            }
            let image = &self.top[index as usize * bb..(index as usize + 1) * bb];
            self.file
                .file
                .write_all_at(image, self.file.offset(index))
                .map_err(|e| {
                    io_err_bucket("flush treetop bucket", index, &self.file.tree_path, e)
                })?;
        }
        Ok(())
    }

    /// Folds the treetop into the spill tier and checkpoints: flush every
    /// dirty arena image into the tree file, then run the file store's
    /// checkpoint (sync, metadata rewrite, log restart — see
    /// [`FileStore::checkpoint`]).  After this returns, the on-disk state
    /// alone reconstructs both tiers.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn checkpoint(&mut self) -> Result<(), OramError> {
        self.write_dirty_treetop_to_file()?;
        self.top_dirty.fill(0);
        self.file.checkpoint()
    }

    /// See [`FileStore::set_checkpoint_interval`].
    #[doc(hidden)]
    pub fn set_checkpoint_interval(&mut self, records: u64) {
        self.file.set_checkpoint_interval(records);
    }

    /// See [`FileStore::set_fail_after_wal_bytes`].
    #[doc(hidden)]
    pub fn set_fail_after_wal_bytes(&mut self, bytes: u64) {
        self.file.set_fail_after_wal_bytes(bytes);
    }

    /// See [`FileStore::set_fail_after_tree_writes`].
    #[doc(hidden)]
    pub fn set_fail_after_tree_writes(&mut self, writes: u64) {
        self.file.set_fail_after_tree_writes(writes);
    }
}

impl TreeStore for TieredStore {
    fn num_buckets(&self) -> usize {
        self.file.num_buckets
    }

    fn bucket_bytes(&self) -> usize {
        self.file.bucket_bytes
    }

    #[inline]
    fn is_initialized(&self, index: u64) -> bool {
        bit_get(&self.file.initialized, index)
    }

    fn read_bucket_into(&self, index: u64, out: &mut [u8]) -> Result<(), OramError> {
        if self.is_treetop(index) {
            out.copy_from_slice(&self.top[self.top_range(index)]);
            Ok(())
        } else {
            self.file.read_bucket_into(index, out)
        }
    }

    fn write_bucket(&mut self, index: u64, image: &[u8]) -> Result<(), OramError> {
        if self.is_treetop(index) {
            assert_eq!(
                image.len(),
                self.file.bucket_bytes,
                "bucket image must be exactly bucket_bytes long"
            );
            let range = self.top_range(index);
            self.top[range].copy_from_slice(image);
            bit_set(&mut self.top_dirty, index);
            bit_set(&mut self.file.initialized, index);
            Ok(())
        } else {
            self.file.write_bucket(index, image)
        }
    }

    // lint: ct-scope, no-alloc
    fn read_path_into(&mut self, indices: &[u64], buf: &mut [u8]) -> Result<(), OramError> {
        // A root-to-leaf path is a contiguous arena prefix (levels < K)
        // followed by a contiguous file suffix (levels ≥ K): serve the
        // prefix with memcpys, hand the suffix to the file store's
        // extent-coalescing read in one call.  Arbitrary (non-path) index
        // sets — the general trait contract — fall back to routed
        // per-bucket reads.
        let bb = self.file.bucket_bytes;
        let split = indices
            .iter()
            .position(|&i| !self.is_treetop(i))
            .unwrap_or(indices.len());
        for (level, &index) in indices[..split].iter().enumerate() {
            if self.is_initialized(index) {
                let range = self.top_range(index);
                buf[level * bb..(level + 1) * bb].copy_from_slice(&self.top[range]);
            }
        }
        let deep = &indices[split..];
        if deep.iter().all(|&i| !self.is_treetop(i)) {
            self.file.read_path_into(deep, &mut buf[split * bb..])
        } else {
            for (off, &index) in deep.iter().enumerate() {
                let level = split + off;
                if self.is_initialized(index) {
                    self.read_bucket_into(index, &mut buf[level * bb..(level + 1) * bb])?;
                }
            }
            Ok(())
        }
    }

    fn write_path(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError> {
        // Mirror of `read_path_into`: arena prefix, then the deep suffix as
        // one file-store path write — which is where the WAL record is cut,
        // so the log carries only the spill tier's buckets (the treetop's
        // WAL exemption; see the type-level docs).
        let bb = self.file.bucket_bytes;
        let split = indices
            .iter()
            .position(|&i| !self.is_treetop(i))
            .unwrap_or(indices.len());
        for (level, &index) in indices[..split].iter().enumerate() {
            let range = self.top_range(index);
            self.top[range].copy_from_slice(&buf[level * bb..(level + 1) * bb]);
            bit_set(&mut self.top_dirty, index);
            bit_set(&mut self.file.initialized, index);
        }
        let deep = &indices[split..];
        if deep.is_empty() {
            Ok(())
        } else if deep.iter().all(|&i| !self.is_treetop(i)) {
            self.file.write_path(deep, &buf[split * bb..])
        } else {
            for (off, &index) in deep.iter().enumerate() {
                let level = split + off;
                self.write_bucket(index, &buf[level * bb..(level + 1) * bb])?;
            }
            Ok(())
        }
    }
    // lint: end

    fn resident_bytes(&self) -> u64 {
        popcount_bytes(&self.file.initialized, self.file.bucket_bytes)
    }

    fn tamper_xor(&mut self, index: u64, offset: usize, mask: u8) -> bool {
        if self.is_treetop(index) {
            if offset >= self.file.bucket_bytes || !self.is_initialized(index) {
                return false;
            }
            let start = self.top_range(index).start;
            self.top[start + offset] ^= mask;
            bit_set(&mut self.top_dirty, index);
            true
        } else {
            self.file.tamper_xor(index, offset, mask)
        }
    }

    fn snapshot_bucket(&self, index: u64) -> Vec<u8> {
        if self.is_treetop(index) {
            if self.is_initialized(index) {
                self.top[self.top_range(index)].to_vec()
            } else {
                Vec::new()
            }
        } else {
            self.file.snapshot_bucket(index)
        }
    }

    fn replay_bucket(&mut self, index: u64, snapshot: &[u8]) {
        if self.is_treetop(index) {
            assert!(
                snapshot.is_empty() || snapshot.len() == self.file.bucket_bytes,
                "snapshot must be a full bucket image"
            );
            let range = self.top_range(index);
            if snapshot.is_empty() {
                self.top[range].fill(0);
                bit_clear(&mut self.file.initialized, index);
                // The file may still hold stale bytes for this bucket, but
                // the cleared initialised bit masks them everywhere (reads,
                // loads, persisted bitmaps), matching MemStore semantics.
                bit_set(&mut self.top_dirty, index);
            } else {
                self.top[range].copy_from_slice(snapshot);
                bit_set(&mut self.top_dirty, index);
                bit_set(&mut self.file.initialized, index);
            }
        } else {
            self.file.replay_bucket(index, snapshot);
        }
    }

    fn rollback_seed(&mut self, index: u64, delta: u64) -> bool {
        if self.is_treetop(index) {
            if !self.is_initialized(index) {
                return false;
            }
            let start = self.top_range(index).start;
            let header = &mut self.top[start..start + 8];
            let seed = u64::from_le_bytes(header.try_into().expect("8-byte header"));
            header.copy_from_slice(&seed.wrapping_sub(delta).to_le_bytes());
            bit_set(&mut self.top_dirty, index);
            true
        } else {
            self.file.rollback_seed(index, delta)
        }
    }

    fn persist_to(&self, dir: &Path, label: u32) -> Result<(), OramError> {
        // Flush the treetop into the live tree file first (positional
        // writes work from `&self`; the dirty bitmap stays set, which is
        // harmless — re-flushing an image already in the file is
        // idempotent).  After that the inner file store holds the complete
        // tree and its persist logic covers both the in-place and the
        // copy-to-other-directory cases.
        self.write_dirty_treetop_to_file()?;
        self.file.persist_to(dir, label)
    }
}

// =====================================================================
// TreeStorage: the enum the backend holds.
// =====================================================================

/// Untrusted tree storage behind the [`TreeStore`] seam: the in-memory
/// arena, the file-backed store, or the tiered treetop split, dispatched
/// statically.
///
/// All trait methods are also available as inherent methods (delegating),
/// so existing call sites — in particular the adversary API used by tests
/// and examples — keep working without importing the trait.
// One instance exists per ORAM tree, so the size gap between the slim
// arena handle and the WAL-carrying file store is irrelevant; boxing the
// file variant would buy nothing but an extra indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum TreeStorage {
    /// In-memory arena.
    Mem(MemStore),
    /// File-backed store.
    File(FileStore),
    /// Tiered treetop-in-RAM store.
    Tiered(TieredStore),
}

macro_rules! delegate {
    ($self:ident, $store:ident => $body:expr) => {
        match $self {
            TreeStorage::Mem($store) => $body,
            TreeStorage::File($store) => $body,
            TreeStorage::Tiered($store) => $body,
        }
    };
}

impl TreeStorage {
    /// Allocates in-memory storage for the tree described by `params`
    /// (back-compatible constructor; use [`TreeStorage::create`] to choose
    /// the store kind).
    pub fn new(params: &OramParams) -> Self {
        TreeStorage::Mem(MemStore::new(params))
    }

    /// Creates a fresh store of the given kind.  `label` distinguishes
    /// several trees sharing one directory (the recursive frontend's
    /// per-level ORAMs).  `durability` selects the WAL discipline for
    /// file-backed kinds; memory stores have nothing to log and ignore it.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure creating file-backed stores.
    pub fn create(
        params: &OramParams,
        kind: &StorageKind,
        label: u32,
        durability: Durability,
    ) -> Result<Self, OramError> {
        Ok(match kind {
            StorageKind::Mem => TreeStorage::Mem(MemStore::new(params)),
            StorageKind::File { dir } => {
                TreeStorage::File(FileStore::create(params, dir, label, durability)?)
            }
            StorageKind::TempFile => {
                TreeStorage::File(FileStore::create_temp(params, label, durability)?)
            }
            StorageKind::Tiered { dir, memory_budget } => TreeStorage::Tiered(TieredStore::create(
                params,
                dir,
                label,
                durability,
                *memory_budget,
            )?),
            StorageKind::TempTiered { memory_budget } => TreeStorage::Tiered(
                TieredStore::create_temp(params, label, durability, *memory_budget)?,
            ),
        })
    }

    /// Opens a store over tree files persisted under `dir`: memory stores
    /// load the buckets into a fresh arena, file stores reopen the files in
    /// place (the snapshot directory becomes the live directory).  Either
    /// way, a checksum-valid WAL tail left behind by a crash is replayed
    /// first (see [`FileStore::open`]).
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure, [`OramError::Snapshot`] /
    /// [`OramError::IntegrityViolation`] for missing or corrupt metadata.
    pub fn open_snapshot(
        params: &OramParams,
        kind: &StorageKind,
        dir: &Path,
        label: u32,
        durability: Durability,
    ) -> Result<Self, OramError> {
        Ok(match kind {
            StorageKind::Mem => TreeStorage::Mem(MemStore::load(params, dir, label)?),
            StorageKind::File { dir: file_dir } => {
                TreeStorage::File(FileStore::open(params, file_dir, label, durability)?)
            }
            StorageKind::Tiered {
                dir: file_dir,
                memory_budget,
            } => TreeStorage::Tiered(TieredStore::open(
                params,
                file_dir,
                label,
                durability,
                *memory_budget,
            )?),
            StorageKind::TempFile | StorageKind::TempTiered { .. } => {
                return Err(OramError::Snapshot {
                    detail: "cannot resume a snapshot into a temporary store; \
                             use StorageKind::File, StorageKind::Tiered or \
                             StorageKind::Mem"
                        .into(),
                })
            }
        })
    }

    /// The memory store, if that is what this is — the backend's zero-copy
    /// fast path keys off this.
    #[inline]
    pub fn as_mem(&self) -> Option<&MemStore> {
        match self {
            TreeStorage::Mem(m) => Some(m),
            TreeStorage::File(_) | TreeStorage::Tiered(_) => None,
        }
    }

    /// Mutable variant of [`TreeStorage::as_mem`].
    #[inline]
    pub fn as_mem_mut(&mut self) -> Option<&mut MemStore> {
        match self {
            TreeStorage::Mem(m) => Some(m),
            TreeStorage::File(_) | TreeStorage::Tiered(_) => None,
        }
    }

    /// The tiered store, if that is what this is (diagnostics: treetop
    /// geometry introspection for tests and benchmarks).
    #[inline]
    pub fn as_tiered(&self) -> Option<&TieredStore> {
        match self {
            TreeStorage::Tiered(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the tree lives (at least partly) in files.
    pub fn is_file_backed(&self) -> bool {
        matches!(self, TreeStorage::File(_) | TreeStorage::Tiered(_))
    }

    // Inherent delegations so call sites don't need the trait in scope.

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        delegate!(self, s => TreeStore::num_buckets(s))
    }

    /// Serialised bucket size in bytes.
    pub fn bucket_bytes(&self) -> usize {
        delegate!(self, s => TreeStore::bucket_bytes(s))
    }

    /// Whether a bucket has ever been written.
    #[inline]
    pub fn is_initialized(&self, index: u64) -> bool {
        delegate!(self, s => s.is_initialized(index))
    }

    /// See [`TreeStore::read_bucket_into`].
    ///
    /// # Errors
    ///
    /// As for [`TreeStore::read_bucket_into`].
    pub fn read_bucket_into(&self, index: u64, out: &mut [u8]) -> Result<(), OramError> {
        delegate!(self, s => s.read_bucket_into(index, out))
    }

    /// See [`TreeStore::write_bucket`].
    ///
    /// # Errors
    ///
    /// As for [`TreeStore::write_bucket`].
    pub fn write_bucket(&mut self, index: u64, image: &[u8]) -> Result<(), OramError> {
        delegate!(self, s => s.write_bucket(index, image))
    }

    /// See [`TreeStore::read_path_into`].
    ///
    /// # Errors
    ///
    /// As for [`TreeStore::read_path_into`].
    pub fn read_path_into(&mut self, indices: &[u64], buf: &mut [u8]) -> Result<(), OramError> {
        delegate!(self, s => s.read_path_into(indices, buf))
    }

    /// See [`TreeStore::write_path`].
    ///
    /// # Errors
    ///
    /// As for [`TreeStore::write_path`].
    pub fn write_path(&mut self, indices: &[u64], buf: &[u8]) -> Result<(), OramError> {
        delegate!(self, s => s.write_path(indices, buf))
    }

    /// See [`TreeStore::resident_bytes`].
    pub fn resident_bytes(&self) -> u64 {
        delegate!(self, s => s.resident_bytes())
    }

    /// See [`TreeStore::tamper_xor`].
    pub fn tamper_xor(&mut self, index: u64, offset: usize, mask: u8) -> bool {
        delegate!(self, s => s.tamper_xor(index, offset, mask))
    }

    /// See [`TreeStore::snapshot_bucket`].
    pub fn snapshot_bucket(&self, index: u64) -> Vec<u8> {
        delegate!(self, s => s.snapshot_bucket(index))
    }

    /// See [`TreeStore::replay_bucket`].
    pub fn replay_bucket(&mut self, index: u64, snapshot: &[u8]) {
        delegate!(self, s => s.replay_bucket(index, snapshot))
    }

    /// See [`TreeStore::rollback_seed`].
    pub fn rollback_seed(&mut self, index: u64, delta: u64) -> bool {
        delegate!(self, s => s.rollback_seed(index, delta))
    }

    /// See [`TreeStore::persist_to`].
    ///
    /// # Errors
    ///
    /// As for [`TreeStore::persist_to`].
    pub fn persist_to(&self, dir: &Path, label: u32) -> Result<(), OramError> {
        delegate!(self, s => s.persist_to(dir, label))
    }

    /// Sequence number of the last writeback this store's contents cover
    /// (0 for stores that never logged; see [`FileStore::wal_seq`] and
    /// [`MemStore::wal_seq`]).  The controller barrier recorded in
    /// snapshots compares against this on resume.
    pub fn wal_seq(&self) -> u64 {
        match self {
            TreeStorage::Mem(m) => m.wal_seq(),
            TreeStorage::File(f) => f.wal_seq(),
            TreeStorage::Tiered(t) => t.wal_seq(),
        }
    }

    /// Explicit WAL checkpoint fold (see [`FileStore::checkpoint`] and
    /// [`TieredStore::checkpoint`]); a no-op for memory stores.
    ///
    /// # Errors
    ///
    /// As for [`FileStore::checkpoint`].
    pub fn checkpoint(&mut self) -> Result<(), OramError> {
        match self {
            TreeStorage::Mem(_) => Ok(()),
            TreeStorage::File(f) => f.checkpoint(),
            TreeStorage::Tiered(t) => t.checkpoint(),
        }
    }

    /// See [`FileStore::set_checkpoint_interval`]; no-op for memory stores.
    #[doc(hidden)]
    pub fn set_checkpoint_interval(&mut self, records: u64) {
        match self {
            TreeStorage::Mem(_) => {}
            TreeStorage::File(f) => f.set_checkpoint_interval(records),
            TreeStorage::Tiered(t) => t.set_checkpoint_interval(records),
        }
    }

    /// See [`FileStore::set_fail_after_wal_bytes`]; no-op for memory stores.
    #[doc(hidden)]
    pub fn set_fail_after_wal_bytes(&mut self, bytes: u64) {
        match self {
            TreeStorage::Mem(_) => {}
            TreeStorage::File(f) => f.set_fail_after_wal_bytes(bytes),
            TreeStorage::Tiered(t) => t.set_fail_after_wal_bytes(bytes),
        }
    }

    /// See [`FileStore::set_fail_after_tree_writes`]; no-op for memory
    /// stores.
    #[doc(hidden)]
    pub fn set_fail_after_tree_writes(&mut self, writes: u64) {
        match self {
            TreeStorage::Mem(_) => {}
            TreeStorage::File(f) => f.set_fail_after_tree_writes(writes),
            TreeStorage::Tiered(t) => t.set_fail_after_tree_writes(writes),
        }
    }
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

    /// Runs the shared store-contract checks against any store.
    fn check_store_contract(s: &mut dyn TreeStore) {
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
        let mut s = MemStore::new(&params());
        check_store_contract(&mut s);
    }

    #[test]
    fn file_store_satisfies_the_contract() {
        let mut s = FileStore::create_temp(&params(), 0, Durability::None).unwrap();
        check_store_contract(&mut s);
    }

    #[test]
    fn mem_store_zero_copy_accessors_still_work() {
        let p = params();
        let mut s = MemStore::new(&p);
        s.bucket_slot_mut(5)[0] = 0xAB;
        assert!(s.is_initialized(5));
        assert_eq!(s.read_bucket(5)[0], 0xAB);
        assert_eq!(s.bucket_offset(5), 5 * s.bucket_bytes());
        // Adjacent buckets sit back to back in the arena.
        for idx in 0..s.num_buckets() as u64 {
            let image = vec![idx as u8 + 1; s.bucket_bytes()];
            s.write_bucket(idx, &image).unwrap();
        }
        for idx in 0..s.num_buckets() as u64 {
            assert!(s.read_bucket(idx).iter().all(|&b| b == idx as u8 + 1));
        }
    }

    #[test]
    #[should_panic(expected = "bucket_bytes")]
    fn mem_store_rejects_wrong_size_image() {
        let mut s = MemStore::new(&params());
        let _ = s.write_bucket(0, &[0u8; 3]);
    }

    #[test]
    #[should_panic(expected = "bucket_bytes")]
    fn file_store_rejects_wrong_size_image() {
        let mut s = FileStore::create_temp(&params(), 0, Durability::None).unwrap();
        let _ = s.write_bucket(0, &[0u8; 3]);
    }

    #[test]
    fn stores_persist_into_a_common_interchangeable_format() {
        let p = params();
        let dir_a = temp_dir("interchange-a");
        let dir_b = temp_dir("interchange-b");

        // Populate a mem store and persist it.
        let mut mem = MemStore::new(&p);
        let image_a = vec![0xA1; mem.bucket_bytes()];
        let image_b = vec![0xB2; mem.bucket_bytes()];
        mem.write_bucket(1, &image_a).unwrap();
        mem.write_bucket(30, &image_b).unwrap();
        mem.persist_to(&dir_a, 0).unwrap();

        // Resume it file-backed, verify contents, mutate, persist elsewhere.
        let mut file = FileStore::open(&p, &dir_a, 0, Durability::None).unwrap();
        let mut out = vec![0u8; file.bucket_bytes()];
        file.read_bucket_into(1, &mut out).unwrap();
        assert_eq!(out, image_a);
        file.read_bucket_into(30, &mut out).unwrap();
        assert_eq!(out, image_b);
        assert!(!file.is_initialized(2));
        let image_c = vec![0xC3; file.bucket_bytes()];
        file.write_bucket(2, &image_c).unwrap();
        file.persist_to(&dir_b, 0).unwrap();

        // Resume *that* as a mem store.
        let mem2 = MemStore::load(&p, &dir_b, 0).unwrap();
        assert_eq!(mem2.read_bucket(1), &image_a[..]);
        assert_eq!(mem2.read_bucket(2), &image_c[..]);
        assert_eq!(mem2.read_bucket(30), &image_b[..]);
        assert_eq!(mem2.resident_bytes(), 3 * mem2.bucket_bytes() as u64);

        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn file_store_persists_in_place_with_a_flush() {
        let p = params();
        let dir = temp_dir("inplace");
        let mut s = FileStore::create(&p, &dir, 0, Durability::None).unwrap();
        s.write_bucket(4, &vec![0x44; s.bucket_bytes()]).unwrap();
        s.persist_to(&dir, 0).unwrap();
        drop(s);
        let s2 = FileStore::open(&p, &dir, 0, Durability::None).unwrap();
        let mut out = vec![0u8; s2.bucket_bytes()];
        s2.read_bucket_into(4, &mut out).unwrap();
        assert_eq!(out, vec![0x44; s2.bucket_bytes()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_without_metadata_is_a_storage_error() {
        let p = params();
        let dir = temp_dir("nometa");
        assert!(matches!(
            FileStore::open(&p, &dir, 0, Durability::None),
            Err(OramError::Storage { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_metadata_is_an_integrity_violation() {
        let p = params();
        let dir = temp_dir("badmeta");
        let mut s = FileStore::create(&p, &dir, 0, Durability::None).unwrap();
        s.write_bucket(0, &vec![7u8; s.bucket_bytes()]).unwrap();
        s.persist_to(&dir, 0).unwrap();
        drop(s);
        let meta = tree_meta_path(&dir, 0);
        let mut bytes = std::fs::read(&meta).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&meta, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&p, &dir, 0, Durability::None),
            Err(OramError::IntegrityViolation { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn geometry_mismatch_is_a_snapshot_error() {
        let dir = temp_dir("geom");
        let s = FileStore::create(&params(), &dir, 0, Durability::None).unwrap();
        s.persist_to(&dir, 0).unwrap();
        drop(s);
        // Different geometry: more blocks, different bucket size.
        let other = OramParams::new(1 << 10, 64, 4);
        assert!(matches!(
            FileStore::open(&other, &dir, 0, Durability::None),
            Err(OramError::Snapshot { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_stores_clean_up_after_themselves() {
        let p = params();
        let s = FileStore::create_temp(&p, 0, Durability::None).unwrap();
        let dir = s.dir().to_path_buf();
        assert!(dir.exists());
        drop(s);
        assert!(!dir.exists(), "temp store directory should be removed");
    }

    #[test]
    fn storage_kind_resolution_and_subdirs() {
        assert_eq!(StorageKind::Mem.subdir("shard0"), StorageKind::Mem);
        let file = StorageKind::File {
            dir: PathBuf::from("/data/oram"),
        };
        assert_eq!(
            file.subdir("shard3"),
            StorageKind::File {
                dir: PathBuf::from("/data/oram/shard3")
            }
        );
        let tiered = StorageKind::Tiered {
            dir: PathBuf::from("/data/oram"),
            memory_budget: 1 << 20,
        };
        assert_eq!(
            tiered.subdir("shard1"),
            StorageKind::Tiered {
                dir: PathBuf::from("/data/oram/shard1"),
                memory_budget: 1 << 20,
            }
        );
        assert_eq!(StorageKind::Mem.tag(), 0);
        assert_eq!(file.tag(), 1);
        assert_eq!(StorageKind::TempFile.tag(), 1);
        assert_eq!(tiered.tag(), 2);
        assert_eq!(
            StorageKind::TempTiered {
                memory_budget: 1 << 20
            }
            .tag(),
            2
        );
        let root = Path::new("/snap");
        assert_eq!(StorageKind::from_tag(0, root).unwrap(), StorageKind::Mem);
        assert_eq!(
            StorageKind::from_tag(1, root).unwrap(),
            StorageKind::File {
                dir: root.to_path_buf()
            }
        );
        assert!(StorageKind::from_tag(9, root).is_err());
    }

    #[test]
    fn wal_store_recovers_writebacks_never_persisted() {
        let p = params();
        let dir = temp_dir("walrec");
        let mut s = FileStore::create(&p, &dir, 0, Durability::Strict).unwrap();
        let bb = s.bucket_bytes();
        let indices = [0u64, 1, 3];
        let image: Vec<u8> = (0..3 * bb).map(|i| (i % 249) as u8 + 1).collect();
        s.write_path(&indices, &image).unwrap();
        // No persist_to: only create()'s empty checkpoint and the WAL
        // survive the drop.
        drop(s);
        let s2 = FileStore::open(&p, &dir, 0, Durability::Strict).unwrap();
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
        let mut s = FileStore::create(&p, &dir, 0, Durability::Batch(8)).unwrap();
        s.set_checkpoint_interval(2);
        let bb = s.bucket_bytes();
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
        let s2 = FileStore::open(&p, &dir, 0, Durability::Batch(8)).unwrap();
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
        let mut s = FileStore::create(&p, &dir, 0, Durability::Strict).unwrap();
        let bb = s.bucket_bytes();
        s.write_path(&[2, 9], &vec![0x5A; 2 * bb]).unwrap();
        drop(s);
        let s2 = FileStore::open(&p, &dir, 0, Durability::None).unwrap();
        assert!(!s2.has_wal());
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
        let mut s = FileStore::create(&p, &dir, 0, Durability::Strict).unwrap();
        let bb = s.bucket_bytes();
        s.write_path(&[1, 6], &vec![0x77; 2 * bb]).unwrap();
        // Meta is still the empty create() checkpoint; the data lives only
        // in the WAL.  A memory resume must see the same recovered tree.
        drop(s);
        let mem = MemStore::load(&p, &dir, 0).unwrap();
        assert_eq!(mem.wal_seq(), 1);
        assert_eq!(mem.read_bucket(6), &vec![0x77u8; bb][..]);
        assert!(mem.is_initialized(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A budget that puts exactly `k` levels in the treetop for `params()`.
    fn budget_for_levels(p: &OramParams, k: u32) -> u64 {
        if k == 0 {
            return 0;
        }
        ((1u64 << k) - 1) * p.bucket_bytes() as u64
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
    fn tiered_store_satisfies_the_contract_across_the_k_sweep() {
        let p = params();
        // K = 0 (pure spill), a mid split, and K = levels (pure arena).
        for k in [0, 2, p.levels()] {
            let budget = budget_for_levels(&p, k);
            let mut s = TieredStore::create_temp(&p, 0, Durability::None, budget).unwrap();
            assert_eq!(s.treetop_levels(), k, "budget {budget} should give K={k}");
            check_store_contract(&mut s);
        }
    }

    #[test]
    fn tiered_store_interchanges_with_mem_and_file_snapshots() {
        let p = params();
        let dir_a = temp_dir("tier-interchange-a");
        let dir_b = temp_dir("tier-interchange-b");
        let budget = budget_for_levels(&p, 3);

        // Populate a tiered store with buckets on both sides of the split
        // and persist it.
        let mut tiered = TieredStore::create(&p, &dir_a, 0, Durability::None, budget).unwrap();
        let bb = tiered.bucket_bytes();
        let top_image = vec![0x1A; bb];
        let deep_image = vec![0x2B; bb];
        let deep_idx = tiered.treetop_buckets() + 4;
        tiered.write_bucket(1, &top_image).unwrap();
        tiered.write_bucket(deep_idx, &deep_image).unwrap();
        tiered.persist_to(&dir_a, 0).unwrap();
        drop(tiered);

        // Resume as a plain mem store: both tiers must be visible.
        let mem = MemStore::load(&p, &dir_a, 0).unwrap();
        assert_eq!(mem.read_bucket(1), &top_image[..]);
        assert_eq!(mem.read_bucket(deep_idx), &deep_image[..]);

        // Mutate via a plain file store, persist elsewhere, resume tiered.
        let mut file = FileStore::open(&p, &dir_a, 0, Durability::None).unwrap();
        let image_c = vec![0x3C; bb];
        file.write_bucket(2, &image_c).unwrap();
        file.persist_to(&dir_b, 0).unwrap();
        drop(file);

        let tiered2 = TieredStore::open(&p, &dir_b, 0, Durability::None, budget).unwrap();
        let mut out = vec![0u8; bb];
        tiered2.read_bucket_into(1, &mut out).unwrap();
        assert_eq!(out, top_image);
        tiered2.read_bucket_into(2, &mut out).unwrap();
        assert_eq!(out, image_c);
        tiered2.read_bucket_into(deep_idx, &mut out).unwrap();
        assert_eq!(out, deep_image);

        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn tiered_wal_recovery_covers_the_spill_tier_only_until_checkpoint() {
        let p = params();
        let dir = temp_dir("tier-walrec");
        let budget = budget_for_levels(&p, 2);
        let mut s = TieredStore::create(&p, &dir, 0, Durability::Strict, budget).unwrap();
        let bb = s.bucket_bytes();
        assert_eq!(s.treetop_buckets(), 3);
        // A root-to-leaf path: [0, 1] in the treetop, [3, 8] in the file.
        let indices = [0u64, 1, 3, 8];
        let image: Vec<u8> = (0..4 * bb).map(|i| (i % 247) as u8 + 1).collect();
        s.write_path(&indices, &image).unwrap();
        assert_eq!(s.wal_seq(), 1, "only the spill suffix is one WAL record");
        drop(s);

        // Kill before any checkpoint: the logged deep buckets recover, the
        // WAL-exempt treetop does not (the controller's sequence barrier is
        // what rejects such a state at the backend layer).
        let s2 = TieredStore::open(&p, &dir, 0, Durability::Strict, budget).unwrap();
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
        let mut s3 = TieredStore::open(&p, &dir, 0, Durability::Strict, budget).unwrap();
        s3.write_path(&indices, &image).unwrap();
        s3.checkpoint().unwrap();
        drop(s3);
        let s4 = TieredStore::open(&p, &dir, 0, Durability::Strict, budget).unwrap();
        for (level, &idx) in indices.iter().enumerate() {
            assert!(s4.is_initialized(idx));
            s4.read_bucket_into(idx, &mut out).unwrap();
            assert_eq!(out, &image[level * bb..(level + 1) * bb]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Drives `windowed` through `write_path` (whole-window writes, staged
    /// by a preceding path read or read back) and `reference` through
    /// per-bucket `write_bucket`s with the same operations, and checks after
    /// every step that the two tree files are byte-identical and every
    /// bucket reads back alike.  The operations: root-to-leaf paths with
    /// and without a read first, a read of another path first, a tampered
    /// or flushed neighbour between read and write, `end_batch`-style
    /// ascending chunks of upper-level buckets, and buckets returned to
    /// uninitialised.
    fn check_window_writes_match_per_bucket_writes(
        p: &OramParams,
        windowed: &mut dyn TreeStore,
        reference: &mut dyn TreeStore,
        dirs: (&Path, &Path),
        seed: u64,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let bb = p.bucket_bytes();
        let buckets = p.num_buckets();
        // The batch cache's levels (< 8): with K = 6 a chunk's windows can
        // span treetop buckets of the next subtree.
        let upper = buckets.min(255);
        let mut scratch = vec![0u8; MAX_RECORD_BUCKETS * bb];
        for step in 0..300 {
            let indices: Vec<u64> = if rng.gen_range(0..4) == 0 {
                // An `end_batch` flush chunk: ascending upper-level buckets.
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
                std::fs::read(tree_file_path(dirs.0, 0)).unwrap()
                    == std::fs::read(tree_file_path(dirs.1, 0)).unwrap(),
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

    #[test]
    fn file_store_window_writes_are_byte_identical_to_bucket_writes() {
        let p = window_params();
        let (dir_w, dir_r) = (temp_dir("window-w"), temp_dir("window-r"));
        // The windowed store also logs and checkpoints (restarting its log)
        // as it goes; neither touches the tree bytes.
        let mut windowed = FileStore::create(&p, &dir_w, 0, Durability::Batch(4)).unwrap();
        windowed.set_checkpoint_interval(16);
        let mut reference = FileStore::create(&p, &dir_r, 0, Durability::None).unwrap();
        check_window_writes_match_per_bucket_writes(
            &p,
            &mut windowed,
            &mut reference,
            (&dir_w, &dir_r),
            0x57A6,
        );
        drop((windowed, reference));
        std::fs::remove_dir_all(&dir_w).unwrap();
        std::fs::remove_dir_all(&dir_r).unwrap();
    }

    #[test]
    fn tiered_window_writes_are_byte_identical_to_bucket_writes() {
        let p = window_params();
        // Treetops that end inside a subtree (K not a multiple of k = 4):
        // the spill tier's windows start mid-extent.
        for k in [3, 6] {
            let budget = budget_for_levels(&p, k);
            let (dir_w, dir_r) = (temp_dir("tier-window-w"), temp_dir("tier-window-r"));
            let mut windowed =
                TieredStore::create(&p, &dir_w, 0, Durability::None, budget).unwrap();
            let mut reference =
                TieredStore::create(&p, &dir_r, 0, Durability::None, budget).unwrap();
            assert_eq!(windowed.treetop_levels(), k);
            check_window_writes_match_per_bucket_writes(
                &p,
                &mut windowed,
                &mut reference,
                (&dir_w, &dir_r),
                0x71E2 + u64::from(k),
            );
            drop((windowed, reference));
            std::fs::remove_dir_all(&dir_w).unwrap();
            std::fs::remove_dir_all(&dir_r).unwrap();
        }
    }

    #[test]
    fn storage_kind_parses_env_values_and_budgets() {
        assert_eq!(StorageKind::parse("", None).unwrap(), StorageKind::Mem);
        assert_eq!(StorageKind::parse("mem", None).unwrap(), StorageKind::Mem);
        assert_eq!(
            StorageKind::parse("file", None).unwrap(),
            StorageKind::TempFile
        );
        assert_eq!(
            StorageKind::parse("tiered", None).unwrap(),
            StorageKind::TempTiered {
                memory_budget: DEFAULT_MEMORY_BUDGET
            }
        );
        assert_eq!(
            StorageKind::parse("tiered", Some(123)).unwrap(),
            StorageKind::TempTiered { memory_budget: 123 }
        );
        assert!(StorageKind::parse("bogus", None).is_err());

        assert_eq!(StorageKind::parse_memory_budget("4096").unwrap(), 4096);
        assert_eq!(StorageKind::parse_memory_budget("512k").unwrap(), 512 << 10);
        assert_eq!(StorageKind::parse_memory_budget("96M").unwrap(), 96 << 20);
        assert_eq!(StorageKind::parse_memory_budget("2g").unwrap(), 2 << 30);
        assert!(StorageKind::parse_memory_budget("").is_err());
        assert!(StorageKind::parse_memory_budget("12q").is_err());
        assert!(StorageKind::parse_memory_budget("99999999999999999g").is_err());
    }

    #[test]
    fn storage_kind_save_load_round_trips_every_variant() {
        let root = Path::new("/snap");
        let cases = [
            (StorageKind::Mem, StorageKind::Mem),
            (
                StorageKind::File {
                    dir: PathBuf::from("/data/oram"),
                },
                StorageKind::File {
                    dir: root.to_path_buf(),
                },
            ),
            // Temp variants re-anchor onto the snapshot directory on load.
            (
                StorageKind::TempFile,
                StorageKind::File {
                    dir: root.to_path_buf(),
                },
            ),
            (
                StorageKind::Tiered {
                    dir: PathBuf::from("/data/oram"),
                    memory_budget: 7 << 20,
                },
                StorageKind::Tiered {
                    dir: root.to_path_buf(),
                    memory_budget: 7 << 20,
                },
            ),
            (
                StorageKind::TempTiered {
                    memory_budget: 96 << 20,
                },
                StorageKind::Tiered {
                    dir: root.to_path_buf(),
                    memory_budget: 96 << 20,
                },
            ),
        ];
        for (kind, expect) in cases {
            let mut buf = Vec::new();
            kind.save(&mut buf);
            let mut r = SnapReader::new(&buf);
            assert_eq!(StorageKind::load(&mut r, root).unwrap(), expect);
            assert_eq!(r.remaining(), 0, "codec must consume exactly what it wrote");
        }
        // The budget-free legacy decoder refuses the tiered tag rather than
        // inventing a budget.
        assert!(StorageKind::from_tag(2, root).is_err());
    }

    #[test]
    fn tree_storage_enum_dispatches_to_all_stores() {
        let p = params();
        let mut mem = TreeStorage::create(&p, &StorageKind::Mem, 0, Durability::None).unwrap();
        assert!(mem.as_mem().is_some());
        assert!(!mem.is_file_backed());
        mem.write_bucket(1, &vec![5u8; mem.bucket_bytes()]).unwrap();
        assert_eq!(mem.snapshot_bucket(1), vec![5u8; mem.bucket_bytes()]);

        let mut file =
            TreeStorage::create(&p, &StorageKind::TempFile, 0, Durability::None).unwrap();
        assert!(file.as_mem().is_none());
        assert!(file.is_file_backed());
        file.write_bucket(1, &vec![5u8; file.bucket_bytes()])
            .unwrap();
        assert_eq!(file.snapshot_bucket(1), vec![5u8; file.bucket_bytes()]);

        let kind = StorageKind::TempTiered {
            memory_budget: 1 << 20,
        };
        let mut tiered = TreeStorage::create(&p, &kind, 0, Durability::None).unwrap();
        assert!(tiered.as_mem().is_none());
        assert!(tiered.as_tiered().is_some());
        assert!(tiered.is_file_backed());
        tiered
            .write_bucket(1, &vec![5u8; tiered.bucket_bytes()])
            .unwrap();
        assert_eq!(tiered.snapshot_bucket(1), vec![5u8; tiered.bucket_bytes()]);
    }
}
