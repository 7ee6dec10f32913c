//! Write-ahead logging for the file-backed tree store.
//!
//! PR 5's snapshot machinery made the tree durable *between* `persist`
//! calls; this module makes the file tier of a [`crate::TreeStorage`]
//! crash-consistent *between accesses*.  The file-tier part of every sealed
//! path writeback is appended to a `tree<label>.wal` redo log **before**
//! the tree file is touched, so a
//! kill at any byte boundary leaves one of two recoverable states: the
//! record is complete (replay finishes the tree write) or it is torn
//! (replay stops at the tear and the tree write never started).
//!
//! Records carry the *already encrypted and MACed* path image the backend
//! was about to write — the log stores only ciphertext the untrusted
//! storage would have seen anyway, so WAL residue adds nothing to the
//! adversary's view.  Each record is framed with a magic, a length prefix,
//! a monotonic sequence number and a CRC-64 checksum, so replay accepts
//! exactly the maximal valid prefix and treats the first malformed record
//! as the end of history.  The checksum is a torn-write detector, not a
//! MAC — deliberate tampering with a replayed image is caught by the
//! bucket cipher's own MAC on the next read, exactly as it would be for
//! bytes tampered in the tree file itself (the WAL sits in the same
//! untrusted-storage trust domain, so a crypto digest here would add cost
//! on every writeback without adding protection).
//!
//! ```text
//! tree<label>.wal:
//!   header:  magic "FWAL" (4) ‖ base_seq u64 ‖ bucket_bytes u64 ‖ CRC-64 (8)
//!   record*: magic "FREC" (4) ‖ body_len u32 ‖ body ‖ CRC-64(magic‖len‖body) (8)
//!   body:    seq u64 ‖ n u32 ‖ indices n×u64 ‖ images n×bucket_bytes
//! ```
//!
//! Sequence numbers are global per tree, not per log generation: the
//! header records `base_seq` (the last sequence number already compacted
//! into the checkpoint) and the first record must carry `base_seq + 1`.
//! Checkpointing (see [`crate::TreeStorage::checkpoint`]) folds the applied
//! records into the `tree<label>.meta` snapshot and restarts the log in place
//! ([`Wal::restart`]): only the header is rewritten, with the new
//! `base_seq`, and the next generation overwrites the previous one from the
//! front, so a long-lived log stops growing, allocating and committing its
//! size on every sync.  Whatever the new generation has not yet overwritten
//! stays in the file as a stale tail, and every record there carries a
//! sequence number `≤ base_seq`: the sequence check above ends history at
//! it, exactly as at a torn record, so the format and its readers are the
//! same as for a truncated log.  An in-place persist trims the stale tail
//! ([`Wal::trim`]).  Records are full bucket post-images, so replay is
//! idempotent — replaying an already-applied record rewrites the same
//! bytes — which is what makes the crash windows around checkpointing
//! harmless.
//!
//! A record carries at most [`MAX_RECORD_BUCKETS`] buckets, and a record's
//! indices need not form a root-to-leaf path — any ascending index list is
//! valid.  The file-tier suffixes a [`crate::TreeStorage`] with a RAM
//! treetop hands down rely on this.  Its *treetop* writes, by contrast, are
//! volatile arena writes and never reach the log — the crash-safety
//! argument for that exemption lives with
//! [`crate::TreeStorage`], and the system-wide durability state machine is
//! drawn in `docs/ARCHITECTURE.md` at the workspace root.

use crate::error::OramError;
use oram_crypto::crc64::crc64;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"FWAL";

/// Magic bytes opening each WAL record.
pub const REC_MAGIC: [u8; 4] = *b"FREC";

/// Checksum trailer length (one little-endian CRC-64).
const CHECKSUM_BYTES: usize = 8;

/// Header length: magic + base_seq + bucket_bytes + checksum.
const HEADER_LEN: usize = 4 + 8 + 8 + CHECKSUM_BYTES;

/// Record prefix length: magic + body length.
const REC_PREFIX: usize = 4 + 4;

/// Upper bound on buckets per record (a root-to-leaf path; matches the
/// stack bound of the file tier's coalesced reads).
pub const MAX_RECORD_BUCKETS: usize = 64;

/// When the write-ahead log reaches disk.
///
/// Selected on `OramBuilder::durability`, threaded through the frontend
/// configs to [`crate::TreeStorage::create`].  A store without a file tier
/// ignores it (there is nothing to make durable), as do backends without
/// untrusted tree storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No write-ahead log (the default).  Matches the pre-WAL behaviour:
    /// the tree is consistent only at successful `persist` boundaries, and
    /// a crash between them can lose or tear in-place tree writes.
    #[default]
    None,
    /// Log every writeback, fsync the log every `n` records.  A crash
    /// loses at most the last `n - 1` logged writebacks (plus whatever the
    /// OS had not yet flushed of the torn record); recovery always lands
    /// on a consistent prefix of the access history.
    Batch(u32),
    /// Log every writeback and fsync the log before the tree write starts.
    /// Every acknowledged access is durable.
    Strict,
}

impl Durability {
    /// Parses an `ORAM_DURABILITY`-style selector: `none` (or empty)
    /// selects [`Durability::None`], `strict` selects
    /// [`Durability::Strict`], `batch:<n>` (with `n ≥ 1`) selects
    /// [`Durability::Batch`].  Matching is ASCII-case-insensitive.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] for any other value — an unrecognised
    /// selector is a configuration mistake and must fail loudly, not fall
    /// back to the unlogged mode and silently un-protect exactly the data
    /// the operator asked to protect (the same contract as
    /// [`crate::StorageKind::parse`]).
    pub fn parse(value: &str) -> Result<Durability, OramError> {
        let v = value.trim();
        if v.is_empty() || v.eq_ignore_ascii_case("none") {
            Ok(Durability::None)
        } else if v.eq_ignore_ascii_case("strict") {
            Ok(Durability::Strict)
        } else if v
            .as_bytes()
            .get(..6)
            .is_some_and(|p| p.eq_ignore_ascii_case(b"batch:"))
        {
            let n = &v[6..];
            match n.trim().parse::<u32>() {
                Ok(n) if n >= 1 => Ok(Durability::Batch(n)),
                _ => Err(OramError::Storage {
                    detail: format!(
                        "invalid ORAM_DURABILITY batch interval {n:?}: expected an \
                         integer >= 1, as in \"batch:64\""
                    ),
                }),
            }
        } else {
            Err(OramError::Storage {
                detail: format!(
                    "unknown ORAM_DURABILITY value {value:?}: expected \"none\", \
                     \"strict\" or \"batch:<n>\""
                ),
            })
        }
    }

    /// Resolves the discipline an environment selects, reading its
    /// variables through `var`: `ORAM_DURABILITY=strict` or
    /// `ORAM_DURABILITY=batch:<n>` turn the WAL on; unset selects
    /// [`Durability::None`].  `freecursive`'s `OramBuilder` calls this
    /// (with the process environment) for an unset durability knob — the
    /// crash-recovery CI leg's hook, mirroring
    /// [`crate::StorageKind::from_env`].
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] for an unrecognised `ORAM_DURABILITY` value
    /// (see [`Durability::parse`]): an operator who typed `stric` or
    /// `batch:abc` asked for durability and must not silently run
    /// without it.
    pub fn from_env(var: impl Fn(&str) -> Option<String>) -> Result<Durability, OramError> {
        var("ORAM_DURABILITY").map_or(Ok(Durability::None), |v| Durability::parse(&v))
    }

    /// Whether this discipline keeps a write-ahead log at all.
    pub fn is_logged(&self) -> bool {
        !matches!(self, Durability::None)
    }

    /// One-byte tag + payload for snapshots (see `freecursive`'s config
    /// codec).
    pub fn save(&self, out: &mut Vec<u8>) {
        match self {
            Durability::None => {
                crate::snapshot::put_u8(out, 0);
                crate::snapshot::put_u32(out, 0);
            }
            Durability::Batch(n) => {
                crate::snapshot::put_u8(out, 1);
                crate::snapshot::put_u32(out, *n);
            }
            Durability::Strict => {
                crate::snapshot::put_u8(out, 2);
                crate::snapshot::put_u32(out, 0);
            }
        }
    }

    /// Inverse of [`Durability::save`].
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation or an unknown tag.
    pub fn load(r: &mut crate::snapshot::SnapReader<'_>) -> Result<Durability, OramError> {
        let tag = r.u8()?;
        let arg = r.u32()?;
        match tag {
            0 => Ok(Durability::None),
            1 => Ok(Durability::Batch(arg)),
            2 => Ok(Durability::Strict),
            other => Err(OramError::Snapshot {
                detail: format!("unknown durability tag {other}"),
            }),
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Durability::None => write!(f, "none"),
            Durability::Batch(n) => write!(f, "batch:{n}"),
            Durability::Strict => write!(f, "strict"),
        }
    }
}

/// WAL file path for tree `label` under `dir`.
pub fn wal_file_path(dir: &Path, label: u32) -> PathBuf {
    dir.join(format!("tree{label}.wal"))
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> OramError {
    OramError::Storage {
        detail: format!("{context} {}: {e}", path.display()),
    }
}

/// What [`replay`] found in a WAL file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Whether the file header parsed and its checksum held.  A torn header
    /// (the crash window of a log truncation) means no record could be
    /// validated; the caller falls back to the checkpoint alone.
    pub header_valid: bool,
    /// `base_seq` from the header (0 when the header is invalid).
    pub base_seq: u64,
    /// Sequence number of the last record replayed (== `base_seq` when no
    /// record was).
    pub last_seq: u64,
    /// Number of records replayed.
    pub records: u64,
    /// Whether replay stopped at a torn/invalid record before the end of
    /// the file.
    pub torn_tail: bool,
}

/// Replays the checksum-valid prefix of the WAL at `path`, invoking
/// `apply(seq, indices, images)` for each valid record in order.  `images`
/// is `indices.len() * bucket_bytes` long.  Stops cleanly at the first
/// malformed record — bad magic, implausible length, checksum mismatch, or
/// a sequence break — and reports it as a torn tail rather than an error:
/// a torn tail is the *expected* shape of a crash.
///
/// Returns `Ok(None)` when no WAL file exists.
///
/// # Errors
///
/// [`OramError::Storage`] when the file exists but cannot be read, and
/// whatever `apply` returns (tree I/O failures must propagate — an
/// unapplied valid record is real data loss, unlike a torn tail).
// lint: no-panic
pub fn replay<F>(
    path: &Path,
    bucket_bytes: usize,
    mut apply: F,
) -> Result<Option<ReplaySummary>, OramError>
where
    F: FnMut(u64, &[u64], &[u8]) -> Result<(), OramError>,
{
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("reading WAL", path, e)),
    };
    let torn_header = ReplaySummary {
        header_valid: false,
        base_seq: 0,
        last_seq: 0,
        records: 0,
        torn_tail: true,
    };
    let Some(header) = data.get(..HEADER_LEN) else {
        return Ok(Some(torn_header));
    };
    let Some((header_body, header_checksum)) = split_checksum(header) else {
        return Ok(Some(torn_header));
    };
    if header_body.get(..4) != Some(&WAL_MAGIC[..])
        || crc64(header_body).to_le_bytes() != *header_checksum
    {
        return Ok(Some(torn_header));
    }
    let base_seq = read_u64(header_body, 4).unwrap_or(0);
    let wal_bucket_bytes = read_u64(header_body, 12).unwrap_or(0);
    if wal_bucket_bytes != bucket_bytes as u64 {
        // A WAL for a different geometry cannot be applied; its records
        // are for another tree entirely.  Treat the whole log as torn.
        return Ok(Some(torn_header));
    }

    let mut summary = ReplaySummary {
        header_valid: true,
        base_seq,
        last_seq: base_seq,
        records: 0,
        torn_tail: false,
    };
    let mut indices: Vec<u64> = Vec::with_capacity(MAX_RECORD_BUCKETS);
    let mut pos = HEADER_LEN;
    while pos < data.len() {
        // Record prefix: magic + body length.
        let Some(prefix) = data.get(pos..pos + REC_PREFIX) else {
            summary.torn_tail = true;
            break;
        };
        if prefix.get(..4) != Some(&REC_MAGIC[..]) {
            summary.torn_tail = true;
            break;
        }
        let body_len = read_u32(prefix, 4).unwrap_or(0) as usize;
        let body_start = pos + REC_PREFIX;
        let Some(body) = data.get(body_start..body_start + body_len) else {
            summary.torn_tail = true;
            break;
        };
        let checksum_start = body_start + body_len;
        let Some(checksum) = data.get(checksum_start..checksum_start + CHECKSUM_BYTES) else {
            summary.torn_tail = true;
            break;
        };
        let Some(framed) = data.get(pos..checksum_start) else {
            summary.torn_tail = true;
            break;
        };
        if crc64(framed).to_le_bytes()[..] != *checksum {
            summary.torn_tail = true;
            break;
        }
        // Checksum-valid body: seq ‖ n ‖ indices ‖ images.
        let (Some(seq), Some(n)) = (read_u64(body, 0), read_u32(body, 8)) else {
            summary.torn_tail = true;
            break;
        };
        let n = n as usize;
        if n == 0 || n > MAX_RECORD_BUCKETS || body_len != 12 + n * (8 + bucket_bytes) {
            summary.torn_tail = true;
            break;
        }
        if seq != summary.last_seq + 1 {
            // A sequence break: a log assembled from mixed generations, or
            // checksum-valid bytes that are not the next record.  History
            // ends here.
            summary.torn_tail = true;
            break;
        }
        indices.clear();
        for i in 0..n {
            let Some(index) = read_u64(body, 12 + i * 8) else {
                summary.torn_tail = true;
                break;
            };
            indices.push(index);
        }
        let images_start = 12 + n * 8;
        let Some(images) = body.get(images_start..) else {
            summary.torn_tail = true;
            break;
        };
        if indices.len() != n {
            break;
        }
        apply(seq, &indices, images)?;
        summary.last_seq = seq;
        summary.records += 1;
        pos = checksum_start + CHECKSUM_BYTES;
    }
    Ok(Some(summary))
}
// lint: end

/// Splits `bytes` into (body, checksum trailer); `None` if too short.
fn split_checksum(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let body_len = bytes.len().checked_sub(CHECKSUM_BYTES)?;
    Some((bytes.get(..body_len)?, bytes.get(body_len..)?))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

/// Bytes of the largest record: [`MAX_RECORD_BUCKETS`] buckets.
fn max_record_len(bucket_bytes: usize) -> usize {
    REC_PREFIX + 12 + MAX_RECORD_BUCKETS * (8 + bucket_bytes) + CHECKSUM_BYTES
}

/// The error of a simulated kill mid-append (fault injection only).
fn injected_crash(keep: usize, seq: u64, path: &Path) -> OramError {
    OramError::Storage {
        detail: format!(
            "injected crash after {keep} bytes of WAL record {seq} @ {}",
            path.display()
        ),
    }
}

/// An open write-ahead log, owned by the file tier of a live
/// [`crate::TreeStorage`].
///
/// Appends are framed in a scratch buffer sized for the largest record at
/// creation and written with one positional write, so the logging path
/// allocates nothing.  A checkpoint [`restarts`](Wal::restart) the log in
/// place rather than truncating it: after the first generation, appends and
/// their `fdatasync`s land in blocks the file already owns, and the file
/// size stops changing.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Byte offset one past the last complete record of this generation.
    /// Bytes past it are stale records of earlier generations (or nothing).
    end: u64,
    base_seq: u64,
    last_seq: u64,
    bucket_bytes: usize,
    durability: Durability,
    /// Records appended since the last fsync (Batch discipline).
    unsynced: u32,
    /// Record framing buffer, [`max_record_len`] bytes.
    scratch: Vec<u8>,
    /// Fault injection (kill-point suite): remaining WAL bytes that may
    /// still reach the file.  An append that would exceed the budget
    /// writes only the budgeted prefix — a torn record, exactly what a
    /// kill mid-`write` leaves — and fails.
    crash_budget: Option<u64>,
}

impl Wal {
    /// Creates (or truncates) the WAL for tree `label` under `dir`,
    /// starting a new log generation at `base_seq`.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn create(
        dir: &Path,
        label: u32,
        bucket_bytes: usize,
        base_seq: u64,
        durability: Durability,
    ) -> Result<Self, OramError> {
        let path = wal_file_path(dir, label);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("creating WAL", &path, e))?;
        let mut wal = Self {
            file,
            path,
            end: 0,
            base_seq,
            last_seq: base_seq,
            bucket_bytes,
            durability,
            unsynced: 0,
            scratch: vec![0u8; max_record_len(bucket_bytes)],
            crash_budget: None,
        };
        wal.restart(base_seq)?;
        Ok(wal)
    }

    /// Sequence number of the last appended record (== the base when the
    /// log is empty).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The sequence number the current log generation starts after.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one path-writeback record (`images` is
    /// `indices.len() * bucket_bytes` long) and applies the fsync
    /// discipline.  Returns the record's sequence number.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure or an injected crash.
    // lint: no-alloc
    pub fn append(&mut self, indices: &[u64], images: &[u8]) -> Result<u64, OramError> {
        assert_eq!(
            images.len(),
            indices.len() * self.bucket_bytes,
            "one image per index"
        );
        assert!(
            indices.len() <= MAX_RECORD_BUCKETS,
            "path longer than the WAL record bound"
        );
        let seq = self.last_seq + 1;
        let n = indices.len();
        let body_len = 12 + n * (8 + self.bucket_bytes);
        let len = REC_PREFIX + body_len + CHECKSUM_BYTES;
        let record = &mut self.scratch[..len];
        let (framed, checksum) = record.split_at_mut(len - CHECKSUM_BYTES);
        let (head, images_out) = framed.split_at_mut(REC_PREFIX + 12 + n * 8);
        head[..4].copy_from_slice(&REC_MAGIC);
        head[4..8].copy_from_slice(&(body_len as u32).to_le_bytes());
        head[8..16].copy_from_slice(&seq.to_le_bytes());
        head[16..20].copy_from_slice(&(n as u32).to_le_bytes());
        for (slot, &index) in head[20..].chunks_exact_mut(8).zip(indices) {
            slot.copy_from_slice(&index.to_le_bytes());
        }
        images_out.copy_from_slice(images);
        checksum.copy_from_slice(&crc64(framed).to_le_bytes());
        let record = &self.scratch[..len];

        if let Some(budget) = self.crash_budget.as_mut() {
            if (len as u64) > *budget {
                // Simulated kill mid-append: the budgeted prefix reaches
                // the file (a torn record), the rest — and the tree write
                // that would have followed — never happens.
                let keep = usize::try_from(*budget).unwrap_or(usize::MAX);
                *budget = 0;
                if let Some(partial) = record.get(..keep) {
                    let _ = self.file.write_all_at(partial, self.end);
                    let _ = self.file.sync_data();
                }
                return Err(injected_crash(keep, seq, &self.path));
            }
            *budget -= len as u64;
        }

        self.file
            .write_all_at(record, self.end)
            .map_err(|e| io_err("appending WAL record to", &self.path, e))?;
        self.end += len as u64;
        self.last_seq = seq;
        match self.durability {
            Durability::Strict => self.sync()?,
            Durability::Batch(every) => {
                self.unsynced += 1;
                if self.unsynced >= every.max(1) {
                    self.sync()?;
                }
            }
            Durability::None => {}
        }
        Ok(seq)
    }
    // lint: end

    /// Starts a new log generation after `base_seq` in place, after a
    /// checkpoint: everything up to `base_seq` now lives in the tree +
    /// metadata snapshot, so the records are dead weight.  Only the header
    /// is rewritten (and synced); the next records overwrite the old ones
    /// from the front.  The stale records left past the live end all carry
    /// sequence numbers `≤ base_seq`, so [`replay`]'s sequence check ends
    /// history at the first of them.
    ///
    /// A crash inside this method leaves the old header (its records are
    /// all covered by the checkpoint, and replaying them is idempotent) or a
    /// torn one (no tail at all) — either way recovery lands on the
    /// checkpoint that just completed.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn restart(&mut self, base_seq: u64) -> Result<(), OramError> {
        let header = &mut self.scratch[..HEADER_LEN];
        let (body, checksum) = header.split_at_mut(HEADER_LEN - CHECKSUM_BYTES);
        body[..4].copy_from_slice(&WAL_MAGIC);
        body[4..12].copy_from_slice(&base_seq.to_le_bytes());
        body[12..20].copy_from_slice(&(self.bucket_bytes as u64).to_le_bytes());
        checksum.copy_from_slice(&crc64(body).to_le_bytes());
        self.file
            .write_all_at(&self.scratch[..HEADER_LEN], 0)
            .map_err(|e| io_err("writing WAL header to", &self.path, e))?;
        self.sync()?;
        self.base_seq = base_seq;
        self.last_seq = base_seq;
        self.end = HEADER_LEN as u64;
        Ok(())
    }

    /// Cuts the file at the live end, dropping the stale records of earlier
    /// generations.  An in-place persist calls this so a persisted
    /// directory holds exactly the live log; recovery would ignore the
    /// stale tail anyway.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn trim(&self) -> Result<(), OramError> {
        self.file
            .set_len(self.end)
            .map_err(|e| io_err("trimming WAL", &self.path, e))
    }

    /// Forces the log to disk regardless of discipline.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] on I/O failure.
    pub fn sync(&mut self) -> Result<(), OramError> {
        self.unsynced = 0;
        self.file
            .sync_data()
            .map_err(|e| io_err("syncing WAL", &self.path, e))
    }

    /// Fault-injection hook for the kill-point recovery suite: permit at
    /// most `bytes` further WAL bytes, then fail appends with a torn
    /// record.  Not part of the public contract.
    #[doc(hidden)]
    pub fn set_crash_after_bytes(&mut self, bytes: u64) {
        self.crash_budget = Some(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oram-wal-test-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const BB: usize = 16;

    #[test]
    fn crc64_matches_the_xz_check_vector() {
        // The standard CRC-64/XZ check value for the ASCII digits 1-9.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    fn record(i: u64) -> (Vec<u64>, Vec<u8>) {
        let indices = vec![i, i + 10, i + 20];
        let images = (0..3 * BB).map(|b| (b as u64 + i) as u8).collect();
        (indices, images)
    }

    type SeenRecord = (u64, Vec<u64>, Vec<u8>);

    fn collect_replay(dir: &Path) -> (ReplaySummary, Vec<SeenRecord>) {
        let mut seen = Vec::new();
        let summary = replay(&wal_file_path(dir, 0), BB, |seq, idx, img| {
            seen.push((seq, idx.to_vec(), img.to_vec()));
            Ok(())
        })
        .unwrap()
        .unwrap();
        (summary, seen)
    }

    #[test]
    fn append_replay_roundtrip_preserves_records_and_order() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::create(&dir, 0, BB, 7, Durability::Strict).unwrap();
        for i in 0..5u64 {
            let (idx, img) = record(i);
            assert_eq!(wal.append(&idx, &img).unwrap(), 8 + i);
        }
        drop(wal);
        let (summary, seen) = collect_replay(&dir);
        assert!(summary.header_valid && !summary.torn_tail);
        assert_eq!(
            (summary.base_seq, summary.last_seq, summary.records),
            (7, 12, 5)
        );
        for (i, (seq, idx, img)) in seen.iter().enumerate() {
            let (want_idx, want_img) = record(i as u64);
            assert_eq!((*seq, idx, img), (8 + i as u64, &want_idx, &want_img));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_wal_replays_as_none() {
        let dir = temp_dir("missing");
        assert_eq!(
            replay(&wal_file_path(&dir, 0), BB, |_, _, _| Ok(())).unwrap(),
            None
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_byte_recovers_a_valid_prefix() {
        let dir = temp_dir("trunc");
        let mut wal = Wal::create(&dir, 0, BB, 0, Durability::Strict).unwrap();
        let mut boundaries = vec![std::fs::metadata(wal.path()).unwrap().len()];
        for i in 0..4u64 {
            let (idx, img) = record(i);
            wal.append(&idx, &img).unwrap();
            boundaries.push(std::fs::metadata(wal.path()).unwrap().len());
        }
        let path = wal.path().to_path_buf();
        drop(wal);
        let pristine = std::fs::read(&path).unwrap();
        for len in 0..=pristine.len() {
            std::fs::write(&path, &pristine[..len]).unwrap();
            let (summary, seen) = collect_replay(&dir);
            // The number of complete records this truncation preserves.
            let complete = boundaries
                .iter()
                .filter(|&&b| b <= len as u64)
                .count()
                .saturating_sub(1);
            if (len as u64) < boundaries[0] {
                assert!(!summary.header_valid, "len {len}");
            } else {
                assert!(summary.header_valid, "len {len}");
                assert_eq!(summary.records as usize, complete, "len {len}");
                assert_eq!(
                    summary.torn_tail,
                    len as u64 != boundaries[complete],
                    "len {len}"
                );
            }
            assert_eq!(seen.len(), if summary.header_valid { complete } else { 0 });
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupting_any_record_byte_ends_history_there() {
        let dir = temp_dir("flip");
        let mut wal = Wal::create(&dir, 0, BB, 0, Durability::Strict).unwrap();
        let mut boundaries = vec![std::fs::metadata(wal.path()).unwrap().len()];
        for i in 0..3u64 {
            let (idx, img) = record(i);
            wal.append(&idx, &img).unwrap();
            boundaries.push(std::fs::metadata(wal.path()).unwrap().len());
        }
        let path = wal.path().to_path_buf();
        drop(wal);
        let pristine = std::fs::read(&path).unwrap();
        // Flip one byte inside record 1 (the second record): records 0..=0
        // survive, the rest are gone.
        for pos in [boundaries[1], boundaries[1] + 9, boundaries[2] - 1] {
            let mut corrupt = pristine.clone();
            corrupt[pos as usize] ^= 0x40;
            std::fs::write(&path, &corrupt).unwrap();
            let (summary, seen) = collect_replay(&dir);
            assert!(summary.header_valid && summary.torn_tail, "pos {pos}");
            assert_eq!(summary.records, 1, "pos {pos}");
            assert_eq!(seen.len(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_starts_a_new_generation_in_place() {
        let dir = temp_dir("gen");
        let mut wal = Wal::create(&dir, 0, BB, 0, Durability::Batch(2)).unwrap();
        for i in 0..3u64 {
            let (idx, img) = record(i);
            wal.append(&idx, &img).unwrap();
        }
        let grown = std::fs::metadata(wal.path()).unwrap().len();
        wal.restart(3).unwrap();
        assert_eq!(
            std::fs::metadata(wal.path()).unwrap().len(),
            grown,
            "a restart keeps the blocks the log already owns"
        );
        let (idx, img) = record(9);
        assert_eq!(wal.append(&idx, &img).unwrap(), 4);
        assert_eq!(std::fs::metadata(wal.path()).unwrap().len(), grown);
        drop(wal);
        // Records 2 and 3 of the old generation still sit past the live
        // end; their sequence numbers end history after record 4.
        let (summary, seen) = collect_replay(&dir);
        assert_eq!(
            (summary.base_seq, summary.last_seq, summary.records),
            (3, 4, 1)
        );
        assert!(summary.torn_tail);
        assert_eq!(seen, vec![(4, idx, img)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trim_drops_the_stale_tail_and_nothing_live() {
        let dir = temp_dir("trim");
        let mut wal = Wal::create(&dir, 0, BB, 0, Durability::Strict).unwrap();
        for i in 0..4u64 {
            let (idx, img) = record(i);
            wal.append(&idx, &img).unwrap();
        }
        wal.restart(4).unwrap();
        let (idx, img) = record(7);
        wal.append(&idx, &img).unwrap();
        wal.trim().unwrap();
        drop(wal);
        let (summary, seen) = collect_replay(&dir);
        assert!(summary.header_valid && !summary.torn_tail);
        assert_eq!((summary.base_seq, summary.records), (4, 1));
        assert_eq!(seen, vec![(5, idx, img)]);
        // Exactly a header and one record remain: a fresh log holding the
        // same record has the same bytes.
        let fresh_dir = temp_dir("trim-fresh");
        let mut fresh = Wal::create(&fresh_dir, 0, BB, 4, Durability::Strict).unwrap();
        let (idx, img) = record(7);
        fresh.append(&idx, &img).unwrap();
        drop(fresh);
        assert_eq!(
            std::fs::read(wal_file_path(&dir, 0)).unwrap(),
            std::fs::read(wal_file_path(&fresh_dir, 0)).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&fresh_dir).ok();
    }

    #[test]
    fn injected_crash_leaves_a_torn_record_and_fails_the_append() {
        let dir = temp_dir("crash");
        let mut wal = Wal::create(&dir, 0, BB, 0, Durability::Strict).unwrap();
        let (idx, img) = record(0);
        wal.append(&idx, &img).unwrap();
        wal.set_crash_after_bytes(10);
        let (idx2, img2) = record(1);
        assert!(matches!(
            wal.append(&idx2, &img2),
            Err(OramError::Storage { .. })
        ));
        // Further appends stay dead (budget exhausted).
        assert!(wal.append(&idx2, &img2).is_err());
        drop(wal);
        let (summary, seen) = collect_replay(&dir);
        assert!(summary.torn_tail);
        assert_eq!(summary.records, 1);
        assert_eq!(seen.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn geometry_mismatch_treats_the_log_as_torn() {
        let dir = temp_dir("geom");
        let mut wal = Wal::create(&dir, 0, BB, 0, Durability::Strict).unwrap();
        let (idx, img) = record(0);
        wal.append(&idx, &img).unwrap();
        drop(wal);
        let summary = replay(&wal_file_path(&dir, 0), BB * 2, |_, _, _| Ok(()))
            .unwrap()
            .unwrap();
        assert!(!summary.header_valid);
        assert_eq!(summary.records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durability_env_and_codec_roundtrip() {
        for d in [Durability::None, Durability::Batch(64), Durability::Strict] {
            let mut buf = Vec::new();
            d.save(&mut buf);
            let mut r = crate::snapshot::SnapReader::new(&buf);
            assert_eq!(Durability::load(&mut r).unwrap(), d);
            r.finish().unwrap();
        }
        assert_eq!(format!("{}", Durability::Batch(8)), "batch:8");
        assert!(!Durability::None.is_logged());
        assert!(Durability::Strict.is_logged());
    }

    #[test]
    fn durability_parse_accepts_every_documented_selector() {
        assert_eq!(Durability::parse("").unwrap(), Durability::None);
        assert_eq!(Durability::parse("  none ").unwrap(), Durability::None);
        assert_eq!(Durability::parse("NONE").unwrap(), Durability::None);
        assert_eq!(Durability::parse("strict").unwrap(), Durability::Strict);
        assert_eq!(Durability::parse("STRICT").unwrap(), Durability::Strict);
        assert_eq!(Durability::parse("batch:1").unwrap(), Durability::Batch(1));
        assert_eq!(
            Durability::parse("batch:64").unwrap(),
            Durability::Batch(64)
        );
        assert_eq!(
            Durability::parse("Batch: 8 ").unwrap(),
            Durability::Batch(8)
        );
    }

    #[test]
    fn durability_parse_rejects_typos_instead_of_silently_unprotecting() {
        // The silent-fallback shape this regression test pins down: every
        // one of these used to resolve to `Durability::None`, running the
        // operator's workload without the WAL they asked for.
        for typo in [
            "stric",      // the classic one-character slip
            "strictt",    // trailing garbage
            "batch",      // missing interval separator
            "batch:",     // missing interval
            "batch:abc",  // non-numeric interval
            "batch:0",    // an fsync-every-0-records log is meaningless
            "batch:-1",   // negative interval
            "batch:1e3",  // no float/scientific intervals
            "everything", // plain nonsense
            "böse",       // non-ASCII must error, not panic on slicing
        ] {
            let err = Durability::parse(typo).unwrap_err();
            assert!(
                matches!(err, OramError::Storage { .. }),
                "{typo:?} -> {err:?}"
            );
            assert!(err.to_string().contains("ORAM_DURABILITY"), "{typo:?}");
        }
    }
}
