//! The snapshot wire format: hand-rolled, versioned, length-prefixed
//! serialisation shared by the backend's `save_state` and the frontends'
//! whole-instance `persist`/`resume`.
//!
//! The workspace has no serialisation framework, so every persisted
//! structure is written field by field through the helpers here.  All
//! integers are little-endian; variable-length payloads are
//! length-prefixed with a `u64`.
//!
//! # State-file framing
//!
//! [`write_state_file`] / [`read_state_file`] wrap a payload in the framing
//! every snapshot state file uses:
//!
//! ```text
//! magic "FORS" (4 B) ‖ version u16 ‖ kind u8 ‖ reserved u8 ‖
//! payload_len u64 ‖ payload ‖ SHA3-224(everything before this field) (28 B)
//! ```
//!
//! The digest covers the header too, so a flipped bit *anywhere* in the file
//! — including the version byte — surfaces as
//! [`OramError::IntegrityViolation`] rather than a misparse.  Genuine
//! version mismatches (a well-formed file written by a different format
//! revision, digest intact) surface as [`OramError::Snapshot`], as do
//! truncated files.  This is a *corruption* check, not an authenticity
//! proof: the digest is unkeyed, so an adversary who can rewrite the whole
//! state file consistently defeats it — the state file models the
//! controller's trusted on-chip state, which the paper's threat model
//! assumes the adversary cannot touch (§2).

use crate::error::OramError;
use oram_crypto::Sha3_224;

/// Magic bytes opening every snapshot state file ("Freecursive ORAM
/// Snapshot").
pub const STATE_MAGIC: [u8; 4] = *b"FORS";

/// Current snapshot format version.  Version 2 added the WAL sequence
/// barrier to tree metadata and controller state (see [`crate::wal`]);
/// version-1 files are rejected with a clean version error.
pub const STATE_VERSION: u16 = 2;

/// SHA3-224 digest length, the integrity trailer of every state file.
pub const DIGEST_BYTES: usize = 28;

/// A truncated-input error at position `at`.
fn short(what: &str, at: usize) -> OramError {
    OramError::Snapshot {
        detail: format!("truncated snapshot: ran out of bytes reading {what} at offset {at}"),
    }
}

// ---------------------------------------------------------------------
// Writer helpers (plain functions over a `Vec<u8>` sink).
// ---------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u16` (little-endian).
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends an `Option<u64>` as a presence byte plus the value.
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
        None => out.push(0),
    }
}

/// Appends a `u64`-length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// A bounds-checked cursor over snapshot bytes; every overrun becomes an
/// [`OramError::Snapshot`] instead of a panic.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], OramError> {
        if self.remaining() < n {
            return Err(short("raw bytes", self.pos));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation.
    pub fn u8(&mut self) -> Result<u8, OramError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation.
    pub fn u16(&mut self) -> Result<u16, OramError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 B")))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation.
    pub fn u32(&mut self) -> Result<u32, OramError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 B")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation.
    pub fn u64(&mut self) -> Result<u64, OramError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 B")))
    }

    /// Reads a `u64` and checks it fits a `usize` and does not exceed
    /// `limit` (guarding against absurd length prefixes in corrupt files).
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation or an implausible length.
    pub fn len(&mut self, limit: usize) -> Result<usize, OramError> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| OramError::Snapshot {
            detail: format!("length prefix {v} overflows usize"),
        })?;
        if v > limit {
            return Err(OramError::Snapshot {
                detail: format!("length prefix {v} exceeds plausible bound {limit}"),
            });
        }
        Ok(v)
    }

    /// Reads a `bool` byte (0 or 1).
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation or a byte that is neither.
    pub fn bool(&mut self) -> Result<bool, OramError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(OramError::Snapshot {
                detail: format!("invalid bool byte {other}"),
            }),
        }
    }

    /// Reads an `Option<u64>` written by [`put_opt_u64`].
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation or an invalid presence byte.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, OramError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Reads a `u64`-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation.
    pub fn bytes(&mut self) -> Result<&'a [u8], OramError> {
        let n = self.len(self.remaining())?;
        self.take(n)
    }

    /// Asserts the reader consumed everything (snapshot sections must be
    /// exact, trailing garbage means a format drift).
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] if bytes remain.
    pub fn finish(self) -> Result<(), OramError> {
        if self.remaining() != 0 {
            return Err(OramError::Snapshot {
                detail: format!("{} unconsumed snapshot bytes", self.remaining()),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// State-file framing.
// ---------------------------------------------------------------------

/// Serialises a state file: framing header, payload, SHA3-224 trailer.
pub fn seal_state(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 2 + 1 + 1 + 8 + payload.len() + DIGEST_BYTES);
    out.extend_from_slice(&STATE_MAGIC);
    put_u16(&mut out, STATE_VERSION);
    put_u8(&mut out, kind);
    put_u8(&mut out, 0);
    put_bytes(&mut out, payload);
    let digest = Sha3_224::digest(&out);
    out.extend_from_slice(&digest);
    out
}

/// Parses a state file produced by [`seal_state`], returning `(kind,
/// payload)`.
///
/// # Errors
///
/// * [`OramError::IntegrityViolation`] when the digest does not match — a
///   flipped bit anywhere in the file.
/// * [`OramError::Snapshot`] for truncation, wrong magic, or an unsupported
///   (but consistently-digested) version.
pub fn open_state(data: &[u8]) -> Result<(u8, &[u8]), OramError> {
    const HEADER: usize = 4 + 2 + 1 + 1 + 8;
    if data.len() < HEADER + DIGEST_BYTES {
        return Err(OramError::Snapshot {
            detail: format!("state file too short ({} bytes)", data.len()),
        });
    }
    let (body, trailer) = data.split_at(data.len() - DIGEST_BYTES);
    let digest = Sha3_224::digest(body);
    if digest[..] != *trailer {
        // The whole file (header included) is covered, so any corruption —
        // header, payload or trailer — lands here, never in a misparse.
        return Err(OramError::IntegrityViolation { addr: u64::MAX });
    }
    let mut r = SnapReader::new(body);
    let magic = r.take(4)?;
    if magic != STATE_MAGIC {
        return Err(OramError::Snapshot {
            detail: "state file has wrong magic".into(),
        });
    }
    let version = r.u16()?;
    if version != STATE_VERSION {
        return Err(OramError::Snapshot {
            detail: format!("unsupported snapshot version {version} (expected {STATE_VERSION})"),
        });
    }
    let kind = r.u8()?;
    let _reserved = r.u8()?;
    let payload = r.bytes()?;
    r.finish()?;
    Ok((kind, payload))
}

/// Writes a sealed state file to `path` atomically *and durably*: the
/// sealed bytes go to a sibling temp file which is fsynced, renamed into
/// place, and pinned by an fsync of the parent directory.  A crash at any
/// point leaves either the old file or the new one — never a torn state
/// file, and never a rename that evaporates with the directory's dirty
/// metadata.
///
/// # Errors
///
/// [`OramError::Storage`] on any I/O failure.
pub fn write_state_file(path: &std::path::Path, kind: u8, payload: &[u8]) -> Result<(), OramError> {
    use std::io::Write;
    let sealed = seal_state(kind, payload);
    let tmp = path.with_extension("state.tmp");
    let mut file = std::fs::File::create(&tmp).map_err(|e| OramError::Storage {
        detail: format!("creating {}: {e}", tmp.display()),
    })?;
    file.write_all(&sealed).map_err(|e| OramError::Storage {
        detail: format!("writing {}: {e}", tmp.display()),
    })?;
    // The temp file's bytes must be on stable storage *before* the rename:
    // otherwise the rename can survive a crash while the contents do not,
    // leaving a valid-looking path to a torn file.
    file.sync_all().map_err(|e| OramError::Storage {
        detail: format!("syncing {}: {e}", tmp.display()),
    })?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| OramError::Storage {
        detail: format!("renaming {} into place: {e}", tmp.display()),
    })?;
    // The rename itself lives in the directory's metadata; fsync it so the
    // new file is reachable after a crash (POSIX renames are atomic but not
    // durable until the directory is flushed).
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let dir = std::fs::File::open(parent).map_err(|e| OramError::Storage {
            detail: format!("opening directory {}: {e}", parent.display()),
        })?;
        dir.sync_all().map_err(|e| OramError::Storage {
            detail: format!("syncing directory {}: {e}", parent.display()),
        })?;
    }
    Ok(())
}

/// Reads and verifies a state file, returning `(kind, payload)`.
///
/// Also removes an orphaned sibling temp file if one is lying around: a
/// crash inside [`write_state_file`] before the rename leaves a
/// `*.state.tmp` that is dead weight (the rename never happened, so `path`
/// still holds the previous good state) and would otherwise accumulate.
///
/// # Errors
///
/// [`OramError::Storage`] if the file cannot be read, otherwise as for
/// [`open_state`].
pub fn read_state_file(path: &std::path::Path) -> Result<(u8, Vec<u8>), OramError> {
    let tmp = path.with_extension("state.tmp");
    if tmp.exists() {
        // Best effort: a failure to clean up must not block a resume.
        let _ = std::fs::remove_file(&tmp);
    }
    let data = std::fs::read(path).map_err(|e| OramError::Storage {
        detail: format!("reading {}: {e}", path.display()),
    })?;
    let (kind, payload) = open_state(&data)?;
    Ok((kind, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_bool(&mut buf, true);
        put_opt_u64(&mut buf, None);
        put_opt_u64(&mut buf, Some(42));
        put_bytes(&mut buf, b"hello");
        let mut r = SnapReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 9);
        let mut r = SnapReader::new(&buf[..3]);
        assert!(matches!(r.u64(), Err(OramError::Snapshot { .. })));
        // Length prefix larger than the remaining bytes.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 40);
        let mut r = SnapReader::new(&buf);
        assert!(matches!(r.bytes(), Err(OramError::Snapshot { .. })));
    }

    #[test]
    fn state_file_roundtrips() {
        let sealed = seal_state(3, b"payload bytes");
        let (kind, payload) = open_state(&sealed).unwrap();
        assert_eq!(kind, 3);
        assert_eq!(payload, b"payload bytes");
    }

    #[test]
    fn any_flipped_bit_is_an_integrity_violation() {
        let sealed = seal_state(1, b"some state payload");
        for pos in 0..sealed.len() {
            let mut corrupt = sealed.clone();
            corrupt[pos] ^= 0x10;
            assert_eq!(
                open_state(&corrupt).unwrap_err(),
                OramError::IntegrityViolation { addr: u64::MAX },
                "flip at byte {pos}"
            );
        }
    }

    #[test]
    fn version_mismatch_with_valid_digest_is_a_snapshot_error() {
        // A well-formed file of a different version (digest recomputed, so
        // the corruption check passes) must fail as a version mismatch.
        let mut sealed = seal_state(1, b"payload");
        sealed.truncate(sealed.len() - DIGEST_BYTES);
        sealed[4..6].copy_from_slice(&99u16.to_le_bytes());
        let digest = Sha3_224::digest(&sealed);
        sealed.extend_from_slice(&digest);
        match open_state(&sealed) {
            Err(OramError::Snapshot { detail }) => assert!(detail.contains("version")),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn short_file_is_a_snapshot_error() {
        let sealed = seal_state(1, b"payload");
        for len in [0, 4, 10, DIGEST_BYTES] {
            assert!(matches!(
                open_state(&sealed[..len]),
                Err(OramError::Snapshot { .. })
            ));
        }
    }
}
