//! Shared plumbing for whole-instance snapshot/restore.
//!
//! Every frontend persists into one directory: a digest-sealed
//! `oram.state` file (see [`path_oram::snapshot`] for the framing) holding
//! the controller's trusted state — configuration, PosMap/PLB contents, the
//! leaf-draw counter, statistics, and the backend's controller-side bytes —
//! plus the tree files the backend's store writes next to it.  This module
//! holds the kind tags that dispatch `OramBuilder::resume`, and the
//! field-by-field serialisation helpers for the structs shared across
//! frontends (written by hand against [`path_oram::snapshot`], as the
//! workspace has no serialisation framework).

use crate::config::PosMapFormat;
use crate::stats::FrontendStats;
use path_oram::snapshot::{put_u32, put_u64, put_u8, SnapReader};
use path_oram::{BackendStats, EncryptionMode, OramError};
use posmap::PlbStats;
use std::path::{Path, PathBuf};

/// File name of the state file inside a snapshot directory.
pub(crate) const STATE_FILE: &str = "oram.state";

/// Snapshot kind tag: a [`crate::FreecursiveOram`] instance, with or
/// without a PLB, that carries its leaf-draw counter.
pub(crate) const KIND_FREECURSIVE: u8 = 5;
/// Snapshot kind tag, read but never written: a [`crate::FreecursiveOram`]
/// instance persisted while a xoshiro256++ generator drew its leaves, whose
/// four state words sit where [`KIND_FREECURSIVE`] has the draw counter.
/// (Tag 2 is retired: it named the separate Recursive ORAM frontend that
/// `R_X8` used to be, and now resumes as a snapshot error.)
pub(crate) const KIND_FREECURSIVE_XOSHIRO: u8 = 1;
/// Snapshot kind tag: an [`crate::InsecureOram`] instance.
pub(crate) const KIND_INSECURE: u8 = 3;
/// Snapshot kind tag: a [`crate::ShardedOram`] composite (per-shard
/// snapshots live in `shard<i>/` subdirectories).
pub(crate) const KIND_SHARDED: u8 = 4;

/// Path of the state file inside `dir`.
pub(crate) fn state_path(dir: &Path) -> PathBuf {
    dir.join(STATE_FILE)
}

/// The error for a state file whose kind tag names a different frontend.
pub(crate) fn wrong_kind(expected: &str, found: u8) -> OramError {
    OramError::Snapshot {
        detail: format!("snapshot is not a {expected} instance (kind tag {found})"),
    }
}

pub(crate) fn put_encryption(out: &mut Vec<u8>, mode: EncryptionMode) {
    put_u8(
        out,
        match mode {
            EncryptionMode::None => 0,
            EncryptionMode::PerBucketSeed => 1,
            EncryptionMode::GlobalSeed => 2,
        },
    );
}

pub(crate) fn get_encryption(r: &mut SnapReader<'_>) -> Result<EncryptionMode, OramError> {
    Ok(match r.u8()? {
        0 => EncryptionMode::None,
        1 => EncryptionMode::PerBucketSeed,
        2 => EncryptionMode::GlobalSeed,
        other => {
            return Err(OramError::Snapshot {
                detail: format!("unknown encryption mode tag {other}"),
            })
        }
    })
}

pub(crate) fn put_posmap_format(out: &mut Vec<u8>, format: PosMapFormat) {
    match format {
        PosMapFormat::UncompressedLeaves => put_u8(out, 0),
        PosMapFormat::FlatCounters => put_u8(out, 1),
        PosMapFormat::Compressed { alpha, beta } => {
            put_u8(out, 2);
            put_u32(out, alpha);
            put_u32(out, beta);
        }
    }
}

pub(crate) fn get_posmap_format(r: &mut SnapReader<'_>) -> Result<PosMapFormat, OramError> {
    Ok(match r.u8()? {
        0 => PosMapFormat::UncompressedLeaves,
        1 => PosMapFormat::FlatCounters,
        2 => PosMapFormat::Compressed {
            alpha: r.u32()?,
            beta: r.u32()?,
        },
        other => {
            return Err(OramError::Snapshot {
                detail: format!("unknown posmap format tag {other}"),
            })
        }
    })
}

pub(crate) fn put_plb_stats(out: &mut Vec<u8>, stats: &PlbStats) {
    let PlbStats {
        hits,
        misses,
        evictions,
    } = stats;
    put_u64(out, *hits);
    put_u64(out, *misses);
    put_u64(out, *evictions);
}

pub(crate) fn get_plb_stats(r: &mut SnapReader<'_>) -> Result<PlbStats, OramError> {
    Ok(PlbStats {
        hits: r.u64()?,
        misses: r.u64()?,
        evictions: r.u64()?,
    })
}

/// Serialises [`FrontendStats`] (exhaustive destructuring, so a new counter
/// fails to compile here until it is persisted too).
pub(crate) fn put_frontend_stats(out: &mut Vec<u8>, stats: &FrontendStats) {
    let FrontendStats {
        frontend_requests,
        data_backend_accesses,
        posmap_backend_accesses,
        group_remap_accesses,
        group_remaps,
        appends,
        data_bytes_moved,
        posmap_bytes_moved,
        macs_verified,
        macs_computed,
        merkle_equivalent_hashes,
        integrity_violations,
        plb,
        backend,
    } = stats;
    put_u64(out, *frontend_requests);
    put_u64(out, *data_backend_accesses);
    put_u64(out, *posmap_backend_accesses);
    put_u64(out, *group_remap_accesses);
    put_u64(out, *group_remaps);
    put_u64(out, *appends);
    put_u64(out, *data_bytes_moved);
    put_u64(out, *posmap_bytes_moved);
    put_u64(out, *macs_verified);
    put_u64(out, *macs_computed);
    put_u64(out, *merkle_equivalent_hashes);
    put_u64(out, *integrity_violations);
    put_plb_stats(out, plb);
    backend.save(out);
}

pub(crate) fn get_frontend_stats(r: &mut SnapReader<'_>) -> Result<FrontendStats, OramError> {
    Ok(FrontendStats {
        frontend_requests: r.u64()?,
        data_backend_accesses: r.u64()?,
        posmap_backend_accesses: r.u64()?,
        group_remap_accesses: r.u64()?,
        group_remaps: r.u64()?,
        appends: r.u64()?,
        data_bytes_moved: r.u64()?,
        posmap_bytes_moved: r.u64()?,
        macs_verified: r.u64()?,
        macs_computed: r.u64()?,
        merkle_equivalent_hashes: r.u64()?,
        integrity_violations: r.u64()?,
        plb: get_plb_stats(r)?,
        backend: BackendStats::load(r)?,
    })
}

/// Wraps a filesystem error while creating a snapshot directory.
pub(crate) fn dir_error(dir: &Path, e: std::io::Error) -> OramError {
    OramError::Storage {
        detail: format!("creating snapshot directory {}: {e}", dir.display()),
    }
}
