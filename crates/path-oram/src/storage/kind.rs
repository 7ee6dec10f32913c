//! Storage kind resolution: which [`StorageKind`] a selector, an
//! environment or a snapshot names, and the tree metadata file and
//! `OpenTree` through which every kind resumes a persisted tree.

#[cfg(doc)]
use super::TreeStorage;
use super::{io_err, tree_file_path, tree_meta_path, treetop_levels_for_budget};
use crate::error::OramError;
use crate::params::OramParams;
use crate::snapshot::{self, SnapReader};
use dram_sim::SubtreeLayout;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

/// State-file kind byte of a tree metadata file (see [`crate::snapshot`]).
const TREE_META_KIND: u8 = 0x10;

/// Where a backend keeps its ORAM tree.
///
/// Construction-time knob, threaded from `OramBuilder::storage` through the
/// frontends to [`TreeStorage::create`].  Backends without untrusted tree
/// storage (e.g. the flat insecure baseline) ignore it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageKind {
    /// The whole tree in a RAM arena (`K` = levels, no file); the default.
    Mem,
    /// A file-backed tree (`K` = 0) living in the given directory.
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
    /// A tiered tree living in the given directory: the top levels in a
    /// RAM arena (as many as `memory_budget` bytes allow, see
    /// [`treetop_levels_for_budget`]), everything deeper in the same
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

    /// Resolves the kind an environment selects, reading its variables
    /// through `var`: `ORAM_STORAGE` selects the kind via
    /// [`StorageKind::parse`] (with the treetop budget from
    /// `ORAM_MEMORY_BUDGET`); unset selects [`StorageKind::Mem`].
    /// `freecursive`'s `OramBuilder` calls this (with the process
    /// environment) for an unset storage knob, which is how the CI file-
    /// and tiered-storage test legs run the whole suite over the other
    /// stores without touching call sites.
    ///
    /// # Errors
    ///
    /// [`OramError::Storage`] for an unrecognised `ORAM_STORAGE` or
    /// unparsable `ORAM_MEMORY_BUDGET` value: both are operator
    /// configuration errors, and silently falling back to the memory store
    /// would un-test exactly what the operator asked to test.
    pub fn from_env(var: impl Fn(&str) -> Option<String>) -> Result<StorageKind, OramError> {
        let budget = var("ORAM_MEMORY_BUDGET")
            .map(|v| Self::parse_memory_budget(&v))
            .transpose()?;
        var("ORAM_STORAGE").map_or(Ok(StorageKind::Mem), |v| Self::parse(&v, budget))
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

    /// `K`, the number of top tree levels a store of this kind keeps in
    /// RAM: all of them for `Mem`, none for the file kinds, and as many as
    /// the budget allows for the tiered kinds.
    pub(super) fn treetop_levels(&self, params: &OramParams) -> u32 {
        match self {
            StorageKind::Mem => params.levels(),
            StorageKind::File { .. } | StorageKind::TempFile => 0,
            StorageKind::Tiered { memory_budget, .. }
            | StorageKind::TempTiered { memory_budget } => {
                treetop_levels_for_budget(params, *memory_budget)
            }
        }
    }

    /// Appends this kind's snapshot encoding to `out`: a one-byte tag (0
    /// `Mem`, 1 file, 2 tiered; temp stores persist as plain
    /// directory-rooted ones: the snapshot directory *is* their new home),
    /// followed (for tiered kinds only) by the treetop budget as a
    /// little-endian `u64`.  Old snapshots — written before tiered storage
    /// existed — decode unchanged: the budget field exists only behind tag
    /// 2, which they never wrote.
    pub fn save(&self, out: &mut Vec<u8>) {
        match self {
            StorageKind::Mem => snapshot::put_u8(out, 0),
            StorageKind::File { .. } | StorageKind::TempFile => snapshot::put_u8(out, 1),
            StorageKind::Tiered { memory_budget, .. }
            | StorageKind::TempTiered { memory_budget } => {
                snapshot::put_u8(out, 2);
                snapshot::put_u64(out, *memory_budget);
            }
        }
    }

    /// Inverse of [`StorageKind::save`], rooting directory-backed kinds at
    /// `dir` (the snapshot directory).
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on an unknown tag or truncated encoding.
    pub fn load(r: &mut SnapReader<'_>, dir: &Path) -> Result<StorageKind, OramError> {
        let dir = dir.to_path_buf();
        match r.u8()? {
            0 => Ok(StorageKind::Mem),
            1 => Ok(StorageKind::File { dir }),
            2 => Ok(StorageKind::Tiered {
                dir,
                memory_budget: r.u64()?,
            }),
            other => Err(OramError::Snapshot {
                detail: format!("unknown storage kind tag {other}"),
            }),
        }
    }
}

/// Serialises a tree metadata file: geometry, the initialised bitmap, and
/// the WAL sequence number the tree file is known to cover (`wal_seq`; 0
/// for trees that never logged).
pub(super) fn write_tree_meta(
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

/// A persisted tree file opened for resuming.
pub(super) struct OpenTree {
    pub(super) file: File,
    pub(super) path: PathBuf,
}

impl OpenTree {
    /// Opens the persisted tree `label` under `dir`, read-write when
    /// `writable`: validates its metadata against `params` and checks that
    /// the tree file spans the whole `layout`.  Every store kind resumes
    /// through here, so a short tree file is an [`OramError::Snapshot`]
    /// whatever the kind.  Returns the tree with the initialised bitmap and
    /// the WAL sequence number its metadata records.
    pub(super) fn open(
        params: &OramParams,
        layout: &SubtreeLayout,
        dir: &Path,
        label: u32,
        writable: bool,
    ) -> Result<(Self, Vec<u64>, u64), OramError> {
        let (initialized, wal_seq) = read_tree_meta(
            &tree_meta_path(dir, label),
            params.num_buckets() as usize,
            params.bucket_bytes(),
            layout.subtree_levels(),
        )?;
        let path = tree_file_path(dir, label);
        let file = OpenOptions::new()
            .read(true)
            .write(writable)
            .open(&path)
            .map_err(|e| io_err("opening", &path, e))?;
        let actual = file
            .metadata()
            .map_err(|e| io_err("inspecting", &path, e))?
            .len();
        if actual < layout.total_bytes() {
            return Err(OramError::Snapshot {
                detail: format!(
                    "tree file {} is short: {actual} bytes, expected {}",
                    path.display(),
                    layout.total_bytes()
                ),
            });
        }
        Ok((Self { file, path }, initialized, wal_seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let saved = |kind: &StorageKind| {
            let mut out = Vec::new();
            kind.save(&mut out);
            out
        };
        assert_eq!(saved(&StorageKind::Mem), [0]);
        assert_eq!(saved(&file), [1]);
        assert_eq!(saved(&StorageKind::TempFile), [1]);
        let tiered_bytes = [&[2u8][..], &(1u64 << 20).to_le_bytes()].concat();
        assert_eq!(saved(&tiered), tiered_bytes);
        assert_eq!(
            saved(&StorageKind::TempTiered {
                memory_budget: 1 << 20
            }),
            tiered_bytes
        );
        let root = Path::new("/snap");
        let load = |bytes: &[u8]| StorageKind::load(&mut SnapReader::new(bytes), root);
        assert_eq!(load(&[0]).unwrap(), StorageKind::Mem);
        assert_eq!(
            load(&[1]).unwrap(),
            StorageKind::File {
                dir: root.to_path_buf()
            }
        );
        assert!(load(&[9]).is_err());
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
        // A bare tiered tag, missing its budget field, is refused rather
        // than given an invented budget.
        assert!(StorageKind::load(&mut SnapReader::new(&[2]), root).is_err());
    }
}
