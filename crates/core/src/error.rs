//! The crate's unified error surface.
//!
//! Everything the processor-facing API can fail with is a
//! [`FreecursiveError`]: configuration problems ([`ConfigError`]), backend
//! failures ([`path_oram::OramError`]), and PMMAC integrity violations, which
//! get their own variant because a secure processor treats them as a
//! halt-the-machine event rather than an ordinary error (§6).

use path_oram::OramError;

/// Errors detected while validating a [`crate::FreecursiveConfig`] or
/// resolving an [`crate::OramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A size parameter was zero.
    Degenerate,
    /// PMMAC requires counter-based PosMap formats (flat counters or the
    /// compressed format, §6.2.2).
    PmmacNeedsCounters,
    /// The requested X is smaller than 2.
    XTooSmall {
        /// The offending X.
        x: u64,
    },
    /// The requested X does not fit in the PosMap block.
    XTooLarge {
        /// The offending X.
        x: u64,
        /// The largest X the block can hold.
        max: u64,
    },
    /// The configured capacity needs an ORAM tree deeper than
    /// [`path_oram::OramParams::MAX_LEAF_LEVEL`].
    TooManyBlocks {
        /// The offending number of data blocks.
        num_blocks: u64,
    },
    /// The requested scheme point cannot be built by this constructor (e.g.
    /// asking [`crate::OramBuilder::build_freecursive`] for `insecure`).
    UnsupportedScheme {
        /// The label of the offending scheme point.
        scheme: &'static str,
    },
    /// An oblivious-map geometry constraint failed: the overflow pool is
    /// smaller than one worst-case value chain, the backing ORAM is smaller
    /// or differently-sized than the layout requires, or a derived count
    /// does not fit its index type.  Raised at `build_map` time so bad
    /// parameter combinations never reach the first insert.
    MapGeometry {
        /// Which constraint failed.
        detail: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Degenerate => write!(f, "a size parameter was zero"),
            ConfigError::PmmacNeedsCounters => {
                write!(f, "pmmac requires a counter-based posmap format")
            }
            ConfigError::XTooSmall { x } => write!(f, "x = {x} is too small (minimum 2)"),
            ConfigError::XTooLarge { x, max } => {
                write!(
                    f,
                    "x = {x} does not fit in the posmap block (maximum {max})"
                )
            }
            ConfigError::TooManyBlocks { num_blocks } => write!(
                f,
                "{num_blocks} blocks need a tree deeper than the supported leaf level {}",
                path_oram::OramParams::MAX_LEAF_LEVEL
            ),
            ConfigError::UnsupportedScheme { scheme } => {
                write!(
                    f,
                    "scheme point {scheme} is not supported by this constructor"
                )
            }
            ConfigError::MapGeometry { detail } => {
                write!(f, "oblivious map geometry is unsatisfiable: {detail}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors of the oblivious key-value layer (`oram-omap`'s `ObliviousMap`),
/// surfaced through [`FreecursiveError::Map`] so map callers keep the same
/// unified error surface as block callers.
///
/// The variants split along the map's two failure axes: *input* problems
/// ([`MapError::KeyTooLarge`], [`MapError::ValueTooLarge`]) are detected
/// before any ORAM access is issued and depend only on the caller-visible
/// request, while [`MapError::CapacityExhausted`] is a *state* problem —
/// discovered mid-operation, after which the op still completes its full
/// padded access schedule so the failure is not distinguishable from a
/// success in the ORAM request count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// The key is longer than the layout's maximum key size.
    KeyTooLarge {
        /// Length of the offending key in bytes.
        len: usize,
        /// The layout's maximum key length.
        max: usize,
    },
    /// The value is longer than the layout's maximum value size.
    ValueTooLarge {
        /// Length of the offending value in bytes.
        len: usize,
        /// The layout's maximum value length.
        max: usize,
    },
    /// The map cannot hold the entry: both candidate buckets are full, or
    /// the overflow pool has no free chain blocks left.  Also produced at
    /// construction when the requested geometry cannot satisfy even one
    /// worst-case entry.
    CapacityExhausted {
        /// What ran out (candidate slots, overflow pool, …).
        detail: &'static str,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::KeyTooLarge { len, max } => {
                write!(f, "key of {len} bytes exceeds the maximum of {max}")
            }
            MapError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} bytes exceeds the maximum of {max}")
            }
            MapError::CapacityExhausted { detail } => {
                write!(f, "map capacity exhausted: {detail}")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// The unified error type of the processor-facing ORAM API.
///
/// Construction and access go through exactly this one enum, so callers can
/// hold a `Box<dyn Oram>` without caring which frontend or backend is behind
/// it.  `From` conversions are provided for both underlying error types;
/// [`OramError::IntegrityViolation`] is promoted to the dedicated
/// [`FreecursiveError::Integrity`] variant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FreecursiveError {
    /// The requested configuration is invalid.
    Config(ConfigError),
    /// The backend failed (stash overflow, malformed bucket, missing block,
    /// out-of-range parameters, …).
    Backend(OramError),
    /// PMMAC detected tampered or replayed memory (§6).  A secure processor
    /// halts on this condition.
    Integrity {
        /// The unified address whose MAC failed to verify.
        addr: u64,
    },
    /// A request inside a batch failed: the index pins down *which* request,
    /// the source says why.  Produced by [`crate::Oram::access_batch`] and
    /// the sharded/service fan-out paths so batch callers never have to
    /// bisect a failing batch by hand.
    Batch {
        /// Position of the failing request within the submitted batch.
        index: usize,
        /// The underlying failure.
        source: Box<FreecursiveError>,
    },
    /// The [`crate::OramService`] runtime failed: a shard worker panicked,
    /// was shut down, or its channel disconnected.  Clients receive this
    /// instead of hanging on a dead worker.
    Service {
        /// Human-readable description of what happened to the worker.
        detail: String,
    },
    /// The oblivious key-value layer rejected the operation (key/value too
    /// large for the layout, or the map/overflow capacity is exhausted).
    /// See [`MapError`] for the failure-axis split.
    Map(MapError),
}

impl FreecursiveError {
    /// Whether this error is an integrity violation (the halt-the-processor
    /// condition of the threat model).  Sees through [`Self::Batch`]
    /// wrapping.
    pub fn is_integrity_violation(&self) -> bool {
        match self {
            FreecursiveError::Integrity { .. } => true,
            FreecursiveError::Batch { source, .. } => source.is_integrity_violation(),
            _ => false,
        }
    }

    /// Wraps this error with the index of the batch request that produced
    /// it.  Already-wrapped errors keep their (innermost-batch) index: the
    /// sharded fan-out re-wraps with the *global* index explicitly instead.
    pub fn with_batch_index(self, index: usize) -> FreecursiveError {
        match self {
            already @ FreecursiveError::Batch { .. } => already,
            source => FreecursiveError::Batch {
                index,
                source: Box::new(source),
            },
        }
    }

    /// Strips [`Self::Batch`] wrapping, returning the underlying failure.
    pub fn into_source(self) -> FreecursiveError {
        match self {
            FreecursiveError::Batch { source, .. } => source.into_source(),
            other => other,
        }
    }
}

impl std::fmt::Display for FreecursiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreecursiveError::Config(e) => write!(f, "invalid configuration: {e}"),
            FreecursiveError::Backend(e) => write!(f, "backend failure: {e}"),
            FreecursiveError::Integrity { addr } => {
                write!(
                    f,
                    "integrity violation on block {addr:#x} (tampered or replayed memory)"
                )
            }
            FreecursiveError::Batch { index, source } => {
                write!(f, "request {index} in batch failed: {source}")
            }
            FreecursiveError::Service { detail } => {
                write!(f, "oram service failure: {detail}")
            }
            FreecursiveError::Map(e) => write!(f, "oblivious map failure: {e}"),
        }
    }
}

impl std::error::Error for FreecursiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FreecursiveError::Config(e) => Some(e),
            FreecursiveError::Backend(e) => Some(e),
            FreecursiveError::Map(e) => Some(e),
            FreecursiveError::Batch { source, .. } => Some(source),
            FreecursiveError::Integrity { .. } | FreecursiveError::Service { .. } => None,
        }
    }
}

impl From<ConfigError> for FreecursiveError {
    fn from(e: ConfigError) -> Self {
        FreecursiveError::Config(e)
    }
}

impl From<MapError> for FreecursiveError {
    fn from(e: MapError) -> Self {
        FreecursiveError::Map(e)
    }
}

impl From<OramError> for FreecursiveError {
    fn from(e: OramError) -> Self {
        match e {
            OramError::IntegrityViolation { addr } => FreecursiveError::Integrity { addr },
            other => FreecursiveError::Backend(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ConfigError::XTooLarge { x: 99, max: 32 }
            .to_string()
            .contains("99"));
        assert!(FreecursiveError::Integrity { addr: 0xAB }
            .to_string()
            .contains("0xab"));
    }

    #[test]
    fn integrity_violations_are_promoted() {
        let e: FreecursiveError = OramError::IntegrityViolation { addr: 7 }.into();
        assert_eq!(e, FreecursiveError::Integrity { addr: 7 });
        assert!(e.is_integrity_violation());
        let e: FreecursiveError = OramError::MissingWriteData.into();
        assert_eq!(e, FreecursiveError::Backend(OramError::MissingWriteData));
        assert!(!e.is_integrity_violation());
    }

    #[test]
    fn batch_wrapping_reports_the_index_and_preserves_the_source() {
        let e = FreecursiveError::from(OramError::MissingWriteData).with_batch_index(17);
        assert!(e.to_string().contains("request 17"));
        // Re-wrapping keeps the innermost index.
        let rewrapped = e.clone().with_batch_index(99);
        assert_eq!(rewrapped, e);
        assert_eq!(
            e.into_source(),
            FreecursiveError::Backend(OramError::MissingWriteData)
        );
        // Integrity violations stay recognisable through the wrapper.
        let halt = FreecursiveError::Integrity { addr: 3 }.with_batch_index(0);
        assert!(halt.is_integrity_violation());
        use std::error::Error as _;
        assert!(halt.source().is_some());
    }

    #[test]
    fn service_errors_carry_detail() {
        let e = FreecursiveError::Service {
            detail: "shard 2 worker panicked".into(),
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(!e.is_integrity_violation());
    }

    #[test]
    fn map_errors_wrap_and_display() {
        let e: FreecursiveError = MapError::KeyTooLarge { len: 99, max: 24 }.into();
        assert!(matches!(
            e,
            FreecursiveError::Map(MapError::KeyTooLarge { len: 99, max: 24 })
        ));
        assert!(e.to_string().contains("99"));
        assert!(!e.is_integrity_violation());
        use std::error::Error as _;
        assert!(e.source().is_some());
        let e: FreecursiveError = MapError::ValueTooLarge { len: 7, max: 4 }.into();
        assert!(e.to_string().contains("exceeds"));
        // Capacity exhaustion stays recognisable through batch wrapping.
        let e = FreecursiveError::from(MapError::CapacityExhausted {
            detail: "both candidate buckets full",
        })
        .with_batch_index(3);
        assert!(matches!(
            e.into_source(),
            FreecursiveError::Map(MapError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn config_errors_wrap() {
        let e: FreecursiveError = ConfigError::Degenerate.into();
        assert!(matches!(
            e,
            FreecursiveError::Config(ConfigError::Degenerate)
        ));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}
