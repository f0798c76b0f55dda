//! Ingestion, loading and snapshot errors.

use locater_events::EventError;
use std::fmt;

/// Errors produced while ingesting connectivity events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The event referenced an access point that is not part of the space metadata.
    UnknownAccessPoint(String),
    /// The device identifier was invalid.
    InvalidDevice(EventError),
    /// The timestamp was outside `[0, 2³²)`: before the deployment epoch, or
    /// past the last second a stored event can carry.
    InvalidTimestamp(i64),
    /// The event id to draw was at or above
    /// [`EVENT_ID_LIMIT`](locater_events::EVENT_ID_LIMIT): ids are stored in
    /// 48 bits.
    InvalidEventId(u64),
    /// A CSV line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// 1-based column at which the offending field starts (1 when unknown).
        column: usize,
        /// Description of the problem.
        reason: String,
    },
    /// An ingestion error annotated with the input line it occurred on (the
    /// streaming loaders wrap semantic errors — unknown AP, bad MAC — so a bad
    /// row in a million-line file is locatable).
    AtLine {
        /// 1-based line number of the offending input row.
        line: usize,
        /// The underlying error.
        source: Box<IngestError>,
    },
    /// The write-ahead log append failed, so the event was rejected *before*
    /// mutating the in-memory store (durable ingest never applies an event it
    /// could not log). Carries the rendered [`crate::wal::WalError`] — this
    /// variant stays `Clone`/`Eq` like the rest of the enum.
    Wal(String),
}

impl IngestError {
    /// Wraps an error with the 1-based input line it occurred on. Parse errors
    /// already carrying a position are returned unchanged.
    pub fn at_line(self, line: usize) -> Self {
        match self {
            IngestError::Malformed { .. } | IngestError::AtLine { .. } => self,
            other => IngestError::AtLine {
                line,
                source: Box::new(other),
            },
        }
    }

    /// The 1-based input line this error is attached to, if any.
    pub fn line(&self) -> Option<usize> {
        match self {
            IngestError::Malformed { line, .. } | IngestError::AtLine { line, .. } => Some(*line),
            _ => None,
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownAccessPoint(name) => {
                write!(f, "unknown access point in event: {name}")
            }
            IngestError::InvalidDevice(err) => write!(f, "invalid device: {err}"),
            IngestError::InvalidTimestamp(t) => write!(f, "invalid event timestamp: {t}"),
            IngestError::InvalidEventId(id) => write!(f, "event id out of range: {id}"),
            IngestError::Malformed {
                line,
                column,
                reason,
            } => {
                write!(
                    f,
                    "malformed event at line {line}, column {column}: {reason}"
                )
            }
            IngestError::AtLine { line, source } => write!(f, "line {line}: {source}"),
            IngestError::Wal(reason) => write!(f, "write-ahead log append failed: {reason}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::InvalidDevice(err) => Some(err),
            IngestError::AtLine { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<EventError> for IngestError {
    fn from(err: EventError) -> Self {
        IngestError::InvalidDevice(err)
    }
}

/// Errors produced while reading or writing binary store snapshots (and the
/// streaming loaders' I/O layer).
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic — not a snapshot at all.
    NotASnapshot,
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build can read.
        supported: u32,
    },
    /// The input ended before the declared payload was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload checksum did not match — the file is corrupt.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The payload decoded but violated a structural invariant.
    Corrupt(String),
    /// The store cannot be represented in the snapshot format (e.g. a device
    /// identifier longer than the format's length field allows). Reported at
    /// *write* time so a bad snapshot is never produced.
    Unencodable(String),
    /// The embedded space metadata could not be rebuilt.
    Space(String),
    /// Event ingestion failed while streaming a CSV source.
    Ingest(IngestError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "snapshot I/O error: {err}"),
            StoreError::NotASnapshot => write!(f, "not a LOCATER snapshot (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads up to {supported})"
            ),
            StoreError::Truncated { needed, available } => write!(
                f,
                "truncated snapshot: needed {needed} bytes, only {available} available"
            ),
            StoreError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            StoreError::Corrupt(reason) => write!(f, "corrupt snapshot payload: {reason}"),
            StoreError::Unencodable(reason) => write!(f, "cannot encode snapshot: {reason}"),
            StoreError::Space(reason) => write!(f, "invalid embedded space metadata: {reason}"),
            StoreError::Ingest(err) => write!(f, "ingestion failed: {err}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            StoreError::Ingest(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

impl From<IngestError> for StoreError {
    fn from(err: IngestError) -> Self {
        StoreError::Ingest(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = IngestError::UnknownAccessPoint("wap9".into());
        assert!(e.to_string().contains("wap9"));
        let e = IngestError::InvalidTimestamp(-3);
        assert!(e.to_string().contains("-3"));
        let e: IngestError = EventError::InvalidMac("".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        let e = IngestError::Malformed {
            line: 7,
            column: 4,
            reason: "missing field".into(),
        };
        assert!(e.to_string().contains("line 7"));
        assert!(e.to_string().contains("column 4"));
        assert_eq!(e.line(), Some(7));
    }

    #[test]
    fn at_line_wraps_semantic_errors_only_once() {
        let e = IngestError::UnknownAccessPoint("wap9".into()).at_line(12);
        assert_eq!(e.line(), Some(12));
        assert!(e.to_string().contains("line 12"));
        assert!(e.to_string().contains("wap9"));
        assert!(std::error::Error::source(&e).is_some());
        // Re-wrapping keeps the original position.
        let e = e.at_line(99);
        assert_eq!(e.line(), Some(12));
        // Parse errors already carry their position and are left alone.
        let parse = IngestError::Malformed {
            line: 3,
            column: 1,
            reason: "x".into(),
        }
        .at_line(50);
        assert_eq!(parse.line(), Some(3));
    }

    #[test]
    fn store_error_displays_each_variant() {
        assert!(StoreError::NotASnapshot.to_string().contains("magic"));
        let e = StoreError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = StoreError::Truncated {
            needed: 16,
            available: 4,
        };
        assert!(e.to_string().contains("16"));
        let e = StoreError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("mismatch"));
        assert!(StoreError::Corrupt("bad".into())
            .to_string()
            .contains("bad"));
        assert!(StoreError::Space("no rooms".into())
            .to_string()
            .contains("no rooms"));
        let e: StoreError = IngestError::InvalidTimestamp(-1).into();
        assert!(std::error::Error::source(&e).is_some());
        let e: StoreError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
    }
}
