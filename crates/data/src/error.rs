//! Error type for the data crate.

use randrecon_linalg::LinalgError;
use randrecon_stats::StatsError;
use std::fmt;

/// Convenience alias used throughout `randrecon-data`.
pub type Result<T> = std::result::Result<T, DataError>;

/// Errors raised by table construction, CSV parsing, and workload generation.
#[derive(Debug)]
pub enum DataError {
    /// The schema and the data disagree (wrong number of columns, duplicate names, …).
    SchemaMismatch {
        /// What went wrong.
        reason: String,
    },
    /// A referenced attribute does not exist.
    UnknownAttribute {
        /// The attribute name that was requested.
        name: String,
    },
    /// CSV input could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// Workload specification was invalid (e.g. empty eigenvalue spectrum).
    InvalidWorkload {
        /// What went wrong.
        reason: String,
    },
    /// A chunked record source failed mid-stream (e.g. a wrapped generator or
    /// randomizer reported an error while producing a chunk).
    Stream {
        /// What went wrong.
        reason: String,
    },
    /// A record cannot be written as CSV: it holds a `NaN` or an infinity,
    /// which the CSV readers refuse.
    NonFinite {
        /// 1-based record index, counted across every chunk written.
        record: usize,
        /// 1-based column.
        column: usize,
        /// The refused value.
        value: f64,
    },
    /// An I/O error from reading or writing CSV files.
    Io(std::io::Error),
    /// An I/O error located at the file path it hit — what the bare
    /// [`Io`](DataError::Io) variant becomes once a path is known, so a
    /// failed open in a 1000-cell sweep names the file instead of just
    /// "No such file or directory".
    IoAt {
        /// The file the operation targeted.
        path: std::path::PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// Propagated linear-algebra failure.
    Linalg(LinalgError),
    /// Propagated statistics failure.
    Stats(StatsError),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::SchemaMismatch { reason } => write!(f, "schema mismatch: {reason}"),
            DataError::UnknownAttribute { name } => write!(f, "unknown attribute: {name}"),
            DataError::Parse { line, reason } => {
                write!(f, "CSV parse error at line {line}: {reason}")
            }
            DataError::InvalidWorkload { reason } => write!(f, "invalid workload: {reason}"),
            DataError::Stream { reason } => write!(f, "record stream error: {reason}"),
            DataError::NonFinite {
                record,
                column,
                value,
            } => write!(
                f,
                "CSV write error at record {record}: column {column}: '{value}' is not a finite number"
            ),
            DataError::Io(e) => write!(f, "I/O error: {e}"),
            DataError::IoAt { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            DataError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            DataError::Stats(e) => write!(f, "statistics error: {e}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            DataError::IoAt { source, .. } => Some(source),
            DataError::Linalg(e) => Some(e),
            DataError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

impl From<LinalgError> for DataError {
    fn from(e: LinalgError) -> Self {
        DataError::Linalg(e)
    }
}

impl From<StatsError> for DataError {
    fn from(e: StatsError) -> Self {
        DataError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(DataError::SchemaMismatch { reason: "x".into() }
            .to_string()
            .contains("schema"));
        assert!(DataError::UnknownAttribute { name: "age".into() }
            .to_string()
            .contains("age"));
        assert!(DataError::Parse {
            line: 3,
            reason: "bad".into()
        }
        .to_string()
        .contains("line 3"));
        assert!(DataError::InvalidWorkload {
            reason: "empty".into()
        }
        .to_string()
        .contains("empty"));
    }

    #[test]
    fn conversions_preserve_source() {
        let e: DataError = LinalgError::NotSquare { shape: (2, 3) }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: DataError = StatsError::InsufficientData { got: 0, needed: 1 }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: DataError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        let e = DataError::IoAt {
            path: std::path::PathBuf::from("/tmp/records.csv"),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert!(e.to_string().contains("records.csv"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
