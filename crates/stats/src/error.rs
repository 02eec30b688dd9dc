//! Error type for the statistics crate.

use randrecon_linalg::LinalgError;
use std::fmt;

/// Convenience alias used throughout `randrecon-stats`.
pub type Result<T> = std::result::Result<T, StatsError>;

/// Errors raised by distribution construction, sampling, and estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A parameter was out of its valid range (e.g. non-positive variance).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value that was rejected.
        value: f64,
        /// What the valid range is.
        requirement: &'static str,
    },
    /// Not enough samples to perform the requested estimate.
    InsufficientData {
        /// How many samples were provided.
        got: usize,
        /// How many are needed.
        needed: usize,
    },
    /// Shapes of inputs disagree (e.g. mean vector vs covariance dimension).
    DimensionMismatch {
        /// Description of the failing operation.
        context: String,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// A numerical routine failed to converge.
    DidNotConverge {
        /// Which routine.
        what: &'static str,
        /// How many iterations were run.
        iterations: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(
                f,
                "invalid parameter {name} = {value}: must be {requirement}"
            ),
            StatsError::InsufficientData { got, needed } => {
                write!(
                    f,
                    "insufficient data: got {got} samples, need at least {needed}"
                )
            }
            StatsError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            StatsError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            StatsError::DidNotConverge { what, iterations } => {
                write!(f, "{what} did not converge after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for StatsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StatsError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for StatsError {
    fn from(e: LinalgError) -> Self {
        StatsError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StatsError::InvalidParameter {
            name: "sigma",
            value: -1.0,
            requirement: "positive",
        };
        assert!(e.to_string().contains("sigma"));
        let e = StatsError::InsufficientData { got: 1, needed: 2 };
        assert!(e.to_string().contains("1 samples"));
        let e = StatsError::DidNotConverge {
            what: "EM",
            iterations: 5,
        };
        assert!(e.to_string().contains("EM"));
    }

    #[test]
    fn from_linalg_error_preserves_source() {
        let inner = LinalgError::Empty { op: "solve" };
        let e: StatsError = inner.clone().into();
        assert_eq!(e, StatsError::Linalg(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
