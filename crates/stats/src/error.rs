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
    /// A posterior mean found no posterior mass on its quadrature grid: no
    /// grid point inside the noise window carries a prior weight above
    /// underflow, or none falls inside the window at all.
    ZeroPosteriorMass {
        /// The disguised value whose posterior was asked for.
        value: f64,
        /// Lower end of the grid.
        low: f64,
        /// Upper end of the grid.
        high: f64,
        /// Distance between neighbouring grid points.
        spacing: f64,
        /// Width of the noise density's support, when it is bounded.
        noise_window: Option<f64>,
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
            StatsError::ZeroPosteriorMass {
                value,
                low,
                high,
                spacing,
                noise_window,
            } => {
                write!(
                    f,
                    "zero posterior mass for value {value} on the quadrature grid \
                     [{low}, {high}] with spacing {spacing}"
                )?;
                match noise_window {
                    Some(window) if window < spacing => write!(
                        f,
                        "; the noise window (width {window}) is narrower than the grid \
                         spacing, so a value can fall between grid points"
                    ),
                    _ => Ok(()),
                }
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
        let e = StatsError::ZeroPosteriorMass {
            value: 2.5,
            low: -1.0,
            high: 1.0,
            spacing: 0.5,
            noise_window: Some(0.25),
        };
        let message = e.to_string();
        assert!(message.contains("value 2.5"), "{message}");
        assert!(message.contains("[-1, 1] with spacing 0.5"), "{message}");
        assert!(
            message.contains("narrower than the grid spacing"),
            "{message}"
        );
        let e = StatsError::ZeroPosteriorMass {
            value: 2.5,
            low: -1.0,
            high: 1.0,
            spacing: 0.5,
            noise_window: Some(1.0),
        };
        assert!(!e.to_string().contains("narrower"));
    }

    #[test]
    fn from_linalg_error_preserves_source() {
        let inner = LinalgError::Empty { op: "solve" };
        let e: StatsError = inner.clone().into();
        assert_eq!(e, StatsError::Linalg(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
