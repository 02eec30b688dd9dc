//! Error type for the randomization crate.

use randrecon_data::DataError;
use randrecon_linalg::LinalgError;
use randrecon_stats::StatsError;
use std::fmt;

/// Convenience alias used throughout `randrecon-noise`.
pub type Result<T> = std::result::Result<T, NoiseError>;

/// Errors raised by randomization schemes.
#[derive(Debug)]
pub enum NoiseError {
    /// A noise parameter was invalid (non-positive variance, probability out of range, …).
    InvalidParameter {
        /// What was wrong.
        reason: String,
    },
    /// The noise model's dimensionality does not match the data set.
    DimensionMismatch {
        /// What was expected vs provided.
        reason: String,
    },
    /// Propagated error from the data layer.
    Data(DataError),
    /// Propagated error from the statistics layer.
    Stats(StatsError),
    /// Propagated error from the linear-algebra layer.
    Linalg(LinalgError),
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseError::InvalidParameter { reason } => {
                write!(f, "invalid noise parameter: {reason}")
            }
            NoiseError::DimensionMismatch { reason } => write!(f, "dimension mismatch: {reason}"),
            NoiseError::Data(e) => write!(f, "data error: {e}"),
            NoiseError::Stats(e) => write!(f, "statistics error: {e}"),
            NoiseError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for NoiseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NoiseError::Data(e) => Some(e),
            NoiseError::Stats(e) => Some(e),
            NoiseError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for NoiseError {
    fn from(e: DataError) -> Self {
        NoiseError::Data(e)
    }
}

impl From<StatsError> for NoiseError {
    fn from(e: StatsError) -> Self {
        NoiseError::Stats(e)
    }
}

impl From<LinalgError> for NoiseError {
    fn from(e: LinalgError) -> Self {
        NoiseError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = NoiseError::InvalidParameter {
            reason: "sigma <= 0".into(),
        };
        assert!(e.to_string().contains("sigma"));
        let e: NoiseError = StatsError::InsufficientData { got: 0, needed: 1 }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: NoiseError = LinalgError::NotSquare { shape: (2, 3) }.into();
        assert!(e.to_string().contains("square"));
        let e: NoiseError = DataError::UnknownAttribute { name: "x".into() }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
