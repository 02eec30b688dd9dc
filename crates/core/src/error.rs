//! Error type for the reconstruction-attack crate.

use randrecon_data::DataError;
use randrecon_linalg::LinalgError;
use randrecon_noise::NoiseError;
use randrecon_stats::StatsError;
use std::fmt;

/// Convenience alias used throughout `randrecon-core`.
pub type Result<T> = std::result::Result<T, ReconError>;

/// Errors raised by the reconstruction attacks.
#[derive(Debug)]
pub enum ReconError {
    /// The disguised table and the noise model disagree in dimensionality, or
    /// the table is too small for the attack to run.
    InvalidInput {
        /// Explanation of the problem.
        reason: String,
    },
    /// An attack parameter was out of range.
    InvalidParameter {
        /// Explanation of the problem.
        reason: String,
    },
    /// The noise model provided does not carry the information this attack needs
    /// (e.g. UDR with a correlated model and no marginal variance).
    UnsupportedNoiseModel {
        /// Which attack rejected the model.
        attack: &'static str,
        /// Why.
        reason: String,
    },
    /// A streaming-engine failure located at a specific chunk of pass 2 —
    /// the wrapper the [`crate::streaming::StreamingDriver`] adds so a
    /// failing source, reconstructor, or sink reports *where* in the stream
    /// it died (which chunk a torn write or full disk hit).
    AtChunk {
        /// 0-based index of the chunk being read, mapped, or sunk.
        chunk: usize,
        /// The underlying failure.
        source: Box<ReconError>,
    },
    /// A per-value failure located at its cell: UDR's posterior mean for one
    /// disguised value.
    AtValue {
        /// 0-based attribute (column) index.
        attribute: usize,
        /// 0-based row: the record index of an in-memory table, or the row
        /// within the chunk in a streaming pass, whose
        /// [`ReconError::AtChunk`] wrapper names the chunk.
        row: usize,
        /// The underlying failure.
        source: StatsError,
    },
    /// A per-attribute failure located at its column: UDR's posterior
    /// preparation refusing an attribute's moments (a NaN or ±∞ among its
    /// values makes its mean non-finite).
    AtAttribute {
        /// 0-based attribute (column) index.
        attribute: usize,
        /// The underlying failure.
        source: StatsError,
    },
    /// The computation was cancelled cooperatively — a deadline expired or a
    /// caller tripped the [`randrecon_parallel::CancelToken`] threaded
    /// through the streaming driver. Checked once per chunk, so a runaway
    /// cell stops at the next chunk boundary instead of wedging its sweep.
    Cancelled {
        /// What was exceeded or who tripped the token.
        reason: String,
    },
    /// Propagated linear-algebra failure (singular system, non-convergence, …).
    Linalg(LinalgError),
    /// Propagated statistics failure.
    Stats(StatsError),
    /// Propagated data-layer failure.
    Data(DataError),
    /// Propagated noise-layer failure.
    Noise(NoiseError),
}

impl ReconError {
    /// Whether this error is (or wraps, through [`ReconError::AtChunk`]) a
    /// cooperative cancellation — the classification the scenario runner
    /// uses to report a cell as timed out rather than broken.
    pub fn is_cancelled(&self) -> bool {
        match self {
            ReconError::Cancelled { .. } => true,
            ReconError::AtChunk { source, .. } => source.is_cancelled(),
            _ => false,
        }
    }
}

impl fmt::Display for ReconError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            ReconError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            ReconError::UnsupportedNoiseModel { attack, reason } => {
                write!(f, "{attack} does not support this noise model: {reason}")
            }
            ReconError::AtChunk { chunk, source } => {
                write!(f, "streaming pass failed at chunk {chunk}: {source}")
            }
            ReconError::AtValue {
                attribute,
                row,
                source,
            } => write!(f, "attribute {attribute}, row {row}: {source}"),
            ReconError::AtAttribute { attribute, source } => {
                write!(f, "attribute {attribute}: {source}")
            }
            ReconError::Cancelled { reason } => write!(f, "cancelled: {reason}"),
            ReconError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            ReconError::Stats(e) => write!(f, "statistics error: {e}"),
            ReconError::Data(e) => write!(f, "data error: {e}"),
            ReconError::Noise(e) => write!(f, "noise model error: {e}"),
        }
    }
}

impl std::error::Error for ReconError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReconError::AtChunk { source, .. } => Some(source.as_ref()),
            ReconError::AtValue { source, .. } => Some(source),
            ReconError::AtAttribute { source, .. } => Some(source),
            ReconError::Linalg(e) => Some(e),
            ReconError::Stats(e) => Some(e),
            ReconError::Data(e) => Some(e),
            ReconError::Noise(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ReconError {
    fn from(e: LinalgError) -> Self {
        ReconError::Linalg(e)
    }
}

impl From<StatsError> for ReconError {
    fn from(e: StatsError) -> Self {
        ReconError::Stats(e)
    }
}

impl From<DataError> for ReconError {
    fn from(e: DataError) -> Self {
        ReconError::Data(e)
    }
}

impl From<NoiseError> for ReconError {
    fn from(e: NoiseError) -> Self {
        ReconError::Noise(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        assert!(ReconError::InvalidInput {
            reason: "empty".into()
        }
        .to_string()
        .contains("empty"));
        assert!(ReconError::InvalidParameter { reason: "p".into() }
            .to_string()
            .contains("p"));
        let e = ReconError::UnsupportedNoiseModel {
            attack: "UDR",
            reason: "no marginal".into(),
        };
        assert!(e.to_string().contains("UDR"));
        let e: ReconError = LinalgError::NotSquare { shape: (2, 3) }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = ReconError::AtChunk {
            chunk: 7,
            source: Box::new(ReconError::InvalidInput {
                reason: "short read".into(),
            }),
        };
        assert!(e.to_string().contains("chunk 7"));
        assert!(e.to_string().contains("short read"));
        assert!(std::error::Error::source(&e).is_some());
        let e: ReconError = StatsError::InsufficientData { got: 0, needed: 2 }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = ReconError::AtValue {
            attribute: 2,
            row: 9,
            source: StatsError::InsufficientData { got: 0, needed: 2 },
        };
        assert!(e.to_string().starts_with("attribute 2, row 9: "), "{e}");
        assert!(std::error::Error::source(&e).is_some());
        let e: ReconError = DataError::UnknownAttribute { name: "x".into() }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: ReconError = NoiseError::InvalidParameter {
            reason: "bad".into(),
        }
        .into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn cancelled_detected_through_at_chunk() {
        let plain = ReconError::Cancelled {
            reason: "deadline".into(),
        };
        assert!(plain.is_cancelled());
        assert!(plain.to_string().contains("cancelled: deadline"));
        let wrapped = ReconError::AtChunk {
            chunk: 3,
            source: Box::new(ReconError::Cancelled {
                reason: "deadline".into(),
            }),
        };
        assert!(wrapped.is_cancelled());
        let other = ReconError::InvalidInput { reason: "x".into() };
        assert!(!other.is_cancelled());
    }
}
