//! Error type for the experiment harness.

use randrecon_core::ReconError;
use randrecon_data::DataError;
use randrecon_metrics::MetricsError;
use randrecon_noise::NoiseError;
use std::fmt;

/// Convenience alias used throughout `randrecon-experiments`.
pub type Result<T> = std::result::Result<T, ExperimentError>;

/// Errors raised while configuring or running an experiment.
#[derive(Debug)]
pub enum ExperimentError {
    /// The experiment configuration is inconsistent (empty sweep, bad sizes, …).
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// A worker thread panicked or a parallel task failed to produce a result.
    WorkerFailed {
        /// Description of the failure.
        reason: String,
    },
    /// I/O failure while writing reports.
    Io(std::io::Error),
    /// I/O failure located at the file path it hit (report writing, journal
    /// paths passed on the command line, …).
    IoAt {
        /// The file the operation targeted.
        path: std::path::PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// A result-journal failure: the file could not be created, appended, or
    /// recovered, or an existing journal does not match the grid it is being
    /// resumed against (stale-journal rejection).
    Journal {
        /// The journal file.
        path: std::path::PathBuf,
        /// What went wrong.
        reason: String,
    },
    /// A deterministic injected fault from the testing-support harness
    /// ([`crate::fault`]) — never produced by real scenarios.
    InjectedFault {
        /// The scenario that carried the fault spec.
        label: String,
    },
    /// Propagated failure from workload generation.
    Data(DataError),
    /// Propagated failure from the randomization layer.
    Noise(NoiseError),
    /// Propagated failure from a reconstruction attack.
    Recon(ReconError),
    /// Propagated failure from a metric computation.
    Metrics(MetricsError),
}

impl ExperimentError {
    /// Whether this failure is plausibly **transient** — an external
    /// condition (disk, file system) that a retry under the same inputs
    /// might not reproduce — as opposed to deterministic (bad config, a
    /// numeric failure, a panic), which would replay identically because
    /// all scenario randomness is spec-derived. The fail-soft runner's
    /// [`crate::scenario::RetryPolicy`] consults this classification.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ExperimentError::Io(_)
                | ExperimentError::IoAt { .. }
                | ExperimentError::Data(DataError::Io(_) | DataError::IoAt { .. })
                | ExperimentError::Recon(ReconError::Data(
                    DataError::Io(_) | DataError::IoAt { .. }
                ))
        )
    }

    /// Whether this failure is a cooperative **timeout** — a cell deadline
    /// expired or a supervisor tripped the cancel token, surfacing as
    /// [`ReconError::Cancelled`] (possibly chunk-located). Timed-out cells
    /// are never retried: all scenario randomness is spec-derived, so a
    /// replay under the same deadline would wedge identically.
    pub fn is_timeout(&self) -> bool {
        matches!(self, ExperimentError::Recon(e) if e.is_cancelled())
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::InvalidConfig { reason } => {
                write!(f, "invalid experiment config: {reason}")
            }
            ExperimentError::WorkerFailed { reason } => {
                write!(f, "experiment worker failed: {reason}")
            }
            ExperimentError::Io(e) => write!(f, "I/O error: {e}"),
            ExperimentError::IoAt { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            ExperimentError::Journal { path, reason } => {
                write!(f, "result journal {}: {reason}", path.display())
            }
            ExperimentError::InjectedFault { label } => {
                write!(f, "injected fault (testing support) in scenario '{label}'")
            }
            ExperimentError::Data(e) => write!(f, "data error: {e}"),
            ExperimentError::Noise(e) => write!(f, "noise error: {e}"),
            ExperimentError::Recon(e) => write!(f, "reconstruction error: {e}"),
            ExperimentError::Metrics(e) => write!(f, "metrics error: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Io(e) => Some(e),
            ExperimentError::IoAt { source, .. } => Some(source),
            ExperimentError::Data(e) => Some(e),
            ExperimentError::Noise(e) => Some(e),
            ExperimentError::Recon(e) => Some(e),
            ExperimentError::Metrics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ExperimentError {
    fn from(e: std::io::Error) -> Self {
        ExperimentError::Io(e)
    }
}

impl From<DataError> for ExperimentError {
    fn from(e: DataError) -> Self {
        ExperimentError::Data(e)
    }
}

impl From<NoiseError> for ExperimentError {
    fn from(e: NoiseError) -> Self {
        ExperimentError::Noise(e)
    }
}

impl From<ReconError> for ExperimentError {
    fn from(e: ReconError) -> Self {
        ExperimentError::Recon(e)
    }
}

impl From<MetricsError> for ExperimentError {
    fn from(e: MetricsError) -> Self {
        ExperimentError::Metrics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        assert!(ExperimentError::InvalidConfig {
            reason: "empty sweep".into()
        }
        .to_string()
        .contains("empty sweep"));
        assert!(ExperimentError::WorkerFailed {
            reason: "panic".into()
        }
        .to_string()
        .contains("panic"));
        let e: ExperimentError = MetricsError::EmptyInput { metric: "rmse" }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: ExperimentError = DataError::UnknownAttribute { name: "x".into() }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: ExperimentError = std::io::Error::other("disk").into();
        assert!(e.to_string().contains("disk"));
        let e = ExperimentError::Journal {
            path: std::path::PathBuf::from("/tmp/sweep.journal"),
            reason: "fingerprint mismatch".into(),
        };
        assert!(e.to_string().contains("sweep.journal"));
        assert!(e.to_string().contains("fingerprint"));
    }

    #[test]
    fn transient_classification() {
        assert!(ExperimentError::Io(std::io::Error::other("disk")).is_transient());
        assert!(ExperimentError::IoAt {
            path: "/x".into(),
            source: std::io::Error::other("disk"),
        }
        .is_transient());
        assert!(ExperimentError::from(DataError::Io(std::io::Error::other("disk"))).is_transient());
        assert!(!ExperimentError::InvalidConfig { reason: "x".into() }.is_transient());
        assert!(!ExperimentError::WorkerFailed { reason: "x".into() }.is_transient());
        assert!(!ExperimentError::InjectedFault { label: "x".into() }.is_transient());
    }

    #[test]
    fn timeout_classification() {
        let timed_out = ExperimentError::Recon(ReconError::Cancelled {
            reason: "cell deadline exceeded".into(),
        });
        assert!(timed_out.is_timeout());
        assert!(!timed_out.is_transient());
        let located = ExperimentError::Recon(ReconError::AtChunk {
            chunk: 4,
            source: Box::new(ReconError::Cancelled {
                reason: "cell deadline exceeded".into(),
            }),
        });
        assert!(located.is_timeout());
        assert!(!ExperimentError::Io(std::io::Error::other("disk")).is_timeout());
        assert!(!ExperimentError::InvalidConfig { reason: "x".into() }.is_timeout());
    }
}
