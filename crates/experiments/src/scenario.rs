//! The declarative scenario engine: one spec-driven runner for the whole
//! evaluation matrix.
//!
//! A [`ScenarioSpec`] is a self-contained description of one cell of the
//! paper's evaluation space — {data source × noise model × attack × engine ×
//! metrics × seed × scale} — and a [`ScenarioGrid`] is a base spec plus a
//! list of axes whose cartesian product expands into many specs (a figure
//! sweep, a scheme comparison, an engine shoot-out, or all of them at once).
//! [`run_scenarios`] executes any list of specs on the shared
//! `randrecon-parallel` pool and returns one [`ScenarioResult`] per spec, in
//! input order, bit-identically for any thread count.
//!
//! Every hand-written experiment driver this repository used to carry
//! (`exp1`–`exp4`, the ablations, the five-scheme streaming sweep) is now a
//! thin *named grid* over this engine; adding a new scenario means writing a
//! spec, not a driver.
//!
//! ## Determinism and seeding
//!
//! Each scenario derives its per-trial workload seed as
//! `child_seed(seed, seed_offset + trial)` and its disguise seed as
//! `child_seed(trial_seed, 1)`; both can be pinned explicitly
//! ([`ScenarioSpec::dataset_seed`] / [`ScenarioSpec::noise_seed`]) for grids
//! that share one workload across axis values (the ablations do this). All
//! randomness is spec-derived, so results are a pure function of the spec
//! list — the runner's parallel dispatch preserves input order and cannot
//! perturb a single bit.
//!
//! ## Workload sharing
//!
//! Scenarios that differ **only in their attack** (same data, noise, engine,
//! seeds, trials) form a *workload group*: the runner generates the workload
//! once per group and trial, accumulates streaming pass-1 moments once, and
//! runs every member attack against the shared state — the expensive economy
//! the old hand-written drivers had when they evaluated four schemes against
//! one disguised table. On the streaming engine pass 2 is shared too: one
//! group pass synthesizes (or reads) each disguised chunk once, maps it
//! through every member, and scores all members against one read of the
//! original stream. Sharing does **not** extend across the noise axis:
//! scenarios with the same pinned dataset but different noise models each
//! regenerate the (deterministic, identical) dataset — correct but
//! redundant work, cheap at current sizes and listed as a ROADMAP item.
//!
//! ## Supervision: deadlines, retries, and graceful degradation
//!
//! Fail-soft execution ([`run_scenarios_failsoft`]) is supervised:
//!
//! * **Cell deadlines** — [`RetryPolicy::cell_timeout`] runs each attempt
//!   under a cooperative [`CancelToken`] checked at trial, member, and
//!   streaming-chunk boundaries; a runaway cell becomes a
//!   [`ScenarioOutcome::Failed`] with a `timed-out` classification
//!   ([`ScenarioFailure::timed_out`]) instead of wedging the sweep.
//! * **Deterministic retry backoff** — transient retries sleep on the
//!   seed-derived [`BackoffPolicy`] schedule (a pure function of the spec
//!   fingerprint and the attempt number), so retry timing is reproducible
//!   and a persistent fault cannot hot-loop.
//! * **Graceful numerical degradation** — a cell whose attack completed
//!   only by repairing an ill-conditioned system (non-empty
//!   [`ScenarioResult::warnings`], e.g. BE-DR's eigenvalue-clipped SPD
//!   fallback) is reported as [`ScenarioOutcome::Degraded`]: its metrics
//!   are real, journaled, and merged, but reports render it distinctly from
//!   clean completions.
//!
//! ## Example
//!
//! ```
//! use randrecon_experiments::scenario::*;
//! use randrecon_experiments::SchemeKind;
//!
//! // 2 schemes × 2 engines over one synthetic workload = 4 scenarios.
//! let grid = ScenarioGrid {
//!     base: ScenarioSpec::synthetic_quick("demo", 400, 8, 3),
//!     axes: vec![
//!         GridAxis::schemes(&[SchemeKind::Udr, SchemeKind::BeDr]),
//!         GridAxis::engines(&[EngineSpec::InMemory, EngineSpec::Streaming { chunk_rows: 128 }]),
//!     ],
//! };
//! let results = grid.run().unwrap();
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.rmse().unwrap() > 0.0));
//! ```

use crate::backoff::BackoffPolicy;
use crate::config::SchemeKind;
use crate::error::{ExperimentError, Result};
use crate::fault::FaultMode;
use crate::workload::SharePool;
use randrecon_core::engine::Attack;
use randrecon_core::partial::{KnownAttributes, PartialKnowledgeBeDr};
use randrecon_core::streaming::{
    accumulate_moment_segments, moment_segment_count, CancelToken, ChunkReconstructor,
    MomentSegment, MseSink, StreamMoments, StreamingDriver,
};
use randrecon_core::temporal::TemporalSmoother;
use randrecon_core::ComponentSelection;
use randrecon_data::chunks::{RecordChunkSource, SyntheticChunkSource};
use randrecon_data::csv::{read_csv_file, CsvChunkReader};
use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
use randrecon_data::timeseries::Ar1Spec;
use randrecon_data::DataTable;
use randrecon_linalg::Matrix;
use randrecon_metrics::dissimilarity::correlation_dissimilarity_from_covariances;
use randrecon_metrics::{accuracy::normalized_rmse, mse, rmse};
use randrecon_noise::additive::{AdditiveRandomizer, DisguisedChunkSource};
use randrecon_noise::correlated::{interpolated_spectrum, noise_covariance, SimilarityLevel};
use randrecon_stats::rng::{child_seed, seeded_rng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// A synthetic covariance spectrum, declaratively.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpectrumSpec {
    /// `p` eigenvalues at `principal`, the remaining `m − p` at `small`
    /// (the paper's canonical workload).
    PrincipalPlusSmall {
        /// Number of principal components.
        p: usize,
        /// The principal eigenvalue.
        principal: f64,
        /// Number of attributes.
        m: usize,
        /// The non-principal eigenvalue.
        small: f64,
    },
    /// `m − p` eigenvalues fixed at `small`; the `p` principal ones absorb
    /// the rest of `total_variance` (Experiments 1–2, Equation 12).
    PrincipalFillingTotal {
        /// Number of principal components.
        p: usize,
        /// Number of attributes.
        m: usize,
        /// The non-principal eigenvalue.
        small: f64,
        /// Total variance budget (trace of the covariance).
        total_variance: f64,
    },
    /// Explicit eigenvalues.
    Explicit(Vec<f64>),
}

impl SpectrumSpec {
    fn build(&self) -> Result<EigenSpectrum> {
        Ok(match self {
            SpectrumSpec::PrincipalPlusSmall {
                p,
                principal,
                m,
                small,
            } => EigenSpectrum::principal_plus_small(*p, *principal, *m, *small)?,
            SpectrumSpec::PrincipalFillingTotal {
                p,
                m,
                small,
                total_variance,
            } => EigenSpectrum::principal_filling_total(*p, *m, *small, *total_variance)?,
            SpectrumSpec::Explicit(values) => EigenSpectrum::new(values.clone())?,
        })
    }
}

/// Where a scenario's original records come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataSpec {
    /// Zero-mean multivariate-normal records from a synthetic spectrum
    /// (Section 7.1) — runs on both engines, and the only source that
    /// supports the correlated-similarity noise model (which needs the
    /// data's eigenstructure).
    SyntheticMvn {
        /// The eigenvalue spectrum of the generating covariance.
        spectrum: SpectrumSpec,
        /// Records to generate.
        records: usize,
    },
    /// Records read from a CSV file (header row of attribute names, one
    /// record per line) — runs on both engines.
    Csv {
        /// Path to the file.
        path: PathBuf,
    },
    /// Independent AR(1) time-series columns (the sample-dependency workload
    /// of Section 3) — in-memory engine only.
    Ar1Timeseries {
        /// Autoregressive coefficient (|phi| < 1).
        phi: f64,
        /// Innovation standard deviation.
        innovation_std: f64,
        /// Long-run mean.
        mean: f64,
        /// Samples per series (records).
        records: usize,
        /// Number of series (attributes).
        series: usize,
    },
}

/// The disguising noise model of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NoiseSpec {
    /// Independent zero-mean Gaussian noise.
    Gaussian {
        /// Standard deviation.
        sigma: f64,
    },
    /// Independent zero-mean uniform noise of the same variance family.
    Uniform {
        /// Standard deviation.
        sigma: f64,
    },
    /// The Section 8 correlated-noise defense: noise eigenvectors equal the
    /// data's, noise spectrum interpolated between similar (`+1`), flat
    /// (`0`) and anti-similar (`−1`) with a fixed per-attribute variance
    /// budget. Requires a [`DataSpec::SyntheticMvn`] source; the measured
    /// correlation dissimilarity (Definition 8.1) becomes the result's `x`.
    CorrelatedSimilar {
        /// Similarity level in `[-1, 1]` (Experiment 4's sweep axis).
        similarity: f64,
        /// Average per-attribute noise variance (total budget is this times
        /// the attribute count, matching an i.i.d. scheme of variance
        /// `noise_variance`).
        noise_variance: f64,
    },
}

impl NoiseSpec {
    /// Builds the randomizer, plus the measured correlation dissimilarity
    /// for the correlated model. `structure` is the synthetic workload's
    /// ground truth `(eigenvalues, eigenvectors, covariance)`.
    fn build(
        &self,
        structure: Option<(&[f64], &Matrix, &Matrix)>,
    ) -> Result<(AdditiveRandomizer, Option<f64>)> {
        match self {
            NoiseSpec::Gaussian { sigma } => Ok((AdditiveRandomizer::gaussian(*sigma)?, None)),
            NoiseSpec::Uniform { sigma } => Ok((AdditiveRandomizer::uniform(*sigma)?, None)),
            NoiseSpec::CorrelatedSimilar {
                similarity,
                noise_variance,
            } => {
                let (eigenvalues, eigenvectors, covariance) =
                    structure.ok_or_else(|| ExperimentError::InvalidConfig {
                        reason: "correlated-similarity noise needs a synthetic MVN data source \
                                 (the model reuses the data's eigenstructure)"
                            .to_string(),
                    })?;
                let level = SimilarityLevel::new(*similarity)?;
                let total = noise_variance * eigenvalues.len() as f64;
                let spectrum = interpolated_spectrum(eigenvalues, level, total)?;
                let sigma_r = noise_covariance(eigenvectors, &spectrum)?;
                let dissimilarity =
                    correlation_dissimilarity_from_covariances(covariance, &sigma_r)?;
                Ok((
                    AdditiveRandomizer::correlated(sigma_r)?,
                    Some(dissimilarity),
                ))
            }
        }
    }
}

/// The reconstruction attack of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttackSpec {
    /// One of the five paper schemes with its default configuration.
    Scheme(SchemeKind),
    /// PCA-DR with an explicit component-selection rule.
    PcaDr {
        /// The selection rule.
        selection: ComponentSelection,
    },
    /// Spectral filtering with an explicit Marčenko–Pastur bound multiplier.
    SpectralFiltering {
        /// Multiplier on the textbook bound.
        bound_multiplier: f64,
    },
    /// BE-DR with an explicit eigenvalue floor.
    BeDr {
        /// Floor for the regularized covariance estimate (`None` = default).
        eigenvalue_floor: Option<f64>,
    },
    /// Partial-value disclosure: BE-DR conditioned on the true values of the
    /// given attributes (taken from the original records — the adversary's
    /// side knowledge). In-memory engine only.
    PartialKnowledgeBeDr {
        /// Indices of the attributes the adversary already knows.
        known_attributes: Vec<usize>,
    },
    /// The temporal (sample-dependency) windowed Bayes smoother. In-memory
    /// engine only; pair it with [`DataSpec::Ar1Timeseries`].
    Temporal {
        /// Window length (odd, ≥ 3).
        window: usize,
    },
    /// **Testing support**: a scenario that fails deterministically instead
    /// of attacking (see [`crate::fault::FaultMode`]) — the lever the
    /// fail-soft and crash-resume suites use to plant errors, panics, and
    /// transient failures at known grid cells. When the fault does not fire
    /// (a [`FaultMode::Transient`] past its budget), the scenario completes
    /// with zeroed metrics. In-memory engine only.
    InjectedFault {
        /// How the scenario fails.
        mode: FaultMode,
    },
}

impl AttackSpec {
    /// The scheme this attack is an instance of, when it is one of the five
    /// paper schemes (`None` for the partial-knowledge and temporal
    /// variants, which fall outside the figure legends).
    pub fn scheme(&self) -> Option<SchemeKind> {
        match self {
            AttackSpec::Scheme(s) => Some(*s),
            AttackSpec::PcaDr { .. } => Some(SchemeKind::PcaDr),
            AttackSpec::SpectralFiltering { .. } => Some(SchemeKind::SpectralFiltering),
            AttackSpec::BeDr { .. } => Some(SchemeKind::BeDr),
            AttackSpec::PartialKnowledgeBeDr { .. }
            | AttackSpec::Temporal { .. }
            | AttackSpec::InjectedFault { .. } => None,
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            AttackSpec::Scheme(s) => s.label().to_string(),
            AttackSpec::PcaDr { selection } => format!("PCA-DR[{selection:?}]"),
            AttackSpec::SpectralFiltering { bound_multiplier } => {
                format!("SF[bound x{bound_multiplier}]")
            }
            AttackSpec::BeDr { eigenvalue_floor } => match eigenvalue_floor {
                Some(f) => format!("BE-DR[floor {f}]"),
                None => "BE-DR".to_string(),
            },
            AttackSpec::PartialKnowledgeBeDr { known_attributes } => {
                format!("BE-DR[known {known_attributes:?}]")
            }
            AttackSpec::Temporal { window } => format!("Temporal-BE[w={window}]"),
            AttackSpec::InjectedFault { mode } => format!("fault[{mode:?}]"),
        }
    }

    /// True for the five base schemes (runnable on both engines).
    fn supports_streaming(&self) -> bool {
        !matches!(
            self,
            AttackSpec::PartialKnowledgeBeDr { .. }
                | AttackSpec::Temporal { .. }
                | AttackSpec::InjectedFault { .. }
        )
    }

    /// The core [`Attack`] for the five base schemes.
    fn core_attack(&self) -> Result<Attack> {
        Ok(match self {
            AttackSpec::Scheme(s) => Attack::standard(*s),
            AttackSpec::PcaDr { selection } => Attack::PcaDr(randrecon_core::pca_dr::PcaDr {
                selection: *selection,
            }),
            AttackSpec::SpectralFiltering { bound_multiplier } => Attack::SpectralFiltering(
                randrecon_core::spectral::SpectralFiltering::with_bound_multiplier(
                    *bound_multiplier,
                )?,
            ),
            AttackSpec::BeDr { eigenvalue_floor } => Attack::BeDr(randrecon_core::be_dr::BeDr {
                eigenvalue_floor: *eigenvalue_floor,
            }),
            AttackSpec::PartialKnowledgeBeDr { .. }
            | AttackSpec::Temporal { .. }
            | AttackSpec::InjectedFault { .. } => {
                return Err(ExperimentError::InvalidConfig {
                    reason: format!(
                        "{} is not one of the five engine-dispatchable schemes",
                        self.label()
                    ),
                })
            }
        })
    }
}

/// Which execution engine a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// Materialized tables through the in-memory reconstructors.
    InMemory,
    /// The bounded-memory two-pass streaming driver.
    Streaming {
        /// Rows per chunk (the memory knob).
        chunk_rows: usize,
    },
}

impl EngineSpec {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            EngineSpec::InMemory => "in-memory",
            EngineSpec::Streaming { .. } => "streaming",
        }
    }
}

/// A metric the runner reports for each scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Root-mean-square error per value against the original records.
    Rmse,
    /// Mean-square error per value.
    Mse,
    /// RMSE normalized by the original data's standard deviation
    /// (in-memory engine only).
    NormalizedRmse,
}

impl MetricKind {
    /// Column/display label.
    pub fn label(&self) -> &'static str {
        match self {
            MetricKind::Rmse => "rmse",
            MetricKind::Mse => "mse",
            MetricKind::NormalizedRmse => "normalized_rmse",
        }
    }
}

/// One fully-specified evaluation scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable label ("figure1/m=20/scheme=BE-DR").
    pub label: String,
    /// x-axis coordinate for series regrouping (overridden by the measured
    /// correlation dissimilarity for correlated noise).
    pub x: f64,
    /// Data source.
    pub data: DataSpec,
    /// Noise model.
    pub noise: NoiseSpec,
    /// Attack.
    pub attack: AttackSpec,
    /// Execution engine.
    pub engine: EngineSpec,
    /// Metrics to report (non-empty).
    pub metrics: Vec<MetricKind>,
    /// Independent repetitions averaged into the reported metrics.
    pub trials: usize,
    /// Base random seed.
    pub seed: u64,
    /// Offset folded into the per-trial child seed:
    /// `trial_seed = child_seed(seed, seed_offset + trial)`.
    pub seed_offset: u64,
    /// Pins the workload seed for every trial (used by grids that share one
    /// data set across axis values). `None` = derive per trial. Pinning
    /// requires `trials = 1` — a pinned workload seed would make repeated
    /// trials byte-identical, which validation rejects.
    pub dataset_seed: Option<u64>,
    /// Pins the disguise seed. `None` = `child_seed(trial_seed, 1)`. Like
    /// [`dataset_seed`](ScenarioSpec::dataset_seed), pinning requires
    /// `trials = 1`.
    pub noise_seed: Option<u64>,
}

impl ScenarioSpec {
    /// A small single-scenario template over a quick synthetic workload:
    /// BE-DR, in-memory, Gaussian noise σ = 5, RMSE metric, one trial.
    /// Grids override the axes they sweep.
    pub fn synthetic_quick(label: &str, records: usize, attributes: usize, p: usize) -> Self {
        ScenarioSpec {
            label: label.to_string(),
            x: 0.0,
            data: DataSpec::SyntheticMvn {
                spectrum: SpectrumSpec::PrincipalPlusSmall {
                    p,
                    principal: 400.0,
                    m: attributes,
                    small: 4.0,
                },
                records,
            },
            noise: NoiseSpec::Gaussian { sigma: 5.0 },
            attack: AttackSpec::Scheme(SchemeKind::BeDr),
            engine: EngineSpec::InMemory,
            metrics: vec![MetricKind::Rmse],
            trials: 1,
            seed: 0x5EED_5CE0,
            seed_offset: 0,
            dataset_seed: None,
            noise_seed: None,
        }
    }

    /// Checks the spec for internal consistency (sizes, ranges, and
    /// engine/attack/noise/data compatibility).
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: String| {
            Err(ExperimentError::InvalidConfig {
                reason: format!("scenario '{}': {reason}", self.label),
            })
        };
        if self.trials == 0 {
            return fail("need at least one trial".to_string());
        }
        if self.trials > 1 && (self.dataset_seed.is_some() || self.noise_seed.is_some()) {
            // With the workload seed pinned, the derived disguise seed is
            // constant too, so every "trial" would replay the identical run
            // at N× cost while claiming N independent repetitions; a pinned
            // noise seed likewise freezes the noise realization the trials
            // are supposed to average over.
            return fail(
                "pinned dataset_seed/noise_seed make repeated trials replay the same \
                 randomness; use trials = 1 (sweep seed_offset on an axis for repetitions)"
                    .to_string(),
            );
        }
        if self.metrics.is_empty() {
            return fail("need at least one metric".to_string());
        }
        match &self.data {
            DataSpec::SyntheticMvn { spectrum, records } => {
                if *records < 2 {
                    return fail(format!("need at least 2 records, got {records}"));
                }
                spectrum.build()?;
            }
            DataSpec::Ar1Timeseries {
                phi,
                innovation_std,
                mean,
                records,
                series,
            } => {
                if *records < 2 || *series == 0 {
                    return fail("AR(1) workload needs >= 2 records and >= 1 series".to_string());
                }
                Ar1Spec::new(*phi, *innovation_std, *mean)?;
            }
            DataSpec::Csv { .. } => {}
        }
        match &self.noise {
            NoiseSpec::Gaussian { sigma } | NoiseSpec::Uniform { sigma } => {
                if !(*sigma > 0.0 && sigma.is_finite()) {
                    return fail(format!("noise sigma must be positive, got {sigma}"));
                }
            }
            NoiseSpec::CorrelatedSimilar {
                similarity,
                noise_variance,
            } => {
                SimilarityLevel::new(*similarity)?;
                if !(*noise_variance > 0.0 && noise_variance.is_finite()) {
                    return fail(format!(
                        "noise variance must be positive, got {noise_variance}"
                    ));
                }
                if !matches!(self.data, DataSpec::SyntheticMvn { .. }) {
                    return fail(
                        "correlated-similarity noise needs a synthetic MVN data source".to_string(),
                    );
                }
            }
        }
        if let AttackSpec::PartialKnowledgeBeDr { known_attributes } = &self.attack {
            if known_attributes.is_empty() {
                return fail("partial knowledge needs at least one known attribute".to_string());
            }
        }
        match self.engine {
            EngineSpec::InMemory => {}
            EngineSpec::Streaming { chunk_rows } => {
                if chunk_rows == 0 {
                    return fail("streaming chunk_rows must be at least 1".to_string());
                }
                if !self.attack.supports_streaming() {
                    return fail(format!(
                        "{} runs on the in-memory engine only",
                        self.attack.label()
                    ));
                }
                if matches!(self.data, DataSpec::Ar1Timeseries { .. }) {
                    return fail("AR(1) time-series scenarios run in-memory only".to_string());
                }
                if self.metrics.contains(&MetricKind::NormalizedRmse) {
                    return fail(
                        "normalized RMSE needs the materialized original (in-memory engine only)"
                            .to_string(),
                    );
                }
            }
        }
        Ok(())
    }

    /// The workload-group fingerprint: everything that shapes the generated
    /// data and disguise streams — i.e. every field except the attack, the
    /// metrics and the presentation fields (`label`, `x`). Scenarios with
    /// equal fingerprints share one workload per trial.
    fn workload_fingerprint(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}",
            self.data,
            self.noise,
            self.engine,
            self.trials,
            self.seed,
            self.seed_offset,
            self.dataset_seed,
            self.noise_seed
        )
    }

    /// The *data fingerprint*: the subset of the workload fingerprint that
    /// shapes the **generated dataset alone** — the data spec, trial count,
    /// engine family, and the dataset-seed derivation, but *not* the noise
    /// model, noise seed, attack, or metrics. Scenarios with equal data
    /// fingerprints draw identical per-trial datasets, so the runner's
    /// [`DatasetPool`] generates each `(fingerprint, trial)` dataset once and
    /// shares it across workload groups that differ only in noise or attack.
    ///
    /// The engine is part of the fingerprint because the streaming
    /// `SyntheticChunkSource` record stream deliberately differs from the
    /// in-memory `SyntheticDataset::generate` realization for the same seed
    /// (chunk-local child seeding; see `randrecon_data::chunks`).
    pub fn data_fingerprint(&self) -> String {
        let engine_family = match self.engine {
            EngineSpec::InMemory => "mem".to_string(),
            EngineSpec::Streaming { chunk_rows } => format!("stream:{chunk_rows}"),
        };
        format!(
            "{:?}|{engine_family}|{}|{}|{}|{:?}",
            self.data, self.trials, self.seed, self.seed_offset, self.dataset_seed
        )
    }

    /// Pass-1 stream geometry — `(chunks, segments)` — for cells whose
    /// pass 1 can run as a distributed segment reduction: the streaming
    /// engine over a synthetic MVN workload. `None` for every other
    /// engine/data combination (in-memory cells have no pass 1; CSV streams
    /// cannot skip ahead without reading, so splitting them buys nothing).
    pub fn stream_geometry(&self) -> Option<(usize, usize)> {
        match (&self.engine, &self.data) {
            (EngineSpec::Streaming { chunk_rows }, DataSpec::SyntheticMvn { records, .. }) => {
                let chunks = records.div_ceil(*chunk_rows).max(1);
                Some((chunks, moment_segment_count(chunks)))
            }
            _ => None,
        }
    }

    /// Approximate record count of the cell's dataset — the weight the
    /// balance-aware shard planner's cost model uses. CSV sources would
    /// need an I/O pass to count, so they get a flat nominal weight; the
    /// planner only needs relative proportions, not exact sizes.
    pub fn approx_records(&self) -> usize {
        match &self.data {
            DataSpec::SyntheticMvn { records, .. } => *records,
            DataSpec::Ar1Timeseries { records, .. } => *records,
            DataSpec::Csv { .. } => 4096,
        }
    }

    /// Runs this single scenario directly (no pool dispatch, no grouping) —
    /// the hand-rolled baseline the runner's scheduling overhead is
    /// benchmarked against.
    pub fn run(&self) -> Result<ScenarioResult> {
        self.validate()?;
        let mut results = execute_group(std::slice::from_ref(self), None)?;
        Ok(results.pop().expect("one scenario in, one result out"))
    }
}

/// The measured outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario's label.
    pub label: String,
    /// x coordinate: the spec's `x`, or the measured correlation
    /// dissimilarity for correlated noise (averaged over trials).
    pub x: f64,
    /// The scheme, when the attack is one of the five paper schemes.
    pub scheme: Option<SchemeKind>,
    /// Attack display label.
    pub attack: String,
    /// Engine display label.
    pub engine: &'static str,
    /// Records per trial.
    pub n_records: usize,
    /// Trials averaged.
    pub trials: usize,
    /// `(metric, value)` pairs in the spec's metric order, averaged over
    /// trials.
    pub metrics: Vec<(MetricKind, f64)>,
    /// Principal/signal components kept (projection schemes, last trial).
    pub components_kept: Option<usize>,
    /// Wall-clock seconds charged to this scenario's attack, summed over
    /// trials; workload generation and streaming pass 1, which a workload
    /// group shares, are excluded. On the streaming engine pass 2 runs once
    /// per workload group, and each member is charged its own prepare and
    /// chunk-map time plus an equal share of the pass's shared work (chunk
    /// generation, the original stream's read, the scoring) — see
    /// [`StreamingDriver::run_group`].
    pub seconds: f64,
    /// Graceful numerical-degradation notes accumulated across trials
    /// (deduplicated, first-appearance order). Non-empty means the attack
    /// completed only by repairing an ill-conditioned system — the fail-soft
    /// runner reports such a cell as
    /// [`ScenarioOutcome::Degraded`] rather than `Completed`.
    pub warnings: Vec<String>,
}

impl ScenarioResult {
    /// The value of a reported metric, if it was requested.
    pub fn metric(&self, kind: MetricKind) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, v)| v)
    }

    /// RMSE, from either the RMSE or the MSE metric.
    pub fn rmse(&self) -> Option<f64> {
        self.metric(MetricKind::Rmse)
            .or_else(|| self.metric(MetricKind::Mse).map(f64::sqrt))
    }
}

// ---------------------------------------------------------------------------
// Grid expansion
// ---------------------------------------------------------------------------

/// A single override a grid axis value applies to the base spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Override {
    /// Replace the data source.
    Data(DataSpec),
    /// Replace the noise model.
    Noise(NoiseSpec),
    /// Replace the attack.
    Attack(AttackSpec),
    /// Replace the engine.
    Engine(EngineSpec),
    /// Replace the metric set.
    Metrics(Vec<MetricKind>),
    /// Replace the trial count.
    Trials(usize),
    /// Replace the base seed.
    Seed(u64),
    /// Replace the per-trial seed offset.
    SeedOffset(u64),
    /// Pin (or unpin) the workload seed.
    DatasetSeed(Option<u64>),
    /// Pin (or unpin) the disguise seed.
    NoiseSeed(Option<u64>),
}

impl Override {
    fn apply(&self, spec: &mut ScenarioSpec) {
        match self {
            Override::Data(d) => spec.data = d.clone(),
            Override::Noise(n) => spec.noise = n.clone(),
            Override::Attack(a) => spec.attack = a.clone(),
            Override::Engine(e) => spec.engine = *e,
            Override::Metrics(m) => spec.metrics = m.clone(),
            Override::Trials(t) => spec.trials = *t,
            Override::Seed(s) => spec.seed = *s,
            Override::SeedOffset(o) => spec.seed_offset = *o,
            Override::DatasetSeed(s) => spec.dataset_seed = *s,
            Override::NoiseSeed(s) => spec.noise_seed = *s,
        }
    }
}

/// One value of a grid axis: a label, an optional x coordinate, and the
/// overrides it applies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridAxisValue {
    /// Label appended to the scenario label (`axis=label`).
    pub label: String,
    /// If set, becomes the expanded scenario's x coordinate.
    pub x: Option<f64>,
    /// Overrides applied to the base spec (in order).
    pub overrides: Vec<Override>,
}

/// One axis of a scenario grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridAxis {
    /// Axis name (used in scenario labels).
    pub name: String,
    /// The axis values; the expansion iterates them in order.
    pub values: Vec<GridAxisValue>,
}

impl GridAxis {
    /// An axis sweeping the attack over paper-default schemes.
    pub fn schemes(schemes: &[SchemeKind]) -> GridAxis {
        GridAxis {
            name: "scheme".to_string(),
            values: schemes
                .iter()
                .map(|&s| GridAxisValue {
                    label: s.label().to_string(),
                    x: None,
                    overrides: vec![Override::Attack(AttackSpec::Scheme(s))],
                })
                .collect(),
        }
    }

    /// An axis sweeping the execution engine.
    pub fn engines(engines: &[EngineSpec]) -> GridAxis {
        GridAxis {
            name: "engine".to_string(),
            values: engines
                .iter()
                .map(|&e| GridAxisValue {
                    label: match e {
                        EngineSpec::InMemory => "in-memory".to_string(),
                        EngineSpec::Streaming { chunk_rows } => {
                            format!("streaming({chunk_rows})")
                        }
                    },
                    x: None,
                    overrides: vec![Override::Engine(e)],
                })
                .collect(),
        }
    }

    /// An axis sweeping labelled noise models.
    pub fn noises(noises: &[(&str, NoiseSpec)]) -> GridAxis {
        GridAxis {
            name: "noise".to_string(),
            values: noises
                .iter()
                .map(|(label, n)| GridAxisValue {
                    label: label.to_string(),
                    x: None,
                    overrides: vec![Override::Noise(n.clone())],
                })
                .collect(),
        }
    }
}

/// A base scenario plus sweep axes; the cartesian product of the axis values
/// expands into one [`ScenarioSpec`] per grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioGrid {
    /// The spec every cell starts from.
    pub base: ScenarioSpec,
    /// Sweep axes. Expansion is row-major: the **last** axis varies fastest.
    pub axes: Vec<GridAxis>,
}

impl ScenarioGrid {
    /// Expands the grid into specs, in a deterministic order (row-major over
    /// the axes, last axis fastest). With no axes, the expansion is the base
    /// spec alone. Labels are `base/axis1=v1/axis2=v2/…`, so distinct axis
    /// values expand to distinct, stably-ordered scenarios.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let mut out = vec![self.base.clone()];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(out.len() * axis.values.len().max(1));
            for spec in &out {
                for value in &axis.values {
                    let mut cell = spec.clone();
                    for o in &value.overrides {
                        o.apply(&mut cell);
                    }
                    if let Some(x) = value.x {
                        cell.x = x;
                    }
                    let _ = write!(cell.label, "/{}={}", axis.name, value.label);
                    next.push(cell);
                }
            }
            out = next;
        }
        out
    }

    /// Expands and validates: every cell must pass
    /// [`ScenarioSpec::validate`] and labels must be unique (duplicate axis
    /// value labels would silently shadow each other in reports).
    pub fn expand_validated(&self) -> Result<Vec<ScenarioSpec>> {
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(ExperimentError::InvalidConfig {
                    reason: format!("grid axis '{}' has no values", axis.name),
                });
            }
        }
        let specs = self.expand();
        check_unique_labels(&specs)?;
        for spec in &specs {
            spec.validate()?;
        }
        Ok(specs)
    }

    /// Expands the grid and runs every cell through [`run_scenarios`].
    pub fn run(&self) -> Result<Vec<ScenarioResult>> {
        run_scenarios(&self.expand_validated()?)
    }
}

/// Rejects a spec list with a repeated label: duplicate labels would
/// silently shadow each other in reports.
pub(crate) fn check_unique_labels(specs: &[ScenarioSpec]) -> Result<()> {
    let mut labels: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
    labels.sort_unstable();
    match labels.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(ExperimentError::InvalidConfig {
            reason: format!("grid expands to duplicate scenario label '{}'", w[0]),
        }),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

/// Groups scenario indices by workload fingerprint, in first-appearance
/// order (deterministic, input-order based). Scenarios in one group share
/// everything but the attack/metrics — same data source, noise model,
/// engine, trial count, and seeds — so the runners generate the workload
/// once per group, and the shard planner ([`crate::shard::plan_shards`])
/// must keep a group's members on one shard to preserve that economy.
pub fn workload_groups(specs: &[ScenarioSpec]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let fp = spec.workload_fingerprint();
        match groups.iter_mut().find(|(key, _)| *key == fp) {
            Some((_, members)) => members.push(i),
            None => groups.push((fp, vec![i])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Process-wide count of dataset constructions (synthetic generations, AR(1)
/// generations, CSV materializations, synthetic stream sources) since
/// process start or the last [`reset_dataset_generations`]. The observable
/// half of the two-level grouping acceptance: on a grid whose cells differ
/// only in noise/attack, this counter equals `data groups × trials`, not
/// `workload groups × trials`.
static DATASET_GENERATIONS: AtomicU64 = AtomicU64::new(0);

/// Reads the process-wide dataset-construction counter.
pub fn dataset_generations() -> u64 {
    DATASET_GENERATIONS.load(Ordering::Relaxed)
}

/// Resets the dataset-construction counter (test/CLI observability hook).
pub fn reset_dataset_generations() {
    DATASET_GENERATIONS.store(0, Ordering::Relaxed);
}

fn note_dataset_generated() {
    DATASET_GENERATIONS.fetch_add(1, Ordering::Relaxed);
}

/// One built per-trial dataset, shareable across workload groups through the
/// [`DatasetPool`]. A data fingerprint always maps to one variant: in-memory
/// fingerprints build [`SharedData::Memory`], streaming synthetic
/// fingerprints build [`SharedData::Stream`].
pub(crate) enum SharedData {
    /// A materialized in-memory dataset.
    Memory(BuiltData),
    /// A seeded synthetic chunk source (cheap to clone, replays exactly).
    Stream(SyntheticChunkSource),
}

/// The runner's dataset pool: [`SharePool`] keyed on
/// `(data fingerprint, trial seed)` holding [`SharedData`].
pub(crate) type DatasetPool = SharePool<SharedData>;

/// Consumer counts for a [`DatasetPool`]: how many workload groups share
/// each data fingerprint (each group releases its fingerprint once, after
/// its last trial).
pub(crate) fn data_group_consumers(
    specs: &[ScenarioSpec],
    member_sets: &[Vec<usize>],
) -> HashMap<String, usize> {
    let mut consumers: HashMap<String, usize> = HashMap::new();
    for set in member_sets {
        if let Some(&leader) = set.first() {
            *consumers
                .entry(specs[leader].data_fingerprint())
                .or_insert(0) += 1;
        }
    }
    consumers
}

fn lease_shared(
    pool: Option<&DatasetPool>,
    data_fp: &str,
    trial_seed: u64,
    build: impl FnOnce() -> Result<SharedData>,
) -> Result<Arc<SharedData>> {
    match pool {
        Some(pool) => pool.lease(data_fp, trial_seed, build),
        None => Ok(Arc::new(build()?)),
    }
}

/// Runs a list of scenarios on the shared workspace pool and returns their
/// results **in input order**.
///
/// Scenarios with equal workload fingerprints (same data/noise/engine/seeds,
/// different attacks) are grouped: the workload is generated once per group
/// and trial, streaming pass-1 moments are accumulated once and shared, and
/// the member attacks run against the shared state — the same economy the
/// old hand-written drivers had. Groups are dispatched over
/// `randrecon-parallel`; all seeding is spec-derived, so the output is
/// bit-identical for any `RANDRECON_THREADS`.
///
/// Any failing group fails the sweep, and the lowest-index group's failure
/// is the one returned; a panicking group surfaces as
/// [`ExperimentError::WorkerFailed`] carrying the panic message.
/// [`run_scenarios_failsoft`] reports failures per cell instead.
pub fn run_scenarios(specs: &[ScenarioSpec]) -> Result<Vec<ScenarioResult>> {
    for spec in specs {
        spec.validate()?;
    }
    let member_sets = workload_groups(specs);
    let pool = DatasetPool::new(data_group_consumers(specs, &member_sets));

    let group_results = randrecon_parallel::parallel_map_catch(&member_sets, |members| {
        let group: Vec<ScenarioSpec> = members.iter().map(|&i| specs[i].clone()).collect();
        let results = execute_group(&group, Some(&pool))?;
        Ok::<_, ExperimentError>(members.iter().copied().zip(results).collect::<Vec<_>>())
    });

    // Scatter back into input order; the lowest-index group's error (or
    // contained panic) wins, matching a sequential sweep.
    let mut out: Vec<Option<ScenarioResult>> = (0..specs.len()).map(|_| None).collect();
    for batch in group_results {
        // The outer layer is a contained panic, the inner the group's error.
        let batch = batch.map_err(|panic| ExperimentError::WorkerFailed {
            reason: format!("a sweep worker panicked: {panic}"),
        })??;
        for (i, result) in batch {
            out[i] = Some(result);
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every scenario produced a result"))
        .collect())
}

/// Per-member, per-trial measurement.
struct TrialMeasurement {
    metrics: Vec<f64>,
    components_kept: Option<usize>,
    seconds: f64,
    n_records: usize,
    warnings: Vec<String>,
}

/// The error a cooperatively-cancelled cell surfaces: a
/// [`randrecon_core::ReconError::Cancelled`] wrapped for this crate, which
/// [`ExperimentError::is_timeout`] classifies as timed out.
fn cancelled_error() -> ExperimentError {
    ExperimentError::Recon(randrecon_core::ReconError::Cancelled {
        reason: "cell deadline exceeded or cancel token tripped".to_string(),
    })
}

/// Executes one workload group (scenarios sharing everything but the
/// attack/metrics) and returns one result per member, in member order.
fn execute_group(
    group: &[ScenarioSpec],
    pool: Option<&DatasetPool>,
) -> Result<Vec<ScenarioResult>> {
    execute_group_inner(group, &CancelToken::new(), pool, None)
}

/// [`execute_group`] with a cooperative [`CancelToken`]: checked before each
/// trial, before each in-memory member attack and the streaming group pass,
/// and once per chunk inside that pass — a tripped token (or expired
/// deadline) stops the group at the next check with a timeout-classified
/// error.
fn execute_group_cancellable(
    group: &[ScenarioSpec],
    cancel: &CancelToken,
) -> Result<Vec<ScenarioResult>> {
    execute_group_inner(group, cancel, None, None)
}

/// The grouped-execution core. `pool` (when given) shares per-trial datasets
/// across workload groups with equal data fingerprints; `prepared` (when
/// given) supplies one already-reduced [`StreamMoments`] per trial — the
/// coordinator's path for *split* streaming groups whose pass 1 was
/// distributed across shard workers — and skips the local pass 1.
fn execute_group_inner(
    group: &[ScenarioSpec],
    cancel: &CancelToken,
    pool: Option<&DatasetPool>,
    prepared: Option<&[StreamMoments]>,
) -> Result<Vec<ScenarioResult>> {
    let proto = &group[0];
    if let Some(prepared) = prepared {
        if prepared.len() != proto.trials {
            return Err(ExperimentError::InvalidConfig {
                reason: format!(
                    "scenario '{}': {} prepared moment sets for {} trials",
                    proto.label,
                    prepared.len(),
                    proto.trials
                ),
            });
        }
    }
    let data_fp = proto.data_fingerprint();
    let mut metric_sums: Vec<Vec<f64>> = group.iter().map(|s| vec![0.0; s.metrics.len()]).collect();
    let mut components: Vec<Option<usize>> = vec![None; group.len()];
    let mut seconds: Vec<f64> = vec![0.0; group.len()];
    let mut warnings: Vec<Vec<String>> = vec![Vec::new(); group.len()];
    let mut n_records = 0usize;
    let mut measured_x_sum: Option<f64> = None;

    for trial in 0..proto.trials {
        if cancel.is_cancelled() {
            return Err(cancelled_error());
        }
        let (trial_seed, noise_seed) = trial_seeds(proto, trial);

        let (measurements, measured_x) = match proto.engine {
            EngineSpec::InMemory => {
                if prepared.is_some() {
                    return Err(ExperimentError::InvalidConfig {
                        reason: format!(
                            "scenario '{}': prepared stream moments on the in-memory engine",
                            proto.label
                        ),
                    });
                }
                run_in_memory_trial(group, trial_seed, noise_seed, cancel, pool, &data_fp)?
            }
            EngineSpec::Streaming { chunk_rows } => run_streaming_trial(
                group,
                chunk_rows,
                trial_seed,
                noise_seed,
                cancel,
                pool,
                &data_fp,
                prepared.map(|p| &p[trial]),
            )?,
        };
        if let Some(x) = measured_x {
            *measured_x_sum.get_or_insert(0.0) += x;
        }
        for (i, m) in measurements.into_iter().enumerate() {
            for (sum, v) in metric_sums[i].iter_mut().zip(m.metrics.iter()) {
                *sum += v;
            }
            components[i] = m.components_kept;
            seconds[i] += m.seconds;
            n_records = m.n_records;
            for w in m.warnings {
                if !warnings[i].contains(&w) {
                    warnings[i].push(w);
                }
            }
        }
    }
    // This group has consumed all its trials; the last sharing group's
    // release evicts the cached datasets. (An errored group skips its
    // release — its cache entries simply live until the pool drops.)
    if let Some(pool) = pool {
        pool.release(&data_fp);
    }

    let trials = proto.trials as f64;
    Ok(group
        .iter()
        .enumerate()
        .zip(warnings)
        .map(|((i, spec), warnings)| ScenarioResult {
            label: spec.label.clone(),
            x: measured_x_sum.map(|s| s / trials).unwrap_or(spec.x),
            scheme: spec.attack.scheme(),
            attack: spec.attack.label(),
            engine: spec.engine.label(),
            n_records,
            trials: spec.trials,
            metrics: spec
                .metrics
                .iter()
                .copied()
                .zip(metric_sums[i].iter().map(|s| s / trials))
                .collect(),
            components_kept: components[i],
            seconds: seconds[i],
            warnings,
        })
        .collect())
}

/// Derives the per-trial `(workload seed, disguise seed)` pair — the single
/// source of truth shared by grouped execution, isolated re-runs, and the
/// distributed pass-1 worker, so all three are bit-identical by
/// construction.
pub(crate) fn trial_seeds(spec: &ScenarioSpec, trial: usize) -> (u64, u64) {
    let trial_seed = spec
        .dataset_seed
        .unwrap_or_else(|| child_seed(spec.seed, spec.seed_offset + trial as u64));
    let noise_seed = spec.noise_seed.unwrap_or_else(|| child_seed(trial_seed, 1));
    (trial_seed, noise_seed)
}

/// The materialized original data of an in-memory trial, with the synthetic
/// ground-truth structure when available (the correlated noise model and the
/// partial-knowledge attack need it).
pub(crate) enum BuiltData {
    /// A synthetic MVN draw with its ground-truth spectral structure.
    Synthetic(SyntheticDataset),
    /// A plain table (AR(1) series or CSV load).
    Table(DataTable),
}

impl BuiltData {
    fn table(&self) -> &DataTable {
        match self {
            BuiltData::Synthetic(ds) => &ds.table,
            BuiltData::Table(t) => t,
        }
    }

    fn structure(&self) -> Option<(&[f64], &Matrix, &Matrix)> {
        match self {
            BuiltData::Synthetic(ds) => {
                Some((&ds.eigenvalues[..], &ds.eigenvectors, &ds.covariance))
            }
            BuiltData::Table(_) => None,
        }
    }
}

/// Builds one in-memory trial dataset (and counts the construction).
fn build_memory_data(proto: &ScenarioSpec, trial_seed: u64) -> Result<SharedData> {
    note_dataset_generated();
    Ok(SharedData::Memory(match &proto.data {
        DataSpec::SyntheticMvn { spectrum, records } => BuiltData::Synthetic(
            SyntheticDataset::generate(&spectrum.build()?, *records, trial_seed)?,
        ),
        DataSpec::Ar1Timeseries {
            phi,
            innovation_std,
            mean,
            records,
            series,
        } => BuiltData::Table(
            Ar1Spec::new(*phi, *innovation_std, *mean)?
                .generate_table(*records, *series, trial_seed)?,
        ),
        DataSpec::Csv { path } => BuiltData::Table(read_csv_file(path)?),
    }))
}

/// Builds one streaming trial's synthetic chunk source (and counts the
/// construction).
fn build_stream_data(
    spectrum: &SpectrumSpec,
    records: usize,
    chunk_rows: usize,
    trial_seed: u64,
) -> Result<SharedData> {
    note_dataset_generated();
    Ok(SharedData::Stream(SyntheticChunkSource::generate(
        &spectrum.build()?,
        records,
        chunk_rows,
        trial_seed,
    )?))
}

#[allow(clippy::too_many_arguments)]
fn run_in_memory_trial(
    group: &[ScenarioSpec],
    trial_seed: u64,
    noise_seed: u64,
    cancel: &CancelToken,
    pool: Option<&DatasetPool>,
    data_fp: &str,
) -> Result<(Vec<TrialMeasurement>, Option<f64>)> {
    let proto = &group[0];
    let shared = lease_shared(pool, data_fp, trial_seed, || {
        build_memory_data(proto, trial_seed)
    })?;
    let SharedData::Memory(data) = shared.as_ref() else {
        return Err(ExperimentError::InvalidConfig {
            reason: format!(
                "scenario '{}': dataset pool held a stream source for an in-memory fingerprint",
                proto.label
            ),
        });
    };
    let (randomizer, measured_x) = proto.noise.build(data.structure())?;
    let original = data.table();
    let disguised = randomizer.disguise(original, &mut seeded_rng(noise_seed))?;
    let noise = randomizer.model();

    let mut out = Vec::with_capacity(group.len());
    for spec in group {
        if cancel.is_cancelled() {
            return Err(cancelled_error());
        }
        if let AttackSpec::InjectedFault { mode } = &spec.attack {
            // Testing support: fire the planted fault; if it declines to
            // fire (transient budget exhausted), report zeroed metrics.
            mode.trigger(&spec.label)?;
            out.push(TrialMeasurement {
                metrics: vec![0.0; spec.metrics.len()],
                components_kept: None,
                seconds: 0.0,
                n_records: original.n_records(),
                warnings: Vec::new(),
            });
            continue;
        }
        let start = Instant::now();
        let (reconstruction, components_kept, warnings) = match &spec.attack {
            AttackSpec::PartialKnowledgeBeDr { known_attributes } => {
                let known = KnownAttributes::new(known_attributes.clone())?;
                let idx = known.indices();
                // Bounds-check before gathering the side-channel columns, so
                // a bad index surfaces as a located error instead of an
                // out-of-range read inside Matrix::from_fn.
                let m = original.n_attributes();
                if let Some(&bad) = idx.iter().find(|&&j| j >= m) {
                    return Err(ExperimentError::InvalidConfig {
                        reason: format!(
                            "scenario '{}': known attribute index {bad} out of bounds for \
                             {m} attributes",
                            spec.label
                        ),
                    });
                }
                let known_values = Matrix::from_fn(original.n_records(), idx.len(), |i, j| {
                    original.values().get(i, idx[j])
                });
                (
                    PartialKnowledgeBeDr::default().reconstruct(
                        &disguised,
                        noise,
                        &known,
                        &known_values,
                    )?,
                    None,
                    Vec::new(),
                )
            }
            AttackSpec::Temporal { window } => (
                randrecon_core::Reconstructor::reconstruct(
                    &TemporalSmoother::new(*window)?,
                    &disguised,
                    noise,
                )?,
                None,
                Vec::new(),
            ),
            base => base
                .core_attack()?
                .reconstruct_table_with_report(&disguised, noise)?,
        };
        let seconds = start.elapsed().as_secs_f64();
        let metrics = spec
            .metrics
            .iter()
            .map(|kind| {
                Ok(match kind {
                    MetricKind::Rmse => rmse(original, &reconstruction)?,
                    MetricKind::Mse => mse(original, &reconstruction)?,
                    MetricKind::NormalizedRmse => normalized_rmse(original, &reconstruction)?,
                })
            })
            .collect::<Result<Vec<f64>>>()?;
        out.push(TrialMeasurement {
            metrics,
            components_kept,
            seconds,
            n_records: original.n_records(),
            warnings,
        });
    }
    Ok((out, measured_x))
}

#[allow(clippy::too_many_arguments)]
fn run_streaming_trial(
    group: &[ScenarioSpec],
    chunk_rows: usize,
    trial_seed: u64,
    noise_seed: u64,
    cancel: &CancelToken,
    pool: Option<&DatasetPool>,
    data_fp: &str,
    prepared: Option<&StreamMoments>,
) -> Result<(Vec<TrialMeasurement>, Option<f64>)> {
    let proto = &group[0];
    match &proto.data {
        DataSpec::SyntheticMvn { spectrum, records } => {
            let shared = lease_shared(pool, data_fp, trial_seed, || {
                build_stream_data(spectrum, *records, chunk_rows, trial_seed)
            })?;
            let SharedData::Stream(original) = shared.as_ref() else {
                return Err(ExperimentError::InvalidConfig {
                    reason: format!(
                        "scenario '{}': dataset pool held an in-memory dataset for a streaming \
                         fingerprint",
                        proto.label
                    ),
                });
            };
            let (randomizer, measured_x) = proto.noise.build(Some((
                original.eigenvalues(),
                original.eigenvectors(),
                original.covariance(),
            )))?;
            let mut disguised = DisguisedChunkSource::new(original.clone(), randomizer, noise_seed);
            let noise = disguised.model().clone();
            let measurements = sweep_streaming_group(
                group,
                &mut disguised,
                &noise,
                || Ok(Box::new(original.clone())),
                cancel,
                prepared,
            )?;
            Ok((measurements, measured_x))
        }
        DataSpec::Csv { path } => {
            if prepared.is_some() {
                return Err(ExperimentError::InvalidConfig {
                    reason: format!(
                        "scenario '{}': prepared stream moments on a CSV stream (only synthetic \
                         streams split their pass 1)",
                        proto.label
                    ),
                });
            }
            let (randomizer, measured_x) = proto.noise.build(None)?;
            let reader = CsvChunkReader::open(path, chunk_rows)?;
            let mut disguised = DisguisedChunkSource::new(reader, randomizer, noise_seed);
            let noise = disguised.model().clone();
            let measurements = sweep_streaming_group(
                group,
                &mut disguised,
                &noise,
                || Ok(Box::new(CsvChunkReader::open(path, chunk_rows)?)),
                cancel,
                None,
            )?;
            Ok((measurements, measured_x))
        }
        DataSpec::Ar1Timeseries { .. } => Err(ExperimentError::InvalidConfig {
            reason: "AR(1) time-series scenarios run in-memory only".to_string(),
        }),
    }
}

/// Streaming pass 1 once (skipped when `prepared` moments are supplied —
/// the coordinator's reduced cross-shard moments are bit-identical to a
/// local pass 1), then pass 2 once for the whole group
/// ([`StreamingDriver::run_group`]): each chunk of the disguised stream is
/// read or generated once and mapped through every member attack, and one
/// [`MseSink`] scores every member against one read of the original stream
/// (`open_original`). Each member's MSE is bit-identical to its own
/// one-member run; the pass stops at the first member that fails, and the
/// fail-soft runner then re-runs the members in isolation.
fn sweep_streaming_group<S>(
    group: &[ScenarioSpec],
    disguised: &mut S,
    noise: &randrecon_noise::NoiseModel,
    open_original: impl FnOnce() -> Result<Box<dyn RecordChunkSource>>,
    cancel: &CancelToken,
    prepared: Option<&StreamMoments>,
) -> Result<Vec<TrialMeasurement>>
where
    S: RecordChunkSource + Send + ?Sized,
{
    if cancel.is_cancelled() {
        return Err(cancelled_error());
    }
    let computed;
    let moments = match prepared {
        Some(moments) => moments,
        None => {
            computed = StreamingDriver::accumulate_moments(disguised)?;
            &computed
        }
    };
    let attacks = group
        .iter()
        .map(|spec| Ok(spec.attack.core_attack()?.chunk_reconstructor()?))
        .collect::<Result<Vec<_>>>()?;
    let members: Vec<&dyn ChunkReconstructor> = attacks.iter().map(AsRef::as_ref).collect();
    let mut original = open_original()?;
    let mut sink = MseSink::for_group(original.as_mut(), members.len())?;
    let reports = StreamingDriver::default()
        .run_group(&members, moments, disguised, noise, &mut sink, cancel)?;
    Ok(group
        .iter()
        .zip(reports)
        .enumerate()
        .map(|(member, (spec, report))| {
            let mse_value = sink.mse_of(member);
            let metrics = spec
                .metrics
                .iter()
                .map(|kind| match kind {
                    MetricKind::Mse => mse_value,
                    MetricKind::Rmse => mse_value.sqrt(),
                    // Rejected by validation before execution.
                    MetricKind::NormalizedRmse => f64::NAN,
                })
                .collect();
            TrialMeasurement {
                metrics,
                components_kept: report.components_kept,
                seconds: report.seconds,
                n_records: report.n_records,
                warnings: report.warnings,
            }
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Fail-soft execution
// ---------------------------------------------------------------------------

/// How the fail-soft runner handles a failed scenario.
///
/// Classification uses [`ExperimentError::is_transient`]: I/O-family errors
/// are **transient** (a retry under the same inputs may not reproduce them);
/// everything else — bad configs, numeric failures, panics — is
/// **deterministic**, because all scenario randomness is spec-derived and a
/// retry would replay the identical failure. Deterministic failures are
/// therefore not retried unless [`retry_deterministic`] is set (useful only
/// against external nondeterminism the classifier cannot see). Failures
/// classified as **timed out** ([`ExperimentError::is_timeout`]) are never
/// retried — a replay under the same deadline would wedge identically.
///
/// Retries are spaced by the deterministic [`BackoffPolicy`] (stream 0 of
/// the spec's own grid fingerprint); a retry whose backoff budget is
/// exhausted is abandoned as if `max_attempts` had been reached.
///
/// [`retry_deterministic`]: RetryPolicy::retry_deterministic
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per scenario (≥ 1; 1 = no retries).
    pub max_attempts: u32,
    /// Also retry failures classified as deterministic.
    pub retry_deterministic: bool,
    /// Cooperative per-attempt deadline: each attempt runs under a
    /// [`CancelToken`] with this timeout, checked at trial, member, and
    /// chunk boundaries. `None` = no deadline. An expired deadline reports
    /// the cell as failed with a timed-out classification.
    pub cell_timeout: Option<Duration>,
    /// Deterministic delay schedule between in-process retry attempts.
    pub backoff: BackoffPolicy,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            retry_deterministic: false,
            cell_timeout: None,
            backoff: BackoffPolicy::default(),
        }
    }
}

impl RetryPolicy {
    /// Up to `max_attempts` total attempts, retrying transient failures only.
    pub fn transient_retries(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// This policy with a cooperative per-attempt cell deadline.
    pub fn with_cell_timeout(mut self, timeout: Duration) -> Self {
        self.cell_timeout = Some(timeout);
        self
    }
}

/// A scenario that failed under fail-soft execution — the cell's slot in
/// the sweep, with the error that killed it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFailure {
    /// The scenario's label.
    pub label: String,
    /// Attack display label.
    pub attack: String,
    /// Engine display label.
    pub engine: &'static str,
    /// Rendered error (or panic message) of the **last** attempt.
    pub error: String,
    /// Whether the last error was classified transient (panics are not).
    pub transient: bool,
    /// Whether the last error was a cooperative timeout (an expired cell
    /// deadline or a tripped cancel token). Timed-out failures are reported
    /// distinctly and never retried.
    pub timed_out: bool,
    /// Isolated attempts made before giving up.
    pub attempts: u32,
}

impl ScenarioFailure {
    /// A failure of `spec` that is neither transient nor a timeout, after
    /// `attempts` attempts: how a panic that escaped a group's containment,
    /// or a cell no shard journal holds, is reported.
    pub(crate) fn deterministic(spec: &ScenarioSpec, error: String, attempts: u32) -> Self {
        ScenarioFailure {
            label: spec.label.clone(),
            attack: spec.attack.label(),
            engine: spec.engine.label(),
            error,
            transient: false,
            timed_out: false,
            attempts,
        }
    }

    /// The failure-classification label reports render: `timed-out`,
    /// `transient`, or `deterministic`.
    pub fn classification(&self) -> &'static str {
        if self.timed_out {
            "timed-out"
        } else if self.transient {
            "transient"
        } else {
            "deterministic"
        }
    }
}

/// The outcome of one scenario under fail-soft execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// The scenario ran to completion with no degradation warnings.
    Completed(ScenarioResult),
    /// The scenario ran to completion, but only by degrading gracefully —
    /// its result carries non-empty [`ScenarioResult::warnings`] (e.g.
    /// BE-DR's eigenvalue-clipped SPD repair of an indefinite posterior
    /// system). The metrics are real and usable; reports render these cells
    /// distinctly so a silent numerical rescue cannot masquerade as a clean
    /// run.
    Degraded(ScenarioResult),
    /// The scenario errored or panicked on every attempt; the rest of the
    /// sweep ran anyway.
    Failed(ScenarioFailure),
}

impl ScenarioOutcome {
    /// Wraps a runner result in the outcome its warnings dictate:
    /// [`Completed`](ScenarioOutcome::Completed) when the warning list is
    /// empty, [`Degraded`](ScenarioOutcome::Degraded) otherwise. Every
    /// construction site of a successful outcome goes through here so the
    /// degraded contract cannot be bypassed.
    pub fn from_result(result: ScenarioResult) -> ScenarioOutcome {
        if result.warnings.is_empty() {
            ScenarioOutcome::Completed(result)
        } else {
            ScenarioOutcome::Degraded(result)
        }
    }

    /// The scenario's label.
    pub fn label(&self) -> &str {
        match self {
            ScenarioOutcome::Completed(r) | ScenarioOutcome::Degraded(r) => &r.label,
            ScenarioOutcome::Failed(f) => &f.label,
        }
    }

    /// The scenario result, if the scenario produced one — `Some` for both
    /// [`Completed`](ScenarioOutcome::Completed) and
    /// [`Degraded`](ScenarioOutcome::Degraded) (degraded metrics are real
    /// measurements; only their provenance is flagged).
    pub fn as_completed(&self) -> Option<&ScenarioResult> {
        match self {
            ScenarioOutcome::Completed(r) | ScenarioOutcome::Degraded(r) => Some(r),
            ScenarioOutcome::Failed(_) => None,
        }
    }

    /// True for [`ScenarioOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, ScenarioOutcome::Failed(_))
    }

    /// True for [`ScenarioOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, ScenarioOutcome::Degraded(_))
    }
}

/// Runs one scenario in isolation, catching panics and applying the retry
/// policy (deadline per attempt, deterministic backoff between attempts).
/// Re-running a member standalone is bit-identical to running it
/// inside its workload group (sharing is purely a cost optimization; all
/// seeding is spec-derived), so isolation never changes results.
fn run_one_failsoft(spec: &ScenarioSpec, policy: RetryPolicy) -> ScenarioOutcome {
    let fingerprint = crate::journal::grid_fingerprint(std::slice::from_ref(spec));
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let cancel = match policy.cell_timeout {
            Some(timeout) => CancelToken::with_deadline(timeout),
            None => CancelToken::new(),
        };
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_group_cancellable(std::slice::from_ref(spec), &cancel)
        }));
        let (error, transient, timed_out) = match attempt {
            Ok(Ok(mut results)) => match results.pop() {
                Some(result) => return ScenarioOutcome::from_result(result),
                None => ("scenario produced no result".to_string(), false, false),
            },
            Ok(Err(e)) => (e.to_string(), e.is_transient(), e.is_timeout()),
            Err(payload) => (
                format!(
                    "panic: {}",
                    randrecon_parallel::panic_message(payload.as_ref())
                ),
                false,
                false,
            ),
        };
        let mut retry = !timed_out
            && attempts < policy.max_attempts.max(1)
            && (transient || policy.retry_deterministic);
        if retry {
            // Deterministic backoff before the next attempt; an exhausted
            // delay budget abandons the retry instead of sleeping.
            match policy.backoff.delay(fingerprint, 0, attempts) {
                Some(delay) => {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                None => retry = false,
            }
        }
        if !retry {
            return ScenarioOutcome::Failed(ScenarioFailure {
                label: spec.label.clone(),
                attack: spec.attack.label(),
                engine: spec.engine.label(),
                error,
                transient,
                timed_out,
                attempts,
            });
        }
    }
}

/// Executes one workload group fail-soft: the shared (grouped) run is tried
/// first; if any member poisons it — an error, a panic, or a blown group
/// deadline — each member is re-run in isolation (under its own per-cell
/// deadline) so one bad cell cannot take down its group-mates.
pub(crate) fn execute_group_failsoft(
    group: &[ScenarioSpec],
    policy: RetryPolicy,
    pool: Option<&DatasetPool>,
) -> Vec<ScenarioOutcome> {
    if group.len() > 1 || pool.is_some() {
        // The shared run gets the whole group's worth of cell deadlines —
        // it does the work of `group.len()` cells.
        let cancel = match policy.cell_timeout {
            Some(timeout) => CancelToken::with_deadline(timeout * group.len() as u32),
            None => CancelToken::new(),
        };
        let shared = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_group_inner(group, &cancel, pool, None)
        }));
        if let Ok(Ok(results)) = shared {
            return results
                .into_iter()
                .map(ScenarioOutcome::from_result)
                .collect();
        }
    }
    // Isolated (unpooled) per-member retries — bit-identical to the shared
    // path, since dataset sharing is purely a cost optimization.
    group.iter().map(|s| run_one_failsoft(s, policy)).collect()
}

/// Finishes a *split* workload group coordinator-side from already-reduced
/// per-trial stream moments (one [`StreamMoments`] per trial): builds the
/// group's disguised stream — through the dataset `pool`, so the grid's
/// shared datasets are constructed once — and runs every member's pass 2
/// against the supplied moments. Because the reduced moments are
/// bit-identical to the moments a local pass 1 would produce (same fixed
/// segmentation, same fold), results equal single-process execution bit for
/// bit. On error or panic the members fall back to isolated self-computing
/// runs — again bit-identical, just without the distributed economy.
pub(crate) fn execute_group_failsoft_with_moments(
    group: &[ScenarioSpec],
    moments: &[StreamMoments],
    policy: RetryPolicy,
    pool: Option<&DatasetPool>,
) -> Vec<ScenarioOutcome> {
    let cancel = match policy.cell_timeout {
        Some(timeout) => CancelToken::with_deadline(timeout * group.len().max(1) as u32),
        None => CancelToken::new(),
    };
    let shared = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_group_inner(group, &cancel, pool, Some(moments))
    }));
    if let Ok(Ok(results)) = shared {
        return results
            .into_iter()
            .map(ScenarioOutcome::from_result)
            .collect();
    }
    group.iter().map(|s| run_one_failsoft(s, policy)).collect()
}

/// Worker half of the distributed pass 1: builds trial `trial`'s disguised
/// stream for a splittable group prototype ([`ScenarioSpec::stream_geometry`]
/// is `Some`) and accumulates its self-anchored moment segments
/// `seg_lo..seg_hi`. Skipping to `seg_lo` is a pure seed-cursor jump (both
/// the synthetic sampler and the disguise noise are child-seeded per chunk
/// index), so the returned segments are bit-identical to the ones a full
/// single-process pass folds — the property the coordinator's cross-shard
/// reduce depends on.
pub(crate) fn accumulate_split_segments(
    proto: &ScenarioSpec,
    trial: usize,
    seg_lo: usize,
    seg_hi: usize,
) -> Result<Vec<MomentSegment>> {
    let EngineSpec::Streaming { chunk_rows } = proto.engine else {
        return Err(ExperimentError::InvalidConfig {
            reason: format!(
                "scenario '{}': moment segments need the streaming engine",
                proto.label
            ),
        });
    };
    let DataSpec::SyntheticMvn { spectrum, records } = &proto.data else {
        return Err(ExperimentError::InvalidConfig {
            reason: format!(
                "scenario '{}': moment segments need a synthetic MVN stream",
                proto.label
            ),
        });
    };
    let (trial_seed, noise_seed) = trial_seeds(proto, trial);
    let SharedData::Stream(original) =
        build_stream_data(spectrum, *records, chunk_rows, trial_seed)?
    else {
        unreachable!("build_stream_data always builds a stream");
    };
    let (randomizer, _measured_x) = proto.noise.build(Some((
        original.eigenvalues(),
        original.eigenvectors(),
        original.covariance(),
    )))?;
    let mut disguised = DisguisedChunkSource::new(original, randomizer, noise_seed);
    Ok(accumulate_moment_segments(&mut disguised, seg_lo, seg_hi)?)
}

/// The fail-soft core: validates, groups, dispatches, and reports every
/// scenario's outcome **in input order**, invoking `on_done(input_index,
/// outcome)` as each scenario finishes (under parallel dispatch — the
/// callback must be `Sync`; the journal layer serializes appends behind a
/// mutex). A callback error aborts the sweep with that error once dispatch
/// drains.
pub(crate) fn execute_specs_failsoft<F>(
    specs: &[ScenarioSpec],
    policy: RetryPolicy,
    on_done: F,
) -> Result<Vec<ScenarioOutcome>>
where
    F: Fn(usize, &ScenarioOutcome) -> Result<()> + Sync,
{
    for spec in specs {
        spec.validate()?;
    }
    let member_sets = workload_groups(specs);
    let pool = DatasetPool::new(data_group_consumers(specs, &member_sets));

    let callback_error: std::sync::Mutex<Option<ExperimentError>> = std::sync::Mutex::new(None);
    let group_outcomes = randrecon_parallel::parallel_map_catch(&member_sets, |members| {
        let group: Vec<ScenarioSpec> = members.iter().map(|&i| specs[i].clone()).collect();
        let outcomes = execute_group_failsoft(&group, policy, Some(&pool));
        for (&i, outcome) in members.iter().zip(outcomes.iter()) {
            if let Err(e) = on_done(i, outcome) {
                let mut slot = callback_error.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(e);
            }
        }
        members
            .iter()
            .copied()
            .zip(outcomes)
            .collect::<Vec<(usize, ScenarioOutcome)>>()
    });

    if let Some(e) = callback_error
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
    {
        return Err(e);
    }

    let mut out: Vec<Option<ScenarioOutcome>> = (0..specs.len()).map(|_| None).collect();
    for (set, batch) in member_sets.iter().zip(group_outcomes) {
        match batch {
            Ok(pairs) => {
                for (i, outcome) in pairs {
                    out[i] = Some(outcome);
                }
            }
            // A panic escaped even the per-group containment (e.g. inside
            // the dispatch bookkeeping): every member of that group is
            // reported failed rather than silently dropped.
            Err(panic_msg) => {
                for &i in set {
                    out[i] = Some(ScenarioOutcome::Failed(ScenarioFailure::deterministic(
                        &specs[i],
                        format!("panic: {panic_msg}"),
                        1,
                    )));
                }
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every scenario produced an outcome"))
        .collect())
}

/// Fail-soft variant of [`run_scenarios`]: instead of aborting the sweep at
/// the first error, every scenario reports a [`ScenarioOutcome`] — failures
/// (errors *and* panics, contained per scenario) sit alongside the completed
/// cells, in input order. Scenario groups still share workloads on the happy
/// path; a failing group falls back to isolated per-member execution (with
/// `policy`'s retries) so one poisoned cell cannot sink its group-mates.
/// Only spec-validation errors abort the whole sweep — an invalid grid is a
/// caller bug, not a runtime casualty.
pub fn run_scenarios_failsoft(
    specs: &[ScenarioSpec],
    policy: RetryPolicy,
) -> Result<Vec<ScenarioOutcome>> {
    execute_specs_failsoft(specs, policy, |_, _| Ok(()))
}

// ---------------------------------------------------------------------------
// Series regrouping
// ---------------------------------------------------------------------------

/// Regroups runner results into an [`crate::config::ExperimentSeries`]: one
/// point per distinct `x` (first-appearance order), one `(scheme, RMSE)`
/// entry per result at that x. Results whose attack is not one of the five
/// paper schemes are skipped (they have no figure legend).
pub fn series_from_results(
    name: &str,
    x_label: &str,
    results: &[ScenarioResult],
) -> crate::config::ExperimentSeries {
    let mut points: Vec<crate::config::SeriesPoint> = Vec::new();
    for result in results {
        let Some(scheme) = result.scheme else {
            continue;
        };
        let Some(value) = result.rmse() else {
            continue;
        };
        // A result joins the most recent point with its x — unless that
        // point already carries its scheme, which means a *repeated* sweep
        // value has started a fresh point (sweeps may legitimately visit the
        // same x twice; each visit stays its own point, as the hand-written
        // drivers emitted them).
        match points
            .iter_mut()
            .rev()
            .find(|p| p.x == result.x)
            .filter(|p| p.rmse_of(scheme).is_none())
        {
            Some(point) => point.rmse.push((scheme, value)),
            None => points.push(crate::config::SeriesPoint {
                x: result.x,
                rmse: vec![(scheme, value)],
            }),
        }
    }
    crate::config::ExperimentSeries {
        name: name.to_string(),
        x_label: x_label.to_string(),
        points,
    }
}
