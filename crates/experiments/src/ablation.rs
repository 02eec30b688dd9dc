//! Ablation studies over design choices the paper leaves implicit.
//!
//! * [`SelectionAblation`] — how the principal-component selection rule
//!   (largest gap vs fixed count vs variance fraction) changes PCA-DR accuracy.
//! * [`NoiseLevelAblation`] — how the disguising noise level σ moves every
//!   scheme (all of them degrade, but the correlation-based schemes keep their
//!   relative advantage).
//! * [`SampleSizeAblation`] — how many records the adversary needs before the
//!   covariance estimate (Theorem 5.1) is good enough for the attacks to work.
//! * [`NoiseShapeAblation`] — Gaussian versus uniform disguising noise at the
//!   same variance (the attacks only use second moments, so the results barely
//!   change — which is itself a finding worth demonstrating).

use crate::config::{figure_1_to_3_set, ExperimentSeries, SchemeKind};
use crate::error::Result;
use crate::scenario::{
    series_from_results, AttackSpec, DataSpec, EngineSpec, GridAxis, GridAxisValue, MetricKind,
    NoiseSpec, Override, ScenarioGrid, ScenarioResult, ScenarioSpec, SpectrumSpec,
};
use randrecon_core::ComponentSelection;
use randrecon_stats::rng::child_seed;
use serde::{Deserialize, Serialize};

/// Shared workload parameters for the ablations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationWorkload {
    /// Number of attributes.
    pub attributes: usize,
    /// Number of principal components.
    pub principal_components: usize,
    /// Principal eigenvalue.
    pub principal_eigenvalue: f64,
    /// Non-principal eigenvalue.
    pub small_eigenvalue: f64,
    /// Records per data set.
    pub records: usize,
    /// Noise standard deviation.
    pub noise_sigma: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for AblationWorkload {
    fn default() -> Self {
        AblationWorkload {
            attributes: 50,
            principal_components: 5,
            principal_eigenvalue: 400.0,
            small_eigenvalue: 4.0,
            records: 1_000,
            noise_sigma: 10.0,
            seed: 0x5EED_00AB,
        }
    }
}

impl AblationWorkload {
    /// A smaller workload for tests.
    pub fn quick() -> Self {
        AblationWorkload {
            attributes: 16,
            principal_components: 3,
            records: 300,
            ..Self::default()
        }
    }

    /// The workload as a pinned-seed scenario template: one shared data set
    /// (`dataset_seed = seed`, the historical `AblationWorkload::generate`
    /// seeding) disguised with `child_seed(seed, 1)`, ready for ablation
    /// grids to override the axis they study.
    fn base_spec(&self, label: &str) -> ScenarioSpec {
        ScenarioSpec {
            label: label.to_string(),
            x: 0.0,
            data: DataSpec::SyntheticMvn {
                spectrum: SpectrumSpec::PrincipalPlusSmall {
                    p: self.principal_components,
                    principal: self.principal_eigenvalue,
                    m: self.attributes,
                    small: self.small_eigenvalue,
                },
                records: self.records,
            },
            noise: NoiseSpec::Gaussian {
                sigma: self.noise_sigma,
            },
            attack: AttackSpec::Scheme(SchemeKind::BeDr),
            engine: EngineSpec::InMemory,
            metrics: vec![MetricKind::Rmse],
            trials: 1,
            seed: self.seed,
            seed_offset: 0,
            dataset_seed: Some(self.seed),
            noise_seed: Some(child_seed(self.seed, 1)),
        }
    }
}

/// Ablation over the principal-component selection rule used by PCA-DR.
#[derive(Debug, Clone, Default)]
pub struct SelectionAblation {
    /// Workload to evaluate on.
    pub workload: AblationWorkload,
}

impl SelectionAblation {
    /// PCA-DR with each selection rule on the same disguised data set (a
    /// one-axis scenario grid over the selection rule; the pinned seeds make
    /// every variant attack the identical disguised table).
    pub fn grid(&self) -> ScenarioGrid {
        let p_true = self.workload.principal_components;
        let too_many = (p_true * 3).min(self.workload.attributes);
        let variants = [
            (
                "largest gap (paper default)".to_string(),
                ComponentSelection::LargestGap,
            ),
            (
                format!("fixed count p = {p_true} (oracle)"),
                ComponentSelection::FixedCount(p_true),
            ),
            (
                format!("fixed count p = {too_many} (too many)"),
                ComponentSelection::FixedCount(too_many),
            ),
            (
                "fixed count p = 1 (too few)".to_string(),
                ComponentSelection::FixedCount(1),
            ),
            (
                "variance fraction 0.90".to_string(),
                ComponentSelection::VarianceFraction(0.90),
            ),
            (
                "variance fraction 0.99".to_string(),
                ComponentSelection::VarianceFraction(0.99),
            ),
        ];
        ScenarioGrid {
            base: self.workload.base_spec("ablation-selection"),
            axes: vec![GridAxis {
                name: "selection".to_string(),
                values: variants
                    .into_iter()
                    .map(|(label, selection)| GridAxisValue {
                        label,
                        x: None,
                        overrides: vec![Override::Attack(AttackSpec::PcaDr { selection })],
                    })
                    .collect(),
            }],
        }
    }
}

/// Ablation over the disguising-noise standard deviation.
#[derive(Debug, Clone)]
pub struct NoiseLevelAblation {
    /// Workload to evaluate on (its `noise_sigma` field is ignored).
    pub workload: AblationWorkload,
    /// Noise standard deviations to sweep.
    pub sigmas: Vec<f64>,
    /// Schemes to evaluate.
    pub schemes: Vec<SchemeKind>,
}

impl Default for NoiseLevelAblation {
    fn default() -> Self {
        NoiseLevelAblation {
            workload: AblationWorkload::default(),
            sigmas: vec![2.0, 5.0, 10.0, 20.0, 40.0],
            schemes: figure_1_to_3_set(),
        }
    }
}

impl NoiseLevelAblation {
    /// A smaller configuration for tests.
    pub fn quick() -> Self {
        NoiseLevelAblation {
            workload: AblationWorkload::quick(),
            sigmas: vec![2.0, 20.0],
            ..Self::default()
        }
    }

    /// The σ sweep crossed with the scheme set: one shared data set (the
    /// pinned dataset seed), a fresh disguise per σ
    /// (`child_seed(seed, σ.to_bits())`, the historical seeding).
    pub fn grid(&self) -> ScenarioGrid {
        ScenarioGrid {
            base: self.workload.base_spec("ablation-noise-level"),
            axes: vec![
                GridAxis {
                    name: "sigma".to_string(),
                    values: self
                        .sigmas
                        .iter()
                        .map(|&sigma| GridAxisValue {
                            label: format!("{sigma}"),
                            x: Some(sigma),
                            overrides: vec![
                                Override::Noise(NoiseSpec::Gaussian { sigma }),
                                Override::NoiseSeed(Some(child_seed(
                                    self.workload.seed,
                                    sigma.to_bits(),
                                ))),
                            ],
                        })
                        .collect(),
                },
                GridAxis::schemes(&self.schemes),
            ],
        }
    }

    /// Regroups the grid's results into a series with σ on the x-axis.
    pub fn series(&self, results: &[ScenarioResult]) -> ExperimentSeries {
        series_from_results(
            "Ablation: disguising-noise level",
            "noise standard deviation",
            results,
        )
    }

    /// Runs the sweep and returns its series.
    pub fn run(&self) -> Result<ExperimentSeries> {
        Ok(self.series(&self.grid().run()?))
    }
}

/// Ablation over the number of records available to the adversary.
#[derive(Debug, Clone)]
pub struct SampleSizeAblation {
    /// Workload to evaluate on (its `records` field is ignored).
    pub workload: AblationWorkload,
    /// Record counts to sweep.
    pub record_counts: Vec<usize>,
    /// Schemes to evaluate.
    pub schemes: Vec<SchemeKind>,
}

impl Default for SampleSizeAblation {
    fn default() -> Self {
        SampleSizeAblation {
            workload: AblationWorkload::default(),
            record_counts: vec![100, 300, 1_000, 3_000, 10_000],
            schemes: vec![SchemeKind::Udr, SchemeKind::PcaDr, SchemeKind::BeDr],
        }
    }
}

impl SampleSizeAblation {
    /// A smaller configuration for tests.
    pub fn quick() -> Self {
        SampleSizeAblation {
            workload: AblationWorkload::quick(),
            record_counts: vec![100, 1_000],
            ..Self::default()
        }
    }

    /// The record-count sweep crossed with the scheme set (fresh data per
    /// count, seeded `child_seed(seed, n)` as historically).
    pub fn grid(&self) -> ScenarioGrid {
        let w = &self.workload;
        ScenarioGrid {
            base: w.base_spec("ablation-sample-size"),
            axes: vec![
                GridAxis {
                    name: "n".to_string(),
                    values: self
                        .record_counts
                        .iter()
                        .map(|&n| GridAxisValue {
                            label: n.to_string(),
                            x: Some(n as f64),
                            overrides: vec![
                                Override::Data(DataSpec::SyntheticMvn {
                                    spectrum: SpectrumSpec::PrincipalPlusSmall {
                                        p: w.principal_components,
                                        principal: w.principal_eigenvalue,
                                        m: w.attributes,
                                        small: w.small_eigenvalue,
                                    },
                                    records: n,
                                }),
                                Override::DatasetSeed(Some(child_seed(w.seed, n as u64))),
                                Override::NoiseSeed(None),
                            ],
                        })
                        .collect(),
                },
                GridAxis::schemes(&self.schemes),
            ],
        }
    }

    /// Regroups the grid's results into a series with the record count on
    /// the x-axis.
    pub fn series(&self, results: &[ScenarioResult]) -> ExperimentSeries {
        series_from_results(
            "Ablation: adversary sample size",
            "number of records",
            results,
        )
    }

    /// Runs the sweep and returns its series.
    pub fn run(&self) -> Result<ExperimentSeries> {
        Ok(self.series(&self.grid().run()?))
    }
}

/// Ablation comparing Gaussian and uniform disguising noise at equal variance.
#[derive(Debug, Clone, Default)]
pub struct NoiseShapeAblation {
    /// Workload to evaluate on.
    pub workload: AblationWorkload,
}

impl NoiseShapeAblation {
    /// BE-DR and UDR against both noise shapes (a {noise × scheme} scenario
    /// grid over one shared data set, disguise seed pinned to
    /// `child_seed(seed, 2)` as historically).
    pub fn grid(&self) -> ScenarioGrid {
        let sigma = self.workload.noise_sigma;
        let mut base = self.workload.base_spec("ablation-noise-shape");
        base.noise_seed = Some(child_seed(self.workload.seed, 2));
        ScenarioGrid {
            base,
            axes: vec![
                GridAxis::noises(&[
                    ("gaussian noise", NoiseSpec::Gaussian { sigma }),
                    ("uniform noise", NoiseSpec::Uniform { sigma }),
                ]),
                GridAxis::schemes(&[SchemeKind::Udr, SchemeKind::BeDr]),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_ablation_oracle_and_gap_agree() {
        let ablation = SelectionAblation {
            workload: AblationWorkload::quick(),
        };
        let results = ablation.grid().run().unwrap();
        assert_eq!(results.len(), 6);
        let rmse = |i: usize| results[i].rmse().unwrap();
        let gap = rmse(0);
        let oracle = rmse(1);
        // The largest-gap rule should find (approximately) the oracle count on
        // this clean spectrum.
        assert!(
            (gap - oracle).abs() / oracle < 0.05,
            "gap {gap} vs oracle {oracle}"
        );
        // Keeping only 1 component discards real information and is worse.
        assert!(rmse(3) > oracle);
        assert!(crate::report::results_table(&results).contains("largest gap"));
    }

    #[test]
    fn noise_level_ablation_errors_increase_with_sigma() {
        let series = NoiseLevelAblation::quick().run().unwrap();
        assert_eq!(series.points.len(), 2);
        for scheme in [SchemeKind::Udr, SchemeKind::BeDr] {
            let s = series.series_for(scheme);
            assert!(
                s[1].1 > s[0].1,
                "{scheme:?} should degrade with more noise: {s:?}"
            );
        }
        let mut bad = NoiseLevelAblation::quick();
        bad.sigmas = vec![];
        assert!(bad.run().is_err());
    }

    #[test]
    fn sample_size_ablation_more_records_help_be_dr() {
        let series = SampleSizeAblation::quick().run().unwrap();
        let be = series.series_for(SchemeKind::BeDr);
        assert!(
            be[1].1 <= be[0].1 * 1.05,
            "BE-DR should not get worse with 10x more records: {be:?}"
        );
        let mut bad = SampleSizeAblation::quick();
        bad.record_counts = vec![1];
        assert!(bad.run().is_err());
    }

    #[test]
    fn noise_shape_ablation_runs_and_is_comparable() {
        let ablation = NoiseShapeAblation {
            workload: AblationWorkload::quick(),
        };
        let results = ablation.grid().run().unwrap();
        assert_eq!(results.len(), 4);
        // BE-DR under gaussian vs uniform noise of the same variance should be
        // in the same ballpark (both rely only on second moments).
        let be_rmse = |noise: &str| {
            results
                .iter()
                .find(|r| r.label.contains(noise) && r.label.contains("BE-DR"))
                .and_then(|r| r.rmse())
                .unwrap()
        };
        let be_gauss = be_rmse("gaussian");
        let be_unif = be_rmse("uniform");
        assert!(
            (be_gauss - be_unif).abs() / be_gauss < 0.25,
            "{be_gauss} vs {be_unif}"
        );
    }
}
