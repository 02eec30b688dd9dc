//! Experiment 3 (Figure 3): increasing the eigenvalues of the non-principal
//! components.
//!
//! The spectrum keeps 20 large principal eigenvalues (λ = 400) while the
//! remaining eigenvalues grow from small toward λ. Larger non-principal
//! eigenvalues mean the data are less concentrated in the principal subspace:
//! the PCA-based schemes (and SF) discard more and more real information and
//! eventually become *worse* than the UDR baseline, while BE-DR — which never
//! discards components — degrades gracefully and converges to UDR.

use crate::config::{figure_1_to_3_set, ExperimentSeries, SchemeKind};
use crate::error::{ExperimentError, Result};
use crate::scenario::{
    series_from_results, DataSpec, GridAxis, GridAxisValue, NoiseSpec, Override, ScenarioGrid,
    ScenarioResult, ScenarioSpec, SpectrumSpec,
};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment3 {
    /// Number of attributes (fixed; the paper uses 100).
    pub attributes: usize,
    /// Number of principal components with the large eigenvalue (paper: 20).
    pub principal_components: usize,
    /// The (fixed) principal eigenvalue λ (paper: 400).
    pub principal_eigenvalue: f64,
    /// Sweep over the non-principal eigenvalue.
    pub non_principal_eigenvalues: Vec<f64>,
    /// Records per generated data set.
    pub records: usize,
    /// Standard deviation of the independent Gaussian disguising noise.
    pub noise_sigma: f64,
    /// Independent repetitions averaged per sweep point.
    pub trials: usize,
    /// Base random seed.
    pub seed: u64,
    /// Schemes to evaluate.
    pub schemes: Vec<SchemeKind>,
}

impl Default for Experiment3 {
    fn default() -> Self {
        Experiment3 {
            attributes: 100,
            principal_components: 20,
            principal_eigenvalue: 400.0,
            non_principal_eigenvalues: vec![
                1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0,
            ],
            records: 1_000,
            noise_sigma: 5.0,
            trials: 3,
            seed: 0x5EED_0003,
            schemes: figure_1_to_3_set(),
        }
    }
}

impl Experiment3 {
    /// The full-size configuration (`scenarios --grid figure3`, the bench).
    pub fn full() -> Self {
        Self::default()
    }

    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Experiment3 {
            attributes: 25,
            principal_components: 5,
            non_principal_eigenvalues: vec![1.0, 25.0, 60.0],
            records: 300,
            trials: 1,
            ..Self::default()
        }
    }

    /// The one check the grid's own validation cannot make: the scenario
    /// spectrum accepts `p == m`, but Figure 3 needs at least one
    /// non-principal component to sweep.
    fn validate(&self) -> Result<()> {
        if self.principal_components >= self.attributes {
            return Err(ExperimentError::InvalidConfig {
                reason: format!(
                    "need 1 <= principal components < attributes, got {} of {}",
                    self.principal_components, self.attributes
                ),
            });
        }
        Ok(())
    }

    /// The experiment as a declarative scenario grid (seeding matches the
    /// historical driver: `trial_seed = child_seed(seed, idx·1000 + trial)`
    /// where `idx` is the sweep position).
    pub fn grid(&self) -> ScenarioGrid {
        // The template's workload is a placeholder — every axis value
        // overrides the data source below.
        let mut base = ScenarioSpec::synthetic_quick("figure3", self.records, 1, 1);
        base.noise = NoiseSpec::Gaussian {
            sigma: self.noise_sigma,
        };
        base.trials = self.trials;
        base.seed = self.seed;
        let eigenvalue_axis = GridAxis {
            name: "small".to_string(),
            values: self
                .non_principal_eigenvalues
                .iter()
                .enumerate()
                // The sweep index prefixes the label (and drives the seed),
                // so repeated eigenvalues stay distinct sweep points — the
                // historical driver behaviour.
                .map(|(idx, &small)| GridAxisValue {
                    label: format!("{idx}:{small}"),
                    x: Some(small),
                    overrides: vec![
                        Override::Data(DataSpec::SyntheticMvn {
                            spectrum: SpectrumSpec::PrincipalPlusSmall {
                                p: self.principal_components,
                                principal: self.principal_eigenvalue,
                                m: self.attributes,
                                small,
                            },
                            records: self.records,
                        }),
                        Override::SeedOffset((idx as u64) * 1_000),
                    ],
                })
                .collect(),
        };
        ScenarioGrid {
            base,
            axes: vec![eigenvalue_axis, GridAxis::schemes(&self.schemes)],
        }
    }

    /// Regroups the grid's results into the Figure 3 series.
    pub fn series(&self, results: &[ScenarioResult]) -> ExperimentSeries {
        series_from_results(
            "Figure 3: increasing the eigenvalues of the non-principal components",
            "non-principal eigenvalue",
            results,
        )
    }

    /// Runs the sweep and returns the Figure 3 series.
    pub fn run(&self) -> Result<ExperimentSeries> {
        self.validate()?;
        Ok(self.series(&self.grid().run()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = Experiment3::quick();
        c.non_principal_eigenvalues.clear();
        assert!(c.run().is_err());
        let mut c = Experiment3::quick();
        c.non_principal_eigenvalues = vec![-1.0];
        assert!(c.run().is_err());
        let mut c = Experiment3::quick();
        c.principal_components = c.attributes;
        assert!(c.run().is_err());
    }

    #[test]
    fn quick_run_reproduces_figure_3_shape() {
        let series = Experiment3::quick().run().unwrap();
        assert_eq!(series.points.len(), 3);

        // PCA-DR degrades as the non-principal eigenvalues grow.
        let pca = series.series_for(SchemeKind::PcaDr);
        assert!(pca.last().unwrap().1 > pca.first().unwrap().1, "{pca:?}");

        // At the largest non-principal eigenvalue the PCA-based scheme discards
        // so much information that it falls behind UDR, while BE-DR does not
        // fall meaningfully behind UDR.
        let last = series.points.last().unwrap();
        let udr = last.rmse_of(SchemeKind::Udr).unwrap();
        let pca_last = last.rmse_of(SchemeKind::PcaDr).unwrap();
        let be_last = last.rmse_of(SchemeKind::BeDr).unwrap();
        assert!(
            pca_last > udr,
            "PCA-DR ({pca_last}) should cross above UDR ({udr})"
        );
        assert!(
            be_last <= udr * 1.05,
            "BE-DR ({be_last}) should stay at or below UDR ({udr})"
        );

        // At the smallest non-principal eigenvalue everything beats UDR.
        let first = series.points.first().unwrap();
        assert!(
            first.rmse_of(SchemeKind::PcaDr).unwrap() < first.rmse_of(SchemeKind::Udr).unwrap()
        );
        assert!(first.rmse_of(SchemeKind::BeDr).unwrap() < first.rmse_of(SchemeKind::Udr).unwrap());
    }
}
