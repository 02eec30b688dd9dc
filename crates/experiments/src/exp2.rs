//! Experiment 2 (Figure 2): increasing the number of principal components.
//!
//! The number of attributes is fixed at `m = 100` while the number of
//! principal components `p` grows from 2 toward `m`. More principal components
//! means *less* redundancy among attributes, so the correlation-exploiting
//! schemes degrade toward the UDR baseline as `p → m` while UDR itself stays
//! flat (total variance is held constant, Equation 12).

use crate::config::{figure_1_to_3_set, ExperimentSeries, SchemeKind};
use crate::error::Result;
use crate::scenario::{
    series_from_results, DataSpec, GridAxis, GridAxisValue, NoiseSpec, Override, ScenarioGrid,
    ScenarioResult, ScenarioSpec, SpectrumSpec,
};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment2 {
    /// Number of attributes (fixed; the paper uses 100).
    pub attributes: usize,
    /// Sweep over the number of principal components `p`.
    pub principal_component_counts: Vec<usize>,
    /// Records per generated data set.
    pub records: usize,
    /// Fixed eigenvalue of every non-principal component; the principal
    /// eigenvalues absorb the rest of the constant variance budget.
    pub small_eigenvalue: f64,
    /// Average per-attribute variance held constant across the sweep.
    pub mean_attribute_variance: f64,
    /// Standard deviation of the independent Gaussian disguising noise.
    pub noise_sigma: f64,
    /// Independent repetitions averaged per sweep point.
    pub trials: usize,
    /// Base random seed.
    pub seed: u64,
    /// Schemes to evaluate.
    pub schemes: Vec<SchemeKind>,
}

impl Default for Experiment2 {
    fn default() -> Self {
        Experiment2 {
            attributes: 100,
            principal_component_counts: vec![2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            records: 1_000,
            small_eigenvalue: 4.0,
            mean_attribute_variance: 100.0,
            noise_sigma: 5.0,
            trials: 3,
            seed: 0x5EED_0002,
            schemes: figure_1_to_3_set(),
        }
    }
}

impl Experiment2 {
    /// The full-size configuration (`scenarios --grid figure2`, the bench).
    pub fn full() -> Self {
        Self::default()
    }

    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Experiment2 {
            attributes: 24,
            principal_component_counts: vec![2, 8, 24],
            records: 250,
            trials: 1,
            ..Self::default()
        }
    }

    /// The experiment as a declarative scenario grid (seeding matches the
    /// historical driver: `trial_seed = child_seed(seed, p·1000 + trial)`).
    pub fn grid(&self) -> ScenarioGrid {
        // The template's workload is a placeholder — every p-axis value
        // overrides the data source below.
        let mut base = ScenarioSpec::synthetic_quick("figure2", self.records, 1, 1);
        base.noise = NoiseSpec::Gaussian {
            sigma: self.noise_sigma,
        };
        base.trials = self.trials;
        base.seed = self.seed;
        let p_axis = GridAxis {
            name: "p".to_string(),
            values: self
                .principal_component_counts
                .iter()
                .enumerate()
                // The sweep index prefixes the label so repeated counts stay
                // distinct sweep points (the historical driver accepted them).
                .map(|(idx, &p)| GridAxisValue {
                    label: format!("{idx}:{p}"),
                    x: Some(p as f64),
                    overrides: vec![
                        // Non-principal eigenvalues stay at `small_eigenvalue`;
                        // the p principal ones share the rest of the constant
                        // variance budget (flat spectrum when p = m).
                        Override::Data(DataSpec::SyntheticMvn {
                            spectrum: SpectrumSpec::PrincipalFillingTotal {
                                p,
                                m: self.attributes,
                                small: self.small_eigenvalue,
                                total_variance: self.mean_attribute_variance
                                    * self.attributes as f64,
                            },
                            records: self.records,
                        }),
                        Override::SeedOffset((p as u64) * 1_000),
                    ],
                })
                .collect(),
        };
        ScenarioGrid {
            base,
            axes: vec![p_axis, GridAxis::schemes(&self.schemes)],
        }
    }

    /// Regroups the grid's results into the Figure 2 series.
    pub fn series(&self, results: &[ScenarioResult]) -> ExperimentSeries {
        series_from_results(
            &format!(
                "Figure 2: increasing the number of principal components (m = {} fixed)",
                self.attributes
            ),
            "number of principal components",
            results,
        )
    }

    /// Runs the sweep and returns the Figure 2 series.
    pub fn run(&self) -> Result<ExperimentSeries> {
        Ok(self.series(&self.grid().run()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = Experiment2::quick();
        c.principal_component_counts.clear();
        assert!(c.run().is_err());
        let mut c = Experiment2::quick();
        c.principal_component_counts = vec![0];
        assert!(c.run().is_err());
        let mut c = Experiment2::quick();
        c.principal_component_counts = vec![25]; // > m = 24
        assert!(c.run().is_err());
        let mut c = Experiment2::quick();
        c.schemes.clear();
        assert!(c.run().is_err());
    }

    #[test]
    fn quick_run_reproduces_figure_2_shape() {
        let series = Experiment2::quick().run().unwrap();
        assert_eq!(series.points.len(), 3);

        // Correlation-based schemes are best at small p (high correlation) and
        // degrade as p approaches m.
        for scheme in [SchemeKind::PcaDr, SchemeKind::BeDr] {
            let s = series.series_for(scheme);
            assert!(
                s.first().unwrap().1 < s.last().unwrap().1,
                "{scheme:?} should degrade as p grows: {s:?}"
            );
        }

        // At p = m, BE-DR converges toward UDR (no correlation left to exploit).
        let last = series.points.last().unwrap();
        let be = last.rmse_of(SchemeKind::BeDr).unwrap();
        let udr = last.rmse_of(SchemeKind::Udr).unwrap();
        assert!(
            (be - udr).abs() / udr < 0.15,
            "BE-DR {be} vs UDR {udr} at p = m"
        );

        // At the most correlated point (p = 2) BE-DR clearly beats UDR.
        let first = series.points.first().unwrap();
        assert!(
            first.rmse_of(SchemeKind::BeDr).unwrap()
                < 0.8 * first.rmse_of(SchemeKind::Udr).unwrap()
        );
    }
}
