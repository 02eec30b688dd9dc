//! Experiment 1 (Figure 1): increasing the number of attributes.
//!
//! The number of principal components is fixed at `p = 5` while the number of
//! attributes `m` grows. Because the total variance is rescaled so the average
//! per-attribute variance stays constant, the UDR baseline stays flat; the
//! correlation-exploiting schemes (SF, PCA-DR, BE-DR) improve as `m` grows
//! because a fixed amount of information is spread redundantly over more and
//! more attributes.

use crate::config::{figure_1_to_3_set, ExperimentSeries, SchemeKind};
use crate::error::Result;
use crate::scenario::{
    series_from_results, DataSpec, GridAxis, GridAxisValue, NoiseSpec, Override, ScenarioGrid,
    ScenarioResult, ScenarioSpec, SpectrumSpec,
};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment1 {
    /// Number of principal components (the paper uses 5).
    pub principal_components: usize,
    /// Sweep over the number of attributes `m`.
    pub attribute_counts: Vec<usize>,
    /// Records per generated data set.
    pub records: usize,
    /// Fixed eigenvalue of every non-principal component ("relatively small
    /// numbers" in the paper); the principal eigenvalues absorb the rest of
    /// the constant variance budget.
    pub small_eigenvalue: f64,
    /// Average per-attribute variance, held constant across the sweep so the
    /// UDR baseline stays flat (Equation 12).
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

impl Default for Experiment1 {
    fn default() -> Self {
        Experiment1 {
            principal_components: 5,
            attribute_counts: vec![5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            records: 1_000,
            small_eigenvalue: 4.0,
            mean_attribute_variance: 100.0,
            noise_sigma: 5.0,
            trials: 3,
            seed: 0x5EED_0001,
            schemes: figure_1_to_3_set(),
        }
    }
}

impl Experiment1 {
    /// The full-size configuration (`scenarios --grid figure1`, the bench).
    pub fn full() -> Self {
        Self::default()
    }

    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Experiment1 {
            attribute_counts: vec![5, 10, 20],
            records: 250,
            trials: 1,
            ..Self::default()
        }
    }

    /// The experiment as a declarative scenario grid: the `m` sweep crossed
    /// with the scheme set over one shared in-memory workload per point.
    ///
    /// Seeding matches the historical hand-written driver exactly
    /// (`trial_seed = child_seed(seed, m·1000 + trial)`, disguise seed
    /// `child_seed(trial_seed, 1)`), so the rebased grid reproduces its
    /// numbers bit for bit.
    pub fn grid(&self) -> ScenarioGrid {
        // The template's workload is a placeholder — every m-axis value
        // overrides the data source below.
        let mut base = ScenarioSpec::synthetic_quick("figure1", self.records, 1, 1);
        base.noise = NoiseSpec::Gaussian {
            sigma: self.noise_sigma,
        };
        base.trials = self.trials;
        base.seed = self.seed;
        let m_axis = GridAxis {
            name: "m".to_string(),
            values: self
                .attribute_counts
                .iter()
                .enumerate()
                // The sweep index prefixes the label so repeated attribute
                // counts stay distinct sweep points (the historical driver
                // accepted them).
                .map(|(idx, &m)| GridAxisValue {
                    label: format!("{idx}:{m}"),
                    x: Some(m as f64),
                    overrides: vec![
                        // Non-principal eigenvalues stay fixed at
                        // `small_eigenvalue`; the p principal ones absorb the
                        // rest of the (constant) per-attribute variance
                        // budget so UDR stays flat (Eq. 12).
                        Override::Data(DataSpec::SyntheticMvn {
                            spectrum: SpectrumSpec::PrincipalFillingTotal {
                                p: self.principal_components,
                                m,
                                small: self.small_eigenvalue,
                                total_variance: self.mean_attribute_variance * m as f64,
                            },
                            records: self.records,
                        }),
                        Override::SeedOffset((m as u64) * 1_000),
                    ],
                })
                .collect(),
        };
        ScenarioGrid {
            base,
            axes: vec![m_axis, GridAxis::schemes(&self.schemes)],
        }
    }

    /// Regroups the grid's results into the Figure 1 series.
    pub fn series(&self, results: &[ScenarioResult]) -> ExperimentSeries {
        series_from_results(
            "Figure 1: increasing the number of attributes (p = 5 fixed)",
            "number of attributes",
            results,
        )
    }

    /// Runs the sweep and returns the Figure 1 series.
    pub fn run(&self) -> Result<ExperimentSeries> {
        Ok(self.series(&self.grid().run()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = Experiment1::quick();
        c.attribute_counts.clear();
        assert!(c.run().is_err());
        let mut c = Experiment1::quick();
        c.attribute_counts = vec![3]; // below p = 5
        assert!(c.run().is_err());
        let mut c = Experiment1::quick();
        c.trials = 0;
        assert!(c.run().is_err());
    }

    #[test]
    fn quick_run_reproduces_figure_1_shape() {
        let series = Experiment1::quick().run().unwrap();
        assert_eq!(series.points.len(), 3);

        // UDR stays roughly flat (its error only depends on the per-attribute
        // variance, which is held constant).
        let udr = series.series_for(SchemeKind::Udr);
        let udr_min = udr.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
        let udr_max = udr
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(udr_max - udr_min < 0.6, "UDR should be flat: {udr:?}");

        // The correlation-based schemes improve as m grows: error at the largest
        // m is lower than at the smallest m.
        for scheme in [SchemeKind::PcaDr, SchemeKind::BeDr] {
            let s = series.series_for(scheme);
            assert!(
                s.last().unwrap().1 < s.first().unwrap().1,
                "{scheme:?} should improve with m: {s:?}"
            );
        }

        // At the most correlated point BE-DR beats UDR decisively.
        let last = series.points.last().unwrap();
        assert!(last.rmse_of(SchemeKind::BeDr).unwrap() < last.rmse_of(SchemeKind::Udr).unwrap());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Experiment1::quick().run().unwrap();
        let b = Experiment1::quick().run().unwrap();
        assert_eq!(a, b);
    }
}
