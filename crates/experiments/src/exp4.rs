//! Experiment 4 (Figure 4): the correlated-noise defense.
//!
//! The original data has 50 dominant and 50 small eigenvalues. The disguising
//! noise keeps the *data's eigenvectors* but its eigenvalue spectrum is swept
//! from "similar" (proportional to the data spectrum — noise concentrates on
//! the data's principal components) through "independent" (flat spectrum, i.e.
//! exactly the classic i.i.d. scheme) to "anti-similar" (noise concentrated on
//! the non-principal components). The x-axis is the correlation dissimilarity
//! of Definition 8.1.
//!
//! Expected shape (Figure 4): reconstruction error of PCA-DR and (improved)
//! BE-DR is highest when the dissimilarity is smallest — the defense works —
//! and decreases as the noise becomes less like the data; SF behaves
//! erratically once the noise stops being i.i.d. because its filtering bound
//! assumes independence.

use crate::config::{figure_4_set, ExperimentSeries, SchemeKind};
use crate::error::{ExperimentError, Result};
use crate::scenario::{
    series_from_results, DataSpec, GridAxis, GridAxisValue, NoiseSpec, Override, ScenarioGrid,
    ScenarioResult, ScenarioSpec, SpectrumSpec,
};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment4 {
    /// Number of attributes (fixed; the paper uses 100).
    pub attributes: usize,
    /// Number of dominant eigenvalues (paper: 50).
    pub principal_components: usize,
    /// Dominant eigenvalue of the data spectrum.
    pub principal_eigenvalue: f64,
    /// Small eigenvalue of the data spectrum.
    pub small_eigenvalue: f64,
    /// Records per generated data set.
    pub records: usize,
    /// Average per-attribute noise variance (the total noise budget is this
    /// value times the number of attributes, matching an i.i.d. scheme with
    /// `σ² = noise_variance`).
    pub noise_variance: f64,
    /// Similarity sweep: `1` = noise spectrum proportional to the data's,
    /// `0` = flat (independent), `-1` = reversed (anti-similar).
    pub similarity_levels: Vec<f64>,
    /// Independent repetitions averaged per sweep point.
    pub trials: usize,
    /// Base random seed.
    pub seed: u64,
    /// Schemes to evaluate (the paper plots SF, PCA-DR and improved BE-DR).
    pub schemes: Vec<SchemeKind>,
}

impl Default for Experiment4 {
    fn default() -> Self {
        Experiment4 {
            attributes: 100,
            principal_components: 50,
            principal_eigenvalue: 400.0,
            small_eigenvalue: 4.0,
            records: 1_000,
            noise_variance: 25.0,
            similarity_levels: vec![1.0, 0.75, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0],
            trials: 3,
            seed: 0x5EED_0004,
            schemes: figure_4_set(),
        }
    }
}

impl Experiment4 {
    /// The full-size configuration (`scenarios --grid figure4`, the bench).
    pub fn full() -> Self {
        Self::default()
    }

    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Experiment4 {
            attributes: 20,
            principal_components: 10,
            records: 300,
            similarity_levels: vec![1.0, 0.0, -1.0],
            trials: 1,
            ..Self::default()
        }
    }

    /// The one check the grid's own validation cannot make: the scenario
    /// spectrum accepts `p == m`, but a flat data spectrum leaves no
    /// principal/non-principal contrast for the defense to align with.
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

    /// The experiment as a declarative scenario grid: the similarity sweep
    /// (correlated-noise axis) crossed with the scheme set. The x coordinate
    /// of every result is the *measured* correlation dissimilarity
    /// (Definition 8.1), averaged over trials, exactly as the historical
    /// driver reported it.
    pub fn grid(&self) -> ScenarioGrid {
        let mut base = ScenarioSpec::synthetic_quick("figure4", self.records, 1, 1);
        // The real workload (the template's is a placeholder); the noise
        // model comes from the similarity axis below.
        base.data = DataSpec::SyntheticMvn {
            spectrum: SpectrumSpec::PrincipalPlusSmall {
                p: self.principal_components,
                principal: self.principal_eigenvalue,
                m: self.attributes,
                small: self.small_eigenvalue,
            },
            records: self.records,
        };
        base.trials = self.trials;
        base.seed = self.seed;
        let similarity_axis = GridAxis {
            name: "alpha".to_string(),
            values: self
                .similarity_levels
                .iter()
                .enumerate()
                // The sweep index prefixes the label (and drives the seed),
                // so repeated similarity levels stay distinct sweep points —
                // the historical driver behaviour.
                .map(|(idx, &alpha)| GridAxisValue {
                    label: format!("{idx}:{alpha}"),
                    x: Some(alpha),
                    overrides: vec![
                        Override::Noise(NoiseSpec::CorrelatedSimilar {
                            similarity: alpha,
                            noise_variance: self.noise_variance,
                        }),
                        Override::SeedOffset((idx as u64) * 1_000),
                    ],
                })
                .collect(),
        };
        ScenarioGrid {
            base,
            axes: vec![similarity_axis, GridAxis::schemes(&self.schemes)],
        }
    }

    /// Regroups the grid's results into the Figure 4 series, sorted by
    /// increasing correlation dissimilarity (the paper's x-axis).
    pub fn series(&self, results: &[ScenarioResult]) -> ExperimentSeries {
        let mut series = series_from_results(
            "Figure 4: increasing the correlation dissimilarity of data and noise",
            "correlation dissimilarity",
            results,
        );
        series
            .points
            .sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap_or(std::cmp::Ordering::Equal));
        series
    }

    /// Runs the sweep and returns the Figure 4 series.
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
        let mut c = Experiment4::quick();
        c.similarity_levels.clear();
        assert!(c.run().is_err());
        let mut c = Experiment4::quick();
        c.similarity_levels = vec![2.0];
        assert!(c.run().is_err());
        let mut c = Experiment4::quick();
        c.noise_variance = 0.0;
        assert!(c.run().is_err());
        let mut c = Experiment4::quick();
        c.principal_components = c.attributes;
        assert!(c.run().is_err());
    }

    #[test]
    fn quick_run_reproduces_figure_4_shape() {
        let series = Experiment4::quick().run().unwrap();
        assert_eq!(series.points.len(), 3);

        // x values (dissimilarities) are sorted ascending and distinct:
        // alpha = 1 (similar) gives the smallest dissimilarity.
        assert!(series.points[0].x < series.points[1].x);
        assert!(series.points[1].x < series.points[2].x);

        // The defense works: PCA-DR and BE-DR have their *highest* error at the
        // most similar noise (smallest dissimilarity) and their lowest error at
        // the most dissimilar noise.
        for scheme in [SchemeKind::PcaDr, SchemeKind::BeDr] {
            let s = series.series_for(scheme);
            assert!(
                s.first().unwrap().1 > s.last().unwrap().1,
                "{scheme:?} error should decrease with dissimilarity: {s:?}"
            );
        }
    }
}
