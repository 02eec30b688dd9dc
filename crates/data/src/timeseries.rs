//! Serially-dependent (time-series) workloads.
//!
//! Section 3 of the paper lists **sample dependency** as a second factor that
//! can defeat randomization: for time-series data the samples themselves are
//! correlated (not just the attributes), so signal-processing style denoising
//! can strip the disguising noise. This module provides the workload side of
//! that factor — a first-order autoregressive (AR(1)) generator whose serial
//! correlation strength is a single, controllable parameter — so the temporal
//! attack in `randrecon-core` has something realistic to run against.

use crate::error::{DataError, Result};
use crate::table::DataTable;
use rand::Rng;
use randrecon_linalg::Matrix;
use randrecon_stats::rng::{seeded_rng, standard_normal};
use serde::{Deserialize, Serialize};

/// Parameters of a stationary AR(1) process
/// `x_t = mean + phi · (x_{t-1} − mean) + ε_t`, `ε_t ~ N(0, innovation_std²)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ar1Spec {
    /// Autoregressive coefficient; `|phi| < 1` for stationarity. Values close
    /// to 1 mean strong serial correlation (smooth series).
    pub phi: f64,
    /// Standard deviation of the innovations.
    pub innovation_std: f64,
    /// Long-run mean of the process.
    pub mean: f64,
}

impl Ar1Spec {
    /// Creates a spec, validating stationarity and positivity.
    pub fn new(phi: f64, innovation_std: f64, mean: f64) -> Result<Self> {
        if !(phi.abs() < 1.0 && phi.is_finite()) {
            return Err(DataError::InvalidWorkload {
                reason: format!("AR(1) coefficient must satisfy |phi| < 1, got {phi}"),
            });
        }
        if innovation_std <= 0.0 || !innovation_std.is_finite() || !mean.is_finite() {
            return Err(DataError::InvalidWorkload {
                reason: "innovation standard deviation must be positive and the mean finite"
                    .to_string(),
            });
        }
        Ok(Ar1Spec {
            phi,
            innovation_std,
            mean,
        })
    }

    /// Stationary (marginal) variance of the process:
    /// `innovation_std² / (1 − phi²)`.
    pub fn stationary_variance(&self) -> f64 {
        self.innovation_std * self.innovation_std / (1.0 - self.phi * self.phi)
    }

    /// Autocovariance at lag `k`: `stationary_variance · phi^k`.
    pub fn autocovariance(&self, lag: usize) -> f64 {
        self.stationary_variance() * self.phi.powi(lag as i32)
    }

    /// Generates a series of length `n`, started from the stationary
    /// distribution so the whole series is stationary.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Result<Vec<f64>> {
        if n < 2 {
            return Err(DataError::InvalidWorkload {
                reason: format!("need at least 2 samples, got {n}"),
            });
        }
        let mut out = Vec::with_capacity(n);
        let mut state = self.mean + self.stationary_variance().sqrt() * standard_normal(rng);
        out.push(state);
        for _ in 1..n {
            state = self.mean
                + self.phi * (state - self.mean)
                + self.innovation_std * standard_normal(rng);
            out.push(state);
        }
        Ok(out)
    }

    /// Generates `series` independent AR(1) columns of length `n` as a
    /// [`DataTable`] (each column is one sensor/time series; rows are time
    /// steps), seeded deterministically.
    pub fn generate_table(&self, n: usize, series: usize, seed: u64) -> Result<DataTable> {
        if series == 0 {
            return Err(DataError::InvalidWorkload {
                reason: "need at least one series".to_string(),
            });
        }
        let mut rng = seeded_rng(seed);
        let mut columns = Vec::with_capacity(series);
        for _ in 0..series {
            columns.push(self.generate(n, &mut rng)?);
        }
        let values = Matrix::from_columns(&columns)?;
        DataTable::from_matrix(values)
    }
}

/// Estimates the lag-1 autocorrelation of a series (used by the temporal
/// attack to recover the AR structure from the *disguised* series).
pub fn lag1_autocorrelation(series: &[f64]) -> f64 {
    if series.len() < 3 {
        return 0.0;
    }
    let mean: f64 = series.iter().sum::<f64>() / series.len() as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for t in 0..series.len() {
        let d = series[t] - mean;
        den += d * d;
        if t + 1 < series.len() {
            num += d * (series[t + 1] - mean);
        }
    }
    if den <= f64::EPSILON {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_stats::summary;

    #[test]
    fn spec_validation() {
        assert!(Ar1Spec::new(1.0, 1.0, 0.0).is_err());
        assert!(Ar1Spec::new(-1.2, 1.0, 0.0).is_err());
        assert!(Ar1Spec::new(0.5, 0.0, 0.0).is_err());
        assert!(Ar1Spec::new(0.5, 1.0, f64::NAN).is_err());
        assert!(Ar1Spec::new(0.9, 2.0, 10.0).is_ok());
    }

    #[test]
    fn stationary_moments_match_theory() {
        let spec = Ar1Spec::new(0.8, 3.0, 5.0).unwrap();
        assert!((spec.stationary_variance() - 9.0 / 0.36).abs() < 1e-9);
        let series = spec.generate(60_000, &mut seeded_rng(1)).unwrap();
        let mean = summary::mean(&series);
        let var = summary::variance(&series);
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
        assert!((var - spec.stationary_variance()).abs() / spec.stationary_variance() < 0.1);
        // Lag-1 autocorrelation is phi.
        let rho = lag1_autocorrelation(&series);
        assert!((rho - 0.8).abs() < 0.05, "rho {rho}");
    }

    #[test]
    fn autocovariance_decays_geometrically() {
        let spec = Ar1Spec::new(0.5, 1.0, 0.0).unwrap();
        let v = spec.stationary_variance();
        assert!((spec.autocovariance(0) - v).abs() < 1e-12);
        assert!((spec.autocovariance(2) - v * 0.25).abs() < 1e-12);
        assert!((spec.autocovariance(3) - v * 0.125).abs() < 1e-12);
    }

    #[test]
    fn sample_autocovariance_matches_theory_at_several_lags() {
        let spec = Ar1Spec::new(0.6, 1.0, 2.0).unwrap();
        let series = spec.generate(50_000, &mut seeded_rng(3)).unwrap();
        let mean = summary::mean(&series);
        for lag in 1..=4 {
            let pairs = series.len() - lag;
            let sample = (0..pairs)
                .map(|t| (series[t] - mean) * (series[t + lag] - mean))
                .sum::<f64>()
                / pairs as f64;
            let theory = spec.autocovariance(lag);
            assert!(
                (sample - theory).abs() < 0.06,
                "lag {lag}: sample {sample} vs theory {theory}"
            );
        }
    }

    #[test]
    fn table_columns_are_independent_series() {
        let spec = Ar1Spec::new(-0.7, 1.0, 0.0).unwrap();
        let t = spec.generate_table(20_000, 3, 11).unwrap();
        for j in 0..3 {
            let rho = lag1_autocorrelation(&t.column(j));
            assert!((rho + 0.7).abs() < 0.03, "series {j}: rho {rho}");
            for k in 0..j {
                let r = summary::correlation(&t.column(j), &t.column(k));
                assert!(r.abs() < 0.05, "series {k} and {j}: correlation {r}");
            }
        }
    }

    #[test]
    fn table_generation_shapes_and_determinism() {
        let spec = Ar1Spec::new(0.9, 1.0, 0.0).unwrap();
        let a = spec.generate_table(200, 3, 7).unwrap();
        let b = spec.generate_table(200, 3, 7).unwrap();
        assert_eq!(a.values().shape(), (200, 3));
        assert!(a.approx_eq(&b, 0.0));
        assert!(spec.generate_table(200, 0, 7).is_err());
        assert!(spec.generate(1, &mut seeded_rng(1)).is_err());
    }

    #[test]
    fn lag1_autocorrelation_edge_cases() {
        assert_eq!(lag1_autocorrelation(&[1.0, 2.0]), 0.0);
        assert_eq!(lag1_autocorrelation(&[3.0, 3.0, 3.0, 3.0]), 0.0);
        // A strictly increasing ramp is highly autocorrelated.
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(lag1_autocorrelation(&ramp) > 0.9);
    }
}
