//! Density estimation on a regular grid.
//!
//! Two estimators are provided:
//!
//! * [`HistogramDensity`] — a binned density (equal-width bins), the
//!   representation used by the Agrawal–Srikant reconstruction of the original
//!   distribution from disguised data.
//! * [`GaussianKde`] — a Gaussian kernel density estimate, used when a smooth
//!   prior is preferred for the univariate Bayes reconstruction.

use crate::error::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// A piecewise-constant density defined over equal-width bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramDensity {
    low: f64,
    width: f64,
    /// Probability **mass** per bin (sums to 1).
    masses: Vec<f64>,
}

impl HistogramDensity {
    /// Builds a histogram density from samples using `bins` equal-width bins
    /// spanning `[min, max]` of the data (slightly widened so the maximum falls
    /// inside the last bin).
    pub fn from_samples(samples: &[f64], bins: usize) -> Result<Self> {
        if samples.len() < 2 {
            return Err(StatsError::InsufficientData {
                got: samples.len(),
                needed: 2,
            });
        }
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                value: 0.0,
                requirement: "at least 1",
            });
        }
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(1e-12);
        let low = min;
        let width = span * (1.0 + 1e-9) / bins as f64;
        let mut counts = vec![0usize; bins];
        for &x in samples {
            let idx = (((x - low) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let n = samples.len() as f64;
        let masses = counts.iter().map(|&c| c as f64 / n).collect();
        Ok(HistogramDensity { low, width, masses })
    }

    /// Builds a histogram density directly from bin masses over `[low, low + width·k)`.
    ///
    /// The masses are renormalized to sum to 1.
    pub fn from_masses(low: f64, width: f64, masses: Vec<f64>) -> Result<Self> {
        if masses.is_empty() {
            return Err(StatsError::InvalidParameter {
                name: "masses.len()",
                value: 0.0,
                requirement: "non-empty",
            });
        }
        if !(width > 0.0 && width.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "width",
                value: width,
                requirement: "positive and finite",
            });
        }
        let total: f64 = masses.iter().sum();
        if total <= 0.0 || masses.iter().any(|&m| m < 0.0 || !m.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "masses",
                value: total,
                requirement: "non-negative with positive sum",
            });
        }
        let masses = masses.iter().map(|&m| m / total).collect();
        Ok(HistogramDensity { low, width, masses })
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.masses.len()
    }

    /// Left edge of the support.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Right edge of the support.
    pub fn high(&self) -> f64 {
        self.low + self.width * self.masses.len() as f64
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Probability masses per bin (sum to 1).
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Centers of each bin.
    pub fn centers(&self) -> Vec<f64> {
        (0..self.masses.len())
            .map(|i| self.low + (i as f64 + 0.5) * self.width)
            .collect()
    }

    /// Density (not mass) at `x`; zero outside the support.
    pub fn pdf(&self, x: f64) -> f64 {
        if x < self.low || x >= self.high() {
            return 0.0;
        }
        let idx = (((x - self.low) / self.width) as usize).min(self.masses.len() - 1);
        self.masses[idx] / self.width
    }

    /// Mean of the density (using bin centers).
    pub fn mean(&self) -> f64 {
        self.centers()
            .iter()
            .zip(self.masses.iter())
            .map(|(&c, &m)| c * m)
            .sum()
    }

    /// Variance of the density (using bin centers).
    pub fn variance(&self) -> f64 {
        let mu = self.mean();
        self.centers()
            .iter()
            .zip(self.masses.iter())
            .map(|(&c, &m)| m * (c - mu) * (c - mu))
            .sum()
    }
}

/// Gaussian kernel density estimate with a fixed bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianKde {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl GaussianKde {
    /// Builds a KDE with Silverman's rule-of-thumb bandwidth
    /// `h = 1.06 · σ̂ · n^(-1/5)`.
    pub fn from_samples(samples: &[f64]) -> Result<Self> {
        if samples.len() < 2 {
            return Err(StatsError::InsufficientData {
                got: samples.len(),
                needed: 2,
            });
        }
        let sd = crate::summary::std_dev(samples).max(1e-9);
        let bandwidth = 1.06 * sd * (samples.len() as f64).powf(-0.2);
        Ok(GaussianKde {
            samples: samples.to_vec(),
            bandwidth,
        })
    }

    /// Bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density estimate at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let norm = 1.0
            / (self.samples.len() as f64 * self.bandwidth * (2.0 * std::f64::consts::PI).sqrt());
        self.samples
            .iter()
            .map(|&s| {
                let z = (x - s) / self.bandwidth;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{ContinuousDistribution, Normal};
    use crate::rng::seeded_rng;

    #[test]
    fn histogram_masses_sum_to_one() {
        let samples: Vec<f64> = (0..1_000).map(|i| (i % 100) as f64).collect();
        let h = HistogramDensity::from_samples(&samples, 20).unwrap();
        assert_eq!(h.bins(), 20);
        assert!((h.masses().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // PDF integrates to ~1.
        let integral: f64 = h.centers().iter().map(|&c| h.pdf(c) * h.width()).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_pdf_outside_support_is_zero() {
        let samples = vec![0.0, 1.0, 2.0, 3.0];
        let h = HistogramDensity::from_samples(&samples, 4).unwrap();
        assert_eq!(h.pdf(-1.0), 0.0);
        assert_eq!(h.pdf(100.0), 0.0);
        assert!(h.pdf(1.5) > 0.0);
    }

    #[test]
    fn histogram_mean_variance_approximate_sample_moments() {
        let normal = Normal::new(5.0, 2.0).unwrap();
        let mut rng = seeded_rng(3);
        let samples = normal.sample_vec(30_000, &mut rng);
        let h = HistogramDensity::from_samples(&samples, 200).unwrap();
        assert!((h.mean() - 5.0).abs() < 0.1);
        assert!((h.variance() - 4.0).abs() < 0.2);
    }

    #[test]
    fn histogram_from_masses_renormalizes() {
        let h = HistogramDensity::from_masses(0.0, 1.0, vec![2.0, 2.0, 4.0]).unwrap();
        assert!((h.masses()[2] - 0.5).abs() < 1e-12);
        assert_eq!(h.high(), 3.0);
        assert_eq!(h.centers(), vec![0.5, 1.5, 2.5]);
        assert!(HistogramDensity::from_masses(0.0, 1.0, vec![]).is_err());
        assert!(HistogramDensity::from_masses(0.0, 0.0, vec![1.0]).is_err());
        assert!(HistogramDensity::from_masses(0.0, 1.0, vec![-1.0, 2.0]).is_err());
    }

    #[test]
    fn histogram_rejects_degenerate_inputs() {
        assert!(HistogramDensity::from_samples(&[1.0], 4).is_err());
        assert!(HistogramDensity::from_samples(&[1.0, 2.0], 0).is_err());
    }

    #[test]
    fn kde_bandwidth_follows_silvermans_rule() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let kde = GaussianKde::from_samples(&samples).unwrap();
        let want = 1.06 * 2.5_f64.sqrt() * 5.0_f64.powf(-0.2);
        assert!((kde.bandwidth() - want).abs() < 1e-12);
        // Constant data keeps a positive (floored) bandwidth and a finite pdf.
        let flat = GaussianKde::from_samples(&[4.0; 8]).unwrap();
        assert!(flat.bandwidth() > 0.0);
        assert!(flat.pdf(4.0).is_finite());
    }

    #[test]
    fn kde_is_the_average_of_gaussian_kernels() {
        let samples = [-1.0, 0.5, 0.5, 3.0];
        let kde = GaussianKde::from_samples(&samples).unwrap();
        let h = kde.bandwidth();
        for x in [-2.0, 0.0, 0.5, 1.7, 6.0] {
            let want = samples
                .iter()
                .map(|&s| Normal::new(s, h).unwrap().pdf(x))
                .sum::<f64>()
                / samples.len() as f64;
            assert!((kde.pdf(x) - want).abs() < 1e-14, "x = {x}");
        }
    }

    #[test]
    fn kde_pdf_integrates_to_one() {
        let samples = [-3.0, -1.0, 0.0, 0.2, 4.0];
        let kde = GaussianKde::from_samples(&samples).unwrap();
        let h = kde.bandwidth();
        // Trapezoid rule over the samples' range widened by 12 bandwidths.
        let (a, b, steps) = (-3.0 - 12.0 * h, 4.0 + 12.0 * h, 10_000);
        let step = (b - a) / steps as f64;
        let interior: f64 = (1..steps).map(|i| kde.pdf(a + i as f64 * step)).sum();
        let integral = (0.5 * (kde.pdf(a) + kde.pdf(b)) + interior) * step;
        assert!((integral - 1.0).abs() < 1e-9, "integral = {integral}");
    }

    #[test]
    fn kde_approximates_normal_density() {
        let normal = Normal::standard();
        let mut rng = seeded_rng(17);
        let samples = normal.sample_vec(5_000, &mut rng);
        let kde = GaussianKde::from_samples(&samples).unwrap();
        assert!((kde.pdf(0.0) - normal.pdf(0.0)).abs() < 0.05);
        assert!((kde.pdf(1.0) - normal.pdf(1.0)).abs() < 0.05);
        assert!(kde.pdf(8.0) < 0.01);
        assert!(kde.bandwidth() > 0.0);
        assert!(GaussianKde::from_samples(&[0.0]).is_err());
    }
}
