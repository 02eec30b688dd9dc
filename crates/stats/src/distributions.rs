//! Univariate continuous distributions.
//!
//! The randomization schemes in the paper draw additive noise from zero-mean
//! Gaussian or uniform distributions; the UDR attack needs their densities to
//! evaluate the posterior `P(X | Y)`. Both are implemented here behind the
//! [`ContinuousDistribution`] trait.

use crate::error::{Result, StatsError};
use crate::rng::standard_normal;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A continuous univariate distribution that can be sampled and whose density
/// can be evaluated pointwise.
pub trait ContinuousDistribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Mean of the distribution.
    fn mean(&self) -> f64;
    /// Variance of the distribution.
    fn variance(&self) -> f64;
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Standard deviation (square root of the variance).
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Draws `n` samples into a vector.
    fn sample_vec<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Gaussian distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution; `mean` must be finite and `std_dev`
    /// positive and finite. The error names the parameter at fault.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                requirement: "finite",
            });
        }
        if !(std_dev > 0.0 && std_dev.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "std_dev",
                value: std_dev,
                requirement: "positive and finite",
            });
        }
        Ok(Normal { mean, std_dev })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
    }

    /// Mean parameter.
    pub fn mu(&self) -> f64 {
        self.mean
    }

    /// Standard-deviation parameter.
    pub fn sigma(&self) -> f64 {
        self.std_dev
    }
}

impl ContinuousDistribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Uniform distribution on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Creates a uniform distribution; requires `low < high` and both finite.
    pub fn new(low: f64, high: f64) -> Result<Self> {
        if !(low < high && low.is_finite() && high.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "high - low",
                value: high - low,
                requirement: "positive (low < high, both finite)",
            });
        }
        Ok(Uniform { low, high })
    }

    /// A zero-mean uniform with the requested standard deviation
    /// (half-width = σ·√3), matching how the paper parameterizes uniform noise
    /// by its variance.
    pub fn centered_with_std(std_dev: f64) -> Result<Self> {
        if !(std_dev > 0.0 && std_dev.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "std_dev",
                value: std_dev,
                requirement: "positive and finite",
            });
        }
        let half_width = std_dev * 3.0_f64.sqrt();
        Uniform::new(-half_width, half_width)
    }

    /// Lower bound.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper bound.
    pub fn high(&self) -> f64 {
        self.high
    }
}

impl ContinuousDistribution for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x >= self.low && x < self.high {
            1.0 / (self.high - self.low)
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.low {
            0.0
        } else if x >= self.high {
            1.0
        } else {
            (x - self.low) / (self.high - self.low)
        }
    }

    fn mean(&self) -> f64 {
        0.5 * (self.low + self.high)
    }

    fn variance(&self) -> f64 {
        let w = self.high - self.low;
        w * w / 12.0
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.low + (self.high - self.low) * rng.gen::<f64>()
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, max abs error 1.5e-7).
///
/// Sufficient for the CDF evaluations in tests and the privacy-breach metrics;
/// none of the reconstruction math depends on erf precision.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let a1 = 0.254829592;
    let a2 = -0.284496736;
    let a3 = 1.421413741;
    let a4 = -1.453152027;
    let a5 = 1.061405429;
    let p = 0.3275911;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn normal_pdf_peak_and_symmetry() {
        let n = Normal::new(0.0, 1.0).unwrap();
        assert!((n.pdf(0.0) - 0.3989422804).abs() < 1e-8);
        assert!((n.pdf(1.5) - n.pdf(-1.5)).abs() < 1e-12);
        assert_eq!(n.mean(), 0.0);
        assert_eq!(n.variance(), 1.0);
        assert_eq!(n.std_dev(), 1.0);
    }

    #[test]
    fn normal_cdf_known_values() {
        let n = Normal::standard();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((n.cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((n.cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    /// Composite trapezoid rule for `f` over `[a, b]` in `steps` intervals.
    fn trapezoid(f: impl Fn(f64) -> f64, a: f64, b: f64, steps: usize) -> f64 {
        let h = (b - a) / steps as f64;
        let interior: f64 = (1..steps).map(|i| f(a + i as f64 * h)).sum();
        (0.5 * (f(a) + f(b)) + interior) * h
    }

    #[test]
    fn normal_pdf_integrates_to_one() {
        // μ ± 10σ leaves ~1e-23 of mass outside.
        let n = Normal::new(3.0, 2.0).unwrap();
        let integral = trapezoid(|x| n.pdf(x), 3.0 - 20.0, 3.0 + 20.0, 8_000);
        assert!((integral - 1.0).abs() < 1e-9, "integral = {integral}");
    }

    #[test]
    fn normal_cdf_differences_are_integrals_of_the_pdf() {
        // Tolerance covers the A&S erf error (≤ 1.5e-7 per CDF value) and
        // the trapezoid error (≲ 5e-8 at this step count).
        let n = Normal::new(-1.0, 0.5).unwrap();
        for (lo, hi) in [(-2.0, -1.0), (-1.3, 0.4), (-0.9, -0.2), (-4.0, 2.0)] {
            let integral = trapezoid(|x| n.pdf(x), lo, hi, 4_000);
            let by_cdf = n.cdf(hi) - n.cdf(lo);
            assert!(
                (integral - by_cdf).abs() < 1e-6,
                "[{lo}, {hi}]: {integral} vs {by_cdf}"
            );
        }
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        // The error names the parameter at fault.
        for (mean, std_dev, name) in [
            (f64::NAN, 1.0, "mean"),
            (f64::INFINITY, 1.0, "mean"),
            (0.0, f64::NAN, "std_dev"),
        ] {
            assert!(
                matches!(
                    Normal::new(mean, std_dev),
                    Err(StatsError::InvalidParameter { name: n, .. }) if n == name
                ),
                "N({mean}, {std_dev})"
            );
        }
    }

    #[test]
    fn normal_sampling_moments() {
        let n = Normal::new(3.0, 2.0).unwrap();
        let mut rng = seeded_rng(99);
        let xs = n.sample_vec(40_000, &mut rng);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((mean - 3.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn uniform_pdf_cdf() {
        let u = Uniform::new(-2.0, 2.0).unwrap();
        assert_eq!(u.pdf(0.0), 0.25);
        assert_eq!(u.pdf(3.0), 0.0);
        assert_eq!(u.cdf(-3.0), 0.0);
        assert_eq!(u.cdf(0.0), 0.5);
        assert_eq!(u.cdf(5.0), 1.0);
        assert_eq!(u.mean(), 0.0);
        assert!((u.variance() - 16.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_centered_with_std_matches_requested_variance() {
        let u = Uniform::centered_with_std(2.0).unwrap();
        assert!((u.variance() - 4.0).abs() < 1e-12);
        assert_eq!(u.mean(), 0.0);
        assert!(Uniform::centered_with_std(0.0).is_err());
    }

    #[test]
    fn uniform_rejects_bad_bounds() {
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn uniform_samples_stay_in_range() {
        let u = Uniform::new(-1.0, 1.0).unwrap();
        let mut rng = seeded_rng(11);
        for _ in 0..1_000 {
            let x = u.sample(&mut rng);
            assert!((-1.0..1.0).contains(&x));
        }
    }

    #[test]
    fn erf_known_values() {
        // The A&S 7.1.26 approximation has max absolute error ~1.5e-7.
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-5);
        assert!((erf(3.0) - 0.9999779).abs() < 1e-5);
    }
}
