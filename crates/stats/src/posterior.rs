//! Univariate posterior expectation `E[X | Y = y]`.
//!
//! Theorem 4.1 of the paper shows that the mean-square-error-optimal guess for
//! a single disguised value is the posterior mean
//!
//! ```text
//! E[X | Y = y] = ∫ x f_X(x) f_R(y − x) dx / ∫ f_X(x) f_R(y − x) dx
//! ```
//!
//! This module evaluates that expectation in two ways: a closed form when both
//! the prior and the noise are Gaussian, and a grid quadrature against an
//! arbitrary prior density (e.g. the Agrawal–Srikant reconstructed histogram).
//! [`PreparedPosterior`] is what UDR runs, bit for bit equal to
//! [`grid_posterior_mean`], which stays as the pinned reference.
//!
//! Under uniform noise the posterior is the prior conditioned on the window
//! event `|y − x| ≤ √3·σr`, so a value's answer depends only on which grid
//! points fall inside its noise window. [`UniformNoiseQuadrature`] therefore
//! folds every window the grid geometry admits once per attribute and
//! answers each value by locating its window and reading the table. Three
//! things keep the reference's bits:
//!
//! * **Same products.** The table folds `w_i = (w_trap,i · prior(x_i)) ·
//!   density` and `x_i · w_i`, the products the reference forms per point.
//! * **Same fold order.** Each window's sums start at +0 and add its points
//!   in ascending index, as the reference's loop adds them; the points it
//!   adds outside the window are ±0 and leave its sums unchanged.
//! * **The predicate decides every boundary.** A value's window is located
//!   by an arithmetic guess, but the guess is only a starting point: it is
//!   walked to the exact boundary with [`Uniform::pdf`]'s own tests, so
//!   rounding in the guess can cost a step, never a point.
//!
//! A window the table does not hold (clipped at a grid end, of an
//! unexpected length, or without posterior mass) is folded directly, which
//! also raises the reference's [`StatsError::ZeroPosteriorMass`].

use crate::density::HistogramDensity;
use crate::distributions::{ContinuousDistribution, Normal, Uniform};
use crate::error::{Result, StatsError};
use std::ops::Range;

/// Posterior mean when `X ~ N(mean_x, var_x)` and `R ~ N(0, var_r)`:
///
/// `E[X | Y = y] = μ_x + var_x / (var_x + var_r) · (y − μ_x)`
///
/// This is the textbook shrinkage estimator; UDR reduces to it for Gaussian
/// data with Gaussian noise.
pub fn gaussian_posterior_mean(y: f64, mean_x: f64, var_x: f64, var_r: f64) -> Result<f64> {
    if var_x < 0.0 || !var_x.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "var_x",
            value: var_x,
            requirement: "non-negative and finite",
        });
    }
    if var_r <= 0.0 || !var_r.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "var_r",
            value: var_r,
            requirement: "positive and finite",
        });
    }
    Ok(mean_x + var_x / (var_x + var_r) * (y - mean_x))
}

/// Posterior mean with an arbitrary prior density given as a histogram and an
/// arbitrary noise distribution, evaluated by summing over bin centers.
pub fn histogram_posterior_mean<D: ContinuousDistribution>(
    y: f64,
    prior: &HistogramDensity,
    noise: &D,
) -> f64 {
    let centers = prior.centers();
    let masses = prior.masses();
    let mut num = 0.0;
    let mut den = 0.0;
    for (&c, &m) in centers.iter().zip(masses.iter()) {
        let w = m * noise.pdf(y - c);
        num += c * w;
        den += w;
    }
    if den <= f64::MIN_POSITIVE {
        // Degenerate posterior (y far outside the prior's support convolved
        // with the noise): fall back to the prior mean, the best blind guess.
        prior.mean()
    } else {
        num / den
    }
}

/// Posterior mean with an arbitrary callable prior density, integrated on a
/// uniform grid of `grid_points` points over `[low, high]`.
pub fn grid_posterior_mean<D, F>(
    y: f64,
    prior_pdf: F,
    noise: &D,
    low: f64,
    high: f64,
    grid_points: usize,
) -> Result<f64>
where
    D: ContinuousDistribution,
    F: Fn(f64) -> f64,
{
    check_grid(low, high, grid_points)?;
    let h = (high - low) / (grid_points - 1) as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..grid_points {
        let x = low + i as f64 * h;
        // Trapezoid end-point weights.
        let w_trap = if i == 0 || i == grid_points - 1 {
            0.5
        } else {
            1.0
        };
        let w = w_trap * prior_pdf(x) * noise.pdf(y - x);
        num += x * w;
        den += w;
    }
    if den <= f64::MIN_POSITIVE {
        return Err(StatsError::ZeroPosteriorMass {
            value: y,
            low,
            high,
            spacing: h,
            noise_window: None,
        });
    }
    Ok(num / den)
}

/// Rejects a grid [`grid_posterior_mean`] cannot integrate on.
fn check_grid(low: f64, high: f64, grid_points: usize) -> Result<()> {
    if high.is_nan() || low.is_nan() || high <= low || grid_points < 2 {
        return Err(StatsError::InvalidParameter {
            name: "grid",
            value: grid_points as f64,
            requirement: "high > low and at least 2 grid points",
        });
    }
    Ok(())
}

/// Points of the UDR quadrature grid, spread over ±6 combined standard
/// deviations: the tolerance-pinned configuration.
const UDR_GRID_POINTS: usize = 600;

/// The Gaussian-moments prior variance of an attribute, Theorem 5.1 on the
/// diagonal: `var(Y) − σ²_r`, clamped at zero, since a non-positive
/// estimate means the attribute is pure noise. A NaN stays NaN (where
/// `f64::max` would turn it into 0), so [`PreparedPosterior::gaussian_moments`]
/// refuses it instead of answering the prior mean for every value.
pub fn prior_variance(disguised_variance: f64, noise_variance: f64) -> f64 {
    let var_x = disguised_variance - noise_variance;
    if var_x.is_nan() {
        var_x
    } else {
        var_x.max(0.0)
    }
}

/// [`grid_posterior_mean`] for a fixed prior under uniform noise, answered
/// per value in constant time from a table of window means.
///
/// **Why a table.** The uniform density is nonzero only where
/// `lo ≤ y − x_i < hi`, and because `y − x_i` never rises with `i`, those
/// grid points form one contiguous index window `[start, end)`. The
/// reference adds, at every point outside it, a prior weight (finite,
/// non-negative) times the density 0: a `w` of +0 and an `x · w` of ±0.
/// Both sums start at +0 and, rounding to nearest, never become −0, so
/// those terms leave them as they are, and the answer is the ascending fold
/// of the window alone. It depends on `y` only through `(start, end)`.
///
/// **Preparation** tabulates `w_i = (w_trap,i · prior.pdf(x_i)) · density`
/// and `x_i · w_i`, exactly the products the reference forms (its
/// `w_trap * prior_pdf(x) * noise.pdf(y − x)` evaluates left to right).
/// Then, for every start `s` and every window length `ℓ` the geometry
/// admits, `⌊W/h⌋ − 2 … ⌈W/h⌉ + 2` for the noise width `W = hi − lo` and
/// the spacing `h`, it folds `[s, s + ℓ)` from +0 in ascending index, as
/// the reference does, and stores the mean, or NaN where the window has no
/// posterior mass.
///
/// **Per value**, `end` and then `start` are each guessed as
/// `⌊(y − bound − low)/h⌋ + 1` and walked to the exact partition point with
/// [`Uniform::pdf`]'s own tests (`y − x ≥ lo`, then `y − x ≥ hi`), so a
/// rounded guess costs a step, never a point. A NaN or ±∞ value passes the
/// `lo` test nowhere or everywhere, so its window is empty. The window's
/// mean is then read from the table. A window the table does not hold (a
/// length outside it, which a clipped window at a grid end or a grid whose
/// abscissae repeat can have, or a NaN entry) is folded directly, which
/// raises the reference's zero-mass error where there is no mass.
#[derive(Debug, Clone)]
pub struct UniformNoiseQuadrature {
    /// Grid abscissae `x_i = low + i·h`.
    abscissae: Vec<f64>,
    /// Posterior weights `w_i = (w_trap,i · prior.pdf(x_i)) · density`.
    weights: Vec<f64>,
    /// Weighted abscissae `x_i · w_i`.
    weighted_abscissae: Vec<f64>,
    /// The mean of window `[s, s + ℓ)` at `s · lengths + (ℓ − min_len)`,
    /// NaN where the window has no posterior mass or runs past the grid.
    window_means: Vec<f64>,
    /// Shortest tabulated window length.
    min_len: usize,
    /// Number of tabulated window lengths (0 for a grid that fails
    /// [`check_grid`]).
    lengths: usize,
    /// `1/h`, for the guessed window boundaries.
    inverse_spacing: f64,
    /// The uniform noise; its support `[lo, hi)` is the window.
    noise: Uniform,
    /// Lower integration bound.
    low: f64,
    /// Upper integration bound.
    high: f64,
}

impl UniformNoiseQuadrature {
    /// Tabulates the grid of `grid_points` points over `[low, high]` for
    /// the prior `prior`, and the mean of every admitted window.
    fn new(prior: &Normal, noise: Uniform, low: f64, high: f64, grid_points: usize) -> Self {
        let h = (high - low) / (grid_points - 1) as f64;
        let density = noise.pdf(noise.mean());
        let abscissae: Vec<f64> = (0..grid_points).map(|i| low + i as f64 * h).collect();
        let weights: Vec<f64> = abscissae
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let w_trap = if i == 0 || i == grid_points - 1 {
                    0.5
                } else {
                    1.0
                };
                w_trap * prior.pdf(x) * density
            })
            .collect();
        let weighted_abscissae: Vec<f64> = abscissae
            .iter()
            .zip(&weights)
            .map(|(&x, &w)| x * w)
            .collect();
        let inverse_spacing = 1.0 / h;
        let (min_len, lengths) = if check_grid(low, high, grid_points).is_ok() {
            // `as` saturates, so a spacing that underflows cannot wrap.
            let ratio = (noise.high() - noise.low()) * inverse_spacing;
            let min_len = (ratio.floor() as usize).saturating_sub(2).max(1);
            let max_len = (ratio.ceil() as usize).saturating_add(2).min(grid_points);
            (min_len, (max_len + 1).saturating_sub(min_len))
        } else {
            (1, 0)
        };
        let mut window_means = vec![f64::NAN; grid_points * lengths];
        if lengths > 0 {
            for (start, means) in window_means.chunks_exact_mut(lengths).enumerate() {
                let end = grid_points.min(start + min_len + lengths - 1);
                let mut num = 0.0;
                let mut den = 0.0;
                for (len, i) in (1..).zip(start..end) {
                    num += weighted_abscissae[i];
                    den += weights[i];
                    if len >= min_len && den > f64::MIN_POSITIVE {
                        means[len - min_len] = num / den;
                    }
                }
            }
        }
        UniformNoiseQuadrature {
            abscissae,
            weights,
            weighted_abscissae,
            window_means,
            min_len,
            lengths,
            inverse_spacing,
            noise,
            low,
            high,
        }
    }

    /// `E[X | Y = y]`, equal bit for bit to [`grid_posterior_mean`] over
    /// the same prior, noise and grid, errors included.
    fn posterior_mean(&self, y: f64) -> Result<f64> {
        // A grid that rounds to a point (`high <= low` at a huge mean)
        // fails every value, as it does in the reference.
        check_grid(self.low, self.high, self.abscissae.len())?;
        let window = self.window(y);
        match self.table_entry(window.clone()) {
            Some(mean) => Ok(mean),
            None => self.fold(y, window),
        }
    }

    /// The posterior mean of `y` read from the window table, or `None`
    /// when the table does not hold `y`'s window and the value is folded
    /// directly. Where it is `Some`, it is what [`PreparedPosterior::apply`]
    /// answers.
    pub fn tabulated_mean(&self, y: f64) -> Option<f64> {
        self.table_entry(self.window(y))
    }

    /// The index window where [`Uniform::pdf`] of `y − x_i` is nonzero.
    fn window(&self, y: f64) -> Range<usize> {
        let (lo, hi) = (self.noise.low(), self.noise.high());
        // `Uniform::pdf` is nonzero where `lo <= y - x < hi`. Every `y - x`
        // before `end` passes `>= lo`, so none is NaN and `>= hi` there is
        // exactly "fails `< hi`".
        let end = self.partition_point(y, lo, self.abscissae.len());
        let start = self.partition_point(y, hi, end);
        start..end
    }

    /// The first index below `limit` whose `y − x_i ≥ bound` fails, or
    /// `limit`: the partition point of that nonincreasing test. The guess
    /// `⌊(y − bound − low)/h⌋ + 1`, clamped to `0..=limit`, is walked down
    /// while the point before it fails and up while the point at it passes.
    fn partition_point(&self, y: f64, bound: f64, limit: usize) -> usize {
        let passes = |i: usize| y - self.abscissae[i] >= bound;
        // `as` truncates, which is the floor wherever the guess is not
        // clamped to 0, and sends NaN to 0 and +∞ to `usize::MAX`.
        let guess = (y - bound - self.low) * self.inverse_spacing + 1.0;
        let mut i = (guess as usize).min(limit);
        while i > 0 && !passes(i - 1) {
            i -= 1;
        }
        while i < limit && passes(i) {
            i += 1;
        }
        i
    }

    /// The tabulated mean of `window`, if the table holds a finite-mass
    /// entry for it.
    fn table_entry(&self, window: Range<usize>) -> Option<f64> {
        let offset = window.len().wrapping_sub(self.min_len);
        if offset >= self.lengths {
            return None;
        }
        let mean = self.window_means[window.start * self.lengths + offset];
        (!mean.is_nan()).then_some(mean)
    }

    /// The reference's fold over `window` alone, in ascending index.
    fn fold(&self, y: f64, window: Range<usize>) -> Result<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for (&xw, &w) in self.weighted_abscissae[window.clone()]
            .iter()
            .zip(&self.weights[window])
        {
            num += xw;
            den += w;
        }
        if den <= f64::MIN_POSITIVE {
            return Err(StatsError::ZeroPosteriorMass {
                value: y,
                low: self.low,
                high: self.high,
                spacing: (self.high - self.low) / (self.abscissae.len() - 1) as f64,
                noise_window: Some(self.noise.high() - self.noise.low()),
            });
        }
        Ok(num / den)
    }
}

/// A per-attribute posterior-mean estimator **prepared once** from moment
/// estimates and applied value by value afterwards.
///
/// UDR evaluates `E[X | Y = y]` for every cell of an attribute. The
/// Gaussian-moments prior needs only the attribute's mean and variance, so
/// the estimator can be constructed from streamed marginal moments and then
/// mapped over record chunks independently — which is exactly what the
/// streaming attack engine's "prepare once, map chunks" contract requires.
/// The in-memory UDR builds the same object from column statistics, so both
/// paths share one evaluation kernel. Preparation does everything that does
/// not depend on the value: the shrinkage gain, or the quadrature grid and
/// its prior weights.
#[derive(Debug, Clone)]
pub enum PreparedPosterior {
    /// Gaussian prior and Gaussian noise: the closed-form shrinkage
    /// estimator of [`gaussian_posterior_mean`] with the gain
    /// `var_x / (var_x + var_r)` precomputed at preparation time — the
    /// per-value evaluation is a single fused shrink with no validation or
    /// division left in the hot loop.
    GaussianShrinkage {
        /// Prior (= estimated attribute) mean.
        mean: f64,
        /// Shrinkage gain `var_x / (var_x + var_r)`.
        gain: f64,
    },
    /// Degenerate prior (the attribute is pure noise): always answer the
    /// prior mean.
    PriorMean(f64),
    /// Gaussian prior with non-Gaussian (uniform) noise: trapezoid
    /// quadrature of the posterior on a tabulated grid, summed only inside
    /// each value's noise window and bit-identical to
    /// [`grid_posterior_mean`] (see [`UniformNoiseQuadrature`]).
    Quadrature(UniformNoiseQuadrature),
}

impl PreparedPosterior {
    /// Builds the estimator from Gaussian-moments prior estimates: the
    /// attribute mean `mean_x`, the prior variance `var_x` (already
    /// noise-corrected and clamped at zero, see [`prior_variance`]) and the
    /// noise variance `var_r`.
    ///
    /// `gaussian_noise` selects the closed-form shrinkage path; otherwise
    /// the noise is treated as uniform with the same variance and the
    /// posterior is a grid quadrature (600 points over ±6 combined standard
    /// deviations, the tolerance-pinned UDR configuration) whose grid,
    /// weights and window means are tabulated here, once per attribute;
    /// `apply` then locates the value's noise window and reads its mean.
    ///
    /// A non-finite `mean_x` or `var_x` (an attribute holding a NaN or ±∞)
    /// is refused here: every path would otherwise answer NaN for every
    /// value of the attribute.
    pub fn gaussian_moments(
        mean_x: f64,
        var_x: f64,
        var_r: f64,
        gaussian_noise: bool,
    ) -> Result<Self> {
        if !mean_x.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean_x",
                value: mean_x,
                requirement: "finite",
            });
        }
        if !var_x.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "var_x",
                value: var_x,
                requirement: "non-negative and finite",
            });
        }
        if gaussian_noise {
            // Validate once here so `apply` cannot fail on this path.
            gaussian_posterior_mean(mean_x, mean_x, var_x, var_r)?;
            Ok(PreparedPosterior::GaussianShrinkage {
                mean: mean_x,
                gain: var_x / (var_x + var_r),
            })
        } else if var_x <= 0.0 {
            Ok(PreparedPosterior::PriorMean(mean_x))
        } else {
            let sigma_r = var_r.sqrt();
            let prior = Normal::new(mean_x, var_x.sqrt())?;
            let noise = Uniform::centered_with_std(sigma_r)?;
            let span = 6.0 * (var_x.sqrt() + sigma_r);
            Ok(PreparedPosterior::Quadrature(UniformNoiseQuadrature::new(
                &prior,
                noise,
                mean_x - span,
                mean_x + span,
                UDR_GRID_POINTS,
            )))
        }
    }

    /// Evaluates `E[X | Y = y]` for one disguised value.
    pub fn apply(&self, y: f64) -> Result<f64> {
        match self {
            // Same operation order as `gaussian_posterior_mean` (gain first,
            // then shrink), so the results are bit-identical to the
            // per-value closed form.
            PreparedPosterior::GaussianShrinkage { mean, gain } => Ok(mean + gain * (y - mean)),
            PreparedPosterior::PriorMean(mean) => Ok(*mean),
            PreparedPosterior::Quadrature(quadrature) => quadrature.posterior_mean(y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::Normal;

    #[test]
    fn gaussian_posterior_shrinks_toward_prior_mean() {
        // Equal variances: posterior mean is halfway between y and the prior mean.
        let est = gaussian_posterior_mean(10.0, 0.0, 4.0, 4.0).unwrap();
        assert!((est - 5.0).abs() < 1e-12);
        // Tiny noise: estimate ~ y.
        let est = gaussian_posterior_mean(10.0, 0.0, 4.0, 1e-9).unwrap();
        assert!((est - 10.0).abs() < 1e-6);
        // Huge noise: estimate ~ prior mean.
        let est = gaussian_posterior_mean(10.0, 2.0, 4.0, 1e9).unwrap();
        assert!((est - 2.0).abs() < 1e-6);
    }

    #[test]
    fn gaussian_posterior_rejects_bad_variances() {
        assert!(gaussian_posterior_mean(0.0, 0.0, -1.0, 1.0).is_err());
        assert!(gaussian_posterior_mean(0.0, 0.0, 1.0, 0.0).is_err());
        assert!(gaussian_posterior_mean(0.0, 0.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn histogram_posterior_matches_gaussian_closed_form() {
        // Build a fine histogram of N(0, 4) and check the posterior mean against
        // the analytic shrinkage formula for several observations.
        let prior_normal = Normal::new(0.0, 2.0).unwrap();
        let bins = 400;
        let low = -10.0;
        let width = 20.0 / bins as f64;
        let masses: Vec<f64> = (0..bins)
            .map(|i| {
                let c = low + (i as f64 + 0.5) * width;
                prior_normal.pdf(c) * width
            })
            .collect();
        let prior = HistogramDensity::from_masses(low, width, masses).unwrap();
        let noise = Normal::new(0.0, 1.0).unwrap();
        for &y in &[-3.0, -1.0, 0.0, 0.5, 2.5] {
            let grid = histogram_posterior_mean(y, &prior, &noise);
            let exact = gaussian_posterior_mean(y, 0.0, 4.0, 1.0).unwrap();
            assert!(
                (grid - exact).abs() < 0.02,
                "y={y}: grid={grid} exact={exact}"
            );
        }
    }

    #[test]
    fn histogram_posterior_far_outside_support_falls_back_to_prior_mean() {
        let prior = HistogramDensity::from_masses(0.0, 1.0, vec![1.0, 1.0]).unwrap();
        let noise = Normal::new(0.0, 0.1).unwrap();
        let est = histogram_posterior_mean(1e6, &prior, &noise);
        assert!((est - prior.mean()).abs() < 1e-9);
    }

    #[test]
    fn grid_posterior_matches_closed_form() {
        let prior_normal = Normal::new(1.0, 3.0).unwrap();
        let noise = Normal::new(0.0, 2.0).unwrap();
        let y = 4.0;
        let grid =
            grid_posterior_mean(y, |x| prior_normal.pdf(x), &noise, -20.0, 20.0, 2_000).unwrap();
        let exact = gaussian_posterior_mean(y, 1.0, 9.0, 4.0).unwrap();
        assert!((grid - exact).abs() < 1e-3);
    }

    #[test]
    fn grid_posterior_weights_the_grid_ends_by_one_half() {
        // Prior f(x) = 2x on [0, 1] and noise flat over the grid: the
        // posterior mean is ∫x·2x dx / ∫2x dx = 2/3. The trapezoid rule
        // integrates the denominator exactly and the numerator to within
        // h²/3; unit end weights would be off by about h/2.
        let noise = crate::distributions::Uniform::new(-10.0, 10.0).unwrap();
        let est = grid_posterior_mean(0.0, |x| 2.0 * x, &noise, 0.0, 1.0, 1_001).unwrap();
        assert!((est - 2.0 / 3.0).abs() < 1e-6, "est = {est}");
    }

    #[test]
    fn prepared_posterior_matches_the_underlying_kernels() {
        // Gaussian noise: exact agreement with the closed form.
        let prepared = PreparedPosterior::gaussian_moments(2.0, 9.0, 4.0, true).unwrap();
        for &y in &[-5.0, 0.0, 2.0, 7.5] {
            let got = prepared.apply(y).unwrap();
            let want = gaussian_posterior_mean(y, 2.0, 9.0, 4.0).unwrap();
            assert_eq!(got, want, "y = {y}");
        }

        // Uniform noise: the quadrature path reproduces a direct
        // grid_posterior_mean call with the UDR grid configuration.
        let prepared = PreparedPosterior::gaussian_moments(1.0, 4.0, 9.0, false).unwrap();
        let prior = Normal::new(1.0, 2.0).unwrap();
        let noise = crate::distributions::Uniform::centered_with_std(3.0).unwrap();
        let span = 6.0 * (2.0 + 3.0);
        for &y in &[-2.0, 1.0, 3.0] {
            let got = prepared.apply(y).unwrap();
            let want =
                grid_posterior_mean(y, |x| prior.pdf(x), &noise, 1.0 - span, 1.0 + span, 600)
                    .unwrap();
            assert_eq!(got, want, "y = {y}");
        }

        // Pure-noise attribute: degenerate prior answers its mean.
        let prepared = PreparedPosterior::gaussian_moments(-3.5, 0.0, 1.0, false).unwrap();
        assert_eq!(prepared.apply(100.0).unwrap(), -3.5);

        // Invalid variances are rejected at preparation time.
        assert!(PreparedPosterior::gaussian_moments(0.0, -1.0, 1.0, true).is_err());
        assert!(PreparedPosterior::gaussian_moments(0.0, 1.0, 0.0, true).is_err());
    }

    #[test]
    fn grid_posterior_rejects_bad_grid() {
        let noise = Normal::standard();
        assert!(grid_posterior_mean(0.0, |_| 1.0, &noise, 1.0, 0.0, 100).is_err());
        assert!(grid_posterior_mean(0.0, |_| 1.0, &noise, 0.0, 1.0, 1).is_err());
        // Zero prior everywhere -> error.
        assert!(matches!(
            grid_posterior_mean(0.0, |_| 0.0, &noise, 0.0, 1.0, 100),
            Err(StatsError::ZeroPosteriorMass {
                noise_window: None,
                ..
            })
        ));
    }

    /// The reference [`PreparedPosterior::Quadrature`] is pinned against.
    fn udr_reference(mean_x: f64, var_x: f64, var_r: f64, y: f64) -> Result<f64> {
        let prior = Normal::new(mean_x, var_x.sqrt()).unwrap();
        let noise = crate::distributions::Uniform::centered_with_std(var_r.sqrt()).unwrap();
        let span = 6.0 * (var_x.sqrt() + var_r.sqrt());
        grid_posterior_mean(
            y,
            |x| prior.pdf(x),
            &noise,
            mean_x - span,
            mean_x + span,
            600,
        )
    }

    #[test]
    fn non_finite_values_fail_with_zero_mass_like_the_reference() {
        let prepared = PreparedPosterior::gaussian_moments(1.0, 4.0, 9.0, false).unwrap();
        for y in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let got = prepared.apply(y);
            assert!(
                matches!(got, Err(StatsError::ZeroPosteriorMass { .. })),
                "y = {y}: {got:?}"
            );
            assert!(
                matches!(
                    udr_reference(1.0, 4.0, 9.0, y),
                    Err(StatsError::ZeroPosteriorMass { .. })
                ),
                "y = {y}"
            );
        }
    }

    #[test]
    fn underflowing_prior_weights_name_the_value_and_the_grid() {
        // σx = 1e-3 against σr = 10: the grid spacing (≈ 0.2) leaves every
        // grid point at least 100 prior standard deviations from the mean,
        // so every prior weight underflows to 0 and every value fails.
        let prepared = PreparedPosterior::gaussian_moments(0.0, 1e-6, 100.0, false).unwrap();
        let err = prepared.apply(0.5).unwrap_err();
        let StatsError::ZeroPosteriorMass {
            value,
            low,
            high,
            spacing,
            noise_window,
        } = err
        else {
            panic!("expected zero posterior mass, got {err:?}");
        };
        assert_eq!(value, 0.5);
        assert_eq!((low, high), (-6.0 * (1e-3 + 10.0), 6.0 * (1e-3 + 10.0)));
        assert_eq!(spacing, (high - low) / 599.0);
        assert_eq!(noise_window, Some(20.0 * 3.0f64.sqrt()));
        let message = err.to_string();
        assert!(message.contains("value 0.5"), "{message}");
        assert!(message.contains(&format!("[{low}, {high}]")), "{message}");
        assert!(!message.contains("narrower"), "{message}");
        assert!(matches!(
            udr_reference(0.0, 1e-6, 100.0, 0.5),
            Err(StatsError::ZeroPosteriorMass { .. })
        ));

        // Ten times the prior variance puts the nearest grid points about
        // 32 prior standard deviations out: small but representable weights.
        let prepared = PreparedPosterior::gaussian_moments(0.0, 1e-5, 100.0, false).unwrap();
        for y in [-5.0, 0.0, 5.0] {
            let got = prepared.apply(y).unwrap();
            assert_eq!(got, udr_reference(0.0, 1e-5, 100.0, y).unwrap(), "y = {y}");
            assert!(got.abs() < 0.2, "y = {y}: {got}");
        }
    }
}
