//! Estimating the original data's covariance from the disguised data.
//!
//! Theorem 5.1 (independent noise) and Theorem 8.2 (correlated noise) give the
//! key relationship the attacks exploit:
//!
//! ```text
//! Σ_y = Σ_x + Σ_r        ⇒        Σ̂_x = Σ̂_y − Σ_r
//! ```
//!
//! where `Σ̂_y` is the sample covariance of the disguised data and `Σ_r` is the
//! (public) noise covariance. For independent noise `Σ_r = σ² I`, so the
//! estimate is just the disguised covariance with `σ²` subtracted from the
//! diagonal.
//!
//! With finite samples the subtraction can produce a matrix that is not quite
//! positive definite (small eigenvalues may dip below zero). The helpers here
//! therefore also provide an eigenvalue-clipped variant for the consumers that
//! need an invertible estimate (BE-DR).

use crate::error::Result;
use randrecon_data::DataTable;
use randrecon_linalg::decomposition::{recompose, Cholesky, SymmetricEigen};
use randrecon_linalg::Matrix;
use randrecon_noise::NoiseModel;

/// Estimates the covariance of the *original* data from the disguised table by
/// subtracting the noise covariance (Theorems 5.1 / 8.2). The result is
/// symmetrized but not otherwise adjusted — small negative eigenvalues can
/// remain.
pub fn estimate_original_covariance(disguised: &DataTable, noise: &NoiseModel) -> Result<Matrix> {
    let mut est = disguised.covariance_matrix();
    subtract_noise_in_place(&mut est, noise)?;
    Ok(est)
}

/// Like [`estimate_original_covariance`] but starting from an
/// already-centered value matrix, so callers that need the centered data
/// anyway (PCA-DR, spectral filtering) pay for exactly one pass over the
/// records.
pub fn estimate_original_covariance_centered(
    centered_values: &Matrix,
    noise: &NoiseModel,
) -> Result<Matrix> {
    let mut est = randrecon_stats::summary::covariance_matrix_centered(centered_values);
    subtract_noise_in_place(&mut est, noise)?;
    Ok(est)
}

fn subtract_noise_in_place(estimate: &mut Matrix, noise: &NoiseModel) -> Result<()> {
    let sigma_r = noise.covariance(estimate.rows())?;
    estimate.sub_assign_matrix(&sigma_r)?;
    estimate.symmetrize_in_place()?;
    Ok(())
}

/// Like [`estimate_original_covariance`] but clips eigenvalues from below at
/// `min_eigenvalue`, returning a symmetric positive-definite matrix suitable
/// for inversion.
///
/// The clip floor defaults (in callers) to a small fraction of the largest
/// estimated eigenvalue so that the regularization never dominates the
/// estimate.
pub fn estimate_original_covariance_spd(
    disguised: &DataTable,
    noise: &NoiseModel,
    min_eigenvalue: f64,
) -> Result<Matrix> {
    let raw = estimate_original_covariance(disguised, noise)?;
    clip_eigenvalues(&raw, min_eigenvalue)
}

/// Projects a symmetric matrix onto the cone of matrices whose eigenvalues are
/// at least `floor` (computed via a full eigendecomposition).
pub fn clip_eigenvalues(matrix: &Matrix, floor: f64) -> Result<Matrix> {
    let eig = SymmetricEigen::new(matrix)?;
    let clipped: Vec<f64> = eig
        .eigenvalues
        .iter()
        .map(|&l| if l < floor { floor } else { l })
        .collect();
    Ok(recompose(&clipped, &eig.eigenvectors))
}

/// Factors an expected-SPD matrix, falling back to an eigenvalue-clipped
/// repair when the straight Cholesky fails.
///
/// The reconstruction path factors `T = Σ̂_x + Σ_r` once; with noisy
/// streamed moment estimates and ill-conditioned spectra the estimate can
/// land *numerically* indefinite even after the Σ̂_x clip (recomposition
/// rounding is of order `ε · λ_max`, which dwarfs a tiny clip floor). The
/// paper's estimators only need an SPD *approximation*, so instead of
/// killing the cell this projects `T` back onto the SPD cone via
/// [`clip_eigenvalues`] — with a floor derived deterministically from the
/// trace — and retries the factorization, reporting what happened as a
/// warning string. Returns the factorization plus the (possibly empty)
/// warning list; a repair that still fails propagates the error.
pub fn cholesky_with_spd_repair(
    t: &Matrix,
    context: &'static str,
) -> Result<(Cholesky, Vec<String>)> {
    match Cholesky::new(t) {
        Ok(chol) => Ok((chol, Vec::new())),
        Err(primary) => {
            let floor = spd_repair_floor(t);
            let repaired = clip_eigenvalues(t, floor)?;
            let chol = Cholesky::new(&repaired)?;
            let warning = format!(
                "{context}: Cholesky of the posterior system failed ({primary}); \
                 recovered via eigenvalue-clipped SPD repair (floor {floor:e})"
            );
            Ok((chol, vec![warning]))
        }
    }
}

/// The deterministic clip floor the SPD repair escalates to: a `1e-9`
/// fraction of the mean diagonal (trace-derived, so scale-covariant), never
/// below an absolute `1e-12`.
pub fn spd_repair_floor(t: &Matrix) -> f64 {
    let m = t.rows().max(1);
    (1e-9 * (t.trace() / m as f64).abs()).max(1e-12)
}

/// Builds and factors the BE-DR posterior system `T = Σ̂_x + Σ_r`,
/// degrading **pair-consistently** when `T` lands numerically indefinite.
///
/// A repair that only projects `T` back onto the SPD cone leaves the
/// estimator inconsistent: `Σ̂_x`'s near-null directions stay at the
/// original clip floor while `T`'s are lifted to the repair floor, so the
/// data pull `Σ̂_x T⁻¹` collapses to zero in exactly the repaired
/// directions and the reconstruction silently falls back to the prior mean
/// there. Instead, when the straight Cholesky of `T` fails this escalates
/// the clip floor **on `Σ̂_x` itself** (to [`spd_repair_floor`]), rebuilds
/// `T` from the re-clipped estimate, and factors again — producing the
/// same estimator an explicitly better-floored run would have used. A
/// rebuilt system that is still indefinite falls through to the direct
/// `T`-repair of [`cholesky_with_spd_repair`] as a last resort.
///
/// A straight factor counts as failed when its smallest pivot `L[j][j]²`
/// is at or below `(m+1)·ε·max diag(T)`, the backward-error bound of the
/// factorization itself: such a pivot is rounding noise, and the factor
/// certifies nothing about `T`'s definiteness (a rank-deficient `T` can
/// factor "successfully" on noise pivots and yield a wildly wrong
/// estimator). It takes the same repair, and the warning names the pivot.
///
/// Takes `Σ̂_x` by value and returns the (possibly re-clipped) estimate
/// actually used, the factorization of its posterior system, and the
/// warning trail (empty on the straight path).
pub fn factor_posterior_system(
    sigma_x: Matrix,
    sigma_r: &Matrix,
    context: &'static str,
) -> Result<(Cholesky, Matrix, Vec<String>)> {
    let build = |sigma_x: &Matrix| -> Result<Matrix> {
        let mut t = sigma_x.clone();
        t.add_assign_matrix(sigma_r)?;
        // Guard against fp asymmetry in user-supplied noise covariances.
        t.symmetrize_in_place()?;
        Ok(t)
    };
    let t = build(&sigma_x)?;
    let primary = match Cholesky::new(&t) {
        Ok(chol) => match rounding_noise_pivot(&chol, &t) {
            None => return Ok((chol, sigma_x, Vec::new())),
            Some((pivot, value, bound)) => format!(
                "pivot {pivot} is {value:e}, at or below the rounding bound \
                 (m+1)·ε·max diag = {bound:e}"
            ),
        },
        Err(e) => e.to_string(),
    };
    let floor = spd_repair_floor(&t);
    let escalated = clip_eigenvalues(&sigma_x, floor)?;
    let rebuilt = build(&escalated)?;
    let (chol, mut warnings) = cholesky_with_spd_repair(&rebuilt, context)?;
    warnings.insert(
        0,
        format!(
            "{context}: Cholesky of the posterior system failed ({primary}); \
             recovered via eigenvalue-clipped SPD repair of the covariance \
             estimate (escalated floor {floor:e})"
        ),
    );
    Ok((chol, escalated, warnings))
}

/// The smallest pivot `L[j][j]²` of `chol`, a factor of `t`, when it is at
/// or below the Cholesky backward-error bound `(m+1)·ε·max diag(t)`:
/// `(pivot index, pivot, bound)`.
fn rounding_noise_pivot(chol: &Cholesky, t: &Matrix) -> Option<(usize, f64, f64)> {
    let m = t.rows();
    let max_diag = t.diagonal().into_iter().fold(0.0, f64::max);
    let bound = (m + 1) as f64 * f64::EPSILON * max_diag;
    let l = chol.l();
    let (pivot, value) = (0..m)
        .map(|j| (j, l.get(j, j) * l.get(j, j)))
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    (value <= bound).then_some((pivot, value, bound))
}

/// Records per block in the rank-update sweep: each block centers its rows
/// into one scratch panel and streams every `cross[i, i..]` triangle row
/// through cache once for all of them, cutting the triangle's memory
/// traffic by this factor on wide tables. The per-cell addition order is
/// ascending in record index either way, so the blocking never changes a
/// bit. Sixteen rows keep the panel (16·m doubles) inside L1 up to
/// m ≈ 256 and well inside L2 beyond that, while cutting the triangle
/// traffic 16×.
pub const ROW_BLOCK: usize = 16;

/// Mergeable streaming accumulator for the sample mean and covariance.
///
/// This is the pass-1 workhorse of the streaming attack engine: records
/// arrive chunk by chunk, each chunk contributes one symmetric rank-update
/// sweep (the same contiguous-`axpy` kernel shape as the in-memory
/// `covariance_matrix`), and partial accumulators — e.g. one per chunk,
/// computed across the `randrecon-parallel` pool — merge *exactly* (a
/// closed-form O(m²) combination, no data re-read). Peak state is O(m²)
/// regardless of how many records flow through.
///
/// # Centering and numerical behaviour
///
/// The true mean is unknown until the stream ends, so single-pass
/// accumulation centers every record against a fixed **shift anchor** `k`
/// (captured from the first record seen) and applies the exact correction
/// `Σ(x−μ)(x−μ)ᵀ = Σ(x−k)(x−k)ᵀ − n(μ−k)(μ−k)ᵀ` when
/// [`covariance`](CovarianceAccumulator::covariance) is read out. Anchoring
/// at a data point
/// keeps the comoments well-scaled (the classic stability fix over raw
/// `Σxxᵀ` accumulation), and the result matches the two-sweep in-memory
/// estimator to ~1e-15 relative.
///
/// When the means *are* known up front (a second sweep, or a caller that
/// already has them), [`CovarianceAccumulator::with_means`] pins the anchor
/// to the mean vector and the correction term vanishes. Because same-anchor
/// partials merge by plain elementwise addition, building one mean-anchored
/// partial per 2048-row chunk and merging them in chunk order reproduces the
/// in-memory `covariance_matrix` (which reduces its own 2048-row partial
/// triangles the same way) **bit for bit**.
#[derive(Debug, Clone)]
pub struct CovarianceAccumulator {
    m: usize,
    count: usize,
    /// Column sums Σx.
    sum: Vec<f64>,
    /// Upper triangle (row-major, full m×m storage) of Σ (x−k)(x−k)ᵀ.
    cross: Vec<f64>,
    /// The shift anchor k; `None` until the first record arrives, unless it
    /// was pinned up front via `with_means` / `with_shift`.
    shift: Option<Vec<f64>>,
}

impl CovarianceAccumulator {
    /// A fresh single-pass accumulator for `m` attributes. The shift anchor
    /// is captured from the first record that flows in.
    pub fn new(m: usize) -> Self {
        CovarianceAccumulator {
            m,
            count: 0,
            sum: vec![0.0; m],
            cross: vec![0.0; m * m],
            shift: None,
        }
    }

    /// An accumulator whose centering anchor is pinned to `means` (typically
    /// exact column means from a previous sweep). With chunked input merged
    /// in order, this mode is bit-identical to the in-memory
    /// `covariance_matrix` computed from the same means.
    pub fn with_means(means: &[f64]) -> Self {
        CovarianceAccumulator {
            m: means.len(),
            count: 0,
            sum: vec![0.0; means.len()],
            cross: vec![0.0; means.len() * means.len()],
            shift: Some(means.to_vec()),
        }
    }

    /// An accumulator sharing an existing anchor, for building per-chunk
    /// partials that merge into a parent without any anchor translation.
    pub fn with_shift(shift: Vec<f64>) -> Self {
        CovarianceAccumulator {
            m: shift.len(),
            count: 0,
            sum: vec![0.0; shift.len()],
            cross: vec![0.0; shift.len() * shift.len()],
            shift: Some(shift),
        }
    }

    /// Number of attributes.
    pub fn n_attributes(&self) -> usize {
        self.m
    }

    /// Records accumulated so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The current shift anchor, if one is set.
    pub fn shift(&self) -> Option<&[f64]> {
        self.shift.as_deref()
    }

    /// The raw column sums `Σx` — one of the three state vectors a partial
    /// accumulator serializes (shard journal moment frames persist `sum`,
    /// [`raw_cross`](CovarianceAccumulator::raw_cross) and the anchor as raw
    /// IEEE-754 bits so a deserialized partial merges bit-identically).
    pub fn raw_sum(&self) -> &[f64] {
        &self.sum
    }

    /// The raw anchored comoment storage `Σ (x−k)(x−k)ᵀ` — upper triangle
    /// in full row-major `m × m` storage (the strict lower triangle is
    /// zero). Exposed for bit-exact serialization; see
    /// [`raw_sum`](CovarianceAccumulator::raw_sum).
    pub fn raw_cross(&self) -> &[f64] {
        &self.cross
    }

    /// Rebuilds an accumulator from previously exported raw state
    /// ([`count`](CovarianceAccumulator::count),
    /// [`raw_sum`](CovarianceAccumulator::raw_sum),
    /// [`raw_cross`](CovarianceAccumulator::raw_cross),
    /// [`shift`](CovarianceAccumulator::shift)). The round trip is bit-exact:
    /// merging or reading out the rebuilt accumulator produces the same bits
    /// as the original would have.
    pub fn from_raw_parts(
        count: usize,
        sum: Vec<f64>,
        cross: Vec<f64>,
        shift: Option<Vec<f64>>,
    ) -> Result<Self> {
        let m = sum.len();
        if cross.len() != m * m {
            return Err(crate::error::ReconError::InvalidInput {
                reason: format!(
                    "comoment storage has {} entries, expected {m}×{m}",
                    cross.len()
                ),
            });
        }
        if let Some(ref k) = shift {
            if k.len() != m {
                return Err(crate::error::ReconError::InvalidInput {
                    reason: format!("anchor has {} attributes, expected {m}", k.len()),
                });
            }
        }
        if count > 0 && shift.is_none() {
            return Err(crate::error::ReconError::InvalidInput {
                reason: "a non-empty accumulator must carry its shift anchor".to_string(),
            });
        }
        Ok(CovarianceAccumulator {
            m,
            count,
            sum,
            cross,
            shift,
        })
    }

    /// Accumulates one chunk of records (rows) with a symmetric rank-update
    /// sweep over the upper triangle.
    ///
    /// The sweep is blocked over [`ROW_BLOCK`] records: each block of rows
    /// is centered into a scratch panel once, then every upper-triangle row
    /// `cross[i, i..]` is streamed through cache a single time while all
    /// `ROW_BLOCK` rank-1 contributions are applied to it. For wide tables
    /// (`m` in the hundreds) the m×m comoment triangle no longer fits in
    /// L1/L2 per record, and the blocking cuts its memory traffic by the
    /// block factor. Within a cell `(i, j)` the additions still land in
    /// ascending record order — exactly the order the per-row sweep used —
    /// so the result is **bit-identical** to the unblocked kernel.
    pub fn update_chunk(&mut self, chunk: &Matrix) -> Result<()> {
        if chunk.cols() != self.m {
            return Err(crate::error::ReconError::InvalidInput {
                reason: format!(
                    "chunk has {} attributes, accumulator expects {}",
                    chunk.cols(),
                    self.m
                ),
            });
        }
        if chunk.rows() == 0 {
            return Ok(());
        }
        if self.shift.is_none() {
            self.shift = Some(chunk.row(0).to_vec());
        }
        let shift = self.shift.as_deref().expect("anchor set above");
        let m = self.m;
        let rows = chunk.rows();
        let mut block = vec![0.0; ROW_BLOCK * m];
        let mut r0 = 0;
        while r0 < rows {
            let rb = ROW_BLOCK.min(rows - r0);
            for r in 0..rb {
                let row = chunk.row(r0 + r);
                let centered = &mut block[r * m..(r + 1) * m];
                for ((s, &x), &k) in centered.iter_mut().zip(row).zip(shift) {
                    *s = x - k;
                }
                for (o, &x) in self.sum.iter_mut().zip(row) {
                    *o += x;
                }
            }
            let panel = &block[..rb * m];
            for i in 0..m {
                let out = &mut self.cross[i * m + i..(i + 1) * m];
                // Two records per pass halves the out-row load/store
                // traffic; the two adds stay sequential per cell, so the
                // per-cell addition order is still ascending in record
                // index.
                let mut pairs = panel.chunks_exact(2 * m);
                for pair in pairs.by_ref() {
                    let (c0, c1) = pair.split_at(m);
                    let (v0, v1) = (c0[i], c1[i]);
                    for ((o, &w0), &w1) in out.iter_mut().zip(&c0[i..]).zip(&c1[i..]) {
                        *o = (*o + v0 * w0) + v1 * w1;
                    }
                }
                for centered in pairs.remainder().chunks_exact(m) {
                    let v = centered[i];
                    for (o, &w) in out.iter_mut().zip(&centered[i..]) {
                        *o += v * w;
                    }
                }
            }
            r0 += rb;
        }
        self.count += rows;
        Ok(())
    }

    /// Merges another partial accumulator into this one — exact, O(m²), no
    /// data re-read.
    ///
    /// If the anchors differ, `other`'s comoments are translated to this
    /// accumulator's anchor with the identity
    /// `Σ_B (x−k_A)(x−k_A)ᵀ = C_B + d t_Bᵀ + t_B dᵀ + n_B d dᵀ`
    /// where `d = k_B − k_A` and `t_B = Σ_B x − n_B k_B`. When the anchors
    /// are identical (per-chunk partials built via
    /// [`with_shift`](CovarianceAccumulator::with_shift)), the merge is a
    /// plain elementwise add, so chunk-ordered merging is bit-identical to
    /// sequentially accumulating the same chunks.
    pub fn merge(&mut self, other: &CovarianceAccumulator) -> Result<()> {
        if other.m != self.m {
            return Err(crate::error::ReconError::InvalidInput {
                reason: format!(
                    "cannot merge a {}-attribute accumulator into a {}-attribute one",
                    other.m, self.m
                ),
            });
        }
        if other.count == 0 {
            return Ok(());
        }
        let m = self.m;
        if self.shift.is_none() {
            // Nothing accumulated here yet: adopt the other side wholesale.
            self.shift = other.shift.clone();
            self.sum.copy_from_slice(&other.sum);
            self.cross.copy_from_slice(&other.cross);
            self.count = other.count;
            return Ok(());
        }
        let k_a = self.shift.as_deref().expect("checked above");
        let k_b = other
            .shift
            .as_deref()
            .expect("non-empty accumulator always has an anchor");
        let identical = k_a == k_b;
        if identical {
            // Upper triangles add elementwise; same order as sequential
            // accumulation, hence bit-identical.
            for i in 0..m {
                for (o, &v) in self.cross[i * m + i..(i + 1) * m]
                    .iter_mut()
                    .zip(&other.cross[i * m + i..(i + 1) * m])
                {
                    *o += v;
                }
            }
        } else {
            let n_b = other.count as f64;
            let d: Vec<f64> = k_b.iter().zip(k_a).map(|(&b, &a)| b - a).collect();
            let t_b: Vec<f64> = other
                .sum
                .iter()
                .zip(k_b)
                .map(|(&s, &k)| s - n_b * k)
                .collect();
            for i in 0..m {
                for j in i..m {
                    self.cross[i * m + j] +=
                        other.cross[i * m + j] + d[i] * t_b[j] + t_b[i] * d[j] + n_b * d[i] * d[j];
                }
            }
        }
        for (o, &v) in self.sum.iter_mut().zip(&other.sum) {
            *o += v;
        }
        self.count += other.count;
        Ok(())
    }

    /// The accumulated column means (zeros before any record arrives).
    pub fn mean(&self) -> Vec<f64> {
        if self.count == 0 {
            return vec![0.0; self.m];
        }
        let n = self.count as f64;
        self.sum.iter().map(|&s| s / n).collect()
    }

    /// The unbiased (`n − 1`) sample covariance of everything accumulated.
    ///
    /// Returns the zero matrix for fewer than two records, matching the
    /// in-memory estimator.
    pub fn covariance(&self) -> Matrix {
        let m = self.m;
        let mut cov = Matrix::zeros(m, m);
        if self.count < 2 {
            return cov;
        }
        let shift = self.shift.as_deref().expect("count ≥ 2 implies an anchor");
        let n = self.count as f64;
        let mean = self.mean();
        let d: Vec<f64> = mean.iter().zip(shift).map(|(&mu, &k)| mu - k).collect();
        let correcting = d.iter().any(|&v| v != 0.0);
        let norm = 1.0 / (self.count - 1) as f64;
        for i in 0..m {
            for j in i..m {
                let raw = if correcting {
                    self.cross[i * m + j] - n * d[i] * d[j]
                } else {
                    self.cross[i * m + j]
                };
                let v = raw * norm;
                cov.set(i, j, v);
                cov.set(j, i, v);
            }
        }
        cov
    }
}

/// Default eigenvalue floor used when regularizing estimated covariances:
/// `1e-6 ×` the mean per-attribute variance of the disguised data (with an
/// absolute floor of `1e-9`).
pub fn default_eigenvalue_floor(disguised: &DataTable) -> f64 {
    let variances = disguised.variance_vector();
    let mean_var = variances.iter().sum::<f64>() / variances.len().max(1) as f64;
    (1e-6 * mean_var).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
    use randrecon_noise::additive::AdditiveRandomizer;
    use randrecon_stats::rng::seeded_rng;

    #[test]
    fn recovers_original_covariance_for_independent_noise() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 100.0, 5, 2.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 20_000, 3).unwrap();
        let randomizer = AdditiveRandomizer::gaussian(5.0).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(4)).unwrap();

        let est = estimate_original_covariance(&disguised, randomizer.model()).unwrap();
        let rel =
            est.sub(&ds.covariance).unwrap().frobenius_norm() / ds.covariance.frobenius_norm();
        assert!(rel < 0.1, "relative covariance estimation error {rel}");
        assert!(est.is_symmetric(1e-9));
    }

    #[test]
    fn recovers_original_covariance_for_correlated_noise() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 100.0, 4, 2.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 20_000, 5).unwrap();
        let noise_cov = ds.covariance.scale(0.2);
        let randomizer = AdditiveRandomizer::correlated(noise_cov).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(6)).unwrap();

        let est = estimate_original_covariance(&disguised, randomizer.model()).unwrap();
        let rel =
            est.sub(&ds.covariance).unwrap().frobenius_norm() / ds.covariance.frobenius_norm();
        assert!(rel < 0.1, "relative covariance estimation error {rel}");
    }

    #[test]
    fn spd_variant_is_invertible_even_with_heavy_noise() {
        // Small sample + large noise makes the raw estimate indefinite; the SPD
        // variant must still be Cholesky-factorizable.
        let spectrum = EigenSpectrum::principal_plus_small(1, 10.0, 6, 0.5).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 60, 7).unwrap();
        let randomizer = AdditiveRandomizer::gaussian(8.0).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(8)).unwrap();

        let floor = default_eigenvalue_floor(&disguised);
        let est = estimate_original_covariance_spd(&disguised, randomizer.model(), floor).unwrap();
        let eig = SymmetricEigen::new(&est).unwrap();
        assert!(eig.eigenvalues.iter().all(|&l| l >= floor * 0.999));
        assert!(randrecon_linalg::decomposition::Cholesky::new(&est).is_ok());
    }

    #[test]
    fn clip_eigenvalues_raises_negative_modes() {
        // [[0, 2], [2, 0]] has eigenvalues ±2.
        let m = Matrix::from_rows(&[&[0.0, 2.0][..], &[2.0, 0.0][..]]).unwrap();
        let clipped = clip_eigenvalues(&m, 0.5).unwrap();
        let eig = SymmetricEigen::new(&clipped).unwrap();
        assert!((eig.eigenvalues[0] - 2.0).abs() < 1e-9);
        assert!((eig.eigenvalues[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn clip_eigenvalues_agrees_with_jacobi_reference_path() {
        // The production clip routes through the Householder + QL pipeline
        // (m = 20 is above the dispatch threshold); rebuilding the same clip
        // from the pinned Jacobi reference must give the same matrix, which
        // pins the consumer-level equivalence of the eigensolver swap.
        let spectrum = EigenSpectrum::principal_plus_small(3, 50.0, 20, 0.5).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 80, 21).unwrap();
        let randomizer = AdditiveRandomizer::gaussian(6.0).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(22)).unwrap();
        let raw = estimate_original_covariance(&disguised, randomizer.model()).unwrap();

        let floor = default_eigenvalue_floor(&disguised);
        let clipped = clip_eigenvalues(&raw, floor).unwrap();

        let reference = randrecon_linalg::decomposition::eigen_jacobi(&raw).unwrap();
        let ref_clipped: Vec<f64> = reference
            .eigenvalues
            .iter()
            .map(|&l| if l < floor { floor } else { l })
            .collect();
        let rebuilt = recompose(&ref_clipped, &reference.eigenvectors);
        let rel = clipped.sub(&rebuilt).unwrap().frobenius_norm() / rebuilt.frobenius_norm();
        assert!(rel < 1e-9, "clip paths diverged: relative error {rel}");
    }

    #[test]
    fn accumulator_matches_in_memory_covariance_across_chunkings() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 60.0, 6, 1.5).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 533, 91).unwrap();
        let values = ds.table.values();
        let expected_cov = ds.table.covariance_matrix();
        let expected_mean = ds.table.mean_vector();
        let scale = expected_cov.max_abs().max(1.0);

        for &chunk in &[1usize, 7, 100, 533, 1000] {
            let mut acc = CovarianceAccumulator::new(6);
            let mut start = 0;
            while start < values.rows() {
                let end = (start + chunk).min(values.rows());
                let c = values.submatrix(start, end, 0, 6).unwrap();
                acc.update_chunk(&c).unwrap();
                start = end;
            }
            assert_eq!(acc.count(), 533);
            assert!(
                acc.covariance().approx_eq(&expected_cov, 1e-12 * scale),
                "chunk size {chunk}"
            );
            for (got, want) in acc.mean().iter().zip(expected_mean.iter()) {
                assert!((got - want).abs() < 1e-12, "chunk size {chunk}");
            }
        }
    }

    #[test]
    fn accumulator_with_means_is_bit_identical_to_one_shot_path() {
        // The in-memory kernel reduces independent 2048-row partial
        // triangles in chunk order. Reproduce exactly that structure — one
        // mean-anchored partial per 2048-row chunk, merged in order — and
        // the accumulated covariance must match bit for bit.
        let spectrum = EigenSpectrum::principal_plus_small(3, 80.0, 5, 2.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 5_000, 93).unwrap();
        let values = ds.table.values();
        let means = values.column_means();

        let mut acc = CovarianceAccumulator::with_means(&means);
        let mut start = 0;
        while start < values.rows() {
            let end = (start + 2048).min(values.rows());
            let mut partial = CovarianceAccumulator::with_means(&means);
            partial
                .update_chunk(&values.submatrix(start, end, 0, 5).unwrap())
                .unwrap();
            acc.merge(&partial).unwrap();
            start = end;
        }
        let streamed = acc.covariance();
        let one_shot = ds.table.covariance_matrix();
        assert!(
            streamed.approx_eq(&one_shot, 0.0),
            "mean-anchored partials merged in chunk order must be bit-identical to the one-shot kernel"
        );
    }

    #[test]
    fn accumulator_merge_is_exact_across_anchors() {
        // Split the records across two accumulators with *different* anchors
        // (each captures its own first record); the merged result must match
        // a single sequential accumulator to ~machine precision.
        let spectrum = EigenSpectrum::principal_plus_small(2, 40.0, 4, 1.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 400, 95).unwrap();
        let values = ds.table.values();
        let left = values.submatrix(0, 170, 0, 4).unwrap();
        let right = values.submatrix(170, 400, 0, 4).unwrap();

        let mut a = CovarianceAccumulator::new(4);
        a.update_chunk(&left).unwrap();
        let mut b = CovarianceAccumulator::new(4);
        b.update_chunk(&right).unwrap();
        a.merge(&b).unwrap();

        let mut sequential = CovarianceAccumulator::new(4);
        sequential.update_chunk(&left).unwrap();
        sequential.update_chunk(&right).unwrap();

        let scale = sequential.covariance().max_abs().max(1.0);
        assert_eq!(a.count(), 400);
        assert!(a
            .covariance()
            .approx_eq(&sequential.covariance(), 1e-12 * scale));

        // Shared-anchor partials merge by plain elementwise addition, so two
        // different merge groupings of the same partials agree bit for bit.
        let shift = sequential.shift().unwrap().to_vec();
        let mut c = CovarianceAccumulator::with_shift(shift.clone());
        c.update_chunk(&left).unwrap();
        let mut d = CovarianceAccumulator::with_shift(shift.clone());
        d.update_chunk(&right).unwrap();
        let mut merged = CovarianceAccumulator::with_shift(shift);
        merged.merge(&c).unwrap();
        merged.merge(&d).unwrap();
        c.merge(&d).unwrap();
        assert!(merged.covariance().approx_eq(&c.covariance(), 0.0));
        assert!(c
            .covariance()
            .approx_eq(&sequential.covariance(), 1e-12 * scale));
    }

    #[test]
    fn accumulator_edge_cases() {
        let mut acc = CovarianceAccumulator::new(3);
        assert_eq!(acc.covariance(), Matrix::zeros(3, 3));
        assert_eq!(acc.mean(), vec![0.0; 3]);
        assert!(acc.update_chunk(&Matrix::zeros(2, 4)).is_err());
        // Zero-row chunks are no-ops.
        acc.update_chunk(&Matrix::zeros(0, 3)).unwrap();
        assert_eq!(acc.count(), 0);
        assert!(acc.shift().is_none());
        // Merging an empty accumulator is a no-op; into an empty one adopts.
        let mut other = CovarianceAccumulator::new(3);
        other
            .update_chunk(
                &Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[2.0, 1.0, 0.0][..]]).unwrap(),
            )
            .unwrap();
        acc.merge(&other).unwrap();
        assert_eq!(acc.count(), 2);
        assert!(acc.merge(&CovarianceAccumulator::new(2)).is_err());
        // Single record: covariance still zero (n − 1 normalization).
        let mut one = CovarianceAccumulator::new(2);
        one.update_chunk(&Matrix::from_rows(&[&[5.0, -1.0][..]]).unwrap())
            .unwrap();
        assert_eq!(one.covariance(), Matrix::zeros(2, 2));
        assert_eq!(one.mean(), vec![5.0, -1.0]);
    }

    #[test]
    fn default_floor_is_small_but_positive() {
        let spectrum = EigenSpectrum::principal_plus_small(1, 10.0, 3, 1.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 100, 9).unwrap();
        let floor = default_eigenvalue_floor(&ds.table);
        assert!(floor > 0.0);
        assert!(floor < 1.0);
    }
}
