//! Multivariate normal distribution.
//!
//! Equivalent of Matlab's `mvnrnd`, which the paper uses to generate both the
//! synthetic original data (Section 7.1, step 4) and the correlated noise of
//! the improved randomization scheme (Section 8.1). Sampling is Cholesky-based:
//! `x = μ + L z` with `z ~ N(0, I)` and `Σ = L Lᵀ`. A batch lives in one
//! buffer: the draws are written into it and then transformed in place
//! through `L`'s lower triangle ([`Cholesky::mul_rows_in_place`]).
//!
//! The chunked [`MvnChunkSampler`] derives each chunk from its own child seed,
//! so any chunk can be drawn on its own ([`MvnChunkSampler::chunk_at`]), in
//! any order or on any thread, bit-identical to a sequential sweep.

use crate::error::{Result, StatsError};
use crate::rng::{child_seed, seeded_rng, standard_normal_fill};
use rand::Rng;
use randrecon_linalg::decomposition::Cholesky;
use randrecon_linalg::Matrix;

/// A multivariate normal distribution `N(μ, Σ)`.
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    mean: Vec<f64>,
    covariance: Matrix,
    cholesky: Cholesky,
}

impl MultivariateNormal {
    /// Creates a multivariate normal from a mean vector and covariance matrix.
    ///
    /// The mean must be finite. The covariance must be square, symmetric,
    /// positive definite, and its dimension must match the mean's length.
    pub fn new(mean: Vec<f64>, covariance: Matrix) -> Result<Self> {
        if let Some(&value) = mean.iter().find(|v| !v.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value,
                requirement: "finite",
            });
        }
        if covariance.rows() != mean.len() {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "mean has length {}, covariance is {}x{}",
                    mean.len(),
                    covariance.rows(),
                    covariance.cols()
                ),
            });
        }
        let cholesky = Cholesky::new(&covariance)?;
        Ok(MultivariateNormal {
            mean,
            covariance,
            cholesky,
        })
    }

    /// A standard multivariate normal `N(0, I_dim)`.
    pub fn standard(dim: usize) -> Result<Self> {
        MultivariateNormal::new(vec![0.0; dim], Matrix::identity(dim))
    }

    /// Creates a zero-mean multivariate normal with the given covariance.
    pub fn zero_mean(covariance: Matrix) -> Result<Self> {
        let dim = covariance.rows();
        MultivariateNormal::new(vec![0.0; dim], covariance)
    }

    /// Dimensionality (number of attributes).
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        &self.covariance
    }

    /// Draws `n` samples as an `n × dim` matrix (records are rows), the layout
    /// the rest of the workspace uses for data sets.
    ///
    /// One `n × dim` buffer holds the whole batch: it is filled row by row
    /// with standard-normal draws ([`standard_normal_fill`], the ziggurat),
    /// and each row `z` is then overwritten with `z Lᵀ` by
    /// [`Cholesky::mul_rows_in_place`], which reads only `L`'s lower
    /// triangle. The result is bit-identical to multiplying the draws by
    /// `Lᵀ` with [`Matrix::matmul`] at every thread count, with about half
    /// the multiply-adds and no second buffer.
    pub fn sample_matrix<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Matrix {
        let mut out = Matrix::zeros(n, self.dim());
        standard_normal_fill(out.as_mut_slice(), rng);
        self.cholesky
            .mul_rows_in_place(&mut out)
            .expect("sample_matrix shapes always agree");
        if self.mean.iter().any(|&m| m != 0.0) {
            out.add_row_broadcast(&self.mean)
                .expect("mean length always matches");
        }
        out
    }

    /// Log probability density at `x`.
    pub fn log_pdf(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "point has length {}, distribution is {}-dimensional",
                    x.len(),
                    self.dim()
                ),
            });
        }
        let diff: Vec<f64> = x
            .iter()
            .zip(self.mean.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        let solved = self.cholesky.solve_vec(&diff)?;
        let quad: f64 = diff.iter().zip(solved.iter()).map(|(&d, &s)| d * s).sum();
        let dim = self.dim() as f64;
        Ok(-0.5
            * (quad + self.cholesky.log_determinant() + dim * (2.0 * std::f64::consts::PI).ln()))
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: &[f64]) -> Result<f64> {
        Ok(self.log_pdf(x)?.exp())
    }
}

/// Deterministic chunked multivariate-normal record generator.
///
/// Produces the rows of an `n × dim` sample `chunk_rows` at a time without
/// ever materializing the full matrix — the generator behind the streaming
/// benchmarks, where a 500 k-record workload must never allocate an `n × m`
/// buffer. Chunk `i` is sampled with its own child-seeded RNG
/// ([`child_seed`]`(base_seed, i)`), which buys three properties:
///
/// * **Restartability** — after [`MvnChunkSampler::reset`] the exact same
///   chunk sequence is produced again, which is what the two-pass streaming
///   attack engine in `randrecon-core` requires of its record sources.
/// * **Chunk-size stability of the seed layout** — chunk boundaries don't
///   leak one chunk's draws into the next, so resets cannot drift.
/// * **Random access** — [`chunk_at`](MvnChunkSampler::chunk_at) draws any
///   chunk from `&self`, so chunks can be generated concurrently;
///   [`next_chunk`](MvnChunkSampler::next_chunk) is `chunk_at` at a cursor.
///
/// Each chunk is drawn through [`MultivariateNormal::sample_matrix`]
/// (ziggurat draws, transformed in place through `L`'s lower triangle), so
/// a chunk is one buffer from its first draw on, and the factor computed at
/// construction is reused.
#[derive(Debug, Clone)]
pub struct MvnChunkSampler {
    mvn: MultivariateNormal,
    n: usize,
    chunk_rows: usize,
    base_seed: u64,
    /// Index of the next chunk [`next_chunk`](MvnChunkSampler::next_chunk)
    /// returns.
    cursor: usize,
}

impl MvnChunkSampler {
    /// Creates a sampler that will emit `n` records in chunks of `chunk_rows`
    /// (the final chunk may be shorter).
    pub fn new(
        mvn: MultivariateNormal,
        n: usize,
        chunk_rows: usize,
        base_seed: u64,
    ) -> Result<Self> {
        if chunk_rows == 0 {
            return Err(StatsError::InvalidParameter {
                name: "chunk_rows",
                value: 0.0,
                requirement: "must be at least 1",
            });
        }
        Ok(MvnChunkSampler {
            mvn,
            n,
            chunk_rows,
            base_seed,
            cursor: 0,
        })
    }

    /// Dimensionality of each record.
    pub fn dim(&self) -> usize {
        self.mvn.dim()
    }

    /// Total number of records the full sweep produces.
    pub fn n_records(&self) -> usize {
        self.n
    }

    /// Rows per chunk (the final chunk may be shorter).
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Chunks in a full sweep.
    pub fn n_chunks(&self) -> usize {
        self.n.div_ceil(self.chunk_rows)
    }

    /// The underlying distribution.
    pub fn distribution(&self) -> &MultivariateNormal {
        &self.mvn
    }

    /// Rewinds to the first chunk; the subsequent chunk sequence is
    /// identical to the previous sweep.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Skips the next `n_chunks` chunks (saturating at the end of the
    /// stream). Because chunk `i` is drawn from its own child-seeded RNG,
    /// skipping is a pure cursor jump: the chunks produced afterwards are
    /// bit-identical to the ones a full sequential sweep would produce at
    /// the same positions.
    pub fn skip_chunks(&mut self, n_chunks: usize) {
        self.cursor = self.cursor.saturating_add(n_chunks).min(self.n_chunks());
    }

    /// Chunk `index` (`rows × dim`) of a full sweep, or `None` past the last
    /// one — a pure function of the seed and `index`, independent of the
    /// cursor.
    pub fn chunk_at(&self, index: usize) -> Option<Matrix> {
        let start = index.checked_mul(self.chunk_rows)?;
        if start >= self.n {
            return None;
        }
        let rows = self.chunk_rows.min(self.n - start);
        let mut rng = seeded_rng(child_seed(self.base_seed, index as u64));
        Some(self.mvn.sample_matrix(rows, &mut rng))
    }

    /// Returns the next chunk (`rows × dim`), or `None` after the last one.
    pub fn next_chunk(&mut self) -> Option<Matrix> {
        let chunk = self.chunk_at(self.cursor)?;
        self.cursor += 1;
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary;

    fn cov2() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.5][..], &[1.5, 2.0][..]]).unwrap()
    }

    #[test]
    fn construction_validates_dimensions() {
        assert!(MultivariateNormal::new(vec![0.0], cov2()).is_err());
        assert!(MultivariateNormal::new(vec![0.0, 0.0], cov2()).is_ok());
        // Non-PD covariance rejected.
        let bad = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 1.0][..]]).unwrap();
        assert!(MultivariateNormal::zero_mean(bad).is_err());
    }

    #[test]
    fn sample_moments_match_parameters() {
        let mvn = MultivariateNormal::new(vec![1.0, -2.0], cov2()).unwrap();
        let mut rng = seeded_rng(2024);
        let samples = mvn.sample_matrix(20_000, &mut rng);
        let means = summary::mean_vector(&samples);
        assert!((means[0] - 1.0).abs() < 0.06, "mean0 = {}", means[0]);
        assert!((means[1] + 2.0).abs() < 0.06, "mean1 = {}", means[1]);
        let cov = summary::covariance_matrix(&samples);
        assert!((cov.get(0, 0) - 4.0).abs() < 0.15);
        assert!((cov.get(1, 1) - 2.0).abs() < 0.10);
        assert!((cov.get(0, 1) - 1.5).abs() < 0.10);
    }

    #[test]
    fn standard_mvn_is_uncorrelated() {
        let mvn = MultivariateNormal::standard(3).unwrap();
        let mut rng = seeded_rng(5);
        let samples = mvn.sample_matrix(10_000, &mut rng);
        let cov = summary::covariance_matrix(&samples);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((cov.get(i, j) - expected).abs() < 0.08);
            }
        }
    }

    #[test]
    fn log_pdf_of_standard_normal_at_origin() {
        let mvn = MultivariateNormal::standard(2).unwrap();
        let lp = mvn.log_pdf(&[0.0, 0.0]).unwrap();
        // -log(2π) for the 2-d standard normal at the mean.
        assert!((lp + (2.0 * std::f64::consts::PI).ln()).abs() < 1e-10);
        assert!(mvn.pdf(&[0.0, 0.0]).unwrap() > mvn.pdf(&[1.0, 1.0]).unwrap());
        assert!(mvn.log_pdf(&[0.0]).is_err());
    }

    #[test]
    fn pdf_integrates_to_roughly_one_on_grid() {
        // Coarse 2-d grid integration sanity check.
        let mvn = MultivariateNormal::standard(2).unwrap();
        let step = 0.1;
        let mut total = 0.0;
        let mut x = -5.0;
        while x < 5.0 {
            let mut y = -5.0;
            while y < 5.0 {
                total += mvn.pdf(&[x, y]).unwrap() * step * step;
                y += step;
            }
            x += step;
        }
        assert!((total - 1.0).abs() < 0.01, "total = {total}");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mvn = MultivariateNormal::zero_mean(cov2()).unwrap();
        let a = mvn.sample_matrix(10, &mut seeded_rng(1));
        let b = mvn.sample_matrix(10, &mut seeded_rng(1));
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn chunk_sampler_is_restartable_and_covers_all_records() {
        let mvn = MultivariateNormal::zero_mean(cov2()).unwrap();
        // 23 records in chunks of 10: sizes 10, 10, 3.
        let mut sampler = MvnChunkSampler::new(mvn, 23, 10, 99).unwrap();
        assert_eq!(sampler.dim(), 2);
        assert_eq!(sampler.n_records(), 23);
        assert_eq!(sampler.chunk_rows(), 10);
        let mut first_sweep = Vec::new();
        let mut total = 0;
        while let Some(chunk) = sampler.next_chunk() {
            assert_eq!(chunk.cols(), 2);
            total += chunk.rows();
            first_sweep.push(chunk);
        }
        assert_eq!(total, 23);
        assert_eq!(first_sweep.len(), 3);
        assert_eq!(first_sweep[2].rows(), 3);

        // Reset reproduces the identical chunk sequence bit for bit.
        sampler.reset();
        for prev in &first_sweep {
            let again = sampler.next_chunk().unwrap();
            assert!(again.approx_eq(prev, 0.0));
        }
        assert!(sampler.next_chunk().is_none());
    }

    #[test]
    fn chunk_sampler_moments_match_distribution() {
        let mvn = MultivariateNormal::zero_mean(cov2()).unwrap();
        let mut sampler = MvnChunkSampler::new(mvn, 20_000, 1024, 7).unwrap();
        // Accumulate the sample covariance chunk by chunk (zero mean).
        let mut acc = Matrix::zeros(2, 2);
        let mut n = 0usize;
        while let Some(chunk) = sampler.next_chunk() {
            n += chunk.rows();
            for r in 0..chunk.rows() {
                let row = chunk.row(r);
                for i in 0..2 {
                    for j in 0..2 {
                        acc[(i, j)] += row[i] * row[j];
                    }
                }
            }
        }
        let cov = acc.scale(1.0 / (n - 1) as f64);
        assert!((cov.get(0, 0) - 4.0).abs() < 0.2);
        assert!((cov.get(1, 1) - 2.0).abs() < 0.12);
        assert!((cov.get(0, 1) - 1.5).abs() < 0.12);
    }

    /// An AR(1)-shaped `dim × dim` covariance, `Σᵢⱼ = 0.5^|i−j|`.
    fn toeplitz(dim: usize) -> Matrix {
        Matrix::from_fn(dim, dim, |i, j| 0.5f64.powi(i.abs_diff(j) as i32))
    }

    #[test]
    fn sample_matrix_in_place_is_bit_identical_to_z_times_l_transpose() {
        // The parent path: fill a fresh `Z`, then `Z.matmul(&Lᵀ)` into a
        // second buffer. 1031 × 64 clears the parallel threshold and leaves
        // a row tail; the small shapes take `matmul`'s naive branch and
        // leave tails of both register tiles.
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (case, &(n, dim, with_mean)) in [
            (1031, 64, false),
            (0, 3, false),
            (1, 1, true),
            (7, 5, false),
            (9, 17, true),
            (300, 9, true),
            (40, 70, false),
        ]
        .iter()
        .enumerate()
        {
            let mean: Vec<f64> = (0..dim)
                .map(|j| if with_mean { j as f64 - 2.5 } else { 0.0 })
                .collect();
            let mvn = MultivariateNormal::new(mean.clone(), toeplitz(dim)).unwrap();
            let seed = 8 + case as u64;
            let sample = mvn.sample_matrix(n, &mut seeded_rng(seed));
            let mut z = Matrix::zeros(n, dim);
            standard_normal_fill(z.as_mut_slice(), &mut seeded_rng(seed));
            let mut reference = z.matmul(&mvn.cholesky.l().transpose()).unwrap();
            if with_mean {
                reference.add_row_broadcast(&mean).unwrap();
            }
            assert_eq!(bits(&sample), bits(&reference), "{n} x {dim}");
        }
    }

    #[test]
    fn construction_rejects_a_non_finite_mean() {
        for mean in [vec![f64::NAN, 0.0], vec![0.0, f64::INFINITY]] {
            match MultivariateNormal::new(mean, cov2()) {
                Err(StatsError::InvalidParameter { name, value, .. }) => {
                    assert_eq!(name, "mean");
                    assert!(!value.is_finite());
                }
                other => panic!("expected a mean error, got {other:?}"),
            }
        }
    }

    #[test]
    fn chunk_at_is_the_ith_sequential_chunk() {
        let mvn = MultivariateNormal::zero_mean(toeplitz(5)).unwrap();
        // 23 records in chunks of 10: 10, 10, then a short chunk of 3.
        let mut sampler = MvnChunkSampler::new(mvn, 23, 10, 41).unwrap();
        assert_eq!(sampler.n_chunks(), 3);
        let mut index = 0;
        while let Some(chunk) = sampler.next_chunk() {
            let direct = sampler.chunk_at(index).unwrap();
            assert_eq!(direct.shape(), chunk.shape());
            assert!(direct.approx_eq(&chunk, 0.0), "chunk {index}");
            index += 1;
        }
        assert_eq!(index, 3);
        assert_eq!(sampler.chunk_at(2).unwrap().rows(), 3);
        assert!(sampler.chunk_at(3).is_none());
        assert!(sampler.chunk_at(usize::MAX).is_none());
        // A skip is a cursor jump onto the same chunks.
        sampler.reset();
        sampler.skip_chunks(2);
        assert!(sampler
            .next_chunk()
            .unwrap()
            .approx_eq(&sampler.chunk_at(2).unwrap(), 0.0));
        sampler.reset();
        sampler.skip_chunks(7);
        assert!(sampler.next_chunk().is_none());
    }

    #[test]
    fn chunk_sampler_rejects_zero_chunk() {
        let mvn = MultivariateNormal::zero_mean(cov2()).unwrap();
        assert!(MvnChunkSampler::new(mvn, 10, 0, 1).is_err());
    }
}
