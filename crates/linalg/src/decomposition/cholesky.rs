//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The factorization and both solvers operate on contiguous row slices of the
//! flat storage (prefix dot products / row `axpy` updates), so the inner
//! loops carry no per-element bounds checks and vectorize. There is no
//! `inverse`: a solve against the actual right-hand side is both faster and
//! more accurate than materializing `A⁻¹` and multiplying.

use crate::error::{LinalgError, Result};
use crate::kernels;
use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor `L` of an SPD matrix `A = L Lᵀ`.
///
/// Used for two things in this workspace:
/// 1. sampling from a multivariate normal with covariance `Σ` (draw `z ~ N(0, I)`
///    and return `μ + L z`), which is how the synthetic workloads of Section 7.1
///    and the correlated-noise defense of Section 8 are generated;
/// 2. solving the SPD systems that appear in the Bayes-estimate
///    reconstruction, e.g. against `Σ_x + Σ_r` in Equation (11).
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes `a`, which must be square, symmetric (within `1e-8` relative
    /// tolerance) and positive definite.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let tol = 1e-8 * a.max_abs().max(1.0);
        if !a.is_symmetric(tol) {
            return Err(LinalgError::NotSymmetric {
                max_asymmetry: a.max_asymmetry(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        let ld = l.as_mut_slice();
        let ad = a.as_slice();
        for j in 0..n {
            // Row-prefix dot products over contiguous storage: row i of L
            // holds L[i][..=i], so the Σ L[i][k]·L[j][k] terms are dots of
            // row prefixes.
            let prefix_j = &ld[j * n..j * n + j];
            let diag = ad[j * n + j] - kernels::dot(prefix_j, prefix_j);
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: j,
                    value: diag,
                });
            }
            let ljj = diag.sqrt();
            ld[j * n + j] = ljj;
            let inv_ljj = 1.0 / ljj;
            let (upper, lower) = ld.split_at_mut((j + 1) * n);
            let prefix_j = &upper[j * n..j * n + j];
            for (di, row_i) in lower.chunks_exact_mut(n).enumerate() {
                let i = j + 1 + di;
                let sum = ad[i * n + j] - kernels::dot(&row_i[..j], prefix_j);
                row_i[j] = sum * inv_ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Overwrites every row `z` of `rows` with `z · Lᵀ` (that is, `L z`),
    /// the multivariate-normal transform, without a second buffer.
    ///
    /// Output element `j` sums `z_k · L[j][k]` in ascending `k` from +0,
    /// the naive product's order, stopping at the end of `j`'s 8-column
    /// diagonal block instead of running through the upper triangle's
    /// zeros. For finite rows the result is therefore bit-identical to
    /// `rows.matmul(&self.l().transpose())`, at about half the
    /// multiply-adds. Rows split across the shared pool at `matmul`'s
    /// threshold.
    pub fn mul_rows_in_place(&self, rows: &mut Matrix) -> Result<()> {
        let n = self.dim();
        if rows.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky mul_rows_in_place",
                left: rows.shape(),
                right: (n, n),
            });
        }
        kernels::lower_triangular_rows_in_place(self.l.as_slice(), rows.as_mut_slice(), n);
        Ok(())
    }

    /// Solves `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let ld = self.l.as_slice();
        // Forward substitution: L y = b. The Σ L[i][k]·y[k] term is a dot of
        // L's row-i prefix with the solved prefix of y — both contiguous.
        let mut y = b.to_vec();
        for i in 0..n {
            let (solved, rest) = y.split_at_mut(i);
            rest[0] = (rest[0] - kernels::dot(&ld[i * n..i * n + i], solved)) / ld[i * n + i];
        }
        // Back substitution: Lᵀ x = y, computed with row-oriented updates so
        // L is still read along rows: once x[i] is known, subtract
        // x[i]·L[i][k] from every pending y[k] (k < i).
        let mut x = y;
        for i in (0..n).rev() {
            let (pending, known) = x.split_at_mut(i);
            known[0] /= ld[i * n + i];
            let xi = known[0];
            for (yk, &lik) in pending.iter_mut().zip(&ld[i * n..i * n + i]) {
                *yk -= xi * lik;
            }
        }
        Ok(x)
    }

    /// Solves `A X = B` for a matrix right-hand side.
    ///
    /// Alias for [`Cholesky::solve_matrix`], kept for source compatibility.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        self.solve_matrix(b)
    }

    /// Solves `A X = B` for all right-hand sides at once.
    ///
    /// Both substitution passes update whole rows of the solution with
    /// contiguous `axpy` operations (`row_i -= L[i][k] · row_k`), so the cost
    /// is one O(n²·rhs) sweep of vectorized row arithmetic instead of
    /// `rhs` independent strided column extractions.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                left: (n, n),
                right: b.shape(),
            });
        }
        let rhs = b.cols();
        let ld = self.l.as_slice();
        let mut x = b.clone();
        let xd = x.as_mut_slice();
        // Forward substitution: L Y = B, row by row.
        for i in 0..n {
            let (solved, rest) = xd.split_at_mut(i * rhs);
            let row_i = &mut rest[..rhs];
            for (k, &lik) in ld[i * n..i * n + i].iter().enumerate() {
                kernels::axpy(row_i, -lik, &solved[k * rhs..k * rhs + rhs]);
            }
            let inv = 1.0 / ld[i * n + i];
            for v in row_i.iter_mut() {
                *v *= inv;
            }
        }
        // Back substitution: Lᵀ X = Y. Row i of X, once final, is subtracted
        // from every earlier row k with weight L[i][k] (reading L along rows).
        for i in (0..n).rev() {
            let (pending, rest) = xd.split_at_mut(i * rhs);
            let row_i = &mut rest[..rhs];
            let inv = 1.0 / ld[i * n + i];
            for v in row_i.iter_mut() {
                *v *= inv;
            }
            let row_i = &rest[..rhs];
            for (k, &lik) in ld[i * n..i * n + i].iter().enumerate() {
                kernels::axpy(&mut pending[k * rhs..k * rhs + rhs], -lik, row_i);
            }
        }
        Ok(x)
    }

    /// Log-determinant of `A` (= 2 Σ log Lᵢᵢ), useful for multivariate-normal
    /// log densities.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for a fixed B, guaranteed SPD.
        Matrix::from_rows(&[
            &[4.0, 2.0, 0.6][..],
            &[2.0, 5.0, 1.0][..],
            &[0.6, 1.0, 3.0][..],
        ])
        .unwrap()
    }

    #[test]
    fn factorization_recomposes() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.l();
        let rebuilt = l.matmul(&l.transpose()).unwrap();
        assert!(rebuilt.approx_eq(&a, 1e-10));
        // L is lower triangular.
        assert_eq!(l.get(0, 1), 0.0);
        assert_eq!(l.get(0, 2), 0.0);
        assert_eq!(l.get(1, 2), 0.0);
    }

    #[test]
    fn solve_matches_direct_substitution() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = ch.solve_vec(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a)
            .unwrap()
            .solve_matrix(&Matrix::identity(3))
            .unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn determinant_of_diagonal() {
        let d = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        let ch = Cholesky::new(&d).unwrap();
        assert!((ch.log_determinant() - 24.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn log_determinant_matches_cofactor_expansion() {
        let a = spd3();
        let det = a.get(0, 0) * (a.get(1, 1) * a.get(2, 2) - a.get(1, 2) * a.get(2, 1))
            - a.get(0, 1) * (a.get(1, 0) * a.get(2, 2) - a.get(1, 2) * a.get(2, 0))
            + a.get(0, 2) * (a.get(1, 0) * a.get(2, 1) - a.get(1, 1) * a.get(2, 0));
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_determinant() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn identity_factors_exactly() {
        let eye = Matrix::identity(4);
        let ch = Cholesky::new(&eye).unwrap();
        assert_eq!(ch.dim(), 4);
        assert_eq!(ch.l(), &eye);
        assert_eq!(ch.log_determinant(), 0.0);
        let b = vec![3.0, -1.0, 0.5, 7.0];
        assert_eq!(ch.solve_vec(&b).unwrap(), b);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let x = vec![1.5, -2.0, 0.25];
        let got = ch.solve_vec(&a.matvec(&x).unwrap()).unwrap();
        for (g, w) in got.iter().zip(&x) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
        // Several right-hand sides at once: columns x, 2x and -x.
        let twice: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let negated: Vec<f64> = x.iter().map(|v| -v).collect();
        let xs = Matrix::from_columns(&[x, twice, negated]).unwrap();
        let solved = ch.solve_matrix(&a.matmul(&xs).unwrap()).unwrap();
        assert!(solved.approx_eq(&xs, 1e-12));
    }

    #[test]
    fn rejects_singular_matrix_at_the_failing_pivot() {
        // Rank one: the second pivot is exactly zero.
        let rank_one = Matrix::from_rows(&[&[1.0, 1.0][..], &[1.0, 1.0][..]]).unwrap();
        // B Bᵀ for B = [e1, e2, e1 + e2]ᵀ: rank two, the third pivot vanishes.
        let rank_two = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0][..],
            &[0.0, 1.0, 1.0][..],
            &[1.0, 1.0, 2.0][..],
        ])
        .unwrap();
        for (a, failing) in [(rank_one, 1), (rank_two, 2)] {
            match Cholesky::new(&a) {
                Err(LinalgError::NotPositiveDefinite { pivot, value }) => {
                    assert_eq!(pivot, failing);
                    assert_eq!(value, 0.0);
                }
                other => panic!("expected a failure at pivot {failing}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_non_spd() {
        let not_pd = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 1.0][..]]).unwrap();
        assert!(matches!(
            Cholesky::new(&not_pd),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
        let asym = Matrix::from_rows(&[&[2.0, 1.0][..], &[0.0, 2.0][..]]).unwrap();
        assert!(matches!(
            Cholesky::new(&asym),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_size() {
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(ch.solve_vec(&[1.0, 2.0]).is_err());
        assert!(ch.solve(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn solve_matrix_right_hand_side() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0][..], &[0.0, 1.0][..], &[1.0, 1.0][..]]).unwrap();
        let x = ch.solve(&b).unwrap();
        let ax = a.matmul(&x).unwrap();
        assert!(ax.approx_eq(&b, 1e-10));
    }
}
