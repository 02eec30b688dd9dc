//! Symmetric eigendecomposition.
//!
//! Two solvers share one result type and one sorting/sign convention:
//!
//! * **Householder + implicit-shift QL** ([`SymmetricEigen::householder_ql`],
//!   the default behind [`SymmetricEigen::new`] above a small-dimension
//!   threshold): the classic one-shot `O(n³)` pipeline in
//!   [`super::tridiagonal`]. This is the production path for every spectral
//!   consumer — PCA-DR, spectral filtering, covariance clipping, bandwidth
//!   selection, and the theory curves.
//! * **Cyclic Jacobi** ([`eigen_jacobi`] / [`SymmetricEigen::jacobi`]): the
//!   original solver, retained as the pinned reference the same way
//!   `matmul_naive` anchors `matmul`. Every rotation is easy to audit and the
//!   property tests assert the QL path matches it to 1e-9, which is what
//!   lets the fast path be trusted on the attack pipeline. It also serves as
//!   the small-m fallback, where its simplicity beats the tridiagonal
//!   pipeline's setup cost.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

use super::tridiagonal::{householder_tridiagonalize, ql_implicit_shift};

/// Eigendecomposition `A = Q Λ Qᵀ` of a symmetric matrix.
///
/// Eigenpairs are sorted by **descending** eigenvalue, matching the paper's
/// convention (λ₁ ≥ λ₂ ≥ … ≥ λ_m); column `k` of [`SymmetricEigen::eigenvectors`]
/// is the eigenvector for [`SymmetricEigen::eigenvalues`]`[k]`. Each
/// eigenvector's sign is normalized so its largest-magnitude component is
/// positive, making results comparable across solver paths.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose columns are the corresponding (orthonormal) eigenvectors.
    pub eigenvectors: Matrix,
}

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Below this dimension [`SymmetricEigen::new`] stays on the Jacobi path: for
/// tiny matrices the quadratic-convergence sweeps finish in microseconds and
/// the tridiagonal pipeline's reflector setup is pure overhead.
const TRIDIAGONAL_MIN_DIM: usize = 12;

impl SymmetricEigen {
    /// Decomposes a symmetric matrix.
    ///
    /// Dispatches to the Householder + implicit-shift QL pipeline, falling
    /// back to cyclic Jacobi below [`TRIDIAGONAL_MIN_DIM`]. Both paths
    /// produce the same sorted, sign-normalized eigenpairs (to numerical
    /// precision; the property tests pin the agreement at 1e-9).
    pub fn new(a: &Matrix) -> Result<Self> {
        // Both targets validate the input themselves; no pre-check here.
        if a.rows() < TRIDIAGONAL_MIN_DIM {
            Self::jacobi(a)
        } else {
            Self::householder_ql(a)
        }
    }

    /// Decomposes a symmetric matrix with the Householder + implicit-shift QL
    /// pipeline regardless of size (see [`super::tridiagonal`]).
    pub fn householder_ql(a: &Matrix) -> Result<Self> {
        // Validation (square, non-empty, symmetric) happens inside the
        // reduction, so it runs exactly once per decomposition.
        let mut tri = householder_tridiagonalize(a)?;
        let mut qt = tri.q_transposed;
        ql_implicit_shift(&mut tri.diagonal, &tri.subdiagonal, &mut qt)?;
        Ok(finish_sorted(tri.diagonal, qt))
    }

    /// Decomposes a symmetric matrix with cyclic Jacobi sweeps and the default
    /// convergence tolerance (off-diagonal Frobenius norm below
    /// `1e-12 · ‖A‖_F`, floor `1e-300`). Pinned reference path.
    pub fn jacobi(a: &Matrix) -> Result<Self> {
        Self::with_tolerance(a, 1e-12)
    }

    /// Jacobi decomposition declaring convergence when the off-diagonal
    /// Frobenius norm drops below `rel_tol * ‖A‖_F`.
    pub fn with_tolerance(a: &Matrix, rel_tol: f64) -> Result<Self> {
        validate(a)?;
        let n = a.rows();

        // Work on the symmetrized copy so tiny fp asymmetries cannot bias rotations.
        let mut m = a.symmetrize()?;
        // Accumulate Qᵀ (rows are eigenvector candidates): the Jacobi rotation
        // then updates two contiguous *rows* of both matrices instead of two
        // strided columns, which is what keeps the sweep vectorizable.
        let mut qt = Matrix::identity(n);
        let target = (rel_tol * m.frobenius_norm()).max(1e-300);

        let mut sweeps = 0;
        loop {
            let off = off_diagonal_norm(&m);
            if off <= target {
                break;
            }
            if sweeps >= MAX_SWEEPS {
                return Err(LinalgError::EigenDidNotConverge {
                    sweeps,
                    off_diagonal_norm: off,
                });
            }
            sweeps += 1;
            for p in 0..n - 1 {
                for r in (p + 1)..n {
                    let apr = m.get(p, r);
                    if apr.abs() <= f64::MIN_POSITIVE {
                        continue;
                    }
                    let app = m.get(p, p);
                    let arr = m.get(r, r);
                    // Compute the Jacobi rotation (c, s) that zeroes m[p][r].
                    let theta = (arr - app) / (2.0 * apr);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Two-sided update exploiting symmetry: rotate rows p and
                    // r (contiguous), patch the 2×2 pivot block analytically,
                    // then mirror the rows into columns p and r.
                    let app_new = app - t * apr;
                    let arr_new = arr + t * apr;
                    {
                        let (row_p, row_r) = two_rows_mut(&mut m, p, r);
                        for (vp, vr) in row_p.iter_mut().zip(row_r.iter_mut()) {
                            let mpk = *vp;
                            let mrk = *vr;
                            *vp = c * mpk - s * mrk;
                            *vr = s * mpk + c * mrk;
                        }
                        row_p[p] = app_new;
                        row_r[r] = arr_new;
                        row_p[r] = 0.0;
                        row_r[p] = 0.0;
                    }
                    for k in 0..n {
                        if k != p && k != r {
                            let mpk = m.get(p, k);
                            let mrk = m.get(r, k);
                            m.set(k, p, mpk);
                            m.set(k, r, mrk);
                        }
                    }
                    // Accumulate the rotation into Qᵀ (rows p and r).
                    let (qt_p, qt_r) = two_rows_mut(&mut qt, p, r);
                    for (vp, vr) in qt_p.iter_mut().zip(qt_r.iter_mut()) {
                        let qpk = *vp;
                        let qrk = *vr;
                        *vp = c * qpk - s * qrk;
                        *vr = s * qpk + c * qrk;
                    }
                }
            }
        }

        let eigenvalues: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
        Ok(finish_sorted(eigenvalues, qt))
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Rebuilds `Q Λ Qᵀ` (useful for round-trip tests and for constructing
    /// covariance matrices from a prescribed spectrum).
    pub fn recompose(&self) -> Matrix {
        recompose(&self.eigenvalues, &self.eigenvectors)
    }

    /// Sum of all eigenvalues (equals the trace of the original matrix).
    pub fn total_variance(&self) -> f64 {
        self.eigenvalues.iter().sum()
    }
}

/// Cyclic Jacobi eigendecomposition — the pinned reference solver.
///
/// Free-function spelling of [`SymmetricEigen::jacobi`], mirroring how
/// `matmul_naive` anchors the blocked `matmul`: benches and property tests
/// call this to cross-check the Householder + QL production path.
pub fn eigen_jacobi(a: &Matrix) -> Result<SymmetricEigen> {
    SymmetricEigen::jacobi(a)
}

/// Shared input validation for every eigensolver entry point (Jacobi,
/// Householder + QL, and the eigenvalues-only path): square, non-empty,
/// symmetric (to a scaled tolerance).
pub(crate) fn validate(a: &Matrix) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if a.rows() == 0 {
        return Err(LinalgError::Empty {
            op: "symmetric eigen",
        });
    }
    let sym_tol = 1e-8 * a.max_abs().max(1.0);
    if !a.is_symmetric(sym_tol) {
        return Err(LinalgError::NotSymmetric {
            max_asymmetry: a.max_asymmetry(),
        });
    }
    Ok(())
}

/// Shared finisher for both solver paths: sorts eigenpairs descending,
/// applies the sign convention (largest-magnitude component of each
/// eigenvector positive; first such component on exact ties), and transposes
/// the row-stored candidates into the columns-are-eigenvectors convention.
fn finish_sorted(eigenvalues: Vec<f64>, qt: Matrix) -> SymmetricEigen {
    let n = eigenvalues.len();
    let mut pairs: Vec<(f64, usize)> = eigenvalues.into_iter().zip(0..n).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let eigenvalues: Vec<f64> = pairs.iter().map(|&(v, _)| v).collect();
    let mut sorted_rows = Matrix::zeros(n, n);
    for (dst, &(_, src)) in pairs.iter().enumerate() {
        let row = sorted_rows.row_mut(dst);
        row.copy_from_slice(qt.row(src));
        let mut lead = 0;
        for (j, &v) in row.iter().enumerate() {
            if v.abs() > row[lead].abs() {
                lead = j;
            }
        }
        if row[lead] < 0.0 {
            for v in row.iter_mut() {
                *v = -*v;
            }
        }
    }
    let eigenvectors = sorted_rows.transpose();
    SymmetricEigen {
        eigenvalues,
        eigenvectors,
    }
}

/// Rebuilds a symmetric matrix `Q Λ Qᵀ` from a spectrum and an orthonormal basis.
///
/// `Q Λ` is formed by scaling the columns of `Q` directly (no diagonal-matrix
/// product), and the final factor is applied through the fused
/// [`Matrix::matmul_transpose_b`] kernel, so no transpose is materialized.
pub fn recompose(eigenvalues: &[f64], eigenvectors: &Matrix) -> Matrix {
    assert_eq!(
        eigenvalues.len(),
        eigenvectors.cols(),
        "shape mismatch in recompose"
    );
    let mut q_scaled = eigenvectors.clone();
    for i in 0..q_scaled.rows() {
        for (v, &l) in q_scaled.row_mut(i).iter_mut().zip(eigenvalues.iter()) {
            *v *= l;
        }
    }
    q_scaled
        .matmul_transpose_b(eigenvectors)
        .expect("shape mismatch in recompose")
}

/// Mutable views of rows `p` and `r` (`p < r`) of a square matrix.
fn two_rows_mut(m: &mut Matrix, p: usize, r: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < r);
    let n = m.cols();
    let (head, tail) = m.as_mut_slice().split_at_mut(r * n);
    (&mut head[p * n..p * n + n], &mut tail[..n])
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let mut sum = 0.0;
    for (i, row) in m.row_iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if i != j {
                sum += v * v;
            }
        }
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram_schmidt::orthonormality_defect;

    fn sym3() -> Matrix {
        Matrix::from_rows(&[
            &[4.0, 1.0, 0.5][..],
            &[1.0, 3.0, -0.7][..],
            &[0.5, -0.7, 2.0][..],
        ])
        .unwrap()
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_sorted_diagonal() {
        let d = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let eig = SymmetricEigen::new(&d).unwrap();
        assert_eq!(eig.eigenvalues, vec![5.0, 3.0, 1.0]);
        assert!(orthonormality_defect(&eig.eigenvectors) < 1e-12);
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 2.0][..]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-10);
        assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn recompose_roundtrip() {
        let a = sym3();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!(eig.recompose().approx_eq(&a, 1e-9));
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let a = sym3();
        let eig = SymmetricEigen::new(&a).unwrap();
        for k in 0..3 {
            let v = eig.eigenvectors.column(k);
            let av = a.matvec(&v).unwrap();
            let lv = crate::vector::scale(&v, eig.eigenvalues[k]);
            for (x, y) in av.iter().zip(lv.iter()) {
                assert!((x - y).abs() < 1e-8, "A v != lambda v for k={k}");
            }
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = sym3();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.total_variance() - a.trace()).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        let asym = Matrix::from_rows(&[&[1.0, 2.0][..], &[0.0, 1.0][..]]).unwrap();
        assert!(matches!(
            SymmetricEigen::new(&asym),
            Err(LinalgError::NotSymmetric { .. })
        ));
        assert!(matches!(
            SymmetricEigen::householder_ql(&asym),
            Err(LinalgError::NotSymmetric { .. })
        ));
        assert!(matches!(
            eigen_jacobi(&asym),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn rank_one_matrix_has_a_single_nonzero_eigenvalue() {
        // v vᵀ has eigenvalue |v|² = 9 along v and 0 on its complement.
        let v = [1.0, 2.0, 2.0];
        let eig = SymmetricEigen::new(&crate::vector::outer(&v, &v)).unwrap();
        assert!((eig.eigenvalues[0] - 9.0).abs() < 1e-10);
        assert!(eig.eigenvalues[1..].iter().all(|l| l.abs() < 1e-10));
        // The sign convention makes the leading eigenvector +v/|v|.
        let cos = crate::vector::dot(&eig.eigenvectors.column(0), &v).unwrap() / 3.0;
        assert!((cos - 1.0).abs() < 1e-10, "cos = {cos}");
    }

    #[test]
    fn handles_negative_eigenvalues() {
        // [[0,2],[2,0]] has eigenvalues +2 and -2.
        let a = Matrix::from_rows(&[&[0.0, 2.0][..], &[2.0, 0.0][..]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues[0] - 2.0).abs() < 1e-10);
        assert!((eig.eigenvalues[1] + 2.0).abs() < 1e-10);
    }

    #[test]
    fn moderately_large_matrix_converges() {
        // Deterministic 40x40 symmetric matrix; exercises the QL path.
        let n = 40;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = ((i * 7 + j * 13) % 17) as f64 / 17.0;
                a.set(i, j, v);
            }
        }
        let a = a.symmetrize().unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!(eig.recompose().approx_eq(&a, 1e-7));
        assert!(orthonormality_defect(&eig.eigenvectors) < 1e-9);
        // Sorted descending.
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn ql_and_jacobi_agree_across_the_dispatch_threshold() {
        for n in [2usize, 5, 11, 12, 13, 24, 40] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a.set(i, j, ((i * 5 + j * 11 + 3) % 13) as f64 - 6.0);
                }
            }
            let a = a.symmetrize().unwrap();
            let scale = a.frobenius_norm().max(1.0);
            let ql = SymmetricEigen::householder_ql(&a).unwrap();
            let jac = eigen_jacobi(&a).unwrap();
            for (l_ql, l_j) in ql.eigenvalues.iter().zip(jac.eigenvalues.iter()) {
                assert!((l_ql - l_j).abs() <= 1e-9 * scale, "n={n}: {l_ql} vs {l_j}");
            }
        }
    }

    #[test]
    fn sign_convention_is_applied_on_both_paths() {
        let a = sym3();
        for eig in [
            SymmetricEigen::householder_ql(&a).unwrap(),
            eigen_jacobi(&a).unwrap(),
        ] {
            for k in 0..eig.dim() {
                let v = eig.eigenvectors.column(k);
                let mut lead = 0;
                for (i, x) in v.iter().enumerate() {
                    if x.abs() > v[lead].abs() {
                        lead = i;
                    }
                }
                assert!(v[lead] > 0.0, "column {k} leading component not positive");
            }
        }
    }
}
