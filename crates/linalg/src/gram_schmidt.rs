//! Modified Gram–Schmidt orthonormalization.
//!
//! Section 7.1 of the paper builds its synthetic workloads by (1) choosing an
//! eigenvalue spectrum, (2) generating a random orthogonal matrix `Q` with the
//! Gram–Schmidt process, and (3) forming the covariance `C = Q Λ Qᵀ`. This
//! module provides exactly that Gram–Schmidt step (in the numerically
//! preferable *modified* formulation).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vector;

/// Orthonormalizes the columns of `a` with modified Gram–Schmidt.
///
/// Returns a matrix with the same shape whose columns are orthonormal and span
/// the same space (assuming the input columns are linearly independent).
/// Returns an error if a column becomes (numerically) linearly dependent.
pub fn orthonormalize_columns(a: &Matrix) -> Result<Matrix> {
    let (rows, cols) = a.shape();
    if rows == 0 || cols == 0 {
        return Err(LinalgError::Empty {
            op: "gram-schmidt orthonormalization",
        });
    }
    if cols > rows {
        return Err(LinalgError::InvalidData {
            reason: format!("cannot orthonormalize {cols} columns in {rows}-dimensional space"),
        });
    }
    let mut columns: Vec<Vec<f64>> = (0..cols).map(|j| a.column(j)).collect();
    for j in 0..cols {
        // Subtract projections onto all previously orthonormalized columns.
        for k in 0..j {
            let proj = vector::dot(&columns[k], &columns[j])?;
            let qk = columns[k].clone();
            vector::axpy(-proj, &qk, &mut columns[j])?;
        }
        let norm = vector::norm(&columns[j]);
        if norm <= 1e-10 {
            return Err(LinalgError::InvalidData {
                reason: format!("column {j} is linearly dependent on earlier columns"),
            });
        }
        for v in &mut columns[j] {
            *v /= norm;
        }
    }
    Matrix::from_columns(&columns)
}

/// Measures how far `q` is from having orthonormal columns: the largest
/// entry of `|QᵀQ − I|`. The tests of every basis this workspace builds
/// (Gram–Schmidt, eigenvectors, the synthetic spectra) check it.
pub fn orthonormality_defect(q: &Matrix) -> f64 {
    let gram = q.transpose().matmul(q).expect("shape is always compatible");
    let mut worst = 0.0_f64;
    for i in 0..gram.rows() {
        for j in 0..gram.cols() {
            let target = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((gram.get(i, j) - target).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthonormalizes_independent_columns() {
        let a = Matrix::from_rows(&[
            &[1.0, 1.0, 0.0][..],
            &[1.0, 0.0, 1.0][..],
            &[0.0, 1.0, 1.0][..],
        ])
        .unwrap();
        let q = orthonormalize_columns(&a).unwrap();
        assert!(orthonormality_defect(&q) < 1e-12);
    }

    #[test]
    fn preserves_first_direction() {
        let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[0.0, 1.0][..]]).unwrap();
        let q = orthonormalize_columns(&a).unwrap();
        // First column should just be the normalized first input column.
        assert!((q.get(0, 0) - 1.0).abs() < 1e-12);
        assert!(q.get(1, 0).abs() < 1e-12);
    }

    #[test]
    fn identity_is_a_fixed_point() {
        let eye = Matrix::identity(4);
        assert_eq!(orthonormalize_columns(&eye).unwrap(), eye);
    }

    #[test]
    fn projections_onto_the_basis_form_a_thin_qr() {
        // R = QᵀA is upper triangular with a positive diagonal and Q R = A:
        // each input column lies in the span of the basis vectors so far.
        let a = Matrix::from_rows(&[
            &[2.0, -1.0, 0.5][..],
            &[1.0, 3.0, 1.0][..],
            &[0.0, 1.0, -2.0][..],
            &[1.0, 0.0, 1.0][..],
        ])
        .unwrap();
        let q = orthonormalize_columns(&a).unwrap();
        let r = q.transpose().matmul(&a).unwrap();
        for i in 0..3 {
            assert!(r.get(i, i) > 0.0, "R[{i}][{i}] = {}", r.get(i, i));
            for j in 0..i {
                assert!(r.get(i, j).abs() < 1e-12, "R[{i}][{j}] = {}", r.get(i, j));
            }
        }
        assert!(q.matmul(&r).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn orthonormality_defect_is_the_largest_gram_error() {
        assert_eq!(orthonormality_defect(&Matrix::identity(3)), 0.0);
        // Orthogonal columns of length 2: QᵀQ = 4I.
        assert_eq!(orthonormality_defect(&Matrix::identity(3).scale(2.0)), 3.0);
        // Unit columns 45° apart: the off-diagonal cosine dominates.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let skew = Matrix::from_rows(&[&[1.0, s][..], &[0.0, s][..]]).unwrap();
        assert!((orthonormality_defect(&skew) - s).abs() < 1e-15);
    }

    #[test]
    fn rejects_dependent_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]).unwrap();
        assert!(orthonormalize_columns(&a).is_err());
    }

    #[test]
    fn rejects_wide_and_empty() {
        assert!(orthonormalize_columns(&Matrix::zeros(2, 3)).is_err());
        assert!(orthonormalize_columns(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn tall_matrix_orthonormal_basis() {
        let a = Matrix::from_rows(&[
            &[1.0, 1.0][..],
            &[1.0, 0.0][..],
            &[0.0, 2.0][..],
            &[1.0, -1.0][..],
        ])
        .unwrap();
        let q = orthonormalize_columns(&a).unwrap();
        assert_eq!(q.shape(), (4, 2));
        assert!(orthonormality_defect(&q) < 1e-12);
    }
}
