//! Reconstruction-error metrics.
//!
//! The paper measures privacy as the root-mean-square error between the
//! original data `X` and a reconstruction `X*`: the larger the error, the more
//! privacy the randomization preserved against that attack. All figures report
//! RMSE over every value of the data set.

use crate::error::{MetricsError, Result};
use randrecon_data::DataTable;
use randrecon_linalg::Matrix;

/// Mean-square error between two matrices of identical shape, averaged over
/// every entry.
pub fn mse_matrices(original: &Matrix, reconstructed: &Matrix) -> Result<f64> {
    if original.shape() != reconstructed.shape() {
        return Err(MetricsError::ShapeMismatch {
            left: original.shape(),
            right: reconstructed.shape(),
        });
    }
    let (n, m) = original.shape();
    if n == 0 || m == 0 {
        return Err(MetricsError::EmptyInput { metric: "mse" });
    }
    let total: f64 = original
        .as_slice()
        .iter()
        .zip(reconstructed.as_slice().iter())
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum();
    Ok(total / (n * m) as f64)
}

/// Mean-square error between an original table and its reconstruction.
pub fn mse(original: &DataTable, reconstructed: &DataTable) -> Result<f64> {
    mse_matrices(original.values(), reconstructed.values())
}

/// Root-mean-square error between an original table and its reconstruction —
/// the quantity plotted on the y-axis of every figure in the paper.
pub fn rmse(original: &DataTable, reconstructed: &DataTable) -> Result<f64> {
    Ok(mse(original, reconstructed)?.sqrt())
}

/// RMSE computed separately for every attribute (column).
pub fn per_attribute_rmse(original: &DataTable, reconstructed: &DataTable) -> Result<Vec<f64>> {
    let a = original.values();
    let b = reconstructed.values();
    if a.shape() != b.shape() {
        return Err(MetricsError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    let (n, m) = a.shape();
    if n == 0 || m == 0 {
        return Err(MetricsError::EmptyInput {
            metric: "per_attribute_rmse",
        });
    }
    let mut out = Vec::with_capacity(m);
    for j in 0..m {
        let sum: f64 = (0..n)
            .map(|i| {
                let d = a.get(i, j) - b.get(i, j);
                d * d
            })
            .sum();
        out.push((sum / n as f64).sqrt());
    }
    Ok(out)
}

/// RMSE normalized by the standard deviation of the original data
/// (averaged over attributes). A value of 1 means the attack does no better
/// than guessing the mean; values well below 1 indicate disclosure.
pub fn normalized_rmse(original: &DataTable, reconstructed: &DataTable) -> Result<f64> {
    let raw = rmse(original, reconstructed)?;
    let variances = original.variance_vector();
    let mean_var = variances.iter().sum::<f64>() / variances.len() as f64;
    if mean_var <= 0.0 {
        return Err(MetricsError::InvalidParameter {
            reason: "original data has zero variance; normalized RMSE is undefined".to_string(),
        });
    }
    Ok(raw / mean_var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(values: Matrix) -> DataTable {
        DataTable::from_matrix(values).unwrap()
    }

    #[test]
    fn perfect_reconstruction_has_zero_error() {
        let t = table(Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap());
        assert_eq!(mse(&t, &t).unwrap(), 0.0);
        assert_eq!(rmse(&t, &t).unwrap(), 0.0);
        assert_eq!(per_attribute_rmse(&t, &t).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn hand_computed_mse() {
        let a = table(Matrix::from_rows(&[&[0.0, 0.0][..], &[0.0, 0.0][..]]).unwrap());
        let b = table(Matrix::from_rows(&[&[1.0, 1.0][..], &[1.0, 3.0][..]]).unwrap());
        // Squared errors: 1, 1, 1, 9 -> mean 3.
        assert_eq!(mse(&a, &b).unwrap(), 3.0);
        assert!((rmse(&a, &b).unwrap() - 3.0_f64.sqrt()).abs() < 1e-12);
        let per = per_attribute_rmse(&a, &b).unwrap();
        assert!((per[0] - 1.0).abs() < 1e-12);
        assert!((per[1] - 5.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn squared_rmse_is_the_mean_of_per_attribute_squared_rmse() {
        let a = table(Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64));
        let b = table(Matrix::from_fn(6, 3, |i, j| {
            (i * 3 + j) as f64 + ((i + 2 * j) % 4) as f64 - 1.5
        }));
        let per = per_attribute_rmse(&a, &b).unwrap();
        let mean_sq = per.iter().map(|r| r * r).sum::<f64>() / per.len() as f64;
        assert!((mse(&a, &b).unwrap() - mean_sq).abs() < 1e-12);
        assert!((rmse(&a, &b).unwrap() - mean_sq.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_tables_rejected() {
        let empty = table(Matrix::zeros(0, 2));
        assert!(matches!(
            mse(&empty, &empty),
            Err(MetricsError::EmptyInput { .. })
        ));
        assert!(matches!(
            per_attribute_rmse(&empty, &empty),
            Err(MetricsError::EmptyInput { .. })
        ));
        assert!(rmse(&empty, &empty).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = table(Matrix::zeros(2, 2));
        let b = table(Matrix::zeros(3, 2));
        assert!(mse(&a, &b).is_err());
        assert!(per_attribute_rmse(&a, &b).is_err());
    }

    #[test]
    fn normalized_rmse_scales_by_std() {
        let original = table(Matrix::from_rows(&[&[0.0][..], &[2.0][..], &[4.0][..]]).unwrap());
        // Reconstruction that always guesses the mean (2.0).
        let guess_mean = table(Matrix::from_rows(&[&[2.0][..], &[2.0][..], &[2.0][..]]).unwrap());
        let n = normalized_rmse(&original, &guess_mean).unwrap();
        // RMSE = sqrt(8/3); std = 2 -> ratio = sqrt(8/3)/2 ≈ 0.816 (population vs sample variance).
        assert!(n > 0.7 && n < 1.0, "n = {n}");
        // Zero-variance original rejected.
        let flat = table(Matrix::from_rows(&[&[1.0][..], &[1.0][..]]).unwrap());
        assert!(normalized_rmse(&flat, &flat).is_err());
    }
}
