//! Free functions over `&[f64]` slices.
//!
//! The reconstruction schemes mostly manipulate whole matrices, but a few
//! pieces (per-record Bayes estimates, posterior expectations, error metrics)
//! work a vector at a time; these helpers keep that code readable.

use crate::error::{LinalgError, Result};

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "dot",
            left: (a.len(), 1),
            right: (b.len(), 1),
        });
    }
    Ok(a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum())
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f64]) -> f64 {
    a.iter().map(|&x| x * x).sum::<f64>().sqrt()
}

/// Element-wise sum `a + b`.
pub fn add(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    zip_with(a, b, "vector add", |x, y| x + y)
}

/// Element-wise difference `a - b`.
pub fn sub(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    zip_with(a, b, "vector sub", |x, y| x - y)
}

/// Scales every element by `s`.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|&x| x * s).collect()
}

/// In-place `y += alpha * x` (the classic axpy).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) -> Result<()> {
    if x.len() != y.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "axpy",
            left: (x.len(), 1),
            right: (y.len(), 1),
        });
    }
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
    Ok(())
}

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Normalizes `a` to unit L2 norm. Returns an error if the norm is (near) zero.
pub fn normalize(a: &[f64]) -> Result<Vec<f64>> {
    let n = norm(a);
    if n <= f64::EPSILON {
        return Err(LinalgError::InvalidData {
            reason: "cannot normalize a (near-)zero vector".to_string(),
        });
    }
    Ok(scale(a, 1.0 / n))
}

/// Squared Euclidean distance between two equal-length slices.
pub fn squared_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "squared_distance",
            left: (a.len(), 1),
            right: (b.len(), 1),
        });
    }
    Ok(a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum())
}

/// Outer product `a bᵀ` as a row-major matrix buffer of shape `a.len() × b.len()`.
pub fn outer(a: &[f64], b: &[f64]) -> crate::Matrix {
    crate::Matrix::from_fn(a.len(), b.len(), |i, j| a[i] * b[j])
}

fn zip_with<F: Fn(f64, f64) -> f64>(
    a: &[f64],
    b: &[f64],
    op: &'static str,
    f: F,
) -> Result<Vec<f64>> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op,
            left: (a.len(), 1),
            right: (b.len(), 1),
        });
    }
    Ok(a.iter().zip(b.iter()).map(|(&x, &y)| f(x, y)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn norms() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn add_sub_scale_axpy() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(scale(&[1.0, 2.0], 3.0), vec![3.0, 6.0]);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y).unwrap();
        assert_eq!(y, vec![3.0, 5.0]);
        assert!(axpy(1.0, &[1.0], &mut y).is_err());
        assert!(add(&[1.0], &[1.0, 2.0]).is_err());
        assert!(sub(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let v = normalize(&[3.0, 4.0]).unwrap();
        assert!((norm(&v) - 1.0).abs() < 1e-12);
        assert!(normalize(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn squared_distance_basic() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 25.0);
        assert!(squared_distance(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn outer_product() {
        let m = outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 10.0);
    }
}
