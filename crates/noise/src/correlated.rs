//! Construction of correlated-noise covariances (Section 8 / Experiment 4).
//!
//! The improved randomization scheme draws noise whose correlation structure
//! resembles the original data. Experiment 4 controls *how much* it resembles
//! the data by fixing the noise eigenvectors to the data's eigenvectors and
//! sweeping the noise eigenvalues between three regimes:
//!
//! * **similar** — noise eigenvalues proportional to the data's eigenvalues, so
//!   noise concentrates on the same principal components as the data
//!   (leftmost points of Figure 4, best privacy);
//! * **independent-equivalent** — flat noise spectrum, which with any
//!   orthonormal basis is exactly `σ² I`, i.e. the original i.i.d. scheme
//!   (the vertical line in Figure 4);
//! * **anti-similar** — noise eigenvalues proportional to the *reversed* data
//!   spectrum, concentrating the noise on the non-principal components
//!   (rightmost points of Figure 4, worst privacy).
//!
//! [`interpolated_spectrum`] produces noise spectra along that sweep while
//! holding the total noise variance (hence the per-record noise "budget")
//! constant.

use crate::error::{NoiseError, Result};
use randrecon_linalg::decomposition::recompose;
use randrecon_linalg::Matrix;

/// Where along the similar ↔ anti-similar axis a noise spectrum sits.
///
/// `alpha` ranges over `[-1, 1]`:
/// `1` = proportional to the data spectrum (most similar),
/// `0` = flat (equivalent to independent noise),
/// `-1` = proportional to the reversed data spectrum (most dissimilar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityLevel(f64);

impl SimilarityLevel {
    /// Creates a similarity level, validating `-1 ≤ alpha ≤ 1`.
    pub fn new(alpha: f64) -> Result<Self> {
        if !((-1.0..=1.0).contains(&alpha) && alpha.is_finite()) {
            return Err(NoiseError::InvalidParameter {
                reason: format!("similarity level must be in [-1, 1], got {alpha}"),
            });
        }
        Ok(SimilarityLevel(alpha))
    }

    /// Fully similar noise (proportional to the data spectrum).
    pub fn similar() -> Self {
        SimilarityLevel(1.0)
    }

    /// Flat spectrum — the independent-noise baseline.
    pub fn independent() -> Self {
        SimilarityLevel(0.0)
    }

    /// Fully anti-similar noise (proportional to the reversed data spectrum).
    pub fn anti_similar() -> Self {
        SimilarityLevel(-1.0)
    }

    /// The raw alpha value.
    pub fn alpha(&self) -> f64 {
        self.0
    }
}

/// Builds a noise eigenvalue spectrum with the given total variance whose shape
/// interpolates between the data spectrum (`alpha = 1`), a flat spectrum
/// (`alpha = 0`) and the reversed data spectrum (`alpha = -1`).
pub fn interpolated_spectrum(
    data_eigenvalues: &[f64],
    level: SimilarityLevel,
    total_noise_variance: f64,
) -> Result<Vec<f64>> {
    if data_eigenvalues.is_empty() {
        return Err(NoiseError::InvalidParameter {
            reason: "data eigenvalue spectrum is empty".to_string(),
        });
    }
    if data_eigenvalues
        .iter()
        .any(|&l| !(l > 0.0 && l.is_finite()))
    {
        return Err(NoiseError::InvalidParameter {
            reason: "data eigenvalues must be positive and finite".to_string(),
        });
    }
    if !(total_noise_variance > 0.0 && total_noise_variance.is_finite()) {
        return Err(NoiseError::InvalidParameter {
            reason: format!("total noise variance must be positive, got {total_noise_variance}"),
        });
    }
    let m = data_eigenvalues.len();
    let data_total: f64 = data_eigenvalues.iter().sum();
    let alpha = level.alpha();
    let weight = alpha.abs();

    // Shaped component: data spectrum or reversed data spectrum, normalized to unit sum.
    let shaped: Vec<f64> = if alpha >= 0.0 {
        data_eigenvalues.iter().map(|&l| l / data_total).collect()
    } else {
        data_eigenvalues
            .iter()
            .rev()
            .map(|&l| l / data_total)
            .collect()
    };
    let flat = 1.0 / m as f64;

    let spectrum: Vec<f64> = shaped
        .iter()
        .map(|&s| total_noise_variance * (weight * s + (1.0 - weight) * flat))
        .collect();
    Ok(spectrum)
}

/// Builds the noise covariance `Σ_r = Q Λ_r Qᵀ` from the data's eigenvectors
/// and a noise spectrum (e.g. from [`interpolated_spectrum`]).
pub fn noise_covariance(eigenvectors: &Matrix, noise_spectrum: &[f64]) -> Result<Matrix> {
    if eigenvectors.rows() != noise_spectrum.len() || !eigenvectors.is_square() {
        return Err(NoiseError::DimensionMismatch {
            reason: format!(
                "eigenvector matrix is {}x{} but the noise spectrum has {} entries",
                eigenvectors.rows(),
                eigenvectors.cols(),
                noise_spectrum.len()
            ),
        });
    }
    if noise_spectrum.iter().any(|&l| !(l > 0.0 && l.is_finite())) {
        return Err(NoiseError::InvalidParameter {
            reason: "noise spectrum entries must be positive and finite".to_string(),
        });
    }
    Ok(recompose(noise_spectrum, eigenvectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_data::synthetic::{random_orthogonal, EigenSpectrum};
    use randrecon_stats::rng::seeded_rng;

    #[test]
    fn similarity_level_validation() {
        assert!(SimilarityLevel::new(1.5).is_err());
        assert!(SimilarityLevel::new(f64::NAN).is_err());
        assert_eq!(SimilarityLevel::similar().alpha(), 1.0);
        assert_eq!(SimilarityLevel::independent().alpha(), 0.0);
        assert_eq!(SimilarityLevel::anti_similar().alpha(), -1.0);
    }

    #[test]
    fn interpolated_spectrum_preserves_total_variance() {
        let data = vec![400.0, 400.0, 10.0, 10.0, 10.0];
        for &alpha in &[-1.0, -0.5, 0.0, 0.5, 1.0] {
            let level = SimilarityLevel::new(alpha).unwrap();
            let spec = interpolated_spectrum(&data, level, 50.0).unwrap();
            let total: f64 = spec.iter().sum();
            assert!((total - 50.0).abs() < 1e-9, "alpha = {alpha}");
            assert!(spec.iter().all(|&l| l > 0.0));
        }
    }

    #[test]
    fn alpha_one_is_proportional_and_alpha_zero_is_flat() {
        let data = vec![90.0, 9.0, 1.0];
        let similar = interpolated_spectrum(&data, SimilarityLevel::similar(), 10.0).unwrap();
        assert!((similar[0] - 9.0).abs() < 1e-9);
        assert!((similar[2] - 0.1).abs() < 1e-9);

        let flat = interpolated_spectrum(&data, SimilarityLevel::independent(), 9.0).unwrap();
        for &v in &flat {
            assert!((v - 3.0).abs() < 1e-9);
        }

        let anti = interpolated_spectrum(&data, SimilarityLevel::anti_similar(), 10.0).unwrap();
        assert!((anti[0] - 0.1).abs() < 1e-9);
        assert!((anti[2] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn interpolated_spectrum_validation() {
        assert!(interpolated_spectrum(&[], SimilarityLevel::similar(), 1.0).is_err());
        assert!(interpolated_spectrum(&[1.0, -1.0], SimilarityLevel::similar(), 1.0).is_err());
        assert!(interpolated_spectrum(&[1.0], SimilarityLevel::similar(), 0.0).is_err());
    }

    #[test]
    fn independent_level_is_isotropic_in_any_basis() {
        // A flat spectrum recomposed in any orthonormal basis is σ² I: the
        // original i.i.d. scheme.
        let data = vec![50.0, 20.0, 5.0, 1.0];
        let flat = interpolated_spectrum(&data, SimilarityLevel::independent(), 12.0).unwrap();
        for seed in [1, 2, 3] {
            let q = random_orthogonal(4, &mut seeded_rng(seed)).unwrap();
            let cov = noise_covariance(&q, &flat).unwrap();
            assert!(cov.approx_eq(&Matrix::identity(4).scale(3.0), 1e-12));
        }
    }

    #[test]
    fn noise_covariance_has_the_spectrum_along_the_basis() {
        // Σ_r q_j = λ_j q_j for every basis column q_j.
        let q = random_orthogonal(5, &mut seeded_rng(8)).unwrap();
        let spectrum = [9.0, 4.0, 2.0, 1.0, 0.5];
        let cov = noise_covariance(&q, &spectrum).unwrap();
        for (j, &lambda) in spectrum.iter().enumerate() {
            let qj = q.column(j);
            let image = cov.matvec(&qj).unwrap();
            for (got, want) in image.iter().zip(&qj) {
                assert!((got - lambda * want).abs() < 1e-12, "column {j}");
            }
        }
    }

    #[test]
    fn noise_covariance_has_requested_trace_and_symmetry() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 100.0, 6, 1.0).unwrap();
        let mut rng = seeded_rng(4);
        let q = random_orthogonal(6, &mut rng).unwrap();
        let noise_spec =
            interpolated_spectrum(spectrum.values(), SimilarityLevel::new(0.7).unwrap(), 60.0)
                .unwrap();
        let cov = noise_covariance(&q, &noise_spec).unwrap();
        assert!(cov.is_symmetric(1e-9));
        assert!((cov.trace() - 60.0).abs() < 1e-8);
        // Dimension mismatch rejected.
        assert!(noise_covariance(&q, &[1.0, 2.0]).is_err());
        assert!(noise_covariance(&q, &[0.0; 6]).is_err());
    }
}
