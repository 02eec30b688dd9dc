//! The public noise model an adversary is assumed to know.
//!
//! In the randomization approach to privacy-preserving data mining, the noise
//! distribution is published so that miners can reconstruct *aggregate*
//! statistics (Agrawal–Srikant). The attacks therefore treat the noise model
//! as known. [`NoiseModel`] captures the three cases this workspace supports.

use crate::error::{NoiseError, Result};
use randrecon_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Public description of the additive noise used to disguise a data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NoiseModel {
    /// Independent zero-mean Gaussian noise with the same standard deviation on
    /// every attribute (the classic random-perturbation setting).
    IndependentGaussian {
        /// Standard deviation σ of the noise.
        sigma: f64,
    },
    /// Independent zero-mean uniform noise with the same standard deviation on
    /// every attribute (half-width σ·√3).
    IndependentUniform {
        /// Standard deviation σ of the noise.
        sigma: f64,
    },
    /// Zero-mean multivariate Gaussian noise with an arbitrary covariance —
    /// the improved randomization scheme of Section 8.
    Correlated {
        /// Covariance matrix Σ_r of the noise vector.
        covariance: Matrix,
    },
}

impl NoiseModel {
    /// Creates an independent Gaussian noise model, validating σ > 0.
    pub fn independent_gaussian(sigma: f64) -> Result<Self> {
        validate_sigma(sigma)?;
        Ok(NoiseModel::IndependentGaussian { sigma })
    }

    /// Creates an independent uniform noise model, validating σ > 0.
    pub fn independent_uniform(sigma: f64) -> Result<Self> {
        validate_sigma(sigma)?;
        Ok(NoiseModel::IndependentUniform { sigma })
    }

    /// Creates a correlated Gaussian noise model, validating the covariance is
    /// square and symmetric.
    pub fn correlated(covariance: Matrix) -> Result<Self> {
        if !covariance.is_square() {
            return Err(NoiseError::InvalidParameter {
                reason: format!(
                    "noise covariance must be square, got {}x{}",
                    covariance.rows(),
                    covariance.cols()
                ),
            });
        }
        let tol = 1e-8 * covariance.max_abs().max(1.0);
        if !covariance.is_symmetric(tol) {
            return Err(NoiseError::InvalidParameter {
                reason: "noise covariance must be symmetric".to_string(),
            });
        }
        Ok(NoiseModel::Correlated { covariance })
    }

    /// Per-attribute noise variance when the noise is i.i.d. across attributes
    /// (`None` for the correlated model, whose variance varies per attribute).
    pub fn iid_variance(&self) -> Option<f64> {
        match self {
            NoiseModel::IndependentGaussian { sigma }
            | NoiseModel::IndependentUniform { sigma } => Some(sigma * sigma),
            NoiseModel::Correlated { .. } => None,
        }
    }

    /// The noise covariance matrix for an `m`-attribute data set.
    ///
    /// For independent models this is `σ² I`; for the correlated model it is
    /// the stored Σ_r (whose dimension must equal `m`).
    pub fn covariance(&self, m: usize) -> Result<Matrix> {
        match self {
            NoiseModel::IndependentGaussian { sigma }
            | NoiseModel::IndependentUniform { sigma } => {
                Ok(Matrix::identity(m).scale(sigma * sigma))
            }
            NoiseModel::Correlated { covariance } => {
                if covariance.rows() != m {
                    return Err(NoiseError::DimensionMismatch {
                        reason: format!(
                            "noise covariance is {}x{} but the data has {m} attributes",
                            covariance.rows(),
                            covariance.cols()
                        ),
                    });
                }
                Ok(covariance.clone())
            }
        }
    }

    /// Marginal noise variance of attribute `j` in an `m`-attribute data set.
    pub fn marginal_variance(&self, j: usize, m: usize) -> Result<f64> {
        match self {
            NoiseModel::IndependentGaussian { sigma }
            | NoiseModel::IndependentUniform { sigma } => {
                if j >= m {
                    return Err(NoiseError::DimensionMismatch {
                        reason: format!("attribute index {j} out of bounds for m = {m}"),
                    });
                }
                Ok(sigma * sigma)
            }
            NoiseModel::Correlated { covariance } => {
                if j >= covariance.rows() || covariance.rows() != m {
                    return Err(NoiseError::DimensionMismatch {
                        reason: format!(
                            "attribute index {j} out of bounds for a {}x{} noise covariance (m = {m})",
                            covariance.rows(),
                            covariance.cols()
                        ),
                    });
                }
                Ok(covariance.get(j, j))
            }
        }
    }
}

fn validate_sigma(sigma: f64) -> Result<()> {
    if !(sigma > 0.0 && sigma.is_finite()) {
        return Err(NoiseError::InvalidParameter {
            reason: format!("noise standard deviation must be positive and finite, got {sigma}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(NoiseModel::independent_gaussian(0.0).is_err());
        assert!(NoiseModel::independent_gaussian(-1.0).is_err());
        assert!(NoiseModel::independent_uniform(f64::NAN).is_err());
        assert!(NoiseModel::independent_gaussian(2.0).is_ok());
        assert!(NoiseModel::correlated(Matrix::zeros(2, 3)).is_err());
        let asym = Matrix::from_rows(&[&[1.0, 0.5][..], &[0.0, 1.0][..]]).unwrap();
        assert!(NoiseModel::correlated(asym).is_err());
        assert!(NoiseModel::correlated(Matrix::identity(3)).is_ok());
    }

    #[test]
    fn iid_variance_and_independence() {
        let g = NoiseModel::independent_gaussian(3.0).unwrap();
        assert_eq!(g.iid_variance(), Some(9.0));
        let u = NoiseModel::independent_uniform(2.0).unwrap();
        assert_eq!(u.iid_variance(), Some(4.0));
        let c = NoiseModel::correlated(Matrix::identity(2)).unwrap();
        assert_eq!(c.iid_variance(), None);
    }

    #[test]
    fn covariance_shapes() {
        let g = NoiseModel::independent_gaussian(2.0).unwrap();
        let cov = g.covariance(3).unwrap();
        assert_eq!(cov.shape(), (3, 3));
        assert_eq!(cov.get(0, 0), 4.0);
        assert_eq!(cov.get(0, 1), 0.0);

        let sr = Matrix::from_rows(&[&[2.0, 0.5][..], &[0.5, 1.0][..]]).unwrap();
        let c = NoiseModel::correlated(sr.clone()).unwrap();
        assert_eq!(c.covariance(2).unwrap(), sr);
        assert!(c.covariance(3).is_err());
    }

    #[test]
    fn marginal_variance_is_the_covariance_diagonal() {
        let sr = Matrix::from_rows(&[
            &[2.0, 0.5, 0.0][..],
            &[0.5, 1.0, 0.3][..],
            &[0.0, 0.3, 4.0][..],
        ])
        .unwrap();
        for model in [
            NoiseModel::independent_gaussian(1.5).unwrap(),
            NoiseModel::independent_uniform(0.5).unwrap(),
            NoiseModel::correlated(sr).unwrap(),
        ] {
            let cov = model.covariance(3).unwrap();
            for j in 0..3 {
                assert_eq!(model.marginal_variance(j, 3).unwrap(), cov.get(j, j));
            }
        }
    }

    #[test]
    fn marginal_variances() {
        let g = NoiseModel::independent_uniform(2.0).unwrap();
        assert_eq!(g.marginal_variance(1, 4).unwrap(), 4.0);
        assert!(g.marginal_variance(4, 4).is_err());

        let sr = Matrix::from_rows(&[&[2.0, 0.5][..], &[0.5, 1.0][..]]).unwrap();
        let c = NoiseModel::correlated(sr).unwrap();
        assert_eq!(c.marginal_variance(1, 2).unwrap(), 1.0);
        assert!(c.marginal_variance(0, 3).is_err());
    }
}
