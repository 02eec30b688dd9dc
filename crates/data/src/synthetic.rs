//! Synthetic workload generation (Section 7.1 of the paper).
//!
//! The paper evaluates the reconstruction attacks on synthetic data whose
//! correlation structure is controlled precisely. The generation procedure is:
//!
//! 1. specify a diagonal matrix `Λ` of eigenvalues (the spectrum);
//! 2. generate a random orthogonal matrix `Q` with Gram–Schmidt
//!    orthonormalization of a random Gaussian matrix — its columns become the
//!    eigenvectors;
//! 3. form the covariance matrix `C = Q Λ Qᵀ`;
//! 4. sample `n` records from the multivariate normal `N(0, C)` (the Matlab
//!    `mvnrnd` step);
//! 5. later, add random noise to obtain the disguised data set (that step
//!    lives in `randrecon-noise`).
//!
//! This module implements steps 1–4 and exposes the intermediate pieces (the
//! eigenbasis and the exact covariance) because the correlated-noise defense
//! of Section 8 reuses the *data's* eigenvectors with a different spectrum.

use crate::error::{DataError, Result};
use crate::table::DataTable;
use rand::Rng;
use randrecon_linalg::decomposition::recompose;
use randrecon_linalg::gram_schmidt::orthonormalize_columns;
use randrecon_linalg::Matrix;
use randrecon_stats::mvn::MultivariateNormal;
use randrecon_stats::rng::{seeded_rng, standard_normal_fill};
use serde::{Deserialize, Serialize};

/// An eigenvalue spectrum for a synthetic covariance matrix.
///
/// The number of "large" eigenvalues controls how many principal components
/// the data has, and therefore how correlated (redundant) the attributes are.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EigenSpectrum {
    eigenvalues: Vec<f64>,
}

impl EigenSpectrum {
    /// Creates a spectrum from explicit eigenvalues (all must be positive and finite).
    pub fn new(eigenvalues: Vec<f64>) -> Result<Self> {
        if eigenvalues.is_empty() {
            return Err(DataError::InvalidWorkload {
                reason: "eigenvalue spectrum must be non-empty".to_string(),
            });
        }
        if eigenvalues.iter().any(|&l| !(l > 0.0 && l.is_finite())) {
            return Err(DataError::InvalidWorkload {
                reason: "all eigenvalues must be positive and finite".to_string(),
            });
        }
        Ok(EigenSpectrum { eigenvalues })
    }

    /// The paper's canonical workload: the first `p` eigenvalues equal
    /// `principal`, the remaining `m - p` equal `small` (with `small ≪ principal`).
    pub fn principal_plus_small(p: usize, principal: f64, m: usize, small: f64) -> Result<Self> {
        if p == 0 || p > m {
            return Err(DataError::InvalidWorkload {
                reason: format!("need 1 <= p <= m, got p = {p}, m = {m}"),
            });
        }
        let mut eigenvalues = vec![principal; p];
        eigenvalues.extend(std::iter::repeat_n(small, m - p));
        EigenSpectrum::new(eigenvalues)
    }

    /// The workload used by Experiments 1 and 2: `m - p` non-principal
    /// eigenvalues stay fixed at `small`, and the `p` principal eigenvalues
    /// are set so the *total* variance equals `total_variance` (hence the
    /// average per-attribute variance, and with it the UDR baseline, stays
    /// constant across a sweep over `m` or `p` — Equation 12 of the paper).
    pub fn principal_filling_total(
        p: usize,
        m: usize,
        small: f64,
        total_variance: f64,
    ) -> Result<Self> {
        if p == 0 || p > m {
            return Err(DataError::InvalidWorkload {
                reason: format!("need 1 <= p <= m, got p = {p}, m = {m}"),
            });
        }
        if small <= 0.0
            || !small.is_finite()
            || total_variance <= 0.0
            || !total_variance.is_finite()
        {
            return Err(DataError::InvalidWorkload {
                reason: "small eigenvalue and total variance must be positive and finite"
                    .to_string(),
            });
        }
        let remaining = total_variance - small * (m - p) as f64;
        let principal = remaining / p as f64;
        if principal <= small {
            return Err(DataError::InvalidWorkload {
                reason: format!(
                    "total variance {total_variance} is too small to give the {p} principal eigenvalues more weight than the non-principal value {small}"
                ),
            });
        }
        let mut eigenvalues = vec![principal; p];
        eigenvalues.extend(std::iter::repeat_n(small, m - p));
        EigenSpectrum::new(eigenvalues)
    }

    /// Rescales the spectrum so that its sum (the total variance, i.e. the
    /// covariance trace) equals `target`.
    ///
    /// Experiments 1 and 2 keep the total variance constant while changing the
    /// number of attributes / principal components so that the UDR baseline
    /// stays flat (Equation (12) of the paper: Σλᵢ = Σ aᵢᵢ).
    pub fn with_total_variance(&self, target: f64) -> Result<Self> {
        if !(target > 0.0 && target.is_finite()) {
            return Err(DataError::InvalidWorkload {
                reason: format!("target total variance must be positive, got {target}"),
            });
        }
        let current = self.total_variance();
        let scale = target / current;
        EigenSpectrum::new(self.eigenvalues.iter().map(|&l| l * scale).collect())
    }

    /// Number of eigenvalues (the number of attributes `m`).
    pub fn len(&self) -> usize {
        self.eigenvalues.len()
    }

    /// True when the spectrum is empty (never the case for a constructed spectrum).
    pub fn is_empty(&self) -> bool {
        self.eigenvalues.is_empty()
    }

    /// The eigenvalues.
    pub fn values(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Sum of the eigenvalues = trace of the covariance = total variance.
    pub fn total_variance(&self) -> f64 {
        self.eigenvalues.iter().sum()
    }

    /// Average per-attribute variance (total variance / m).
    pub fn mean_variance(&self) -> f64 {
        self.total_variance() / self.len() as f64
    }
}

/// Generates a random `m × m` orthogonal matrix by Gram–Schmidt
/// orthonormalization of an i.i.d. Gaussian matrix.
pub fn random_orthogonal<R: Rng + ?Sized>(m: usize, rng: &mut R) -> Result<Matrix> {
    if m == 0 {
        return Err(DataError::InvalidWorkload {
            reason: "cannot build a 0-dimensional orthogonal matrix".to_string(),
        });
    }
    // A Gaussian matrix is almost surely full rank; retry a few times to be safe.
    for _ in 0..8 {
        let mut candidate = Matrix::zeros(m, m);
        standard_normal_fill(candidate.as_mut_slice(), rng);
        if let Ok(q) = orthonormalize_columns(&candidate) {
            return Ok(q);
        }
    }
    Err(DataError::InvalidWorkload {
        reason: "failed to generate a random orthogonal basis (degenerate draws)".to_string(),
    })
}

/// Builds a covariance matrix `C = Q Λ Qᵀ` from a spectrum and an orthonormal basis.
pub fn covariance_from_spectrum(spectrum: &EigenSpectrum, eigenvectors: &Matrix) -> Result<Matrix> {
    if eigenvectors.rows() != spectrum.len() || eigenvectors.cols() != spectrum.len() {
        return Err(DataError::InvalidWorkload {
            reason: format!(
                "eigenvector matrix is {}x{} but the spectrum has {} eigenvalues",
                eigenvectors.rows(),
                eigenvectors.cols(),
                spectrum.len()
            ),
        });
    }
    Ok(recompose(spectrum.values(), eigenvectors))
}

/// A generated synthetic data set together with the ground-truth structure it
/// was generated from.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The generated records (`n × m`).
    pub table: DataTable,
    /// The exact covariance matrix used for generation.
    pub covariance: Matrix,
    /// The orthonormal eigenvector basis `Q` (columns are eigenvectors).
    pub eigenvectors: Matrix,
    /// The eigenvalue spectrum `Λ`.
    pub eigenvalues: Vec<f64>,
}

impl SyntheticDataset {
    /// Generates `n` zero-mean records from the given spectrum using the seed.
    pub fn generate(spectrum: &EigenSpectrum, n: usize, seed: u64) -> Result<Self> {
        Self::generate_with_mean(spectrum, &vec![0.0; spectrum.len()], n, seed)
    }

    /// Generates `n` records with the given mean vector.
    pub fn generate_with_mean(
        spectrum: &EigenSpectrum,
        mean: &[f64],
        n: usize,
        seed: u64,
    ) -> Result<Self> {
        if n < 2 {
            return Err(DataError::InvalidWorkload {
                reason: format!("need at least 2 records, got {n}"),
            });
        }
        if mean.len() != spectrum.len() {
            return Err(DataError::InvalidWorkload {
                reason: format!(
                    "mean vector has length {} but the spectrum has {} attributes",
                    mean.len(),
                    spectrum.len()
                ),
            });
        }
        let mut rng = seeded_rng(seed);
        let q = random_orthogonal(spectrum.len(), &mut rng)?;
        let covariance = covariance_from_spectrum(spectrum, &q)?;
        let mvn = MultivariateNormal::new(mean.to_vec(), covariance.clone())?;
        let values = mvn.sample_matrix(n, &mut rng);
        let table = DataTable::from_matrix(values)?;
        Ok(SyntheticDataset {
            table,
            covariance,
            eigenvectors: q,
            eigenvalues: spectrum.values().to_vec(),
        })
    }

    /// Number of attributes.
    pub fn n_attributes(&self) -> usize {
        self.table.n_attributes()
    }

    /// Number of records.
    pub fn n_records(&self) -> usize {
        self.table.n_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_linalg::decomposition::SymmetricEigen;
    use randrecon_linalg::gram_schmidt::orthonormality_defect;

    #[test]
    fn spectrum_construction_and_validation() {
        assert!(EigenSpectrum::new(vec![]).is_err());
        assert!(EigenSpectrum::new(vec![1.0, -1.0]).is_err());
        assert!(EigenSpectrum::new(vec![1.0, f64::NAN]).is_err());
        let s = EigenSpectrum::principal_plus_small(2, 400.0, 5, 4.0).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.values(), &[400.0, 400.0, 4.0, 4.0, 4.0]);
        assert_eq!(s.total_variance(), 812.0);
        assert!((s.mean_variance() - 162.4).abs() < 1e-12);
        assert!(!s.is_empty());
        assert!(EigenSpectrum::principal_plus_small(0, 1.0, 5, 1.0).is_err());
        assert!(EigenSpectrum::principal_plus_small(6, 1.0, 5, 1.0).is_err());
    }

    #[test]
    fn principal_filling_total_keeps_small_fixed() {
        let s = EigenSpectrum::principal_filling_total(5, 100, 4.0, 100.0 * 100.0).unwrap();
        assert_eq!(s.len(), 100);
        assert!((s.total_variance() - 10_000.0).abs() < 1e-9);
        assert_eq!(s.values()[99], 4.0);
        // principal = (10000 - 95*4)/5 = 1924.
        assert!((s.values()[0] - 1_924.0).abs() < 1e-9);

        // p = m: flat spectrum at the mean variance.
        let flat = EigenSpectrum::principal_filling_total(10, 10, 4.0, 1_000.0).unwrap();
        assert!(flat.values().iter().all(|&l| (l - 100.0).abs() < 1e-9));

        assert!(EigenSpectrum::principal_filling_total(0, 5, 4.0, 100.0).is_err());
        assert!(EigenSpectrum::principal_filling_total(6, 5, 4.0, 100.0).is_err());
        assert!(EigenSpectrum::principal_filling_total(1, 100, 4.0, 300.0).is_err());
        assert!(EigenSpectrum::principal_filling_total(1, 2, 0.0, 10.0).is_err());
    }

    #[test]
    fn rescaling_total_variance() {
        let s = EigenSpectrum::principal_plus_small(2, 10.0, 4, 1.0).unwrap();
        let scaled = s.with_total_variance(44.0).unwrap();
        assert!((scaled.total_variance() - 44.0).abs() < 1e-9);
        // Relative structure preserved.
        assert!((scaled.values()[0] / scaled.values()[3] - 10.0).abs() < 1e-9);
        assert!(s.with_total_variance(0.0).is_err());
    }

    #[test]
    fn random_orthogonal_is_orthogonal() {
        let mut rng = seeded_rng(9);
        let q = random_orthogonal(12, &mut rng).unwrap();
        assert!(orthonormality_defect(&q) < 1e-10);
        assert!(random_orthogonal(0, &mut rng).is_err());
    }

    #[test]
    fn covariance_has_requested_spectrum() {
        let spectrum = EigenSpectrum::principal_plus_small(3, 100.0, 8, 2.0).unwrap();
        let mut rng = seeded_rng(13);
        let q = random_orthogonal(8, &mut rng).unwrap();
        let cov = covariance_from_spectrum(&spectrum, &q).unwrap();
        assert!(cov.is_symmetric(1e-9));
        assert!((cov.trace() - spectrum.total_variance()).abs() < 1e-8);
        let eig = SymmetricEigen::new(&cov).unwrap();
        // Eigenvalues should match the requested spectrum (sorted descending).
        let mut requested = spectrum.values().to_vec();
        requested.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (got, want) in eig.eigenvalues.iter().zip(requested.iter()) {
            assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
        }
        // Dimension mismatch rejected.
        let small_q = Matrix::identity(3);
        assert!(covariance_from_spectrum(&spectrum, &small_q).is_err());
    }

    #[test]
    fn generated_dataset_matches_covariance_statistically() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 50.0, 6, 1.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 4_000, 7).unwrap();
        assert_eq!(ds.n_attributes(), 6);
        assert_eq!(ds.n_records(), 4_000);
        let sample_cov = ds.table.covariance_matrix();
        // Frobenius-relative error of the sample covariance should be modest.
        let diff = sample_cov.sub(&ds.covariance).unwrap().frobenius_norm();
        let rel = diff / ds.covariance.frobenius_norm();
        assert!(rel < 0.15, "relative covariance error {rel}");
        // Trace of the sample covariance close to the spectrum total.
        assert!(
            (sample_cov.trace() - spectrum.total_variance()).abs() / spectrum.total_variance()
                < 0.15
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 10.0, 4, 1.0).unwrap();
        let a = SyntheticDataset::generate(&spectrum, 50, 123).unwrap();
        let b = SyntheticDataset::generate(&spectrum, 50, 123).unwrap();
        let c = SyntheticDataset::generate(&spectrum, 50, 124).unwrap();
        assert!(a.table.approx_eq(&b.table, 0.0));
        assert!(!a.table.approx_eq(&c.table, 1e-9));
    }

    #[test]
    fn generate_with_mean_and_validation() {
        let spectrum = EigenSpectrum::principal_plus_small(1, 5.0, 3, 1.0).unwrap();
        let ds =
            SyntheticDataset::generate_with_mean(&spectrum, &[10.0, -5.0, 0.0], 2_000, 3).unwrap();
        let means = ds.table.mean_vector();
        assert!((means[0] - 10.0).abs() < 0.3);
        assert!((means[1] + 5.0).abs() < 0.3);
        assert!(SyntheticDataset::generate_with_mean(&spectrum, &[0.0], 100, 1).is_err());
        assert!(SyntheticDataset::generate(&spectrum, 1, 1).is_err());
    }
}
