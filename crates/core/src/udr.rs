//! UDR — Univariate Distribution-based Reconstruction (Section 4.2).
//!
//! UDR treats every attribute independently. For each disguised value `y` it
//! returns the posterior mean `E[X | Y = y]`, which Theorem 4.1 shows is the
//! mean-square-optimal guess. Computing the posterior requires an estimate of
//! the original attribute's distribution `f_X`; two estimation strategies are
//! provided:
//!
//! * [`PriorEstimation::GaussianMoments`] — assume `X` is Gaussian per
//!   attribute, with mean equal to the disguised mean and variance equal to the
//!   disguised variance minus the noise variance (Theorem 5.1 applied to the
//!   diagonal). With Gaussian noise the posterior mean then has a closed form;
//!   with uniform noise it is a 600-point quadrature whose grid and prior
//!   weights are tabulated once per attribute, each value summing only the
//!   grid points inside its noise window.
//! * [`PriorEstimation::AgrawalSrikant`] — reconstruct `f_X` non-parametrically
//!   with the Agrawal–Srikant iterative algorithm and evaluate the posterior
//!   against the resulting histogram. Slower but makes no normality assumption.
//!
//! Because UDR ignores inter-attribute correlation entirely, it is the
//! baseline every correlation-exploiting scheme (PCA-DR, SF, BE-DR) is
//! compared against in the paper's figures.

use crate::error::{ReconError, Result};
use crate::traits::{validate_input, Reconstructor};
use randrecon_data::DataTable;
use randrecon_linalg::Matrix;
use randrecon_noise::NoiseModel;
use randrecon_stats::distributions::{Normal, Uniform};
use randrecon_stats::posterior::{histogram_posterior_mean, prior_variance, PreparedPosterior};
use randrecon_stats::reconstruction::{reconstruct_distribution, ReconstructionConfig};
use randrecon_stats::summary;

/// How UDR estimates the per-attribute prior `f_X`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PriorEstimation {
    /// Gaussian prior with moments estimated from the disguised data
    /// (`μ̂_x = mean(Y)`, `σ̂²_x = var(Y) − σ²_r`).
    #[default]
    GaussianMoments,
    /// Non-parametric prior reconstructed with the Agrawal–Srikant iteration.
    AgrawalSrikant(ReconstructionConfig),
}

/// The univariate (per-attribute) Bayes reconstruction attack.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Udr {
    /// Prior-estimation strategy.
    pub prior: PriorEstimation,
}

impl Udr {
    /// UDR with a Gaussian-moments prior (the default, and the variant used in
    /// the paper's experiments where the data are multivariate normal).
    pub fn gaussian_prior() -> Self {
        Udr {
            prior: PriorEstimation::GaussianMoments,
        }
    }

    /// UDR with the Agrawal–Srikant non-parametric prior.
    pub fn agrawal_srikant_prior(config: ReconstructionConfig) -> Self {
        Udr {
            prior: PriorEstimation::AgrawalSrikant(config),
        }
    }

    /// Reconstructs attribute `attribute`, whose values are `column`.
    fn reconstruct_column(
        &self,
        attribute: usize,
        column: &[f64],
        noise_variance: f64,
        gaussian_noise: bool,
    ) -> Result<Vec<f64>> {
        let sigma_r = noise_variance.sqrt();
        match self.prior {
            PriorEstimation::GaussianMoments => {
                let mu = summary::mean(column);
                // Theorem 5.1 on the diagonal: var(X) ≈ var(Y) − σ²_r. Clamp at
                // zero: a non-positive estimate means the attribute is pure
                // noise, and the best guess is the mean. The prepared
                // posterior (closed-form shrinkage for Gaussian noise, a
                // tabulated grid quadrature for uniform) is the same kernel
                // the streaming UDR maps over chunks. Moments it refuses (a
                // non-finite value in the column) fail located at the
                // attribute, and a value it cannot answer at its record.
                let var_x = prior_variance(summary::variance(column), noise_variance);
                let posterior =
                    PreparedPosterior::gaussian_moments(mu, var_x, noise_variance, gaussian_noise)
                        .map_err(|source| ReconError::AtAttribute { attribute, source })?;
                column
                    .iter()
                    .enumerate()
                    .map(|(row, &y)| {
                        posterior.apply(y).map_err(|source| ReconError::AtValue {
                            attribute,
                            row,
                            source,
                        })
                    })
                    .collect()
            }
            PriorEstimation::AgrawalSrikant(config) => {
                if gaussian_noise {
                    let noise = Normal::new(0.0, sigma_r)?;
                    let rec = reconstruct_distribution(column, &noise, &config)?;
                    Ok(column
                        .iter()
                        .map(|&y| histogram_posterior_mean(y, &rec.density, &noise))
                        .collect())
                } else {
                    let noise = Uniform::centered_with_std(sigma_r)?;
                    let rec = reconstruct_distribution(column, &noise, &config)?;
                    Ok(column
                        .iter()
                        .map(|&y| histogram_posterior_mean(y, &rec.density, &noise))
                        .collect())
                }
            }
        }
    }
}

impl Reconstructor for Udr {
    fn name(&self) -> &'static str {
        "UDR"
    }

    fn reconstruct(&self, disguised: &DataTable, noise: &NoiseModel) -> Result<DataTable> {
        validate_input(disguised, noise)?;
        let (n, m) = disguised.values().shape();
        let gaussian_noise = !matches!(noise, NoiseModel::IndependentUniform { .. });
        let mut out = Matrix::zeros(n, m);
        for j in 0..m {
            let column = disguised.column(j);
            let noise_variance = noise.marginal_variance(j, m)?;
            let reconstructed =
                self.reconstruct_column(j, &column, noise_variance, gaussian_noise)?;
            out.set_column(j, &reconstructed);
        }
        Ok(disguised.with_values(out)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndr::Ndr;
    use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
    use randrecon_metrics::rmse;
    use randrecon_noise::additive::AdditiveRandomizer;
    use randrecon_stats::rng::seeded_rng;

    fn workload(m: usize, p: usize, n: usize, seed: u64) -> SyntheticDataset {
        let spectrum = EigenSpectrum::principal_plus_small(p, 400.0, m, 4.0).unwrap();
        SyntheticDataset::generate(&spectrum, n, seed).unwrap()
    }

    #[test]
    fn beats_ndr_under_gaussian_noise() {
        let ds = workload(6, 2, 2_000, 21);
        let randomizer = AdditiveRandomizer::gaussian(8.0).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(22)).unwrap();

        let udr_est = Udr::default()
            .reconstruct(&disguised, randomizer.model())
            .unwrap();
        let ndr_est = Ndr.reconstruct(&disguised, randomizer.model()).unwrap();
        let udr_rmse = rmse(&ds.table, &udr_est).unwrap();
        let ndr_rmse = rmse(&ds.table, &ndr_est).unwrap();
        assert!(
            udr_rmse < ndr_rmse,
            "UDR ({udr_rmse}) should beat NDR ({ndr_rmse})"
        );
        assert_eq!(Udr::default().name(), "UDR");
    }

    #[test]
    fn matches_theoretical_error_for_gaussian_case() {
        // For Gaussian X (variance v) and Gaussian noise (variance s), the
        // posterior-mean estimator has MSE v·s/(v+s) per attribute.
        let ds = workload(4, 4, 30_000, 31); // p = m: attributes nearly uncorrelated
        let sigma = 10.0;
        let randomizer = AdditiveRandomizer::gaussian(sigma).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(32)).unwrap();
        let est = Udr::default()
            .reconstruct(&disguised, randomizer.model())
            .unwrap();
        let got = rmse(&ds.table, &est).unwrap();
        // Per-attribute variance of the data ≈ 400 (4 equal eigenvalues of 400
        // spread over 4 attributes keeps the average diagonal at 400... actually
        // trace = 1600 over 4 attributes = 400 on average).
        let v = 400.0;
        let s = sigma * sigma;
        let expected = (v * s / (v + s)).sqrt();
        assert!(
            (got - expected).abs() / expected < 0.1,
            "got {got}, expected ≈ {expected}"
        );
    }

    #[test]
    fn uniform_noise_reconstruction_beats_ndr() {
        let ds = workload(4, 1, 800, 41);
        let randomizer = AdditiveRandomizer::uniform(10.0).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(42)).unwrap();
        let udr_est = Udr::default()
            .reconstruct(&disguised, randomizer.model())
            .unwrap();
        let udr_rmse = rmse(&ds.table, &udr_est).unwrap();
        let ndr_rmse = rmse(
            &ds.table,
            &Ndr.reconstruct(&disguised, randomizer.model()).unwrap(),
        )
        .unwrap();
        assert!(udr_rmse < ndr_rmse, "UDR {udr_rmse} vs NDR {ndr_rmse}");
    }

    #[test]
    fn agrawal_srikant_prior_works_for_gaussian_noise() {
        let ds = workload(3, 1, 1_000, 51);
        let randomizer = AdditiveRandomizer::gaussian(6.0).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(52)).unwrap();
        let config = ReconstructionConfig {
            bins: 60,
            max_iterations: 50,
            tolerance: 1e-4,
        };
        let attack = Udr::agrawal_srikant_prior(config);
        let est = attack.reconstruct(&disguised, randomizer.model()).unwrap();
        let as_rmse = rmse(&ds.table, &est).unwrap();
        let ndr_rmse = rmse(
            &ds.table,
            &Ndr.reconstruct(&disguised, randomizer.model()).unwrap(),
        )
        .unwrap();
        assert!(
            as_rmse < ndr_rmse,
            "AS-prior UDR {as_rmse} vs NDR {ndr_rmse}"
        );
    }

    #[test]
    fn handles_correlated_noise_via_marginals() {
        let ds = workload(4, 2, 1_000, 61);
        let noise_cov = ds.covariance.scale(0.2);
        let randomizer = AdditiveRandomizer::correlated(noise_cov).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(62)).unwrap();
        let est = Udr::default()
            .reconstruct(&disguised, randomizer.model())
            .unwrap();
        assert_eq!(est.values().shape(), (1_000, 4));
        assert!(!est.values().has_non_finite());
    }

    #[test]
    fn pure_noise_attribute_collapses_to_mean() {
        // Data variance far below the noise variance: UDR should give up and
        // predict (approximately) the mean everywhere.
        let spectrum = EigenSpectrum::principal_plus_small(1, 1.0, 2, 0.5).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 500, 71).unwrap();
        let randomizer = AdditiveRandomizer::gaussian(50.0).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(72)).unwrap();
        let est = Udr::default()
            .reconstruct(&disguised, randomizer.model())
            .unwrap();
        let spread = est
            .column(0)
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            - est.column(0).iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread < 5.0,
            "estimates should cluster near the mean, spread = {spread}"
        );
    }
}
