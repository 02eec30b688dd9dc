//! Property-based tests for the randomization schemes.

use proptest::prelude::*;
use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
use randrecon_data::DataTable;
use randrecon_linalg::Matrix;
use randrecon_noise::additive::AdditiveRandomizer;
use randrecon_noise::correlated::{interpolated_spectrum, SimilarityLevel};
use randrecon_noise::NoiseModel;
use randrecon_stats::rng::seeded_rng;
use randrecon_stats::summary;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Disguising never changes the shape or schema, and subtracting the
    /// original recovers exactly the noise that was reported.
    #[test]
    fn disguise_is_additive(
        n in 2usize..60,
        m in 1usize..8,
        sigma in 0.5f64..20.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = seeded_rng(seed);
        let table = DataTable::from_matrix(Matrix::from_fn(n, m, |_, _| {
            randrecon_stats::rng::standard_normal(&mut rng) * 10.0
        })).unwrap();
        let randomizer = AdditiveRandomizer::gaussian(sigma).unwrap();
        let (disguised, noise) = randomizer.disguise_with_noise(&table, &mut rng).unwrap();
        prop_assert_eq!(disguised.values().shape(), (n, m));
        prop_assert_eq!(disguised.schema(), table.schema());
        let recovered = disguised.values().sub(table.values()).unwrap();
        prop_assert!(recovered.approx_eq(&noise, 1e-12));
    }

    /// The empirical variance of generated i.i.d. noise matches the model's
    /// declared variance for both Gaussian and uniform noise.
    #[test]
    fn noise_variance_matches_model(sigma in 0.5f64..15.0, uniform in proptest::bool::ANY, seed in 0u64..10_000) {
        let randomizer = if uniform {
            AdditiveRandomizer::uniform(sigma).unwrap()
        } else {
            AdditiveRandomizer::gaussian(sigma).unwrap()
        };
        let noise = randomizer.sample_noise(6_000, 2, &mut seeded_rng(seed)).unwrap();
        let var = summary::variance(&noise.column(0));
        let declared = randomizer.model().iid_variance().unwrap();
        prop_assert!((var - declared).abs() / declared < 0.2,
            "variance {var} vs declared {declared}");
        // Zero mean.
        prop_assert!(summary::mean(&noise.column(1)).abs() < 0.3 * sigma);
    }

    /// Interpolated noise spectra always preserve the requested total variance
    /// and stay strictly positive, for any similarity level.
    #[test]
    fn interpolated_spectrum_total_is_invariant(
        alpha in -1.0f64..1.0,
        total in 1.0f64..500.0,
        m in 2usize..20,
        seed in 0u64..1_000,
    ) {
        let spectrum = EigenSpectrum::principal_plus_small((m / 2).max(1), 100.0, m, 1.0).unwrap();
        let _ = seed;
        let level = SimilarityLevel::new(alpha).unwrap();
        let noise_spec = interpolated_spectrum(spectrum.values(), level, total).unwrap();
        prop_assert_eq!(noise_spec.len(), m);
        prop_assert!(noise_spec.iter().all(|&l| l > 0.0));
        let sum: f64 = noise_spec.iter().sum();
        prop_assert!((sum - total).abs() < 1e-9 * total);
    }

    /// Between the flat spectrum (`alpha = 0`) and either end (`±1`) the
    /// interpolated spectrum moves linearly in `|alpha|`.
    #[test]
    fn interpolated_spectrum_is_linear_in_alpha(
        alpha in -1.0f64..1.0,
        total in 1.0f64..500.0,
        m in 2usize..20,
    ) {
        let spectrum = EigenSpectrum::principal_plus_small((m / 2).max(1), 100.0, m, 1.0).unwrap();
        let at = |level| interpolated_spectrum(spectrum.values(), level, total).unwrap();
        let flat = at(SimilarityLevel::independent());
        let end = at(if alpha >= 0.0 { SimilarityLevel::similar() } else { SimilarityLevel::anti_similar() });
        let mid = at(SimilarityLevel::new(alpha).unwrap());
        let w = alpha.abs();
        for ((&got, &f), &e) in mid.iter().zip(&flat).zip(&end) {
            prop_assert!((got - (w * e + (1.0 - w) * f)).abs() < 1e-9 * total);
        }
    }

    /// The noise covariance reported by the model always matches the noise the
    /// randomizer actually adds (Theorem 5.1 / 8.2 both rely on this).
    #[test]
    fn model_covariance_is_truthful(seed in 0u64..3_000, ratio in 0.05f64..0.5) {
        let spectrum = EigenSpectrum::principal_plus_small(2, 80.0, 4, 2.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 6_000, seed).unwrap();
        let randomizer = AdditiveRandomizer::correlated(ds.covariance.scale(ratio)).unwrap();
        let noise = randomizer.sample_noise(6_000, 4, &mut seeded_rng(seed + 9)).unwrap();
        let empirical = summary::covariance_matrix(&noise);
        let declared = randomizer.model().covariance(4).unwrap();
        let rel = empirical.sub(&declared).unwrap().frobenius_norm() / declared.frobenius_norm();
        prop_assert!(rel < 0.25, "relative covariance error {rel}");
    }

    /// The noise model constructors reject invalid parameters for every input.
    #[test]
    fn invalid_sigmas_always_rejected(sigma in -100.0f64..0.0) {
        prop_assert!(NoiseModel::independent_gaussian(sigma).is_err());
        prop_assert!(NoiseModel::independent_uniform(sigma).is_err());
        prop_assert!(AdditiveRandomizer::gaussian(sigma).is_err());
        prop_assert!(AdditiveRandomizer::uniform(sigma).is_err());
    }
}
