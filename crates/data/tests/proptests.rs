//! Property-based tests for the data layer: table invariants, CSV round-trips
//! and the synthetic workload generator.

use proptest::prelude::*;
use randrecon_data::csv::{from_csv_string, to_csv_string};
use randrecon_data::synthetic::{covariance_from_spectrum, random_orthogonal, EigenSpectrum};
use randrecon_data::DataTable;
use randrecon_linalg::decomposition::SymmetricEigen;
use randrecon_linalg::gram_schmidt::orthonormality_defect;
use randrecon_linalg::Matrix;
use randrecon_stats::rng::seeded_rng;

fn arbitrary_table(rows: usize, cols: usize) -> impl Strategy<Value = DataTable> {
    proptest::collection::vec(-1_000.0f64..1_000.0, rows * cols).prop_map(move |data| {
        DataTable::from_matrix(Matrix::from_flat(rows, cols, data).unwrap()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Centering makes every column mean (numerically) zero and adding the
    /// means back restores the original table exactly.
    #[test]
    fn centering_roundtrip(table in arbitrary_table(7, 3)) {
        let (centered, means) = table.centered();
        for m in centered.mean_vector() {
            prop_assert!(m.abs() < 1e-9);
        }
        let restored = centered.with_means_added(&means).unwrap();
        prop_assert!(restored.approx_eq(&table, 1e-9));
    }

    /// The sample covariance matrix of any table is symmetric with
    /// non-negative diagonal entries.
    #[test]
    fn covariance_is_symmetric_psd_diagonal(table in arbitrary_table(9, 4)) {
        let cov = table.covariance_matrix();
        prop_assert!(cov.is_symmetric(1e-6));
        for j in 0..4 {
            prop_assert!(cov.get(j, j) >= -1e-9);
        }
    }

    /// CSV serialization round-trips every finite value.
    #[test]
    fn csv_roundtrip(table in arbitrary_table(6, 3)) {
        let text = to_csv_string(&table);
        let parsed = from_csv_string(&text).unwrap();
        prop_assert!(parsed.approx_eq(&table, 1e-9));
    }

    /// A covariance built from a prescribed spectrum has exactly that spectrum
    /// (up to fp error), whatever the random basis.
    #[test]
    fn spectrum_roundtrips_through_covariance(
        p in 1usize..4,
        m in 4usize..10,
        principal in 10.0f64..500.0,
        small in 0.5f64..5.0,
        seed in 0u64..10_000,
    ) {
        let p = p.min(m);
        let spectrum = EigenSpectrum::principal_plus_small(p, principal, m, small).unwrap();
        let mut rng = seeded_rng(seed);
        let q = random_orthogonal(m, &mut rng).unwrap();
        prop_assert!(orthonormality_defect(&q) < 1e-8);
        let cov = covariance_from_spectrum(&spectrum, &q).unwrap();
        prop_assert!((cov.trace() - spectrum.total_variance()).abs() < 1e-6 * spectrum.total_variance());
        let eig = SymmetricEigen::new(&cov).unwrap();
        let mut want = spectrum.values().to_vec();
        want.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (got, want) in eig.eigenvalues.iter().zip(want.iter()) {
            prop_assert!((got - want).abs() < 1e-6 * want.max(1.0));
        }
    }

    /// `principal_filling_total` always hits the requested total variance and
    /// keeps the non-principal value fixed.
    #[test]
    fn filling_total_invariants(
        p in 1usize..6,
        extra in 0usize..10,
        small in 0.5f64..5.0,
        mean_variance in 50.0f64..300.0,
    ) {
        let m = p + extra;
        let total = mean_variance * m as f64;
        let spectrum = EigenSpectrum::principal_filling_total(p, m, small, total).unwrap();
        prop_assert_eq!(spectrum.len(), m);
        prop_assert!((spectrum.total_variance() - total).abs() < 1e-9 * total);
        if extra > 0 {
            prop_assert!((spectrum.values()[m - 1] - small).abs() < 1e-12);
            prop_assert!(spectrum.values()[0] > small);
        }
    }

    /// `head` never changes the records it keeps.
    #[test]
    fn head_is_a_prefix(table in arbitrary_table(8, 2), k in 0usize..12) {
        let head = table.head(k);
        prop_assert_eq!(head.n_records(), k.min(8));
        for i in 0..head.n_records() {
            prop_assert_eq!(head.record(i), table.record(i));
        }
    }
}
