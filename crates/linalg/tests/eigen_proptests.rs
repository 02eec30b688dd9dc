//! Property tests pinning every spectral path of the symmetric eigensolver.
//!
//! The Householder + implicit-shift QL pipeline replaced cyclic Jacobi on all
//! spectral consumers (PCA-DR, spectral filtering, covariance clipping,
//! bandwidth selection, theory curves), so this suite is the contract that
//! makes the swap safe:
//!
//! * `A·v = λ·v` residuals at most `1e-9 · ‖A‖` on random SPD, indefinite,
//!   and rank-deficient inputs;
//! * orthonormality defect of the eigenvector basis at most `1e-10`;
//! * eigenvalues agree with the pinned Jacobi reference ([`eigen_jacobi`])
//!   to `1e-9` (relative to the matrix scale);
//! * clustered spectra — eigenvalues equal to within `1e-12` — do not lose
//!   eigenvector orthogonality;
//! * deterministic large-m cases up to 512 (the 256/512 Jacobi cross-checks
//!   are `#[ignore]`d and run by the release `--ignored` CI job).
//!
//! Since the QL chase applies its Givens rotations to `Qᵀ` in wave-front
//! batches (buffered rotations replayed over cache-resident column panels),
//! every Jacobi cross-check here also pins the wave kernel: the batched
//! application is bit-identical to the scalar two-row kernel (asserted
//! directly by the unit test in `decomposition::tridiagonal`), so any drift
//! the waves introduced would surface against the Jacobi reference too.

use proptest::prelude::*;
use randrecon_linalg::decomposition::{eigen_jacobi, recompose, SymmetricEigen};
use randrecon_linalg::gram_schmidt::{orthonormality_defect, orthonormalize_columns};
use randrecon_linalg::Matrix;

/// Asserts the full eigensolver contract for one decomposition of `a`.
fn assert_spectral_contract(a: &Matrix, eig: &SymmetricEigen, label: &str) {
    let n = a.rows();
    let scale = a.frobenius_norm().max(1.0);
    // Descending order.
    for w in eig.eigenvalues.windows(2) {
        assert!(w[0] >= w[1], "{label}: eigenvalues not sorted descending");
    }
    // Orthonormal basis.
    let defect = orthonormality_defect(&eig.eigenvectors);
    assert!(defect <= 1e-10, "{label}: orthonormality defect {defect}");
    // A v = λ v for every eigenpair.
    for k in 0..n {
        let v = eig.eigenvectors.column(k);
        let av = a.matvec(&v).unwrap();
        let mut residual_sq = 0.0;
        for (x, &vi) in av.iter().zip(v.iter()) {
            let r = x - eig.eigenvalues[k] * vi;
            residual_sq += r * r;
        }
        let residual = residual_sq.sqrt();
        assert!(
            residual <= 1e-9 * scale,
            "{label}: residual {residual} for eigenpair {k} (scale {scale})"
        );
    }
    // Trace is preserved.
    let trace_err = (eig.total_variance() - a.trace()).abs();
    assert!(
        trace_err <= 1e-9 * scale,
        "{label}: trace drift {trace_err}"
    );
}

/// Asserts that the QL path matches the pinned Jacobi reference eigenvalue by
/// eigenvalue.
fn assert_matches_jacobi(a: &Matrix, eig: &SymmetricEigen, label: &str) {
    let scale = a.frobenius_norm().max(1.0);
    let jac = eigen_jacobi(a).unwrap();
    for (k, (l_ql, l_j)) in eig
        .eigenvalues
        .iter()
        .zip(jac.eigenvalues.iter())
        .enumerate()
    {
        assert!(
            (l_ql - l_j).abs() <= 1e-9 * scale,
            "{label}: eigenvalue {k} differs from Jacobi: {l_ql} vs {l_j}"
        );
    }
}

/// Strategy: a random symmetric (generally indefinite) matrix of size `n`.
fn symmetric_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, n * n)
        .prop_map(move |data| Matrix::from_flat(n, n, data).unwrap().symmetrize().unwrap())
}

/// Strategy: a symmetric positive-definite matrix built as `A Aᵀ + εI`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, n * n).prop_map(move |data| {
        let a = Matrix::from_flat(n, n, data).unwrap();
        let aat = a.matmul_transpose_b(&a).unwrap();
        aat.add(&Matrix::identity(n).scale(0.5)).unwrap()
    })
}

/// Strategy: a rank-deficient PSD matrix `B Bᵀ` with `B` of shape `n × k`,
/// `k < n` (at least `n − k` exactly repeated zero eigenvalues).
fn rank_deficient_matrix(n: usize, k: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, n * k).prop_map(move |data| {
        let b = Matrix::from_flat(n, k, data).unwrap();
        b.matmul_transpose_b(&b).unwrap()
    })
}

/// Builds a symmetric matrix with a prescribed spectrum from random raw data:
/// orthonormalize the raw square matrix into a basis `Q`, then recompose
/// `Q Λ Qᵀ`. Returns `None` when the random draw was too degenerate to
/// orthonormalize (essentially never at these sizes).
fn with_spectrum(raw: Vec<f64>, spectrum: &[f64]) -> Option<Matrix> {
    let n = spectrum.len();
    let candidate = Matrix::from_flat(n, n, raw).unwrap();
    let q = orthonormalize_columns(&candidate).ok()?;
    Some(recompose(spectrum, &q))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spd_matrices_satisfy_contract(a in spd_matrix(16)) {
        let eig = SymmetricEigen::householder_ql(&a).unwrap();
        assert_spectral_contract(&a, &eig, "spd-16");
        assert_matches_jacobi(&a, &eig, "spd-16");
        // All eigenvalues of an SPD matrix are positive.
        prop_assert!(eig.eigenvalues.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn symmetric_indefinite_matrices_satisfy_contract(a in symmetric_matrix(20)) {
        let eig = SymmetricEigen::householder_ql(&a).unwrap();
        assert_spectral_contract(&a, &eig, "indefinite-20");
        assert_matches_jacobi(&a, &eig, "indefinite-20");
    }

    #[test]
    fn small_matrices_agree_with_dispatch(a in symmetric_matrix(7)) {
        // Below the dispatch threshold `new` routes to Jacobi; the explicit QL
        // path must still satisfy the same contract and agree.
        let via_new = SymmetricEigen::new(&a).unwrap();
        let via_ql = SymmetricEigen::householder_ql(&a).unwrap();
        assert_spectral_contract(&a, &via_new, "dispatch-7-new");
        assert_spectral_contract(&a, &via_ql, "dispatch-7-ql");
        let scale = a.frobenius_norm().max(1.0);
        for (x, y) in via_new.eigenvalues.iter().zip(via_ql.eigenvalues.iter()) {
            prop_assert!((x - y).abs() <= 1e-9 * scale);
        }
    }

    #[test]
    fn rank_deficient_matrices_satisfy_contract(a in rank_deficient_matrix(18, 5)) {
        let eig = SymmetricEigen::householder_ql(&a).unwrap();
        assert_spectral_contract(&a, &eig, "rank-deficient-18x5");
        assert_matches_jacobi(&a, &eig, "rank-deficient-18x5");
        // At least n − k zero eigenvalues (up to numerical noise).
        let scale = a.frobenius_norm().max(1.0);
        let near_zero = eig
            .eigenvalues
            .iter()
            .filter(|&&l| l.abs() <= 1e-10 * scale)
            .count();
        prop_assert!(near_zero >= 13, "only {near_zero} near-zero eigenvalues");
    }

    #[test]
    fn clustered_eigenvalues_keep_orthogonality(raw in proptest::collection::vec(-1.0f64..1.0, 16 * 16)) {
        // Three clusters whose members differ by at most 1e-12 — the
        // degenerate-subspace case where a sloppy solver loses orthogonality.
        let mut spectrum = vec![100.0; 5];
        spectrum[1] += 1e-12;
        spectrum[2] -= 1e-12;
        spectrum.extend_from_slice(&[1.0, 1.0 + 1e-12, 1.0, 1.0 - 1e-12]);
        spectrum.extend(std::iter::repeat_n(1e-4, 16 - spectrum.len()));
        if let Some(a) = with_spectrum(raw, &spectrum) {
            let eig = SymmetricEigen::householder_ql(&a).unwrap();
            assert_spectral_contract(&a, &eig, "clustered-16");
            // The recovered spectrum matches the prescribed one.
            let mut want = spectrum.clone();
            want.sort_by(|a, b| b.partial_cmp(a).unwrap());
            for (got, want) in eig.eigenvalues.iter().zip(want.iter()) {
                prop_assert!((got - want).abs() <= 1e-9 * 100.0);
            }
        }
    }

    #[test]
    fn identical_eigenvalues_yield_orthonormal_basis(raw in proptest::collection::vec(-1.0f64..1.0, 12 * 12)) {
        // A scaled identity in disguise: every eigenvalue exactly equal.
        if let Some(a) = with_spectrum(raw, &[7.5; 12]) {
            let eig = SymmetricEigen::householder_ql(&a).unwrap();
            assert_spectral_contract(&a, &eig, "flat-12");
        }
    }
}

/// Deterministic pseudo-random entries (SplitMix64) so the large-m cases are
/// reproducible without proptest.
fn splitmix_entries(len: usize, mut state: u64) -> Vec<f64> {
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// A deterministic covariance-like matrix at dimension `m`: a paper-shaped
/// spectrum (a few principal components at 400, a bulk at 4) in a random
/// orthonormal basis.
fn covariance_workload(m: usize, seed: u64) -> Matrix {
    let mut spectrum = vec![400.0; m / 10 + 1];
    spectrum.extend(std::iter::repeat_n(4.0, m - spectrum.len()));
    with_spectrum(splitmix_entries(m * m, seed), &spectrum).expect("orthonormalization succeeds")
}

#[test]
fn m64_contract_and_jacobi_agreement() {
    let a = covariance_workload(64, 1);
    let eig = SymmetricEigen::new(&a).unwrap();
    assert_spectral_contract(&a, &eig, "m64");
    assert_matches_jacobi(&a, &eig, "m64");
}

#[test]
fn m128_contract_and_jacobi_agreement() {
    let a = covariance_workload(128, 2);
    let eig = SymmetricEigen::new(&a).unwrap();
    assert_spectral_contract(&a, &eig, "m128");
    assert_matches_jacobi(&a, &eig, "m128");
}

#[test]
fn m256_contract() {
    let a = covariance_workload(256, 3);
    let eig = SymmetricEigen::new(&a).unwrap();
    assert_spectral_contract(&a, &eig, "m256");
}

// The Jacobi cross-checks at m ∈ {256, 512} run O(m³ · sweeps) reference
// decompositions — minutes in debug builds, seconds in release — so they ride
// in the release `cargo test --release -- --ignored` CI job.

#[test]
#[ignore = "slow: Jacobi reference at m=256; run with --release -- --ignored"]
fn m256_jacobi_agreement_slow() {
    let a = covariance_workload(256, 3);
    let eig = SymmetricEigen::new(&a).unwrap();
    assert_matches_jacobi(&a, &eig, "m256-slow");
}

#[test]
#[ignore = "slow: m=512 spectral contract + Jacobi reference; run with --release -- --ignored"]
fn m512_contract_and_jacobi_agreement_slow() {
    let a = covariance_workload(512, 4);
    let eig = SymmetricEigen::new(&a).unwrap();
    assert_spectral_contract(&a, &eig, "m512");
    assert_matches_jacobi(&a, &eig, "m512");
}
