//! Property-based tests for the linear-algebra substrate.
//!
//! These exercise the algebraic invariants the reconstruction attacks rely on:
//! transpose/involution, associativity-ish identities, factorization
//! round-trips, spectral properties, and orthonormality of Gram–Schmidt bases.

use proptest::prelude::*;
use randrecon_linalg::decomposition::{Cholesky, SymmetricEigen};
use randrecon_linalg::gram_schmidt::{orthonormality_defect, orthonormalize_columns};
use randrecon_linalg::Matrix;

/// Strategy: a small matrix with entries in [-10, 10].
fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_flat(rows, cols, data).unwrap())
}

/// Strategy: a symmetric positive-definite matrix built as A Aᵀ + εI.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    small_matrix(n, n).prop_map(move |a| {
        let aat = a.matmul(&a.transpose()).unwrap();
        let eye = Matrix::identity(n).scale(0.5);
        aat.add(&eye).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in small_matrix(4, 3)) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn transpose_of_product_reverses((a, b) in (small_matrix(3, 4), small_matrix(4, 2))) {
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn addition_commutes((a, b) in (small_matrix(3, 3), small_matrix(3, 3))) {
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert!(ab.approx_eq(&ba, 1e-12));
    }

    #[test]
    fn scale_distributes_over_add((a, b) in (small_matrix(3, 3), small_matrix(3, 3))) {
        let s = 2.5;
        let left = a.add(&b).unwrap().scale(s);
        let right = a.scale(s).add(&b.scale(s)).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn trace_is_linear((a, b) in (small_matrix(4, 4), small_matrix(4, 4))) {
        let sum_trace = a.add(&b).unwrap().trace();
        prop_assert!((sum_trace - (a.trace() + b.trace())).abs() < 1e-9);
    }

    #[test]
    fn cholesky_roundtrip(a in spd_matrix(4)) {
        let ch = Cholesky::new(&a).unwrap();
        let rebuilt = ch.l().matmul(&ch.l().transpose()).unwrap();
        prop_assert!(rebuilt.approx_eq(&a, 1e-7 * a.max_abs().max(1.0)));
    }

    #[test]
    fn cholesky_solve_is_correct(a in spd_matrix(4), b in proptest::collection::vec(-5.0f64..5.0, 4)) {
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve_vec(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(b.iter()) {
            prop_assert!((got - want).abs() < 1e-6);
        }
    }

    /// Solving against the identity yields `A⁻¹`, which inverts `A` from
    /// both sides.
    #[test]
    fn cholesky_solve_against_identity_inverts(a in spd_matrix(4)) {
        let eye = Matrix::identity(4);
        let inv = Cholesky::new(&a).unwrap().solve_matrix(&eye).unwrap();
        prop_assert!(a.matmul(&inv).unwrap().approx_eq(&eye, 1e-6));
        prop_assert!(inv.matmul(&a).unwrap().approx_eq(&eye, 1e-6));
    }

    #[test]
    fn eigen_recomposes_and_sorts(a in spd_matrix(5)) {
        let eig = SymmetricEigen::new(&a).unwrap();
        prop_assert!(eig.recompose().approx_eq(&a, 1e-6 * a.max_abs().max(1.0)));
        for w in eig.eigenvalues.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        // SPD => all eigenvalues positive.
        prop_assert!(eig.eigenvalues.iter().all(|&l| l > 0.0));
        // Trace preserved.
        prop_assert!((eig.total_variance() - a.trace()).abs() < 1e-6);
    }

    #[test]
    fn eigenvectors_are_orthonormal(a in spd_matrix(5)) {
        let eig = SymmetricEigen::new(&a).unwrap();
        prop_assert!(orthonormality_defect(&eig.eigenvectors) < 1e-8);
    }

    #[test]
    fn gram_schmidt_produces_orthonormal_columns(a in small_matrix(6, 4)) {
        // Random matrices are almost surely full rank; skip degenerate draws.
        if let Ok(q) = orthonormalize_columns(&a) {
            prop_assert!(orthonormality_defect(&q) < 1e-8);
            prop_assert_eq!(q.shape(), (6, 4));
        }
    }

    /// Gram–Schmidt is a thin QR: `R = QᵀA` is upper triangular and `Q R`
    /// rebuilds `A`.
    #[test]
    fn gram_schmidt_is_a_thin_qr(a in small_matrix(6, 4)) {
        if let Ok(q) = orthonormalize_columns(&a) {
            let r = q.transpose().matmul(&a).unwrap();
            let tol = 1e-8 * a.max_abs().max(1.0);
            for i in 0..4 {
                for j in 0..i {
                    prop_assert!(r.get(i, j).abs() < tol, "R[{}][{}] = {}", i, j, r.get(i, j));
                }
            }
            prop_assert!(q.matmul(&r).unwrap().approx_eq(&a, tol));
        }
    }

    #[test]
    fn matvec_matches_matmul(a in small_matrix(4, 3), v in proptest::collection::vec(-5.0f64..5.0, 3)) {
        let as_matrix = Matrix::from_columns(std::slice::from_ref(&v)).unwrap();
        let prod = a.matmul(&as_matrix).unwrap();
        let direct = a.matvec(&v).unwrap();
        for (i, &d) in direct.iter().enumerate() {
            prop_assert!((prod.get(i, 0) - d).abs() < 1e-9);
        }
    }

    /// The blocked/parallel matmul agrees with the naive triple loop to 1e-10
    /// across random shapes — including shapes large enough to engage the
    /// packed kernel and its panel remainders.
    #[test]
    fn blocked_matmul_matches_naive(
        m in 1usize..48,
        k in 1usize..96,
        n in 1usize..320,
        seed in 0u64..1_000_000,
    ) {
        let a = pseudo_random_matrix(m, k, seed);
        let b = pseudo_random_matrix(k, n, seed ^ 0xABCD_EF01);
        let blocked = a.matmul(&b).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        prop_assert!(blocked.approx_eq(&naive, 1e-10), "shape {m}x{k}x{n}");
    }

    /// The register microkernel agrees with `matmul_naive` to the last bit
    /// (`==` per element) on shapes that are guaranteed to cross the
    /// blocked-kernel threshold. m, k and n are decomposed so every
    /// microkernel tail is exercised: the row count sweeps all residues mod
    /// the 4-row register block, the column count all residues mod the
    /// 8-column block, and k straddles the 64-row packing stripe.
    #[test]
    fn microkernel_matmul_is_exact_on_odd_shapes(
        row_blocks in 1usize..9,
        row_tail in 0usize..4,
        col_blocks in 32usize..38,
        col_tail in 0usize..8,
        k in 65usize..140,
        seed in 0u64..1_000_000,
    ) {
        let m = 4 * row_blocks + row_tail;
        let n = 8 * col_blocks + col_tail;
        // Smallest case is 4 × 65 × 256 ≈ 67 K multiply-adds, comfortably
        // above the 32 K blocked-dispatch threshold.
        let a = pseudo_random_matrix(m, k, seed);
        let b = pseudo_random_matrix(k, n, seed ^ 0x5EED_BEEF);
        let blocked = a.matmul(&b).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        // Default build: exact (`==` per element). Under the opt-in `fma`
        // feature the microkernel's multiply-adds are contracted while the
        // naive loop's are not, so the pin relaxes to the contraction's
        // worst-case drift: one skipped rounding (½ ulp of the product) per
        // accumulation step, k ≤ 140 steps on O(1) values ⇒ ≲ 1e-13.
        let tol = if cfg!(feature = "fma") { 1e-12 } else { 0.0 };
        prop_assert!(blocked.approx_eq(&naive, tol), "shape {m}x{k}x{n}");
    }

    /// The fused A·Bᵀ kernel agrees with materializing the transpose.
    #[test]
    fn matmul_transpose_b_matches_naive(
        m in 1usize..32,
        k in 1usize..64,
        n in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        let a = pseudo_random_matrix(m, k, seed);
        let b = pseudo_random_matrix(n, k, seed ^ 0x1234_5678);
        let fused = a.matmul_transpose_b(&b).unwrap();
        let explicit = a.matmul_naive(&b.transpose()).unwrap();
        prop_assert!(fused.approx_eq(&explicit, 1e-10), "shape {m}x{k}x{n}");
    }

    /// `Cholesky::solve_matrix` agrees with the naive column-by-column solve
    /// to 1e-10 across random SPD systems and right-hand-side widths.
    #[test]
    fn cholesky_solve_matrix_matches_columnwise(
        n in 1usize..24,
        rhs in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let base = pseudo_random_matrix(n, n, seed);
        let mut spd = base.matmul_transpose_b(&base).unwrap();
        for d in 0..n {
            spd[(d, d)] += 0.5 * n as f64;
        }
        let b = pseudo_random_matrix(n, rhs, seed ^ 0x9E37_79B9);
        let ch = Cholesky::new(&spd).unwrap();
        let fast = ch.solve_matrix(&b).unwrap();
        // Naive route: one vector solve per column.
        let mut columnwise = Matrix::zeros(n, rhs);
        for j in 0..rhs {
            let x = ch.solve_vec(&b.column(j)).unwrap();
            columnwise.set_column(j, &x);
        }
        let scale = columnwise.max_abs().max(1.0);
        prop_assert!(fast.approx_eq(&columnwise, 1e-10 * scale));
        // And the solution actually solves the system.
        let residual = spd.matmul(&fast).unwrap();
        prop_assert!(residual.approx_eq(&b, 1e-7 * b.max_abs().max(1.0)));
    }
}

/// Deterministic pseudo-random matrix for shapes too big to ship through a
/// `proptest::collection::vec` strategy efficiently.
fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed ^ 0x5851_F42D_4C95_7F2D;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 20.0 - 10.0
    })
}
