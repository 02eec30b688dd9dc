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
        // Exact in both profiles: the naive loop and the microkernel take
        // the same multiply-add step (fused under the `fma` feature).
        prop_assert!(blocked.approx_eq(&naive, 0.0), "shape {m}x{k}x{n}");
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

    /// `Cholesky::mul_rows_in_place` rewrites every row `z` as `z · Lᵀ`
    /// with the same bits as the multiply-add i-k-j product, for every
    /// factor shape: dense, banded (exact zeros below the band), diagonal
    /// and the identity.
    #[test]
    fn lower_triangular_in_place_is_bit_identical_to_the_fmadd_product(
        dim in 1usize..71,
        rows in 0usize..41,
        structure in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let chol = structured_cholesky(dim, structure, seed);
        let z = pseudo_random_matrix(rows, dim, seed ^ 0x7A11_0C8E);
        let mut transformed = z.clone();
        chol.mul_rows_in_place(&mut transformed).unwrap();
        let reference = fmadd_product(&z, &chol.l().transpose());
        prop_assert_eq!(bits(&transformed), bits(&reference), "{} x {}", rows, dim);
    }

    /// `matmul_square_in_place` leaves the bits `matmul` writes into a
    /// fresh buffer, on both sides of `matmul`'s naive/blocked dispatch.
    #[test]
    fn matmul_square_in_place_is_bit_identical_to_matmul(
        dim in 1usize..71,
        rows in 0usize..41,
        seed in 0u64..1_000_000,
    ) {
        let a = pseudo_random_matrix(rows, dim, seed);
        let b = pseudo_random_matrix(dim, dim, seed ^ 0x0DD5_EED5);
        let mut in_place = a.clone();
        in_place.matmul_square_in_place(&b).unwrap();
        prop_assert_eq!(bits(&in_place), bits(&a.matmul(&b).unwrap()), "{} x {}", rows, dim);
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

/// Every dimension 1..=70 at 13 rows (one full 8-row tile and a tail, three
/// 4-row register blocks and a tail), every row count 0..=40 at dimension 70
/// (register-tile column tails of 6), and two shapes past the pool-split
/// threshold whose row counts are not multiples of 64: both in-place kernels
/// keep the bits of their reference products.
#[test]
fn in_place_kernels_cover_every_tail_and_the_parallel_split() {
    let shapes = (1..=70)
        .map(|dim| (13, dim))
        .chain((0..=40).map(|rows| (rows, 70)))
        .chain([(1031, 64), (900, 70)]);
    for (case, (rows, dim)) in shapes.enumerate() {
        let seed = case as u64;
        let chol = structured_cholesky(dim, case % 4, seed);
        let z = pseudo_random_matrix(rows, dim, seed ^ 0x7A11_0C8E);
        let mut transformed = z.clone();
        chol.mul_rows_in_place(&mut transformed).unwrap();
        let reference = fmadd_product(&z, &chol.l().transpose());
        assert_eq!(bits(&transformed), bits(&reference), "L: {rows} x {dim}");

        let b = pseudo_random_matrix(dim, dim, seed ^ 0x0DD5_EED5);
        let mut in_place = z.clone();
        in_place.matmul_square_in_place(&b).unwrap();
        assert_eq!(
            bits(&in_place),
            bits(&z.matmul(&b).unwrap()),
            "B: {rows} x {dim}"
        );
    }
}

#[test]
fn in_place_kernels_reject_mismatched_shapes() {
    let chol = Cholesky::new(&Matrix::identity(3)).unwrap();
    assert!(chol.mul_rows_in_place(&mut Matrix::zeros(2, 4)).is_err());
    let mut a = Matrix::zeros(2, 3);
    assert!(a.matmul_square_in_place(&Matrix::zeros(3, 4)).is_err());
    assert!(a.matmul_square_in_place(&Matrix::zeros(4, 4)).is_err());
}

/// The kernels' one multiply-add step: separately rounded by default, fused
/// under the `fma` feature.
fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    if cfg!(feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The reference both in-place kernels are pinned to: the i-k-j product,
/// every output accumulated from +0 in ascending `k` through [`fmadd`],
/// zero terms included.
fn fmadd_product(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    Matrix::from_fn(m, b.cols(), |i, j| {
        (0..k).fold(0.0, |acc, kk| fmadd(a.get(i, kk), b.get(kk, j), acc))
    })
}

/// The Cholesky factor of a `dim × dim` SPD matrix of one of four
/// structures: 0 dense, 1 banded (its factor has exact zeros below the
/// band), 2 diagonal, 3 the identity.
fn structured_cholesky(dim: usize, structure: usize, seed: u64) -> Cholesky {
    let base = pseudo_random_matrix(dim, dim, seed ^ 0x5D0_C0DE);
    let band = 1 + (seed as usize) % 4;
    let spd = match structure {
        0 => {
            let mut spd = base.matmul_transpose_b(&base).unwrap();
            for d in 0..dim {
                spd[(d, d)] += dim as f64;
            }
            spd
        }
        1 => Matrix::from_fn(dim, dim, |i, j| match i.abs_diff(j) {
            0 => 4.0 + base.get(i, i).abs(),
            d if d <= band => 0.5 / d as f64,
            _ => 0.0,
        }),
        2 => Matrix::from_fn(dim, dim, |i, j| {
            if i == j {
                1.0 + base.get(i, i).abs()
            } else {
                0.0
            }
        }),
        _ => Matrix::identity(dim),
    };
    Cholesky::new(&spd).unwrap()
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
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
