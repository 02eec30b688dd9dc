//! Householder tridiagonalization and implicit-shift QL iteration.
//!
//! The classic one-shot dense symmetric eigensolver pipeline (EISPACK's
//! `tred2`/`tql2`, Golub & Van Loan §8.3): reduce `A` to tridiagonal form
//! `T = Qᵀ A Q` with `n − 2` Householder reflections, then chase the
//! off-diagonal entries of `T` to zero with implicitly shifted QL rotations
//! (Wilkinson shifts and deflation), accumulating every transform so the
//! eigenvectors fall out of the same pass. Total cost is `O(n³)` with a small
//! constant, versus `O(n³ · sweeps)` for cyclic Jacobi — the difference that
//! makes m = 256–512 covariance audits tractable.
//!
//! Layout choices mirror the rest of the crate's kernels:
//!
//! * the working copy keeps **full symmetric storage**, so the rank-2
//!   trailing-block update touches whole contiguous row segments (and stays
//!   exactly symmetric: both mirrored entries subtract the same two products);
//! * the orthogonal accumulation builds `Qᵀ` directly (rows are the columns
//!   of `Q`) by **right-multiplying** the reflectors in reverse order, which
//!   makes every row update independent — the back-transform parallelizes
//!   row-wise over the shared `randrecon-parallel` pool, as does the
//!   trailing-block update of the reduction itself;
//! * QL rotations act on two **adjacent rows** of `Qᵀ`, i.e. two contiguous
//!   cache lines, never on strided column pairs — and reach `Qᵀ` in
//!   **wave-front batches** ([`MAX_WAVE`] consecutive chase rotations over
//!   the band of rows they touch, one column panel at a time), so each band
//!   streams through memory once per wave instead of once per rotation
//!   while reproducing the one-rotation-at-a-time result bit for bit.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use randrecon_parallel::{max_threads, parallel_chunks_mut, parallel_row_chunks_mut};

/// Per-step multiply-add count above which the trailing-block update and the
/// eigenvector back-accumulation fan out across the shared pool. This is far
/// below `randrecon_parallel::PARALLEL_MIN_FLOPS` because a step is
/// re-dispatched `n` times per decomposition, so each dispatch must amortize
/// only its own fork/join, not a whole kernel launch.
const PAR_MIN_FLOPS: usize = 1 << 18;

/// Minimum rows handed to one worker, so a chunk always carries enough work
/// to cover the claim-and-dispatch overhead.
const PAR_MIN_ROWS: usize = 16;

/// Maximum implicit-shift QL iterations per eigenvalue before reporting
/// non-convergence. Symmetric tridiagonal QL converges cubically; real inputs
/// need 2–3 iterations per eigenvalue, so 50 only trips on NaN-poisoned data.
const MAX_QL_ITERS: usize = 50;

/// Rotations buffered per wave before they are applied to `Qᵀ`. A bulge
/// chase emits one rotation per step at consecutive descending indices, so a
/// wave of `K` rotations touches a band of `K + 1` adjacent rows — applying
/// them panel-by-panel loads that band once instead of streaming two full
/// rows per rotation, cutting `Qᵀ` memory traffic by ~`K/2`× on wide
/// (m ≥ 512) spectra.
const MAX_WAVE: usize = 32;

/// Column-panel width for the wave-front application. One panel's working
/// set is `(MAX_WAVE + 1) · WAVE_PANEL_COLS` doubles ≈ 33 KB — L2-resident
/// on any current core, so every rotation in the wave hits cache.
const WAVE_PANEL_COLS: usize = 128;

/// A symmetric matrix reduced to tridiagonal form `A = Q T Qᵀ`.
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// Diagonal of `T` (length `n`).
    pub diagonal: Vec<f64>,
    /// Subdiagonal of `T` (length `n − 1`; empty for `n = 1`).
    pub subdiagonal: Vec<f64>,
    /// `Qᵀ`: the columns of the orthogonal factor stored as **rows**, so the
    /// QL rotations that follow touch contiguous memory.
    pub q_transposed: Matrix,
}

/// Reduces a symmetric matrix to tridiagonal form with Householder
/// reflections, accumulating the orthogonal transform.
///
/// The input must be square, non-empty, and symmetric to the same scaled
/// tolerance the Jacobi reference path enforces; sub-tolerance floating-point
/// asymmetries are averaged away before the reduction.
pub fn householder_tridiagonalize(a: &Matrix) -> Result<Tridiagonal> {
    let (diagonal, subdiagonal, reflectors) = reduce_to_tridiagonal(a, true)?;
    let q_transposed = accumulate_q_transposed(diagonal.len(), &reflectors);
    Ok(Tridiagonal {
        diagonal,
        subdiagonal,
        q_transposed,
    })
}

/// The Householder reduction itself, shared by the full decomposition and the
/// eigenvalues-only path: returns `(diagonal, subdiagonal, reflectors)` where
/// each reflector is `(v, β)` with `v[0] = 1` and `H = I − β v vᵀ` acting on
/// the trailing block that starts at row/column `k + 1`. With
/// `store_reflectors = false` the reflector list stays empty (each `v` is
/// dropped after its trailing update), so the eigenvalues-only path skips the
/// ~n²/2 doubles of reflector storage as well as the accumulation flops.
#[allow(clippy::type_complexity)]
fn reduce_to_tridiagonal(
    a: &Matrix,
    store_reflectors: bool,
) -> Result<(Vec<f64>, Vec<f64>, Vec<(Vec<f64>, f64)>)> {
    // Same gate as the Jacobi path (one shared implementation): genuinely
    // asymmetric input — a transposition bug upstream — is rejected, and the
    // symmetrize below only smooths sub-tolerance fp asymmetries.
    super::eigen::validate(a)?;
    let n = a.rows();
    let mut work = a.symmetrize()?;
    let mut subdiagonal = vec![0.0; n.saturating_sub(1)];
    let mut reflectors: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n.saturating_sub(2));

    for (k, sub) in subdiagonal.iter_mut().enumerate().take(n.saturating_sub(2)) {
        // The column below the diagonal equals the row right of it (symmetric
        // storage), and the row segment is contiguous.
        let x = work.row(k)[k + 1..].to_vec();
        let (v, beta, alpha) = householder_vector(&x);
        *sub = alpha;
        if beta != 0.0 {
            rank2_trailing_update(&mut work, k, &v, beta);
        }
        if store_reflectors {
            reflectors.push((v, beta));
        }
    }
    if n >= 2 {
        subdiagonal[n - 2] = work.get(n - 2, n - 1);
    }
    let diagonal: Vec<f64> = (0..n).map(|i| work.get(i, i)).collect();
    Ok((diagonal, subdiagonal, reflectors))
}

/// Householder vector for `x`: returns `(v, β, α)` with `v[0] = 1` such that
/// `(I − β v vᵀ) x = α e₁` and `α = ‖x‖₂`.
///
/// Uses the cancellation-free form of Golub & Van Loan Alg. 5.1.1: when
/// `x₀ > 0` the pivot `x₀ − ‖x‖` is computed as `−σ / (x₀ + ‖x‖)`.
fn householder_vector(x: &[f64]) -> (Vec<f64>, f64, f64) {
    let sigma: f64 = x[1..].iter().map(|&t| t * t).sum();
    let mut v = x.to_vec();
    v[0] = 1.0;
    if sigma == 0.0 {
        // Already a multiple of e₁: no reflection needed.
        return (v, 0.0, x[0]);
    }
    let mu = (x[0] * x[0] + sigma).sqrt();
    let v0 = if x[0] <= 0.0 {
        x[0] - mu
    } else {
        -sigma / (x[0] + mu)
    };
    let beta = 2.0 * v0 * v0 / (sigma + v0 * v0);
    for t in v.iter_mut().skip(1) {
        *t /= v0;
    }
    (v, beta, mu)
}

/// Applies the symmetric similarity update of one Householder step to the
/// trailing block `B = work[k+1.., k+1..]`:
///
/// ```text
/// p = β B v,   w = p − (β pᵀv / 2) v,   B ← B − v wᵀ − w vᵀ
/// ```
///
/// Both the matvec and the rank-2 update run row-wise over the shared pool
/// when the block is large enough.
fn rank2_trailing_update(work: &mut Matrix, k: usize, v: &[f64], beta: f64) {
    let n = work.rows();
    let base = k + 1;
    let r = n - base;
    debug_assert_eq!(v.len(), r);
    let parallel = 3 * r * r >= PAR_MIN_FLOPS && max_threads() > 1;

    // p = β B v (each entry is one contiguous row-segment dot product).
    let mut p = vec![0.0; r];
    {
        let work_ref: &Matrix = work;
        let fill = |start: usize, chunk: &mut [f64]| {
            for (t, pi) in chunk.iter_mut().enumerate() {
                let row = &work_ref.row(base + start + t)[base..];
                *pi = beta * dot_unchecked(row, v);
            }
        };
        if parallel {
            parallel_chunks_mut(&mut p, PAR_MIN_ROWS, max_threads(), fill);
        } else {
            fill(0, &mut p);
        }
    }

    let half = 0.5 * beta * dot_unchecked(&p, v);
    let w: Vec<f64> = p
        .iter()
        .zip(v.iter())
        .map(|(&pi, &vi)| pi - half * vi)
        .collect();

    // B ← B − v wᵀ − w vᵀ, one independent row at a time.
    let buf = &mut work.as_mut_slice()[base * n..];
    let update = |start_row: usize, chunk: &mut [f64]| {
        for (t, row) in chunk.chunks_exact_mut(n).enumerate() {
            let i = start_row + t;
            let (vi, wi) = (v[i], w[i]);
            for ((dst, &vj), &wj) in row[base..].iter_mut().zip(v.iter()).zip(w.iter()) {
                *dst -= vi * wj + wi * vj;
            }
        }
    };
    if parallel {
        parallel_row_chunks_mut(buf, n, PAR_MIN_ROWS, max_threads(), update);
    } else {
        update(0, buf);
    }
}

/// Accumulates `Qᵀ = H_{n−3} ⋯ H₁ H₀` by right-multiplying the reflectors in
/// reverse order onto an identity matrix.
///
/// Right multiplication makes every row update independent (`rowᵢ ← rowᵢ −
/// β (rowᵢ · v) vᵀ` on the trailing columns), so the back-transform
/// parallelizes row-wise; and because reflector `k` only touches rows and
/// columns `k+1..`, the non-identity block grows as `k` decreases and each
/// step costs `2(n−k−1)²` flops — `2n³/3` in total.
fn accumulate_q_transposed(n: usize, reflectors: &[(Vec<f64>, f64)]) -> Matrix {
    let mut qt = Matrix::identity(n);
    for (k, (v, beta)) in reflectors.iter().enumerate().rev() {
        if *beta == 0.0 {
            continue;
        }
        let base = k + 1;
        let r = n - base;
        let buf = &mut qt.as_mut_slice()[base * n..];
        let apply = |_start: usize, chunk: &mut [f64]| {
            for row in chunk.chunks_exact_mut(n) {
                let seg = &mut row[base..];
                let s = beta * dot_unchecked(seg, v);
                for (dst, &vj) in seg.iter_mut().zip(v.iter()) {
                    *dst -= s * vj;
                }
            }
        };
        if 2 * r * r >= PAR_MIN_FLOPS && max_threads() > 1 {
            parallel_row_chunks_mut(buf, n, PAR_MIN_ROWS, max_threads(), apply);
        } else {
            apply(0, buf);
        }
    }
    qt
}

/// Diagonalizes a symmetric tridiagonal matrix in place with implicitly
/// shifted QL iterations, applying every rotation to the rows of `qt`.
///
/// On return `diagonal` holds the (unsorted) eigenvalues and the rows of `qt`
/// the corresponding eigenvectors. `subdiagonal` must have length
/// `diagonal.len() − 1` (or be empty for a 1×1 input).
///
/// This is EISPACK `tql2`: per eigenvalue, find the deflation split, form the
/// Wilkinson shift from the leading 2×2 block, and chase a bulge from the
/// bottom of the block to the top with Givens rotations. Each rotation
/// updates two adjacent, contiguous rows of `qt`; rotations reach `qt` in
/// wave-front batches (see [`apply_rotation_wave`]) that replay them in
/// chase order, so the accumulated eigenvectors are bit-identical to
/// immediate per-rotation application.
pub fn ql_implicit_shift(diagonal: &mut [f64], subdiagonal: &[f64], qt: &mut Matrix) -> Result<()> {
    debug_assert_eq!(qt.shape(), (diagonal.len(), diagonal.len()));
    ql_core(diagonal, subdiagonal, Some(qt))
}

/// Descending eigenvalues of a symmetric matrix **without** eigenvector
/// accumulation (EISPACK `tqlrat`'s role): skips both the `2n³/3`-flop
/// reflector accumulation and the per-rotation `Qᵀ` row updates, which
/// dominate the full decomposition's cost. This is the right entry point for
/// consumers that only need the spectrum — spectrum-distance metrics, trace
/// checks, bandwidth audits.
///
/// Validation matches [`householder_tridiagonalize`]: the input must be
/// square and non-empty and is symmetrized defensively.
pub fn symmetric_eigenvalues(a: &Matrix) -> Result<Vec<f64>> {
    let (mut values, subdiagonal, _reflectors) = reduce_to_tridiagonal(a, false)?;
    ql_core(&mut values, &subdiagonal, None)?;
    values.sort_by(|x, y| y.partial_cmp(x).unwrap_or(std::cmp::Ordering::Equal));
    Ok(values)
}

/// Shared QL driver; `qt` is `None` on the eigenvalues-only path.
fn ql_core(diagonal: &mut [f64], subdiagonal: &[f64], mut qt: Option<&mut Matrix>) -> Result<()> {
    let n = diagonal.len();
    if n <= 1 {
        return Ok(());
    }
    debug_assert_eq!(subdiagonal.len(), n - 1);
    // e[i] couples rows i and i+1; e[n−1] is a permanent zero sentinel.
    let mut e = vec![0.0; n];
    e[..n - 1].copy_from_slice(subdiagonal);

    // Deflation scale: the largest |d| + |e| encountered so far (EISPACK
    // tql2's `tst1`). A coupling is negligible relative to the *matrix*
    // scale, not just its two neighbouring diagonal entries — graded spectra
    // (400s next to 4s) otherwise stall: rounding noise from the large block
    // floors the small block's couplings above any locally scaled tolerance.
    let mut tst1 = 0.0_f64;

    for l in 0..n {
        tst1 = tst1.max(diagonal[l].abs() + e[l].abs());
        let mut iter = 0;
        loop {
            // Deflation: find the first negligible coupling at or after l.
            let mut m = l;
            while m + 1 < n {
                if e[m].abs() <= f64::EPSILON * tst1 {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] is an eigenvalue.
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(LinalgError::EigenDidNotConverge {
                    sweeps: iter,
                    off_diagonal_norm: e[l].abs(),
                });
            }
            // Wilkinson shift from the 2×2 block at the low end.
            let mut g = (diagonal[l + 1] - diagonal[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = diagonal[m] - diagonal[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0_f64, 1.0_f64);
            let mut p = 0.0;
            let mut underflowed = false;
            // Rotations are buffered into a wave and applied to `Qᵀ` in
            // batches: the chase emits them at consecutive descending
            // indices, so `wave[k]` acts on rows `(wave_hi − k, wave_hi −
            // k + 1)`. The wave-front application replays them in exactly
            // the order the chase produced them, so `Qᵀ` is bit-identical
            // to rotating after every step.
            let mut wave: Vec<(f64, f64)> = Vec::with_capacity(MAX_WAVE);
            let mut wave_hi = 0usize;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // The bulge vanished mid-chase: deflate and restart
                    // (the rotations already emitted still apply — the
                    // wave is flushed below before the restart).
                    diagonal[i + 1] -= p;
                    e[m] = 0.0;
                    underflowed = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = diagonal[i + 1] - p;
                r = (diagonal[i] - g) * s + 2.0 * c * b;
                p = s * r;
                diagonal[i + 1] = g + p;
                g = c * r - b;
                if let Some(q) = qt.as_deref_mut() {
                    if wave.is_empty() {
                        wave_hi = i;
                    }
                    wave.push((c, s));
                    if wave.len() == MAX_WAVE {
                        apply_rotation_wave(q, wave_hi, &wave);
                        wave.clear();
                    }
                }
            }
            if let (Some(q), false) = (qt.as_deref_mut(), wave.is_empty()) {
                apply_rotation_wave(q, wave_hi, &wave);
            }
            if underflowed {
                continue;
            }
            diagonal[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Applies a wave of bulge-chase Givens rotations to `qt`: `rotations[k] =
/// (c, s)` acts on the adjacent row pair `(hi − k, hi − k + 1)`, exactly as
/// the chase emitted them (descending indices, overlapping pairs).
///
/// The band of `len + 1` rows the wave touches is processed one
/// [`WAVE_PANEL_COLS`]-wide column panel at a time; within a panel every
/// rotation runs over cache-hot row segments, so the band streams through
/// memory once per wave instead of once per rotation. Column panels are
/// independent and each element sees the same rotations in the same order
/// as immediate application, so the result is **bit-identical** to rotating
/// row pairs one at a time (the pinned scalar reference kept in the tests).
fn apply_rotation_wave(qt: &mut Matrix, hi: usize, rotations: &[(f64, f64)]) {
    let n = qt.cols();
    let lo = hi + 1 - rotations.len();
    // The touched band: rows lo ..= hi + 1.
    let band = &mut qt.as_mut_slice()[lo * n..(hi + 2) * n];
    let mut c0 = 0;
    while c0 < n {
        let w = WAVE_PANEL_COLS.min(n - c0);
        for (k, &(c, s)) in rotations.iter().enumerate() {
            let i = hi - k - lo; // band-local index of the pair's upper row
            let (head, tail) = band.split_at_mut((i + 1) * n);
            let seg_i = &mut head[i * n + c0..i * n + c0 + w];
            let seg_i1 = &mut tail[c0..c0 + w];
            for (a, b) in seg_i.iter_mut().zip(seg_i1.iter_mut()) {
                let f = *b;
                *b = s * *a + c * f;
                *a = c * *a - s * f;
            }
        }
        c0 += w;
    }
}

/// Applies the Givens rotation `(c, s)` to rows `i` and `i + 1` of `qt` —
/// the scalar per-rotation kernel the wave-front application must reproduce
/// bit for bit; kept as the pinned reference for the tests.
#[cfg(test)]
fn rotate_adjacent_rows(qt: &mut Matrix, i: usize, c: f64, s: f64) {
    let n = qt.cols();
    let (head, tail) = qt.as_mut_slice().split_at_mut((i + 1) * n);
    let row_i = &mut head[i * n..];
    let row_i1 = &mut tail[..n];
    for (a, b) in row_i.iter_mut().zip(row_i1.iter_mut()) {
        let f = *b;
        *b = s * *a + c * f;
        *a = c * *a - s * f;
    }
}

/// Length-unchecked dot product for the hot inner loops (callers guarantee
/// equal lengths structurally).
#[inline]
fn dot_unchecked(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram_schmidt::orthonormality_defect;

    fn deterministic_symmetric(n: usize) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.4);
            }
        }
        a.symmetrize().unwrap()
    }

    #[test]
    fn tridiagonalization_is_a_similarity_transform() {
        let a = deterministic_symmetric(12);
        let tri = householder_tridiagonalize(&a).unwrap();
        // Rebuild T explicitly and check A = Qᵀᵀ T Qᵀ = Q T Qᵀ.
        let n = a.rows();
        let mut t = Matrix::from_diag(&tri.diagonal);
        for i in 0..n - 1 {
            t.set(i, i + 1, tri.subdiagonal[i]);
            t.set(i + 1, i, tri.subdiagonal[i]);
        }
        let q = tri.q_transposed.transpose();
        let rebuilt = q.matmul(&t).unwrap().matmul(&tri.q_transposed).unwrap();
        assert!(rebuilt.approx_eq(&a, 1e-10));
        assert!(orthonormality_defect(&q) < 1e-12);
    }

    #[test]
    fn tridiagonalization_preserves_trace() {
        let a = deterministic_symmetric(20);
        let tri = householder_tridiagonalize(&a).unwrap();
        let trace_t: f64 = tri.diagonal.iter().sum();
        assert!((trace_t - a.trace()).abs() < 1e-9);
    }

    #[test]
    fn small_inputs_are_trivial() {
        let one = Matrix::from_diag(&[3.0]);
        let tri = householder_tridiagonalize(&one).unwrap();
        assert_eq!(tri.diagonal, vec![3.0]);
        assert!(tri.subdiagonal.is_empty());

        let two = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 5.0][..]]).unwrap();
        let tri = householder_tridiagonalize(&two).unwrap();
        assert_eq!(tri.diagonal, vec![1.0, 5.0]);
        assert_eq!(tri.subdiagonal, vec![2.0]);

        assert!(householder_tridiagonalize(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn eigenvalues_only_path_rejects_asymmetric_input() {
        // Same gate as every other eigensolver entry point: a transposition
        // bug upstream must surface, not get silently averaged away.
        let asym = Matrix::from_rows(&[&[1.0, 2.0][..], &[0.0, 1.0][..]]).unwrap();
        assert!(matches!(
            symmetric_eigenvalues(&asym),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn eigenvalues_only_path_matches_full_decomposition() {
        let a = deterministic_symmetric(25);
        let fast = symmetric_eigenvalues(&a).unwrap();
        let full = crate::decomposition::SymmetricEigen::householder_ql(&a).unwrap();
        assert_eq!(fast.len(), full.eigenvalues.len());
        let scale = a.frobenius_norm().max(1.0);
        for (x, y) in fast.iter().zip(full.eigenvalues.iter()) {
            assert!((x - y).abs() <= 1e-12 * scale, "{x} vs {y}");
        }
    }

    /// The wave-front application must reproduce the pinned scalar
    /// per-rotation kernel **bit for bit** — for full waves, partial
    /// trailing waves, single-rotation waves, and matrix widths that do not
    /// divide the column-panel width.
    #[test]
    fn rotation_waves_match_the_scalar_kernel_bit_for_bit() {
        // Deterministic (c, s) pairs on the unit circle.
        let rotation = |t: usize| -> (f64, f64) {
            let angle = (t * 37 % 101) as f64 / 101.0 * std::f64::consts::TAU;
            (angle.cos(), angle.sin())
        };
        for (n, chase_len) in [(7usize, 5usize), (50, 49), (200, 130), (137, 70)] {
            let mut scalar = deterministic_symmetric(n);
            let mut waved = scalar.clone();
            // One synthetic bulge chase: rotations at descending indices
            // hi, hi−1, …, hi−chase_len+1, exactly as ql_core emits them.
            let hi = n - 2;
            let lo = hi + 1 - chase_len;
            for (t, i) in (lo..=hi).rev().enumerate() {
                let (c, s) = rotation(t);
                rotate_adjacent_rows(&mut scalar, i, c, s);
            }
            // Same rotations, batched the way ql_core batches them.
            let mut wave: Vec<(f64, f64)> = Vec::new();
            let mut wave_hi = 0usize;
            for (t, i) in (lo..=hi).rev().enumerate() {
                if wave.is_empty() {
                    wave_hi = i;
                }
                wave.push(rotation(t));
                if wave.len() == MAX_WAVE {
                    apply_rotation_wave(&mut waved, wave_hi, &wave);
                    wave.clear();
                }
            }
            if !wave.is_empty() {
                apply_rotation_wave(&mut waved, wave_hi, &wave);
            }
            let bits =
                |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&scalar), bits(&waved), "n={n}, chase_len={chase_len}");
        }
    }

    #[test]
    fn ql_diagonalizes_a_known_tridiagonal() {
        // T = tridiag(subdiag = 1, diag = 2) has eigenvalues
        // 2 + 2 cos(kπ/(n+1)), k = 1..n.
        let n = 10;
        let mut d = vec![2.0; n];
        let e = vec![1.0; n - 1];
        let mut qt = Matrix::identity(n);
        ql_implicit_shift(&mut d, &e, &mut qt).unwrap();
        let mut got = d.clone();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (k, &val) in got.iter().enumerate() {
            let expect =
                2.0 + 2.0 * (std::f64::consts::PI * (n - k) as f64 / (n as f64 + 1.0)).cos();
            assert!((val - expect).abs() < 1e-10, "k={k}: {val} vs {expect}");
        }
        assert!(orthonormality_defect(&qt) < 1e-12);
    }
}
