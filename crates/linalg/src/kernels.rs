//! Low-level slice kernels behind [`crate::Matrix`]'s hot operations.
//!
//! Design notes (see the crate docs for the full rationale):
//!
//! * **Blocking**: `matmul_blocked` is a GEBP-style kernel. The right operand
//!   is packed once into panel-major layout (`KC × NC` panels, `KC = 64` rows
//!   by `NC = 256` columns ⇒ a 128 KiB panel that lives in L2, with each
//!   packed panel row of 2 KiB streaming through L1). Workers then sweep
//!   `k`-stripes so every `C` row accumulates its `k` contributions in
//!   ascending order — which makes the blocked result bit-identical to the
//!   naive i-k-j loop and independent of thread count.
//! * **Register microkernel**: inside each panel, output rows are processed
//!   `MR = 4` at a time and columns `NR = 8` at a time. The 4×8 accumulator
//!   block is loaded into locals once per (`k`-stripe, column block), swept
//!   over the whole `kc` extent while it stays in registers, then stored —
//!   so each `C` element is read/written once per stripe instead of once per
//!   `k` iteration (the former `axpy` sweep re-read the `C` row from L1 on
//!   every rank-1 update). Row tails (< 4) and column tails (< 8) fall back
//!   to the `axpy` sweep. Per-element accumulation order over `k` is the
//!   same in every path, and the exact-zero products the naive loop's
//!   zero-skip would drop cannot change any finite value, so results stay
//!   numerically identical (`==` per element) to the naive loop.
//! * **In place**: `matmul_square_in_place` runs the same GEBP row-block
//!   body (`gebp_rows`) over 64-row copies of its left operand, writing the
//!   product back over the rows; `lower_triangular_rows_in_place` rewrites
//!   each row `z` as `z · Lᵀ` from 8-row transposed copies, touching only
//!   `L`'s lower triangle. Both keep the naive loop's per-element order, so
//!   they match `matmul_blocked` into a fresh buffer bit for bit.
//! * **Parallelism**: row-chunks of the output are dispatched onto the shared
//!   [`randrecon_parallel`] pool once a product exceeds
//!   [`PARALLEL_MIN_FLOPS`] multiply-adds; below [`BLOCKED_MIN_FLOPS`] the
//!   caller should use the plain triple loop (packing costs more than it
//!   saves).
//! * **No per-element bounds checks**: all inner loops run over subslices
//!   obtained once per row/panel, so the optimizer sees contiguous,
//!   bounds-check-free iteration it can vectorize.

/// Below this many multiply-adds, `Matrix::matmul` uses the naive loop.
pub(crate) const BLOCKED_MIN_FLOPS: usize = 1 << 15;

/// At or above this many multiply-adds, kernels fan out across the pool
/// (shared workspace-wide threshold).
const PARALLEL_MIN_FLOPS: usize = randrecon_parallel::PARALLEL_MIN_FLOPS;

/// Rows of the right operand per packed panel (`k`-blocking factor).
const KC: usize = 64;

/// Columns per packed panel (`n`-blocking factor).
const NC: usize = 256;

/// Output rows per register-microkernel call.
const MR: usize = 4;

/// Output columns per register-microkernel call (NC is a multiple of NR, so
/// only the final panel of a non-multiple-of-8 matrix has a column tail).
const NR: usize = 8;

/// The one multiply-accumulate the hot kernels funnel through. Default
/// build: a separately rounded multiply and add, so every kernel stays
/// bit-identical to the naive reference loops. With the opt-in `fma`
/// feature: a fused `mul_add`, which skips the intermediate rounding — one
/// ulp tighter per step and, with `target-cpu=native` (see
/// `.cargo/config.toml`), a single hardware FMA instruction. Outputs then
/// differ from the default path in the last bits, which is why the `fma`
/// goldens are baselined separately.
#[inline(always)]
pub(crate) fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    if cfg!(feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Dot product with four independent accumulators so the reduction
/// vectorizes; used by `matmul_transpose_b`, Cholesky and the solvers.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let mut a_it = a.chunks_exact(4);
    let mut b_it = b.chunks_exact(4);
    for (ca, cb) in (&mut a_it).zip(&mut b_it) {
        acc[0] = fmadd(ca[0], cb[0], acc[0]);
        acc[1] = fmadd(ca[1], cb[1], acc[1]);
        acc[2] = fmadd(ca[2], cb[2], acc[2]);
        acc[3] = fmadd(ca[3], cb[3], acc[3]);
    }
    let mut tail = 0.0;
    for (&x, &y) in a_it.remainder().iter().zip(b_it.remainder()) {
        tail = fmadd(x, y, tail);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `y += alpha * x` over equal-length slices; the compiler vectorizes this.
#[inline]
pub(crate) fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    for (o, &v) in y.iter_mut().zip(x.iter()) {
        *o = fmadd(alpha, v, *o);
    }
}

/// Packs `b` (`k × n`, row-major) into panel-major layout: `k`-stripes of
/// `KC` rows, each stripe holding consecutive `KC × NC` panels. Panel
/// `(kb, jb)` starts at `kb * n + kc_cur * jb`, and its rows are contiguous
/// `nc_cur`-length runs.
fn pack_b(b: &[f64], k: usize, n: usize) -> Vec<f64> {
    let mut packed = vec![0.0; k * n];
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        let stripe = &mut packed[kb * n..kb * n + kc * n];
        for jb in (0..n).step_by(NC) {
            let nc = NC.min(n - jb);
            let panel = &mut stripe[kc * jb..kc * jb + kc * nc];
            for kk in 0..kc {
                let src = &b[(kb + kk) * n + jb..(kb + kk) * n + jb + nc];
                panel[kk * nc..(kk + 1) * nc].copy_from_slice(src);
            }
        }
    }
    packed
}

/// The `axpy`-sweep fallback for output-row tails: accumulates one `C` row
/// segment against a packed panel, `k` ascending, with the naive loop's
/// zero-skip.
#[inline]
fn panel_row_axpy(a_seg: &[f64], panel: &[f64], c_seg: &mut [f64], nc: usize) {
    for (kk, &aik) in a_seg.iter().enumerate() {
        // Zero-skip mirrors the naive loop exactly (it has the same skip),
        // so blocked and naive stay bit-identical; like the naive loop it
        // assumes finite inputs.
        if aik != 0.0 {
            axpy(c_seg, aik, &panel[kk * nc..kk * nc + nc]);
        }
    }
}

/// 4×8 register microkernel: accumulates the `MR × NR` block of `C` at
/// column `j0` of the panel across the full `kc` extent.
///
/// The block lives in `acc` (registers) for the whole `kk` loop, so `C`
/// traffic drops from one load+store per `k` iteration to one per stripe.
/// Each element still receives its `a_ik · b_kj` contributions one at a
/// time in ascending `k` order, so the result is numerically identical
/// (`==` per element) to the `axpy` sweep and the naive loop. The naive
/// loop's zero-skip is *not* replicated here — a straight-line inner loop
/// is what lets the 32 multiply-adds vectorize — and for the finite inputs
/// every kernel assumes, adding an exact-zero product can only flip the
/// sign of an exact zero, never change a value.
#[inline]
fn microkernel_4x8(
    a_rows: [&[f64]; MR],
    panel: &[f64],
    nc: usize,
    j0: usize,
    acc: &mut [[f64; NR]; MR],
) {
    let [a0, a1, a2, a3] = a_rows;
    let kc = a0.len();
    debug_assert!(a1.len() == kc && a2.len() == kc && a3.len() == kc);
    for (kk, (((&a0k, &a1k), &a2k), &a3k)) in a0
        .iter()
        .zip(a1.iter())
        .zip(a2.iter())
        .zip(a3.iter())
        .enumerate()
    {
        let b: &[f64; NR] = panel[kk * nc + j0..kk * nc + j0 + NR]
            .try_into()
            .expect("panel row block is exactly NR wide");
        let av = [a0k, a1k, a2k, a3k];
        for (row_acc, &ark) in acc.iter_mut().zip(av.iter()) {
            for (o, &bv) in row_acc.iter_mut().zip(b.iter()) {
                *o = fmadd(ark, bv, *o);
            }
        }
    }
}

/// The GEBP row-block body: accumulates `C += A · B` for the rows of one
/// block, with `b` already packed by [`pack_b`].
///
/// `a` is the block's `rows × k` slice of the left operand and `c` its
/// `rows × n` slice of the output. Every `C` element receives its `k`
/// contributions in ascending order, so any row split of a product gives
/// the same bits as the whole.
fn gebp_rows(a: &[f64], packed: &[f64], c: &mut [f64], k: usize, n: usize) {
    let rows = c.len() / n;
    debug_assert_eq!(a.len(), rows * k);
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        let stripe = &packed[kb * n..kb * n + kc * n];
        let mut i = 0;
        // Full 4-row blocks ride the register microkernel.
        while i + MR <= rows {
            let a_rows: [&[f64]; MR] = std::array::from_fn(|r| {
                let base = (i + r) * k + kb;
                &a[base..base + kc]
            });
            for jb in (0..n).step_by(NC) {
                let nc = NC.min(n - jb);
                let panel = &stripe[kc * jb..kc * jb + kc * nc];
                let mut j = 0;
                while j + NR <= nc {
                    let mut acc = [[0.0f64; NR]; MR];
                    for (r, row_acc) in acc.iter_mut().enumerate() {
                        let base = (i + r) * n + jb + j;
                        row_acc.copy_from_slice(&c[base..base + NR]);
                    }
                    microkernel_4x8(a_rows, panel, nc, j, &mut acc);
                    for (r, row_acc) in acc.iter().enumerate() {
                        let base = (i + r) * n + jb + j;
                        c[base..base + NR].copy_from_slice(row_acc);
                    }
                    j += NR;
                }
                // Column tail (< NR): per-row axpy sweep, same k order.
                if j < nc {
                    for r in 0..MR {
                        let c_seg = &mut c[(i + r) * n + jb + j..(i + r) * n + jb + nc];
                        for (kk, &aik) in a_rows[r].iter().enumerate() {
                            if aik != 0.0 {
                                axpy(c_seg, aik, &panel[kk * nc + j..kk * nc + nc]);
                            }
                        }
                    }
                }
            }
            i += MR;
        }
        // Row tail (< MR): the original axpy sweep.
        for i in i..rows {
            let a_seg = &a[i * k + kb..i * k + kb + kc];
            for jb in (0..n).step_by(NC) {
                let nc = NC.min(n - jb);
                let panel = &stripe[kc * jb..kc * jb + kc * nc];
                let c_seg = &mut c[i * n + jb..i * n + jb + nc];
                panel_row_axpy(a_seg, panel, c_seg, nc);
            }
        }
    }
}

/// Runs `row_block(first_row, rows)` over `data` (whole rows of `row_len`
/// values), split row-wise across the pool once the product it computes
/// reaches [`PARALLEL_MIN_FLOPS`] multiply-adds. Rows never straddle a
/// split, so results do not depend on the thread count.
pub(crate) fn split_rows<F>(data: &mut [f64], row_len: usize, flops: usize, row_block: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let pieces = randrecon_parallel::max_threads();
    if flops >= PARALLEL_MIN_FLOPS && pieces > 1 {
        randrecon_parallel::parallel_row_chunks_mut(data, row_len, 8, pieces, row_block);
    } else {
        row_block(0, data);
    }
}

/// Cache-blocked, transpose-packed `C = A · B` over row-major slices.
///
/// `a` is `m × k`, `b` is `k × n`, `c` is `m × n` and must be zeroed.
pub(crate) fn matmul_blocked(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let packed = pack_b(b, k, n);
    split_rows(c, n, m * k * n, |row0, c_chunk| {
        let rows = c_chunk.len() / n;
        gebp_rows(&a[row0 * k..(row0 + rows) * k], &packed, c_chunk, k, n);
    });
}

/// Rows of `A` copied out per step of [`matmul_square_in_place`].
const IN_PLACE_ROWS: usize = 64;

/// `A ← A · B` for a square `n × n` `b`, over `a`'s rows in place.
///
/// Each block of up to [`IN_PLACE_ROWS`] rows is copied into a scratch
/// buffer, zeroed, and rebuilt by [`gebp_rows`] from the copy, so the
/// result is bit-identical to [`matmul_blocked`] into a fresh buffer.
pub(crate) fn matmul_square_in_place(a: &mut [f64], b: &[f64], n: usize) {
    debug_assert_eq!(b.len(), n * n);
    if n == 0 {
        return;
    }
    debug_assert_eq!(a.len() % n, 0);
    let packed = pack_b(b, n, n);
    split_rows(a, n, a.len() * n, |_, rows| {
        let mut scratch = vec![0.0; IN_PLACE_ROWS.min(rows.len() / n) * n];
        for block in rows.chunks_mut(IN_PLACE_ROWS * n) {
            let copy = &mut scratch[..block.len()];
            copy.copy_from_slice(block);
            block.fill(0.0);
            gebp_rows(copy, &packed, block, n, n);
        }
    });
}

/// Records per tile of the triangular row transform: the SIMD lanes run
/// across these rows.
const TR: usize = 8;

/// Output columns per register tile of the triangular row transform.
const TJ: usize = 8;

/// `z ← z · Lᵀ` for every row `z` of `rows`, reading only the lower
/// triangle of the `n × n` `l`.
///
/// Output element `j` of a row is `Σ_{k ≤ j} z_k · L[j][k]`, accumulated
/// from +0 in ascending `k` through [`fmadd`]: the naive product's order
/// without the upper triangle's zero terms. For finite inputs a zero term
/// cannot change a bit (it is `±0` added to a partial sum that is never
/// `−0`, and `fma(z, 0, acc) = acc`), so the result equals `rows · Lᵀ`
/// from [`matmul_blocked`] with about half the multiply-adds. The only
/// zero terms kept are the ones inside each `TJ`-column diagonal block,
/// which the register tile takes whole.
///
/// `TR` rows at a time are copied, transposed, into an L1 scratch so each
/// SIMD lane is one row; a `TJ × TR` register tile of outputs accumulates
/// against `Lᵀ` copied from `l`'s lower triangle alone (so it is exactly
/// zero below its diagonal), and is written to a second scratch that is
/// transposed back over the rows.
pub(crate) fn lower_triangular_rows_in_place(l: &[f64], rows: &mut [f64], n: usize) {
    debug_assert_eq!(l.len(), n * n);
    if n == 0 {
        return;
    }
    debug_assert_eq!(rows.len() % n, 0);
    let mut lt = vec![0.0; n * n];
    for (j, l_row) in l.chunks_exact(n).enumerate() {
        for (k, &v) in l_row[..=j].iter().enumerate() {
            lt[k * n + j] = v;
        }
    }
    split_rows(rows, n, rows.len() * n, |_, chunk| {
        let mut zt = vec![0.0; n * TR];
        let mut out = vec![0.0; n * TR];
        for tile in chunk.chunks_mut(TR * n) {
            // A short final tile leaves stale lanes in the scratch; they are
            // computed on but never written back.
            for (r, row) in tile.chunks_exact(n).enumerate() {
                for (k, &z) in row.iter().enumerate() {
                    zt[k * TR + r] = z;
                }
            }
            let mut j0 = 0;
            while j0 + TJ <= n {
                triangular_tile::<TJ>(&lt, &zt, &mut out, n, j0);
                j0 += TJ;
            }
            for j in j0..n {
                triangular_tile::<1>(&lt, &zt, &mut out, n, j);
            }
            for (r, row) in tile.chunks_exact_mut(n).enumerate() {
                for (o, lanes) in row.iter_mut().zip(out.chunks_exact(TR)) {
                    *o = lanes[r];
                }
            }
        }
    });
}

/// Output columns `j0..j0 + W` of one transposed row tile: `k` runs to the
/// end of the tile's diagonal block, where `lt`'s zeros stand in for the
/// terms past each column's diagonal.
#[inline(always)]
fn triangular_tile<const W: usize>(lt: &[f64], zt: &[f64], out: &mut [f64], n: usize, j0: usize) {
    let mut acc = [[0.0f64; TR]; W];
    for (z, lt_row) in zt.chunks_exact(TR).zip(lt.chunks_exact(n)).take(j0 + W) {
        let z: &[f64; TR] = z.try_into().expect("scratch rows are TR wide");
        let l_block: &[f64; W] = lt_row[j0..j0 + W]
            .try_into()
            .expect("the column tile is W wide");
        for (col, &l_jk) in acc.iter_mut().zip(l_block) {
            for (o, &z_k) in col.iter_mut().zip(z) {
                *o = fmadd(z_k, l_jk, *o);
            }
        }
    }
    for (lanes, col) in out[j0 * TR..(j0 + W) * TR].chunks_exact_mut(TR).zip(&acc) {
        lanes.copy_from_slice(col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_sequential() {
        let a: Vec<f64> = (0..131).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let b: Vec<f64> = (0..131).map(|i| 1.5 - (i as f64) * 0.125).collect();
        let expected: f64 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert!((dot(&a, &b) - expected).abs() < 1e-9 * expected.abs().max(1.0));
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(&mut y, 2.0, &x);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn blocked_matches_naive_on_odd_shapes() {
        // Shapes straddling the block and register-tile sizes: remainders in
        // k and n, row counts hitting every microkernel row-tail (0..MR), and
        // column counts hitting every column-tail (0..NR).
        for &(m, k, n) in &[
            (3usize, 70usize, 300usize),
            (17, 65, 257),
            (40, 128, 256),
            (4, 64, 8),
            (5, 64, 9),
            (6, 67, 11),
            (7, 130, 13),
            (8, 64, 15),
            (9, 33, 259),
            (1, 64, 261),
            (2, 200, 37),
        ] {
            let a: Vec<f64> = (0..m * k)
                .map(|i| ((i * 31 % 97) as f64) / 9.0 - 5.0)
                .collect();
            let b: Vec<f64> = (0..k * n)
                .map(|i| ((i * 17 % 89) as f64) / 7.0 - 6.0)
                .collect();
            let mut c = vec![0.0; m * n];
            matmul_blocked(&a, &b, &mut c, m, k, n);
            // Naive i-k-j with the same k-ascending accumulation order,
            // through the same `fmadd` step so the pin holds in both the
            // bit-exact default profile and the contracted `fma` one.
            let mut expected = vec![0.0; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let aik = a[i * k + kk];
                    for j in 0..n {
                        expected[i * n + j] = fmadd(aik, b[kk * n + j], expected[i * n + j]);
                    }
                }
            }
            for (got, want) in c.iter().zip(expected.iter()) {
                assert_eq!(got, want, "blocked kernel must be bit-identical");
            }
        }
    }

    #[test]
    fn microkernel_zero_skip_matches_naive_on_sparse_input() {
        // Zeros scattered through A exercise the microkernel's zero-skip on
        // every row of the register block.
        let (m, k, n) = (12usize, 70usize, 40usize);
        let a: Vec<f64> = (0..m * k)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    ((i * 31 % 97) as f64) / 9.0 - 5.0
                }
            })
            .collect();
        let b: Vec<f64> = (0..k * n)
            .map(|i| ((i * 17 % 89) as f64) / 7.0 - 6.0)
            .collect();
        let mut c = vec![0.0; m * n];
        matmul_blocked(&a, &b, &mut c, m, k, n);
        let mut expected = vec![0.0; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    expected[i * n + j] = fmadd(aik, b[kk * n + j], expected[i * n + j]);
                }
            }
        }
        for (got, want) in c.iter().zip(expected.iter()) {
            assert_eq!(got, want, "zero-skip path must stay bit-identical");
        }
    }
}
