//! Benchmark support crate.
//!
//! Besides hosting the `benches/` harnesses, this crate preserves the two
//! pre-optimization kernels that still back a carried bench ratio and pin
//! bit-identity with their production successors: the per-row covariance
//! sweep (≥1.3× for the blocked rank-update at m = 256) and the axpy-sweep
//! blocked matmul (≥1.5× for the register microkernel at 512²). The
//! unblocked matmul and the Jacobi eigensolver references live in
//! `randrecon-linalg` as `matmul_naive` and `eigen_jacobi`.

use randrecon_linalg::Matrix;

/// Pre-blocking rank-update covariance: the PR-1…PR-9 single-pass sweep —
/// one centered scratch row per record, one full pass over the upper
/// comoment triangle per record (contiguous row `axpy`s, k-ascending) —
/// **without** the PR-10 `ROW_BLOCK` panel blocking, which streams each
/// triangle row through cache once per eight records instead of once per
/// record. Preserved so the wide-table (m ∈ {128, 256}) cache-residency
/// speedup is measured inside one binary. Numerically identical to the
/// production kernel (same per-cell addition order), so the ratio is pure
/// memory traffic.
pub fn covariance_matrix_rowsweep_seed(data: &Matrix) -> Matrix {
    let (n, m) = data.shape();
    let mut cov = Matrix::zeros(m, m);
    if n < 2 {
        return cov;
    }
    let means = data.column_means();
    let mut acc = vec![0.0; m * m];
    let mut scratch = vec![0.0; m];
    for r in 0..n {
        let row = data.row(r);
        for ((s, &x), &mu) in scratch.iter_mut().zip(row).zip(&means) {
            *s = x - mu;
        }
        for i in 0..m {
            let v = scratch[i];
            for (o, &w) in acc[i * m + i..(i + 1) * m].iter_mut().zip(&scratch[i..]) {
                *o += v * w;
            }
        }
    }
    let norm = 1.0 / (n - 1) as f64;
    for i in 0..m {
        for j in i..m {
            let v = acc[i * m + j] * norm;
            cov.set(i, j, v);
            cov.set(j, i, v);
        }
    }
    cov
}

/// Seed-path blocked matmul: the PR-1/PR-2 cache-blocked, transpose-packed
/// kernel **without** the PR-3 register microkernel — panel-major packing of
/// `B` (`KC = 64 × NC = 256`, the production kernel's geometry) and a
/// per-output-row `axpy` sweep that re-reads the `C` row on every rank-1
/// update. Preserved here so the microkernel speedup is measured inside one
/// binary (the `matmul_naive` pattern). Single-threaded, matching the
/// 1-core bench container where the production kernel also runs
/// single-threaded.
pub fn matmul_blocked_axpy_seed(a: &Matrix, b: &Matrix) -> Matrix {
    const KC: usize = 64;
    const NC: usize = 256;
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let a = a.as_slice();
    let b = b.as_slice();

    // Pack B into panel-major layout (identical to the production pack).
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

    let mut c = vec![0.0; m * n];
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        let stripe = &packed[kb * n..kb * n + kc * n];
        for i in 0..m {
            let a_seg = &a[i * k + kb..i * k + kb + kc];
            for jb in (0..n).step_by(NC) {
                let nc = NC.min(n - jb);
                let panel = &stripe[kc * jb..kc * jb + kc * nc];
                let c_seg = &mut c[i * n + jb..i * n + jb + nc];
                for (kk, &aik) in a_seg.iter().enumerate() {
                    if aik != 0.0 {
                        let x = &panel[kk * nc..kk * nc + nc];
                        for (o, &v) in c_seg.iter_mut().zip(x.iter()) {
                            *o += aik * v;
                        }
                    }
                }
            }
        }
    }
    Matrix::from_flat(m, n, c).expect("shape is consistent by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};

    #[test]
    fn rowsweep_covariance_is_bit_identical_to_the_blocked_kernel() {
        // Below the 2048-row chunking threshold both kernels run one
        // uninterrupted sweep with identical per-cell addition order, so
        // the PR-10 panel blocking must not move a single bit.
        let spectrum = EigenSpectrum::principal_plus_small(2, 50.0, 9, 1.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 1_000, 10).unwrap();
        let seed = covariance_matrix_rowsweep_seed(ds.table.values());
        let blocked = ds.table.covariance_matrix();
        assert!(seed.approx_eq(&blocked, 0.0));
    }

    #[test]
    fn seed_blocked_matmul_agrees_with_microkernel_path() {
        // Odd shape, above the blocked threshold: the seed axpy kernel and
        // the production microkernel kernel must agree exactly.
        let a = Matrix::from_fn(37, 130, |i, j| ((i * 13 + j * 7) % 23) as f64 - 11.0);
        let b = Matrix::from_fn(130, 301, |i, j| ((i * 5 + j * 11) % 19) as f64 - 9.0);
        let seed = matmul_blocked_axpy_seed(&a, &b);
        let production = a.matmul(&b).unwrap();
        assert!(seed.approx_eq(&production, 0.0));
    }
}
