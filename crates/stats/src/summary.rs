//! Summary statistics: moments, covariance and correlation matrices.
//!
//! Theorem 5.1 of the paper relates the covariance matrix of the disguised
//! data to that of the original data (`Cov(Y) = Cov(X) + σ²I` for independent
//! noise, `Σ_y = Σ_x + Σ_r` in general, Theorem 8.2). These estimators are
//! what both sides of that relationship are computed with.

use randrecon_linalg::Matrix;

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample variance (divides by `n - 1`); 0 if fewer than 2 samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Unbiased sample covariance between two equal-length slices; 0 if fewer than 2 samples.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = mean(&xs[..n]);
    let my = mean(&ys[..n]);
    xs[..n]
        .iter()
        .zip(ys[..n].iter())
        .map(|(&x, &y)| (x - mx) * (y - my))
        .sum::<f64>()
        / (n - 1) as f64
}

/// Pearson correlation coefficient; 0 if either side has zero variance.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    if sx <= f64::EPSILON || sy <= f64::EPSILON {
        return 0.0;
    }
    covariance(xs, ys) / (sx * sy)
}

/// Sample covariance matrix of the columns of `data` (records are rows,
/// attributes are columns), using the unbiased `n - 1` normalization.
///
/// Implemented as a single symmetric-rank-update pass: each record
/// contributes `(x − μ)(x − μ)ᵀ` to the upper triangle through contiguous
/// row `axpy`s, so the data matrix is read exactly once, no centered copy is
/// materialized, and large inputs fan out across the shared thread pool
/// (per-chunk partial triangles, deterministically reduced in chunk order).
pub fn covariance_matrix(data: &Matrix) -> Matrix {
    let means = data.column_means();
    covariance_from_rows(data, Some(&means))
}

/// Like [`covariance_matrix`] but for data whose columns are already
/// centered (mean zero), skipping the extra mean pass. PCA-DR and spectral
/// filtering call this with the centered matrix they need anyway.
pub fn covariance_matrix_centered(data: &Matrix) -> Matrix {
    covariance_from_rows(data, None)
}

fn covariance_from_rows(data: &Matrix, means: Option<&[f64]>) -> Matrix {
    let (n, m) = data.shape();
    let mut cov = Matrix::zeros(m, m);
    if n < 2 {
        return cov;
    }

    // Upper-triangle accumulation over a row chunk, blocked over
    // `ROW_BLOCK` records: each block is centered into one scratch panel,
    // then every triangle row `acc[i, i..]` streams through cache a single
    // time while all of the block's rank-1 contributions land on it —
    // ROW_BLOCK× less comoment-triangle traffic on wide tables. Per cell
    // the additions stay in ascending record order, so the blocked sweep is
    // bit-identical to the per-row one.
    const ROW_BLOCK: usize = 16;
    let accumulate = |rows: std::ops::Range<usize>| -> Vec<f64> {
        let mut acc = vec![0.0; m * m];
        let mut block = vec![0.0; ROW_BLOCK * m];
        let mut r0 = rows.start;
        while r0 < rows.end {
            let rb = ROW_BLOCK.min(rows.end - r0);
            for r in 0..rb {
                let row = data.row(r0 + r);
                let centered = &mut block[r * m..(r + 1) * m];
                match means {
                    Some(mu) => {
                        for ((s, &x), &mv) in centered.iter_mut().zip(row).zip(mu) {
                            *s = x - mv;
                        }
                    }
                    None => centered.copy_from_slice(row),
                }
            }
            let panel = &block[..rb * m];
            for i in 0..m {
                let out = &mut acc[i * m + i..(i + 1) * m];
                // Two records per pass halves the out-row load/store
                // traffic; the two adds stay sequential per cell, keeping
                // the ascending-record addition order.
                let mut pairs = panel.chunks_exact(2 * m);
                for pair in pairs.by_ref() {
                    let (c0, c1) = pair.split_at(m);
                    let (v0, v1) = (c0[i], c1[i]);
                    for ((o, &w0), &w1) in out.iter_mut().zip(&c0[i..]).zip(&c1[i..]) {
                        *o = (*o + v0 * w0) + v1 * w1;
                    }
                }
                for centered in pairs.remainder().chunks_exact(m) {
                    let v = centered[i];
                    for (o, &w) in out.iter_mut().zip(&centered[i..]) {
                        *o += v * w;
                    }
                }
            }
            r0 += rb;
        }
        acc
    };

    // Chunk boundaries are a fixed row count — never a function of the
    // machine's core count — and partial triangles are reduced in chunk
    // order on both the sequential and parallel paths, so the result is
    // bit-identical regardless of how many threads (if any) computed it.
    const CHUNK_ROWS: usize = 2048;
    let flops = n * m * (m + 1) / 2;
    let acc = if n <= CHUNK_ROWS {
        accumulate(0..n)
    } else {
        let ranges: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(CHUNK_ROWS)
            .map(|start| start..(start + CHUNK_ROWS).min(n))
            .collect();
        let partials: Vec<Vec<f64>> = if randrecon_parallel::max_threads() > 1
            && flops >= randrecon_parallel::PARALLEL_MIN_FLOPS
        {
            let result: Result<Vec<Vec<f64>>, ()> =
                randrecon_parallel::parallel_map_result(&ranges, |r| Ok(accumulate(r.clone())));
            result.expect("covariance accumulation cannot fail")
        } else {
            ranges.into_iter().map(&accumulate).collect()
        };
        let mut total = vec![0.0; m * m];
        for part in partials {
            for (o, &v) in total.iter_mut().zip(part.iter()) {
                *o += v;
            }
        }
        total
    };

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

/// Sample correlation-coefficient matrix of the columns of `data`.
///
/// Attributes with zero variance get zero correlation with everything (and 1
/// with themselves), mirroring how the paper's correlation-dissimilarity
/// metric treats the diagonal.
pub fn correlation_matrix(data: &Matrix) -> Matrix {
    let cov = covariance_matrix(data);
    covariance_to_correlation(&cov)
}

/// Converts a covariance matrix into a correlation-coefficient matrix.
pub fn covariance_to_correlation(cov: &Matrix) -> Matrix {
    let m = cov.rows();
    let mut corr = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            if i == j {
                corr.set(i, j, 1.0);
                continue;
            }
            let denom = (cov.get(i, i) * cov.get(j, j)).sqrt();
            let v = if denom <= f64::EPSILON {
                0.0
            } else {
                cov.get(i, j) / denom
            };
            corr.set(i, j, v);
        }
    }
    corr
}

/// Mean of each column of `data` (records are rows).
pub fn mean_vector(data: &Matrix) -> Vec<f64> {
    data.column_means()
}

/// Per-column sample variances of `data`, computed in one row-major pass
/// (no strided column extraction).
pub fn variance_vector(data: &Matrix) -> Vec<f64> {
    let (n, m) = data.shape();
    if n < 2 {
        return vec![0.0; m];
    }
    let means = data.column_means();
    let mut acc = vec![0.0; m];
    for row in data.row_iter() {
        for ((a, &x), &mu) in acc.iter_mut().zip(row).zip(&means) {
            let d = x - mu;
            *a += d * d;
        }
    }
    let norm = 1.0 / (n - 1) as f64;
    for a in &mut acc {
        *a *= norm;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance(&xs) - 4.571428571).abs() < 1e-6);
        assert!((std_dev(&xs) - 4.571428571_f64.sqrt()).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn covariance_and_correlation_of_linear_relation() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|&x| -2.0 * x).collect();
        assert!((correlation(&xs, &neg) + 1.0).abs() < 1e-12);
        // Constant series: correlation defined as 0.
        assert_eq!(correlation(&xs, &vec![5.0; 50]), 0.0);
    }

    #[test]
    fn covariance_matrix_hand_checked() {
        // Two columns: [1,2,3] and [2,4,6] -> var1 = 1, var2 = 4, cov = 2.
        let data = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..], &[3.0, 6.0][..]]).unwrap();
        let cov = covariance_matrix(&data);
        assert!((cov.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((cov.get(1, 1) - 4.0).abs() < 1e-12);
        assert!((cov.get(0, 1) - 2.0).abs() < 1e-12);
        assert!(cov.is_symmetric(1e-12));

        let corr = correlation_matrix(&data);
        assert!((corr.get(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(corr.get(0, 0), 1.0);
    }

    #[test]
    fn centered_variant_matches_full_computation() {
        let data = Matrix::from_rows(&[
            &[1.0, 2.0, -3.0][..],
            &[2.0, 4.0, 1.0][..],
            &[3.0, 6.0, 0.5][..],
            &[-1.0, 1.5, 2.0][..],
        ])
        .unwrap();
        let (centered, _) = data.center_columns();
        let via_centered = covariance_matrix_centered(&centered);
        let full = covariance_matrix(&data);
        assert!(via_centered.approx_eq(&full, 1e-12));
    }

    #[test]
    fn covariance_matrix_of_single_row_is_zero() {
        let data = Matrix::from_rows(&[&[1.0, 2.0][..]]).unwrap();
        let cov = covariance_matrix(&data);
        assert_eq!(cov, Matrix::zeros(2, 2));
    }

    #[test]
    fn correlation_matrix_handles_constant_column() {
        let data = Matrix::from_rows(&[&[1.0, 5.0][..], &[2.0, 5.0][..], &[3.0, 5.0][..]]).unwrap();
        let corr = correlation_matrix(&data);
        assert_eq!(corr.get(0, 1), 0.0);
        assert_eq!(corr.get(1, 1), 1.0);
    }

    #[test]
    fn mean_and_variance_vectors() {
        let data = Matrix::from_rows(&[&[1.0, 10.0][..], &[3.0, 30.0][..]]).unwrap();
        assert_eq!(mean_vector(&data), vec![2.0, 20.0]);
        let v = variance_vector(&data);
        assert!((v[0] - 2.0).abs() < 1e-12);
        assert!((v[1] - 200.0).abs() < 1e-12);
    }

    #[test]
    fn variance_vector_matches_per_column_variance() {
        let data = Matrix::from_fn(37, 4, |i, j| ((i * 7 + j * 3) % 11) as f64 - 0.5 * j as f64);
        let v = variance_vector(&data);
        for (j, got) in v.iter().enumerate() {
            let want = variance(&data.column(j));
            assert!((got - want).abs() < 1e-12, "column {j}: {got} vs {want}");
        }
        assert_eq!(variance_vector(&Matrix::zeros(1, 3)), vec![0.0; 3]);
    }

    #[test]
    fn covariance_matrix_matches_pairwise_covariance_across_chunks() {
        // 5 000 records span three 2 048-record chunks and a partial row
        // block, so the chunked (and, on a multi-core pool, parallel) sweep
        // is checked against the scalar definition.
        let data = Matrix::from_fn(5_000, 3, |i, j| {
            let t = i as f64 * 0.001;
            match j {
                0 => (t * 7.0).sin() * 10.0 + 3.0,
                1 => t * t - 2.0 * t,
                _ => ((i * 31) % 17) as f64,
            }
        });
        let cov = covariance_matrix(&data);
        for i in 0..3 {
            for j in 0..3 {
                let want = covariance(&data.column(i), &data.column(j));
                let got = cov.get(i, j);
                assert!(
                    (got - want).abs() <= 1e-10 * want.abs().max(1.0),
                    "({i}, {j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn covariance_to_correlation_unit_diagonal() {
        let cov = Matrix::from_rows(&[&[4.0, 2.0][..], &[2.0, 9.0][..]]).unwrap();
        let corr = covariance_to_correlation(&cov);
        assert_eq!(corr.get(0, 0), 1.0);
        assert_eq!(corr.get(1, 1), 1.0);
        assert!((corr.get(0, 1) - 2.0 / 6.0).abs() < 1e-12);
    }
}
