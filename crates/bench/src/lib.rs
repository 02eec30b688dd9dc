//! Benchmark support crate.
//!
//! Besides hosting the `benches/` harnesses, this crate preserves the
//! pre-optimization kernels that still back a carried bench ratio and pin
//! bit-identity with their production successors: the per-row covariance
//! sweep (≥1.3× for the blocked rank-update at m = 256), the axpy-sweep
//! blocked matmul (≥1.5× for the register microkernel at 512²), the
//! per-line CSV reader and per-value `format!` writer that the banded CSV
//! codec replaced (its bytes, bits and errors are pinned against them, on
//! fixed tables and on fuzzed record lines), and
//! the two-buffer MVN batch that the in-place triangular transform replaced
//! (≥1.15× on one 8192 × 64 chunk, pinned bit for bit), and the
//! per-member pass-2 loop that the streaming group pass replaced (≥2× per
//! five-scheme group, every member's MSE pinned bit for bit), and UDR's
//! per-value window loop that the window table replaced (≥4× over one
//! attribute of 20 000 values, pinned bit for bit).
//! The unblocked matmul and the Jacobi eigensolver references live in
//! `randrecon-linalg` as `matmul_naive` and `eigen_jacobi`.

use randrecon_core::streaming::{
    CancelToken, ChunkReconstructor, MseSink, StreamMoments, StreamingDriver,
};
use randrecon_data::chunks::RecordChunkSource;
use randrecon_data::csv::split_csv_fields;
use randrecon_data::{DataError, Result};
use randrecon_linalg::Matrix;
use randrecon_noise::NoiseModel;
use randrecon_stats::distributions::{ContinuousDistribution, Normal, Uniform};
use randrecon_stats::rng::{seeded_rng, standard_normal_fill};
use randrecon_stats::StatsError;
use std::io::{BufRead, Lines, Write};

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

/// The MVN batch `MultivariateNormal::sample_matrix` drew before the
/// in-place triangular transform: a fresh `n × dim` matrix `Z` filled with
/// ziggurat draws from `seeded_rng(seed)`, then `Z · Lᵀ` on the blocked
/// `matmul` kernel into a second fresh matrix, against an `Lᵀ` formed once
/// ahead of time, then the mean added. Bit-identical to
/// `sample_matrix(n, &mut seeded_rng(seed))` on the same distribution.
pub fn mvn_sample_matrix_gebp_seed(
    l_transpose: &Matrix,
    mean: &[f64],
    n: usize,
    seed: u64,
) -> Matrix {
    let mut z = Matrix::zeros(n, l_transpose.rows());
    standard_normal_fill(z.as_mut_slice(), &mut seeded_rng(seed));
    let mut out = z.matmul(l_transpose).expect("Z and Lᵀ shapes agree");
    if mean.iter().any(|&m| m != 0.0) {
        out.add_row_broadcast(mean).expect("mean length matches");
    }
    out
}

/// The per-member pass-2 loop the scenario engine ran for a streaming
/// workload group before the group pass: for each attack in turn, a fresh
/// original stream from `fresh_original`, a one-stream `MseSink` and a
/// whole pass 2 over `disguised` against the shared `moments` — so every
/// member regenerates (or rereads) both streams. Returns each member's MSE
/// in member order, bit-identical to `StreamingDriver::run_group` scored
/// by `MseSink::for_group`.
pub fn streaming_group_per_member_seed<S: RecordChunkSource + Send + ?Sized>(
    attacks: &[&dyn ChunkReconstructor],
    moments: &StreamMoments,
    disguised: &mut S,
    noise: &NoiseModel,
    mut fresh_original: impl FnMut() -> Box<dyn RecordChunkSource>,
) -> randrecon_core::Result<Vec<f64>> {
    let driver = StreamingDriver::default();
    attacks
        .iter()
        .map(|attack| {
            let mut reference = fresh_original();
            let mut sink = MseSink::new(reference.as_mut())?;
            driver.run_with_moments_cancellable(
                *attack,
                moments,
                disguised,
                noise,
                &mut sink,
                &CancelToken::new(),
            )?;
            Ok(sink.mse())
        })
        .collect()
}

/// The `posterior` micro-bench group's attribute: prior mean, prior
/// variance and noise variance (σx = 20 against σr = 10).
pub const UDR_BENCH_MOMENTS: (f64, f64, f64) = (5.0, 400.0, 100.0);

/// `n` values of the `posterior` group's attribute: draws from its prior
/// disguised with uniform noise of its variance, from `seeded_rng(n)`.
pub fn udr_bench_values(n: usize) -> Vec<f64> {
    let (mean_x, var_x, var_r) = UDR_BENCH_MOMENTS;
    let prior = Normal::new(mean_x, var_x.sqrt()).expect("valid prior");
    let noise = Uniform::centered_with_std(var_r.sqrt()).expect("valid noise");
    let mut rng = seeded_rng(n as u64);
    (0..n)
        .map(|_| prior.sample(&mut rng) + noise.sample(&mut rng))
        .collect()
}

/// UDR's uniform-noise posterior as the per-value window loop answered it
/// before the window table: the 600-point grid over ±6(σx + σr) and its
/// prior weights `w_trap · prior.pdf(x)` tabulated once, then for each
/// value two binary searches with the uniform pdf's own predicate for its
/// noise window and an ascending fold of `x · w` and `w = prior weight ·
/// density` over the window. Answers `values` for the prior
/// `N(mean_x, var_x)` (`var_x > 0`) under uniform noise of variance
/// `var_r`, bit-identical to `PreparedPosterior::gaussian_moments(mean_x,
/// var_x, var_r, false)` applied value by value, errors included.
pub fn udr_window_sum_seed(
    mean_x: f64,
    var_x: f64,
    var_r: f64,
    values: &[f64],
) -> randrecon_stats::Result<Vec<f64>> {
    const GRID_POINTS: usize = 600;
    let sigma_r = var_r.sqrt();
    let prior = Normal::new(mean_x, var_x.sqrt())?;
    let noise = Uniform::centered_with_std(sigma_r)?;
    let span = 6.0 * (var_x.sqrt() + sigma_r);
    let (low, high) = (mean_x - span, mean_x + span);
    let h = (high - low) / (GRID_POINTS - 1) as f64;
    let abscissae: Vec<f64> = (0..GRID_POINTS).map(|i| low + i as f64 * h).collect();
    let prior_weights: Vec<f64> = abscissae
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let w_trap = if i == 0 || i == GRID_POINTS - 1 {
                0.5
            } else {
                1.0
            };
            w_trap * prior.pdf(x)
        })
        .collect();
    let density = noise.pdf(noise.mean());
    let (lo, hi) = (noise.low(), noise.high());
    values
        .iter()
        .map(|&y| {
            let end = abscissae.partition_point(|&x| y - x >= lo);
            let start = abscissae[..end].partition_point(|&x| y - x >= hi);
            let mut num = 0.0;
            let mut den = 0.0;
            for (&x, &prior_weight) in abscissae[start..end].iter().zip(&prior_weights[start..end])
            {
                let w = prior_weight * density;
                num += x * w;
                den += w;
            }
            if den <= f64::MIN_POSITIVE {
                return Err(StatsError::ZeroPosteriorMass {
                    value: y,
                    low,
                    high,
                    spacing: h,
                    noise_window: Some(hi - lo),
                });
            }
            Ok(num / den)
        })
        .collect()
}

/// The per-line CSV record loop `CsvChunkReader::next_chunk` ran before
/// the banded codec: an owned `String` per line through `BufRead::lines`,
/// blank lines skipped by `trim`, every record split once to count its
/// fields and again to parse them, one value at a time. Reads up to
/// `max_rows` records of `m` values from `lines`; `line_no` is the physical
/// line last read (the header is line 1).
pub fn csv_read_chunk_seed<B: BufRead>(
    lines: &mut Lines<B>,
    line_no: &mut usize,
    m: usize,
    max_rows: usize,
) -> Result<Option<Matrix>> {
    let mut data: Vec<f64> = Vec::new();
    let mut rows = 0usize;
    while rows < max_rows {
        let line = match lines.next() {
            Some(l) => l?,
            None => break,
        };
        *line_no += 1;
        if line.trim().is_empty() {
            continue;
        }
        parse_record_seed(&line, m, *line_no, &mut data)?;
        rows += 1;
    }
    if rows == 0 {
        return Ok(None);
    }
    Ok(Some(Matrix::from_flat(rows, m, data)?))
}

/// The seed reader's record parser: a quoted line is split field-aware, any
/// other is split on commas to count the fields and split again to parse
/// them.
fn parse_record_seed(line: &str, m: usize, line_no: usize, out: &mut Vec<f64>) -> Result<()> {
    let push = |col: usize, f: &str, out: &mut Vec<f64>| -> Result<()> {
        let problem = match f.parse::<f64>() {
            Ok(v) if v.is_finite() => {
                out.push(v);
                return Ok(());
            }
            Ok(_) => "is not a finite number",
            Err(_) => "is not a number",
        };
        Err(DataError::Parse {
            line: line_no,
            reason: format!("column {}: '{f}' {problem}", col + 1),
        })
    };
    if line.contains('"') {
        let fields = split_csv_fields(line).map_err(|reason| DataError::Parse {
            line: line_no,
            reason,
        })?;
        if fields.len() != m {
            return Err(DataError::Parse {
                line: line_no,
                reason: format!("expected {m} fields, found {}", fields.len()),
            });
        }
        for (col, f) in fields.iter().enumerate() {
            push(col, f.trim(), out)?;
        }
        return Ok(());
    }
    let fields = line.split(',').count();
    if fields != m {
        return Err(DataError::Parse {
            line: line_no,
            reason: format!("expected {m} fields, found {fields}"),
        });
    }
    for (col, f) in line.split(',').enumerate() {
        push(col, f.trim(), out)?;
    }
    Ok(())
}

/// The per-value loop `CsvChunkWriter::write_chunk` ran before the banded
/// codec: a `format!` `String` per value, pushed into a line buffer that is
/// written once per record.
pub fn csv_write_chunk_seed<W: Write>(chunk: &Matrix, writer: &mut W) -> std::io::Result<()> {
    let mut line = String::new();
    for row in chunk.row_iter() {
        line.clear();
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            line.push_str(&format!("{v}"));
        }
        line.push('\n');
        writer.write_all(line.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_data::csv::{
        from_csv_string, to_csv_string, CsvChunkReader, CsvChunkWriter, BAND_ROWS,
    };
    use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
    use randrecon_data::{DataTable, Schema};
    use randrecon_linalg::parallel::max_threads;
    use randrecon_stats::posterior::PreparedPosterior;

    #[test]
    fn udr_window_sum_seed_equals_the_prepared_posterior_bit_for_bit() {
        let (mean_x, var_x, var_r) = UDR_BENCH_MOMENTS;
        let values = udr_bench_values(20_000);
        let seed = udr_window_sum_seed(mean_x, var_x, var_r, &values).unwrap();
        let posterior = PreparedPosterior::gaussian_moments(mean_x, var_x, var_r, false).unwrap();
        for (i, (&y, want)) in values.iter().zip(&seed).enumerate() {
            let got = posterior.apply(y).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "value {i}: y = {y}");
        }
        // Beyond the grid, and at NaN, both fail with the same zero-mass
        // error (compared as text: NaN is not equal to itself).
        for y in [1e6, f64::NAN] {
            let seed = udr_window_sum_seed(mean_x, var_x, var_r, &[y]).unwrap_err();
            let got = posterior.apply(y).unwrap_err();
            assert_eq!(format!("{got:?}"), format!("{seed:?}"), "y = {y}");
        }
    }

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

    /// Attributes of the codec pin tests.
    const M: usize = 5;

    /// Records per wave of the banded codec at this process's pool width.
    fn wave_rows() -> usize {
        max_threads() * BAND_ROWS
    }

    /// The read chunk sizes the codec is pinned at: one record, either side
    /// of a band, and the streaming engine's default.
    fn chunk_sizes() -> [usize; 5] {
        [1, 7, BAND_ROWS - 1, BAND_ROWS + 1, 8192]
    }

    /// Records `first..first + rows` of a deterministic table whose values
    /// mix hard cases for the shortest round-trip formatter (signed zeros,
    /// subnormals, the extremes, 0.1 + 0.2) with values across 17 decades.
    fn adversarial_chunk(first: usize, rows: usize) -> Matrix {
        let hard = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            1e-7,
            1e16,
            0.1 + 0.2,
        ];
        Matrix::from_fn(rows, M, |i, j| {
            let k = (first + i) * M + j;
            if k.is_multiple_of(3) {
                hard[(k / 3) % hard.len()]
            } else {
                (k as f64 * 0.618_033_988_749_895).sin() * 10f64.powi((k % 17) as i32 - 8)
            }
        })
    }

    #[test]
    fn csv_codec_writes_the_seed_bytes() {
        let schema = Schema::anonymous(M).unwrap();
        let mut writer = CsvChunkWriter::new(Vec::new(), &schema).unwrap();
        let mut expected = b"a0,a1,a2,a3,a4\n".to_vec();
        // One record, either side of a band and a band, then several waves
        // and a tail.
        let mut records = 0;
        for rows in [
            1,
            BAND_ROWS - 1,
            BAND_ROWS,
            BAND_ROWS + 1,
            3 * wave_rows() + 17,
        ] {
            let chunk = adversarial_chunk(records, rows);
            writer.write_chunk(&chunk).unwrap();
            csv_write_chunk_seed(&chunk, &mut expected).unwrap();
            records += rows;
        }
        assert_eq!(writer.rows_written(), records);
        assert!(
            writer.finish().unwrap() == expected,
            "the banded writer's bytes differ from the seed's"
        );
        let table = DataTable::from_matrix(adversarial_chunk(0, records)).unwrap();
        assert!(
            to_csv_string(&table).as_bytes() == expected,
            "to_csv_string's bytes differ from the seed's"
        );
    }

    /// A CSV text of `n` records exercising the reader's edge cases: blank
    /// and whitespace-only lines (one holding only U+00A0), CRLF line
    /// endings, padded and quoted fields, and no final newline.
    fn awkward_csv(n: usize) -> String {
        let mut text = String::from("a0,a1,\"a2\",a3,a4\r\n");
        for (i, row) in adversarial_chunk(0, n).row_iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(j, v)| match (i + j) % 7 {
                    0 => format!("  {v} "),
                    1 => format!("\"{v}\""),
                    2 => format!("\t{v}"),
                    _ => format!("{v}"),
                })
                .collect();
            text.push_str(&cells.join(","));
            text.push_str(if i.is_multiple_of(5) { "\r\n" } else { "\n" });
            match i % 97 {
                3 => text.push('\n'),
                11 => text.push_str("   \r\n"),
                29 => text.push_str("\u{a0}\n"),
                50 => text.push_str("\t \n\n"),
                _ => {}
            }
        }
        text.truncate(text.trim_end_matches(['\r', '\n']).len());
        text
    }

    fn bits(values: &Matrix) -> Vec<u64> {
        values.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Every chunk's bits up to the end of the input or its first error,
    /// and that error's message.
    type Drained = (Vec<Vec<u64>>, Option<String>);

    /// Reads chunks from `next` until the end of the input or an error.
    fn drain(mut next: impl FnMut() -> Result<Option<Matrix>>) -> Drained {
        let mut chunks = Vec::new();
        loop {
            match next() {
                Ok(Some(chunk)) => chunks.push(bits(&chunk)),
                Ok(None) => return (chunks, None),
                Err(e) => return (chunks, Some(e.to_string())),
            }
        }
    }

    /// Reads `text` at `chunk_rows` through `CsvChunkReader` and through the
    /// seed loop; both must give the same chunks, bits and error.
    fn assert_reads_like_the_seed(name: &str, text: &[u8], chunk_rows: usize) -> Drained {
        let path =
            std::env::temp_dir().join(format!("randrecon_bench_{name}_{}.csv", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let mut reader = CsvChunkReader::open(&path, chunk_rows).unwrap();
        let codec = drain(|| reader.next_chunk());
        std::fs::remove_file(&path).ok();

        let mut lines = text.lines();
        let header = lines.next().unwrap().unwrap();
        let m = split_csv_fields(&header).unwrap().len();
        let mut line_no = 1;
        let seed = drain(|| csv_read_chunk_seed(&mut lines, &mut line_no, m, chunk_rows));
        assert!(
            codec == seed,
            "chunk_rows {chunk_rows}: the codec read {} chunk(s) then {:?}, the seed {} then {:?}",
            codec.0.len(),
            codec.1,
            seed.0.len(),
            seed.1
        );
        codec
    }

    #[test]
    fn csv_codec_parses_the_seed_bits() {
        let n = 2 * wave_rows() + BAND_ROWS / 2 + 3;
        let text = awkward_csv(n);
        for chunk_rows in chunk_sizes() {
            let (chunks, error) = assert_reads_like_the_seed("bits", text.as_bytes(), chunk_rows);
            assert_eq!(error, None);
            assert_eq!(chunks.len(), n.div_ceil(chunk_rows));
        }
        let whole = from_csv_string(&text).unwrap();
        let mut lines = text.as_bytes().lines();
        lines.next();
        let seed = csv_read_chunk_seed(&mut lines, &mut 1, M, usize::MAX)
            .unwrap()
            .unwrap();
        assert!(
            bits(whole.values()) == bits(&seed),
            "read_csv's bits differ from the seed's"
        );
    }

    #[test]
    fn csv_codec_reports_the_seed_errors() {
        let text = awkward_csv(wave_rows() + BAND_ROWS + 5);
        let lines: Vec<&str> = text.split('\n').collect();
        // The index in `lines` of record `k`, blank lines skipped.
        let record = |k: usize| {
            let mut records = (1..lines.len()).filter(|&i| !lines[i].trim().is_empty());
            records.nth(k).unwrap()
        };
        let bad_lines = [
            "1,2,3,4",
            "1,2,x,4,5",
            "1,2,3,4,-inf",
            "NaN,2,3",
            "\"1\",2,3,4,5,6",
            "\"1,5\",2,3,4,5",
            "1,2,3,4,\"5",
        ];
        // In 8192-row chunks: the first line of the second band, and the
        // last line of the first wave.
        for at in [record(BAND_ROWS), record(wave_rows() - 1)] {
            for bad in bad_lines {
                let mut edited = lines.clone();
                edited[at] = bad;
                let edited = edited.join("\n");
                for chunk_rows in chunk_sizes() {
                    let (_, error) =
                        assert_reads_like_the_seed("errors", edited.as_bytes(), chunk_rows);
                    assert!(error.is_some(), "{bad} at line {}", at + 1);
                }
            }
        }
    }

    /// SplitMix64: the fuzzer's deterministic stream.
    struct Fuzz(u64);

    impl Fuzz {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a [u8]]) -> &'a [u8] {
            items[self.below(items.len())]
        }

        /// `n` random decimal digits.
        fn digits(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| b'0' + self.below(10) as u8).collect()
        }

        /// `min` to `max` random decimal digits.
        fn some_digits(&mut self, min: usize, max: usize) -> Vec<u8> {
            let n = min + self.below(max - min + 1);
            self.digits(n)
        }
    }

    /// One record field built from number-syntax atoms: mostly a number
    /// with a random sign, integer and fraction digits (up to 19, 20 or
    /// 400 of them, or a run of zeros), exponent, padding and quotes;
    /// otherwise any few atoms, commas, quotes, `inf`, `NaN`, U+00A0 and an
    /// invalid UTF-8 byte among them.
    fn fuzz_field(rng: &mut Fuzz) -> Vec<u8> {
        const ATOMS: [&[u8]; 20] = [
            b"0",
            b"7",
            b"12345",
            b"-",
            b"+",
            b".",
            b"e",
            b"E",
            b",",
            b" ",
            b"\t",
            b"\"",
            b"inf",
            b"NaN",
            b"\r",
            "\u{a0}".as_bytes(),
            b"\xff",
            b"00000",
            b"1e-400",
            b"-0",
        ];
        const PADS: [&[u8]; 5] = [b" ", b"\t", b"\r", "\u{a0}".as_bytes(), b""];
        let mut field = Vec::new();
        if rng.below(10) == 0 {
            for _ in 0..1 + rng.below(4) {
                field.extend_from_slice(rng.pick(&ATOMS));
            }
            return field;
        }
        let digits = |rng: &mut Fuzz| match rng.below(8) {
            0 => Vec::new(),
            1 => b"0".repeat(1 + rng.below(30)),
            2 => rng.digits(19),
            3 => rng.digits(20),
            4 => rng.digits(400),
            5 => [b"0".repeat(rng.below(25)), rng.some_digits(1, 19)].concat(),
            _ => rng.some_digits(1, 6),
        };
        let quoted = rng.below(20) == 0;
        let pad = rng.below(10) == 0;
        if pad {
            field.extend_from_slice(rng.pick(&PADS));
        }
        if quoted {
            field.push(b'"');
        }
        field.extend_from_slice(rng.pick(&[b"", b"", b"", b"-", b"+"]));
        field.extend(digits(rng));
        if rng.below(3) > 0 {
            field.push(b'.');
            field.extend(digits(rng));
        }
        if rng.below(10) == 0 {
            field.extend_from_slice(rng.pick(&[b"e", b"E", b"e-", b"e+"]));
            field.extend(rng.some_digits(0, 3));
        }
        if quoted {
            field.push(b'"');
        }
        if pad {
            field.extend_from_slice(rng.pick(&PADS));
        }
        field
    }

    /// A CSV text under the header `a0,a1,a2`: a few record lines of about
    /// three fuzzed fields, with blank lines, trailing commas and CRLF
    /// endings among them.
    fn fuzz_csv(rng: &mut Fuzz) -> Vec<u8> {
        let mut text = b"a0,a1,a2\n".to_vec();
        for _ in 0..1 + rng.below(4) {
            let fields = match rng.below(12) {
                0 => 2,
                1 => 4,
                _ => 3,
            };
            for j in 0..fields {
                if j > 0 {
                    text.push(b',');
                }
                text.extend(fuzz_field(rng));
            }
            match rng.below(12) {
                0 => text.push(b','),
                1 => text.extend_from_slice(b"\n"),
                _ => {}
            }
            text.extend_from_slice(rng.pick(&[b"\n", b"\n", b"\r\n"]));
        }
        text
    }

    #[test]
    fn csv_codec_matches_the_seed_on_fuzzed_records() {
        // The fast path hands every line it does not read exactly to the
        // std path, so on any input both readers must give the seed loop's
        // bits or its located error, and none may panic.
        let mut rng = Fuzz(0xC5F_F022);
        let mut readable = 0;
        for case in 0..10_000 {
            let text = fuzz_csv(&mut rng);
            assert_reads_like_the_seed("fuzz", &text, 1);
            let (chunks, error) = assert_reads_like_the_seed("fuzz", &text, 8192);
            let whole = match std::str::from_utf8(&text) {
                Ok(text) => from_csv_string(text),
                Err(_) => randrecon_data::csv::read_csv(&mut &text[..]),
            };
            match (whole, chunks.first(), &error) {
                (Ok(table), Some(bits_read), None) => {
                    assert!(bits(table.values()) == *bits_read, "case {case}");
                    readable += 1;
                }
                (Err(e), None, None) => {
                    assert_eq!(e.to_string(), "CSV parse error at line 2: no data rows")
                }
                (Err(e), _, Some(seed_error)) => {
                    assert_eq!(&e.to_string(), seed_error, "case {case}")
                }
                (whole, _, _) => panic!("case {case}: read_csv gave {whole:?}, the seed {error:?}"),
            }
        }
        // Some cases are whole tables of plain numbers, read on the fast
        // path end to end.
        assert!(readable > 100, "{readable} readable cases");
    }

    #[test]
    fn mvn_gebp_seed_is_bit_identical_to_in_place_sample_matrix() {
        use randrecon_linalg::decomposition::Cholesky;
        use randrecon_stats::mvn::MultivariateNormal;
        // The bench's shape, one 8192 × 64 chunk, plus a short odd one.
        for (n, m) in [(8192, 64), (13, 7)] {
            let spectrum = EigenSpectrum::principal_plus_small(m / 10 + 1, 400.0, m, 4.0).unwrap();
            let cov = SyntheticDataset::generate(&spectrum, 200, 3)
                .unwrap()
                .covariance;
            let mean: Vec<f64> = (0..m).map(|j| j as f64 * 0.5).collect();
            let l_t = Cholesky::new(&cov).unwrap().l().transpose();
            let mvn = MultivariateNormal::new(mean.clone(), cov).unwrap();
            let seed = mvn_sample_matrix_gebp_seed(&l_t, &mean, n, 17);
            let production = mvn.sample_matrix(n, &mut seeded_rng(17));
            let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&seed), bits(&production), "{n} x {m}");
        }
    }

    #[test]
    fn group_pass_equals_the_per_member_seed() {
        use randrecon_core::streaming::{
            StreamingBeDr, StreamingNdr, StreamingPcaDr, StreamingSf, StreamingUdr,
        };
        use randrecon_data::chunks::SyntheticChunkSource;
        use randrecon_noise::additive::{AdditiveRandomizer, DisguisedChunkSource};
        // The five schemes in the bench's order, over a small stream whose
        // last chunk is short, under Gaussian and uniform noise.
        let attacks: [&dyn ChunkReconstructor; 5] = [
            &StreamingNdr,
            &StreamingUdr,
            &StreamingSf::default(),
            &StreamingPcaDr::largest_gap(),
            &StreamingBeDr::default(),
        ];
        let spectrum = EigenSpectrum::principal_plus_small(2, 200.0, 8, 2.0).unwrap();
        let original = SyntheticChunkSource::generate(&spectrum, 1_000, 96, 31).unwrap();
        for randomizer in [
            AdditiveRandomizer::gaussian(6.0).unwrap(),
            AdditiveRandomizer::uniform(6.0).unwrap(),
        ] {
            let mut disguised = DisguisedChunkSource::new(original.clone(), randomizer, 32);
            let noise = disguised.model().clone();
            let moments = StreamingDriver::accumulate_moments(&mut disguised).unwrap();
            let seed =
                streaming_group_per_member_seed(&attacks, &moments, &mut disguised, &noise, || {
                    Box::new(original.clone())
                })
                .unwrap();
            let mut reference = original.clone();
            let mut sink = MseSink::for_group(&mut reference, attacks.len()).unwrap();
            StreamingDriver::default()
                .run_group(
                    &attacks,
                    &moments,
                    &mut disguised,
                    &noise,
                    &mut sink,
                    &CancelToken::new(),
                )
                .unwrap();
            for (k, mse) in seed.iter().enumerate() {
                assert_eq!(
                    sink.mse_of(k).to_bits(),
                    mse.to_bits(),
                    "{}: group {} vs seed {mse}",
                    attacks[k].name(),
                    sink.mse_of(k)
                );
            }
        }
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
