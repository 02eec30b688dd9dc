//! Micro benchmarks for the substrates the attacks are built on.
//!
//! Groups:
//!
//! * `substrates` — eigendecomposition, covariance, multivariate-normal
//!   sampling and the PCA projection at the paper's evaluation sizes
//!   (m = 50 and m = 100 attributes, n = 1000 records). No attack computes
//!   an inverse, so none is timed; Cholesky is timed as the solve in
//!   `kernels_v1`.
//! * `kernels_v1` — matmul (against the unblocked `Matrix::matmul_naive`),
//!   cholesky-solve, covariance and BE-DR end-to-end throughput at
//!   n ∈ {500, 5 000, 50 000} records × 64 attributes.
//! * `kernels_v2` — the Householder + implicit-shift QL eigensolver against
//!   the pinned Jacobi reference at m ∈ {64, 128, 256}, and batched MVN
//!   sampling at 50 000 records.
//! * `kernels_v3` — the 4×8 register-blocked `Matrix::matmul` against the
//!   preserved axpy-sweep blocked kernel
//!   (`randrecon_bench::matmul_blocked_axpy_seed`) at 256² and 512²;
//!   `matmul_micro/512` vs `matmul_blocked_seed/512` is the carried ≥1.5×
//!   ratio.
//! * `streaming` — in-memory BE-DR vs the two-pass streaming engine over the
//!   same 50 k × 64 disguised table (`be_dr_in_memory/50000` vs
//!   `be_dr_streaming/50000`, the carried ≥0.8× throughput ratio), the
//!   other four schemes through the unified driver (`ndr_streaming` /
//!   `udr_streaming` / `sf_streaming` / `pca_dr_streaming` at 50 k × 64),
//!   and the 500 k × 64 flagship where generation, disguising and both
//!   attack passes stream chunk by chunk with no `n × m` allocation.
//! * `pipeline_ring` — pass 2 through the N-slot ring (depths 2, 4 and 8)
//!   against the sequential loop at 50 k × 64 and 500 k × 64
//!   (`be_dr_ring4/50000` vs `be_dr_sequential/50000` is the carried ≥0.95×
//!   ratio), plus the `ROW_BLOCK`-panel covariance rank-update against the
//!   preserved per-row sweep at n = 1000, m ∈ {128, 256}
//!   (`sample_covariance_n1000/256` vs `sample_covariance_rowsweep_n1000/256`,
//!   the carried ≥1.3× ratio).
//! * `csv` — one 8192 × 64 disguised chunk of CSV text parsed and
//!   formatted in memory by the banded codec (`from_csv_string` and
//!   `CsvChunkWriter` over a `Vec<u8>`) and by the per-line and per-value
//!   seed loops it replaced (`randrecon_bench::csv_read_chunk_seed` /
//!   `csv_write_chunk_seed`): `csv_parse_seed/8192` vs `csv_parse/8192` and
//!   `csv_format_seed/8192` vs `csv_format/8192` are the two codec ratios.
//! * `posterior` — UDR's uniform-noise posterior mean over one attribute
//!   of 20 000 disguised values (σx = 20, σr = 10): the prepared window
//!   table (`PreparedPosterior`, preparation included) against the full
//!   600-point `grid_posterior_mean` per value that it is pinned to
//!   (`udr_uniform_reference/20000` vs `udr_uniform/20000`, ≥10×) and
//!   against the per-value window loop it replaced, two binary searches and
//!   a window fold per value (`randrecon_bench::udr_window_sum_seed`,
//!   preparation included): `udr_uniform_window_seed/20000` vs
//!   `udr_uniform/20000`, ≥4×.
//! * `mvn` — one 8192 × 64 synthetic chunk drawn by
//!   `MultivariateNormal::sample_matrix` (one buffer, ziggurat draws
//!   transformed in place through `L`'s lower triangle) against the
//!   two-buffer path it replaced (`randrecon_bench::mvn_sample_matrix_gebp_seed`:
//!   fresh `Z`, then `Z · Lᵀ` on the blocked kernel into a second fresh
//!   matrix): `mvn/sample_matrix_gebp_seed/8192` vs `mvn/sample_matrix/8192`.
//! * `streaming_group` — pass 2 of one five-scheme streaming workload group
//!   (NDR, UDR, SF, PCA-DR, BE-DR over a synthesized 20 000 × 32 stream in
//!   2048-row chunks, Gaussian noise, each scored by MSE against the
//!   original stream, pass-1 moments shared): the group pass
//!   (`StreamingDriver::run_group` into one `MseSink::for_group`) against
//!   the per-member loop it replaced
//!   (`randrecon_bench::streaming_group_per_member_seed`), which
//!   synthesizes both streams once per member: `streaming_group/per_member/5`
//!   vs `streaming_group/group/5`.
//! * `scenario`, `journal`, `shard`, `supervise`, `moment_merge` — one
//!   8-workload grid ([`seed_grid_specs`]) through the runner vs a
//!   hand-rolled loop (≤5% overhead), journaled vs plain (≤5%), sharded in
//!   process vs plain (≤10%), supervised vs bare sharding (≤5%), and, on the
//!   streaming engine, moment-merged vs unsplit sharding (≤10%).
//!
//! `scripts/bench_to_json.sh` dumps every group to JSON and prints the
//! carried ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use randrecon_bench::{
    covariance_matrix_rowsweep_seed, csv_read_chunk_seed, csv_write_chunk_seed,
    matmul_blocked_axpy_seed, mvn_sample_matrix_gebp_seed, streaming_group_per_member_seed,
    udr_bench_values, udr_window_sum_seed, UDR_BENCH_MOMENTS,
};
use randrecon_core::be_dr::BeDr;
use randrecon_core::streaming::{
    CancelToken, ChunkReconstructor, DiscardSink, MseSink, StreamingBeDr, StreamingDriver,
    StreamingNdr, StreamingPcaDr, StreamingSf, StreamingUdr, TableSink,
};
use randrecon_core::Reconstructor;
use randrecon_data::chunks::{SyntheticChunkSource, TableChunkSource};
use randrecon_data::csv::{from_csv_string, to_csv_string, CsvChunkWriter};
use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
use randrecon_data::DataTable;
use randrecon_experiments::scenario::{
    EngineSpec, GridAxis, GridAxisValue, Override, RetryPolicy, ScenarioGrid, ScenarioSpec,
};
use randrecon_linalg::decomposition::{eigen_jacobi, Cholesky, SymmetricEigen};
use randrecon_linalg::Matrix;
use randrecon_noise::additive::{AdditiveRandomizer, DisguisedChunkSource};
use randrecon_stats::distributions::{ContinuousDistribution, Normal, Uniform};
use randrecon_stats::mvn::MultivariateNormal;
use randrecon_stats::posterior::{grid_posterior_mean, PreparedPosterior};
use randrecon_stats::rng::seeded_rng;
use randrecon_stats::summary::covariance_matrix;
use std::hint::black_box;

fn workload(m: usize) -> SyntheticDataset {
    let spectrum = EigenSpectrum::principal_plus_small(m / 10 + 1, 400.0, m, 4.0).unwrap();
    SyntheticDataset::generate(&spectrum, 1_000, m as u64).unwrap()
}

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.sample_size(10);
    for &m in &[50usize, 100] {
        let ds = workload(m);
        let cov = ds.covariance.clone();

        group.bench_with_input(BenchmarkId::new("eigen", m), &m, |b, _| {
            b.iter(|| black_box(SymmetricEigen::new(&cov).unwrap()))
        });
        group.bench_with_input(
            BenchmarkId::new("sample_covariance_n1000", m),
            &m,
            |b, _| b.iter(|| black_box(covariance_matrix(ds.table.values()))),
        );
        group.bench_with_input(
            BenchmarkId::new("mvn_sample_1000_records", m),
            &m,
            |b, _| {
                let mvn = MultivariateNormal::zero_mean(cov.clone()).unwrap();
                b.iter(|| black_box(mvn.sample_matrix(1_000, &mut seeded_rng(7))))
            },
        );
        group.bench_with_input(BenchmarkId::new("matmul_projection", m), &m, |b, _| {
            // The Y·Q̂Q̂ᵀ projection that dominates PCA-DR / SF.
            let q = &ds.eigenvectors;
            b.iter(|| {
                let proj = ds
                    .table
                    .values()
                    .matmul(q)
                    .unwrap()
                    .matmul_transpose_b(q)
                    .unwrap();
                black_box(proj)
            })
        });
    }
    group.finish();
}

/// The PR-1 perf-trajectory sizes: n records × 64 attributes.
const KERNEL_ROWS: [usize; 3] = [500, 5_000, 50_000];
const KERNEL_ATTRS: usize = 64;

fn kernel_workload(n: usize) -> (DataTable, AdditiveRandomizer) {
    let spectrum = EigenSpectrum::principal_plus_small(6, 400.0, KERNEL_ATTRS, 4.0).unwrap();
    let ds = SyntheticDataset::generate(&spectrum, n, n as u64).unwrap();
    let randomizer = AdditiveRandomizer::gaussian(10.0).unwrap();
    let disguised = randomizer
        .disguise(&ds.table, &mut seeded_rng(n as u64 + 1))
        .unwrap();
    (disguised, randomizer)
}

fn bench_kernels_v1(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_v1");
    group.sample_size(10);

    for &n in &KERNEL_ROWS {
        let (disguised, randomizer) = kernel_workload(n);
        let model = randomizer.model();
        let y = disguised.values().clone();
        let square = covariance_matrix(&y); // 64×64 SPD multiplier / RHS

        // (n×64)·(64×64): the reconstruction-projection shape.
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |b, _| {
            b.iter(|| black_box(y.matmul(&square).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("matmul_seed", n), &n, |b, _| {
            b.iter(|| black_box(y.matmul_naive(&square).unwrap()))
        });

        // A X = B with a 64×64 SPD system and an n-column right-hand side.
        let chol = Cholesky::new(&square).unwrap();
        let rhs = y.transpose(); // 64×n
        group.bench_with_input(BenchmarkId::new("cholesky_solve", n), &n, |b, _| {
            b.iter(|| black_box(chol.solve_matrix(&rhs).unwrap()))
        });

        group.bench_with_input(BenchmarkId::new("covariance", n), &n, |b, _| {
            b.iter(|| black_box(covariance_matrix(&y)))
        });

        // BE-DR end to end.
        group.bench_with_input(BenchmarkId::new("be_dr", n), &n, |b, _| {
            b.iter(|| black_box(BeDr::default().reconstruct(&disguised, model).unwrap()))
        });
    }
    group.finish();
}

/// The eigensolver against its pinned Jacobi reference, and the batched
/// sampler.
fn bench_kernels_v2(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_v2");
    group.sample_size(10);

    // Eigendecomposition at the attribute counts the tridiagonal pipeline
    // unlocks. Both paths consume the identical covariance matrix.
    for &m in &[64usize, 128, 256] {
        let ds = workload(m);
        let cov = ds.covariance.clone();
        group.bench_with_input(BenchmarkId::new("eigen", m), &m, |b, _| {
            b.iter(|| black_box(SymmetricEigen::householder_ql(&cov).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("eigen_jacobi", m), &m, |b, _| {
            b.iter(|| black_box(eigen_jacobi(&cov).unwrap()))
        });
    }

    // MVN sampling at the 50k-row bench-setup size.
    let ds = workload(KERNEL_ATTRS);
    let mvn = MultivariateNormal::zero_mean(ds.covariance.clone()).unwrap();
    group.bench_with_input(
        BenchmarkId::new("mvn_sample_matrix", 50_000usize),
        &50_000usize,
        |b, _| b.iter(|| black_box(mvn.sample_matrix(50_000, &mut seeded_rng(11)))),
    );
    group.finish();
}

/// The PR-3 microkernel group: register-blocked matmul vs the preserved
/// axpy-sweep blocked kernel, same operands, one binary.
fn bench_kernels_v3(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_v3");
    group.sample_size(10);
    for &n in &[256usize, 512] {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 97) as f64 / 9.0 - 5.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 89) as f64 / 7.0 - 6.0);
        group.bench_with_input(BenchmarkId::new("matmul_micro", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("matmul_blocked_seed", n), &n, |bch, _| {
            bch.iter(|| black_box(matmul_blocked_axpy_seed(&a, &b)))
        });
    }
    group.finish();
}

/// The PR-3 streaming group: bounded-memory two-pass BE-DR against the
/// in-memory pipeline at 50 k × 64 (same disguised records via a chunked
/// view), plus the 500 k × 64 fully-streamed flagship.
fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);

    // 50 k × 64: identical records through both pipelines. The streaming
    // run includes its pass-1 accumulation *and* materializes the result
    // through a TableSink, so the comparison is end-to-end fair.
    let n = 50_000usize;
    let (disguised, randomizer) = kernel_workload(n);
    let model = randomizer.model();
    group.bench_with_input(BenchmarkId::new("be_dr_in_memory", n), &n, |b, _| {
        b.iter(|| black_box(BeDr::default().reconstruct(&disguised, model).unwrap()))
    });
    group.bench_with_input(BenchmarkId::new("be_dr_streaming", n), &n, |b, _| {
        b.iter(|| {
            let mut source = TableChunkSource::new(&disguised, 4_096).unwrap();
            let mut sink = TableSink::new(KERNEL_ATTRS);
            StreamingBeDr::default()
                .run(&mut source, model, &mut sink)
                .unwrap();
            black_box(sink.into_matrix().unwrap())
        })
    });
    // Per-scheme streaming throughput through the unified driver, same
    // 50 k × 64 records and TableSink materialization as `be_dr_streaming`.
    let driver = StreamingDriver::default();
    let schemes: [(&str, Box<dyn ChunkReconstructor>); 4] = [
        ("ndr_streaming", Box::new(StreamingNdr)),
        ("udr_streaming", Box::new(StreamingUdr)),
        ("sf_streaming", Box::new(StreamingSf::default())),
        ("pca_dr_streaming", Box::new(StreamingPcaDr::largest_gap())),
    ];
    for (name, attack) in &schemes {
        group.bench_with_input(BenchmarkId::new(*name, n), &n, |b, _| {
            b.iter(|| {
                let mut source = TableChunkSource::new(&disguised, 4_096).unwrap();
                let mut sink = TableSink::new(KERNEL_ATTRS);
                driver
                    .run(attack.as_ref(), &mut source, model, &mut sink)
                    .unwrap();
                black_box(sink.into_matrix().unwrap())
            })
        });
    }

    // 500 k × 64: generation, disguising and both passes stream chunk by
    // chunk — peak memory is a few 8192-row buffers plus m × m state. Two
    // samples keep the ~6 s end-to-end runs affordable on the 1-core
    // container.
    group.sample_size(2);
    let n = 500_000usize;
    let spectrum = EigenSpectrum::principal_plus_small(6, 400.0, KERNEL_ATTRS, 4.0).unwrap();
    group.bench_with_input(BenchmarkId::new("be_dr_streaming", n), &n, |b, _| {
        b.iter(|| {
            let original = SyntheticChunkSource::generate(&spectrum, n, 8_192, n as u64).unwrap();
            let mut source = DisguisedChunkSource::new(
                original,
                AdditiveRandomizer::gaussian(10.0).unwrap(),
                n as u64 + 1,
            );
            let noise = source.model().clone();
            let mut sink = DiscardSink::default();
            let report = StreamingBeDr::default()
                .run(&mut source, &noise, &mut sink)
                .unwrap();
            black_box(report.n_records)
        })
    });
    group.finish();
}

/// The PR-10 ring group: pass 2 through the N-slot ring against the forced
/// sequential loop and the ring pinned to the old two-slot depth, on the
/// 50 k × 64 materialized workload and the 500 k × 64 fully-streamed
/// flagship; `be_dr_ring4/50000` vs `be_dr_sequential/50000` is the
/// tracked ≥0.95× acceptance ratio (the N-slot generalization of the PR-4
/// double-buffer floor). The group also carries the wide-table covariance
/// numbers: the `ROW_BLOCK`-panel rank-update against the preserved
/// per-row sweep (`randrecon_bench::covariance_matrix_rowsweep_seed`) at
/// n = 1000, m ∈ {128, 256}; `sample_covariance_n1000/256` vs
/// `sample_covariance_rowsweep_n1000/256` is the tracked ≥1.3× acceptance
/// ratio.
fn bench_pipeline_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_ring");
    group.sample_size(10);

    // 50 k × 64, end to end through a TableSink, one ring depth per entry.
    let n = 50_000usize;
    let (disguised, randomizer) = kernel_workload(n);
    let model = randomizer.model();
    let depths = [
        ("be_dr_sequential", 1),
        ("be_dr_two_slot", 2),
        ("be_dr_ring4", 4),
        ("be_dr_ring8", 8),
    ];
    for (name, slots) in depths {
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| {
                let mut source = TableChunkSource::new(&disguised, 4_096).unwrap();
                let mut sink = TableSink::new(KERNEL_ATTRS);
                StreamingDriver { slots }
                    .run(&StreamingBeDr::default(), &mut source, model, &mut sink)
                    .unwrap();
                black_box(sink.into_matrix().unwrap())
            })
        });
    }

    // Wide-table covariance: the blocked rank-update vs the preserved
    // per-row sweep, identical input, identical output bits.
    for &m in &[128usize, 256] {
        let ds = workload(m);
        let y = ds.table.values();
        group.bench_with_input(
            BenchmarkId::new("sample_covariance_n1000", m),
            &m,
            |b, _| b.iter(|| black_box(covariance_matrix(y))),
        );
        group.bench_with_input(
            BenchmarkId::new("sample_covariance_rowsweep_n1000", m),
            &m,
            |b, _| b.iter(|| black_box(covariance_matrix_rowsweep_seed(y))),
        );
    }

    // 500 k × 64 fully streamed (generation + disguise + both passes),
    // three samples per depth: enough for the harness's median to shed one
    // interference burst while keeping the ~6 s runs affordable on 1 core.
    group.sample_size(3);
    let n = 500_000usize;
    let spectrum = EigenSpectrum::principal_plus_small(6, 400.0, KERNEL_ATTRS, 4.0).unwrap();
    let depths = [
        ("be_dr_sequential", 1),
        ("be_dr_two_slot", 2),
        ("be_dr_ring4", 4),
    ];
    for (name, slots) in depths {
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| {
                let original =
                    SyntheticChunkSource::generate(&spectrum, n, 8_192, n as u64).unwrap();
                let mut source = DisguisedChunkSource::new(
                    original,
                    AdditiveRandomizer::gaussian(10.0).unwrap(),
                    n as u64 + 1,
                );
                let noise = source.model().clone();
                let mut sink = DiscardSink::default();
                let report = StreamingDriver { slots }
                    .run(&StreamingBeDr::default(), &mut source, &noise, &mut sink)
                    .unwrap();
                black_box(report.n_records)
            })
        });
    }
    group.finish();
}

/// Rows of the `csv` group's chunk: the streaming engine's default chunk.
const CSV_ROWS: usize = 8192;

/// The CSV codec on one disguised `CSV_ROWS` × 64 chunk in memory, against
/// the per-line reader and per-value `format!` writer it replaced. Both
/// parse benches read the header and every record; both format benches
/// write every record into a `Vec<u8>`.
fn bench_csv(c: &mut Criterion) {
    use std::io::BufRead;

    let mut group = c.benchmark_group("csv");
    group.sample_size(10);
    let (table, _) = kernel_workload(CSV_ROWS);
    let text = to_csv_string(&table);
    let chunk = table.values();

    group.bench_with_input(BenchmarkId::new("csv_parse", CSV_ROWS), &text, |b, text| {
        b.iter(|| black_box(from_csv_string(text).unwrap()))
    });
    group.bench_with_input(
        BenchmarkId::new("csv_parse_seed", CSV_ROWS),
        &text,
        |b, text| {
            b.iter(|| {
                let mut lines = text.as_bytes().lines();
                lines.next();
                black_box(
                    csv_read_chunk_seed(&mut lines, &mut 1, KERNEL_ATTRS, CSV_ROWS)
                        .unwrap()
                        .unwrap(),
                )
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("csv_format", CSV_ROWS),
        chunk,
        |b, chunk| {
            b.iter(|| {
                let out = Vec::with_capacity(text.len());
                let mut writer = CsvChunkWriter::new(out, table.schema()).unwrap();
                writer.write_chunk(chunk).unwrap();
                black_box(writer.finish().unwrap())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("csv_format_seed", CSV_ROWS),
        chunk,
        |b, chunk| {
            b.iter(|| {
                let mut out = Vec::with_capacity(text.len());
                csv_write_chunk_seed(chunk, &mut out).unwrap();
                black_box(out)
            })
        },
    );
    group.finish();
}

/// Values of the `posterior` group's attribute.
const POSTERIOR_VALUES: usize = 20_000;

/// UDR's posterior mean under uniform noise for one attribute, σx = 20
/// against σr = 10: the prepared quadrature (prepared once per run, as UDR
/// prepares it once per attribute) against the per-value reference and
/// against the per-value window loop it replaced.
fn bench_posterior(c: &mut Criterion) {
    let mut group = c.benchmark_group("posterior");
    group.sample_size(10);
    let (mean_x, var_x, var_r) = UDR_BENCH_MOMENTS;
    let prior = Normal::new(mean_x, var_x.sqrt()).unwrap();
    let noise = Uniform::centered_with_std(var_r.sqrt()).unwrap();
    let values = udr_bench_values(POSTERIOR_VALUES);
    let span = 6.0 * (var_x.sqrt() + var_r.sqrt());

    group.bench_with_input(
        BenchmarkId::new("udr_uniform", POSTERIOR_VALUES),
        &values,
        |b, values| {
            b.iter(|| {
                let posterior =
                    PreparedPosterior::gaussian_moments(mean_x, var_x, var_r, false).unwrap();
                let estimates: Vec<f64> = values
                    .iter()
                    .map(|&y| posterior.apply(y).unwrap())
                    .collect();
                black_box(estimates)
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("udr_uniform_window_seed", POSTERIOR_VALUES),
        &values,
        |b, values| {
            b.iter(|| black_box(udr_window_sum_seed(mean_x, var_x, var_r, values).unwrap()))
        },
    );
    group.bench_with_input(
        BenchmarkId::new("udr_uniform_reference", POSTERIOR_VALUES),
        &values,
        |b, values| {
            b.iter(|| {
                let estimates: Vec<f64> = values
                    .iter()
                    .map(|&y| {
                        grid_posterior_mean(
                            y,
                            |x| prior.pdf(x),
                            &noise,
                            mean_x - span,
                            mean_x + span,
                            600,
                        )
                        .unwrap()
                    })
                    .collect();
                black_box(estimates)
            })
        },
    );
    group.finish();
}

/// Rows of the `mvn` group's chunk: the streaming engine's default chunk.
const MVN_ROWS: usize = 8192;

/// One flagship-shaped synthetic chunk (64 attributes) drawn in place
/// against the two-buffer seed path, from the same seed each iteration.
fn bench_mvn(c: &mut Criterion) {
    let mut group = c.benchmark_group("mvn");
    group.sample_size(10);
    let cov = workload(KERNEL_ATTRS).covariance;
    let l_transpose = Cholesky::new(&cov).unwrap().l().transpose();
    let mvn = MultivariateNormal::zero_mean(cov).unwrap();
    group.bench_with_input(
        BenchmarkId::new("sample_matrix", MVN_ROWS),
        &MVN_ROWS,
        |b, &n| b.iter(|| black_box(mvn.sample_matrix(n, &mut seeded_rng(29)))),
    );
    group.bench_with_input(
        BenchmarkId::new("sample_matrix_gebp_seed", MVN_ROWS),
        &MVN_ROWS,
        |b, &n| b.iter(|| black_box(mvn_sample_matrix_gebp_seed(&l_transpose, mvn.mean(), n, 29))),
    );
    group.finish();
}

/// The streaming group pass against the per-member loop it replaced, over
/// one five-scheme workload group shaped like the default grid's streaming
/// cells (20 000 × 32, 2048-row chunks). Both sides share one pass 1 and
/// score every member against the original stream; the loop synthesizes
/// the disguised and the original stream once per member, the group pass
/// once in all (`per_member/5` vs `group/5`).
fn bench_streaming_group(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_group");
    group.sample_size(10);
    let attacks: [&dyn ChunkReconstructor; 5] = [
        &StreamingNdr,
        &StreamingUdr,
        &StreamingSf::default(),
        &StreamingPcaDr::largest_gap(),
        &StreamingBeDr::default(),
    ];
    let spectrum = EigenSpectrum::principal_plus_small(8, 400.0, 32, 4.0).unwrap();
    let original = SyntheticChunkSource::generate(&spectrum, 20_000, 2_048, 0x6E0).unwrap();
    let mut disguised = DisguisedChunkSource::new(
        original.clone(),
        AdditiveRandomizer::gaussian(10.0).unwrap(),
        0x6E1,
    );
    let noise = disguised.model().clone();
    let moments = StreamingDriver::accumulate_moments(&mut disguised).unwrap();
    let members = attacks.len();
    group.bench_with_input(BenchmarkId::new("per_member", members), &members, |b, _| {
        b.iter(|| {
            black_box(
                streaming_group_per_member_seed(&attacks, &moments, &mut disguised, &noise, || {
                    Box::new(original.clone())
                })
                .unwrap(),
            )
        })
    });
    group.bench_with_input(BenchmarkId::new("group", members), &members, |b, _| {
        b.iter(|| {
            let mut reference = original.clone();
            let mut sink = MseSink::for_group(&mut reference, members).unwrap();
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
            black_box((0..members).map(|k| sink.mse_of(k)).sum::<f64>())
        })
    });
    group.finish();
}

/// The 8-workload grid the runner, journal, shard, supervise and
/// moment-merge groups share: 2 000 × 16 records on `engine`, one axis
/// sweeping the *seed*, so every cell is its own workload group.
fn seed_grid_specs(engine: EngineSpec) -> Vec<ScenarioSpec> {
    let mut base = ScenarioSpec::synthetic_quick("bench", 2_000, 16, 2);
    base.engine = engine;
    let grid = ScenarioGrid {
        base,
        axes: vec![GridAxis {
            name: "seed".to_string(),
            values: (0..8u64)
                .map(|i| GridAxisValue {
                    label: i.to_string(),
                    x: None,
                    overrides: vec![Override::Seed(0xBEC5 + i)],
                })
                .collect(),
        }],
    };
    let specs = grid.expand_validated().unwrap();
    assert_eq!(specs.len(), 8);
    specs
}

/// The scenario group: the declarative runner against a hand-rolled loop
/// over the same specs. The grid's axis sweeps the *seed*, so every
/// scenario is its own workload group and the runner gets no
/// moment/workload-sharing advantage — the comparison isolates pure
/// scheduling overhead (grouping, pool dispatch, result scattering), which
/// must stay ≤ 5% (`runner/8` vs `handrolled/8`).
fn bench_scenario_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario");
    group.sample_size(10);

    let specs = seed_grid_specs(EngineSpec::InMemory);

    group.bench_with_input(
        BenchmarkId::new("runner", specs.len()),
        &specs,
        |b, specs| b.iter(|| black_box(randrecon_experiments::run_scenarios(specs).unwrap())),
    );
    group.bench_with_input(
        BenchmarkId::new("handrolled", specs.len()),
        &specs,
        |b, specs| {
            b.iter(|| {
                let results: Vec<_> = specs.iter().map(|s| s.run().unwrap()).collect();
                black_box(results)
            })
        },
    );
    group.finish();
}

/// The same 8-workload grid as `bench_scenario_runner`, executed with and
/// without the result journal. The journaled path additionally frames,
/// checksums and appends every outcome to a fresh file, so
/// `journaled/8` vs `plain/8` is the tracked ≤5% journaling-overhead
/// acceptance ratio.
fn bench_journal(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal");
    group.sample_size(10);

    let specs = seed_grid_specs(EngineSpec::InMemory);
    let path = std::env::temp_dir().join(format!(
        "randrecon-bench-journal-{}.bin",
        std::process::id()
    ));

    group.bench_with_input(
        BenchmarkId::new("plain", specs.len()),
        &specs,
        |b, specs| {
            b.iter(|| {
                black_box(
                    randrecon_experiments::run_scenarios_failsoft(specs, RetryPolicy::default())
                        .unwrap(),
                )
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("journaled", specs.len()),
        &specs,
        |b, specs| {
            b.iter(|| {
                let _ = std::fs::remove_file(&path);
                black_box(
                    randrecon_experiments::run_scenarios_resumable(
                        specs,
                        &path,
                        RetryPolicy::default(),
                    )
                    .unwrap(),
                )
            })
        },
    );
    let _ = std::fs::remove_file(&path);
    group.finish();
}

/// The same 8-workload grid, executed single-process versus sharded
/// **in-process** across 2 shards (per-shard journals, shard-stamped
/// headers, read-only recovery, index merge — everything the coordinator
/// does except spawning processes). `sharded/8` vs `plain/8` is the
/// tracked ≤10% coordination-overhead acceptance ratio for PR 7; process
/// spawn cost is excluded deliberately, since it is platform noise, not
/// protocol overhead.
fn bench_shard(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard");
    group.sample_size(10);

    let specs = seed_grid_specs(EngineSpec::InMemory);
    let plan =
        randrecon_experiments::plan_shards(&specs, 2, randrecon_experiments::SplitPolicy::Never)
            .unwrap();
    assert_eq!(plan.n_shards(), 2);
    let dir = std::env::temp_dir().join(format!("randrecon-bench-shard-{}", std::process::id()));

    group.bench_with_input(
        BenchmarkId::new("plain", specs.len()),
        &specs,
        |b, specs| {
            b.iter(|| {
                black_box(
                    randrecon_experiments::run_scenarios_failsoft(specs, RetryPolicy::default())
                        .unwrap(),
                )
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("sharded", specs.len()),
        &specs,
        |b, specs| {
            b.iter(|| {
                // Fresh shard journals each iteration: resuming would skip
                // all the work and measure nothing.
                let _ = std::fs::remove_dir_all(&dir);
                black_box(
                    randrecon_experiments::run_sharded_in_process(
                        specs,
                        &plan,
                        &dir,
                        RetryPolicy::default(),
                    )
                    .unwrap(),
                )
            })
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// The same 8-workload grid through the sharded in-process path, bare
/// versus **supervised**: per-shard heartbeat sidecars (throttled to one
/// write per `HEARTBEAT_INTERVAL`) plus a (generous, never-firing) cell
/// deadline arming the cooperative cancel checks in every trial loop.
/// `supervised/8` vs `sharded/8` is the tracked ≤5% supervision-overhead
/// acceptance ratio for PR 8 — liveness reporting and deadline plumbing
/// must be nearly free when nothing goes wrong.
fn bench_supervise(c: &mut Criterion) {
    use randrecon_experiments::shard::{
        reduce_shard_journals, run_shard_worker_with, shard_heartbeat_path, shard_journal_path,
        WorkerOptions,
    };

    let mut group = c.benchmark_group("supervise");
    group.sample_size(10);

    let specs = seed_grid_specs(EngineSpec::InMemory);
    let plan =
        randrecon_experiments::plan_shards(&specs, 2, randrecon_experiments::SplitPolicy::Never)
            .unwrap();
    assert_eq!(plan.n_shards(), 2);
    let dir =
        std::env::temp_dir().join(format!("randrecon-bench-supervise-{}", std::process::id()));

    group.bench_with_input(
        BenchmarkId::new("sharded", specs.len()),
        &specs,
        |b, specs| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&dir);
                black_box(
                    randrecon_experiments::run_sharded_in_process(
                        specs,
                        &plan,
                        &dir,
                        RetryPolicy::default(),
                    )
                    .unwrap(),
                )
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("supervised", specs.len()),
        &specs,
        |b, specs| {
            let policy =
                RetryPolicy::default().with_cell_timeout(std::time::Duration::from_secs(600));
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                let mut journals = Vec::with_capacity(plan.n_shards());
                for (i, slice) in plan.slices.iter().enumerate() {
                    let path = shard_journal_path(&dir, i);
                    let options = WorkerOptions {
                        heartbeat: Some(shard_heartbeat_path(&path)),
                        ..WorkerOptions::default()
                    };
                    run_shard_worker_with(specs, slice, &[], &path, policy, options).unwrap();
                    journals.push(path);
                }
                black_box(reduce_shard_journals(specs, &plan, &journals, policy).unwrap())
            })
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// The 8-workload grid rebuilt on the **streaming** engine through the
/// sharded in-process path, plain whole-group split (`SplitPolicy::Never`)
/// versus the distributed pass-1 moment merge (`SplitPolicy::Always`):
/// every group's fixed-width moment segments are dealt across both shards,
/// journaled as moment frames, and reduced coordinator-side before
/// pass 2. `merged/8` vs `never/8` is the tracked ≤10% moment-merge
/// coordination-overhead acceptance ratio for PR 9 — the extra journal
/// frames, recovery, and cross-shard merge must be nearly free against the
/// reconstruction work itself.
fn bench_moment_merge(c: &mut Criterion) {
    use randrecon_experiments::SplitPolicy;

    let mut group = c.benchmark_group("moment_merge");
    group.sample_size(10);

    let specs = seed_grid_specs(EngineSpec::Streaming { chunk_rows: 256 });
    let dir = std::env::temp_dir().join(format!("randrecon-bench-moments-{}", std::process::id()));

    for (policy, label) in [
        (SplitPolicy::Never, "never"),
        (SplitPolicy::Always, "merged"),
    ] {
        let plan = randrecon_experiments::plan_shards(&specs, 2, policy).unwrap();
        group.bench_with_input(BenchmarkId::new(label, specs.len()), &specs, |b, specs| {
            b.iter(|| {
                // Fresh shard journals each iteration: resuming would skip
                // all the work and measure nothing.
                let _ = std::fs::remove_dir_all(&dir);
                black_box(
                    randrecon_experiments::run_sharded_in_process(
                        specs,
                        &plan,
                        &dir,
                        RetryPolicy::default(),
                    )
                    .unwrap(),
                )
            })
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(
    benches,
    bench_substrates,
    bench_kernels_v1,
    bench_kernels_v2,
    bench_kernels_v3,
    bench_streaming,
    bench_pipeline_ring,
    bench_csv,
    bench_posterior,
    bench_mvn,
    bench_streaming_group,
    bench_scenario_runner,
    bench_journal,
    bench_shard,
    bench_supervise,
    bench_moment_merge
);
criterion_main!(benches);
