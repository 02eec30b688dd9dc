//! The two streaming workloads: `stream-synth-500k` (records synthesized and
//! disguised chunk by chunk) and `stream-csv-audit` (a disguised CSV release
//! read, attacked, and written back out). Both run streaming BE-DR through
//! the library's two-pass engine at the default ring depth.
//!
//! A traced run repeats three runs per cycle: an untraced one (the base of
//! `trace.overhead`), one at the default depth with timed sources and sinks
//! (`core.pass*_s`, `parallel.*`), and one with both passes sequential
//! (ring depth 1), whose stage self times form the ledger:
//!
//! ```text
//! wall = read (mvn + disguise | csv read) + pass-1 compute + prepare
//!        + map + sink + unattributed
//! ```
//!
//! where pass-1 compute and map are the remainders of each pass once read
//! and sink time are taken out, and `unattributed` is the time outside the
//! engine's calls (opening and closing files, the traced run's own prepare).

use crate::metrics::{
    median, median_values, own_usage, zeroed, Report, Values, END_TO_END, PER_LAYER,
};
use crate::trace::{timed, CheckedSink, Stopwatch, TimedSink, TimedSource};
use crate::{run_for, Result};
use randrecon_core::streaming::{
    accumulate_source_pipelined, ChunkReconstructor, DiscardSink, MseSink, RecordSink,
    StreamMoments, StreamingBeDr, StreamingDriver, StreamingReport,
};
use randrecon_core::theory::be_dr_expected_mse;
use randrecon_data::chunks::{RecordChunkSource, SyntheticChunkSource};
use randrecon_data::csv::{CsvChunkReader, CsvChunkWriter};
use randrecon_data::synthetic::EigenSpectrum;
use randrecon_data::Schema;
use randrecon_linalg::Matrix;
use randrecon_noise::additive::DisguisedChunkSource;
use randrecon_noise::{AdditiveRandomizer, NoiseModel};
use randrecon_stats::rng::child_seed;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Attributes per record.
pub const ATTRIBUTES: usize = 64;
/// Rows per chunk, on both the read and the write side.
pub const CHUNK_ROWS: usize = 8192;
/// Standard deviation of the Gaussian disguise.
pub const NOISE_SIGMA: f64 = 10.0;
/// Records of `stream-synth-500k`.
pub const SYNTH_RECORDS: usize = 500_000;
/// Records of `stream-csv-audit` (about 121 MB of CSV).
pub const CSV_RECORDS: usize = 100_000;
/// Largest relative Frobenius distance allowed between BE-DR's estimate
/// `Σ̂x` and the covariance the records were generated from.
pub const COVARIANCE_TOLERANCE: f64 = 0.1;
/// Records of the once-per-process MSE check.
pub const MSE_CHECK_RECORDS: usize = 20_000;
/// Largest relative distance allowed between the MSE check's streamed
/// BE-DR MSE and `theory::be_dr_expected_mse`.
pub const MSE_TOLERANCE: f64 = 0.1;

/// The ROADMAP flagship spectrum: 6 principal components of variance 400
/// over 58 small ones of variance 4.
fn spectrum() -> Result<EigenSpectrum> {
    Ok(EigenSpectrum::principal_plus_small(
        6, 400.0, ATTRIBUTES, 4.0,
    )?)
}

/// Ring depth of a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// The library's default depth (`RANDRECON_PIPELINE_SLOTS`, else twice
    /// the pool width clamped to [2, 8]).
    Default,
    /// One slot: read, compute and sink strictly in turn, in both passes.
    One,
}

/// The stopwatches a traced run's wrappers feed.
#[derive(Debug, Default)]
struct Probes {
    /// Outermost source: the read stage.
    read: Stopwatch,
    /// Synthetic generator beneath the disguise (`stats` layer).
    generate: Stopwatch,
    /// Outermost sink: the sink stage.
    sink: Stopwatch,
    /// CSV writer beneath the output checks (`data` layer).
    write: Stopwatch,
}

/// Stage times of one traced run, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimes {
    /// `accumulate_moments` wall.
    pub pass1_s: f64,
    /// `ChunkReconstructor::prepare` on the pass-1 moments.
    pub prepare_s: f64,
    /// `run_with_moments` wall minus prepare.
    pub pass2_s: f64,
    /// Read busy time in pass 1.
    pub read1_s: f64,
    /// Read busy time in pass 2.
    pub read2_s: f64,
    /// Synthetic generation busy time, both passes.
    pub generate_s: f64,
    /// Sink busy time.
    pub sink_s: f64,
    /// CSV writer busy time.
    pub write_s: f64,
    /// Chunks of the stream.
    pub chunks: usize,
}

/// One stream run: what failed its output check, if anything, and the
/// stage times of a traced run.
#[derive(Debug)]
pub struct RunOutput {
    /// Why the output check failed.
    pub problem: Option<String>,
    /// Stage times (traced runs only).
    pub times: Option<PassTimes>,
}

/// A streaming workload after set-up.
pub trait StreamCase {
    /// Records in the stream.
    fn records(&self) -> usize;
    /// One two-pass BE-DR run with its output checks; traced when `depth`
    /// is given.
    fn run(&self, depth: Option<Depth>) -> Result<RunOutput>;
    /// MB read and written as CSV by one run; `None` when the release is
    /// synthesized instead.
    fn csv_mb(&self) -> Result<Option<(f64, f64)>>;
}

const MB: f64 = 1024.0 * 1024.0;

/// The untraced run: exactly what a user calls.
fn plain<S, K>(source: &mut S, noise: &NoiseModel, sink: &mut K) -> Result<StreamingReport>
where
    S: RecordChunkSource + Send + ?Sized,
    K: RecordSink + ?Sized,
{
    Ok(StreamingDriver::default().run(&StreamingBeDr::default(), source, noise, sink)?)
}

/// The traced run: the same two passes, split at the engine's public calls
/// so each is timed on its own.
fn traced<S, K>(
    depth: Depth,
    source: &mut S,
    noise: &NoiseModel,
    sink: &mut K,
    probes: &Probes,
) -> Result<(StreamingReport, PassTimes)>
where
    S: RecordChunkSource + Send + ?Sized,
    K: RecordSink + ?Sized,
{
    let attack = StreamingBeDr::default();
    let (moments, pass1_s) = timed(|| -> Result<StreamMoments> {
        Ok(match depth {
            Depth::Default => StreamingDriver::accumulate_moments(source)?,
            Depth::One => {
                source.reset()?;
                let (acc, chunks) = accumulate_source_pipelined(source, 1)?;
                StreamMoments::from_accumulator(&acc, chunks)?
            }
        })
    });
    let moments = moments?;
    let read1_s = probes.read.take();
    let (prepared, prepare_s) = timed(|| attack.prepare(&moments, noise));
    prepared?;
    let driver = match depth {
        Depth::Default => StreamingDriver::default(),
        Depth::One => StreamingDriver::sequential(),
    };
    let (report, pass2_total) =
        timed(|| driver.run_with_moments(&attack, &moments, source, noise, sink));
    let times = PassTimes {
        pass1_s,
        prepare_s,
        pass2_s: pass2_total - prepare_s,
        read1_s,
        read2_s: probes.read.take(),
        generate_s: probes.generate.take(),
        sink_s: probes.sink.take(),
        write_s: probes.write.take(),
        chunks: moments.n_chunks,
    };
    Ok((report?, times))
}

/// The output check of one run: every record reconstructed, every value
/// finite, and BE-DR's `Σ̂x` within [`COVARIANCE_TOLERANCE`] of the truth.
pub fn check_output(
    report: &StreamingReport,
    rows: usize,
    non_finite: usize,
    n: usize,
    truth: &Matrix,
) -> Option<String> {
    if report.n_records != n || rows != n {
        return Some(format!(
            "expected {n} records, report has {} and the sink saw {rows}",
            report.n_records
        ));
    }
    if non_finite > 0 {
        return Some(format!("{non_finite} non-finite reconstructed values"));
    }
    let distance = match report.estimated_covariance.sub(truth) {
        Ok(d) => d.frobenius_norm() / truth.frobenius_norm(),
        Err(e) => return Some(format!("covariance estimate has the wrong shape: {e}")),
    };
    if distance.is_nan() || distance > COVARIANCE_TOLERANCE {
        return Some(format!(
            "BE-DR covariance estimate is {distance:.4} (relative) from the truth"
        ));
    }
    eprintln!(
        "covariance check: relative distance {distance:.4} (tolerance {COVARIANCE_TOLERANCE})"
    );
    None
}

/// `stream-synth-500k`: a synthetic release disguised on the fly.
#[derive(Debug, Clone)]
pub struct SynthCase {
    base: SyntheticChunkSource,
    randomizer: AdditiveRandomizer,
    noise: NoiseModel,
    noise_seed: u64,
}

impl SynthCase {
    /// Builds the generator (random eigenbasis, covariance, its factor) and
    /// the disguise for `records` records.
    pub fn setup(records: usize, seed: u64) -> Result<SynthCase> {
        let base =
            SyntheticChunkSource::generate(&spectrum()?, records, CHUNK_ROWS, child_seed(seed, 0))?;
        let randomizer = AdditiveRandomizer::gaussian(NOISE_SIGMA)?;
        Ok(SynthCase {
            noise: randomizer.model().clone(),
            base,
            randomizer,
            noise_seed: child_seed(seed, 1),
        })
    }

    fn disguised<S: RecordChunkSource>(&self, inner: S) -> DisguisedChunkSource<S> {
        DisguisedChunkSource::new(inner, self.randomizer.clone(), self.noise_seed)
    }
}

impl StreamCase for SynthCase {
    fn records(&self) -> usize {
        self.base.n_records_hint().unwrap_or(0)
    }

    fn run(&self, depth: Option<Depth>) -> Result<RunOutput> {
        let (n, truth) = (self.records(), self.base.covariance());
        match depth {
            None => {
                let mut source = self.disguised(self.base.clone());
                let mut sink = CheckedSink::new(DiscardSink::default());
                let report = plain(&mut source, &self.noise, &mut sink)?;
                let (rows, non_finite, _) = sink.finish();
                Ok(RunOutput {
                    problem: check_output(&report, rows, non_finite, n, truth),
                    times: None,
                })
            }
            Some(depth) => {
                let probes = Probes::default();
                let generator = TimedSource::new(self.base.clone(), &probes.generate);
                let mut source = TimedSource::new(self.disguised(generator), &probes.read);
                let mut sink =
                    TimedSink::new(CheckedSink::new(DiscardSink::default()), &probes.sink);
                let (report, times) = traced(depth, &mut source, &self.noise, &mut sink, &probes)?;
                let (rows, non_finite, _) = sink.into_inner().finish();
                Ok(RunOutput {
                    problem: check_output(&report, rows, non_finite, n, truth),
                    times: Some(times),
                })
            }
        }
    }

    fn csv_mb(&self) -> Result<Option<(f64, f64)>> {
        Ok(None)
    }
}

/// Creates a CSV file for `ATTRIBUTES` columns. An earlier file is removed
/// first rather than truncated: on ext4, closing a file that was truncated
/// and rewritten starts its writeback, which would put disk time into the
/// measurement.
fn create_csv(path: &Path) -> Result<CsvChunkWriter<std::io::BufWriter<std::fs::File>>> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    Ok(CsvChunkWriter::create(
        path,
        &Schema::anonymous(ATTRIBUTES)?,
    )?)
}

/// `stream-csv-audit`: a disguised CSV release, reconstructed to CSV.
#[derive(Debug, Clone)]
pub struct CsvCase {
    input: PathBuf,
    output: PathBuf,
    records: usize,
    truth: Matrix,
    noise: NoiseModel,
}

impl CsvCase {
    /// Writes the disguised release (`records` records) into `dir`.
    pub fn setup(dir: &Path, records: usize, seed: u64) -> Result<CsvCase> {
        let synth = SynthCase::setup(records, seed)?;
        let input = dir.join("release.csv");
        let mut source = synth.disguised(synth.base.clone());
        let mut writer = create_csv(&input)?;
        source.reset()?;
        while let Some(chunk) = source.next_chunk()? {
            writer.write_chunk(&chunk)?;
        }
        writer.finish()?;
        Ok(CsvCase {
            input,
            output: dir.join("reconstruction.csv"),
            records,
            truth: synth.base.covariance().clone(),
            noise: synth.noise,
        })
    }

    fn writer(&self) -> Result<CsvChunkWriter<std::io::BufWriter<std::fs::File>>> {
        create_csv(&self.output)
    }

    /// Flushes the output and checks every record reached it.
    fn finish_output<W: Write>(
        &self,
        writer: CsvChunkWriter<W>,
        problem: Option<String>,
    ) -> Result<Option<String>> {
        let written = writer.rows_written();
        writer.finish()?;
        Ok(problem.or_else(|| {
            (written != self.records)
                .then(|| format!("wrote {written} CSV rows, expected {}", self.records))
        }))
    }
}

impl StreamCase for CsvCase {
    fn records(&self) -> usize {
        self.records
    }

    fn run(&self, depth: Option<Depth>) -> Result<RunOutput> {
        let (n, truth) = (self.records, &self.truth);
        match depth {
            None => {
                let mut source = CsvChunkReader::open(&self.input, CHUNK_ROWS)?;
                let mut sink = CheckedSink::new(self.writer()?);
                let report = plain(&mut source, &self.noise, &mut sink)?;
                let (rows, non_finite, writer) = sink.finish();
                let problem = check_output(&report, rows, non_finite, n, truth);
                Ok(RunOutput {
                    problem: self.finish_output(writer, problem)?,
                    times: None,
                })
            }
            Some(depth) => {
                let probes = Probes::default();
                let mut source =
                    TimedSource::new(CsvChunkReader::open(&self.input, CHUNK_ROWS)?, &probes.read);
                let writer = TimedSink::new(self.writer()?, &probes.write);
                let mut sink = TimedSink::new(CheckedSink::new(writer), &probes.sink);
                let (report, times) = traced(depth, &mut source, &self.noise, &mut sink, &probes)?;
                let (rows, non_finite, writer) = sink.into_inner().finish();
                let problem = check_output(&report, rows, non_finite, n, truth);
                Ok(RunOutput {
                    problem: self.finish_output(writer.into_inner(), problem)?,
                    times: Some(times),
                })
            }
        }
    }

    fn csv_mb(&self) -> Result<Option<(f64, f64)>> {
        let size = |p: &Path| -> Result<f64> { Ok(std::fs::metadata(p)?.len() as f64 / MB) };
        // Both passes read the whole release.
        Ok(Some((2.0 * size(&self.input)?, size(&self.output)?)))
    }
}

/// The once-per-process accuracy check, outside the timed runs: a small
/// streamed BE-DR attack scored by `MseSink` against the original records
/// must beat the noise variance and land within [`MSE_TOLERANCE`] of the
/// theoretical Bayes MSE.
pub fn mse_check(seed: u64) -> Result<Option<String>> {
    let synth = SynthCase::setup(MSE_CHECK_RECORDS, child_seed(seed, 2))?;
    let mut reference = synth.base.clone();
    let mut source = synth.disguised(synth.base.clone());
    let mut sink = MseSink::new(&mut reference)?;
    plain(&mut source, &synth.noise, &mut sink)?;
    let (mse, rows) = (sink.mse(), sink.rows());
    let expected = be_dr_expected_mse(
        synth.base.covariance(),
        &synth.noise.covariance(ATTRIBUTES)?,
    )?;
    let variance = NOISE_SIGMA * NOISE_SIGMA;
    eprintln!("mse check: BE-DR MSE {mse:.4} vs theory {expected:.4} (noise variance {variance})");
    Ok(if rows != MSE_CHECK_RECORDS {
        Some(format!(
            "MSE check scored {rows} of {MSE_CHECK_RECORDS} records"
        ))
    } else if mse.is_nan() || mse >= variance {
        Some(format!(
            "BE-DR MSE {mse} is not below the noise variance {variance}"
        ))
    } else if (mse - expected).abs() > MSE_TOLERANCE * expected {
        Some(format!(
            "BE-DR MSE {mse} is not within {MSE_TOLERANCE} of theory {expected}"
        ))
    } else {
        None
    })
}

/// Runs `case` for `seconds` and reports the end-to-end metrics, or — when
/// `trace` — the per-layer ledger. `problem` is a failed once-per-process
/// check, which makes the run incorrect.
pub fn bench(
    case: &dyn StreamCase,
    setup_s: f64,
    seconds: f64,
    trace: bool,
    problem: Option<String>,
) -> Result<Report> {
    let mut problems: Vec<String> = problem.into_iter().collect();
    let (values, attempted, failed) = if trace {
        traced_metrics(case, seconds, &mut problems)?
    } else {
        let runs = run_for(seconds, || {
            let before = own_usage().cpu_s;
            let (out, wall) = timed(|| case.run(None));
            let cpu = own_usage().cpu_s - before;
            Ok(((wall, cpu, out?.problem), wall))
        })?;
        let walls: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let rates: Vec<f64> = walls.iter().map(|w| case.records() as f64 / w).collect();
        let cpus: Vec<f64> = runs.iter().map(|r| r.1).collect();
        let failed = runs.iter().filter(|r| r.2.is_some()).count();
        problems.extend(runs.into_iter().filter_map(|r| r.2));
        let values = Values::from([
            ("wall_s", median(&walls)),
            ("records_per_s", median(&rates)),
            ("cpu_s", median(&cpus)),
            ("peak_rss_mb", own_usage().max_rss_mb),
            ("setup_s", setup_s),
        ]);
        eprintln!("{} runs, wall {walls:.3?} s", walls.len());
        (values, walls.len(), failed)
    };
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let defs = if trace { PER_LAYER } else { END_TO_END };
    Ok(Report::new(
        defs,
        &values,
        problems.is_empty(),
        attempted,
        failed,
    )?)
}

/// One traced cycle: an untraced run, a traced run at the default depth,
/// and a traced run at depth 1.
struct Cycle {
    plain_wall: f64,
    default_wall: f64,
    default: PassTimes,
    depth1_wall: f64,
    depth1: PassTimes,
}

fn traced_metrics(
    case: &dyn StreamCase,
    seconds: f64,
    problems: &mut Vec<String>,
) -> Result<(Values, usize, usize)> {
    let mut failed = 0;
    let cycles = run_for(seconds, || {
        let mut walls = [0.0; 3];
        let mut times = [PassTimes::default(); 3];
        for (i, depth) in [None, Some(Depth::Default), Some(Depth::One)]
            .into_iter()
            .enumerate()
        {
            let (out, wall) = timed(|| case.run(depth));
            let out = out?;
            if let Some(p) = out.problem {
                failed += 1;
                problems.push(p);
            }
            walls[i] = wall;
            times[i] = out.times.unwrap_or_default();
        }
        let cycle = Cycle {
            plain_wall: walls[0],
            default_wall: walls[1],
            default: times[1],
            depth1_wall: walls[2],
            depth1: times[2],
        };
        Ok((cycle, walls.iter().sum()))
    })?;

    let csv_mb = case.csv_mb()?;
    let (read_mb, write_mb) = csv_mb.unwrap_or_default();
    let plain_median = median(&cycles.iter().map(|c| c.plain_wall).collect::<Vec<_>>());
    let per_cycle: Vec<Values> = cycles
        .iter()
        .map(|c| {
            let (d, one) = (&c.default, &c.depth1);
            let read = one.read1_s + one.read2_s;
            let (mvn, disguise, csv_read) = if csv_mb.is_some() {
                (0.0, 0.0, read)
            } else {
                (one.generate_s, read - one.generate_s, 0.0)
            };
            let stages = one.pass1_s + one.prepare_s + one.pass2_s;
            let mut values = zeroed(PER_LAYER);
            values.extend([
                ("stats.mvn_s", mvn),
                ("noise.disguise_s", disguise),
                ("data.csv_read_s", csv_read),
                ("data.csv_read_mb", read_mb),
                ("data.csv_write_s", one.write_s),
                ("data.csv_write_mb", write_mb),
                ("core.pass1_s", d.pass1_s),
                ("core.pass2_s", d.pass2_s),
                ("core.chunks", d.chunks as f64),
                ("core.prepare_s", one.prepare_s),
                ("core.pass1_compute_s", one.pass1_s - one.read1_s),
                ("core.map_s", one.pass2_s - one.read2_s - one.sink_s),
                ("core.sink_s", one.sink_s),
                ("parallel.sink_wait_s", d.pass2_s - d.sink_s),
                (
                    "parallel.read_share",
                    (d.read1_s + d.read2_s) / (d.pass1_s + d.pass2_s),
                ),
                ("trace.overhead", c.default_wall / plain_median),
                ("trace.unattributed_s", c.depth1_wall - stages),
                ("trace.depth1_wall_s", c.depth1_wall),
            ]);
            values
        })
        .collect();
    let values = median_values(&per_cycle);
    eprintln!(
        "depth-1 ledger ({} cycles, medians): read {:.3} (mvn {:.3} + disguise {:.3} | csv {:.3}) \
         + pass-1 compute {:.3} + prepare {:.4} + map {:.3} + sink {:.3} (csv write {:.3}) \
         + unattributed {:.4} = wall {:.3} s",
        cycles.len(),
        values["stats.mvn_s"] + values["noise.disguise_s"] + values["data.csv_read_s"],
        values["stats.mvn_s"],
        values["noise.disguise_s"],
        values["data.csv_read_s"],
        values["core.pass1_compute_s"],
        values["core.prepare_s"],
        values["core.map_s"],
        values["core.sink_s"],
        values["data.csv_write_s"],
        values["trace.unattributed_s"],
        values["trace.depth1_wall_s"],
    );
    Ok((values, 3 * cycles.len(), failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_core::streaming::TableSink;

    fn moments_bits(m: &StreamMoments) -> (usize, usize, Vec<u64>, Vec<u64>) {
        (
            m.n_records,
            m.n_chunks,
            m.mean.iter().map(|v| v.to_bits()).collect(),
            m.covariance
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        )
    }

    fn small_case() -> SynthCase {
        SynthCase::setup(3 * CHUNK_ROWS + 123, 42).expect("setup")
    }

    #[test]
    fn wrapped_sources_give_bit_identical_moments() {
        let case = small_case();
        let plain_moments =
            StreamingDriver::accumulate_moments(&mut case.disguised(case.base.clone()))
                .expect("plain");
        let probes = Probes::default();
        let generator = TimedSource::new(case.base.clone(), &probes.generate);
        let mut wrapped = TimedSource::new(case.disguised(generator), &probes.read);
        let wrapped_moments = StreamingDriver::accumulate_moments(&mut wrapped).expect("wrapped");
        assert_eq!(moments_bits(&plain_moments), moments_bits(&wrapped_moments));
        wrapped.reset().expect("reset");
        let (acc, chunks) = accumulate_source_pipelined(&mut wrapped, 1).expect("depth 1");
        let depth1 = StreamMoments::from_accumulator(&acc, chunks).expect("moments");
        assert_eq!(moments_bits(&plain_moments), moments_bits(&depth1));
        assert!(probes.read.take() > 0.0 && probes.generate.take() > 0.0);
    }

    #[test]
    fn wrapped_sinks_receive_the_identical_reconstruction() {
        let case = small_case();
        let m = ATTRIBUTES;
        let mut plain_sink = TableSink::new(m);
        plain(
            &mut case.disguised(case.base.clone()),
            &case.noise,
            &mut plain_sink,
        )
        .expect("plain");
        let probes = Probes::default();
        let mut wrapped_sink = TimedSink::new(CheckedSink::new(TableSink::new(m)), &probes.sink);
        let mut source = TimedSource::new(case.disguised(case.base.clone()), &probes.read);
        for depth in [Depth::Default, Depth::One] {
            traced(depth, &mut source, &case.noise, &mut wrapped_sink, &probes).expect("traced");
        }
        let (rows, non_finite, table) = wrapped_sink.into_inner().finish();
        assert_eq!((rows, non_finite), (2 * case.records(), 0));
        let expected = plain_sink.into_matrix().expect("matrix");
        let got = table.into_matrix().expect("matrix");
        let half = expected.as_slice().len();
        assert_eq!(got.as_slice()[..half], *expected.as_slice());
        assert_eq!(got.as_slice()[half..], *expected.as_slice());
    }

    #[test]
    fn csv_case_round_trips_and_passes_its_checks() {
        let dir = std::env::temp_dir().join(format!("perfbench-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let case = CsvCase::setup(&dir, 2 * CHUNK_ROWS + 7, 5).expect("setup");
        let synth = SynthCase::setup(case.records, 5).expect("setup");
        let direct = StreamingDriver::accumulate_moments(&mut synth.disguised(synth.base.clone()))
            .expect("direct");
        let probes = Probes::default();
        let mut reader = TimedSource::new(
            CsvChunkReader::open(&case.input, CHUNK_ROWS).expect("open"),
            &probes.read,
        );
        let from_csv = StreamingDriver::accumulate_moments(&mut reader).expect("csv");
        assert_eq!(moments_bits(&direct), moments_bits(&from_csv));
        for depth in [None, Some(Depth::Default), Some(Depth::One)] {
            let out = case.run(depth).expect("run");
            assert_eq!(out.problem, None);
            assert_eq!(out.times.is_some(), depth.is_some());
        }
        let (read_mb, write_mb) = case.csv_mb().expect("sizes").expect("a CSV case");
        assert!(read_mb > 0.0 && write_mb > 0.0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn output_check_catches_wrong_counts_and_values() {
        let case = small_case();
        let out = case.run(None).expect("run");
        assert_eq!(out.problem, None);
        let mut sink = DiscardSink::default();
        let report = plain(
            &mut case.disguised(case.base.clone()),
            &case.noise,
            &mut sink,
        )
        .expect("run");
        let n = case.records();
        let truth = case.base.covariance();
        assert!(check_output(&report, n, 0, n, truth).is_none());
        assert!(check_output(&report, n - 1, 0, n, truth).is_some());
        assert!(check_output(&report, n, 1, n, truth).is_some());
        let wrong = Matrix::identity(ATTRIBUTES);
        assert!(check_output(&report, n, 0, n, &wrong).is_some());
    }

    #[test]
    fn mse_check_passes() {
        assert_eq!(mse_check(9).expect("check"), None);
    }
}
