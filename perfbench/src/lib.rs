//! `perfbench`: the randrecon workspace benchmark.
//!
//! One command runs a named workload for a given time and prints, as its
//! last line, one JSON object: whether every output check passed, how many
//! operations were attempted and failed, and each metric with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing wrapped;
//! `--trace 1` is the separate traced run giving the per-layer ledger. The
//! benchmark only calls the library's public API; every per-layer time is
//! taken around a public call or trait method (see [`trace`]).
//!
//! Workloads (see `WORKLOADS.md` beside this crate for why each exists and
//! which metrics each layer should move):
//!
//! * `stream-synth-500k` — [`stream::SynthCase`];
//! * `stream-csv-audit` — [`stream::CsvCase`];
//! * `sweep-sharded` — [`sweep`].

pub mod cli;
pub mod metrics;
pub mod stream;
pub mod sweep;
pub mod trace;

use cli::{BenchArgs, Workload};
use metrics::{median, Report};
use std::path::{Path, PathBuf};
use trace::timed;

/// Errors of the benchmark itself (I/O, or a library call that failed).
pub type Error = Box<dyn std::error::Error>;
/// Result with the benchmark's error.
pub type Result<T> = std::result::Result<T, Error>;

/// Set-up is repeated at least this many times and for at least
/// `SETUP_SECONDS`; `setup_s` is the median. Many repeats of a cheap set-up
/// measure its steady state rather than one cold call.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 0.5;

/// Runs `op` until `seconds` have passed or one more run would overrun
/// them (at least once). `op` returns its result and its own wall time.
pub fn run_for<T>(seconds: f64, mut op: impl FnMut() -> Result<(T, f64)>) -> Result<Vec<T>> {
    let (start, mut out, mut walls) = (std::time::Instant::now(), Vec::new(), Vec::new());
    loop {
        let (value, wall) = op()?;
        out.push(value);
        walls.push(wall);
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            return Ok(out);
        }
    }
}

/// Repeats a set-up (see [`SETUP_REPEATS`]), keeping the last result and
/// the median time.
fn setup<T>(mut f: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let start = std::time::Instant::now();
    let (mut times, mut last) = (Vec::new(), None);
    while times.len() < SETUP_REPEATS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let (value, seconds) = timed(&mut f);
        last = Some(value?);
        times.push(seconds);
    }
    let value = last.ok_or("no set-up was run")?;
    Ok((value, median(&times)))
}

/// A scratch directory in the working directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    const ROOT: &'static str = ".perfbench_work";

    fn create(workload: Workload) -> Result<WorkDir> {
        let path =
            Path::new(Self::ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is harmless.
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(Self::ROOT);
    }
}

/// Runs one benchmark invocation and returns its result line.
pub fn run(args: &BenchArgs) -> Result<Report> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    let work = WorkDir::create(args.workload)?;
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    // Each workload's once-per-process check runs first: it also warms the
    // machine up before the set-up is timed.
    match args.workload {
        Workload::StreamSynth => {
            let problem = stream::mse_check(seed)?;
            let (case, setup_s) = setup(|| stream::SynthCase::setup(stream::SYNTH_RECORDS, seed))?;
            stream::bench(&case, setup_s, seconds, trace, problem)
        }
        Workload::StreamCsv => {
            let problem = stream::mse_check(seed)?;
            let (case, setup_s) =
                setup(|| stream::CsvCase::setup(&work.0, stream::CSV_RECORDS, seed))?;
            stream::bench(&case, setup_s, seconds, trace, problem)
        }
        Workload::SweepSharded => {
            // One pool thread per process, set before anything starts the
            // pool; worker processes get the same setting.
            std::env::set_var("RANDRECON_THREADS", "1");
            let exe = std::env::current_exe()?;
            let reference = sweep::reference_hash(&exe, seed)?;
            let (specs, setup_s) = setup(|| sweep::specs(sweep::GridSize::Default, seed))?;
            let workers = sweep::Workers::Processes { exe, seed };
            let dir = work.0.join("shards");
            sweep::bench(&specs, reference, &workers, setup_s, seconds, trace, &dir)
        }
    }
}
