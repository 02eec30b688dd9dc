//! Command-line parsing.
//!
//! The public interface is the benchmark run:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! Two further modes exist only for the processes the sweep workload starts
//! itself: `--shard-worker` (one shard of the sharded sweep) and
//! `--reference` (the single-process sweep whose outcome hash the sharded
//! one must reproduce).

use randrecon_experiments::shard::{MomentTask, ShardSlice};
use std::path::PathBuf;

/// Printed with every usage error.
pub const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: stream-synth-500k, stream-csv-audit, sweep-sharded";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 500k x 64 synthetic release, disguised on the fly, attacked by
    /// streaming BE-DR into a counting sink.
    StreamSynth,
    /// A disguised CSV release read, attacked and written back out as CSV.
    StreamCsv,
    /// The 30-cell scenario grid as two shard worker processes plus the
    /// coordinator's reduce.
    SweepSharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::StreamSynth,
        Workload::StreamCsv,
        Workload::SweepSharded,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamSynth => "stream-synth-500k",
            Workload::StreamCsv => "stream-csv-audit",
            Workload::SweepSharded => "sweep-sharded",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to keep measuring.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or not.
    pub trace: bool,
}

/// One shard worker of the sweep workload.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// Seed the coordinator's grid was built from.
    pub seed: u64,
    /// Global cells this worker runs.
    pub slice: ShardSlice,
    /// The shard journal to write.
    pub journal: PathBuf,
    /// Distributed pass-1 moment tasks to accumulate first.
    pub tasks: Vec<MomentTask>,
}

/// What the process was asked to do.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run a workload and print its result line.
    Bench(BenchArgs),
    /// Run one shard of the sweep workload.
    ShardWorker(WorkerArgs),
    /// Run the sweep grid single-process and print its outcome hash.
    Reference {
        /// Seed the grid is built from.
        seed: u64,
    },
}

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut worker, mut reference) = (false, false);
    let (mut slice, mut journal) = (None, None);
    let mut tasks = Vec::new();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--shard-worker" => {
                worker = true;
                continue;
            }
            "--reference" => {
                reference = true;
                continue;
            }
            _ => {}
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs a whole number, got '{value}'"))?,
                )
            }
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(format!("--seconds needs a positive number, got '{value}'")),
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got '{value}'")),
                })
            }
            "--slice" => {
                slice = Some(
                    ShardSlice::parse(&value)
                        .ok_or_else(|| format!("bad shard slice '{value}'"))?,
                )
            }
            "--journal" => journal = Some(PathBuf::from(value)),
            "--moment-task" => tasks.push(
                MomentTask::parse(&value).ok_or_else(|| format!("bad moment task '{value}'"))?,
            ),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if worker {
        return Ok(Command::ShardWorker(WorkerArgs {
            seed,
            slice: slice.ok_or("--shard-worker needs --slice")?,
            journal: journal.ok_or("--shard-worker needs --journal")?,
            tasks,
        }));
    }
    if reference {
        return Ok(Command::Reference { seed });
    }
    Ok(Command::Bench(BenchArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_benchmark_run_for_every_workload() {
        for w in Workload::ALL {
            let line = format!("--workload {} --seed 7 --seconds 10 --trace 1", w.name());
            match parse_str(&line) {
                Ok(Command::Bench(args)) => {
                    assert_eq!(args.workload, w);
                    assert_eq!(args.seed, 7);
                    assert_eq!(args.seconds, 10.0);
                    assert!(args.trace);
                }
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_an_unknown_workload() {
        let err = parse_str("--workload hit --seed 1 --seconds 10 --trace 0").unwrap_err();
        assert!(err.contains("unknown workload 'hit'"), "{err}");
    }

    #[test]
    fn rejects_missing_and_malformed_arguments() {
        for line in [
            "--workload sweep-sharded --seconds 10 --trace 0",
            "--workload sweep-sharded --seed 1 --trace 0",
            "--workload sweep-sharded --seed 1 --seconds 10",
            "--workload sweep-sharded --seed x --seconds 10 --trace 0",
            "--workload sweep-sharded --seed 1 --seconds 0 --trace 0",
            "--workload sweep-sharded --seed 1 --seconds 10 --trace 2",
            "--workload sweep-sharded --seed 1 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_str(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn parses_the_worker_mode() {
        let line = "--shard-worker --seed 3 --slice 0..4 --journal j --moment-task 4:0..2";
        match parse_str(line) {
            Ok(Command::ShardWorker(args)) => {
                assert_eq!(args.slice.len(), 4);
                assert_eq!(args.tasks.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_str("--shard-worker --seed 3 --slice 0..4").is_err());
    }
}
