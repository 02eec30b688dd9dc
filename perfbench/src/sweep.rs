//! The `sweep-sharded` workload: the default 30-cell `scenarios` grid
//! (20k x 32 records; 5 schemes x 3 noise models x 2 engines), run as two
//! shard worker processes under moment-merge planning (every streaming
//! workload group's pass 1 is split across both shards), journals on, one
//! thread per process. The coordinator plans, spawns, waits, and reduces —
//! which finishes the split streaming groups' cells itself.
//!
//! Each stage is timed at its public call: `plan_shards`, the worker
//! processes (which report their own wall time), and
//! `reduce_shard_journals`. An operation is one cell; a cell fails when it
//! is not `Completed`, when its cross-engine pair disagrees by more than
//! 15%, or when the sweep's outcome hash differs from a single-process run
//! of the same grid.

use crate::cli::WorkerArgs;
use crate::metrics::{
    children_usage, median, median_values, own_usage, zeroed, Report, Values, END_TO_END, PER_LAYER,
};
use crate::trace::timed;
use crate::{run_for, Result};
use randrecon_experiments::report::outcomes_hash;
use randrecon_experiments::scenario::{
    dataset_generations, run_scenarios_failsoft, EngineSpec, GridAxis, MetricKind, NoiseSpec,
    RetryPolicy, ScenarioGrid, ScenarioOutcome, ScenarioSpec,
};
use randrecon_experiments::shard::{
    plan_shards, reduce_shard_journals, run_shard_worker_with, shard_journal_path, ShardPlan,
    SplitPolicy, WorkerOptions,
};
use randrecon_experiments::SchemeKind;
use randrecon_stats::rng::child_seed;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Worker processes per sweep.
pub const SHARDS: usize = 2;
/// Largest relative RMSE gap allowed between a scheme's in-memory and
/// streaming cells under one noise model.
pub const ENGINE_AGREEMENT: f64 = 0.15;
/// Tag of the line a shard worker prints for the coordinator.
const WORKER_TAG: &str = "perfbench-shard";
/// Tag of the line the single-process reference prints.
const REFERENCE_TAG: &str = "perfbench-reference";
const NOISES: [&str; 3] = ["gaussian", "uniform", "correlated"];
const MB: f64 = 1024.0 * 1024.0;

/// Size of the scenario grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridSize {
    /// The `scenarios` binary's default grid: 20k x 32, 2048-row chunks.
    Default,
    /// Its `--smoke` grid: 2k x 12, 256-row chunks.
    Smoke,
}

/// The `scenarios` binary's grid, with the benchmark seed as base seed.
pub fn grid(size: GridSize, seed: u64) -> ScenarioGrid {
    let (records, attributes, chunk_rows) = match size {
        GridSize::Default => (20_000, 32, 2_048),
        GridSize::Smoke => (2_000, 12, 256),
    };
    let mut base =
        ScenarioSpec::synthetic_quick("sweep", records, attributes, (attributes / 4).max(1));
    base.metrics = vec![MetricKind::Rmse, MetricKind::Mse];
    base.seed = child_seed(0x5EED_5EEE, seed);
    ScenarioGrid {
        base,
        axes: vec![
            GridAxis::noises(&[
                ("gaussian", NoiseSpec::Gaussian { sigma: 10.0 }),
                ("uniform", NoiseSpec::Uniform { sigma: 10.0 }),
                (
                    "correlated",
                    NoiseSpec::CorrelatedSimilar {
                        similarity: 0.5,
                        noise_variance: 100.0,
                    },
                ),
            ]),
            GridAxis::engines(&[EngineSpec::InMemory, EngineSpec::Streaming { chunk_rows }]),
            GridAxis::schemes(&SchemeKind::all()),
        ],
    }
}

/// The grid's cells.
pub fn specs(size: GridSize, seed: u64) -> Result<Vec<ScenarioSpec>> {
    Ok(grid(size, seed).expand_validated()?)
}

/// The `scenarios` binary's retry policy.
fn policy() -> RetryPolicy {
    RetryPolicy::transient_retries(2)
}

/// What one shard worker reported.
#[derive(Debug, Clone, Copy)]
pub struct ShardReport {
    /// Worker wall time around `run_shard_worker_with`.
    pub wall_s: f64,
    /// Datasets the worker generated.
    pub datasets: u64,
    /// The worker's peak resident set (0 when run in-process).
    pub max_rss_mb: f64,
}

/// How shards are executed.
#[derive(Debug, Clone)]
pub enum Workers {
    /// One worker process per shard: `exe` (this binary) re-executed in
    /// shard-worker mode on the default grid built from `seed`.
    Processes {
        /// The benchmark executable.
        exe: PathBuf,
        /// Seed the grid is built from.
        seed: u64,
    },
    /// One after another in this process (tests).
    InProcess,
}

/// Worker mode: run one shard and print its report line.
pub fn worker_main(args: &WorkerArgs) -> Result<()> {
    let specs = specs(GridSize::Default, args.seed)?;
    let (run, wall_s) = timed(|| {
        run_shard_worker_with(
            &specs,
            &args.slice,
            &args.tasks,
            &args.journal,
            policy(),
            WorkerOptions::default(),
        )
    });
    run?;
    println!(
        "{WORKER_TAG} {wall_s} {} {}",
        dataset_generations(),
        own_usage().max_rss_mb
    );
    Ok(())
}

fn parse_worker_line(stdout: &str) -> Option<ShardReport> {
    let line = stdout.lines().rev().find(|l| l.starts_with(WORKER_TAG))?;
    let mut fields = line[WORKER_TAG.len()..].split_whitespace();
    Some(ShardReport {
        wall_s: fields.next()?.parse().ok()?,
        datasets: fields.next()?.parse().ok()?,
        max_rss_mb: fields.next()?.parse().ok()?,
    })
}

/// Reference mode: the grid single-process, at the machine's default
/// thread count; prints the outcome hash.
pub fn reference_main(seed: u64) -> Result<()> {
    let outcomes = run_scenarios_failsoft(&specs(GridSize::Default, seed)?, policy())?;
    println!("{REFERENCE_TAG} {:016x}", outcomes_hash(&outcomes));
    Ok(())
}

/// Runs the reference (`exe --reference`) in a child process and returns
/// its outcome hash.
pub fn reference_hash(exe: &Path, seed: u64) -> Result<u64> {
    let (output, seconds) = timed(|| {
        Command::new(exe)
            .args(["--reference", "--seed", &seed.to_string()])
            .env_remove("RANDRECON_THREADS")
            .stderr(Stdio::inherit())
            .output()
    });
    let output = output?;
    if !output.status.success() {
        return Err(format!("reference sweep exited with {}", output.status).into());
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let hash = stdout
        .lines()
        .find_map(|l| l.strip_prefix(REFERENCE_TAG))
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or("reference sweep printed no outcome hash")?;
    eprintln!("single-process reference: hash {hash:016x} in {seconds:.2} s");
    Ok(hash)
}

impl Workers {
    fn run(
        &self,
        specs: &[ScenarioSpec],
        plan: &ShardPlan,
        journals: &[PathBuf],
    ) -> Result<Vec<ShardReport>> {
        match self {
            Workers::InProcess => journals
                .iter()
                .enumerate()
                .map(|(i, journal)| {
                    let before = dataset_generations();
                    let (run, wall_s) = timed(|| {
                        run_shard_worker_with(
                            specs,
                            &plan.slices[i],
                            &plan.tasks_for(i),
                            journal,
                            policy(),
                            WorkerOptions::default(),
                        )
                    });
                    run?;
                    Ok(ShardReport {
                        wall_s,
                        datasets: dataset_generations() - before,
                        max_rss_mb: 0.0,
                    })
                })
                .collect(),
            Workers::Processes { exe, seed } => {
                let mut children = Vec::with_capacity(journals.len());
                let mut spawn_error = None;
                for (i, journal) in journals.iter().enumerate() {
                    let mut command = Command::new(exe);
                    command
                        .arg("--shard-worker")
                        .args(["--seed", &seed.to_string()])
                        .args(["--slice", &plan.slices[i].to_string()])
                        .arg("--journal")
                        .arg(journal)
                        .env("RANDRECON_THREADS", "1")
                        .stdout(Stdio::piped());
                    for task in plan.tasks_for(i) {
                        command.arg("--moment-task").arg(task.to_string());
                    }
                    match command.spawn() {
                        Ok(child) => children.push(child),
                        Err(e) => {
                            spawn_error = Some(e);
                            break;
                        }
                    }
                }
                // Wait for every started worker, even after a failed spawn.
                let outputs: Vec<_> = children
                    .into_iter()
                    .map(|child| child.wait_with_output())
                    .collect();
                if let Some(e) = spawn_error {
                    return Err(format!("cannot spawn a shard worker: {e}").into());
                }
                outputs
                    .into_iter()
                    .enumerate()
                    .map(|(i, output)| {
                        let output = output?;
                        if !output.status.success() {
                            return Err(format!("shard {i} exited with {}", output.status).into());
                        }
                        parse_worker_line(&String::from_utf8_lossy(&output.stdout))
                            .ok_or_else(|| format!("shard {i} printed no report").into())
                    })
                    .collect()
            }
        }
    }
}

/// One sharded sweep, stage by stage.
#[derive(Debug)]
pub struct SweepRun {
    /// One outcome per cell, in grid order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Plan to reduce, inclusive.
    pub wall_s: f64,
    /// CPU of this process and its workers over the sweep.
    pub cpu_s: f64,
    /// `plan_shards`.
    pub plan_s: f64,
    /// First spawn to last worker reaped.
    pub workers_s: f64,
    /// `reduce_shard_journals`.
    pub reduce_s: f64,
    /// What each worker reported.
    pub shards: Vec<ShardReport>,
    /// Bytes of all shard journals, in MB.
    pub journal_mb: f64,
    /// Datasets generated by workers and the reduce.
    pub datasets: u64,
}

/// Runs the sweep once, with fresh shard journals in `dir`.
pub fn sweep_once(specs: &[ScenarioSpec], dir: &Path, workers: &Workers) -> Result<SweepRun> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let cpu_before = own_usage().cpu_s + children_usage().cpu_s;
    let (run, wall_s) = timed(|| -> Result<SweepRun> {
        let (plan, plan_s) = timed(|| plan_shards(specs, SHARDS, SplitPolicy::Always));
        let plan = plan?;
        let journals: Vec<PathBuf> = (0..plan.n_shards())
            .map(|i| shard_journal_path(dir, i))
            .collect();
        let (shards, workers_s) = timed(|| workers.run(specs, &plan, &journals));
        let shards = shards?;
        let before = dataset_generations();
        let (reduced, reduce_s) =
            timed(|| reduce_shard_journals(specs, &plan, &journals, policy()));
        let (outcomes, _unrecovered) = reduced?;
        let datasets =
            dataset_generations() - before + shards.iter().map(|s| s.datasets).sum::<u64>();
        Ok(SweepRun {
            outcomes,
            wall_s: 0.0,
            cpu_s: 0.0,
            plan_s,
            workers_s,
            reduce_s,
            shards,
            journal_mb: 0.0,
            datasets,
        })
    });
    let mut run = run?;
    run.wall_s = wall_s;
    run.cpu_s = own_usage().cpu_s + children_usage().cpu_s - cpu_before;
    for i in 0..run.shards.len() {
        run.journal_mb += std::fs::metadata(shard_journal_path(dir, i))?.len() as f64 / MB;
    }
    Ok(run)
}

/// Cells that failed their check, and why.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Cells counted as failed operations.
    pub failed: usize,
    /// What went wrong.
    pub problems: Vec<String>,
}

/// Checks a sweep's outcomes: every cell `Completed`, the 15 cross-engine
/// pairs within [`ENGINE_AGREEMENT`], and the outcome hash equal to
/// `reference` (a single-process run of the same grid).
pub fn check(outcomes: &[ScenarioOutcome], expected_cells: usize, reference: u64) -> Verdict {
    let mut verdict = Verdict::default();
    if outcomes.len() != expected_cells {
        verdict.failed = expected_cells;
        verdict.problems.push(format!(
            "{} outcomes for {expected_cells} cells",
            outcomes.len()
        ));
        return verdict;
    }
    let hash = outcomes_hash(outcomes);
    if hash != reference {
        verdict.failed = expected_cells;
        verdict.problems.push(format!(
            "outcome hash {hash:016x} differs from the single-process {reference:016x}"
        ));
        return verdict;
    }
    let mut bad = vec![false; outcomes.len()];
    for (i, o) in outcomes.iter().enumerate() {
        if !matches!(o, ScenarioOutcome::Completed(_)) {
            bad[i] = true;
            verdict
                .problems
                .push(format!("cell {} is not Completed", o.label()));
        }
    }
    let rmse_of = |noise: &str, engine: &str, scheme: SchemeKind| {
        outcomes.iter().position(|o| {
            o.as_completed().is_some_and(|r| {
                r.label.contains(&format!("noise={noise}/"))
                    && r.label.contains(&format!("engine={engine}"))
                    && r.scheme == Some(scheme)
            })
        })
    };
    let mut pairs = 0;
    for noise in NOISES {
        for scheme in SchemeKind::all() {
            let (Some(a), Some(b)) = (
                rmse_of(noise, "in-memory", scheme),
                rmse_of(noise, "streaming", scheme),
            ) else {
                continue;
            };
            let rmse = |i: usize| outcomes[i].as_completed().and_then(|r| r.rmse());
            let (x, y) = (rmse(a).unwrap_or(f64::NAN), rmse(b).unwrap_or(f64::NAN));
            if (x - y).abs() / x < ENGINE_AGREEMENT {
                pairs += 1;
            } else {
                bad[a] = true;
                bad[b] = true;
                verdict.problems.push(format!(
                    "{noise}/{}: engines disagree ({x} in memory vs {y} streaming)",
                    scheme.label()
                ));
            }
        }
    }
    let expected_pairs = NOISES.len() * SchemeKind::all().len();
    if pairs != expected_pairs {
        verdict.problems.push(format!(
            "{pairs} of {expected_pairs} cross-engine pairs agree"
        ));
    }
    verdict.failed = bad.iter().filter(|b| **b).count();
    verdict
}

/// Summed cell seconds of UDR under uniform noise (the quadrature
/// posterior) and of all other cells.
fn cell_seconds(outcomes: &[ScenarioOutcome]) -> (f64, f64) {
    let (mut quadrature, mut rest) = (0.0, 0.0);
    for r in outcomes.iter().filter_map(ScenarioOutcome::as_completed) {
        if r.scheme == Some(SchemeKind::Udr) && r.label.contains("noise=uniform/") {
            quadrature += r.seconds;
        } else {
            rest += r.seconds;
        }
    }
    (quadrature, rest)
}

/// Records reconstructed by the sweep: records x trials over its cells.
fn records(outcomes: &[ScenarioOutcome]) -> f64 {
    outcomes
        .iter()
        .filter_map(ScenarioOutcome::as_completed)
        .map(|r| (r.n_records * r.trials) as f64)
        .sum()
}

/// Runs the sweep of `specs` for `seconds` and reports the
/// end-to-end metrics, or — when `trace` — the per-layer ledger. Outcomes
/// are checked against `reference`, the single-process outcome hash; `dir`
/// holds the shard journals.
pub fn bench(
    specs: &[ScenarioSpec],
    reference: u64,
    workers: &Workers,
    setup_s: f64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<Report> {
    let mut verdicts = Vec::new();
    let mut sweep = || -> Result<SweepRun> {
        let run = sweep_once(specs, dir, workers)?;
        verdicts.push(check(&run.outcomes, specs.len(), reference));
        Ok(run)
    };
    let values = if trace {
        // Untraced and traced sweeps are the same calls; the traced one's
        // stage times are read, the untraced one is the overhead's base.
        let cycles = run_for(seconds, || {
            let plain = sweep()?;
            let traced = sweep()?;
            let wall = plain.wall_s + traced.wall_s;
            Ok(((plain.wall_s, traced), wall))
        })?;
        let plain_median = median(&cycles.iter().map(|c| c.0).collect::<Vec<_>>());
        let per_cycle: Vec<Values> = cycles
            .iter()
            .map(|(_, run)| ledger(run, plain_median))
            .collect();
        median_values(&per_cycle)
    } else {
        let runs = run_for(seconds, || {
            let run = sweep()?;
            let wall = run.wall_s;
            Ok((run, wall))
        })?;
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let rates: Vec<f64> = runs
            .iter()
            .map(|r| records(&r.outcomes) / r.wall_s)
            .collect();
        let cpus: Vec<f64> = runs.iter().map(|r| r.cpu_s).collect();
        let worker_rss = runs
            .iter()
            .flat_map(|r| r.shards.iter().map(|s| s.max_rss_mb))
            .fold(0.0, f64::max);
        eprintln!("{} sweeps, wall {walls:.3?} s", runs.len());
        Values::from([
            ("wall_s", median(&walls)),
            ("records_per_s", median(&rates)),
            ("cpu_s", median(&cpus)),
            ("peak_rss_mb", own_usage().max_rss_mb.max(worker_rss)),
            ("setup_s", setup_s),
        ])
    };
    let attempted = verdicts.len() * specs.len();
    let failed: usize = verdicts.iter().map(|v| v.failed).sum();
    let problems: Vec<&String> = verdicts.iter().flat_map(|v| &v.problems).collect();
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

/// The per-layer ledger of one traced sweep.
fn ledger(run: &SweepRun, plain_median: f64) -> Values {
    let walls: Vec<f64> = run.shards.iter().map(|s| s.wall_s).collect();
    let slowest = walls.iter().copied().fold(0.0, f64::max);
    let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    let (quadrature, rest) = cell_seconds(&run.outcomes);
    let unattributed = run.wall_s - run.plan_s - run.workers_s - run.reduce_s;
    eprintln!(
        "sweep ledger: plan {:.4} + workers {:.3} (slowest shard {slowest:.3} + spawn {:.3}) \
         + reduce {:.3} + unattributed {unattributed:.4} = wall {:.3} s; cells: UDR x uniform \
         {quadrature:.3} s, rest {rest:.3} s",
        run.plan_s,
        run.workers_s,
        run.workers_s - slowest,
        run.reduce_s,
        run.wall_s
    );
    let mut values = zeroed(PER_LAYER);
    values.extend([
        ("stats.posterior_quadrature_s", quadrature),
        ("experiments.cells_rest_s", rest),
        ("experiments.plan_s", run.plan_s),
        ("experiments.shard_max_s", slowest),
        (
            "experiments.shard_skew",
            if mean > 0.0 { slowest / mean } else { 0.0 },
        ),
        ("experiments.reduce_s", run.reduce_s),
        ("experiments.spawn_s", run.workers_s - slowest),
        ("experiments.journal_mb", run.journal_mb),
        ("experiments.datasets", run.datasets as f64),
        ("trace.overhead", run.wall_s / plain_median),
        ("trace.unattributed_s", unattributed),
    ]);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_sweep_matches_a_single_process_run() {
        let seed = 11;
        let specs = specs(GridSize::Smoke, seed).expect("grid");
        let single = run_scenarios_failsoft(&specs, policy()).expect("single process");
        let dir = std::env::temp_dir().join(format!("perfbench-sweep-{}", std::process::id()));
        let run = sweep_once(&specs, &dir, &Workers::InProcess).expect("sharded");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let reference = outcomes_hash(&single);
        assert_eq!(outcomes_hash(&run.outcomes), reference);
        // At smoke size the engines agree only loosely, so the pair check
        // is left to the full grid; every cell must still complete.
        assert!(run
            .outcomes
            .iter()
            .all(|o| matches!(o, ScenarioOutcome::Completed(_))));
        assert_eq!(run.shards.len(), SHARDS);
        assert!(run.journal_mb > 0.0 && run.datasets > 0);
        let ledger = ledger(&run, run.wall_s);
        assert!(ledger["stats.posterior_quadrature_s"] > 0.0);
        assert!(PER_LAYER.iter().all(|d| ledger.contains_key(d.name)));

        let mut wrong = run.outcomes.clone();
        wrong.pop();
        assert_eq!(check(&wrong, specs.len(), reference).failed, specs.len());
        assert_eq!(
            check(&run.outcomes, specs.len(), reference ^ 1).failed,
            specs.len()
        );
    }

    #[test]
    fn the_seed_reaches_the_cells() {
        let a = specs(GridSize::Smoke, 1).expect("grid");
        let b = specs(GridSize::Smoke, 2).expect("grid");
        assert_eq!(a.len(), 30);
        assert_ne!(a[0].seed, b[0].seed);
        assert_eq!(specs(GridSize::Default, 1).expect("grid").len(), 30);
    }

    #[test]
    fn worker_lines_parse() {
        let report = parse_worker_line("noise\nperfbench-shard 1.5 2 30.25\n").expect("line");
        assert_eq!((report.wall_s, report.datasets), (1.5, 2));
        assert!(parse_worker_line("perfbench-shard 1.5").is_none());
    }
}
