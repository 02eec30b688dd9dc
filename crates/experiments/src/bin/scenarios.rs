//! The one experiment binary: runs a named grid from the registry
//! ([`randrecon_experiments::grids`]) — fail-soft, crash-resumable, and
//! shardable across worker processes.
//!
//! Usage: `cargo run --release -p randrecon-experiments --bin scenarios --
//! [--grid <name>] [--smoke] [--journal <path> [--resume]] [--shards <n>
//! [--shard-dir <dir>]]`
//!
//! * `--grid <name>` — the registered grid to run (default `sweep`):
//!   `sweep` (5 schemes × 3 noise models — independent Gaussian,
//!   independent uniform, correlated-similar — × both engines = 30 cells,
//!   20 k × 32 records), `figure1` … `figure4`, `figures` (all four),
//!   `ablation` (all four ablations), `streaming` (the five-scheme
//!   streaming comparison at 50 k × 64) and `streaming-500k` (the same at
//!   500 k × 64). A name holding several grids runs all their cells as one
//!   sweep. Outcomes go to `results/<name>.{csv,json}`; figure-shaped grids
//!   (the four figures, the noise-level and sample-size ablations) also
//!   print their series tables and write their series CSVs to `results/`.
//!   An unknown name is a usage error that lists the registered names.
//! * `--smoke` — every grid at its quick size (`sweep`: the same 30 cells
//!   at 2 k × 12, the tier-1 CI smoke; `streaming`: 10 k × 16).
//! * `--journal <path>` — append every outcome to a crash-safe result
//!   journal as it lands. If the journal already has content, the sweep
//!   refuses to run unless `--resume` is also given.
//! * `--resume` — recover journal state (tolerating a torn trailing
//!   record), skip every cell it holds, and execute only the remainder;
//!   the final report is identical to an uninterrupted run. With
//!   `--shards`, applies to the per-shard journals in `--shard-dir`.
//! * `--shards <n>` — **coordinator mode**: split the grid into up to `n`
//!   workload-group-aligned shards, re-exec this binary once per shard as
//!   a worker process (forwarding `--grid` and `--smoke`; restarting dead
//!   workers, which resume from their shard journals), then merge the
//!   shard journals into a report bit-identical to a single-process run.
//!   `--shard-dir` places the shard journals (default `results/shards`).
//! * `--worker-timeout <secs>` — coordinator-mode watchdog: workers write
//!   heartbeat frames next to their shard journals, and a worker whose
//!   heartbeat stalls past this many seconds is killed and restarted
//!   (restarts are paced by deterministic exponential backoff and resume
//!   from the shard journal, exactly like crash restarts).
//! * `--moment-merge` — coordinator-mode distributed pass 1: splittable
//!   workload groups (streaming MVN) have their per-trial moment segments
//!   dealt across **all** shards as `--moment-task` assignments; workers
//!   journal the partials, and the coordinator merges them bit-exactly and
//!   finishes the split groups itself. The `outcome hash:` stays identical
//!   to a single-process run.
//! * `--shard-range <a..b[,c..d,…]>` — **worker mode** (spawned by the
//!   coordinator): run only the listed global cells (possibly an empty
//!   slice for a task-only worker) against the shard journal given by
//!   `--journal`, after accumulating any `--moment-task <leader>:<lo>..<hi>`
//!   pass-1 assignments. `--crash records:<k>` / `--crash
//!   byte:<b>` installs a deterministic abort inside the journal append —
//!   testing support, forwarded by the coordinator's `--kill-shard
//!   <shard>:records:<k>` flag to exercise kill-and-restart. `--hang <k>`
//!   wedges the worker forever once `k` records are journaled (the
//!   process stays alive with a frozen heartbeat); the coordinator's
//!   `--hang-shard <shard>:<k>` forwards it to one shard's first attempt
//!   to exercise the `--worker-timeout` watchdog.
//!
//! The streaming chunk ring's depth (the in-flight bound; 1 = fully
//! sequential) comes from the `RANDRECON_PIPELINE_SLOTS` environment
//! variable, else twice the worker-pool width clamped to [2, 8]. Spawned
//! shard workers inherit the coordinator's environment, so sharded sweeps
//! run at the same depth.
//!
//! The sweep is **fail-soft**: a failing or panicking cell is reported in
//! the failure section instead of killing the sweep — cells that *degraded*
//! (completed through a numerical fallback, e.g. the eigenvalue-clipped SPD
//! repair) are counted and rendered separately but do not fail the sweep.
//! After the result files are written, the sanity checks
//! ([`randrecon_experiments::report::sanity_checks`]: finite RMSEs, and
//! cells differing only in their engine within 15% of each other) print
//! one line per problem. The process exits 1 iff a cell failed or a sanity
//! check did. Every top-level mode prints an `outcome hash:` line — a
//! wall-clock-independent FNV-1a digest of all outcomes — which CI compares
//! across sharded and single-process runs.

use randrecon_experiments::fault::{format_crash_point, parse_crash_point, WorkerHang, WorkerKill};
use randrecon_experiments::grids;
use randrecon_experiments::journal::CrashPoint;
use randrecon_experiments::report::{
    outcomes_hash, outcomes_summary, outcomes_table, render_report, sanity_checks,
    write_outcomes_csv, write_outcomes_json, write_report_csvs, ENGINE_AGREEMENT,
};
use randrecon_experiments::scenario::{
    dataset_generations, RetryPolicy, ScenarioOutcome, ScenarioSpec,
};
use randrecon_experiments::shard::{
    plan_shards, run_shard_worker_with, run_sharded, shard_heartbeat_path, shard_journal_path,
    MomentTask, ShardSlice, ShardedRunConfig, SplitPolicy, WorkerOptions,
};
use randrecon_experiments::ExperimentSeries;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

struct Args {
    grid: String,
    smoke: bool,
    journal: Option<PathBuf>,
    resume: bool,
    shards: Option<usize>,
    shard_dir: PathBuf,
    shard_range: Option<ShardSlice>,
    moment_tasks: Vec<MomentTask>,
    moment_merge: bool,
    crash: Option<CrashPoint>,
    kill_shard: Option<WorkerKill>,
    worker_timeout: Option<Duration>,
    hang: Option<u64>,
    hang_shard: Option<WorkerHang>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        grid: grids::DEFAULT.to_string(),
        smoke: false,
        journal: None,
        resume: false,
        shards: None,
        shard_dir: PathBuf::from("results/shards"),
        shard_range: None,
        moment_tasks: Vec::new(),
        moment_merge: false,
        crash: None,
        kill_shard: None,
        worker_timeout: None,
        hang: None,
        hang_shard: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--grid" => match iter.next() {
                Some(name) => args.grid = name,
                None => return Err("--grid needs a grid name".to_string()),
            },
            "--smoke" => args.smoke = true,
            "--resume" => args.resume = true,
            "--journal" => match iter.next() {
                Some(path) => args.journal = Some(PathBuf::from(path)),
                None => return Err("--journal needs a file path".to_string()),
            },
            "--shards" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => args.shards = Some(n),
                _ => return Err("--shards needs a positive worker count".to_string()),
            },
            "--shard-dir" => match iter.next() {
                Some(dir) => args.shard_dir = PathBuf::from(dir),
                None => return Err("--shard-dir needs a directory path".to_string()),
            },
            "--shard-range" => match iter.next().as_deref().and_then(ShardSlice::parse) {
                Some(slice) => args.shard_range = Some(slice),
                None => {
                    return Err("--shard-range needs a comma-joined '<start>..<end>' slice \
                         (may be empty for a task-only worker)"
                        .to_string())
                }
            },
            "--moment-task" => match iter.next().as_deref().and_then(MomentTask::parse) {
                Some(task) => args.moment_tasks.push(task),
                None => return Err("--moment-task needs '<leader>:<lo>..<hi>'".to_string()),
            },
            "--moment-merge" => args.moment_merge = true,
            "--crash" => match iter.next().as_deref().and_then(parse_crash_point) {
                Some(point) => args.crash = Some(point),
                None => {
                    return Err("--crash needs 'records:<k>' or 'byte:<b>'".to_string());
                }
            },
            "--kill-shard" => match iter.next().as_deref().and_then(WorkerKill::parse) {
                Some(kill) => args.kill_shard = Some(kill),
                None => {
                    return Err(
                        "--kill-shard needs '<shard>:records:<k>' or '<shard>:byte:<b>'"
                            .to_string(),
                    )
                }
            },
            "--worker-timeout" => match iter
                .next()
                .and_then(|s| s.parse::<f64>().ok())
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .filter(|timeout| !timeout.is_zero())
            {
                Some(timeout) => args.worker_timeout = Some(timeout),
                None => {
                    return Err(
                        "--worker-timeout needs a positive number of seconds below 1.8e19"
                            .to_string(),
                    )
                }
            },
            "--hang" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(records) => args.hang = Some(records),
                None => return Err("--hang needs a record count".to_string()),
            },
            "--hang-shard" => match iter.next().as_deref().and_then(WorkerHang::parse) {
                Some(hang) => args.hang_shard = Some(hang),
                None => return Err("--hang-shard needs '<shard>:<records>'".to_string()),
            },
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.resume && args.journal.is_none() && args.shards.is_none() {
        return Err("--resume needs --journal <path> or --shards <n>".to_string());
    }
    if args.shard_range.is_some() && args.journal.is_none() {
        return Err("--shard-range (worker mode) needs --journal <path>".to_string());
    }
    if args.crash.is_some() && args.shard_range.is_none() {
        return Err("--crash only applies to worker mode (--shard-range)".to_string());
    }
    if args.shards.is_some() && (args.shard_range.is_some() || args.journal.is_some()) {
        return Err(
            "--shards (coordinator mode) conflicts with --journal/--shard-range; \
             workers manage per-shard journals in --shard-dir"
                .to_string(),
        );
    }
    if args.kill_shard.is_some() && args.shards.is_none() {
        return Err("--kill-shard only applies to coordinator mode (--shards)".to_string());
    }
    if args.hang.is_some() && args.shard_range.is_none() {
        return Err("--hang only applies to worker mode (--shard-range)".to_string());
    }
    if !args.moment_tasks.is_empty() && args.shard_range.is_none() {
        return Err("--moment-task only applies to worker mode (--shard-range)".to_string());
    }
    if args.moment_merge && args.shards.is_none() {
        return Err("--moment-merge only applies to coordinator mode (--shards)".to_string());
    }
    if args.worker_timeout.is_some() && args.shards.is_none() {
        return Err("--worker-timeout only applies to coordinator mode (--shards)".to_string());
    }
    if args.hang_shard.is_some() && args.shards.is_none() {
        return Err("--hang-shard only applies to coordinator mode (--shards)".to_string());
    }
    if args.hang_shard.is_some() && args.worker_timeout.is_none() {
        return Err(
            "--hang-shard needs --worker-timeout: without a watchdog the hung worker \
             would wedge the sweep forever"
                .to_string(),
        );
    }
    Ok(args)
}

fn fail(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("{context}: {e}");
    std::process::exit(2);
}

/// Worker mode: run one shard against its journal, print a per-shard
/// summary, and exit. Exit status reflects the *machinery* (journal I/O,
/// spawn validity), not per-cell failures — failed cells are journaled as
/// `Failed` outcomes and restarting the worker could not improve them.
fn run_worker(args: &Args, specs: &[ScenarioSpec], policy: RetryPolicy) -> ! {
    let slice = args.shard_range.as_ref().expect("worker mode");
    let journal = args.journal.as_ref().expect("validated");
    let options = WorkerOptions {
        crash: args.crash,
        heartbeat: Some(shard_heartbeat_path(journal)),
        hang_after_records: args.hang,
    };
    match run_shard_worker_with(specs, slice, &args.moment_tasks, journal, policy, options) {
        Ok(run) => {
            let failed = run.outcomes.iter().filter(|o| o.is_failed()).count();
            println!(
                "shard [{slice}]: {} records resumed, {} executed ({} moment task(s)), \
                 {failed} failed; datasets generated: {}",
                run.resumed,
                run.executed,
                args.moment_tasks.len(),
                dataset_generations()
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("shard worker [{slice}] failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Coordinator mode: plan shards, spawn/restart workers, merge journals.
/// Returns the merged full-grid outcomes.
fn run_coordinator(args: &Args, specs: &[ScenarioSpec]) -> Vec<ScenarioOutcome> {
    let policy = if args.moment_merge {
        SplitPolicy::Always
    } else {
        SplitPolicy::Never
    };
    let plan = match plan_shards(specs, args.shards.expect("coordinator mode"), policy) {
        Ok(plan) => plan,
        Err(e) => fail("shard planning failed", e),
    };
    let slices: Vec<String> = plan
        .slices
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let tasks = plan.tasks_for(i);
            if tasks.is_empty() {
                format!("[{s}]")
            } else {
                let tasks: Vec<String> = tasks.iter().map(MomentTask::to_string).collect();
                format!("[{s}]+moments({})", tasks.join(","))
            }
        })
        .collect();
    println!(
        "planned {} shard(s) over {} cells ({} split group(s)): {}",
        plan.n_shards(),
        specs.len(),
        plan.split.len(),
        slices.join(", ")
    );
    if !args.resume {
        for i in 0..plan.n_shards() {
            let path = shard_journal_path(&args.shard_dir, i);
            if std::fs::metadata(&path)
                .map(|m| m.len() > 0)
                .unwrap_or(false)
            {
                fail(
                    "refusing fresh sharded run",
                    format!(
                        "shard journal {} already exists; pass --resume to continue it \
                         or delete {} to start over",
                        path.display(),
                        args.shard_dir.display()
                    ),
                );
            }
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => fail("cannot locate worker executable", e),
    };
    let config = ShardedRunConfig {
        worker_timeout: args.worker_timeout,
        ..ShardedRunConfig::default()
    };
    let run = run_sharded(specs, &plan, &args.shard_dir, &config, |spawn| {
        if spawn.attempt > 0 {
            println!(
                "shard {} restarted (attempt {}), resuming from {}",
                spawn.index,
                spawn.attempt + 1,
                spawn.journal.display()
            );
        }
        let mut command = Command::new(&exe);
        command.arg("--grid").arg(&args.grid);
        if args.smoke {
            command.arg("--smoke");
        }
        command
            .arg("--shard-range")
            .arg(spawn.slice.to_string())
            .arg("--journal")
            .arg(spawn.journal);
        for task in spawn.tasks {
            command.arg("--moment-task").arg(task.to_string());
        }
        // Fault injections arm on the first attempt only: the restarted
        // worker resumes past its journaled records, and re-arming the
        // same trigger would trip it immediately, forever.
        if spawn.attempt == 0 {
            if let Some(kill) = args.kill_shard.filter(|k| k.shard == spawn.index) {
                command.arg("--crash").arg(format_crash_point(kill.crash));
            }
            if let Some(hang) = args.hang_shard.filter(|h| h.shard == spawn.index) {
                command.arg("--hang").arg(hang.after_records.to_string());
            }
        }
        command
    });
    match run {
        Ok(run) => {
            for (i, shard) in run.shards.iter().enumerate() {
                let kills = if shard.watchdog_kills > 0 {
                    format!(", {} watchdog kill(s)", shard.watchdog_kills)
                } else {
                    String::new()
                };
                println!(
                    "shard {i} ([{}]): {} attempt(s), {}{kills}",
                    shard.slice,
                    shard.attempts,
                    if shard.completed {
                        "completed"
                    } else if shard.backoff_exhausted {
                        "exhausted restart backoff budget"
                    } else {
                        "exhausted restarts"
                    }
                );
            }
            if run.unrecovered > 0 {
                eprintln!(
                    "{} cell(s) unrecovered from shard journals (reported as failed)",
                    run.unrecovered
                );
            }
            run.outcomes
        }
        Err(e) => fail("sharded sweep failed", e),
    }
}

const USAGE: &str = "usage: scenarios [--grid <name>] [--smoke] [--journal <path> [--resume]] \
     [--shards <n> [--moment-merge] [--shard-dir <dir>] [--resume] \
     [--worker-timeout <secs>] [--kill-shard <spec>] \
     [--hang-shard <shard>:<records>]] \
     [--shard-range <slice> --journal <path> [--moment-task <t>]... \
     [--crash <point>] [--hang <records>]]";

fn usage_error(message: &str) -> ! {
    eprintln!("usage error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Writes `results/<grid>.{csv,json}` and, for figure-shaped grids, the
/// series CSVs. A write failure is a warning: the report is already on
/// stdout.
fn write_results(grid: &str, outcomes: &[ScenarioOutcome], series: &[ExperimentSeries]) {
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("warning: could not create results dir: {e}");
        return;
    }
    let csv = format!("results/{grid}.csv");
    match write_outcomes_csv(outcomes, &csv) {
        Ok(()) => println!("wrote {csv}"),
        Err(e) => eprintln!("warning: could not write CSV: {e}"),
    }
    let json = format!("results/{grid}.json");
    match write_outcomes_json(outcomes, &json) {
        Ok(()) => println!("wrote {json}"),
        Err(e) => eprintln!("warning: could not write JSON: {e}"),
    }
    if !series.is_empty() {
        match write_report_csvs(series, "results") {
            Ok(paths) => {
                for path in paths {
                    println!("wrote {}", path.display());
                }
            }
            Err(e) => eprintln!("warning: could not write series CSVs: {e}"),
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage_error(&e));
    let Some(named) = grids::lookup(&args.grid, args.smoke) else {
        usage_error(&format!(
            "unknown grid '{}'; registered grids: {}",
            args.grid,
            grids::names().collect::<Vec<_>>().join(", ")
        ));
    };
    let specs = match grids::expand(&named) {
        Ok(specs) => specs,
        Err(e) => fail("grid expansion failed", e),
    };
    let policy = RetryPolicy::transient_retries(2);

    if args.shard_range.is_some() {
        run_worker(&args, &specs, policy);
    }

    println!(
        "expanded {} scenarios from grid '{}' ({} base spec(s))",
        specs.len(),
        args.grid,
        named.len()
    );

    let start = std::time::Instant::now();
    let (outcomes, resumed) = if args.shards.is_some() {
        (run_coordinator(&args, &specs), 0)
    } else {
        match &args.journal {
            Some(path) => {
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    if let Err(e) = std::fs::create_dir_all(parent) {
                        fail("cannot create journal directory", e);
                    }
                }
                // A fresh (non-resume) run must not silently adopt or clobber
                // leftover state: an existing non-empty journal needs --resume.
                if !args.resume {
                    if let Ok(meta) = std::fs::metadata(path) {
                        if meta.len() > 0 {
                            fail(
                                "refusing fresh run",
                                format!(
                                    "journal {} already exists; pass --resume to continue it \
                                     or delete it to start over",
                                    path.display()
                                ),
                            );
                        }
                    }
                }
                match randrecon_experiments::run_scenarios_resumable(&specs, path, policy) {
                    Ok(run) => {
                        println!(
                            "journal {}: {} cells resumed, {} executed",
                            path.display(),
                            run.resumed,
                            run.executed
                        );
                        (run.outcomes, run.resumed)
                    }
                    Err(e) => fail("scenario sweep failed", e),
                }
            }
            None => match randrecon_experiments::run_scenarios_failsoft(&specs, policy) {
                Ok(outcomes) => (outcomes, 0),
                Err(e) => fail("scenario sweep failed", e),
            },
        }
    };
    println!("{}", outcomes_table(&outcomes));
    let series = grids::series(&named, &outcomes);
    if !series.is_empty() {
        println!("{}", render_report(&series));
    }
    println!(
        "{} in {:.1?}",
        outcomes_summary(&outcomes, resumed),
        start.elapsed()
    );
    println!("outcome hash: {:016x}", outcomes_hash(&outcomes));
    // The observable half of the two-level dataset economy: on a grid whose
    // cells differ only in noise/attack this equals data-groups × trials,
    // not workload-groups × trials (CI asserts the smoke-grid value).
    println!("datasets generated: {}", dataset_generations());
    let checks = sanity_checks(&outcomes);
    if checks.pairs > 0 {
        println!(
            "cross-engine agreement: {} cell pair(s) checked against a {:.0}% tolerance",
            checks.pairs,
            ENGINE_AGREEMENT * 100.0
        );
    }

    write_results(&args.grid, &outcomes, &series);

    for problem in &checks.problems {
        eprintln!("sanity check failed: {problem}");
    }
    // Degraded cells completed (through a numerical fallback) and carry
    // usable metrics, so they are surfaced but do not fail the sweep.
    let degraded = outcomes.iter().filter(|o| o.is_degraded()).count();
    if degraded > 0 {
        eprintln!("{degraded} scenario(s) degraded (completed via numerical fallback)");
    }
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    if failed > 0 {
        eprintln!("{failed} scenario(s) failed");
    }
    if failed > 0 || !checks.problems.is_empty() {
        std::process::exit(1);
    }
}
