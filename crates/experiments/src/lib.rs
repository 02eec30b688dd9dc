//! # randrecon-experiments
//!
//! The experiment harness that regenerates every figure in the evaluation
//! section of *"Deriving Private Information from Randomized Data"*
//! (SIGMOD 2005), plus ablations and streaming sweeps over the design
//! choices the paper leaves implicit.
//!
//! ## The scenario engine
//!
//! Since PR 5 the harness is built around one **declarative scenario
//! engine** ([`scenario`]): a [`scenario::ScenarioSpec`] describes one cell
//! of the evaluation space — {data source × noise model × attack × engine ×
//! metrics × seed × scale} — and a [`scenario::ScenarioGrid`] expands a base
//! spec crossed with sweep axes into many cells. [`scenario::run_scenarios`]
//! executes any spec list over the shared `randrecon-parallel` pool with
//! deterministic spec-derived seeding (bit-identical results for any thread
//! count), groups scenarios that share a workload so data generation and
//! streaming pass-1 moments are computed once per group, and funnels the
//! results into one report layer ([`report`]: console tables, CSV, JSON).
//!
//! Every historical hand-written driver is now a thin *named grid* over
//! that engine — adding a scenario means writing a spec entry, not a new
//! driver file:
//!
//! | Module | Paper figure | Grid |
//! |---|---|---|
//! | [`exp1`] | Figure 1 | attributes `m` × schemes (fixed `p = 5`) |
//! | [`exp2`] | Figure 2 | principal components `p` × schemes (fixed `m = 100`) |
//! | [`exp3`] | Figure 3 | non-principal eigenvalue × schemes |
//! | [`exp4`] | Figure 4 | noise similarity (correlated defense) × schemes |
//! | [`ablation`] | — | PC-selection rule, noise level, sample size, noise shape |
//! | [`streaming`] | — | five schemes × streaming engine at 10 k–500 k records |
//!
//! [`grids`] registers each of them under a name, next to the default
//! `sweep` grid. Attack dispatch lives one layer down in `randrecon-core`
//! ([`randrecon_core::engine`]): any scheme runs on either the in-memory or
//! the bounded-memory streaming engine from one call site, which is what
//! lets a single grid sweep `{scheme × noise × engine}` (the default
//! `sweep` covers 5 × 3 × 2 = 30 cells in one runner invocation).
//!
//! `scenarios --grid <name> [--smoke]` is the one experiment binary: every
//! registered grid runs through the same fail-soft runner, journal, shard
//! coordinator and outcome report, and figure-shaped grids additionally
//! print and write their series. The Criterion benches in
//! `randrecon-bench` reuse the same configurations.
//!
//! ## Crash resumability and fail-soft execution
//!
//! Long sweeps survive crashes and bad cells (PR 6):
//!
//! * [`scenario::run_scenarios_failsoft`] contains per-scenario errors
//!   *and panics* — each cell reports a [`scenario::ScenarioOutcome`]
//!   (`Completed` or `Failed`), the rest of the sweep runs regardless, and
//!   an optional [`scenario::RetryPolicy`] re-attempts transient
//!   (I/O-class) failures;
//! * [`journal::run_scenarios_resumable`] additionally appends every
//!   outcome to an append-only, checksummed [`journal::ResultJournal`] the
//!   moment it lands, so a killed sweep resumes where it died — recovering
//!   torn trailing records and rejecting journals from a different grid —
//!   with final results bit-identical to an uninterrupted run;
//! * [`fault`] is the deterministic fault-injection harness (planted
//!   scenario faults, faulty chunk sources/sinks, byte-budgeted writers,
//!   seeded crash offsets) that the kill-and-resume test suite drives.
//!
//! ## Sharding
//!
//! [`shard`] scales the same sweep across **worker processes** (PR 7):
//! [`shard::plan_shards`] splits a grid into balance-aware per-shard
//! [`shard::ShardSlice`]s (LPT over group costs) that never cut through a
//! workload group, [`shard::run_sharded`] spawns one worker per shard —
//! each journaling its slice to its own [`journal`] file and restarted
//! (journal-resumed) if it dies — and [`shard::reduce_shard_journals`], the
//! one coordinator merge, folds every journal back into one outcome list
//! bit-identical to a single-process run. A single-process resumable sweep
//! is the same worker over the whole grid, so every journal has the same
//! format. Under [`shard::SplitPolicy::Always`], pass 1 of a splittable
//! streaming workload group becomes a **distributed reduction** (PR 9): its
//! fixed-width self-anchored moment segments are dealt across shards as
//! [`shard::MomentTask`]s, each worker journals its partials as moment
//! frames, and the coordinator merges them bit-exactly before finishing the
//! group's pass 2 itself. The `scenarios` binary exposes this as
//! `--shards N [--moment-merge]` (coordinator) and
//! `--shard-range`/`--moment-task` (worker), and
//! [`report::outcomes_hash`] is the fingerprint both sides print so CI can
//! compare them.
//!
//! ## Supervision
//!
//! Execution is **supervised** (PR 8): workers write heartbeat sidecars
//! next to their shard journals and the coordinator's watchdog
//! ([`shard::ShardedRunConfig::worker_timeout`]) kills and restarts a
//! worker whose heartbeat stalls — so hung workers, not just dead ones,
//! recover; restarts and in-process retries are paced by the
//! deterministic, seed-derived [`backoff::BackoffPolicy`] schedule;
//! [`scenario::RetryPolicy::cell_timeout`] arms a cooperative per-cell
//! deadline that classifies runaway cells as `timed-out` (never retried);
//! and a cell that completes only through numerical repair (e.g. BE-DR's
//! eigenvalue-clipped SPD fallback) surfaces as
//! [`scenario::ScenarioOutcome::Degraded`] — real metrics, journaled and
//! merged like completions, rendered distinctly in every report.
//!
//! ## Example
//!
//! ```
//! use randrecon_experiments::exp1::Experiment1;
//!
//! // A scaled-down version of Figure 1 (`scenarios --grid figure1` runs the
//! // full size).
//! // `Experiment1` is a named grid: `.grid()` exposes the underlying
//! // `ScenarioGrid`, `.run()` executes it and regroups the results.
//! let series = Experiment1::quick().run().unwrap();
//! assert!(!series.points.is_empty());
//! println!("{}", series.to_table());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod backoff;
pub mod config;
pub mod error;
pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod fault;
pub mod grids;
pub mod journal;
pub mod report;
pub mod scenario;
pub mod shard;
pub mod streaming;
pub mod workload;

pub use backoff::BackoffPolicy;
pub use config::{ExperimentSeries, SchemeKind, SeriesPoint};
pub use error::{ExperimentError, Result};
pub use journal::{run_scenarios_resumable, ResultJournal, ResumableRun};
pub use scenario::{
    run_scenarios, run_scenarios_failsoft, GridAxis, RetryPolicy, ScenarioGrid, ScenarioOutcome,
    ScenarioResult, ScenarioSpec,
};
pub use shard::{
    plan_shards, reduce_shard_journals, run_shard_worker_with, run_sharded, run_sharded_in_process,
    MomentTask, ShardPlan, ShardRange, ShardSlice, ShardedRun, ShardedRunConfig, SplitPolicy,
};
