//! Sharded multi-process scenario execution: split a grid into per-shard
//! cell slices (plus, optionally, distributed pass-1 moment tasks), run
//! each shard in its own worker process against its own journal, and
//! reduce the journals into one outcome list **bit-identical** to a
//! single-process [`run_scenarios`](crate::scenario::run_scenarios) run.
//!
//! ## The balance-aware planner
//!
//! Every scenario's result is a pure function of its spec (all randomness
//! is spec-derived), and workload groups — scenarios sharing {data, noise,
//! engine, seeds} — are independent of each other. [`plan_shards`] costs
//! each group as cells × records and places whole groups greedily by LPT
//! (heaviest first, each onto the least-loaded shard; all ties broken by
//! index, so the plan is a pure function of `(specs, n_shards, policy)`
//! and coordinator and re-exec'd workers always agree on it). A shard's
//! cells therefore form a possibly non-contiguous [`ShardSlice`], not a
//! single range.
//!
//! Under [`SplitPolicy::Always`], a *splittable* group — streaming-MVN
//! geometry, where pass 1 folds fixed-width self-anchored moment segments —
//! instead becomes a [`SplitGroup`]: its per-trial segment window is dealt
//! contiguously across the shards as [`MomentTask`]s, so one workload
//! group's pass 1 runs as a **distributed reduction** instead of pinning the
//! whole group (and its dataset generation) to one worker.
//!
//! ## The worker ↔ coordinator protocol
//!
//! * The coordinator ([`run_sharded`]) expands the grid once, plans the
//!   shards, and spawns one `std::process::Command` worker per shard
//!   (typically the same binary re-exec'd with `--shard-range` and
//!   repeated `--moment-task` flags, the pattern the re-exec determinism
//!   suites established).
//! * Each worker ([`run_shard_worker_with`]) first accumulates its moment
//!   tasks — journaling one frame per `(leader, trial, segment)` partial —
//!   then runs its cell slice through the same fail-soft machinery as a
//!   single-process sweep, journaling every outcome under its *global*
//!   grid index. The shard journal is the one journal format, owning the
//!   worker's slice (see the [journal module docs](crate::journal)); a
//!   single-process resumable sweep is this same worker over the whole
//!   grid.
//! * A worker that dies is re-spawned up to
//!   [`ShardedRunConfig::max_restarts`] times; on restart it resumes from
//!   its journal, recomputing only the cells — and only the moment
//!   segments — that never landed.
//! * After all workers finish (or exhaust their restarts), the coordinator
//!   runs the **reduce** ([`reduce_shard_journals`]): it recovers every
//!   journal read-only, merges outcomes by global index, reassembles each
//!   split group's segment partials in segment order, folds them with the
//!   *same* two-level merge a single process uses
//!   ([`merge_moment_segments`]), and finishes the split groups' pass 2
//!   coordinator-side against the reduced moments. Because the segmentation
//!   is fixed-width and each partial is self-anchored, the reduced moments
//!   are bit-identical to local accumulation — no f64 reassociation ever
//!   happens. The reduce is fail-soft twice over: a group with incomplete
//!   partials falls back to self-computing pass 1 (bit-identical, slower),
//!   and cells no journal holds surface as
//!   [`ScenarioOutcome::Failed`] entries, not a dead sweep.
//!
//! Wall-clock `seconds` aside, the reduced outcome list is bit-identical
//! to a single-process run — pinned by the re-exec suite in
//! `tests/shard_tests.rs` and by CI comparing the `outcome hash:` lines of
//! sharded (plain and moment-merged) and unsharded `scenarios`
//! invocations.
//!
//! ## The heartbeat protocol and the watchdog
//!
//! A worker that *dies* is caught by its exit status; a worker that
//! *wedges* — an infinite loop, a deadlock, an I/O stall — would hang a
//! blocking `wait()` forever. Supervised runs therefore add a liveness
//! side-channel:
//!
//! * Each worker writes a **heartbeat sidecar** next to its shard journal
//!   ([`shard_heartbeat_path`]: same path, `heartbeat` extension). The file
//!   holds one frame, `"<records> <cell>\n"` — the journal's monotonic
//!   record count plus the global index of the cell just journaled —
//!   rewritten at worker startup and then on journal appends, throttled to
//!   at most one write per [`HEARTBEAT_INTERVAL`] (liveness needs no finer
//!   granularity against a seconds-scale timeout, and per-append writes
//!   would tax fast cells with small-write filesystem latency). Writes are
//!   best-effort: a failed heartbeat never kills a healthy worker (the
//!   watchdog will kill it later, which is the conservative failure mode).
//! * The coordinator never blocks on a child. It polls `try_wait` on every
//!   running worker, and — when [`ShardedRunConfig::worker_timeout`] is set
//!   — re-reads each worker's heartbeat file. A worker whose heartbeat
//!   content has not changed within the timeout is killed and counted in
//!   [`ShardStatus::watchdog_kills`]; the kill burns an attempt and the
//!   normal restart path resumes the shard from its journal.
//! * Restarts are paced by a deterministic
//!   [`BackoffPolicy`](crate::backoff::BackoffPolicy): the delay before
//!   attempt `a` of shard `i` is a pure function of
//!   `(grid fingerprint, i, a)`, so the whole restart schedule of any sweep
//!   is derivable in advance. A shard whose cumulative backoff exceeds the
//!   policy budget stops restarting ([`ShardStatus::backoff_exhausted`])
//!   and its unjournaled cells surface as `Failed` outcomes in the merge.

use crate::backoff::BackoffPolicy;
use crate::error::{ExperimentError, Result};
use crate::journal::{grid_fingerprint, CrashPoint, ResultJournal, ResumableRun};
use crate::scenario::{
    accumulate_split_segments, data_group_consumers, execute_group_failsoft,
    execute_group_failsoft_with_moments, execute_specs_failsoft, workload_groups, DatasetPool,
    RetryPolicy, ScenarioFailure, ScenarioOutcome, ScenarioSpec,
};
use randrecon_core::streaming::StreamMoments;
use randrecon_core::{merge_moment_segments, MomentSegment};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn config_err(reason: impl Into<String>) -> ExperimentError {
    ExperimentError::InvalidConfig {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Shard ranges and planning
// ---------------------------------------------------------------------------

/// A non-empty half-open range `[start, end)` of global grid indices — one
/// shard's slice of an expanded spec list. Displays (and parses) as
/// `start..end`, the format the `scenarios` binary's `--shard-range` flag
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First global cell index (inclusive).
    pub start: usize,
    /// One past the last global cell index (exclusive).
    pub end: usize,
}

impl ShardRange {
    /// Builds a range, rejecting empty or inverted bounds.
    pub fn new(start: usize, end: usize) -> Result<ShardRange> {
        if start >= end {
            return Err(config_err(format!(
                "shard range {start}..{end} is empty or inverted"
            )));
        }
        Ok(ShardRange { start, end })
    }

    /// Number of cells in the range (always ≥ 1).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Ranges are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether global index `i` falls inside the range.
    pub fn contains(&self, i: usize) -> bool {
        self.start <= i && i < self.end
    }

    /// Parses the `start..end` rendering (the `--shard-range` flag).
    pub fn parse(s: &str) -> Option<ShardRange> {
        let (start, end) = s.split_once("..")?;
        ShardRange::new(start.trim().parse().ok()?, end.trim().parse().ok()?).ok()
    }
}

impl fmt::Display for ShardRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// One shard's (possibly non-contiguous) set of global cell indices: a
/// canonical list of sorted, disjoint, non-adjacent [`ShardRange`]s.
/// Displays (and parses) as comma-joined ranges — `0..3,6..9` — the format
/// the `scenarios` binary's `--shard-range` flag accepts. May be empty: a
/// shard can carry only distributed pass-1 moment tasks and no whole cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSlice {
    ranges: Vec<ShardRange>,
}

impl ShardSlice {
    /// Builds a slice from arbitrary ranges: sorts them, rejects overlaps,
    /// and coalesces adjacent ranges into canonical form (so two slices
    /// covering the same cells always compare and render equal).
    pub fn new(mut ranges: Vec<ShardRange>) -> Result<ShardSlice> {
        ranges.sort_by_key(|r| r.start);
        let mut canonical: Vec<ShardRange> = Vec::with_capacity(ranges.len());
        for range in ranges {
            match canonical.last_mut() {
                Some(prev) if range.start < prev.end => {
                    return Err(config_err(format!(
                        "shard slice ranges overlap: {prev} and {range}"
                    )));
                }
                Some(prev) if range.start == prev.end => prev.end = range.end,
                _ => canonical.push(range),
            }
        }
        Ok(ShardSlice { ranges: canonical })
    }

    /// The whole `n_cells`-cell grid (empty for an empty grid): the slice a
    /// single-process sweep's journal owns.
    pub fn whole(n_cells: usize) -> ShardSlice {
        ShardSlice {
            ranges: ShardRange::new(0, n_cells).into_iter().collect(),
        }
    }

    /// A slice over an explicit (deduplicated) cell set.
    pub fn from_cells(mut cells: Vec<usize>) -> Result<ShardSlice> {
        cells.sort_unstable();
        cells.dedup();
        let mut ranges = Vec::new();
        for cell in cells {
            match ranges.last_mut() {
                Some(ShardRange { end, .. }) if *end == cell => *end += 1,
                _ => ranges.push(ShardRange {
                    start: cell,
                    end: cell + 1,
                }),
            }
        }
        Ok(ShardSlice { ranges })
    }

    /// The canonical range list (sorted, disjoint, non-adjacent).
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// Total number of cells in the slice.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(ShardRange::len).sum()
    }

    /// Whether the slice holds no cells.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Whether global index `i` falls inside the slice.
    pub fn contains(&self, i: usize) -> bool {
        self.ranges.iter().any(|r| r.contains(i))
    }

    /// The slice's cells in ascending order.
    pub fn cells(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().flat_map(|r| r.start..r.end)
    }

    /// The position of global index `i` within [`cells`](Self::cells)
    /// order, or `None` when `i` is outside the slice.
    pub fn position(&self, i: usize) -> Option<usize> {
        let mut offset = 0usize;
        for range in &self.ranges {
            if range.contains(i) {
                return Some(offset + (i - range.start));
            }
            offset += range.len();
        }
        None
    }

    /// The lowest cell index, or `None` for an empty slice.
    pub fn first(&self) -> Option<usize> {
        self.ranges.first().map(|r| r.start)
    }

    /// Parses the comma-joined rendering (the `--shard-range` flag);
    /// an empty string is the empty slice.
    pub fn parse(s: &str) -> Option<ShardSlice> {
        let s = s.trim();
        if s.is_empty() {
            return Some(ShardSlice { ranges: Vec::new() });
        }
        let ranges = s
            .split(',')
            .map(ShardRange::parse)
            .collect::<Option<Vec<_>>>()?;
        ShardSlice::new(ranges).ok()
    }
}

impl fmt::Display for ShardSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, range) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{range}")?;
        }
        Ok(())
    }
}

/// One distributed pass-1 task: accumulate moment segments
/// `seg_lo..seg_hi` (for every trial) of the workload group led by global
/// cell `leader`. Displays/parses as `leader:lo..hi` (the `--moment-task`
/// flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MomentTask {
    /// Global index of the group's leader cell (lowest member index).
    pub leader: usize,
    /// First segment index (inclusive).
    pub seg_lo: usize,
    /// Last segment index (exclusive).
    pub seg_hi: usize,
}

impl MomentTask {
    /// Parses the `leader:lo..hi` rendering.
    pub fn parse(s: &str) -> Option<MomentTask> {
        let (leader, range) = s.split_once(':')?;
        let range = ShardRange::parse(range)?;
        Some(MomentTask {
            leader: leader.trim().parse().ok()?,
            seg_lo: range.start,
            seg_hi: range.end,
        })
    }
}

impl fmt::Display for MomentTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}..{}", self.leader, self.seg_lo, self.seg_hi)
    }
}

/// Whether the planner splits workload groups' pass-1 moment accumulation
/// across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Never split: every group's cells stay on one shard and pass 1 runs
    /// locally.
    #[default]
    Never,
    /// Split every splittable group (streaming MVN geometry) — the
    /// `--moment-merge` protocol.
    Always,
}

/// A workload group whose pass-1 moment fold is distributed across shards.
#[derive(Debug, Clone)]
pub struct SplitGroup {
    /// Global index of the group leader (lowest member index).
    pub leader: usize,
    /// All member cell indices, ascending.
    pub members: Vec<usize>,
    /// Trials per member (identical across the group).
    pub trials: usize,
    /// Total moment segments per trial.
    pub segments: usize,
    /// `(shard index, task)` assignments partitioning `0..segments`.
    pub tasks: Vec<(usize, MomentTask)>,
}

/// A balance-aware shard plan: per-shard cell slices plus the split groups
/// whose pass-1 segments are distributed across shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// One (possibly empty) cell slice per shard.
    pub slices: Vec<ShardSlice>,
    /// Workload groups whose moment fold is sharded; their member cells are
    /// *not* in any slice — the coordinator finishes them after the reduce.
    pub split: Vec<SplitGroup>,
}

impl ShardPlan {
    /// Number of shards in the plan.
    pub fn n_shards(&self) -> usize {
        self.slices.len()
    }

    /// The moment tasks assigned to shard `i`, in leader order.
    pub fn tasks_for(&self, shard: usize) -> Vec<MomentTask> {
        self.split
            .iter()
            .flat_map(|g| {
                g.tasks
                    .iter()
                    .filter(move |(s, _)| *s == shard)
                    .map(|&(_, t)| t)
            })
            .collect()
    }
}

/// Per-group cost model for the balance-aware planner: cells × records.
/// Records dominate both dataset generation and reconstruction time, and
/// cells multiply the reconstruction sweeps, so the product tracks wall
/// time well enough for LPT balancing without timing anything.
fn group_cost(specs: &[ScenarioSpec], members: &[usize]) -> u128 {
    let records = members
        .iter()
        .map(|&i| specs[i].approx_records() as u128)
        .max()
        .unwrap_or(1);
    members.len() as u128 * records.max(1)
}

/// Splits `specs` into an `n_shards`-way balance-aware [`ShardPlan`].
///
/// Groups are costed as cells × records. Under [`SplitPolicy::Always`],
/// workload groups with streaming-MVN geometry become [`SplitGroup`]s:
/// their pass-1 moment segments are dealt contiguously across all shards
/// and their cells are finished coordinator-side after the reduce. The remaining groups are placed greedily by LPT — heaviest
/// first (ties: lowest leader index), each onto the least-loaded shard
/// (ties: lowest shard index) — then each shard's cells are coalesced into
/// a canonical [`ShardSlice`]. The plan is a pure function of
/// `(specs, n_shards, policy)`, so coordinator and re-executed workers
/// always agree on it.
pub fn plan_shards(
    specs: &[ScenarioSpec],
    n_shards: usize,
    policy: SplitPolicy,
) -> Result<ShardPlan> {
    if specs.is_empty() {
        return Err(config_err("cannot shard an empty scenario grid"));
    }
    if n_shards == 0 {
        return Err(config_err("shard count must be at least 1"));
    }
    let mut groups = workload_groups(specs);
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort_by_key(|g| g[0]);

    let splitting = n_shards > 1 && policy == SplitPolicy::Always;
    let mut loads = vec![0u128; n_shards];
    let mut split = Vec::new();
    let mut unsplit = Vec::new();
    for group in groups {
        let leader = group[0];
        let cost = group_cost(specs, &group);
        match specs[leader].stream_geometry() {
            Some((_, segments)) if splitting => {
                // Deal the group's segments contiguously across shards and
                // charge each shard a proportional piece of the group cost.
                let mut tasks = Vec::new();
                let mut lo = 0usize;
                for (shard, load) in loads.iter_mut().enumerate() {
                    let hi = segments * (shard + 1) / n_shards;
                    if hi > lo {
                        tasks.push((
                            shard,
                            MomentTask {
                                leader,
                                seg_lo: lo,
                                seg_hi: hi,
                            },
                        ));
                        *load += cost * (hi - lo) as u128 / segments.max(1) as u128;
                        lo = hi;
                    }
                }
                split.push(SplitGroup {
                    leader,
                    trials: specs[leader].trials,
                    segments,
                    members: group,
                    tasks,
                });
            }
            _ => unsplit.push((cost, group)),
        }
    }

    // LPT: heaviest group first (ties by first index for determinism), each
    // onto the currently least-loaded shard (ties by lowest shard index).
    unsplit.sort_by(|a, b| b.0.cmp(&a.0).then(a.1[0].cmp(&b.1[0])));
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    for (cost, group) in unsplit {
        let shard = (0..n_shards)
            .min_by_key(|&s| loads[s])
            .expect("n_shards >= 1");
        loads[shard] += cost;
        bins[shard].extend(group);
    }
    let slices = bins
        .into_iter()
        .map(ShardSlice::from_cells)
        .collect::<Result<Vec<_>>>()?;
    Ok(ShardPlan { slices, split })
}

/// Checks that `plan` tiles `0..specs.len()` exactly: every cell appears in
/// exactly one shard slice or exactly one split group, with located errors
/// naming the first duplicated and first missing cell.
fn validate_plan(specs: &[ScenarioSpec], plan: &ShardPlan) -> Result<()> {
    if plan.slices.is_empty() {
        return Err(config_err("shard plan is empty"));
    }
    let mut owner: Vec<Option<String>> = vec![None; specs.len()];
    let mut claim = |cell: usize, who: String| -> Result<()> {
        if cell >= specs.len() {
            return Err(config_err(format!(
                "shard plan covers cell {cell} but the grid has {} cells",
                specs.len()
            )));
        }
        if let Some(prev) = &owner[cell] {
            return Err(config_err(format!(
                "shard plan overlaps: cell {cell} claimed by both {prev} and {who}"
            )));
        }
        owner[cell] = Some(who);
        Ok(())
    };
    for (i, slice) in plan.slices.iter().enumerate() {
        for cell in slice.cells() {
            claim(cell, format!("shard {i} ({slice})"))?;
        }
    }
    for group in &plan.split {
        for &cell in &group.members {
            claim(cell, format!("split group {}", group.leader))?;
        }
    }
    if let Some(missing) = owner.iter().position(Option::is_none) {
        return Err(config_err(format!(
            "shard plan has a gap: cell {missing} is assigned to no shard"
        )));
    }
    Ok(())
}

/// The conventional shard-journal path inside a shard directory.
pub fn shard_journal_path(dir: &Path, shard_index: usize) -> PathBuf {
    dir.join(format!("shard-{shard_index}.journal"))
}

/// The heartbeat sidecar conventionally paired with a shard journal: the
/// same path with a `heartbeat` extension (`shard-0.journal` →
/// `shard-0.heartbeat`). Both sides of the protocol derive it from the
/// journal path, so no extra flag travels between coordinator and worker.
pub fn shard_heartbeat_path(journal: &Path) -> PathBuf {
    journal.with_extension("heartbeat")
}

/// The coordinator's view of a worker's heartbeat: the sidecar's current
/// content, `None` when it does not exist (yet) **or is torn**. Heartbeat
/// frames are newline-terminated by the writer; a read that races the
/// write can observe a partial frame, and accepting it would feed the
/// watchdog a phantom "change" (resetting the stall clock for a wedged
/// worker) — so only complete, newline-terminated frames count.
fn read_heartbeat(journal: &Path) -> Option<String> {
    let content = std::fs::read_to_string(shard_heartbeat_path(journal)).ok()?;
    content.ends_with('\n').then_some(content)
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Supervision and fault-injection knobs for a shard worker, beyond the
/// retry policy: the crash point, the heartbeat sidecar, and the
/// deterministic hang used to exercise the coordinator's watchdog.
#[derive(Debug, Default)]
pub struct WorkerOptions {
    /// Deterministic abort point installed on the shard journal — how the
    /// coordinator's kill-and-restart path is exercised.
    pub crash: Option<CrashPoint>,
    /// Heartbeat sidecar to write (conventionally
    /// [`shard_heartbeat_path`] of the journal). Rewritten best-effort at
    /// startup and then on journaled cells, throttled to at most one write
    /// per [`HEARTBEAT_INTERVAL`] — a liveness signal for a seconds-scale
    /// watchdog needs no finer granularity, and per-append writes would tax
    /// sweeps whose cells land faster than the filesystem's small-write
    /// latency. `None` disables heartbeats (the worker is then only
    /// supervisable by exit status).
    pub heartbeat: Option<PathBuf>,
    /// Testing support: once the journal holds this many records, the
    /// worker wedges — it sleeps forever **while holding the journal lock**,
    /// so no further cell can land and no heartbeat advances. Exactly this
    /// many records reach the journal; only an external kill (the watchdog)
    /// ends the process.
    pub hang_after_records: Option<u64>,
}

/// The worker half of a sharded sweep, and the one resume loop: runs the
/// cells of `slice` with fail-soft semantics against a journal keyed to the
/// full grid plus `slice`, journaling outcomes under their *global* indices
/// and skipping every cell the journal already holds. The worker owns a
/// (possibly non-contiguous, possibly empty) cell `slice` plus a set of
/// distributed pass-1 `tasks`, and takes full [`WorkerOptions`]
/// (heartbeats, crash point, hang injection). Returns one outcome per cell
/// of `slice`, in slice order.
/// [`run_scenarios_resumable`](crate::journal::run_scenarios_resumable) is
/// this worker over the whole grid with no tasks.
///
/// Moment tasks run **first** — their partials are what other shards'
/// groups wait on — and journal one frame per accumulated segment, so a
/// restarted worker resumes segment-granular: recovered `(leader, trial,
/// segment)` triples are skipped and only the gaps are re-accumulated
/// (each contiguous gap in one seed-cursor skip-ahead call). Cells then
/// execute on the shared pool, each outcome journaled as it lands.
pub fn run_shard_worker_with(
    specs: &[ScenarioSpec],
    slice: &ShardSlice,
    tasks: &[MomentTask],
    journal_path: impl Into<PathBuf>,
    policy: RetryPolicy,
    options: WorkerOptions,
) -> Result<ResumableRun> {
    let journal_path = journal_path.into();
    let (mut journal, recovery) = ResultJournal::open_or_create(&journal_path, specs, slice)?;
    journal.set_crash_point(options.crash);

    // Best-effort heartbeat frame: monotonic record count + the global cell
    // index that advanced it. A write failure is deliberately swallowed —
    // the watchdog killing a silent-but-healthy worker is the conservative
    // outcome, and the restart resumes from the journal anyway. Writes are
    // throttled: the watchdog only watches for *content change* on a
    // seconds-scale timeout, so one write per HEARTBEAT_INTERVAL carries
    // the full liveness signal, while writing on every append would charge
    // fast cells the filesystem's small-write latency per cell.
    let last_beat: Mutex<Option<Instant>> = Mutex::new(None);
    let beat = |records: u64, cell: usize| {
        if let Some(path) = &options.heartbeat {
            let mut last = last_beat.lock().unwrap_or_else(|e| e.into_inner());
            let now = Instant::now();
            if let Some(prev) = *last {
                if now.duration_since(prev) < HEARTBEAT_INTERVAL {
                    return;
                }
            }
            *last = Some(now);
            let _ = std::fs::write(path, format!("{records} {cell}\n"));
        }
    };
    let first_cell = slice
        .first()
        .or_else(|| tasks.first().map(|t| t.leader))
        .unwrap_or(0);
    beat(journal.records_written(), first_cell);

    let hang_if_due = |records: u64| {
        if let Some(k) = options.hang_after_records {
            if records >= k {
                // Wedge with the journal lock held: every other executor
                // thread blocks on the next append, the heartbeat freezes,
                // and only the watchdog's kill ends the process.
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
    };

    let mut resumed = recovery.moments.len();
    let mut executed = 0usize;
    let done: HashSet<(usize, usize, usize)> = recovery
        .moments
        .iter()
        .map(|f| (f.leader, f.trial, f.segment.index))
        .collect();
    let journal = Mutex::new(journal);
    for task in tasks {
        let proto = specs.get(task.leader).ok_or_else(|| {
            config_err(format!(
                "moment task {task} names leader cell {} but the grid has {} cells",
                task.leader,
                specs.len()
            ))
        })?;
        for trial in 0..proto.trials {
            // Walk the task's segment window, batching each contiguous run
            // of missing segments into one skip-ahead accumulation call.
            let mut lo = task.seg_lo;
            while lo < task.seg_hi {
                if done.contains(&(task.leader, trial, lo)) {
                    lo += 1;
                    continue;
                }
                let mut hi = lo + 1;
                while hi < task.seg_hi && !done.contains(&(task.leader, trial, hi)) {
                    hi += 1;
                }
                let segments = accumulate_split_segments(proto, trial, lo, hi)?;
                for segment in &segments {
                    let mut journal = journal.lock().unwrap_or_else(|e| e.into_inner());
                    journal.append_moment(task.leader, trial, segment)?;
                    executed += 1;
                    beat(journal.records_written(), task.leader);
                    hang_if_due(journal.records_written());
                }
                lo = hi;
            }
        }
    }

    let cells: Vec<usize> = slice.cells().collect();
    let mut slots: Vec<Option<ScenarioOutcome>> = vec![None; cells.len()];
    for (global, outcome) in recovery.outcomes {
        // Duplicate indices cannot arise from this runner, but a journal is
        // just a file: last record wins, matching append order.
        if let Some(pos) = slice.position(global) {
            slots[pos] = Some(outcome);
        }
    }
    resumed += slots.iter().filter(|s| s.is_some()).count();

    let pending: Vec<usize> = cells
        .iter()
        .enumerate()
        .filter(|&(pos, _)| slots[pos].is_none())
        .map(|(_, &global)| global)
        .collect();
    let pending_specs: Vec<ScenarioSpec> = pending.iter().map(|&i| specs[i].clone()).collect();
    executed += pending_specs.len();

    let fresh = execute_specs_failsoft(&pending_specs, policy, |sub_index, outcome| {
        let mut journal = journal.lock().unwrap_or_else(|e| e.into_inner());
        journal.append(pending[sub_index], outcome)?;
        beat(journal.records_written(), pending[sub_index]);
        hang_if_due(journal.records_written());
        Ok(())
    })?;
    for (sub_index, outcome) in fresh.into_iter().enumerate() {
        let pos = slice
            .position(pending[sub_index])
            .expect("pending cells come from the slice");
        slots[pos] = Some(outcome);
    }

    let mut outcomes = Vec::with_capacity(cells.len());
    for (pos, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(outcome) => outcomes.push(outcome),
            // The fail-soft executor reports every input, so a hole here
            // means the recovery/execution bookkeeping above disagrees with
            // the slice — a protocol bug. Surface it as a located error
            // instead of panicking the worker process.
            None => {
                return Err(ExperimentError::Journal {
                    path: journal_path,
                    reason: format!(
                        "executed outcomes do not tile the shard: cell {} of slice {slice} \
                         finished with no outcome",
                        cells[pos]
                    ),
                });
            }
        }
    }
    Ok(ResumableRun {
        outcomes,
        resumed,
        executed,
    })
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// Fills cells no journal recovered with located `Failed` outcomes and
/// counts them — the fail-soft tail of [`reduce_shard_journals`].
fn fill_missing_cells(
    specs: &[ScenarioSpec],
    slots: Vec<Option<ScenarioOutcome>>,
) -> (Vec<ScenarioOutcome>, usize) {
    let mut missing = 0usize;
    let outcomes = slots
        .into_iter()
        .zip(specs)
        .map(|(slot, spec)| {
            slot.unwrap_or_else(|| {
                missing += 1;
                ScenarioOutcome::Failed(ScenarioFailure::deterministic(
                    spec,
                    "cell not recovered from any shard journal (worker exhausted \
                     restarts before journaling it)"
                        .to_string(),
                    0,
                ))
            })
        })
        .collect();
    (outcomes, missing)
}

/// Assembles one reduced [`StreamMoments`] per trial of a split group from
/// the journaled segment partials, or `None` when any trial is incomplete
/// (a shard died before journaling all its segments) — the caller then
/// falls back to self-computing pass 1, which is bit-identical.
fn assemble_group_moments(
    group: &SplitGroup,
    segments: &HashMap<(usize, usize), BTreeMap<usize, MomentSegment>>,
) -> Option<Vec<StreamMoments>> {
    let mut prepared = Vec::with_capacity(group.trials);
    for trial in 0..group.trials {
        let by_index = segments.get(&(group.leader, trial))?;
        if by_index.len() != group.segments {
            return None;
        }
        let ordered: Vec<MomentSegment> = by_index.values().cloned().collect();
        let m = ordered.first()?.accumulator.n_attributes();
        let (accumulator, n_chunks) = merge_moment_segments(m, &ordered).ok()?;
        prepared.push(StreamMoments::from_accumulator(&accumulator, n_chunks).ok()?);
    }
    Some(prepared)
}

/// The coordinator's **reduce** step — its one merge path, for every
/// [`ShardPlan`]: validates that the plan tiles the grid, recovers every
/// shard journal read-only (`journals[i]` belongs to shard `i`), merges
/// outcome frames by global index (last record wins), reduces the journaled
/// pass-1 segment partials of each [`SplitGroup`] into per-trial
/// [`StreamMoments`] (the same two-level fixed-segment fold a
/// single-process pass runs, so the reduced moments are **bit-identical**
/// to local accumulation), and finishes the split groups' cells
/// coordinator-side against those moments. The split groups run on the
/// shared pool through the fail-soft `parallel_map_catch` (inline on one
/// thread); each lands its outcomes by global index, so the schedule cannot
/// move a bit, and a group that panics reports its members `Failed`,
/// naming the group's leader. A split group whose partials
/// are incomplete — some shard exhausted its restarts mid-task — falls
/// back to a self-computing group run: slower, but bit-identical. Cells no
/// journal and no group run produced surface as `Failed`; the second
/// return value counts them.
pub fn reduce_shard_journals(
    specs: &[ScenarioSpec],
    plan: &ShardPlan,
    journals: &[PathBuf],
    policy: RetryPolicy,
) -> Result<(Vec<ScenarioOutcome>, usize)> {
    validate_plan(specs, plan)?;
    if journals.len() != plan.n_shards() {
        return Err(config_err(format!(
            "reduce needs one journal per shard: plan has {} shards, got {} journals",
            plan.n_shards(),
            journals.len()
        )));
    }
    let mut slots: Vec<Option<ScenarioOutcome>> = vec![None; specs.len()];
    let mut segments: HashMap<(usize, usize), BTreeMap<usize, MomentSegment>> = HashMap::new();
    for (slice, path) in plan.slices.iter().zip(journals) {
        let recovery = ResultJournal::recover(path, specs, slice)?;
        for (global, outcome) in recovery.outcomes {
            slots[global] = Some(outcome);
        }
        for frame in recovery.moments {
            segments
                .entry((frame.leader, frame.trial))
                .or_default()
                .insert(frame.segment.index, frame.segment);
        }
    }

    if !plan.split.is_empty() {
        // Split groups share the grid's dataset economy: one pool scoped to
        // the coordinator-side groups, so groups differing only in
        // noise/attack still build each trial dataset once here.
        let member_sets: Vec<Vec<usize>> = plan.split.iter().map(|g| g.members.clone()).collect();
        let pool = DatasetPool::new(data_group_consumers(specs, &member_sets));
        let group_outcomes = randrecon_parallel::parallel_map_catch(&plan.split, |group| {
            let members: Vec<ScenarioSpec> =
                group.members.iter().map(|&i| specs[i].clone()).collect();
            match assemble_group_moments(group, &segments) {
                Some(moments) => {
                    execute_group_failsoft_with_moments(&members, &moments, policy, Some(&pool))
                }
                None => execute_group_failsoft(&members, policy, Some(&pool)),
            }
        });
        for (group, outcomes) in plan.split.iter().zip(group_outcomes) {
            match outcomes {
                Ok(outcomes) => {
                    for (&global, outcome) in group.members.iter().zip(outcomes) {
                        slots[global] = Some(outcome);
                    }
                }
                Err(panic) => {
                    let error = format!(
                        "panic in the split group led by cell {}: {panic}",
                        group.leader
                    );
                    for &global in &group.members {
                        slots[global] = Some(ScenarioOutcome::Failed(
                            ScenarioFailure::deterministic(&specs[global], error.clone(), 1),
                        ));
                    }
                }
            }
        }
    }
    Ok(fill_missing_cells(specs, slots))
}

/// How the coordinator treats worker processes.
#[derive(Debug, Clone, Copy)]
pub struct ShardedRunConfig {
    /// Restarts granted to each shard beyond its first attempt. A restarted
    /// worker resumes from its journal, so each restart recomputes only the
    /// cells that never landed.
    pub max_restarts: u32,
    /// Heartbeat-stall watchdog: a worker whose heartbeat sidecar has not
    /// changed within this window is killed (burning an attempt) and
    /// restarted from its journal. `None` disables the watchdog — workers
    /// are then supervised by exit status alone, the pre-supervision
    /// behaviour.
    pub worker_timeout: Option<Duration>,
    /// Deterministic backoff paced before every restart; the delay ahead of
    /// attempt `a` of shard `i` is a pure function of
    /// `(grid fingerprint, i, a)`. Budget exhaustion stops restarting the
    /// shard. [`BackoffPolicy::none`] restores immediate respawn.
    pub backoff: BackoffPolicy,
    /// Retry policy used by the coordinator's reduce step when it finishes
    /// split workload groups from the merged pass-1 moments (workers carry
    /// their own policy on their command line).
    pub policy: RetryPolicy,
}

impl Default for ShardedRunConfig {
    fn default() -> Self {
        ShardedRunConfig {
            max_restarts: 2,
            worker_timeout: None,
            backoff: BackoffPolicy::default(),
            policy: RetryPolicy::default(),
        }
    }
}

/// One spawn request handed to the coordinator's command factory.
#[derive(Debug)]
pub struct ShardSpawn<'a> {
    /// Shard number (index into the plan).
    pub index: usize,
    /// The global cell slice this worker owns (may be empty for a
    /// task-only shard).
    pub slice: &'a ShardSlice,
    /// The distributed pass-1 moment tasks this worker must accumulate.
    pub tasks: &'a [MomentTask],
    /// The shard journal the worker must write.
    pub journal: &'a Path,
    /// 0 on the first spawn, incremented on each restart — lets test
    /// harnesses inject a kill on the first attempt only.
    pub attempt: u32,
}

/// Per-shard postmortem from [`run_sharded`].
#[derive(Debug)]
pub struct ShardStatus {
    /// The global cell slice the shard owned.
    pub slice: ShardSlice,
    /// Its journal path.
    pub journal: PathBuf,
    /// Worker processes spawned (1 = no restarts).
    pub attempts: u32,
    /// Whether some attempt exited successfully.
    pub completed: bool,
    /// Workers of this shard killed by the heartbeat watchdog.
    pub watchdog_kills: u32,
    /// Whether the restart backoff budget ran out before the shard
    /// completed (the shard stops restarting; unjournaled cells surface as
    /// `Failed` in the merge).
    pub backoff_exhausted: bool,
}

/// What a sharded sweep produced.
#[derive(Debug)]
pub struct ShardedRun {
    /// One outcome per grid cell, in grid order — merged from the shard
    /// journals.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Per-shard attempt counts and completion flags, in plan order.
    pub shards: Vec<ShardStatus>,
    /// Cells reported `Failed` because no journal held them.
    pub unrecovered: usize,
}

/// How often the coordinator polls `try_wait` and heartbeat files.
const WATCHDOG_POLL: Duration = Duration::from_millis(10);

/// Minimum spacing between a worker's heartbeat writes. The watchdog only
/// watches for content *change* against a [`ShardedRunConfig::worker_timeout`]
/// measured in seconds, so this granularity loses nothing — while writing on
/// every journal append would charge sweeps whose cells complete faster than
/// the filesystem's small-write latency (~hundreds of µs on overlay
/// filesystems) per cell. Worker timeouts must be comfortably larger than
/// this interval (they are validated positive and are seconds-scale in
/// practice).
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// A worker process under supervision: its shard, its child handle, and the
/// last heartbeat frame observed with when it changed.
struct RunningWorker {
    shard: usize,
    child: std::process::Child,
    last_beat: Option<String>,
    last_change: Instant,
}

/// The coordinator: spawns one worker process per shard (commands built by
/// `command_for`, typically re-execing the current binary with
/// `--shard-range`), restarts failed workers up to
/// [`ShardedRunConfig::max_restarts`] times — each restart resumes from the
/// shard journal — then merges every journal into a full-grid outcome
/// list. Fail-soft: a shard that exhausts its restarts surfaces its
/// unjournaled cells as `Failed` outcomes rather than killing the sweep.
///
/// Supervision (see the [module docs](self)): the coordinator polls
/// `try_wait` instead of blocking, kills workers whose heartbeat stalls
/// past [`ShardedRunConfig::worker_timeout`], and paces every restart with
/// the deterministic [`ShardedRunConfig::backoff`] schedule.
///
/// Workers within a round run concurrently; `stdout`/`stderr` are
/// inherited from the coordinator. Watchdog kills are reported on the
/// coordinator's stderr.
pub fn run_sharded<F>(
    specs: &[ScenarioSpec],
    plan: &ShardPlan,
    shard_dir: &Path,
    config: &ShardedRunConfig,
    mut command_for: F,
) -> Result<ShardedRun>
where
    F: FnMut(&ShardSpawn<'_>) -> Command,
{
    validate_plan(specs, plan)?;
    std::fs::create_dir_all(shard_dir).map_err(|e| ExperimentError::IoAt {
        path: shard_dir.to_path_buf(),
        source: e,
    })?;
    let fingerprint = grid_fingerprint(specs);
    let shard_tasks: Vec<Vec<MomentTask>> =
        (0..plan.n_shards()).map(|i| plan.tasks_for(i)).collect();
    let mut shards: Vec<ShardStatus> = plan
        .slices
        .iter()
        .enumerate()
        .map(|(i, slice)| ShardStatus {
            slice: slice.clone(),
            journal: shard_journal_path(shard_dir, i),
            attempts: 0,
            completed: false,
            watchdog_kills: 0,
            backoff_exhausted: false,
        })
        .collect();

    loop {
        let pending: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                !s.completed && !s.backoff_exhausted && s.attempts <= config.max_restarts
            })
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            break;
        }
        let mut children: Vec<RunningWorker> = Vec::with_capacity(pending.len());
        for &i in &pending {
            let attempt = shards[i].attempts;
            // Deterministic restart pacing: attempt 0 is free; every
            // restart sleeps its seed-derived slot, and budget exhaustion
            // permanently retires the shard instead of hot-looping it.
            match config.backoff.delay(fingerprint, i as u64, attempt) {
                Some(delay) => {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                None => {
                    shards[i].backoff_exhausted = true;
                    continue;
                }
            }
            let spawn = ShardSpawn {
                index: i,
                slice: &shards[i].slice,
                tasks: &shard_tasks[i],
                journal: &shards[i].journal,
                attempt,
            };
            let mut command = command_for(&spawn);
            shards[i].attempts += 1;
            // A spawn failure burns the attempt, like a worker that died
            // instantly — the restart loop (and ultimately the fail-soft
            // merge) absorbs it.
            if let Ok(child) = command.spawn() {
                children.push(RunningWorker {
                    shard: i,
                    child,
                    // Whatever frame a previous attempt left behind is the
                    // baseline; spawning counts as liveness.
                    last_beat: read_heartbeat(&shards[i].journal),
                    last_change: Instant::now(),
                });
            }
        }
        // Poll every running worker: reap exits via `try_wait` (never a
        // blocking `wait`) and kill any worker whose heartbeat stalls.
        while !children.is_empty() {
            let mut index = 0;
            while index < children.len() {
                let worker = &mut children[index];
                match worker.child.try_wait() {
                    Ok(Some(status)) => {
                        if status.success() {
                            shards[worker.shard].completed = true;
                        }
                        children.swap_remove(index);
                        continue;
                    }
                    Ok(None) => {
                        if let Some(timeout) = config.worker_timeout {
                            let beat = read_heartbeat(&shards[worker.shard].journal);
                            if beat.is_some() && beat != worker.last_beat {
                                worker.last_beat = beat;
                                worker.last_change = Instant::now();
                            } else if worker.last_change.elapsed() > timeout {
                                eprintln!(
                                    "watchdog: shard {} heartbeat stalled past {:.1}s; \
                                     killing worker (attempt {})",
                                    worker.shard,
                                    timeout.as_secs_f64(),
                                    shards[worker.shard].attempts - 1,
                                );
                                let _ = worker.child.kill();
                                let _ = worker.child.wait();
                                shards[worker.shard].watchdog_kills += 1;
                                children.swap_remove(index);
                                continue;
                            }
                        }
                    }
                    // The child is unreachable (already reaped elsewhere or
                    // an OS-level error): treat as a dead attempt.
                    Err(_) => {
                        children.swap_remove(index);
                        continue;
                    }
                }
                index += 1;
            }
            if !children.is_empty() {
                std::thread::sleep(WATCHDOG_POLL);
            }
        }
    }

    let journals: Vec<PathBuf> = shards.iter().map(|s| s.journal.clone()).collect();
    let (outcomes, unrecovered) = reduce_shard_journals(specs, plan, &journals, config.policy)?;
    Ok(ShardedRun {
        outcomes,
        shards,
        unrecovered,
    })
}

/// Runs a sharded sweep without spawning processes: each shard executes
/// [`run_shard_worker_with`] in this process (sequentially), then the
/// journals are reduced exactly as [`run_sharded`] would — including the
/// cross-shard moment merge for split groups. This is the bench/test
/// harness for measuring pure coordination overhead — plan, per-shard
/// journals, recovery, reduce — without process spawn cost; existing shard
/// journals in `shard_dir` are resumed, so benches must clear the
/// directory between iterations.
pub fn run_sharded_in_process(
    specs: &[ScenarioSpec],
    plan: &ShardPlan,
    shard_dir: &Path,
    policy: RetryPolicy,
) -> Result<Vec<ScenarioOutcome>> {
    validate_plan(specs, plan)?;
    std::fs::create_dir_all(shard_dir).map_err(|e| ExperimentError::IoAt {
        path: shard_dir.to_path_buf(),
        source: e,
    })?;
    let mut journals = Vec::with_capacity(plan.n_shards());
    for (i, slice) in plan.slices.iter().enumerate() {
        let path = shard_journal_path(shard_dir, i);
        run_shard_worker_with(
            specs,
            slice,
            &plan.tasks_for(i),
            &path,
            policy,
            WorkerOptions::default(),
        )?;
        journals.push(path);
    }
    reduce_shard_journals(specs, plan, &journals, policy).map(|(outcomes, _)| outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultMode;
    use crate::scenario::{AttackSpec, EngineSpec};

    /// `n` independent single-cell workloads (distinct seeds → no sharing).
    fn independent(n: usize) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| {
                let mut spec = ScenarioSpec::synthetic_quick(&format!("cell{i}"), 64, 4, 2);
                spec.seed = 0x5AD_0000 + i as u64;
                spec
            })
            .collect()
    }

    /// Two workload groups of three: cells 0–2 share one workload, 3–5
    /// another (the attack axis varies within each group).
    fn grouped() -> Vec<ScenarioSpec> {
        use crate::SchemeKind;
        let mut specs = Vec::new();
        for seed in [1u64, 2u64] {
            for scheme in [SchemeKind::Udr, SchemeKind::PcaDr, SchemeKind::BeDr] {
                let mut spec = ScenarioSpec::synthetic_quick("group", 64, 4, 2);
                spec.seed = seed;
                spec.attack = AttackSpec::Scheme(scheme);
                specs.push(spec);
            }
        }
        specs
    }

    #[test]
    fn shard_range_display_parse_roundtrip() {
        let range = ShardRange::new(3, 11).unwrap();
        assert_eq!(range.to_string(), "3..11");
        assert_eq!(ShardRange::parse("3..11"), Some(range));
        assert_eq!(ShardRange::parse(" 3 .. 11 "), Some(range));
        assert!(ShardRange::parse("11..3").is_none());
        assert!(ShardRange::parse("5..5").is_none());
        assert!(ShardRange::parse("nope").is_none());
        assert!(ShardRange::new(4, 4).is_err());
        assert_eq!(range.len(), 8);
        assert!(range.contains(3) && range.contains(10));
        assert!(!range.contains(11) && !range.contains(2));
    }

    /// Two streaming workload groups of two cells each (the attack varies
    /// within each group); 2000 records / 256-row chunks = 8 chunks = 2
    /// moment segments per trial.
    fn streaming_grouped() -> Vec<ScenarioSpec> {
        use crate::SchemeKind;
        let mut specs = Vec::new();
        for seed in [11u64, 22u64] {
            for scheme in [SchemeKind::Udr, SchemeKind::BeDr] {
                let mut spec = ScenarioSpec::synthetic_quick("stream-group", 2000, 6, 2);
                spec.engine = EngineSpec::Streaming { chunk_rows: 256 };
                spec.seed = seed;
                spec.attack = AttackSpec::Scheme(scheme);
                specs.push(spec);
            }
        }
        specs
    }

    #[test]
    fn shard_slice_and_moment_task_roundtrip() {
        let slice = ShardSlice::parse("0..3,6..9").unwrap();
        assert_eq!(slice.to_string(), "0..3,6..9");
        assert_eq!(slice.len(), 6);
        assert_eq!(slice.cells().collect::<Vec<_>>(), vec![0, 1, 2, 6, 7, 8]);
        assert_eq!(slice.position(7), Some(4));
        assert_eq!(slice.position(4), None);
        assert!(slice.contains(2) && !slice.contains(3));
        // Adjacent ranges coalesce into canonical form; overlaps reject.
        let joined = ShardSlice::new(vec![
            ShardRange::new(3, 5).unwrap(),
            ShardRange::new(0, 3).unwrap(),
        ])
        .unwrap();
        assert_eq!(joined.to_string(), "0..5");
        assert!(ShardSlice::new(vec![
            ShardRange::new(0, 4).unwrap(),
            ShardRange::new(3, 5).unwrap(),
        ])
        .is_err());
        let empty = ShardSlice::parse("").unwrap();
        assert!(empty.is_empty() && empty.first().is_none());
        assert!(ShardSlice::parse("1..2,nope").is_none());
        let task = MomentTask::parse("4:0..2").unwrap();
        assert_eq!((task.leader, task.seg_lo, task.seg_hi), (4, 0, 2));
        assert_eq!(task.to_string(), "4:0..2");
        assert!(MomentTask::parse("x:0..2").is_none());
        assert!(MomentTask::parse("4").is_none());
    }

    #[test]
    fn plan_tiles_grid_and_balances_independent_cells() {
        let specs = independent(10);
        let plan = plan_shards(&specs, 3, SplitPolicy::Never).unwrap();
        assert_eq!(plan.n_shards(), 3);
        assert!(plan.split.is_empty());
        let mut cells: Vec<usize> = plan.slices.iter().flat_map(ShardSlice::cells).collect();
        cells.sort_unstable();
        assert_eq!(cells, (0..10).collect::<Vec<_>>());
        // Equal-cost cells: LPT lands within one cell of perfectly even.
        let sizes: Vec<usize> = plan.slices.iter().map(ShardSlice::len).collect();
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)), "{sizes:?}");
        assert_eq!(
            plan_shards(&specs, 1, SplitPolicy::Never)
                .unwrap()
                .n_shards(),
            1
        );
        // More shards than groups: the surplus shards get empty slices.
        let wide = plan_shards(&specs, 100, SplitPolicy::Never).unwrap();
        assert_eq!(wide.n_shards(), 100);
        assert_eq!(wide.slices.iter().filter(|s| !s.is_empty()).count(), 10);
        assert!(plan_shards(&[], 2, SplitPolicy::Never).is_err());
        assert!(plan_shards(&specs, 0, SplitPolicy::Never).is_err());
    }

    #[test]
    fn plan_balances_uneven_group_costs() {
        // One heavy group (4096 records) + four light cells (64 records):
        // LPT puts the heavy group alone on a shard and spreads the rest.
        let mut specs = independent(4);
        let mut heavy = ScenarioSpec::synthetic_quick("heavy", 4096, 4, 2);
        heavy.seed = 0xFEED;
        specs.push(heavy);
        let plan = plan_shards(&specs, 2, SplitPolicy::Never).unwrap();
        let heavy_shard = plan
            .slices
            .iter()
            .position(|s| s.contains(4))
            .expect("heavy cell placed");
        assert_eq!(
            plan.slices[heavy_shard].len(),
            1,
            "heavy group should sit alone: {plan:?}"
        );
        assert_eq!(plan.slices[1 - heavy_shard].len(), 4);
    }

    #[test]
    fn plan_never_splits_a_workload_group() {
        let specs = grouped();
        let groups = workload_groups(&specs);
        assert_eq!(groups.len(), 2, "fixture should form two groups");
        // Any shard count: every group stays within one shard.
        for n in 1..=6 {
            let plan = plan_shards(&specs, n, SplitPolicy::Never).unwrap();
            assert!(plan.split.is_empty());
            for group in &groups {
                let holder: Vec<usize> = plan
                    .slices
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| group.iter().any(|&i| s.contains(i)))
                    .map(|(s, _)| s)
                    .collect();
                assert_eq!(holder.len(), 1, "group {group:?} split across {holder:?}");
            }
        }
        // In-memory groups are never splittable, whatever the policy.
        let plan = plan_shards(&specs, 3, SplitPolicy::Always).unwrap();
        assert!(plan.split.is_empty());
    }

    #[test]
    fn plan_splits_streaming_groups_into_dealt_segment_tasks() {
        let specs = streaming_grouped();
        let plan = plan_shards(&specs, 2, SplitPolicy::Always).unwrap();
        assert_eq!(plan.split.len(), 2, "{plan:?}");
        for group in &plan.split {
            assert_eq!(group.segments, 2);
            assert_eq!(group.trials, 1);
            // Tasks deal 0..segments contiguously with no gap or overlap.
            let mut covered = 0usize;
            for &(_, task) in &group.tasks {
                assert_eq!(task.leader, group.leader);
                assert_eq!(task.seg_lo, covered);
                assert!(task.seg_hi > task.seg_lo);
                covered = task.seg_hi;
            }
            assert_eq!(covered, group.segments);
            // Split members live in no shard slice — the coordinator
            // finishes them after the reduce.
            for &member in &group.members {
                assert!(plan.slices.iter().all(|s| !s.contains(member)));
            }
        }
        validate_plan(&specs, &plan).unwrap();
        // A single shard never splits (there is nothing to distribute).
        let solo = plan_shards(&specs, 1, SplitPolicy::Always).unwrap();
        assert!(solo.split.is_empty());
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("randrecon-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_process_sharded_run_matches_single_process() {
        use crate::report::outcomes_hash;
        let mut specs = independent(5);
        let mut failing = ScenarioSpec::synthetic_quick("shard-fault", 64, 4, 2);
        failing.attack = AttackSpec::InjectedFault {
            mode: FaultMode::Error,
        };
        specs.push(failing);
        let reference =
            crate::scenario::run_scenarios_failsoft(&specs, RetryPolicy::default()).unwrap();
        let dir = temp_dir("inproc");
        let plan = plan_shards(&specs, 3, SplitPolicy::Never).unwrap();
        let merged = run_sharded_in_process(&specs, &plan, &dir, RetryPolicy::default()).unwrap();
        assert_eq!(outcomes_hash(&merged), outcomes_hash(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_process_moment_merge_matches_single_process() {
        use crate::report::outcomes_hash;
        let specs = streaming_grouped();
        let reference =
            crate::scenario::run_scenarios_failsoft(&specs, RetryPolicy::default()).unwrap();
        let dir = temp_dir("moment-merge");
        let plan = plan_shards(&specs, 3, SplitPolicy::Always).unwrap();
        assert_eq!(plan.split.len(), 2, "both streaming groups split");
        let merged = run_sharded_in_process(&specs, &plan, &dir, RetryPolicy::default()).unwrap();
        assert_eq!(
            outcomes_hash(&merged),
            outcomes_hash(&reference),
            "moment-merged sharded run must be bit-identical to single-process"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reduce_reports_missing_cells_as_failed_and_checks_tiling() {
        let specs = independent(4);
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let plan_of = |slices: &[&str]| ShardPlan {
            slices: slices
                .iter()
                .map(|s| ShardSlice::parse(s).unwrap())
                .collect(),
            split: Vec::new(),
        };
        let journals_for = |plan: &ShardPlan| -> Vec<PathBuf> {
            (0..plan.n_shards())
                .map(|i| shard_journal_path(&dir, i))
                .collect()
        };
        let plan = plan_of(&["0..2", "2..4"]);
        let journals = journals_for(&plan);
        // Only shard 0 ran; shard 1's journal never appeared.
        run_shard_worker_with(
            &specs,
            &plan.slices[0],
            &[],
            &journals[0],
            RetryPolicy::default(),
            WorkerOptions::default(),
        )
        .unwrap();
        let (outcomes, missing) =
            reduce_shard_journals(&specs, &plan, &journals, RetryPolicy::default()).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(missing, 2);
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                ScenarioOutcome::Completed(_) if i < 2 => {}
                ScenarioOutcome::Failed(f) if i >= 2 => {
                    assert!(f.error.contains("not recovered"), "{}", f.error);
                    assert_eq!(f.attempts, 0);
                }
                other => panic!("cell {i}: unexpected {other:?}"),
            }
        }

        // Plans that do not tile the grid are located errors, not silent
        // last-wins merges.
        let reduce_err = |plan: &ShardPlan, journals: &[PathBuf]| {
            reduce_shard_journals(&specs, plan, journals, RetryPolicy::default())
                .unwrap_err()
                .to_string()
        };
        for (slices, expected) in [
            (
                &["0..2", "1..4"][..],
                "shard plan overlaps: cell 1 claimed by both shard 0 (0..2) and shard 1 (1..4)",
            ),
            (
                &["0..2", "3..4"][..],
                "shard plan has a gap: cell 2 is assigned to no shard",
            ),
            (
                &["0..2", "2..5"][..],
                "shard plan covers cell 4 but the grid has 4 cells",
            ),
            (&[][..], "shard plan is empty"),
        ] {
            let bad = plan_of(slices);
            let err = reduce_err(&bad, &journals_for(&bad));
            assert!(err.contains(expected), "{slices:?}: {err}");
        }
        let mut overlapping = plan.clone();
        overlapping.split.push(SplitGroup {
            leader: 1,
            members: vec![1],
            trials: 1,
            segments: 1,
            tasks: Vec::new(),
        });
        let err = reduce_err(&overlapping, &journals);
        assert!(
            err.contains("cell 1 claimed by both shard 0 (0..2) and split group 1"),
            "{err}"
        );
        let err = reduce_err(&plan, &journals[..1]);
        assert!(
            err.contains("reduce needs one journal per shard: plan has 2 shards, got 1 journals"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reduce_falls_back_when_a_split_group_is_incomplete() {
        use crate::report::outcomes_hash;
        let specs = streaming_grouped();
        let reference =
            crate::scenario::run_scenarios_failsoft(&specs, RetryPolicy::default()).unwrap();
        let dir = temp_dir("reduce-fallback");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = plan_shards(&specs, 2, SplitPolicy::Always).unwrap();
        // Run only shard 0's worker; shard 1 (and its moment tasks) never
        // ran, so every split group's partials are incomplete and the
        // coordinator self-computes pass 1 — bit-identical, fail-soft.
        let first = shard_journal_path(&dir, 0);
        run_shard_worker_with(
            &specs,
            &plan.slices[0],
            &plan.tasks_for(0),
            &first,
            RetryPolicy::default(),
            WorkerOptions::default(),
        )
        .unwrap();
        let journals = vec![first, shard_journal_path(&dir, 1)];
        let (outcomes, missing) =
            reduce_shard_journals(&specs, &plan, &journals, RetryPolicy::default()).unwrap();
        assert_eq!(missing, 0, "split groups are finished coordinator-side");
        assert_eq!(outcomes_hash(&outcomes), outcomes_hash(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
