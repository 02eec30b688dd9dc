//! Deterministic fault injection — the testing-support harness behind the
//! crash-resume and fail-soft test suites.
//!
//! Nothing in this module fires on its own: every fault is installed
//! explicitly, fires at a **deterministic, seed-derivable point** (record
//! `k`, chunk `k`, byte offset `b`), and is therefore reproducible across
//! runs and thread counts. The pieces:
//!
//! * [`FaultMode`] — the payload of
//!   [`AttackSpec::InjectedFault`](crate::scenario::AttackSpec::InjectedFault):
//!   a scenario that errors, panics, or fails transiently (first `k`
//!   invocations) instead of attacking. This is how the fail-soft runner's
//!   containment and retry paths are exercised end to end.
//! * [`FaultyChunkSource`] — wraps any [`RecordChunkSource`] and injects an
//!   error, a panic, or a malformed (wrong-width) chunk at sweep `s`,
//!   chunk `k` — the streaming driver's chunk-located error wrapping
//!   ([`ReconError::AtChunk`](randrecon_core::ReconError::AtChunk)) is
//!   tested through this.
//! * [`FaultySink`] — wraps any [`RecordSink`] and fails (or panics) when
//!   chunk `k` of the reconstruction arrives.
//! * [`FailingWrite`] — an [`std::io::Write`] with a byte budget: writes
//!   succeed until the budget is spent, then fail — torn-write behaviour
//!   without a real full disk.
//! * [`crash_offsets`] — seed-derived byte offsets for the randomized
//!   crash-matrix tests (kill a journal-writing child at offset `b`,
//!   resume, assert recovery).
//!
//! The process-global transient counter ([`FaultMode::Transient`]) is keyed
//! by scenario label; call [`reset_transient_counters`] between tests that
//! reuse labels.

use crate::error::{ExperimentError, Result};
use randrecon_core::streaming::RecordSink;
use randrecon_core::ReconError;
use randrecon_data::chunks::RecordChunkSource;
use randrecon_data::DataError;
use randrecon_linalg::Matrix;
use randrecon_stats::rng::child_seed;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Scenario-level faults
// ---------------------------------------------------------------------------

/// How an [`AttackSpec::InjectedFault`](crate::scenario::AttackSpec::InjectedFault)
/// scenario fails. Testing support: real scenarios never produce these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultMode {
    /// Every invocation returns [`ExperimentError::InjectedFault`]
    /// (deterministic — the retry policy will not retry it by default).
    Error,
    /// Every invocation panics (exercises `catch_unwind` containment).
    Panic,
    /// The first `fail_first` invocations fail with an I/O error (which
    /// [`ExperimentError::is_transient`] classifies as retryable); later
    /// invocations succeed with zeroed metrics. Invocations are counted
    /// per scenario label in a process-global registry — see
    /// [`reset_transient_counters`].
    Transient {
        /// Number of leading invocations that fail.
        fail_first: u32,
    },
}

fn transient_counters() -> &'static Mutex<HashMap<String, u32>> {
    static COUNTS: OnceLock<Mutex<HashMap<String, u32>>> = OnceLock::new();
    COUNTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Clears the process-global invocation counters behind
/// [`FaultMode::Transient`]. Tests that reuse scenario labels call this
/// first so earlier tests cannot spend their fault budget.
pub fn reset_transient_counters() {
    transient_counters()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

impl FaultMode {
    /// Fires the fault for the scenario `label`: returns an error, panics,
    /// or — for [`FaultMode::Transient`] past its budget — returns `Ok(())`
    /// (the scenario then reports zeroed metrics).
    pub fn trigger(&self, label: &str) -> Result<()> {
        match self {
            FaultMode::Error => Err(ExperimentError::InjectedFault {
                label: label.to_string(),
            }),
            FaultMode::Panic => panic!("injected panic in scenario '{label}'"),
            FaultMode::Transient { fail_first } => {
                let mut counts = transient_counters()
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                let count = counts.entry(label.to_string()).or_insert(0);
                *count += 1;
                if *count <= *fail_first {
                    Err(ExperimentError::Io(std::io::Error::other(format!(
                        "injected transient fault in scenario '{label}' \
                         (invocation {count} of {fail_first} that fail)"
                    ))))
                } else {
                    Ok(())
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk-source faults
// ---------------------------------------------------------------------------

/// What a [`FaultyChunkSource`] does when its trigger chunk is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFault {
    /// `next_chunk` returns a [`DataError::Stream`] error.
    Error,
    /// `next_chunk` panics.
    Panic,
    /// The chunk is emitted with its last column dropped (wrong width), so
    /// the failure surfaces downstream — in the reconstructor or the sink —
    /// rather than at the source.
    Malformed,
    /// `next_chunk` never returns: the source sleeps forever at the trigger
    /// chunk, modelling a wedged upstream (stuck NFS read, deadlocked
    /// producer). Only cooperative supervision — a worker watchdog killing
    /// the process — can get past it; use [`ChunkFault::SlowChunk`] to
    /// exercise the in-process cell-deadline path instead.
    Hang,
    /// Every chunk from the trigger onward (within the trigger sweep) is
    /// delayed by `delay_ms` before being emitted — slow enough to blow a
    /// cell deadline, but still yielding at chunk boundaries so the
    /// cooperative [`CancelToken`](randrecon_core::streaming::CancelToken)
    /// check fires deterministically.
    SlowChunk {
        /// Delay injected before each affected chunk, in milliseconds.
        delay_ms: u64,
    },
}

/// A [`RecordChunkSource`] wrapper that injects one deterministic fault at
/// (`sweep`, `chunk`).
///
/// Sweeps are counted by [`reset`](RecordChunkSource::reset) calls: the
/// two-pass streaming driver resets before each pass, so `on_sweep = 1`
/// fires during pass 1 (moment accumulation) and `on_sweep = 2` during
/// pass 2 (reconstruction) — the pass whose chunk-located
/// [`AtChunk`](randrecon_core::ReconError::AtChunk) wrapping the crash
/// tests pin down.
pub struct FaultyChunkSource<S> {
    inner: S,
    fault: ChunkFault,
    on_sweep: usize,
    at_chunk: usize,
    sweep: usize,
    emitted: usize,
}

impl<S: RecordChunkSource> FaultyChunkSource<S> {
    /// Wraps `inner`; the fault fires when chunk `at_chunk` (0-based) of
    /// sweep `on_sweep` (1-based, counted by `reset` calls) is requested.
    pub fn new(inner: S, fault: ChunkFault, on_sweep: usize, at_chunk: usize) -> Self {
        FaultyChunkSource {
            inner,
            fault,
            on_sweep,
            at_chunk,
            sweep: 0,
            emitted: 0,
        }
    }
}

impl<S: RecordChunkSource> RecordChunkSource for FaultyChunkSource<S> {
    fn n_attributes(&self) -> usize {
        self.inner.n_attributes()
    }

    fn n_records_hint(&self) -> Option<usize> {
        self.inner.n_records_hint()
    }

    fn reset(&mut self) -> randrecon_data::Result<()> {
        self.sweep += 1;
        self.emitted = 0;
        self.inner.reset()
    }

    fn next_chunk(&mut self) -> randrecon_data::Result<Option<Matrix>> {
        let at_trigger = self.sweep == self.on_sweep && self.emitted == self.at_chunk;
        let past_trigger = self.sweep == self.on_sweep && self.emitted >= self.at_chunk;
        self.emitted += 1;
        match self.fault {
            ChunkFault::Error if at_trigger => {
                return Err(DataError::Stream {
                    reason: format!(
                        "injected source fault at sweep {} chunk {}",
                        self.sweep, self.at_chunk
                    ),
                })
            }
            ChunkFault::Panic if at_trigger => panic!(
                "injected source panic at sweep {} chunk {}",
                self.sweep, self.at_chunk
            ),
            ChunkFault::Malformed if at_trigger => {
                let chunk = self.inner.next_chunk()?;
                return Ok(match chunk {
                    Some(c) if c.cols() > 1 => Some(c.submatrix(0, c.rows(), 0, c.cols() - 1)?),
                    other => other,
                });
            }
            ChunkFault::Hang if at_trigger => loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            },
            ChunkFault::SlowChunk { delay_ms } if past_trigger => {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            }
            _ => {}
        }
        self.inner.next_chunk()
    }
}

// ---------------------------------------------------------------------------
// Sink faults
// ---------------------------------------------------------------------------

/// A [`RecordSink`] wrapper that fails (or panics) when reconstruction
/// chunk `at_chunk` (0-based) arrives. Chunks before the trigger are
/// forwarded to the inner sink unchanged.
pub struct FaultySink<S> {
    inner: S,
    at_chunk: usize,
    panic_instead: bool,
    seen: usize,
}

impl<S: RecordSink> FaultySink<S> {
    /// Fails `consume_chunk` with a [`ReconError::InvalidInput`] at chunk
    /// `at_chunk`.
    pub fn erroring(inner: S, at_chunk: usize) -> Self {
        FaultySink {
            inner,
            at_chunk,
            panic_instead: false,
            seen: 0,
        }
    }

    /// Panics in `consume_chunk` at chunk `at_chunk`.
    pub fn panicking(inner: S, at_chunk: usize) -> Self {
        FaultySink {
            inner,
            at_chunk,
            panic_instead: true,
            seen: 0,
        }
    }

    /// The wrapped sink (to read accumulated state after a partial run).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: RecordSink> RecordSink for FaultySink<S> {
    fn consume_chunk(&mut self, chunk: &Matrix) -> randrecon_core::Result<()> {
        let fire = self.seen == self.at_chunk;
        self.seen += 1;
        if fire {
            if self.panic_instead {
                panic!("injected sink panic at chunk {}", self.at_chunk);
            }
            return Err(ReconError::InvalidInput {
                reason: format!("injected sink fault at chunk {}", self.at_chunk),
            });
        }
        self.inner.consume_chunk(chunk)
    }
}

// ---------------------------------------------------------------------------
// Write faults
// ---------------------------------------------------------------------------

/// An [`std::io::Write`] with a byte budget: bytes pass through until the
/// budget is spent, after which every write fails. A write straddling the
/// budget is **torn** — its leading bytes go through — which is exactly the
/// partial-frame state the journal's recovery pass must detect.
pub struct FailingWrite<W> {
    inner: W,
    remaining: usize,
}

impl<W: Write> FailingWrite<W> {
    /// Allows exactly `budget` bytes through before failing.
    pub fn new(inner: W, budget: usize) -> Self {
        FailingWrite {
            inner,
            remaining: budget,
        }
    }

    /// The wrapped writer (to inspect what made it through).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return Err(std::io::Error::other(
                "injected write failure (budget spent)",
            ));
        }
        let n = buf.len().min(self.remaining);
        let written = self.inner.write(&buf[..n])?;
        self.remaining -= written;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Crash-offset derivation
// ---------------------------------------------------------------------------

/// `count` deterministic byte offsets in `[0, max)`, derived from `seed`
/// with the same SplitMix64 stream-splitting the experiment seeds use — the
/// randomized crash-offset matrix kills a journal at these offsets and
/// asserts recovery at each.
pub fn crash_offsets(seed: u64, count: usize, max: u64) -> Vec<u64> {
    assert!(max > 0, "crash_offsets needs a positive range");
    (0..count)
        .map(|i| child_seed(seed, i as u64) % max)
        .collect()
}

// ---------------------------------------------------------------------------
// Crash-point flags (worker kill injection)
// ---------------------------------------------------------------------------

/// Parses the textual [`CrashPoint`](crate::journal::CrashPoint) form used
/// on command lines and in child-process environment variables:
/// `records:<k>` (abort once `k` records have been journaled) or
/// `byte:<b>` (abort once the journal reaches byte offset `b`).
pub fn parse_crash_point(s: &str) -> Option<crate::journal::CrashPoint> {
    use crate::journal::CrashPoint;
    let (kind, value) = s.split_once(':')?;
    match kind.trim() {
        "records" => Some(CrashPoint::AfterRecords(value.trim().parse().ok()?)),
        "byte" => Some(CrashPoint::AtByte(value.trim().parse().ok()?)),
        _ => None,
    }
}

/// Renders a [`CrashPoint`](crate::journal::CrashPoint) in the form
/// [`parse_crash_point`] accepts — how a shard coordinator forwards a kill
/// request to a worker's `--crash` flag.
pub fn format_crash_point(point: crate::journal::CrashPoint) -> String {
    use crate::journal::CrashPoint;
    match point {
        CrashPoint::AfterRecords(k) => format!("records:{k}"),
        CrashPoint::AtByte(b) => format!("byte:{b}"),
    }
}

/// A kill request for one shard worker of a sharded sweep: shard `shard`
/// aborts at `crash` — **on its first attempt only** (a restarted worker
/// resumes past its journaled records, so re-arming the same
/// `AfterRecords` trigger would abort it immediately forever). Parsed from
/// the `scenarios` binary's `--kill-shard <shard>:records:<k>` /
/// `--kill-shard <shard>:byte:<b>` testing flag, which CI's sharded smoke
/// uses to exercise kill-and-restart end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill {
    /// Index of the shard whose first worker attempt is killed.
    pub shard: usize,
    /// Where in the shard journal the abort fires.
    pub crash: crate::journal::CrashPoint,
}

impl WorkerKill {
    /// Parses `<shard>:records:<k>` or `<shard>:byte:<b>`.
    pub fn parse(s: &str) -> Option<WorkerKill> {
        let (shard, rest) = s.split_once(':')?;
        Some(WorkerKill {
            shard: shard.trim().parse().ok()?,
            crash: parse_crash_point(rest)?,
        })
    }
}

/// A hang request for one shard worker: shard `shard` wedges (sleeps
/// forever **while holding its journal lock**, so exactly `after_records`
/// records land) once it has journaled `after_records` records — on its
/// first attempt only, like [`WorkerKill`]. Unlike a crash, a hung worker
/// never exits: only the coordinator's heartbeat watchdog
/// ([`crate::shard::ShardedRunConfig::worker_timeout`]) can detect, kill,
/// and restart it. Parsed from the `scenarios` binary's
/// `--hang-shard <shard>:<records>` testing flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHang {
    /// Index of the shard whose first worker attempt hangs.
    pub shard: usize,
    /// Records journaled before the worker wedges.
    pub after_records: u64,
}

impl WorkerHang {
    /// Parses `<shard>:<records>`.
    pub fn parse(s: &str) -> Option<WorkerHang> {
        let (shard, records) = s.split_once(':')?;
        Some(WorkerHang {
            shard: shard.trim().parse().ok()?,
            after_records: records.trim().parse().ok()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Numerically degenerate workloads
// ---------------------------------------------------------------------------

/// A scenario whose BE-DR posterior system `Σ̂_x + Σ_r` is rank-deficient
/// as computed, whatever way its rounding falls. Four records in sixteen
/// attributes give a sample covariance of rank at most 3, so `Σ̂_x = Σ̂_y −
/// σ²I` has at least 13 exact `−σ²` eigenvalues. The `1e-12` clip floor and
/// the `σ² = 1e-12` noise variance that should lift them lie far below the
/// rounding unit of `T`'s entries (`ε·λ_max ≈ 2e-7` next to the `1e9`-scale
/// principal eigenvalues), so they vanish from the computed `T`, which is
/// its rank-3 part plus rounding error. The straight Cholesky of `T` would
/// need that error, a 13-dimensional Schur complement, to come out
/// positive definite; it fails instead, in the default and the fused
/// (`fma`) profiles alike (every one of 300 dataset seeds in each), and the
/// cell completes only through the escalated eigenvalue-clip SPD repair.
/// (The true spectrum itself stays comfortably factorable: `1e-3` tails
/// against `ε·λ_max ≈ 2e-7`, so *generation* never trips.) The
/// graceful-degradation suites pin that such a cell finishes as
/// [`ScenarioOutcome::Degraded`](crate::scenario::ScenarioOutcome::Degraded)
/// with metrics within a few percent of a well-floored run. Deterministic
/// for a given `seed`.
pub fn near_singular_be_dr_spec(label: &str, seed: u64) -> crate::scenario::ScenarioSpec {
    use crate::scenario::{
        AttackSpec, DataSpec, EngineSpec, MetricKind, NoiseSpec, ScenarioSpec, SpectrumSpec,
    };
    let mut eigenvalues = vec![1e9, 1e9];
    eigenvalues.extend(vec![1e-3; 14]);
    ScenarioSpec {
        label: label.to_string(),
        x: 0.0,
        data: DataSpec::SyntheticMvn {
            spectrum: SpectrumSpec::Explicit(eigenvalues),
            records: 4,
        },
        noise: NoiseSpec::Gaussian { sigma: 1e-6 },
        attack: AttackSpec::BeDr {
            eigenvalue_floor: Some(1e-12),
        },
        engine: EngineSpec::InMemory,
        metrics: vec![MetricKind::Rmse, MetricKind::Mse],
        trials: 1,
        seed,
        seed_offset: 0,
        dataset_seed: None,
        noise_seed: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_data::chunks::TableChunkSource;
    use randrecon_data::DataTable;

    fn small_table() -> DataTable {
        let values = Matrix::from_fn(10, 3, |i, j| (i * 3 + j) as f64);
        DataTable::from_matrix(values).expect("table")
    }

    #[test]
    fn fault_mode_error_and_transient() {
        reset_transient_counters();
        assert!(FaultMode::Error.trigger("cell").is_err());
        let t = FaultMode::Transient { fail_first: 2 };
        let first = t.trigger("cell-t").unwrap_err();
        assert!(first.is_transient());
        assert!(t.trigger("cell-t").is_err());
        assert!(t.trigger("cell-t").is_ok());
        // Fresh label has its own budget.
        assert!(t.trigger("cell-u").is_err());
    }

    #[test]
    fn faulty_source_fires_on_requested_sweep_only() {
        let table = small_table();
        let inner = TableChunkSource::new(&table, 4).expect("source");
        let mut src = FaultyChunkSource::new(inner, ChunkFault::Error, 2, 1);
        // Sweep 1: clean.
        src.reset().unwrap();
        let mut chunks = 0;
        while src.next_chunk().unwrap().is_some() {
            chunks += 1;
        }
        assert_eq!(chunks, 3);
        // Sweep 2: chunk 1 errors.
        src.reset().unwrap();
        assert!(src.next_chunk().is_ok());
        let err = src.next_chunk().unwrap_err();
        assert!(err.to_string().contains("injected source fault"));
    }

    #[test]
    fn malformed_chunk_loses_a_column() {
        let table = small_table();
        let inner = TableChunkSource::new(&table, 4).expect("source");
        let mut src = FaultyChunkSource::new(inner, ChunkFault::Malformed, 1, 0);
        src.reset().unwrap();
        let bad = src.next_chunk().unwrap().expect("chunk");
        assert_eq!(bad.cols(), 2);
        let good = src.next_chunk().unwrap().expect("chunk");
        assert_eq!(good.cols(), 3);
    }

    #[test]
    fn faulty_sink_errors_at_chunk() {
        use randrecon_core::streaming::DiscardSink;
        let mut sink = FaultySink::erroring(DiscardSink::default(), 1);
        let chunk = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        sink.consume_chunk(&chunk).unwrap();
        let err = sink.consume_chunk(&chunk).unwrap_err();
        assert!(err.to_string().contains("injected sink fault at chunk 1"));
        assert_eq!(sink.inner().rows(), 2);
    }

    #[test]
    fn failing_write_tears_at_budget() {
        let mut w = FailingWrite::new(Vec::new(), 5);
        assert_eq!(w.write(b"abc").unwrap(), 3);
        // Straddles the budget: only 2 of 4 bytes go through.
        assert_eq!(w.write(b"defg").unwrap(), 2);
        assert!(w.write(b"h").is_err());
        assert_eq!(w.into_inner(), b"abcde");
    }

    #[test]
    fn crash_point_flags_parse_and_roundtrip() {
        use crate::journal::CrashPoint;
        assert_eq!(
            parse_crash_point("records:3"),
            Some(CrashPoint::AfterRecords(3))
        );
        assert_eq!(parse_crash_point("byte:177"), Some(CrashPoint::AtByte(177)));
        assert_eq!(parse_crash_point("records:"), None);
        assert_eq!(parse_crash_point("chunks:3"), None);
        assert_eq!(parse_crash_point("records"), None);
        for point in [CrashPoint::AfterRecords(9), CrashPoint::AtByte(512)] {
            assert_eq!(parse_crash_point(&format_crash_point(point)), Some(point));
        }
        assert_eq!(
            WorkerKill::parse("1:records:2"),
            Some(WorkerKill {
                shard: 1,
                crash: CrashPoint::AfterRecords(2),
            })
        );
        assert_eq!(WorkerKill::parse("one:records:2"), None);
        assert_eq!(WorkerKill::parse("1"), None);
    }

    #[test]
    fn crash_offsets_deterministic_and_in_range() {
        let a = crash_offsets(42, 16, 1000);
        let b = crash_offsets(42, 16, 1000);
        assert_eq!(a, b);
        assert!(a.iter().all(|&o| o < 1000));
        assert_ne!(a, crash_offsets(43, 16, 1000));
    }
}
