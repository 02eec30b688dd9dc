//! The append-only result journal behind crash-resumable sweeps.
//!
//! A long sweep writes each scenario's outcome to a [`ResultJournal`] the
//! moment it finishes, so a crash — a kill, a panic that escapes, a power
//! cut — loses at most the scenarios in flight. Re-running the same sweep
//! with [`run_scenarios_resumable`] recovers the journal, skips every cell
//! it already holds, executes only the remainder, and returns outcomes
//! **bit-identical** to a fresh run (all scenario randomness is
//! spec-derived; the journal stores full results, not summaries).
//!
//! ## On-disk format
//!
//! There is one format, version 6. Every journal owns a [`ShardSlice`] of
//! its grid: a single-process sweep's journal owns the whole grid `0..n`,
//! and a shard worker's journal owns the worker's (possibly non-contiguous,
//! possibly empty) slice. Everything is hand-rolled little-endian binary
//! (no serialization dependency) and self-checking:
//!
//! ```text
//! header (36 + 16 × n_ranges bytes):
//!   magic        8  b"RRJOURN1"
//!   version      4  u32 = 6
//!   spec_count   4  u32   — cells in the grid this journal belongs to
//!   fingerprint  8  u64   — FNV-1a over the full spec list
//!   n_ranges     4  u32   — ranges in the owned slice
//!   ranges  16 × n        — half-open (start, end) u64 pairs, canonical order
//!   header_crc   8  u64   — FNV-1a over everything above
//! frame (repeated):
//!   len          4  u32   — payload length in bytes
//!   crc          8  u64   — FNV-1a over the payload
//!   payload    len        — global cell index (u64), tag (u8), body
//! ```
//!
//! Frame tags: `0` = `Completed`; `1` = `Failed`, whose flags carry both
//! the transient and the timed-out classification; `2` = `Degraded`, a
//! completed result plus the non-empty list of degradation warnings (e.g.
//! the eigenvalue-clipped SPD repair fallback); `3` = a **moment frame**,
//! one self-anchored pass-1 [`MomentSegment`] of a split workload group,
//! keyed by the group's leader cell index and trial, with the accumulator
//! stored as raw IEEE-754 bits (`count`, optional anchor `shift`, `sum`,
//! `cross`) so the coordinator's reduce
//! ([`crate::shard::reduce_shard_journals`]) folds **bit-identical** state
//! to a single-process pass 1. Outcome indices are global grid indices
//! inside the owned slice; moment leaders may be any cell of the grid (a
//! worker journals partials of groups whose cells it does not own — that
//! is the point of the split).
//!
//! Strings are `u32` length + UTF-8 bytes; `f64`s are stored as raw IEEE
//! bits (`to_bits`/`from_bits`), so values — including the wall-clock
//! `seconds` field — round-trip exactly. Journals of versions 1–4 (older
//! record payloads, the retired plain and single-range shard headers) are
//! refused as unsupported, never read or rewritten.
//!
//! ## Recovery semantics
//!
//! The header is a pure function of the grid and the slice, so
//! [`ResultJournal::open_or_create`] compares the file against the exact
//! header it would write:
//!
//! * empty or missing file, or a **strict prefix** of that header (the
//!   creating process died mid-create) → fresh journal;
//! * any other difference → hard [`ExperimentError::Journal`] error naming
//!   the first field that differs: magic (the file is not a journal and
//!   belongs to someone else), version, spec count or grid fingerprint (a
//!   stale journal silently mixed into a changed grid would corrupt
//!   results), slice, then the header checksum. The file is left exactly
//!   as it was;
//! * the exact header followed by frames → every intact frame is
//!   recovered; the first torn, corrupt or out-of-place frame (a crash
//!   mid-append tears exactly the trailing frame) ends the scan and the
//!   file is truncated back to the last intact frame.
//!
//! [`ResultJournal::recover`] applies the same rules read-only: the
//! coordinator's view of a worker's journal.
//!
//! ## Crash points
//!
//! [`CrashPoint`] aborts the process at a deterministic spot inside
//! [`append`](ResultJournal::append) — after `k` records, or mid-frame at
//! absolute byte offset `b` — which is how the kill-and-resume tests
//! produce real torn files instead of simulated ones.

use crate::error::{ExperimentError, Result};
use crate::scenario::{
    MetricKind, RetryPolicy, ScenarioFailure, ScenarioOutcome, ScenarioResult, ScenarioSpec,
};
use crate::shard::{run_shard_worker_with, ShardSlice, WorkerOptions};
use crate::SchemeKind;
use randrecon_core::{CovarianceAccumulator, MomentSegment};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"RRJOURN1";
/// The one supported format. Versions 1 and 2 predate the supervised
/// record payloads; 3 and 4 were the retired plain and single-range shard
/// headers; 5 is this layout over the Box–Muller data stream. The grid
/// fingerprint hashes only the specs, so the version is what keeps a
/// journal of outcomes and moment frames drawn from an older normal sampler
/// from resuming into a mixed-stream report.
const VERSION: u32 = 6;
/// Frame overhead preceding each record payload: `len` (4) + `crc` (8).
const FRAME_OVERHEAD: usize = 12;

// ---------------------------------------------------------------------------
// FNV-1a
// ---------------------------------------------------------------------------

fn fnv64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The grid fingerprint stored in the journal header: FNV-1a over the debug
/// rendering of every spec. Any change to the grid — an added cell, a
/// different seed, a renamed label — changes the fingerprint, and
/// [`ResultJournal::open_or_create`] rejects the stale journal instead of
/// resuming into the wrong grid.
pub fn grid_fingerprint(specs: &[ScenarioSpec]) -> u64 {
    let mut hash = fnv64(FNV_OFFSET, &(specs.len() as u64).to_le_bytes());
    for spec in specs {
        hash = fnv64(hash, format!("{spec:?}").as_bytes());
        hash = fnv64(hash, &[0xFF]);
    }
    hash
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn scheme_tag(scheme: Option<SchemeKind>) -> u8 {
    match scheme {
        None => 0,
        Some(SchemeKind::Ndr) => 1,
        Some(SchemeKind::Udr) => 2,
        Some(SchemeKind::SpectralFiltering) => 3,
        Some(SchemeKind::PcaDr) => 4,
        Some(SchemeKind::BeDr) => 5,
    }
}

fn metric_tag(kind: MetricKind) -> u8 {
    match kind {
        MetricKind::Rmse => 0,
        MetricKind::Mse => 1,
        MetricKind::NormalizedRmse => 2,
    }
}

/// The result payload shared by `Completed` (tag 0) and `Degraded` (tag 2)
/// records; `Degraded` appends its warning list after these fields.
fn encode_result(out: &mut Vec<u8>, r: &ScenarioResult) {
    put_str(out, &r.label);
    put_f64(out, r.x);
    out.push(scheme_tag(r.scheme));
    put_str(out, &r.attack);
    put_str(out, r.engine);
    put_u64(out, r.n_records as u64);
    put_u64(out, r.trials as u64);
    put_u32(out, r.metrics.len() as u32);
    for &(kind, value) in &r.metrics {
        out.push(metric_tag(kind));
        put_f64(out, value);
    }
    match r.components_kept {
        Some(k) => {
            out.push(1);
            put_u64(out, k as u64);
        }
        None => out.push(0),
    }
    put_f64(out, r.seconds);
}

fn encode_record(index: usize, outcome: &ScenarioOutcome) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    put_u64(&mut out, index as u64);
    match outcome {
        ScenarioOutcome::Completed(r) => {
            out.push(0);
            encode_result(&mut out, r);
        }
        ScenarioOutcome::Degraded(r) => {
            out.push(2);
            encode_result(&mut out, r);
            put_u32(&mut out, r.warnings.len() as u32);
            for w in &r.warnings {
                put_str(&mut out, w);
            }
        }
        ScenarioOutcome::Failed(f) => {
            out.push(1);
            put_str(&mut out, &f.label);
            put_str(&mut out, &f.attack);
            put_str(&mut out, f.engine);
            put_str(&mut out, &f.error);
            out.push(u8::from(f.transient));
            out.push(u8::from(f.timed_out));
            put_u32(&mut out, f.attempts);
        }
    }
    out
}

/// Bounds-checked little-endian reader over a payload; any violation makes
/// the whole record count as corrupt.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// `n` raw-bit `f64`s. The bytes are claimed before anything is
    /// allocated, so a corrupt count can never ask for more memory than the
    /// payload itself holds.
    fn f64s(&mut self, n: usize) -> Option<Vec<f64>> {
        let bytes = self.take(n.checked_mul(8)?)?;
        Some(
            bytes
                .chunks_exact(8)
                .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
                .collect(),
        )
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

fn decode_scheme(tag: u8) -> Option<Option<SchemeKind>> {
    Some(match tag {
        0 => None,
        1 => Some(SchemeKind::Ndr),
        2 => Some(SchemeKind::Udr),
        3 => Some(SchemeKind::SpectralFiltering),
        4 => Some(SchemeKind::PcaDr),
        5 => Some(SchemeKind::BeDr),
        _ => return None,
    })
}

fn decode_metric(tag: u8) -> Option<MetricKind> {
    Some(match tag {
        0 => MetricKind::Rmse,
        1 => MetricKind::Mse,
        2 => MetricKind::NormalizedRmse,
        _ => return None,
    })
}

fn decode_engine(label: &str) -> Option<&'static str> {
    match label {
        "in-memory" => Some("in-memory"),
        "streaming" => Some("streaming"),
        _ => None,
    }
}

/// Decodes the shared result payload (see [`encode_result`]); warnings are
/// left empty for the caller to fill (tag 2 appends them after this).
fn decode_result(d: &mut Dec<'_>) -> Option<ScenarioResult> {
    let label = d.str()?;
    let x = d.f64()?;
    let scheme = decode_scheme(d.u8()?)?;
    let attack = d.str()?;
    let engine = decode_engine(&d.str()?)?;
    let n_records = usize::try_from(d.u64()?).ok()?;
    let trials = usize::try_from(d.u64()?).ok()?;
    let n_metrics = d.u32()? as usize;
    let mut metrics = Vec::with_capacity(n_metrics.min(64));
    for _ in 0..n_metrics {
        let kind = decode_metric(d.u8()?)?;
        metrics.push((kind, d.f64()?));
    }
    let components_kept = match d.u8()? {
        0 => None,
        1 => Some(usize::try_from(d.u64()?).ok()?),
        _ => return None,
    };
    let seconds = d.f64()?;
    Some(ScenarioResult {
        label,
        x,
        scheme,
        attack,
        engine,
        n_records,
        trials,
        metrics,
        components_kept,
        seconds,
        warnings: Vec::new(),
    })
}

fn decode_bool(byte: u8) -> Option<bool> {
    match byte {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// Moment-frame payload (tag 3): leader index, trial, then the segment with
/// its accumulator's raw state — `count`, the optional anchor `shift`,
/// `sum`, `cross` — all `f64`s as raw IEEE bits, so a recovered accumulator
/// is **bit-identical** to the one journaled.
fn encode_moment(leader: usize, trial: usize, segment: &MomentSegment) -> Vec<u8> {
    let acc = &segment.accumulator;
    let m = acc.n_attributes();
    let mut out = Vec::with_capacity(64 + 8 * (2 * m + m * m));
    put_u64(&mut out, leader as u64);
    out.push(3);
    put_u64(&mut out, trial as u64);
    put_u64(&mut out, segment.index as u64);
    put_u64(&mut out, segment.n_chunks as u64);
    put_u32(&mut out, m as u32);
    put_u64(&mut out, acc.count() as u64);
    match acc.shift() {
        Some(shift) => {
            out.push(1);
            for &v in shift {
                put_f64(&mut out, v);
            }
        }
        None => out.push(0),
    }
    for &v in acc.raw_sum() {
        put_f64(&mut out, v);
    }
    for &v in acc.raw_cross() {
        put_f64(&mut out, v);
    }
    out
}

fn decode_moment(leader: usize, d: &mut Dec<'_>) -> Option<MomentFrame> {
    let trial = usize::try_from(d.u64()?).ok()?;
    let seg_index = usize::try_from(d.u64()?).ok()?;
    let n_chunks = usize::try_from(d.u64()?).ok()?;
    let m = d.u32()? as usize;
    if m == 0 {
        return None;
    }
    let count = usize::try_from(d.u64()?).ok()?;
    let shift = match d.u8()? {
        0 => None,
        1 => Some(d.f64s(m)?),
        _ => return None,
    };
    let sum = d.f64s(m)?;
    let cross = d.f64s(m.checked_mul(m)?)?;
    let accumulator = CovarianceAccumulator::from_raw_parts(count, sum, cross, shift).ok()?;
    Some(MomentFrame {
        leader,
        trial,
        segment: MomentSegment {
            index: seg_index,
            n_chunks,
            accumulator,
        },
    })
}

/// One decoded frame: a cell outcome or a moment partial.
#[derive(Debug)]
enum Frame {
    Outcome(usize, ScenarioOutcome),
    Moment(MomentFrame),
}

/// Decodes a frame payload; `None` when it is structurally invalid.
fn decode_frame(payload: &[u8]) -> Option<Frame> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let index = usize::try_from(d.u64()?).ok()?;
    let frame = match d.u8()? {
        0 => Frame::Outcome(index, ScenarioOutcome::Completed(decode_result(&mut d)?)),
        2 => {
            let mut result = decode_result(&mut d)?;
            let n_warnings = d.u32()? as usize;
            let mut warnings = Vec::with_capacity(n_warnings.min(64));
            for _ in 0..n_warnings {
                warnings.push(d.str()?);
            }
            // A degraded record with zero warnings is structurally invalid:
            // `Degraded` exists precisely because warnings are non-empty.
            if warnings.is_empty() {
                return None;
            }
            result.warnings = warnings;
            Frame::Outcome(index, ScenarioOutcome::Degraded(result))
        }
        1 => {
            let label = d.str()?;
            let attack = d.str()?;
            let engine = decode_engine(&d.str()?)?;
            let error = d.str()?;
            let transient = decode_bool(d.u8()?)?;
            let timed_out = decode_bool(d.u8()?)?;
            let attempts = d.u32()?;
            Frame::Outcome(
                index,
                ScenarioOutcome::Failed(ScenarioFailure {
                    label,
                    attack,
                    engine,
                    error,
                    transient,
                    timed_out,
                    attempts,
                }),
            )
        }
        3 => Frame::Moment(decode_moment(index, &mut d)?),
        _ => return None,
    };
    // Trailing garbage means the frame length lied about the payload.
    (d.pos == payload.len()).then_some(frame)
}

/// `len`, `crc` and `payload`: one frame as it lands on disk.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u64(&mut frame, fnv64(FNV_OFFSET, payload));
    frame.extend_from_slice(payload);
    frame
}

/// The payload of the intact frame at `offset` and the offset just past it;
/// `None` at the end of the file or at a torn or corrupt frame.
fn next_frame(bytes: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    let mut d = Dec {
        buf: bytes,
        pos: offset,
    };
    let len = d.u32()? as usize;
    let crc = d.u64()?;
    let payload = d.take(len)?;
    (fnv64(FNV_OFFSET, payload) == crc).then_some((payload, d.pos))
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// Deterministic process-abort points inside [`ResultJournal::append`] —
/// testing support for the kill-and-resume suite. The abort is a real
/// `std::process::abort()`, so the file is left exactly as a crash would
/// leave it (no destructors, no buffered-writer flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Abort before writing record `k` (0-based): the journal ends with
    /// exactly `k` intact records.
    AfterRecords(u64),
    /// Abort once the file reaches absolute byte offset `b`: the frame
    /// straddling `b` is written only up to `b` — a torn trailing record.
    /// The header is written when the journal is opened, outside `append`,
    /// so no crash point can tear it: an offset inside the header aborts at
    /// the first append and leaves the header intact.
    AtByte(u64),
}

/// A recovered pass-1 moment frame: one self-anchored segment partial of
/// the split workload group led by global cell `leader`, for one trial.
#[derive(Debug, Clone)]
pub struct MomentFrame {
    /// Global index of the split group's leader cell.
    pub leader: usize,
    /// 0-based trial within the group.
    pub trial: usize,
    /// The segment partial (index, covered chunks, raw accumulator state).
    pub segment: MomentSegment,
}

/// Everything recovered from a journal.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Recovered `(global index, outcome)` pairs, in journal order.
    pub outcomes: Vec<(usize, ScenarioOutcome)>,
    /// Recovered moment frames, in journal order.
    pub moments: Vec<MomentFrame>,
}

/// Scans frames from `offset`: outcomes whose index lies in `slice` and
/// moment partials whose leader lies in the `n_cells`-cell grid. The first
/// torn, corrupt, structurally invalid or out-of-place frame ends the scan.
/// Returns what was recovered plus the byte offset just past the last
/// intact frame.
fn scan_frames(
    bytes: &[u8],
    mut offset: usize,
    n_cells: usize,
    slice: &ShardSlice,
) -> (Recovery, usize) {
    let mut recovery = Recovery::default();
    while let Some((payload, next)) = next_frame(bytes, offset) {
        match decode_frame(payload) {
            Some(Frame::Outcome(index, outcome)) if slice.contains(index) => {
                recovery.outcomes.push((index, outcome))
            }
            Some(Frame::Moment(frame)) if frame.leader < n_cells => recovery.moments.push(frame),
            _ => break,
        }
        offset = next;
    }
    (recovery, offset)
}

/// An append-only, checksummed, crash-recoverable log of scenario outcomes
/// and moment partials. See the [module docs](self) for the format and
/// recovery rules.
#[derive(Debug)]
pub struct ResultJournal {
    path: PathBuf,
    file: File,
    bytes_written: u64,
    records_written: u64,
    crash: Option<CrashPoint>,
    /// The cells this journal owns; outcome appends outside it are
    /// rejected.
    slice: ShardSlice,
}

/// What [`check_header`] concluded about the bytes already at a journal
/// path.
enum HeaderCheck {
    /// Empty file or a header torn by a crash mid-create: start fresh.
    Fresh,
    /// Exactly the expected header: frames follow.
    Valid,
}

fn journal_err(path: &Path, reason: impl Into<String>) -> ExperimentError {
    ExperimentError::Journal {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

fn io_err(path: &Path, source: std::io::Error) -> ExperimentError {
    ExperimentError::IoAt {
        path: path.to_path_buf(),
        source,
    }
}

/// The header a journal of `slice` over `specs` carries (see the module
/// docs for the layout).
fn header_bytes(specs: &[ScenarioSpec], slice: &ShardSlice) -> Vec<u8> {
    let ranges = slice.ranges();
    let mut header = Vec::with_capacity(36 + 16 * ranges.len());
    header.extend_from_slice(MAGIC);
    put_u32(&mut header, VERSION);
    put_u32(&mut header, specs.len() as u32);
    put_u64(&mut header, grid_fingerprint(specs));
    put_u32(&mut header, ranges.len() as u32);
    for range in ranges {
        put_u64(&mut header, range.start as u64);
        put_u64(&mut header, range.end as u64);
    }
    let crc = fnv64(FNV_OFFSET, &header);
    put_u64(&mut header, crc);
    header
}

/// A slice must sit inside the grid it journals.
fn check_slice_bounds(path: &Path, specs: &[ScenarioSpec], slice: &ShardSlice) -> Result<()> {
    if slice.ranges().last().is_some_and(|r| r.end > specs.len()) {
        return Err(journal_err(
            path,
            format!(
                "shard range {slice} extends past the {}-cell grid",
                specs.len()
            ),
        ));
    }
    Ok(())
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Dec {
        buf: bytes,
        pos: at,
    }
    .u32()
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Dec {
        buf: bytes,
        pos: at,
    }
    .u64()
}

/// A header field read from the file, or `?` when the file ends inside it.
fn shown(value: Option<impl std::fmt::Display>) -> String {
    value.map_or_else(|| "?".to_string(), |v| v.to_string())
}

/// The slice a foreign header declares, rendered like [`ShardSlice`].
fn stored_slice(bytes: &[u8]) -> String {
    let Some(n) = read_u32(bytes, 24) else {
        return "?".to_string();
    };
    let n = n as usize;
    if bytes.len() < n.saturating_mul(16).saturating_add(28) {
        return format!("{n} range(s), more than the file holds");
    }
    (0..n)
        .map(|i| {
            let at = 28 + 16 * i;
            format!(
                "{}..{}",
                shown(read_u64(bytes, at)),
                shown(read_u64(bytes, at + 8))
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Classifies the bytes at `path` against `expected`, the header this
/// journal would write: a strict prefix of it is a torn create, the exact
/// header means frames follow, and anything else is a located error naming
/// the first field that differs.
fn check_header(
    path: &Path,
    bytes: &[u8],
    expected: &[u8],
    slice: &ShardSlice,
) -> Result<HeaderCheck> {
    if bytes.len() < expected.len() && expected.starts_with(bytes) {
        return Ok(HeaderCheck::Fresh);
    }
    if bytes.starts_with(expected) {
        return Ok(HeaderCheck::Valid);
    }
    let at = bytes
        .iter()
        .zip(expected)
        .position(|(a, b)| a != b)
        .expect("neither a prefix nor an extension of the header, so some byte differs");
    let reason = if at < 8 {
        "existing file is not a result journal (bad magic)".to_string()
    } else if at < 12 {
        format!(
            "unsupported journal version {} (this path expects {VERSION})",
            shown(read_u32(bytes, 8))
        )
    } else if at < 24 {
        format!(
            "grid fingerprint mismatch: journal was written for a different scenario grid \
             ({} cells, fingerprint {}); delete the journal or rerun with the original grid",
            shown(read_u32(bytes, 12)),
            shown(read_u64(bytes, 16).map(|f| format!("{f:#018x}")))
        )
    } else if at < expected.len() - 8 {
        format!(
            "shard slice mismatch: journal covers {}, not {slice}",
            stored_slice(bytes)
        )
    } else {
        "header checksum mismatch".to_string()
    };
    Err(journal_err(path, reason))
}

impl ResultJournal {
    /// Opens the journal of `slice` over `specs` at `path` — recovering
    /// every intact frame and truncating a torn tail — or creates a fresh
    /// one if `path` is missing, empty, or holds a header torn mid-create.
    /// Returns the journal positioned for appends plus everything
    /// recovered. A single-process sweep passes
    /// [`ShardSlice::whole`]; a shard worker passes its own slice. See the
    /// [module docs](self) for the full recovery rules.
    pub fn open_or_create(
        path: impl Into<PathBuf>,
        specs: &[ScenarioSpec],
        slice: &ShardSlice,
    ) -> Result<(ResultJournal, Recovery)> {
        let path = path.into();
        check_slice_bounds(&path, specs, slice)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err(&path, e))?;

        let header = header_bytes(specs, slice);
        let (recovery, offset) = match check_header(&path, &bytes, &header, slice)? {
            HeaderCheck::Fresh => {
                file.set_len(0).map_err(|e| io_err(&path, e))?;
                file.seek(SeekFrom::Start(0))
                    .map_err(|e| io_err(&path, e))?;
                file.write_all(&header).map_err(|e| io_err(&path, e))?;
                (Recovery::default(), header.len())
            }
            HeaderCheck::Valid => {
                // The first torn or corrupt frame ends the journal and
                // everything from it on is truncated away.
                let (recovery, offset) = scan_frames(&bytes, header.len(), specs.len(), slice);
                if offset < bytes.len() {
                    file.set_len(offset as u64).map_err(|e| io_err(&path, e))?;
                }
                file.seek(SeekFrom::Start(offset as u64))
                    .map_err(|e| io_err(&path, e))?;
                (recovery, offset)
            }
        };
        let journal = ResultJournal {
            path,
            file,
            bytes_written: offset as u64,
            records_written: (recovery.outcomes.len() + recovery.moments.len()) as u64,
            crash: None,
            slice: slice.clone(),
        };
        Ok((journal, recovery))
    }

    /// Read-only recovery — the coordinator's reduce path. A missing file,
    /// an empty one, or a header torn mid-create recovers nothing (the
    /// worker never got going); everything else goes through exactly the
    /// [`open_or_create`](Self::open_or_create) validation, but the file is
    /// neither truncated nor kept open.
    pub fn recover(
        path: impl AsRef<Path>,
        specs: &[ScenarioSpec],
        slice: &ShardSlice,
    ) -> Result<Recovery> {
        let path = path.as_ref();
        check_slice_bounds(path, specs, slice)?;
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::default()),
            Err(e) => return Err(io_err(path, e)),
        };
        let header = header_bytes(specs, slice);
        Ok(match check_header(path, &bytes, &header, slice)? {
            HeaderCheck::Fresh => Recovery::default(),
            HeaderCheck::Valid => scan_frames(&bytes, header.len(), specs.len(), slice).0,
        })
    }

    /// Appends one outcome, framed and checksummed. Writes go straight to
    /// the file (no user-space buffering), so a process abort immediately
    /// after `append` returns loses nothing.
    pub fn append(&mut self, index: usize, outcome: &ScenarioOutcome) -> Result<()> {
        if !self.slice.contains(index) {
            return Err(journal_err(
                &self.path,
                format!("record index {index} outside shard slice {}", self.slice),
            ));
        }
        self.write_frame(&encode_record(index, outcome))
    }

    /// Appends one pass-1 moment frame: segment `segment` of `trial` of the
    /// split group led by `leader`. Shares the framing, crash-point, and
    /// durability semantics of [`append`](Self::append) —
    /// `records_written` counts moment frames too, so
    /// `CrashPoint::AfterRecords` can land mid-moment-task.
    pub fn append_moment(
        &mut self,
        leader: usize,
        trial: usize,
        segment: &MomentSegment,
    ) -> Result<()> {
        self.write_frame(&encode_moment(leader, trial, segment))
    }

    fn write_frame(&mut self, payload: &[u8]) -> Result<()> {
        let frame = frame_bytes(payload);
        match self.crash {
            Some(CrashPoint::AfterRecords(k)) if self.records_written >= k => {
                std::process::abort();
            }
            Some(CrashPoint::AtByte(b)) if self.bytes_written + frame.len() as u64 > b => {
                let keep = b.saturating_sub(self.bytes_written) as usize;
                // Tear the frame at the crash byte, then die like a crash.
                let _ = self.file.write_all(&frame[..keep]);
                let _ = self.file.flush();
                std::process::abort();
            }
            _ => {}
        }

        self.file
            .write_all(&frame)
            .map_err(|e| io_err(&self.path, e))?;
        self.bytes_written += frame.len() as u64;
        self.records_written += 1;
        Ok(())
    }

    /// Installs (or clears) a deterministic abort point — testing support
    /// for the kill-and-resume suite.
    pub fn set_crash_point(&mut self, crash: Option<CrashPoint>) {
        self.crash = crash;
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records currently in the journal (recovered + appended).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Current file length in bytes (header + intact frames).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

// ---------------------------------------------------------------------------
// The resumable runner
// ---------------------------------------------------------------------------

/// What [`run_scenarios_resumable`] did: the full outcome list plus how
/// much of it came from the journal versus this invocation.
#[derive(Debug)]
pub struct ResumableRun {
    /// One outcome per input spec, in input order — journaled cells and
    /// freshly-executed cells are indistinguishable here.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Cells restored from the journal (skipped this invocation).
    pub resumed: usize,
    /// Cells executed (and journaled) by this invocation.
    pub executed: usize,
}

/// Runs a sweep fail-soft with every outcome journaled to `journal_path`
/// the moment it lands, resuming past work if the journal already holds it.
///
/// This is the shard worker ([`run_shard_worker_with`]) over the whole
/// grid: scenarios found in the journal (matched by grid index, after the
/// header check guarantees the journal belongs to exactly this spec list)
/// are **not** re-executed; the remainder runs under
/// [`run_scenarios_failsoft`](crate::scenario::run_scenarios_failsoft)
/// semantics with outcomes appended as they complete. Because every
/// scenario's result is a pure function of its spec, the final outcome
/// list is bit-identical to an uninterrupted run — `seconds` (wall-clock)
/// aside — no matter how many crash/resume cycles it took.
///
/// A journal append failure aborts the sweep: continuing without
/// durability would silently downgrade the crash-safety contract.
pub fn run_scenarios_resumable(
    specs: &[ScenarioSpec],
    journal_path: impl Into<PathBuf>,
    policy: RetryPolicy,
) -> Result<ResumableRun> {
    run_scenarios_resumable_with_crash(specs, journal_path, policy, None)
}

/// [`run_scenarios_resumable`] with a [`CrashPoint`] installed on the
/// journal — testing support for the kill-and-resume suite, which re-execs
/// a child sweep with a crash point and then resumes it without one.
pub fn run_scenarios_resumable_with_crash(
    specs: &[ScenarioSpec],
    journal_path: impl Into<PathBuf>,
    policy: RetryPolicy,
    crash: Option<CrashPoint>,
) -> Result<ResumableRun> {
    run_shard_worker_with(
        specs,
        &ShardSlice::whole(specs.len()),
        &[],
        journal_path,
        policy,
        WorkerOptions {
            crash,
            ..WorkerOptions::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn specs(n: usize) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| ScenarioSpec::synthetic_quick(&format!("cell{i}"), 64 + i, 4, 2))
            .collect()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "randrecon-journal-{tag}-{}.bin",
            std::process::id()
        ))
    }

    /// A fresh journal over the whole grid at `path`.
    fn fresh(path: &Path, grid: &[ScenarioSpec]) -> ResultJournal {
        let _ = std::fs::remove_file(path);
        ResultJournal::open_or_create(path, grid, &ShardSlice::whole(grid.len()))
            .unwrap()
            .0
    }

    fn reopen(path: &Path, grid: &[ScenarioSpec]) -> Result<(ResultJournal, Recovery)> {
        ResultJournal::open_or_create(path, grid, &ShardSlice::whole(grid.len()))
    }

    fn sample_completed(label: &str) -> ScenarioOutcome {
        ScenarioOutcome::Completed(ScenarioResult {
            label: label.to_string(),
            x: 12.5,
            scheme: Some(SchemeKind::BeDr),
            attack: "BE-DR".to_string(),
            engine: "in-memory",
            n_records: 100,
            trials: 3,
            metrics: vec![(MetricKind::Rmse, 1.25), (MetricKind::Mse, 1.5625)],
            components_kept: Some(5),
            seconds: 0.125,
            warnings: Vec::new(),
        })
    }

    fn sample_degraded(label: &str) -> ScenarioOutcome {
        let ScenarioOutcome::Completed(mut result) = sample_completed(label) else {
            unreachable!("sample_completed builds Completed");
        };
        result.warnings = vec![
            "BE-DR: Cholesky of the posterior system failed; recovered".to_string(),
            "second warning".to_string(),
        ];
        ScenarioOutcome::Degraded(result)
    }

    fn sample_failed(label: &str) -> ScenarioOutcome {
        ScenarioOutcome::Failed(ScenarioFailure {
            label: label.to_string(),
            attack: "fault[Error]".to_string(),
            engine: "in-memory",
            error: "injected fault".to_string(),
            transient: false,
            timed_out: true,
            attempts: 2,
        })
    }

    #[test]
    fn round_trip_preserves_outcomes_exactly() {
        let grid = specs(4);
        let path = temp_path("roundtrip");
        {
            let mut journal = fresh(&path, &grid);
            journal.append(2, &sample_completed("cell2")).unwrap();
            journal.append(0, &sample_failed("cell0")).unwrap();
            journal.append(1, &sample_degraded("cell1")).unwrap();
            assert_eq!(journal.records_written(), 3);
        }
        let (journal, recovery) = reopen(&path, &grid).unwrap();
        assert_eq!(journal.records_written(), 3);
        assert_eq!(
            recovery.outcomes,
            vec![
                (2, sample_completed("cell2")),
                (0, sample_failed("cell0")),
                (1, sample_degraded("cell1")),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A checksum-valid header of a retired layout: magic, `version`, the
    /// grid fields, an optional extension, and the CRC over all of it.
    fn legacy_header(grid: &[ScenarioSpec], version: u32, extension: &[u8]) -> Vec<u8> {
        let mut header = MAGIC.to_vec();
        put_u32(&mut header, version);
        put_u32(&mut header, grid.len() as u32);
        put_u64(&mut header, grid_fingerprint(grid));
        header.extend_from_slice(extension);
        let crc = fnv64(FNV_OFFSET, &header);
        put_u64(&mut header, crc);
        header
    }

    #[test]
    fn legacy_journal_versions_are_refused_and_left_untouched() {
        let grid = specs(2);
        let path = temp_path("legacy-version");
        let mut v4_range = Vec::new();
        put_u64(&mut v4_range, 0);
        put_u64(&mut v4_range, 2);
        // v1/v2: pre-supervision records; v3: the plain header; v4: the
        // single-range shard header; v5: the current slice header over the
        // Box–Muller data stream. Each carries one record after it.
        let mut v5_slice = Vec::new();
        put_u32(&mut v5_slice, 1);
        put_u64(&mut v5_slice, 0);
        put_u64(&mut v5_slice, 2);
        for (version, extension) in [
            (1, Vec::new()),
            (3, Vec::new()),
            (4, v4_range),
            (5, v5_slice),
        ] {
            let mut bytes = legacy_header(&grid, version, &extension);
            bytes.extend(frame_bytes(&encode_record(0, &sample_completed("cell0"))));
            std::fs::write(&path, &bytes).unwrap();
            for slice in [ShardSlice::whole(2), ShardSlice::parse("0..1").unwrap()] {
                let err = ResultJournal::open_or_create(&path, &grid, &slice).unwrap_err();
                let expected = format!("unsupported journal version {version}");
                assert!(err.to_string().contains(&expected), "{err}");
                let err = ResultJournal::recover(&path, &grid, &slice).unwrap_err();
                assert!(err.to_string().contains(&expected), "{err}");
            }
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "v{version} modified");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let grid = specs(3);
        let path = temp_path("stale");
        fresh(&path, &grid);
        let mut changed = grid.clone();
        changed[1].seed ^= 1;
        let err = reopen(&path, &changed).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        // Different cell count fails too.
        let err = reopen(&path, &grid[..2]).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_files_are_not_clobbered() {
        let path = temp_path("foreign");
        let notes = b"this is somebody's notes file, 40+ bytes long";
        std::fs::write(&path, notes).unwrap();
        let err = reopen(&path, &specs(1)).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
        assert_eq!(std::fs::read(&path).unwrap(), notes);
        // Short foreign files are refused as well.
        std::fs::write(&path, b"hi").unwrap();
        let err = reopen(&path, &specs(1)).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_torn_header_prefix_restarts_fresh() {
        let grid = specs(2);
        let slice = ShardSlice::whole(2);
        let header = header_bytes(&grid, &slice);
        let path = temp_path("torn-header");
        for cut in 0..header.len() {
            std::fs::write(&path, &header[..cut]).unwrap();
            let recovery = ResultJournal::recover(&path, &grid, &slice).unwrap();
            assert!(recovery.outcomes.is_empty() && recovery.moments.is_empty());
            let (journal, recovery) = reopen(&path, &grid).unwrap();
            assert!(recovery.outcomes.is_empty());
            assert_eq!(journal.bytes_written(), header.len() as u64);
            assert_eq!(std::fs::read(&path).unwrap(), header, "cut {cut}");
        }
        // A missing file recovers nothing, too.
        let _ = std::fs::remove_file(&path);
        let recovery = ResultJournal::recover(&path, &grid, &slice).unwrap();
        assert!(recovery.outcomes.is_empty());
    }

    #[test]
    fn header_mismatches_name_the_first_differing_field() {
        let grid = specs(4);
        let slice = ShardSlice::parse("0..2").unwrap();
        let header = header_bytes(&grid, &slice);
        let path = temp_path("header-fields");
        // (byte to flip, expected message): version, spec count, the
        // range's end, checksum.
        let cases = [
            (8, "unsupported journal version"),
            (12, "grid fingerprint mismatch"),
            (36, "shard slice mismatch: journal covers"),
            (header.len() - 1, "header checksum mismatch"),
        ];
        for (at, expected) in cases {
            let mut bytes = header.clone();
            bytes[at] ^= 1;
            // A torn copy that already differs is refused just the same.
            for len in [at + 1, bytes.len()] {
                std::fs::write(&path, &bytes[..len]).unwrap();
                let err = ResultJournal::open_or_create(&path, &grid, &slice).unwrap_err();
                assert!(err.to_string().contains(expected), "byte {at}: {err}");
                assert_eq!(std::fs::read(&path).unwrap(), &bytes[..len]);
            }
        }
        // Slices past the grid are rejected up front.
        let too_far = ShardSlice::parse("3..9").unwrap();
        let err = ResultJournal::open_or_create(&path, &grid, &too_far).unwrap_err();
        assert!(
            err.to_string().contains("extends past the 4-cell grid"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A corrupted range count must not pass for a torn create: the journal
    /// behind it holds records and must survive byte for byte.
    #[test]
    fn corrupted_range_count_is_refused_and_file_left_unchanged() {
        let grid = specs(3);
        let path = temp_path("range-count");
        {
            let mut journal = fresh(&path, &grid);
            journal.append(0, &sample_completed("cell0")).unwrap();
            journal.append(1, &sample_failed("cell1")).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[24..28].copy_from_slice(&1000u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = reopen(&path, &grid).unwrap_err();
        assert!(
            err.to_string()
                .contains("shard slice mismatch: journal covers 1000 range(s)"),
            "{err}"
        );
        let err = ResultJournal::recover(&path, &grid, &ShardSlice::whole(3)).unwrap_err();
        assert!(err.to_string().contains("shard slice mismatch"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_slice_index_truncates() {
        let grid = specs(2);
        let path = temp_path("bad-index");
        let boundary;
        {
            let mut journal = fresh(&path, &grid);
            journal.append(0, &sample_completed("cell0")).unwrap();
            boundary = journal.bytes_written();
            // Appends outside the slice are rejected, not written...
            let err = journal.append(7, &sample_completed("ghost")).unwrap_err();
            assert!(
                err.to_string().contains("outside shard slice 0..2"),
                "{err}"
            );
            // ...so plant one behind the check, as a foreign writer might.
            journal
                .write_frame(&encode_record(7, &sample_completed("ghost")))
                .unwrap();
        }
        let (journal, recovery) = reopen(&path, &grid).unwrap();
        assert_eq!(recovery.outcomes.len(), 1);
        assert_eq!(journal.records_written(), 1);
        assert_eq!(journal.bytes_written(), boundary);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_crc_truncates_to_prefix() {
        let grid = specs(2);
        let path = temp_path("corrupt");
        let first_end;
        {
            let mut journal = fresh(&path, &grid);
            journal.append(0, &sample_completed("cell0")).unwrap();
            first_end = journal.bytes_written();
            journal.append(1, &sample_failed("cell1")).unwrap();
        }
        // Flip a payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = first_end as usize + FRAME_OVERHEAD + 2;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (journal, recovery) = reopen(&path, &grid).unwrap();
        assert_eq!(recovery.outcomes, vec![(0, sample_completed("cell0"))]);
        assert_eq!(journal.bytes_written(), first_end);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first_end);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_writes_through_failing_write_recover() {
        // Build intact journal bytes in memory, push them through a
        // byte-budgeted writer, and confirm recovery keeps exactly the
        // frames that fit.
        let grid = specs(3);
        let path = temp_path("failing-write");
        let boundaries;
        {
            let mut journal = fresh(&path, &grid);
            let mut b = vec![journal.bytes_written()];
            for i in 0..3 {
                journal
                    .append(i, &sample_completed(&format!("cell{i}")))
                    .unwrap();
                b.push(journal.bytes_written());
            }
            boundaries = b;
        }
        let intact = std::fs::read(&path).unwrap();
        // Tear inside the third record: budget lands between its frame start
        // and end.
        let budget = (boundaries[2] + 3) as usize;
        let mut w = crate::fault::FailingWrite::new(Vec::new(), budget);
        let mut written = 0;
        while written < intact.len() {
            match std::io::Write::write(&mut w, &intact[written..]) {
                Ok(n) => written += n,
                Err(_) => break,
            }
        }
        std::fs::write(&path, w.into_inner()).unwrap();
        let (journal, recovery) = reopen(&path, &grid).unwrap();
        assert_eq!(recovery.outcomes.len(), 2);
        assert_eq!(journal.bytes_written(), boundaries[2]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_journal_round_trip_and_range_validation() {
        let grid = specs(6);
        let slice = ShardSlice::parse("2..5").unwrap();
        let path = temp_path("shard-roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = ResultJournal::open_or_create(&path, &grid, &slice).unwrap();
            assert_eq!(
                journal.bytes_written(),
                header_bytes(&grid, &slice).len() as u64
            );
            journal.append(3, &sample_completed("cell3")).unwrap();
            journal.append(2, &sample_failed("cell2")).unwrap();
            // Appends outside the owned range are rejected, not written.
            let err = journal.append(5, &sample_completed("ghost")).unwrap_err();
            assert!(
                err.to_string().contains("outside shard slice 2..5"),
                "{err}"
            );
        }
        // Worker resume recovers both records.
        let (journal, recovery) = ResultJournal::open_or_create(&path, &grid, &slice).unwrap();
        assert_eq!(journal.records_written(), 2);
        assert_eq!(
            recovery.outcomes,
            vec![(3, sample_completed("cell3")), (2, sample_failed("cell2"))]
        );
        drop(journal);
        // Read-only coordinator recovery sees the same records.
        let recovery = ResultJournal::recover(&path, &grid, &slice).unwrap();
        assert_eq!(recovery.outcomes.len(), 2);
        // A different range is a hard error, as is a stale grid.
        let bytes = std::fs::read(&path).unwrap();
        let other = ShardSlice::parse("0..2").unwrap();
        let err = ResultJournal::recover(&path, &grid, &other).unwrap_err();
        assert!(err.to_string().contains("shard slice mismatch"), "{err}");
        let mut changed = grid.clone();
        changed[0].seed ^= 1;
        let err = ResultJournal::recover(&path, &changed, &slice).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        // Ranges past the grid are rejected up front.
        let too_far = ShardSlice::parse("4..9").unwrap();
        assert!(ResultJournal::open_or_create(&path, &grid, &too_far).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_and_torn_shard_journals_recover_empty() {
        let grid = specs(4);
        let slice = ShardSlice::parse("1..3").unwrap();
        let path = temp_path("shard-missing");
        let _ = std::fs::remove_file(&path);
        let recovery = ResultJournal::recover(&path, &grid, &slice).unwrap();
        assert!(recovery.outcomes.is_empty() && recovery.moments.is_empty());
        // A header torn mid-create (prefix of a real shard header).
        let full = header_bytes(&grid, &slice);
        std::fs::write(&path, &full[..20]).unwrap();
        let recovery = ResultJournal::recover(&path, &grid, &slice).unwrap();
        assert!(recovery.outcomes.is_empty() && recovery.moments.is_empty());
        // Read-only recovery leaves the torn file alone...
        assert_eq!(std::fs::read(&path).unwrap(), &full[..20]);
        // ...and the worker-side open starts fresh over it.
        let (journal, recovery) = ResultJournal::open_or_create(&path, &grid, &slice).unwrap();
        assert!(recovery.outcomes.is_empty());
        assert_eq!(journal.bytes_written(), full.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), full);
        let _ = std::fs::remove_file(&path);
    }

    /// A plain journal is the slice `0..n`: it resumes under that slice,
    /// and it and a journal of part of the grid refuse each other, leaving
    /// both files as they were.
    #[test]
    fn plain_journal_is_the_whole_grid_slice() {
        let grid = specs(3);
        let zero_to_n = ShardSlice::parse("0..3").unwrap();
        assert_eq!(ShardSlice::whole(3), zero_to_n);
        let plain = temp_path("plain-whole");
        {
            let mut journal = fresh(&plain, &grid);
            journal.append(2, &sample_completed("cell2")).unwrap();
        }
        let recovery = ResultJournal::recover(&plain, &grid, &zero_to_n).unwrap();
        assert_eq!(recovery.outcomes, vec![(2, sample_completed("cell2"))]);

        let partial = ShardSlice::parse("0..2").unwrap();
        let sharded = temp_path("plain-partial");
        let _ = std::fs::remove_file(&sharded);
        ResultJournal::open_or_create(&sharded, &grid, &partial).unwrap();
        for (path, slice, expected) in [
            (&plain, &partial, "journal covers 0..3, not 0..2"),
            (&sharded, &zero_to_n, "journal covers 0..2, not 0..3"),
        ] {
            let bytes = std::fs::read(path).unwrap();
            let err = ResultJournal::open_or_create(path, &grid, slice).unwrap_err();
            assert!(err.to_string().contains(expected), "{err}");
            assert_eq!(std::fs::read(path).unwrap(), bytes);
        }
        let _ = std::fs::remove_file(&plain);
        let _ = std::fs::remove_file(&sharded);
    }

    fn sample_segment(index: usize) -> MomentSegment {
        // Deliberately awkward values (negatives, non-dyadic fractions, a
        // subnormal) so the raw-bits round trip is actually exercised.
        let acc = CovarianceAccumulator::from_raw_parts(
            3,
            vec![1.5, -2.25e-300],
            vec![0.1 + 0.2, -4.0, -4.0, f64::MIN_POSITIVE / 4.0],
            Some(vec![0.125, std::f64::consts::PI]),
        )
        .expect("valid raw parts");
        MomentSegment {
            index,
            n_chunks: 4,
            accumulator: acc,
        }
    }

    fn assert_acc_bits_eq(a: &CovarianceAccumulator, b: &CovarianceAccumulator) {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.shift().map(raw_bits), b.shift().map(raw_bits));
        assert_eq!(raw_bits(a.raw_sum()), raw_bits(b.raw_sum()));
        assert_eq!(raw_bits(a.raw_cross()), raw_bits(b.raw_cross()));
    }

    fn raw_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn slice_journal_round_trips_outcomes_and_moment_frames_bit_exactly() {
        let grid = specs(6);
        let slice = ShardSlice::parse("0..2,4..6").unwrap();
        let path = temp_path("slice-roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, recovery) =
                ResultJournal::open_or_create(&path, &grid, &slice).unwrap();
            assert!(recovery.outcomes.is_empty() && recovery.moments.is_empty());
            journal.append(4, &sample_completed("cell4")).unwrap();
            journal.append_moment(2, 1, &sample_segment(7)).unwrap();
            journal.append(0, &sample_failed("cell0")).unwrap();
            // Outcomes outside the slice are rejected, not written.
            let err = journal.append(2, &sample_completed("ghost")).unwrap_err();
            assert!(err.to_string().contains("outside shard slice"), "{err}");
            assert_eq!(journal.records_written(), 3);
        }
        // Worker resume sees all three frames, moment state bit-identical.
        let (journal, recovery) = ResultJournal::open_or_create(&path, &grid, &slice).unwrap();
        assert_eq!(journal.records_written(), 3);
        assert_eq!(
            recovery.outcomes,
            vec![(4, sample_completed("cell4")), (0, sample_failed("cell0"))]
        );
        assert_eq!(recovery.moments.len(), 1);
        let frame = &recovery.moments[0];
        assert_eq!((frame.leader, frame.trial), (2, 1));
        assert_eq!(frame.segment.index, 7);
        assert_eq!(frame.segment.n_chunks, 4);
        assert_acc_bits_eq(&frame.segment.accumulator, &sample_segment(7).accumulator);
        drop(journal);
        // Read-only coordinator recovery sees the same.
        let recovery = ResultJournal::recover(&path, &grid, &slice).unwrap();
        assert_eq!(recovery.outcomes.len(), 2);
        assert_eq!(recovery.moments.len(), 1);
        // A different slice — the whole grid included — is a hard error.
        for other in [ShardSlice::parse("0..3").unwrap(), ShardSlice::whole(6)] {
            let err = ResultJournal::recover(&path, &grid, &other).unwrap_err();
            let expected = format!("shard slice mismatch: journal covers 0..2,4..6, not {other}");
            assert!(err.to_string().contains(&expected), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_slice_journal_is_valid_and_task_only() {
        // A worker can hold zero cells and only moment tasks.
        let grid = specs(3);
        let slice = ShardSlice::parse("").unwrap();
        let path = temp_path("slice-empty");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = ResultJournal::open_or_create(&path, &grid, &slice).unwrap();
            journal.append_moment(1, 0, &sample_segment(0)).unwrap();
            let err = journal.append(1, &sample_completed("cell1")).unwrap_err();
            assert!(err.to_string().contains("outside shard slice"), "{err}");
        }
        let recovery = ResultJournal::recover(&path, &grid, &slice).unwrap();
        assert!(recovery.outcomes.is_empty());
        assert_eq!(recovery.moments.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_moment_frame_truncates_to_prefix() {
        let grid = specs(3);
        let slice = ShardSlice::parse("0..3").unwrap();
        let path = temp_path("slice-torn");
        let _ = std::fs::remove_file(&path);
        let first_end;
        {
            let (mut journal, _) = ResultJournal::open_or_create(&path, &grid, &slice).unwrap();
            journal.append_moment(0, 0, &sample_segment(0)).unwrap();
            first_end = journal.bytes_written();
            journal.append_moment(0, 0, &sample_segment(1)).unwrap();
        }
        // Tear the second moment frame mid-payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..first_end as usize + 20]).unwrap();
        let recovery = ResultJournal::recover(&path, &grid, &slice).unwrap();
        assert_eq!(recovery.moments.len(), 1);
        assert_eq!(recovery.moments[0].segment.index, 0);
        // And the worker-side open truncates back to the intact frame.
        let (journal, recovery) = ResultJournal::open_or_create(&path, &grid, &slice).unwrap();
        assert_eq!(recovery.moments.len(), 1);
        assert_eq!(journal.bytes_written(), first_end);
        let _ = std::fs::remove_file(&path);
    }

    /// A moment frame whose attribute count claims far more state than the
    /// payload holds is rejected before anything is allocated for it.
    #[test]
    fn oversized_moment_frame_is_rejected_without_allocating() {
        let m: u32 = 1 << 20;
        let mut payload = Vec::new();
        put_u64(&mut payload, 0); // leader
        payload.push(3);
        for field in [0u64, 0, 1] {
            put_u64(&mut payload, field); // trial, segment, n_chunks
        }
        put_u32(&mut payload, m);
        put_u64(&mut payload, 10); // count
        payload.push(0); // no shift
                         // The full `sum` is present (8 MiB); the `m²` cross block is not.
        payload.resize(payload.len() + 8 * m as usize, 0);
        assert!(decode_frame(&payload).is_none());
    }

    /// SplitMix64 over the proptest seed: the fuzzer's own byte stream.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A payload to fuzz the frame decoder with: random bytes, a valid
    /// outcome or moment payload truncated and possibly flipped, or a
    /// moment header with an arbitrary attribute count.
    fn fuzz_payload(state: &mut u64, mode: usize) -> Vec<u8> {
        let mut payload = match mode {
            0 => (0..mix(state) % 64).map(|_| mix(state) as u8).collect(),
            1 => {
                let outcomes = [
                    sample_completed("cell1"),
                    sample_failed("cell1"),
                    sample_degraded("cell1"),
                ];
                encode_record(1, &outcomes[(mix(state) % 3) as usize])
            }
            2 => encode_moment(2, 0, &sample_segment(3)),
            _ => {
                let mut p = encode_moment(2, 0, &sample_segment(3));
                let m = [0, 1, 3, 1 << 20, u32::MAX, mix(state) as u32][(mix(state) % 6) as usize];
                p[33..37].copy_from_slice(&m.to_le_bytes());
                p
            }
        };
        if mode > 0 {
            let cut = (mix(state) % (payload.len() as u64 + 1)) as usize;
            if mix(state).is_multiple_of(2) {
                payload.truncate(cut);
            }
            if mix(state).is_multiple_of(2) && !payload.is_empty() {
                let at = (mix(state) % payload.len() as u64) as usize;
                payload[at] ^= 1 << (mix(state) % 8);
            }
        }
        payload
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Decoder fuzzing: a checksum-valid frame of arbitrary content
        /// between two good frames never panics or aborts the recovery; it
        /// either decodes into place (all three frames recover) or ends the
        /// journal right after the first good frame.
        #[test]
        fn recovery_survives_random_and_truncated_payloads(
            seed in 0u64..1_000_000_000,
            mode in 0usize..4,
        ) {
            let grid = specs(6);
            let slice = ShardSlice::whole(6);
            let mut state = seed;
            let fuzzed = fuzz_payload(&mut state, mode);
            let mut bytes = header_bytes(&grid, &slice);
            bytes.extend(frame_bytes(&encode_record(0, &sample_completed("cell0"))));
            let first_end = bytes.len();
            bytes.extend(frame_bytes(&fuzzed));
            bytes.extend(frame_bytes(&encode_moment(4, 0, &sample_segment(1))));

            let in_place = match decode_frame(&fuzzed) {
                Some(Frame::Outcome(index, _)) => slice.contains(index),
                Some(Frame::Moment(frame)) => frame.leader < grid.len(),
                None => false,
            };
            let path = temp_path(&format!("fuzz-{seed}-{mode}"));
            std::fs::write(&path, &bytes).unwrap();
            let recovery = ResultJournal::recover(&path, &grid, &slice).unwrap();
            let (journal, reopened) = ResultJournal::open_or_create(&path, &grid, &slice).unwrap();
            let _ = std::fs::remove_file(&path);

            let recovered = recovery.outcomes.len() + recovery.moments.len();
            prop_assert_eq!(recovered, if in_place { 3 } else { 1 });
            prop_assert_eq!(&recovery.outcomes[0], &(0, sample_completed("cell0")));
            prop_assert_eq!(reopened.outcomes.len() + reopened.moments.len(), recovered);
            let expected_len = if in_place { bytes.len() } else { first_end };
            prop_assert_eq!(journal.bytes_written(), expected_len as u64);
        }
    }

    #[test]
    fn grid_fingerprint_sensitive_to_any_spec_change() {
        let grid = specs(3);
        let base = grid_fingerprint(&grid);
        let mut changed = grid.clone();
        changed[0].label.push('!');
        assert_ne!(base, grid_fingerprint(&changed));
        let mut changed = grid.clone();
        changed[2].trials += 1;
        assert_ne!(base, grid_fingerprint(&changed));
        assert_ne!(base, grid_fingerprint(&grid[..2]));
        assert_eq!(base, grid_fingerprint(&specs(3)));
    }

    /// The header layout, field by field: existing journals resume only
    /// while these bytes stay where they are.
    #[test]
    fn header_layout_is_fixed() {
        let grid = specs(6);
        for (text, len) in [("", 36), ("2..5", 52), ("0..2,4..6", 68)] {
            let slice = ShardSlice::parse(text).unwrap();
            let header = header_bytes(&grid, &slice);
            assert_eq!(header.len(), len, "slice {text:?}");
            assert_eq!(&header[..8], b"RRJOURN1");
            assert_eq!(&header[8..12], &6u32.to_le_bytes());
            assert_eq!(&header[12..16], &6u32.to_le_bytes());
            assert_eq!(&header[16..24], &grid_fingerprint(&grid).to_le_bytes());
            let n_ranges = slice.ranges().len() as u32;
            assert_eq!(&header[24..28], &n_ranges.to_le_bytes());
            for (k, range) in slice.ranges().iter().enumerate() {
                let at = 28 + 16 * k;
                assert_eq!(&header[at..at + 8], &(range.start as u64).to_le_bytes());
                assert_eq!(&header[at + 8..at + 16], &(range.end as u64).to_le_bytes());
            }
            let crc = fnv64(FNV_OFFSET, &header[..len - 8]);
            assert_eq!(&header[len - 8..], &crc.to_le_bytes());
        }
    }
}
