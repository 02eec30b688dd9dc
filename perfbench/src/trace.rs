//! Timing wrappers placed around the library's public trait boundaries.
//!
//! Nothing inside the library is instrumented: a traced run wraps the
//! record sources it hands the streaming engine in [`TimedSource`] (busy
//! time inside `next_chunk`) and the sinks in [`TimedSink`] (busy time
//! inside `consume_chunk`). Nesting wrappers splits a stage by layer — the
//! synthetic generator inside the disguising adapter, the CSV writer inside
//! the output checks. The wrappers forward every call unchanged, so a
//! wrapped stream is bit-identical to an unwrapped one.

use randrecon_core::streaming::RecordSink;
use randrecon_data::chunks::RecordChunkSource;
use randrecon_linalg::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Accumulated busy time, shared between a wrapper (which may run on the
/// streaming engine's read thread) and the benchmark that reads it.
#[derive(Debug, Clone, Default)]
pub struct Stopwatch(Arc<AtomicU64>);

impl Stopwatch {
    fn add(&self, elapsed: Duration) {
        // A statistic that publishes nothing else: Relaxed suffices, and the
        // reader only looks after the engine joined its threads.
        self.0
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Seconds accumulated since the last `take`, resetting to zero.
    pub fn take(&self) -> f64 {
        self.0.swap(0, Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// A record source whose `next_chunk` (and `skip_chunks`) time is
/// accumulated on a [`Stopwatch`].
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    busy: Stopwatch,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`, charging its read time to `busy`.
    pub fn new(inner: S, busy: &Stopwatch) -> Self {
        TimedSource {
            inner,
            busy: busy.clone(),
        }
    }
}

impl<S: RecordChunkSource> RecordChunkSource for TimedSource<S> {
    fn n_attributes(&self) -> usize {
        self.inner.n_attributes()
    }

    fn n_records_hint(&self) -> Option<usize> {
        self.inner.n_records_hint()
    }

    fn reset(&mut self) -> randrecon_data::Result<()> {
        self.inner.reset()
    }

    fn next_chunk(&mut self) -> randrecon_data::Result<Option<Matrix>> {
        let start = Instant::now();
        let chunk = self.inner.next_chunk();
        self.busy.add(start.elapsed());
        chunk
    }

    fn skip_chunks(&mut self, n_chunks: usize) -> randrecon_data::Result<()> {
        let start = Instant::now();
        let skipped = self.inner.skip_chunks(n_chunks);
        self.busy.add(start.elapsed());
        skipped
    }
}

/// A sink whose `consume_chunk` time is accumulated on a [`Stopwatch`].
#[derive(Debug)]
pub struct TimedSink<K> {
    inner: K,
    busy: Stopwatch,
}

impl<K> TimedSink<K> {
    /// Wraps `inner`, charging its consume time to `busy`.
    pub fn new(inner: K, busy: &Stopwatch) -> Self {
        TimedSink {
            inner,
            busy: busy.clone(),
        }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> K {
        self.inner
    }
}

impl<K: RecordSink> RecordSink for TimedSink<K> {
    fn consume_chunk(&mut self, chunk: &Matrix) -> randrecon_core::Result<()> {
        let start = Instant::now();
        let consumed = self.inner.consume_chunk(chunk);
        self.busy.add(start.elapsed());
        consumed
    }
}

/// The benchmark's output check on the reconstruction stream: counts rows
/// and non-finite values, then forwards each chunk to `inner`.
#[derive(Debug)]
pub struct CheckedSink<K> {
    inner: K,
    rows: usize,
    non_finite: usize,
}

impl<K> CheckedSink<K> {
    /// Checks the stream on its way into `inner`.
    pub fn new(inner: K) -> Self {
        CheckedSink {
            inner,
            rows: 0,
            non_finite: 0,
        }
    }

    /// Rows seen and non-finite values among them, plus the inner sink.
    pub fn finish(self) -> (usize, usize, K) {
        (self.rows, self.non_finite, self.inner)
    }
}

impl<K: RecordSink> RecordSink for CheckedSink<K> {
    fn consume_chunk(&mut self, chunk: &Matrix) -> randrecon_core::Result<()> {
        self.rows += chunk.rows();
        self.non_finite += chunk.as_slice().iter().filter(|v| !v.is_finite()).count();
        self.inner.consume_chunk(chunk)
    }
}
