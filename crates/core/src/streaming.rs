//! Streaming attack engine: all five reconstruction attacks (NDR, UDR,
//! spectral filtering, PCA-DR, BE-DR) over chunked record sources with peak
//! memory `O(chunk · m + m²)`, independent of `n`.
//!
//! The in-memory attacks materialize the full `n × m` disguised matrix plus
//! an `n × m` reconstruction; once the kernels are fast (PR 1/PR 2), memory
//! — not FLOPs — is what caps `n`. This engine removes that cap by running
//! each attack in **two passes** over a restartable [`RecordChunkSource`],
//! orchestrated by one generic [`StreamingDriver`]:
//!
//! 1. **Accumulate**: sweep the chunks once through a mergeable
//!    [`CovarianceAccumulator`] (per-chunk partials are computed across the
//!    `randrecon-parallel` pool and merged in chunk order, so the result is
//!    independent of thread count). This yields the [`StreamMoments`] —
//!    `n`, `μ̂_y` and `Σ̂_y` — in `O(m²)` state.
//! 2. **Prepare, then sweep**: the attack — any [`ChunkReconstructor`] —
//!    prepares its per-stream state **once** from the moments (BE-DR
//!    factors `Σ̂_x + Σ_r` and keeps the cached Cholesky solve products;
//!    PCA-DR and spectral filtering eigendecompose once and keep their
//!    projection bases; UDR builds per-attribute prepared posteriors from
//!    the marginal moments; NDR needs nothing), then the driver re-sweeps
//!    the source, mapping each chunk independently through the prepared
//!    state and pushing it into a pluggable [`RecordSink`] (in-memory
//!    table, buffered CSV file, or a metrics-only MSE accumulator).
//!
//! Several attacks over the **same** stream share both passes: pass 1 runs
//! once ([`StreamingDriver::accumulate_moments`]) and pass 2 runs once per
//! group ([`StreamingDriver::run_group`]). The group pass prepares every
//! member from the shared moments, reads (or generates) each chunk once,
//! maps it through every member, and hands the sink all member outputs of
//! the chunk together, so an [`MseSink`] scores every member against one
//! read of the original stream. A one-member group is the single-attack
//! pass ([`StreamingDriver::run_with_moments_cancellable`]); there is no
//! other pass-2 path.
//!
//! Both passes run on the bounded **N-slot ring**
//! (`randrecon_parallel::pipeline_ring`; pass 2 at depth
//! [`StreamingDriver::slots`]), which decomposes a sweep into explicit
//! stages:
//!
//! * **read** — on a dedicated producer thread. A source that offers a
//!   [`RandomAccess`](randrecon_data::chunks::RandomAccess) view (the
//!   synthetic generator, and the disguising adapter over it, whose chunk
//!   `i` is child-seeded by `i`) is read as chunk *indices* only; any other
//!   source (CSV, in-memory tables) is read with `source.next_chunk()`;
//! * **reconstruct** (pass 2) / **moment partial** (pass 1) — the per-chunk
//!   map, fanned across the shared `randrecon-parallel` pool with up to
//!   `slots / 2` chunks in flight at once. For a random-access source this
//!   stage first *generates* its chunk (`chunk_at(i)`: MVN draws transformed
//!   in place, then the disguise added in place), so generation runs across
//!   the pool too. The chunk stays one buffer from draw to sink: BE-DR's
//!   map multiplies it in place and hands the same buffer on. In a group
//!   pass the last member takes the buffer and every other member maps a
//!   copy, so a ring item holds up to one output per member;
//! * **sink** (pass 2) / **merge** (pass 1) — the consumer, draining on the
//!   calling thread strictly in chunk order.
//!
//! The path is chosen by the source's capability, not by a knob. At most
//! `slots` chunks are resident between read and consume; one slot is the
//! strictly sequential read-map-sink loop, run inline. Because delivery is
//! in read order, a random-access chunk is bit-identical to the sequential
//! one, every per-chunk map is a pure function of its chunk, and pass 1's
//! merge runs the same two-level segment fold at any depth, the output —
//! and any error it stops on — is identical to that one-slot loop, **byte
//! for byte**, at every slot count and worker count, on either path.
//! A failing sink closes the ring's channel, which unblocks the producer
//! (its next send fails and it stops cleanly), so sink errors surface
//! without hangs at every depth. The depth defaults to
//! `RANDRECON_PIPELINE_SLOTS` / the machine heuristic (see
//! `randrecon_parallel::default_pipeline_slots`); pass 1 always runs at
//! that default.
//!
//! Because every reconstruction map is per-record, the streamed output rows
//! are computed by exactly the same kernels as the in-memory attacks; the
//! only differences are the 1e-15-level rounding differences in `μ̂`/`Σ̂`
//! accumulation order. The equivalence tests pin agreement at ≤ 1e-12 for
//! chunk sizes {1, 7, 1000, n} for the linear-map attacks and ≤ 1e-9 for
//! UDR's quadrature (uniform-noise) path.

use crate::covariance::{clip_eigenvalues, factor_posterior_system, CovarianceAccumulator};
use crate::error::{ReconError, Result};
use crate::selection::ComponentSelection;
use randrecon_data::chunks::RecordChunkSource;
use randrecon_data::csv::CsvChunkWriter;
use randrecon_linalg::decomposition::SymmetricEigen;
use randrecon_linalg::Matrix;
use randrecon_noise::NoiseModel;
pub use randrecon_parallel::CancelToken;
use randrecon_parallel::{default_pipeline_slots, pipeline_ring};
use randrecon_stats::posterior::{prior_variance, PreparedPosterior};
use std::io::Write;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Consumer of reconstructed record chunks (pass 2's output side).
pub trait RecordSink {
    /// Receives the next chunk of reconstructed records, in stream order.
    fn consume_chunk(&mut self, chunk: &Matrix) -> Result<()>;

    /// Receives the next chunk of every member of a group pass
    /// ([`StreamingDriver::run_group`]), in member order; all of them cover
    /// the same records. The default takes a one-member group only and
    /// hands its chunk to [`consume_chunk`](RecordSink::consume_chunk); a
    /// sink that keeps one stream per member ([`MseSink::for_group`])
    /// overrides it.
    fn consume_group(&mut self, chunks: &[Matrix]) -> Result<()> {
        match chunks {
            [chunk] => self.consume_chunk(chunk),
            _ => Err(ReconError::InvalidInput {
                reason: format!(
                    "this sink takes one reconstruction stream, not {}",
                    chunks.len()
                ),
            }),
        }
    }
}

/// Collects the reconstruction into one in-memory matrix.
///
/// This reintroduces the `n × m` allocation, of course — it exists for the
/// equivalence tests and for callers that want the streaming estimator but a
/// materialized result.
#[derive(Debug, Clone)]
pub struct TableSink {
    m: usize,
    rows: usize,
    data: Vec<f64>,
}

impl TableSink {
    /// A sink for `m`-attribute records.
    pub fn new(m: usize) -> Self {
        TableSink {
            m,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// Rows collected so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The collected records as an `n × m` matrix.
    pub fn into_matrix(self) -> Result<Matrix> {
        Ok(Matrix::from_flat(self.rows, self.m, self.data)?)
    }
}

impl RecordSink for TableSink {
    fn consume_chunk(&mut self, chunk: &Matrix) -> Result<()> {
        if chunk.cols() != self.m {
            return Err(ReconError::InvalidInput {
                reason: format!(
                    "sink expects {} attributes, chunk has {}",
                    self.m,
                    chunk.cols()
                ),
            });
        }
        self.rows += chunk.rows();
        self.data.extend_from_slice(chunk.as_slice());
        Ok(())
    }
}

/// Buffered CSV files are sinks: the streaming engine can reconstruct
/// straight to disk without ever holding more than one chunk.
impl<W: Write> RecordSink for CsvChunkWriter<W> {
    fn consume_chunk(&mut self, chunk: &Matrix) -> Result<()> {
        self.write_chunk(chunk)?;
        Ok(())
    }
}

/// Counts rows and discards the values — the zero-overhead sink for pure
/// throughput measurements.
#[derive(Debug, Clone, Default)]
pub struct DiscardSink {
    rows: usize,
}

impl DiscardSink {
    /// Rows consumed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

impl RecordSink for DiscardSink {
    fn consume_chunk(&mut self, chunk: &Matrix) -> Result<()> {
        self.rows += chunk.rows();
        Ok(())
    }
}

/// Metrics-only sink: accumulates the squared error between the
/// reconstruction stream and a reference source of *original* records,
/// without storing either.
///
/// The reference is reset at construction and consumed row-aligned with the
/// reconstruction (chunk boundaries on the two sides may differ; a carry
/// buffer of at most one reference chunk bridges them).
///
/// One sink scores every member of a group pass ([`MseSink::for_group`]):
/// each reference row is read once and compared with that row of every
/// member's output, and each member keeps its own sum, added row by row in
/// stream order — so a member's MSE is bit-identical to the one a
/// one-stream sink ([`MseSink::new`]) gives its attack run alone.
pub struct MseSink<'a> {
    reference: &'a mut dyn RecordChunkSource,
    m: usize,
    carry: Option<Matrix>,
    carry_offset: usize,
    /// One squared-error sum per member stream.
    sum_sq: Vec<f64>,
    rows: usize,
}

impl<'a> MseSink<'a> {
    /// Creates the one-stream sink and rewinds the reference source.
    pub fn new(reference: &'a mut dyn RecordChunkSource) -> Result<Self> {
        Self::for_group(reference, 1)
    }

    /// Creates a sink scoring `members` reconstruction streams (the members
    /// of a group pass, in member order) against one read of the
    /// reference, and rewinds the reference source.
    pub fn for_group(reference: &'a mut dyn RecordChunkSource, members: usize) -> Result<Self> {
        if members == 0 {
            return Err(ReconError::InvalidInput {
                reason: "an MSE sink needs at least one reconstruction stream".to_string(),
            });
        }
        reference.reset()?;
        let m = reference.n_attributes();
        Ok(MseSink {
            reference,
            m,
            carry: None,
            carry_offset: 0,
            sum_sq: vec![0.0; members],
            rows: 0,
        })
    }

    /// Makes `carry[carry_offset]` the next reference row, pulling the
    /// next reference chunk when the carried one is used up.
    fn advance_reference(&mut self) -> Result<()> {
        loop {
            if let Some(c) = &self.carry {
                if self.carry_offset < c.rows() {
                    return Ok(());
                }
            }
            match self.reference.next_chunk()? {
                Some(c) => {
                    if c.cols() != self.m {
                        return Err(ReconError::InvalidInput {
                            reason: format!(
                                "reference chunk has {} attributes, expected {}",
                                c.cols(),
                                self.m
                            ),
                        });
                    }
                    self.carry = Some(c);
                    self.carry_offset = 0;
                }
                None => {
                    return Err(ReconError::InvalidInput {
                        reason: "reference source exhausted before the reconstruction stream"
                            .to_string(),
                    })
                }
            }
        }
    }

    /// Rows compared so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Mean squared error per value of the first (for [`MseSink::new`],
    /// the only) stream; 0 before any row arrives.
    pub fn mse(&self) -> f64 {
        self.mse_of(0)
    }

    /// Mean squared error per value of member stream `member` (0 before any
    /// row arrives).
    ///
    /// # Panics
    ///
    /// If `member` is not below the sink's stream count.
    pub fn mse_of(&self, member: usize) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.sum_sq[member] / (self.rows * self.m) as f64
        }
    }

    /// Root-mean-square error per value of the first stream.
    pub fn rmse(&self) -> f64 {
        self.mse().sqrt()
    }
}

impl RecordSink for MseSink<'_> {
    fn consume_chunk(&mut self, chunk: &Matrix) -> Result<()> {
        self.consume_group(std::slice::from_ref(chunk))
    }

    fn consume_group(&mut self, chunks: &[Matrix]) -> Result<()> {
        if chunks.len() != self.sum_sq.len() {
            return Err(ReconError::InvalidInput {
                reason: format!(
                    "sink scores {} reconstruction streams, got {}",
                    self.sum_sq.len(),
                    chunks.len()
                ),
            });
        }
        let rows = chunks[0].rows();
        for chunk in chunks {
            if chunk.cols() != self.m {
                return Err(ReconError::InvalidInput {
                    reason: format!(
                        "reconstruction chunk has {} attributes, expected {}",
                        chunk.cols(),
                        self.m
                    ),
                });
            }
            if chunk.rows() != rows {
                return Err(ReconError::InvalidInput {
                    reason: format!(
                        "member chunks of one group step have {} and {} rows",
                        rows,
                        chunk.rows()
                    ),
                });
            }
        }
        for r in 0..rows {
            self.advance_reference()?;
            let reference_row = self
                .carry
                .as_ref()
                .expect("advance_reference leaves a carried chunk")
                .row(self.carry_offset);
            for (sum_sq, chunk) in self.sum_sq.iter_mut().zip(chunks) {
                let mut s = 0.0;
                for (&a, &b) in chunk.row(r).iter().zip(reference_row) {
                    let d = a - b;
                    s += d * d;
                }
                *sum_sq += s;
            }
            self.carry_offset += 1;
            self.rows += 1;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Pass 1: parallel accumulation
// ---------------------------------------------------------------------------

/// Width of one pass-1 reduction **segment**, in chunks.
///
/// Pass 1 folds the stream at two levels: chunks fold into self-anchored
/// segment partials ([`MomentSegment`]), and segment partials fold — in
/// segment order — into the stream accumulator. The segment is the unit of
/// *distribution*: a shard worker can compute any contiguous segment range
/// on its own (chunk sources skip ahead bit-exactly), serialize the
/// partials, and a coordinator folding them with
/// [`merge_moment_segments`] reproduces the single-process moments **bit
/// for bit**, because both paths run the identical two-level fold on the
/// identical partials. The width is a fixed constant — never derived from
/// the plan or the machine — precisely so that every process agrees on the
/// segmentation.
pub const MOMENT_SEGMENT_CHUNKS: usize = 4;

/// Number of pass-1 segments a stream of `n_chunks` chunks folds into.
pub fn moment_segment_count(n_chunks: usize) -> usize {
    n_chunks.div_ceil(MOMENT_SEGMENT_CHUNKS).max(1)
}

/// One self-anchored pass-1 segment partial: the accumulator state of
/// chunks `[index · W, index · W + n_chunks)` for
/// `W = `[`MOMENT_SEGMENT_CHUNKS`].
///
/// The partial folds per-chunk partials, each anchored at its **chunk's own
/// first record**, so it is a pure function of its chunk range — computable
/// by any process without access to the rest of the stream. Anchor
/// differences are reconciled deterministically by
/// [`CovarianceAccumulator::merge`]'s exact translation identity, both when
/// chunk partials fold into the segment and when segments fold into the
/// stream accumulator.
#[derive(Debug, Clone)]
pub struct MomentSegment {
    /// 0-based segment index within the stream.
    pub index: usize,
    /// Chunks this segment actually covered (`W` except possibly the last).
    pub n_chunks: usize,
    /// The self-anchored partial accumulator.
    pub accumulator: CovarianceAccumulator,
}

/// Sweeps the source once, from its first chunk, into a
/// [`CovarianceAccumulator`].
///
/// The sweep rides the same N-slot ring as pass 2
/// ([`accumulate_source_pipelined`] at the process default depth): chunk
/// reads (or, for random-access sources, chunk generation) overlap moment
/// accumulation, with per-chunk partials computed across the shared pool.
/// The fold is two-level: per-chunk partials merge in chunk order into a
/// self-anchored *segment* partial every [`MOMENT_SEGMENT_CHUNKS`] chunks,
/// and segment partials merge in segment order into the result. Each
/// per-chunk partial is anchored at its chunk's own first record, so it is
/// a function of its chunk alone, and both merge sequences are fixed by the
/// stream — so the result is bit-identical at every ring depth, on a 1-core
/// laptop, a many-core server, **and** a distributed run whose shards each
/// computed a segment range (see [`accumulate_moment_segments`] /
/// [`merge_moment_segments`]; the batch-mode fold
/// [`accumulate_source_with_batch`] is retained as the pinned reference the
/// equivalence tests compare against).
pub fn accumulate_source<S: RecordChunkSource + Send + ?Sized>(
    source: &mut S,
) -> Result<(CovarianceAccumulator, usize)> {
    accumulate_source_pipelined(source, default_pipeline_slots())
}

/// [`accumulate_source`] over an explicit N-slot ring: chunks are read on
/// the producer thread, or generated on the pool for a source with a
/// random-access view; the **transform** stage turns each chunk into a
/// partial accumulator anchored at the chunk's own first record, on the
/// shared pool, and the **merge** stage folds partials in chunk order into
/// segment partials and segments into the stream accumulator on the
/// calling thread. Every partial is a pure function of its chunk and the
/// merge sequence is exactly the one [`accumulate_source_with_batch`]
/// runs, so the result is bit-identical to the batch fold (and to a
/// distributed segment fold) at every `slots`.
pub fn accumulate_source_pipelined<S: RecordChunkSource + Send + ?Sized>(
    source: &mut S,
    slots: usize,
) -> Result<(CovarianceAccumulator, usize)> {
    let m = source.n_attributes();
    let mut acc = CovarianceAccumulator::new(m);
    let mut segment = CovarianceAccumulator::new(m);
    let mut segment_chunks = 0usize;
    let mut n_chunks = 0usize;
    ring_sweep(
        source,
        slots,
        None,
        |_, e| e,
        |_, chunk| chunk_partial(m, &chunk),
        |_, partial| {
            segment.merge(&partial)?;
            segment_chunks += 1;
            n_chunks += 1;
            if segment_chunks == MOMENT_SEGMENT_CHUNKS {
                acc.merge(&segment)?;
                segment = CovarianceAccumulator::new(m);
                segment_chunks = 0;
            }
            Ok(())
        },
    )?;
    if segment_chunks > 0 {
        acc.merge(&segment)?;
    }
    Ok((acc, n_chunks))
}

/// One chunk's pass-1 partial, anchored at the chunk's own first record
/// (an empty chunk gives an empty partial, which merges as a no-op).
fn chunk_partial(m: usize, chunk: &Matrix) -> Result<CovarianceAccumulator> {
    let mut partial = CovarianceAccumulator::new(m);
    partial.update_chunk(chunk)?;
    Ok(partial)
}

/// One sweep of `source` from its first chunk through the N-slot ring.
///
/// Where the chunks come from depends on the source. When it offers a
/// [`RandomAccess`](randrecon_data::chunks::RandomAccess) view, the ring's
/// read stage only hands out chunk indices and each chunk is generated
/// inside the transform stage, so generation fans out across the shared
/// pool with the per-chunk work. Otherwise the read stage pulls
/// `next_chunk` on the ring's producer thread. Either way `transform`
/// receives chunk `i` as `(i, chunk)`, `consume` gets the outputs in chunk
/// order, at most `slots` chunks are in flight, and `cancel` (if any) is
/// checked once per chunk before the chunk is handed out. `locate` wraps a
/// read, generation or cancellation error with the chunk index it hit.
fn ring_sweep<S, U, X, C>(
    source: &mut S,
    slots: usize,
    cancel: Option<&CancelToken>,
    locate: fn(usize, ReconError) -> ReconError,
    transform: X,
    consume: C,
) -> Result<()>
where
    S: RecordChunkSource + Send + ?Sized,
    U: Send,
    X: Fn(usize, Matrix) -> Result<U> + Sync,
    C: FnMut(usize, U) -> Result<()>,
{
    source.reset()?;
    let cancel = cancel.cloned();
    let check_cancel = move |index: usize| match &cancel {
        Some(token) if token.is_cancelled() => Err(locate(index, cancelled())),
        _ => Ok(()),
    };
    let mut next = 0usize;
    if let Some(view) = source.random_access() {
        let n_chunks = view.n_chunks();
        return pipeline_ring(
            slots,
            move || -> Result<Option<()>> {
                check_cancel(next)?;
                if next == n_chunks {
                    return Ok(None);
                }
                next += 1;
                Ok(Some(()))
            },
            |index, ()| match view.chunk_at(index) {
                Ok(Some(chunk)) => transform(index, chunk),
                Ok(None) => Err(locate(
                    index,
                    ReconError::InvalidInput {
                        reason: format!("random-access view of {n_chunks} chunks ended early"),
                    },
                )),
                Err(e) => Err(locate(index, e.into())),
            },
            consume,
        );
    }
    pipeline_ring(
        slots,
        move || -> Result<Option<Matrix>> {
            check_cancel(next)?;
            let chunk = source.next_chunk().map_err(|e| locate(next, e.into()))?;
            next += usize::from(chunk.is_some());
            Ok(chunk)
        },
        transform,
        consume,
    )
}

/// The error a tripped [`CancelToken`] stops a pass with.
fn cancelled() -> ReconError {
    ReconError::Cancelled {
        reason: "cell deadline exceeded or cancel token tripped".to_string(),
    }
}

/// Locates a pass-2 failure: a failing source read, chunk map, or sink
/// write is wrapped in [`ReconError::AtChunk`] with the 0-based index of the
/// chunk it hit, so torn writes and full disks report *where* in the stream
/// they died.
fn at_chunk(chunk: usize, source: ReconError) -> ReconError {
    ReconError::AtChunk {
        chunk,
        source: Box::new(source),
    }
}

/// [`accumulate_source`] with an explicit batch size (exposed so tests can
/// pin that the result does not depend on it).
pub fn accumulate_source_with_batch<S: RecordChunkSource + ?Sized>(
    source: &mut S,
    batch_size: usize,
) -> Result<(CovarianceAccumulator, usize)> {
    let m = source.n_attributes();
    let mut acc = CovarianceAccumulator::new(m);
    let mut n_chunks = 0usize;
    while let Some((segment, chunks)) = next_segment_partial(source, batch_size)? {
        n_chunks += chunks;
        acc.merge(&segment)?;
    }
    Ok((acc, n_chunks))
}

/// Reads the next segment (up to [`MOMENT_SEGMENT_CHUNKS`] chunks) into a
/// self-anchored partial: per-chunk partials, each anchored at its own first
/// record, merged in chunk order. Returns `None` once the source is
/// exhausted.
fn next_segment_partial<S: RecordChunkSource + ?Sized>(
    source: &mut S,
    batch_size: usize,
) -> Result<Option<(CovarianceAccumulator, usize)>> {
    let m = source.n_attributes();
    let batch_size = batch_size.max(1);
    let mut acc = CovarianceAccumulator::new(m);
    let mut chunks = 0usize;
    while chunks < MOMENT_SEGMENT_CHUNKS {
        let want = batch_size.min(MOMENT_SEGMENT_CHUNKS - chunks);
        let mut batch: Vec<Matrix> = Vec::with_capacity(want);
        while batch.len() < want {
            match source.next_chunk()? {
                Some(c) => batch.push(c),
                None => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        chunks += batch.len();
        let partials: Vec<CovarianceAccumulator> =
            randrecon_parallel::parallel_map_result(&batch, |chunk| chunk_partial(m, chunk))?;
        for partial in &partials {
            acc.merge(partial)?;
        }
    }
    if chunks == 0 {
        Ok(None)
    } else {
        Ok(Some((acc, chunks)))
    }
}

/// Computes the segment partials for segment range `[seg_lo, seg_hi)` of
/// the source — the shard-worker half of the distributed pass 1.
///
/// The source is reset and skipped ahead to the range (a pure cursor jump
/// for child-seeded synthetic/disguised sources), so a worker assigned a
/// mid-stream range never generates the prefix records. Each returned
/// partial is bit-identical to the one a full single-process sweep folds
/// at the same segment index. A range extending past the end of the stream
/// simply yields the segments that exist; the coordinator validates
/// coverage when it merges.
pub fn accumulate_moment_segments<S: RecordChunkSource + ?Sized>(
    source: &mut S,
    seg_lo: usize,
    seg_hi: usize,
) -> Result<Vec<MomentSegment>> {
    let batch_size = randrecon_parallel::max_threads().max(1);
    source.reset()?;
    source.skip_chunks(seg_lo.saturating_mul(MOMENT_SEGMENT_CHUNKS))?;
    let mut segments = Vec::new();
    for index in seg_lo..seg_hi {
        match next_segment_partial(source, batch_size)? {
            Some((accumulator, n_chunks)) => segments.push(MomentSegment {
                index,
                n_chunks,
                accumulator,
            }),
            None => break,
        }
    }
    Ok(segments)
}

/// Folds segment partials — which must tile `[0, segments.len())` in
/// order — into the stream accumulator, running the **identical** fold
/// [`accumulate_source`] runs. This is the coordinator's reduce step: fed
/// the journaled partials of a distributed pass 1, it reproduces the
/// single-process accumulator bit for bit. Returns the accumulator and the
/// total chunk count.
pub fn merge_moment_segments(
    m: usize,
    segments: &[MomentSegment],
) -> Result<(CovarianceAccumulator, usize)> {
    let mut acc = CovarianceAccumulator::new(m);
    let mut n_chunks = 0usize;
    for (expected, segment) in segments.iter().enumerate() {
        if segment.index != expected {
            return Err(ReconError::InvalidInput {
                reason: format!(
                    "segment partials do not tile the stream: expected segment {expected}, \
                     got {}",
                    segment.index
                ),
            });
        }
        n_chunks += segment.n_chunks;
        acc.merge(&segment.accumulator)?;
    }
    Ok((acc, n_chunks))
}

// ---------------------------------------------------------------------------
// The chunk-reconstructor abstraction and the generic two-pass driver
// ---------------------------------------------------------------------------

/// Pass-1 moment estimates of the disguised stream: everything a streaming
/// attack is allowed to learn before mapping chunks.
#[derive(Debug, Clone)]
pub struct StreamMoments {
    /// Records accumulated.
    pub n_records: usize,
    /// Chunks the source produced in pass 1.
    pub n_chunks: usize,
    /// Sample mean `μ̂_y` of the disguised records.
    pub mean: Vec<f64>,
    /// Unbiased sample covariance `Σ̂_y` of the disguised records.
    pub covariance: Matrix,
}

impl StreamMoments {
    /// Number of attributes.
    pub fn n_attributes(&self) -> usize {
        self.mean.len()
    }

    /// Finalizes moments from a fully folded stream accumulator (validates
    /// the stream shape exactly as
    /// [`StreamingDriver::accumulate_moments`] does). This is how a
    /// coordinator turns [`merge_moment_segments`]' output into the
    /// prepared-attack input, so distributed and single-process pass 1
    /// finalize through the same code.
    pub fn from_accumulator(acc: &CovarianceAccumulator, n_chunks: usize) -> Result<Self> {
        validate_stream(acc.n_attributes(), acc.count())?;
        Ok(StreamMoments {
            n_records: acc.count(),
            n_chunks,
            mean: acc.mean(),
            covariance: acc.covariance(),
        })
    }
}

/// A reconstruction attack expressed in streaming form: **prepare once**
/// from the streamed moments `(n, μ̂_y, Σ̂_y)`, then **map chunks
/// independently**.
///
/// Every attack in the paper's five-scheme comparison fits this contract —
/// the per-record reconstruction never depends on other records once the
/// stream-level statistics are fixed — which is what lets one generic
/// [`StreamingDriver`] run all of them with `O(chunk · m + m²)` memory.
pub trait ChunkReconstructor {
    /// The scheme's display name (matches the in-memory
    /// [`crate::traits::Reconstructor::name`]).
    fn name(&self) -> &'static str;

    /// Derives the attack's cached per-stream state (factorizations,
    /// eigenbases, prepared posteriors) from the pass-1 moments. Called
    /// exactly once per run.
    fn prepare(&self, moments: &StreamMoments, noise: &NoiseModel) -> Result<PreparedAttack>;

    /// Runs the attack end to end with the default (ring-pipelined)
    /// driver: two passes over `source`, reconstruction streamed into
    /// `sink`. Provided once here so every attack shares it; use a
    /// [`StreamingDriver`] directly to pick the ring depth or to share
    /// pass-1 moments across attacks.
    fn run<S, K>(&self, source: &mut S, noise: &NoiseModel, sink: &mut K) -> Result<StreamingReport>
    where
        Self: Sized,
        S: RecordChunkSource + Send + ?Sized,
        K: RecordSink + ?Sized,
    {
        StreamingDriver::default().run(self, source, noise, sink)
    }
}

/// The per-stream state a [`ChunkReconstructor`] prepares: a chunk map plus
/// the diagnostics that end up in the [`StreamingReport`].
pub struct PreparedAttack {
    /// The reconstruction applied independently to every chunk. `Send +
    /// Sync` so the ring-pipelined pass 2 may evaluate it off-thread.
    map: Box<dyn Fn(Matrix) -> Result<Matrix> + Send + Sync>,
    /// Covariance estimate the attack derived (attack-specific: clipped SPD
    /// `Σ̂_x` for BE-DR, raw symmetrized `Σ̂_x` for PCA-DR, disguised `Σ̂_y`
    /// for SF/NDR, diagonal prior variances for UDR).
    estimated_covariance: Matrix,
    /// Principal/signal components kept (projection attacks only).
    components_kept: Option<usize>,
    /// Eigenvalues driving the component choice, descending (projection
    /// attacks only).
    eigenvalues: Option<Vec<f64>>,
    /// Degradation notes from `prepare` (e.g. an SPD repair of the
    /// posterior system); surfaced through [`StreamingReport::warnings`].
    warnings: Vec<String>,
}

impl PreparedAttack {
    /// Wraps a chunk map and the covariance estimate it was derived from.
    pub fn new(
        estimated_covariance: Matrix,
        map: impl Fn(Matrix) -> Result<Matrix> + Send + Sync + 'static,
    ) -> Self {
        PreparedAttack {
            map: Box::new(map),
            estimated_covariance,
            components_kept: None,
            eigenvalues: None,
            warnings: Vec::new(),
        }
    }

    /// Attaches the spectral diagnostics of a projection attack.
    pub fn with_spectrum(mut self, components_kept: usize, eigenvalues: Vec<f64>) -> Self {
        self.components_kept = Some(components_kept);
        self.eigenvalues = Some(eigenvalues);
        self
    }

    /// Attaches degradation notes produced while preparing the attack.
    pub fn with_warnings(mut self, warnings: Vec<String>) -> Self {
        self.warnings = warnings;
        self
    }

    /// Applies the prepared reconstruction to one chunk of disguised
    /// records.
    pub fn map_chunk(&self, chunk: Matrix) -> Result<Matrix> {
        (self.map)(chunk)
    }
}

impl std::fmt::Debug for PreparedAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedAttack")
            .field("estimated_covariance", &self.estimated_covariance.shape())
            .field("components_kept", &self.components_kept)
            .finish_non_exhaustive()
    }
}

/// Diagnostics shared by the streaming attacks.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Records processed (both passes agreed on this count).
    pub n_records: usize,
    /// Chunks the source produced in pass 1.
    pub n_chunks: usize,
    /// Estimated original mean `μ̂_x` (= disguised mean; the noise is
    /// zero-mean).
    pub estimated_mean: Vec<f64>,
    /// Estimated covariance actually used by the attack (clipped SPD `Σ̂_x`
    /// for BE-DR, raw symmetrized `Σ̂_x` for PCA-DR, disguised `Σ̂_y` for
    /// SF/NDR, diagonal prior variances for UDR).
    pub estimated_covariance: Matrix,
    /// Principal/signal components kept (projection attacks only).
    pub components_kept: Option<usize>,
    /// Eigenvalues of the covariance estimate, descending (projection
    /// attacks only).
    pub eigenvalues: Option<Vec<f64>>,
    /// Degradation notes: non-empty when the attack recovered from a
    /// numerical failure (e.g. an eigenvalue-clipped SPD repair of
    /// `Σ̂_x + Σ_r`) instead of erroring. Deterministic for a given stream.
    pub warnings: Vec<String>,
    /// Wall-clock seconds of pass 2 charged to this attack: its prepare
    /// and chunk maps plus an equal share of the pass's shared work (chunk
    /// reads or generation, the sink). A one-member pass is charged its
    /// whole wall time. The only nondeterministic field.
    pub seconds: f64,
}

fn validate_stream(m: usize, n: usize) -> Result<()> {
    if m == 0 {
        return Err(ReconError::InvalidInput {
            reason: "record source has no attributes".to_string(),
        });
    }
    if n < 2 {
        return Err(ReconError::InvalidInput {
            reason: format!("need at least 2 records to estimate statistics, got {n}"),
        });
    }
    Ok(())
}

/// Mirrors `default_eigenvalue_floor` for the streaming path: the disguised
/// per-attribute variances are the diagonal of the accumulated `Σ̂_y`.
fn default_floor_from_disguised_covariance(sigma_y: &Matrix) -> f64 {
    let m = sigma_y.rows().max(1);
    let mean_var = sigma_y.diagonal().iter().sum::<f64>() / m as f64;
    (1e-6 * mean_var).max(1e-9)
}

/// The generic two-pass streaming engine: accumulate moments, prepare the
/// attack once, sweep the reconstructed chunks into the sink.
///
/// Pass 2 runs on an N-slot ring of depth [`slots`](Self::slots): the
/// source is read on a producer thread (a random-access source's chunks are
/// generated on the pool instead), chunk maps fan across the shared pool,
/// and the calling thread drains the sink, overlapping sink I/O with
/// compute. Chunks reach the sink in read order, so the output is
/// byte-identical at every depth — including one slot, the inline
/// sequential loop of [`StreamingDriver::sequential`] — and independent of
/// the worker count.
///
/// Pass 2 runs once per **group** of attacks over one stream
/// ([`run_group`](Self::run_group)): each chunk is read once and mapped
/// through every member, so a member's output is the one its own run would
/// produce. A single attack is the one-member group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingDriver {
    /// Bound on pass-2 chunks in flight between read and sink; 1 runs the
    /// read-map-sink loop inline with no overlap.
    pub slots: usize,
}

impl Default for StreamingDriver {
    /// A driver at the process-wide default depth
    /// (`RANDRECON_PIPELINE_SLOTS`, else twice the pool width clamped to
    /// `[2, 8]`).
    fn default() -> Self {
        StreamingDriver {
            slots: default_pipeline_slots(),
        }
    }
}

impl StreamingDriver {
    /// A driver whose pass 2 runs strictly sequentially (one slot, kept
    /// selectable for the determinism tests and for throughput
    /// comparisons).
    pub fn sequential() -> Self {
        StreamingDriver { slots: 1 }
    }

    /// Runs pass 1 only: sweeps the source once and returns its
    /// [`StreamMoments`]. Exposed so callers that run several attacks over
    /// the *same* stream (the five-scheme sweeps) accumulate once and share
    /// the result via [`run_group`](StreamingDriver::run_group) (or
    /// [`run_with_moments`](StreamingDriver::run_with_moments) for one
    /// attack) instead of re-sweeping per scheme.
    pub fn accumulate_moments<S: RecordChunkSource + Send + ?Sized>(
        source: &mut S,
    ) -> Result<StreamMoments> {
        let (acc, n_chunks) = accumulate_source(source)?;
        StreamMoments::from_accumulator(&acc, n_chunks)
    }

    /// Runs `attack` end to end: two passes over `source`, reconstruction
    /// streamed into `sink`.
    ///
    /// The source must replay the identical chunk sequence after
    /// [`reset`](RecordChunkSource::reset) (the trait contract); the driver
    /// verifies at least that both passes agree on the record count.
    pub fn run<A, S, K>(
        &self,
        attack: &A,
        source: &mut S,
        noise: &NoiseModel,
        sink: &mut K,
    ) -> Result<StreamingReport>
    where
        A: ChunkReconstructor + ?Sized,
        S: RecordChunkSource + Send + ?Sized,
        K: RecordSink + ?Sized,
    {
        let moments = Self::accumulate_moments(source)?;
        self.run_with_moments(attack, &moments, source, noise, sink)
    }

    /// Runs prepare + pass 2 against moments accumulated earlier (by
    /// [`accumulate_moments`](StreamingDriver::accumulate_moments)) from the
    /// **same** source, sweeping the reconstructed chunks into the sink.
    pub fn run_with_moments<A, S, K>(
        &self,
        attack: &A,
        moments: &StreamMoments,
        source: &mut S,
        noise: &NoiseModel,
        sink: &mut K,
    ) -> Result<StreamingReport>
    where
        A: ChunkReconstructor + ?Sized,
        S: RecordChunkSource + Send + ?Sized,
        K: RecordSink + ?Sized,
    {
        self.run_with_moments_cancellable(attack, moments, source, noise, sink, &CancelToken::new())
    }

    /// [`run_with_moments`](StreamingDriver::run_with_moments) under a
    /// cooperative [`CancelToken`]: the token is checked once per chunk
    /// before it is read (at every ring depth), so a tripped token or an
    /// expired deadline stops the sweep at the next chunk boundary with
    /// [`ReconError::Cancelled`] (wrapped in [`ReconError::AtChunk`] to
    /// locate where the stream stopped). This is the one-member
    /// [`run_group`](StreamingDriver::run_group).
    pub fn run_with_moments_cancellable<A, S, K>(
        &self,
        attack: &A,
        moments: &StreamMoments,
        source: &mut S,
        noise: &NoiseModel,
        sink: &mut K,
        cancel: &CancelToken,
    ) -> Result<StreamingReport>
    where
        A: ChunkReconstructor + ?Sized,
        S: RecordChunkSource + Send + ?Sized,
        K: RecordSink + ?Sized,
    {
        let start = Instant::now();
        let prepared = vec![attack.prepare(moments, noise)?];
        let busy = vec![start.elapsed()];
        let mut reports = self.pass_two(prepared, busy, moments, source, sink, cancel)?;
        Ok(reports.pop().expect("a one-member pass reports once"))
    }

    /// Pass 2 once for a whole group of attacks over the same stream: every
    /// member is prepared from the shared `moments` (in member order), the
    /// source is swept once, each chunk is mapped through every member (the
    /// last member takes the chunk's buffer, the others map a copy), and
    /// the sink receives all member outputs of a chunk together through
    /// [`RecordSink::consume_group`]. Returns one report per member, in
    /// member order; each member's output — hence a per-member
    /// [`MseSink::for_group`] sum — is bit-identical to a one-member run
    /// of that attack.
    ///
    /// The pass stops at the first failure: a prepare error (in member
    /// order) before any chunk is read, else the first failing map, read or
    /// sink write, located by chunk. `cancel` is checked once per chunk, as
    /// in [`run_with_moments_cancellable`](Self::run_with_moments_cancellable).
    /// Each report's [`seconds`](StreamingReport::seconds) is the member's
    /// own prepare and map time plus an equal share of the rest of the
    /// pass's wall time (reads, generation, scoring); when the maps ran in
    /// parallel and add up to more than the wall, the busy times are scaled
    /// down to it, so the members' seconds always sum to the pass's wall.
    pub fn run_group<S, K>(
        &self,
        attacks: &[&dyn ChunkReconstructor],
        moments: &StreamMoments,
        source: &mut S,
        noise: &NoiseModel,
        sink: &mut K,
        cancel: &CancelToken,
    ) -> Result<Vec<StreamingReport>>
    where
        S: RecordChunkSource + Send + ?Sized,
        K: RecordSink + ?Sized,
    {
        if attacks.is_empty() {
            return Err(ReconError::InvalidInput {
                reason: "a group pass needs at least one attack".to_string(),
            });
        }
        let mut prepared = Vec::with_capacity(attacks.len());
        let mut busy = Vec::with_capacity(attacks.len());
        for attack in attacks {
            let start = Instant::now();
            prepared.push(attack.prepare(moments, noise)?);
            busy.push(start.elapsed());
        }
        self.pass_two(prepared, busy, moments, source, sink, cancel)
    }

    /// The one pass-2 sweep behind [`run_group`](Self::run_group) and the
    /// single-attack runs: `prepared` holds the members' prepared attacks
    /// and `busy` their prepare times, which ran one after another just
    /// before the sweep, so the pass's wall time is their sum plus the
    /// sweep's.
    fn pass_two<S, K>(
        &self,
        prepared: Vec<PreparedAttack>,
        mut busy: Vec<Duration>,
        moments: &StreamMoments,
        source: &mut S,
        sink: &mut K,
        cancel: &CancelToken,
    ) -> Result<Vec<StreamingReport>>
    where
        S: RecordChunkSource + Send + ?Sized,
        K: RecordSink + ?Sized,
    {
        let n = moments.n_records;
        let start = Instant::now();
        let prepare: Duration = busy.iter().sum();
        let (last, others) = prepared.split_last().expect("a group has a member");
        // The ring's explicit stages (see [`ring_sweep`]): chunks are read
        // on the producer thread (or generated across the pool), then
        // reconstructed across the pool with up to `slots / 2` chunks in
        // flight, and sunk in chunk order on this thread. Delivery order
        // and the per-chunk maps are all independent of the depth, so the
        // sink sees the exact sequential byte stream at every slot count.
        let mut swept = 0usize;
        ring_sweep(
            source,
            self.slots,
            Some(cancel),
            at_chunk,
            |index, chunk| {
                let rows = chunk.rows();
                let mut outputs = Vec::with_capacity(prepared.len());
                let mut mapped = Vec::with_capacity(prepared.len());
                let mut map = |attack: &PreparedAttack, input: Matrix| -> Result<()> {
                    let map_start = Instant::now();
                    outputs.push(attack.map_chunk(input).map_err(|e| at_chunk(index, e))?);
                    mapped.push(map_start.elapsed());
                    Ok(())
                };
                for attack in others {
                    map(attack, chunk.clone())?;
                }
                map(last, chunk)?;
                Ok((rows, outputs, mapped))
            },
            |index, (rows, outputs, mapped)| {
                swept += rows;
                for (total, t) in busy.iter_mut().zip(mapped) {
                    *total += t;
                }
                sink.consume_group(&outputs).map_err(|e| at_chunk(index, e))
            },
        )?;
        if swept != n {
            return Err(ReconError::InvalidInput {
                reason: format!(
                    "source produced {swept} records on pass 2 but {n} on pass 1 — \
                     chunk sources must replay identically after reset"
                ),
            });
        }

        let seconds = member_seconds(prepare + start.elapsed(), &busy);
        Ok(prepared
            .into_iter()
            .zip(seconds)
            .map(|(prepared, seconds)| StreamingReport {
                n_records: n,
                n_chunks: moments.n_chunks,
                estimated_mean: moments.mean.clone(),
                estimated_covariance: prepared.estimated_covariance,
                components_kept: prepared.components_kept,
                eigenvalues: prepared.eigenvalues,
                warnings: prepared.warnings,
                seconds,
            })
            .collect())
    }
}

/// Splits a group pass's `wall` time over its members: each is charged its
/// own `busy` time plus an equal share of what is left; busy times that add
/// up to more than the wall (maps run in parallel) are scaled down to it.
fn member_seconds(wall: Duration, busy: &[Duration]) -> Vec<f64> {
    let wall = wall.as_secs_f64();
    let total: f64 = busy.iter().map(Duration::as_secs_f64).sum();
    if total > wall {
        busy.iter()
            .map(|b| wall * b.as_secs_f64() / total)
            .collect()
    } else {
        let shared = (wall - total) / busy.len() as f64;
        busy.iter().map(|b| b.as_secs_f64() + shared).collect()
    }
}

// ---------------------------------------------------------------------------
// The five streaming attacks
// ---------------------------------------------------------------------------

/// Streaming NDR (Section 4.1): the identity map `X̂ = Y`.
///
/// Worthless as an attack on its own, but the calibration baseline of every
/// figure — its streamed MSE is the empirical noise floor `σ²` — and the
/// degenerate corner of the [`ChunkReconstructor`] contract (prepare
/// nothing, map chunks through unchanged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingNdr;

impl ChunkReconstructor for StreamingNdr {
    fn name(&self) -> &'static str {
        "NDR"
    }

    fn prepare(&self, moments: &StreamMoments, _noise: &NoiseModel) -> Result<PreparedAttack> {
        Ok(PreparedAttack::new(moments.covariance.clone(), Ok))
    }
}

/// Streaming UDR (Section 4.2) with the Gaussian-moments prior.
///
/// Pass 1 streams the marginal moments; `prepare` builds one
/// [`PreparedPosterior`] per attribute from `μ̂_j = mean(Y_j)` and
/// `σ̂²_j = var(Y_j) − σ²_r,j` (Theorem 5.1 on the diagonal — exactly the
/// in-memory [`crate::udr::Udr`] estimates, read off the accumulated
/// moments instead of materialized columns); pass 2 maps every value
/// through its attribute's posterior mean. Gaussian noise takes the
/// closed-form shrinkage, uniform noise the grid-quadrature path. Moments
/// the posterior refuses (a non-finite value in the stream) fail as
/// [`ReconError::AtAttribute`], and a value it cannot answer as
/// [`ReconError::AtValue`], naming its attribute and its row within the
/// chunk.
///
/// The Agrawal–Srikant prior is deliberately absent here: it needs the full
/// empirical distribution of each attribute, not just moments, so it does
/// not fit the bounded-memory two-pass contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingUdr;

impl ChunkReconstructor for StreamingUdr {
    fn name(&self) -> &'static str {
        "UDR"
    }

    fn prepare(&self, moments: &StreamMoments, noise: &NoiseModel) -> Result<PreparedAttack> {
        let m = moments.n_attributes();
        let gaussian_noise = !matches!(noise, NoiseModel::IndependentUniform { .. });
        let mut posteriors = Vec::with_capacity(m);
        let mut prior_variances = Vec::with_capacity(m);
        for j in 0..m {
            let noise_variance = noise.marginal_variance(j, m)?;
            let var_x = prior_variance(moments.covariance.get(j, j), noise_variance);
            prior_variances.push(var_x);
            posteriors.push(
                PreparedPosterior::gaussian_moments(
                    moments.mean[j],
                    var_x,
                    noise_variance,
                    gaussian_noise,
                )
                .map_err(|source| ReconError::AtAttribute {
                    attribute: j,
                    source,
                })?,
            );
        }
        Ok(PreparedAttack::new(
            Matrix::from_diag(&prior_variances),
            move |mut chunk: Matrix| {
                for row in 0..chunk.rows() {
                    for (attribute, (value, posterior)) in
                        chunk.row_mut(row).iter_mut().zip(&posteriors).enumerate()
                    {
                        *value = posterior
                            .apply(*value)
                            .map_err(|source| ReconError::AtValue {
                                attribute,
                                row,
                                source,
                            })?;
                    }
                }
                Ok(chunk)
            },
        ))
    }
}

/// Streaming Spectral Filtering (Kargupta et al.) over a chunked source.
///
/// Pass 1 streams the **disguised** covariance `Σ̂_y`; `prepare`
/// eigendecomposes it once, classifies eigenvalues against the
/// Marčenko–Pastur noise bound (via
/// [`crate::spectral::SpectralFiltering::noise_eigenvalue_upper_bound`],
/// the same rule as the in-memory attack) and caches the signal eigenbasis;
/// pass 2 centers each chunk, projects it onto the signal subspace through
/// the fused `A·Bᵀ` kernel and adds the means back. When nothing clears the
/// bound, every chunk collapses to the mean vector — the in-memory
/// behaviour, chunk by chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingSf {
    /// Multiplier applied to the Marčenko–Pastur upper edge (1.0 is the
    /// textbook bound; see [`crate::spectral::SpectralFiltering`]).
    pub bound_multiplier: f64,
}

impl Default for StreamingSf {
    fn default() -> Self {
        StreamingSf {
            bound_multiplier: 1.0,
        }
    }
}

impl StreamingSf {
    /// Streaming SF with a custom bound multiplier (must be positive; the
    /// validation is the in-memory attack's, so the two can never diverge).
    pub fn with_bound_multiplier(multiplier: f64) -> Result<Self> {
        let sf = crate::spectral::SpectralFiltering::with_bound_multiplier(multiplier)?;
        Ok(StreamingSf {
            bound_multiplier: sf.bound_multiplier,
        })
    }
}

impl ChunkReconstructor for StreamingSf {
    fn name(&self) -> &'static str {
        "SF"
    }

    fn prepare(&self, moments: &StreamMoments, noise: &NoiseModel) -> Result<PreparedAttack> {
        let m = moments.n_attributes();
        let noise_cov = noise.covariance(m)?;
        let avg_noise_variance = noise_cov.trace() / m as f64;
        let bound = self.bound_multiplier
            * crate::spectral::SpectralFiltering::noise_eigenvalue_upper_bound(
                avg_noise_variance,
                moments.n_records,
                m,
            );

        let sigma_y = moments.covariance.clone();
        let eigen = SymmetricEigen::new(&sigma_y)?;
        let signal_components = eigen.eigenvalues.iter().take_while(|&&l| l > bound).count();
        let mu = moments.mean.clone();

        let prepared = if signal_components == 0 {
            // Nothing is distinguishable from noise: predict the mean for
            // every record of every chunk.
            PreparedAttack::new(sigma_y, move |chunk: Matrix| {
                let mut out = Matrix::zeros(chunk.rows(), mu.len());
                out.add_row_broadcast(&mu)?;
                Ok(out)
            })
        } else {
            let q_signal = eigen.eigenvectors.leading_columns(signal_components)?;
            PreparedAttack::new(sigma_y, centered_projection_map(q_signal, mu))
        };
        Ok(prepared.with_spectrum(signal_components, eigen.eigenvalues))
    }
}

/// Streaming BE-DR (Equation 11 / Theorem 8.1) over a chunked source.
///
/// `prepare` derives the posterior maps `data_pullᵀ = T⁻¹ Σ̂_x` and
/// `prior_pull = Σ_r T⁻¹ μ̂_x` (with `T = Σ̂_x + Σ_r`) from **one** Cholesky
/// factorization, exactly like the in-memory [`crate::be_dr::BeDr`]; pass 2
/// sweeps chunks through the cached solve products, multiplying each chunk
/// in place ([`Matrix::matmul_square_in_place`]) and returning the same
/// buffer. Peak memory: one chunk plus a handful of `m × m` matrices.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamingBeDr {
    /// Eigenvalue floor for regularizing `Σ̂_x`; `None` uses the same default
    /// rule as the in-memory attack (1e-6 × mean disguised variance).
    pub eigenvalue_floor: Option<f64>,
}

impl StreamingBeDr {
    /// Streaming BE-DR with an explicit eigenvalue floor.
    pub fn with_eigenvalue_floor(floor: f64) -> Result<Self> {
        if !(floor > 0.0 && floor.is_finite()) {
            return Err(ReconError::InvalidParameter {
                reason: format!("eigenvalue floor must be positive, got {floor}"),
            });
        }
        Ok(StreamingBeDr {
            eigenvalue_floor: Some(floor),
        })
    }
}

impl ChunkReconstructor for StreamingBeDr {
    fn name(&self) -> &'static str {
        "BE-DR"
    }

    fn prepare(&self, moments: &StreamMoments, noise: &NoiseModel) -> Result<PreparedAttack> {
        let m = moments.n_attributes();
        let sigma_r = noise.covariance(m)?;
        let sigma_y = &moments.covariance;

        let mut raw = sigma_y.clone();
        raw.sub_assign_matrix(&sigma_r)?;
        raw.symmetrize_in_place()?;
        let floor = self
            .eigenvalue_floor
            .unwrap_or_else(|| default_floor_from_disguised_covariance(sigma_y));
        let sigma_x = clip_eigenvalues(&raw, floor)?;

        // One factorization of T = Σ̂_x + Σ_r serves every chunk of pass 2.
        // Streamed moment estimates can leave T numerically indefinite; the
        // repair path escalates the clip floor on Σ̂_x and rebuilds T so the
        // pull matrices stay pair-consistent instead of killing the stream
        // (see [`factor_posterior_system`]).
        let (t_chol, sigma_x, warnings) =
            factor_posterior_system(sigma_x, &sigma_r, "streaming BE-DR")?;
        let data_pull_t = t_chol.solve_matrix(&sigma_x)?;
        let prior_pull = sigma_r.matvec(&t_chol.solve_vec(&moments.mean)?)?;

        Ok(PreparedAttack::new(sigma_x, move |mut chunk: Matrix| {
            chunk.matmul_square_in_place(&data_pull_t)?;
            chunk.add_row_broadcast(&prior_pull)?;
            Ok(chunk)
        })
        .with_warnings(warnings))
    }
}

/// Streaming PCA-DR (Section 5) over a chunked source.
///
/// `prepare` eigendecomposes `Σ̂_x = Σ̂_y − Σ_r` once and caches the leading
/// `p` eigenvectors; pass 2 centers each chunk, projects it onto the
/// principal subspace (`(Y_c Q̂) Q̂ᵀ`, through the fused `A·Bᵀ` kernel) and
/// adds the means back.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamingPcaDr {
    /// How many principal components to keep.
    pub selection: ComponentSelection,
}

impl StreamingPcaDr {
    /// Streaming PCA-DR with the largest-gap selection rule (the paper's
    /// choice).
    pub fn largest_gap() -> Self {
        StreamingPcaDr {
            selection: ComponentSelection::LargestGap,
        }
    }

    /// Streaming PCA-DR keeping exactly `p` components.
    pub fn with_fixed_components(p: usize) -> Self {
        StreamingPcaDr {
            selection: ComponentSelection::FixedCount(p),
        }
    }
}

impl ChunkReconstructor for StreamingPcaDr {
    fn name(&self) -> &'static str {
        "PCA-DR"
    }

    fn prepare(&self, moments: &StreamMoments, noise: &NoiseModel) -> Result<PreparedAttack> {
        let m = moments.n_attributes();
        let sigma_r = noise.covariance(m)?;

        let mut sigma_x = moments.covariance.clone();
        sigma_x.sub_assign_matrix(&sigma_r)?;
        sigma_x.symmetrize_in_place()?;

        let eigen = SymmetricEigen::new(&sigma_x)?;
        let p = self.selection.select(&eigen.eigenvalues)?;
        let q_hat = eigen.eigenvectors.leading_columns(p)?;
        let mu = moments.mean.clone();

        Ok(
            PreparedAttack::new(sigma_x, centered_projection_map(q_hat, mu))
                .with_spectrum(p, eigen.eigenvalues),
        )
    }
}

/// The chunk map both projection attacks (SF and PCA-DR) sweep with: center
/// against the stream means, project onto the cached basis `Q` (through the
/// fused `A·Bᵀ` kernel, so `Qᵀ` is never formed) and add the means back.
fn centered_projection_map(
    q: Matrix,
    mu: Vec<f64>,
) -> impl Fn(Matrix) -> Result<Matrix> + Send + Sync {
    let neg_mu: Vec<f64> = mu.iter().map(|&v| -v).collect();
    move |mut chunk: Matrix| {
        chunk.add_row_broadcast(&neg_mu)?;
        let mut projected = chunk.matmul(&q)?.matmul_transpose_b(&q)?;
        projected.add_row_broadcast(&mu)?;
        Ok(projected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_data::chunks::{SyntheticChunkSource, TableChunkSource};
    use randrecon_data::synthetic::EigenSpectrum;
    use randrecon_noise::additive::{AdditiveRandomizer, DisguisedChunkSource};

    fn disguised_synthetic(
        n: usize,
        m: usize,
        chunk: usize,
        sigma: f64,
        seed: u64,
    ) -> DisguisedChunkSource<SyntheticChunkSource> {
        let spectrum = EigenSpectrum::principal_plus_small(3, 200.0, m, 2.0).unwrap();
        let original = SyntheticChunkSource::generate(&spectrum, n, chunk, seed).unwrap();
        DisguisedChunkSource::new(
            original,
            AdditiveRandomizer::gaussian(sigma).unwrap(),
            seed + 1,
        )
    }

    #[test]
    fn streaming_be_dr_reduces_noise_against_original_stream() {
        let n = 4_000;
        let m = 12;
        let sigma = 8.0;
        let mut disguised = disguised_synthetic(n, m, 256, sigma, 41);
        let mut original = disguised.inner().clone();
        let noise = disguised.model().clone();

        let mut sink = MseSink::new(&mut original).unwrap();
        let report = StreamingBeDr::default()
            .run(&mut disguised, &noise, &mut sink)
            .unwrap();
        assert_eq!(report.n_records, n);
        assert_eq!(report.n_chunks, n.div_ceil(256));
        assert_eq!(sink.rows(), n);
        // The attack must beat the raw noise floor σ² by a wide margin on
        // this highly correlated workload.
        let mse = sink.mse();
        assert!(
            mse < 0.5 * sigma * sigma,
            "BE-DR mse {mse} should be far below σ² = {}",
            sigma * sigma
        );
        assert!(report.estimated_covariance.is_symmetric(1e-9));
        assert_eq!(report.estimated_mean.len(), m);
        assert!(
            report.warnings.is_empty(),
            "well-conditioned streams must not degrade: {:?}",
            report.warnings
        );
    }

    #[test]
    fn driver_constructors_pick_the_ring_depth() {
        assert_eq!(StreamingDriver::sequential(), StreamingDriver { slots: 1 });
        assert_eq!(StreamingDriver::default().slots, default_pipeline_slots());
        assert!(StreamingDriver::default().slots >= 1);
    }

    #[test]
    fn cancelled_token_stops_pass_two_in_both_pipeline_modes() {
        let mut disguised = disguised_synthetic(2_000, 8, 128, 5.0, 47);
        let noise = disguised.model().clone();
        let moments = StreamingDriver::accumulate_moments(&mut disguised).unwrap();
        for driver in [StreamingDriver::default(), StreamingDriver::sequential()] {
            let token = CancelToken::new();
            token.trip();
            let mut sink = DiscardSink::default();
            let err = driver
                .run_with_moments_cancellable(
                    &StreamingBeDr::default(),
                    &moments,
                    &mut disguised,
                    &noise,
                    &mut sink,
                    &token,
                )
                .unwrap_err();
            assert!(err.is_cancelled(), "expected cancellation, got: {err}");
            assert_eq!(sink.rows(), 0, "no chunk may flow after cancellation");
        }
        // An untripped token without deadline never interferes.
        let mut sink = DiscardSink::default();
        StreamingDriver::default()
            .run_with_moments_cancellable(
                &StreamingBeDr::default(),
                &moments,
                &mut disguised,
                &noise,
                &mut sink,
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(sink.rows(), 2_000);
    }

    #[test]
    fn streaming_pca_dr_recovers_component_count() {
        let n = 3_000;
        let m = 16;
        let mut disguised = disguised_synthetic(n, m, 500, 6.0, 43);
        let noise = disguised.model().clone();
        let mut sink = DiscardSink::default();
        let report = StreamingPcaDr::largest_gap()
            .run(&mut disguised, &noise, &mut sink)
            .unwrap();
        assert_eq!(report.components_kept, Some(3));
        assert_eq!(sink.rows(), n);
        let eigenvalues = report.eigenvalues.unwrap();
        assert_eq!(eigenvalues.len(), m);
        for w in eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn csv_sink_streams_reconstruction_to_disk() {
        let mut disguised = disguised_synthetic(300, 5, 64, 4.0, 45);
        let noise = disguised.model().clone();
        let path = std::env::temp_dir().join(format!(
            "randrecon_streaming_sink_{}.csv",
            std::process::id()
        ));
        let schema = randrecon_data::Schema::anonymous(5).unwrap();
        let mut sink = CsvChunkWriter::create(&path, &schema).unwrap();
        StreamingBeDr::default()
            .run(&mut disguised, &noise, &mut sink)
            .unwrap();
        assert_eq!(sink.rows_written(), 300);
        sink.finish().unwrap();
        let written = randrecon_data::csv::read_csv_file(&path).unwrap();
        assert_eq!(written.values().shape(), (300, 5));
        assert!(!written.values().has_non_finite());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mse_sink_bridges_mismatched_chunk_boundaries() {
        // Reference chunked by 7, reconstruction chunked by 5: the carry
        // buffer has to split and stitch chunks. Identical streams → MSE 0.
        let values = Matrix::from_fn(23, 3, |i, j| (i * 3 + j) as f64);
        let table = randrecon_data::DataTable::from_matrix(values.clone()).unwrap();
        let mut reference = TableChunkSource::new(&table, 7).unwrap();
        let mut sink = MseSink::new(&mut reference).unwrap();
        let mut start = 0;
        while start < 23 {
            let end = (start + 5).min(23);
            sink.consume_chunk(&values.submatrix(start, end, 0, 3).unwrap())
                .unwrap();
            start = end;
        }
        assert_eq!(sink.rows(), 23);
        assert_eq!(sink.mse(), 0.0);
        assert_eq!(sink.rmse(), 0.0);

        // A shifted stream yields the exact per-value offset squared.
        let mut reference = TableChunkSource::new(&table, 7).unwrap();
        let mut sink = MseSink::new(&mut reference).unwrap();
        let shifted = values.map(|v| v + 2.0);
        sink.consume_chunk(&shifted).unwrap();
        assert!((sink.mse() - 4.0).abs() < 1e-12);
        // Overrunning the reference errors out.
        assert!(sink.consume_chunk(&shifted).is_err());
    }

    #[test]
    fn engine_rejects_tiny_streams_and_bad_floors() {
        let values = Matrix::from_fn(1, 3, |_, j| j as f64);
        let table = randrecon_data::DataTable::from_matrix(values).unwrap();
        let mut source = TableChunkSource::new(&table, 8).unwrap();
        let noise = NoiseModel::independent_gaussian(1.0).unwrap();
        let mut sink = DiscardSink::default();
        assert!(StreamingBeDr::default()
            .run(&mut source, &noise, &mut sink)
            .is_err());
        assert!(StreamingBeDr::with_eigenvalue_floor(0.0).is_err());
        assert!(StreamingBeDr::with_eigenvalue_floor(f64::NAN).is_err());
        assert!(StreamingBeDr::with_eigenvalue_floor(1e-4).is_ok());
    }

    #[test]
    fn accumulation_is_bit_identical_across_batch_sizes() {
        // The batch size is `max_threads()` in production, i.e. machine-
        // dependent — so the accumulated statistics must not depend on it.
        // Every chunk becomes a partial anchored at its own first record and
        // merges in chunk order, whatever the batching.
        let spectrum = EigenSpectrum::principal_plus_small(2, 90.0, 6, 1.0).unwrap();
        let source = SyntheticChunkSource::generate(&spectrum, 700, 64, 17).unwrap();
        let mut reference: Option<(Matrix, Vec<f64>)> = None;
        for batch_size in [1usize, 2, 3, 8, 64] {
            let mut src = source.clone();
            src.reset().unwrap();
            let (acc, chunks) = super::accumulate_source_with_batch(&mut src, batch_size).unwrap();
            assert_eq!(acc.count(), 700);
            assert_eq!(chunks, 700usize.div_ceil(64));
            let cov = acc.covariance();
            let mean = acc.mean();
            match &reference {
                None => reference = Some((cov, mean)),
                Some((ref_cov, ref_mean)) => {
                    assert!(
                        cov.approx_eq(ref_cov, 0.0),
                        "covariance changed with batch size {batch_size}"
                    );
                    assert_eq!(&mean, ref_mean, "mean changed with batch size {batch_size}");
                }
            }
        }
    }

    #[test]
    fn table_sink_roundtrips_and_validates() {
        let mut sink = TableSink::new(2);
        sink.consume_chunk(&Matrix::from_fn(3, 2, |i, j| (i + j) as f64))
            .unwrap();
        assert!(sink.consume_chunk(&Matrix::zeros(1, 3)).is_err());
        assert_eq!(sink.rows(), 3);
        let m = sink.into_matrix().unwrap();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.get(2, 1), 3.0);
    }
}
