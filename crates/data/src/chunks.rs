//! Chunked record sources — bounded-memory access to large record sets.
//!
//! The streaming attack engine in `randrecon-core` never materializes an
//! `n × m` record matrix: it sweeps a [`RecordChunkSource`] twice (pass 1
//! accumulates means and covariance, pass 2 reconstructs chunk by chunk), so
//! its peak memory is `O(chunk · m + m²)` regardless of `n`. This module
//! defines the source abstraction and the two in-crate implementations:
//!
//! * [`TableChunkSource`] — chunked views over an in-memory [`DataTable`]
//!   (the adapter the streaming-vs-in-memory equivalence tests use, because
//!   both paths then consume the *same* records);
//! * [`SyntheticChunkSource`] — the Section 7.1 workload generator emitting
//!   records chunk by chunk, so a 500 k-record benchmark never allocates
//!   more than one chunk of rows.
//!
//! The chunked CSV reader ([`crate::csv::CsvChunkReader`]) and the
//! chunk-wise disguising adapter (`randrecon-noise`) implement the same
//! trait.
//!
//! Sources whose chunk `i` is a pure function of `i` (the synthetic
//! generator, and the disguising adapter over it) also offer a
//! [`RandomAccess`] view, which lets the streaming engine generate chunks
//! concurrently across its thread pool instead of on one reader thread.

use crate::error::{DataError, Result};
use crate::synthetic::{covariance_from_spectrum, random_orthogonal, EigenSpectrum};
use crate::table::DataTable;
use randrecon_linalg::Matrix;
use randrecon_stats::mvn::{MultivariateNormal, MvnChunkSampler};
use randrecon_stats::rng::seeded_rng;

/// A restartable source of record chunks.
///
/// Implementations hand out the records of one logical `n × m` data set as a
/// sequence of `rows × m` matrices (every chunk has the full attribute width;
/// only the row count varies, and only the final chunk may be short).
///
/// # Contract
///
/// * [`reset`](RecordChunkSource::reset) rewinds to the beginning, and the
///   subsequent sweep must produce the **identical** chunk sequence — same
///   boundaries, same values. The two-pass streaming engine estimates
///   statistics on the first sweep and reconstructs on the second, so a
///   source that resamples on reset would silently corrupt the attack.
/// * `next_chunk` returns `Ok(None)` exactly once the source is exhausted;
///   calling it again keeps returning `Ok(None)` until the next `reset`.
/// * A [`random_access`](RecordChunkSource::random_access) view, when
///   offered, hands out exactly the chunks of a full sweep: `chunk_at(i)` is
///   bit-identical to the `i`-th `next_chunk` after a `reset`.
pub trait RecordChunkSource {
    /// Number of attributes (columns) of every chunk.
    fn n_attributes(&self) -> usize;

    /// Total record count if it is known up front (`None` for sources that
    /// only discover their length by sweeping, e.g. CSV files).
    fn n_records_hint(&self) -> Option<usize>;

    /// Rewinds to the first chunk. The next sweep must replay the identical
    /// chunk sequence (see the trait-level contract).
    fn reset(&mut self) -> Result<()>;

    /// Returns the next chunk, or `None` when the source is exhausted.
    fn next_chunk(&mut self) -> Result<Option<Matrix>>;

    /// Skips the next `n_chunks` chunks without yielding them.
    ///
    /// Equivalent to calling [`next_chunk`](RecordChunkSource::next_chunk)
    /// `n_chunks` times and discarding the results — the provided default
    /// does exactly that, so the subsequent chunk sequence is identical
    /// either way. Sources whose chunks are independently (child-)seeded
    /// override this with a cursor jump, which is what makes distributed
    /// pass-1 segment assignment cheap: a shard worker can start
    /// accumulating at chunk `k` without generating the prefix.
    fn skip_chunks(&mut self, n_chunks: usize) -> Result<()> {
        for _ in 0..n_chunks {
            if self.next_chunk()?.is_none() {
                break;
            }
        }
        Ok(())
    }

    /// A shareable random-access view of a full sweep's chunks, if this
    /// source can produce any chunk on its own.
    ///
    /// The provided default offers none, and the streaming engine then reads
    /// sequentially through [`next_chunk`](RecordChunkSource::next_chunk).
    /// Sources whose chunks are independently (child-)seeded override it;
    /// the engine then hands out chunk indices and generates the chunks
    /// concurrently, in its transform stage, across the thread pool. The
    /// view leaves the cursor alone.
    fn random_access(&self) -> Option<RandomAccess<'_>> {
        None
    }
}

/// Random access to the chunks of one full sweep of a source: the chunk
/// count plus `chunk_at(i)`, callable from any thread and in any order.
///
/// `chunk_at(i)` returns the same chunk the `i`-th
/// [`next_chunk`](RecordChunkSource::next_chunk) of a sweep returns, and
/// `Ok(None)` for `i ≥ n_chunks()`.
pub struct RandomAccess<'a> {
    n_chunks: usize,
    chunk_at: ChunkAt<'a>,
}

/// The chunk generator behind a [`RandomAccess`] view.
type ChunkAt<'a> = Box<dyn Fn(usize) -> Result<Option<Matrix>> + Send + Sync + 'a>;

impl<'a> RandomAccess<'a> {
    /// A view of `n_chunks` chunks drawn by `chunk_at`.
    pub fn new(
        n_chunks: usize,
        chunk_at: impl Fn(usize) -> Result<Option<Matrix>> + Send + Sync + 'a,
    ) -> Self {
        RandomAccess {
            n_chunks,
            chunk_at: Box::new(chunk_at),
        }
    }

    /// Chunks in a full sweep.
    pub fn n_chunks(&self) -> usize {
        self.n_chunks
    }

    /// Chunk `index`, or `None` past the last one.
    pub fn chunk_at(&self, index: usize) -> Result<Option<Matrix>> {
        if index >= self.n_chunks {
            return Ok(None);
        }
        (self.chunk_at)(index)
    }
}

/// Chunked views over an in-memory table (or bare record matrix).
///
/// Each chunk is a copy of `chunk_rows` consecutive rows, so the streaming
/// engine exercises exactly the same code path it would against a disk or
/// generator source while consuming records that also exist in memory —
/// which is what the equivalence tests compare against.
#[derive(Debug, Clone)]
pub struct TableChunkSource<'a> {
    values: &'a Matrix,
    chunk_rows: usize,
    cursor: usize,
}

impl<'a> TableChunkSource<'a> {
    /// Chunked source over a table's records.
    pub fn new(table: &'a DataTable, chunk_rows: usize) -> Result<Self> {
        Self::from_matrix(table.values(), chunk_rows)
    }

    /// Chunked source over a bare record matrix (rows are records).
    pub fn from_matrix(values: &'a Matrix, chunk_rows: usize) -> Result<Self> {
        if chunk_rows == 0 {
            return Err(DataError::Stream {
                reason: "chunk_rows must be at least 1".to_string(),
            });
        }
        Ok(TableChunkSource {
            values,
            chunk_rows,
            cursor: 0,
        })
    }
}

impl RecordChunkSource for TableChunkSource<'_> {
    fn n_attributes(&self) -> usize {
        self.values.cols()
    }

    fn n_records_hint(&self) -> Option<usize> {
        Some(self.values.rows())
    }

    fn reset(&mut self) -> Result<()> {
        self.cursor = 0;
        Ok(())
    }

    fn next_chunk(&mut self) -> Result<Option<Matrix>> {
        let n = self.values.rows();
        if self.cursor >= n {
            return Ok(None);
        }
        let end = (self.cursor + self.chunk_rows).min(n);
        let chunk = self
            .values
            .submatrix(self.cursor, end, 0, self.values.cols())?;
        self.cursor = end;
        Ok(Some(chunk))
    }

    fn skip_chunks(&mut self, n_chunks: usize) -> Result<()> {
        self.cursor = self
            .cursor
            .saturating_add(n_chunks.saturating_mul(self.chunk_rows))
            .min(self.values.rows());
        Ok(())
    }
}

/// The Section 7.1 synthetic workload as a chunked source.
///
/// Builds the same ground-truth structure as
/// [`crate::synthetic::SyntheticDataset`] — a random orthogonal eigenbasis
/// `Q`, the covariance `C = Q Λ Qᵀ` — but samples the multivariate-normal
/// records lazily through a restartable [`MvnChunkSampler`], so generating a
/// 500 k-record workload allocates one chunk at a time instead of the full
/// table. Each chunk is a single buffer: its normal draws are transformed
/// into records in place, and the disguising adapter and BE-DR's map keep
/// working in that buffer. The record *stream* differs from
/// `SyntheticDataset::generate` for the same seed (chunks are sampled from
/// child-seeded RNGs so resets replay exactly); the distribution is
/// identical. Because each chunk has its own seed, the source offers a
/// [`RandomAccess`] view.
#[derive(Debug, Clone)]
pub struct SyntheticChunkSource {
    sampler: MvnChunkSampler,
    covariance: Matrix,
    eigenvectors: Matrix,
    eigenvalues: Vec<f64>,
}

impl SyntheticChunkSource {
    /// Creates a chunked zero-mean synthetic workload from an eigenvalue
    /// spectrum (the paper's generation procedure, steps 1–4).
    pub fn generate(
        spectrum: &EigenSpectrum,
        n: usize,
        chunk_rows: usize,
        seed: u64,
    ) -> Result<Self> {
        if n < 2 {
            return Err(DataError::InvalidWorkload {
                reason: format!("need at least 2 records, got {n}"),
            });
        }
        let mut rng = seeded_rng(seed);
        let q = random_orthogonal(spectrum.len(), &mut rng)?;
        let covariance = covariance_from_spectrum(spectrum, &q)?;
        let mvn = MultivariateNormal::zero_mean(covariance.clone())?;
        let sampler = MvnChunkSampler::new(mvn, n, chunk_rows, seed)?;
        Ok(SyntheticChunkSource {
            sampler,
            covariance,
            eigenvectors: q,
            eigenvalues: spectrum.values().to_vec(),
        })
    }

    /// The exact covariance the records are drawn from.
    pub fn covariance(&self) -> &Matrix {
        &self.covariance
    }

    /// The orthonormal eigenvector basis `Q` (columns are eigenvectors).
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// The eigenvalue spectrum `Λ`.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }
}

impl RecordChunkSource for SyntheticChunkSource {
    fn n_attributes(&self) -> usize {
        self.sampler.dim()
    }

    fn n_records_hint(&self) -> Option<usize> {
        Some(self.sampler.n_records())
    }

    fn reset(&mut self) -> Result<()> {
        self.sampler.reset();
        Ok(())
    }

    fn next_chunk(&mut self) -> Result<Option<Matrix>> {
        Ok(self.sampler.next_chunk())
    }

    fn skip_chunks(&mut self, n_chunks: usize) -> Result<()> {
        self.sampler.skip_chunks(n_chunks);
        Ok(())
    }

    fn random_access(&self) -> Option<RandomAccess<'_>> {
        let sampler = &self.sampler;
        Some(RandomAccess::new(sampler.n_chunks(), move |index| {
            Ok(sampler.chunk_at(index))
        }))
    }
}

/// Drains a source into a single in-memory table (anonymous schema).
///
/// Convenience for tests and small workloads; it defeats the purpose of
/// streaming for large `n`, and says so in the name.
pub fn materialize<S: RecordChunkSource + ?Sized>(source: &mut S) -> Result<DataTable> {
    source.reset()?;
    let m = source.n_attributes();
    let mut rows: Vec<f64> = Vec::new();
    let mut n = 0usize;
    while let Some(chunk) = source.next_chunk()? {
        if chunk.cols() != m {
            return Err(DataError::Stream {
                reason: format!("chunk has {} columns, source promised {m}", chunk.cols()),
            });
        }
        n += chunk.rows();
        rows.extend_from_slice(chunk.as_slice());
    }
    DataTable::from_matrix(Matrix::from_flat(n, m, rows)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> DataTable {
        let values = Matrix::from_fn(13, 3, |i, j| (i * 3 + j) as f64);
        DataTable::from_matrix(values).unwrap()
    }

    #[test]
    fn table_source_covers_rows_in_order() {
        let t = table();
        let mut src = TableChunkSource::new(&t, 5).unwrap();
        assert_eq!(src.n_attributes(), 3);
        assert_eq!(src.n_records_hint(), Some(13));
        let mut seen = 0;
        let mut sizes = Vec::new();
        while let Some(chunk) = src.next_chunk().unwrap() {
            for r in 0..chunk.rows() {
                assert_eq!(chunk.row(r), t.record(seen + r));
            }
            seen += chunk.rows();
            sizes.push(chunk.rows());
        }
        assert_eq!(seen, 13);
        assert_eq!(sizes, vec![5, 5, 3]);
        // Exhausted stays exhausted until reset.
        assert!(src.next_chunk().unwrap().is_none());
        src.reset().unwrap();
        assert_eq!(src.next_chunk().unwrap().unwrap().rows(), 5);
    }

    #[test]
    fn table_source_rejects_zero_chunk() {
        let t = table();
        assert!(TableChunkSource::new(&t, 0).is_err());
    }

    #[test]
    fn synthetic_source_replays_identically_after_reset() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 50.0, 5, 1.0).unwrap();
        let mut src = SyntheticChunkSource::generate(&spectrum, 250, 64, 11).unwrap();
        assert_eq!(src.n_attributes(), 5);
        assert_eq!(src.n_records_hint(), Some(250));
        assert_eq!(src.eigenvalues().len(), 5);
        assert_eq!(src.eigenvectors().shape(), (5, 5));
        let first = materialize(&mut src).unwrap();
        let second = materialize(&mut src).unwrap();
        assert_eq!(first.n_records(), 250);
        assert!(first.approx_eq(&second, 0.0));
    }

    #[test]
    fn synthetic_random_access_is_the_sequential_sweep() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 50.0, 5, 1.0).unwrap();
        // 250 records in chunks of 64: three full chunks and a short one.
        let mut src = SyntheticChunkSource::generate(&spectrum, 250, 64, 11).unwrap();
        src.reset().unwrap();
        let mut sweep = Vec::new();
        while let Some(chunk) = src.next_chunk().unwrap() {
            sweep.push(chunk);
        }
        let view = src.random_access().expect("synthetic chunks are seekable");
        assert_eq!(view.n_chunks(), 4);
        // Out of order, as a thread pool would ask.
        for index in [3, 0, 2, 1] {
            let chunk = view.chunk_at(index).unwrap().unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(chunk.shape(), sweep[index].shape());
            assert_eq!(bits(&chunk), bits(&sweep[index]), "chunk {index}");
        }
        assert_eq!(view.chunk_at(3).unwrap().unwrap().rows(), 250 - 3 * 64);
        assert!(view.chunk_at(4).unwrap().is_none());
        drop(view);
        // The view leaves the exhausted cursor where it was.
        assert!(src.next_chunk().unwrap().is_none());
    }

    #[test]
    fn table_source_offers_no_random_access() {
        let t = table();
        assert!(TableChunkSource::new(&t, 5)
            .unwrap()
            .random_access()
            .is_none());
    }

    #[test]
    fn synthetic_source_matches_requested_covariance() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 50.0, 6, 1.0).unwrap();
        let mut src = SyntheticChunkSource::generate(&spectrum, 8_000, 512, 3).unwrap();
        let expected = src.covariance().clone();
        let all = materialize(&mut src).unwrap();
        let sample_cov = all.covariance_matrix();
        let rel = sample_cov.sub(&expected).unwrap().frobenius_norm() / expected.frobenius_norm();
        assert!(rel < 0.15, "relative covariance error {rel}");
    }

    #[test]
    fn synthetic_source_validates_input() {
        let spectrum = EigenSpectrum::principal_plus_small(1, 5.0, 3, 1.0).unwrap();
        assert!(SyntheticChunkSource::generate(&spectrum, 1, 10, 1).is_err());
        assert!(SyntheticChunkSource::generate(&spectrum, 10, 0, 1).is_err());
    }
}
