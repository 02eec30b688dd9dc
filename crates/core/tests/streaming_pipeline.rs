//! Pass-2 ring-pipeline determinism and failure robustness.
//!
//! The N-slot ring must be a pure latency optimization: its output must be
//! **byte-identical** to the one-slot sequential loop at every slot count
//! and independent of the worker count, so the overlap can never reorder,
//! drop, or duplicate a chunk. Slot independence is pinned in-process (every
//! depth in {2, 4, 8} hashes identically to one slot); worker-count
//! independence is pinned by re-executing this test binary under
//! `RANDRECON_THREADS` ∈ {1, 2, 4} (the pool reads the variable once at
//! startup, so varying it takes a fresh process) and comparing
//! reconstruction hashes across processes — together the two give the full
//! slots × workers matrix.
//!
//! Two workloads feed the hash: a disguised in-memory table, read
//! sequentially, and a disguised synthetic stream, whose chunks the driver
//! generates on the pool through the source's random-access view. The
//! synthetic stream is also run behind a wrapper that hides the view, and
//! both paths must give the same bytes at every slot and worker count. The
//! table also takes a CSV → CSV leg: written with `CsvChunkWriter`, read
//! back with `CsvChunkReader`, and reconstructed into a `CsvChunkWriter`
//! whose bytes enter the hash, so the banded CSV codec is pinned across
//! the same matrix.
//!
//! The failure-path tests pin that an error from the sink mid-pipeline
//! shuts the producer down and surfaces the located error instead of
//! wedging the ring's channel, at every slot count, and that a tripped
//! cancel token stops both read paths at the same chunk.

use randrecon_core::streaming::{
    CancelToken, ChunkReconstructor, RecordSink, StreamMoments, StreamingBeDr, StreamingDriver,
    StreamingNdr, StreamingPcaDr, StreamingSf, StreamingUdr, TableSink,
};
use randrecon_core::{ReconError, Result};
use randrecon_data::chunks::{RecordChunkSource, SyntheticChunkSource, TableChunkSource};
use randrecon_data::csv::{from_csv_string, CsvChunkReader, CsvChunkWriter};
use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
use randrecon_data::DataTable;
use randrecon_linalg::Matrix;
use randrecon_noise::additive::{AdditiveRandomizer, DisguisedChunkSource};
use randrecon_stats::rng::seeded_rng;

const N: usize = 1_200;
const M: usize = 12;
const CHUNK: usize = 128;

/// The ring depths the determinism and failure-path tests sweep; one slot
/// is the sequential reference.
const SLOT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Environment guard: set by the parent test when re-executing this binary
/// so only the child emits a hash.
const CHILD_GUARD: &str = "RANDRECON_PIPELINE_CHILD";

fn disguised_workload() -> (DataTable, AdditiveRandomizer) {
    let spectrum = EigenSpectrum::principal_plus_small(3, 250.0, M, 2.0).unwrap();
    let ds = SyntheticDataset::generate(&spectrum, N, 4242).unwrap();
    let randomizer = AdditiveRandomizer::gaussian(7.0).unwrap();
    let disguised = randomizer
        .disguise(&ds.table, &mut seeded_rng(4243))
        .unwrap();
    (disguised, randomizer)
}

/// A disguised synthetic stream: 1237 records, so the last chunk is short.
/// Its chunks are child-seeded, so it offers a random-access view.
fn synthetic_stream() -> DisguisedChunkSource<SyntheticChunkSource> {
    let spectrum = EigenSpectrum::principal_plus_small(3, 250.0, M, 2.0).unwrap();
    let original = SyntheticChunkSource::generate(&spectrum, N + 37, CHUNK, 4244).unwrap();
    DisguisedChunkSource::new(original, AdditiveRandomizer::gaussian(7.0).unwrap(), 4245)
}

/// Forwards everything but the random-access view, so the driver reads the
/// inner source sequentially on the ring's read stage.
struct SequentialOnly<S>(S);

impl<S: RecordChunkSource> RecordChunkSource for SequentialOnly<S> {
    fn n_attributes(&self) -> usize {
        self.0.n_attributes()
    }

    fn n_records_hint(&self) -> Option<usize> {
        self.0.n_records_hint()
    }

    fn reset(&mut self) -> randrecon_data::Result<()> {
        self.0.reset()
    }

    fn next_chunk(&mut self) -> randrecon_data::Result<Option<Matrix>> {
        self.0.next_chunk()
    }
}

fn attacks() -> Vec<Box<dyn ChunkReconstructor>> {
    vec![
        Box::new(StreamingNdr),
        Box::new(StreamingUdr),
        Box::new(StreamingSf::default()),
        Box::new(StreamingPcaDr::largest_gap()),
        Box::new(StreamingBeDr::default()),
    ]
}

fn fnv64(hash: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Runs `attack` over `source` through a ring of depth `slots`.
fn reconstruct<S: RecordChunkSource + Send + ?Sized>(
    slots: usize,
    attack: &dyn ChunkReconstructor,
    source: &mut S,
    noise: &randrecon_noise::NoiseModel,
) -> Matrix {
    let mut sink = TableSink::new(M);
    let report = StreamingDriver { slots }
        .run(attack, source, noise, &mut sink)
        .unwrap();
    assert_eq!(report.n_records, sink.rows(), "{}", attack.name());
    sink.into_matrix().unwrap()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Writes `table` as a CSV release with `CsvChunkWriter`, `CHUNK` records
/// at a time, to a file of its own (concurrent tests each write one).
fn write_release(table: &DataTable) -> std::path::PathBuf {
    static RELEASES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let release = RELEASES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "randrecon_pipeline_release_{}_{release}.csv",
        std::process::id()
    ));
    let mut writer = CsvChunkWriter::create(&path, table.schema()).unwrap();
    for first in (0..table.n_records()).step_by(CHUNK) {
        let last = (first + CHUNK).min(table.n_records());
        writer
            .write_chunk(&table.values().submatrix(first, last, 0, M).unwrap())
            .unwrap();
    }
    writer.finish().unwrap();
    path
}

/// Reconstructs both fixed workloads with every streaming attack through a
/// ring of the given depth and folds every output bit into one hash. The
/// synthetic stream runs on both read paths, which must agree bit for bit,
/// and the table runs CSV → CSV as well, which must reproduce the table
/// path's values and adds its output bytes to the hash.
fn pipeline_hash(slots: usize) -> u64 {
    let (disguised, randomizer) = disguised_workload();
    let noise = randomizer.model();
    let release = write_release(&disguised);
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for attack in attacks() {
        let mut source = TableChunkSource::new(&disguised, CHUNK).unwrap();
        let matrix = reconstruct(slots, attack.as_ref(), &mut source, noise);
        assert_eq!(matrix.rows(), N, "{}", attack.name());
        for &v in matrix.as_slice() {
            fnv64(&mut hash, v.to_bits().to_le_bytes());
        }

        let mut source = CsvChunkReader::open(&release, CHUNK).unwrap();
        let mut sink = CsvChunkWriter::new(Vec::new(), disguised.schema()).unwrap();
        StreamingDriver { slots }
            .run(attack.as_ref(), &mut source, noise, &mut sink)
            .unwrap();
        let written = sink.finish().unwrap();
        let read_back = from_csv_string(std::str::from_utf8(&written).unwrap()).unwrap();
        assert!(
            bits(read_back.values().as_slice()) == bits(matrix.as_slice()),
            "{} at {slots} slot(s): the CSV leg's values differ from the table path's",
            attack.name()
        );
        fnv64(&mut hash, written);

        let mut random_access = synthetic_stream();
        assert!(random_access.random_access().is_some());
        let noise = random_access.model().clone();
        let generated = reconstruct(slots, attack.as_ref(), &mut random_access, &noise);
        let mut sequential = SequentialOnly(synthetic_stream());
        assert!(sequential.random_access().is_none());
        let read = reconstruct(slots, attack.as_ref(), &mut sequential, &noise);
        assert_eq!(generated.rows(), N + 37, "{}", attack.name());
        assert!(
            bits(generated.as_slice()) == bits(read.as_slice()),
            "{} at {slots} slot(s): random-access and sequential reads differ",
            attack.name()
        );
        for &v in generated.as_slice() {
            fnv64(&mut hash, v.to_bits().to_le_bytes());
        }
    }
    std::fs::remove_file(&release).ok();
    hash
}

#[test]
fn random_access_and_sequential_reads_give_identical_moments() {
    let moments = |s: &StreamMoments| {
        (
            s.n_records,
            s.n_chunks,
            bits(&s.mean),
            bits(s.covariance.as_slice()),
        )
    };
    let generated = StreamingDriver::accumulate_moments(&mut synthetic_stream()).unwrap();
    let read =
        StreamingDriver::accumulate_moments(&mut SequentialOnly(synthetic_stream())).unwrap();
    assert_eq!(generated.n_chunks, (N + 37).div_ceil(CHUNK));
    assert_eq!(moments(&generated), moments(&read));
}

/// Trips its token while consuming chunk `trip_at`, then keeps accepting.
struct TrippingSink {
    token: CancelToken,
    trip_at: usize,
    consumed: usize,
}

impl RecordSink for TrippingSink {
    fn consume_chunk(&mut self, _chunk: &Matrix) -> Result<()> {
        if self.consumed == self.trip_at {
            self.token.trip();
        }
        self.consumed += 1;
        Ok(())
    }
}

/// The chunk index a cancelled pass 2 reports.
fn cancelled_at<S: RecordChunkSource + Send + ?Sized>(
    slots: usize,
    source: &mut S,
    token: &CancelToken,
    sink: &mut dyn RecordSink,
) -> usize {
    let moments = StreamingDriver::accumulate_moments(source).unwrap();
    let noise = randrecon_noise::NoiseModel::independent_gaussian(7.0).unwrap();
    let err = StreamingDriver { slots }
        .run_with_moments_cancellable(
            &StreamingBeDr::default(),
            &moments,
            source,
            &noise,
            sink,
            token,
        )
        .expect_err("a tripped token stops the pass");
    assert!(err.is_cancelled(), "{err}");
    match err {
        ReconError::AtChunk { chunk, .. } => chunk,
        other => panic!("cancellation is not located: {other}"),
    }
}

#[test]
fn tripped_cancel_token_stops_both_read_paths_at_the_same_chunk() {
    // A token tripped before the pass stops it at chunk 0 at every depth.
    for slots in SLOT_COUNTS {
        let token = CancelToken::new();
        token.trip();
        let mut sink = TableSink::new(M);
        assert_eq!(
            cancelled_at(slots, &mut synthetic_stream(), &token, &mut sink),
            0
        );
        let mut sequential = SequentialOnly(synthetic_stream());
        assert_eq!(cancelled_at(slots, &mut sequential, &token, &mut sink), 0);
        assert_eq!(sink.rows(), 0);
    }
    // Tripped while chunk 3 is sunk, the one-slot ring checks the token
    // before handing out chunk 4, whichever path supplies it.
    assert_eq!(cancelled_mid_stream(synthetic_stream()), (4, 4));
    assert_eq!(
        cancelled_mid_stream(SequentialOnly(synthetic_stream())),
        (4, 4)
    );
}

/// One-slot pass 2 with a sink that trips the token on chunk 3: the chunk
/// index the cancellation reports, and the chunks the sink saw.
fn cancelled_mid_stream<S: RecordChunkSource + Send>(mut source: S) -> (usize, usize) {
    let token = CancelToken::new();
    let mut sink = TrippingSink {
        token: token.clone(),
        trip_at: 3,
        consumed: 0,
    };
    let at = cancelled_at(1, &mut source, &token, &mut sink);
    (at, sink.consumed)
}

/// The sequential reference hash plus the assertion that every ring depth
/// reproduces it bit for bit *in this process* (i.e. at this worker count).
fn sequential_hash_with_slot_matrix() -> u64 {
    let reference = pipeline_hash(1);
    for slots in &SLOT_COUNTS[1..] {
        assert_eq!(
            pipeline_hash(*slots),
            reference,
            "ring at {slots} slot(s) must not change a single output bit"
        );
    }
    reference
}

#[test]
fn ring_output_is_byte_identical_to_sequential_at_every_slot_count() {
    sequential_hash_with_slot_matrix();
}

/// Child half of the worker-count matrix: under the guard variable, run the
/// full slot sweep at this process's worker count and emit the reference
/// hash for the parent to compare; otherwise pass trivially.
#[test]
fn child_emit_pipeline_hash() {
    if std::env::var(CHILD_GUARD).is_err() {
        return;
    }
    println!("PIPELINE_HASH={:016x}", sequential_hash_with_slot_matrix());
}

#[test]
fn pass2_output_is_byte_identical_across_worker_counts() {
    let exe = std::env::current_exe().expect("test binary path");
    let reference = sequential_hash_with_slot_matrix();
    for workers in [1usize, 2, 4] {
        let output = std::process::Command::new(&exe)
            .args(["--exact", "child_emit_pipeline_hash", "--nocapture"])
            .env(CHILD_GUARD, "1")
            .env("RANDRECON_THREADS", workers.to_string())
            .output()
            .expect("spawn child test process");
        assert!(
            output.status.success(),
            "child with {workers} workers failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        // libtest may glue the marker onto its own "test ... " line, so
        // search by substring rather than by line.
        let hash = stdout
            .split("PIPELINE_HASH=")
            .nth(1)
            .map(|rest| &rest[..16])
            .unwrap_or_else(|| panic!("child with {workers} workers printed no hash:\n{stdout}"));
        assert_eq!(
            u64::from_str_radix(hash, 16).unwrap(),
            reference,
            "pipeline output changed with RANDRECON_THREADS={workers}"
        );
    }
}

/// The `RANDRECON_PIPELINE_SLOTS` override must reach the default driver the
/// way the scenario engine constructs it; a child pinned to any depth must
/// reproduce the parent's sequential bytes.
#[test]
fn env_pinned_slot_count_reproduces_sequential_bytes() {
    let exe = std::env::current_exe().expect("test binary path");
    let reference = pipeline_hash(1);
    for slots in [1usize, 4] {
        let output = std::process::Command::new(&exe)
            .args(["--exact", "child_emit_pipeline_hash", "--nocapture"])
            .env(CHILD_GUARD, "1")
            .env("RANDRECON_PIPELINE_SLOTS", slots.to_string())
            .output()
            .expect("spawn child test process");
        assert!(
            output.status.success(),
            "child with {slots} slots failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        let hash = stdout
            .split("PIPELINE_HASH=")
            .nth(1)
            .map(|rest| &rest[..16])
            .unwrap_or_else(|| panic!("child with {slots} slots printed no hash:\n{stdout}"));
        assert_eq!(
            u64::from_str_radix(hash, 16).unwrap(),
            reference,
            "pipeline output changed with RANDRECON_PIPELINE_SLOTS={slots}"
        );
    }
}

/// `RANDRECON_PIPELINE_SLOTS` is the only ring-depth knob, so a value that
/// is not a positive integer stops the process with a message naming it
/// instead of silently falling back to the default depth.
#[test]
fn env_slot_count_rejects_invalid_values() {
    let exe = std::env::current_exe().expect("test binary path");
    for value in ["0", "four"] {
        let output = std::process::Command::new(&exe)
            .args(["--exact", "child_emit_pipeline_hash", "--nocapture"])
            .env(CHILD_GUARD, "1")
            .env("RANDRECON_PIPELINE_SLOTS", value)
            .output()
            .expect("spawn child test process");
        assert!(
            !output.status.success(),
            "child accepted RANDRECON_PIPELINE_SLOTS={value}"
        );
        let expected =
            format!("RANDRECON_PIPELINE_SLOTS must be a positive integer, got '{value}'");
        let printed = format!(
            "{}{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(printed.contains(&expected), "{printed}");
    }
}

/// A sink that accepts a fixed number of chunks and then fails, simulating
/// a full disk / broken pipe mid-stream.
struct FailingSink {
    accepted: usize,
    fail_after: usize,
}

impl RecordSink for FailingSink {
    fn consume_chunk(&mut self, chunk: &Matrix) -> Result<()> {
        if self.accepted >= self.fail_after {
            return Err(ReconError::InvalidInput {
                reason: format!(
                    "sink failed writing chunk {} ({} rows)",
                    self.accepted,
                    chunk.rows()
                ),
            });
        }
        self.accepted += 1;
        Ok(())
    }
}

#[test]
fn sink_failure_mid_pipeline_surfaces_the_error_instead_of_hanging() {
    let (disguised, randomizer) = disguised_workload();
    let noise = randomizer.model();
    for slots in SLOT_COUNTS {
        let mut source = TableChunkSource::new(&disguised, CHUNK).unwrap();
        let mut sink = FailingSink {
            accepted: 0,
            fail_after: 3,
        };
        let err = StreamingDriver { slots }
            .run(&StreamingBeDr::default(), &mut source, noise, &mut sink)
            .expect_err("the sink failure must propagate");
        let message = err.to_string();
        assert!(
            message.contains("sink failed writing chunk 3"),
            "{slots} slot(s): unexpected error: {message}"
        );
        // The producer shut down cleanly: the source can immediately run the
        // same attack again into a healthy sink.
        let mut sink = TableSink::new(M);
        StreamingBeDr::default()
            .run(&mut source, noise, &mut sink)
            .unwrap();
        assert_eq!(sink.rows(), N);
    }
}

/// A writer that fails with an I/O error after a byte budget — the
/// `CsvChunkWriter` sink path of the same failure mode.
struct FailingWriter {
    written: usize,
    budget: usize,
}

impl std::io::Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.written + buf.len() > self.budget {
            return Err(std::io::Error::other("device full (simulated)"));
        }
        self.written += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn csv_sink_io_failure_mid_pipeline_surfaces_the_error() {
    let (disguised, randomizer) = disguised_workload();
    let noise = randomizer.model();
    let schema = randrecon_data::Schema::anonymous(M).unwrap();
    for slots in SLOT_COUNTS {
        let mut source = TableChunkSource::new(&disguised, CHUNK).unwrap();
        // Enough budget for the header and a few chunks, then ENOSPC.
        let mut sink = randrecon_data::csv::CsvChunkWriter::new(
            FailingWriter {
                written: 0,
                budget: 16 * 1024,
            },
            &schema,
        )
        .unwrap();
        let err = StreamingDriver { slots }
            .run(&StreamingBeDr::default(), &mut source, noise, &mut sink)
            .expect_err("the I/O failure must propagate");
        assert!(
            err.to_string().contains("device full"),
            "{slots} slot(s): unexpected error: {err}"
        );
    }
}
