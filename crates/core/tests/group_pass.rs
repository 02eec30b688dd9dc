//! The group pass against one-member runs.
//!
//! `StreamingDriver::run_group` prepares every member once, sweeps the
//! source once and scores all members against one read of the original
//! stream. Each member must come out exactly as its own run would: the
//! same MSE bits (summed row by row, as a one-stream sink sums them),
//! warnings and kept components — for any subset and order of the five
//! schemes, under Gaussian, uniform and correlated noise, at
//! chunk sizes from 1 to n, on random-access and sequentially read
//! sources, and at any ring depth.

use proptest::prelude::*;
use randrecon_core::streaming::{
    CancelToken, ChunkReconstructor, DiscardSink, MseSink, RecordSink, StreamMoments,
    StreamingBeDr, StreamingDriver, StreamingNdr, StreamingPcaDr, StreamingReport, StreamingSf,
    StreamingUdr, TableSink,
};
use randrecon_data::chunks::{RecordChunkSource, SyntheticChunkSource, TableChunkSource};
use randrecon_data::synthetic::EigenSpectrum;
use randrecon_data::DataTable;
use randrecon_linalg::Matrix;
use randrecon_noise::additive::{AdditiveRandomizer, DisguisedChunkSource};
use randrecon_noise::correlated::{interpolated_spectrum, noise_covariance, SimilarityLevel};

const N: usize = 150;
const M: usize = 6;

fn scheme(index: usize) -> Box<dyn ChunkReconstructor> {
    match index {
        0 => Box::new(StreamingNdr),
        1 => Box::new(StreamingUdr),
        2 => Box::new(StreamingSf::default()),
        3 => Box::new(StreamingPcaDr::largest_gap()),
        _ => Box::new(StreamingBeDr::default()),
    }
}

/// The original stream and its disguise under noise model `noise` (0
/// Gaussian, 1 uniform, 2 correlated with the data's eigenvectors).
fn workload(
    noise: usize,
    chunk: usize,
    seed: u64,
) -> (
    SyntheticChunkSource,
    DisguisedChunkSource<SyntheticChunkSource>,
) {
    let spectrum = EigenSpectrum::principal_plus_small(2, 150.0, M, 2.0).unwrap();
    let original = SyntheticChunkSource::generate(&spectrum, N, chunk, seed).unwrap();
    let randomizer = match noise {
        0 => AdditiveRandomizer::gaussian(4.0).unwrap(),
        1 => AdditiveRandomizer::uniform(4.0).unwrap(),
        _ => {
            let shape =
                interpolated_spectrum(original.eigenvalues(), SimilarityLevel::similar(), 96.0)
                    .unwrap();
            let covariance = noise_covariance(original.eigenvectors(), &shape).unwrap();
            AdditiveRandomizer::correlated(covariance).unwrap()
        }
    };
    let disguised = DisguisedChunkSource::new(original.clone(), randomizer, seed ^ 0x5EED);
    (original, disguised)
}

/// Every record of `source`, read once through its sequential interface.
fn collect(source: &mut dyn RecordChunkSource) -> DataTable {
    source.reset().unwrap();
    let mut data = Vec::new();
    while let Some(chunk) = source.next_chunk().unwrap() {
        data.extend_from_slice(chunk.as_slice());
    }
    DataTable::from_matrix(Matrix::from_flat(data.len() / M, M, data).unwrap()).unwrap()
}

fn assert_same_member(group: &StreamingReport, alone: &StreamingReport, what: &str) {
    assert_eq!(group.warnings, alone.warnings, "{what}: warnings");
    assert_eq!(
        group.components_kept, alone.components_kept,
        "{what}: components kept"
    );
    assert_eq!(group.n_records, alone.n_records, "{what}: records");
    assert!(
        group.seconds.is_finite() && group.seconds >= 0.0,
        "{what}: seconds {}",
        group.seconds
    );
}

/// The MSE of `reconstruction` against `original` summed as the sink has
/// always summed it: one squared-error sum per row, rows added in order.
fn per_row_mse(reconstruction: &Matrix, original: &Matrix) -> f64 {
    let mut sum_sq = 0.0;
    for r in 0..original.rows() {
        let mut s = 0.0;
        for (&a, &b) in reconstruction.row(r).iter().zip(original.row(r)) {
            let d = a - b;
            s += d * d;
        }
        sum_sq += s;
    }
    sum_sq / (original.rows() * original.cols()) as f64
}

/// Runs `members` as one group and each alone; every member's MSE bits
/// and report must match, and the MSE must be the per-row sum of its
/// materialized reconstruction.
fn check_group<S: RecordChunkSource + Send + ?Sized>(
    members: &[usize],
    slots: usize,
    moments: &StreamMoments,
    disguised: &mut S,
    original: &mut dyn RecordChunkSource,
    noise: &randrecon_noise::NoiseModel,
    what: &str,
) {
    let attacks: Vec<Box<dyn ChunkReconstructor>> = members.iter().map(|&s| scheme(s)).collect();
    let refs: Vec<&dyn ChunkReconstructor> = attacks.iter().map(AsRef::as_ref).collect();
    let cancel = CancelToken::new();
    let mut sink = MseSink::for_group(original, refs.len()).unwrap();
    let reports = StreamingDriver { slots }
        .run_group(&refs, moments, disguised, noise, &mut sink, &cancel)
        .unwrap();
    assert_eq!(reports.len(), refs.len(), "{what}");
    assert_eq!(sink.rows(), N, "{what}");
    let group_mse: Vec<f64> = (0..refs.len()).map(|k| sink.mse_of(k)).collect();
    drop(sink);
    let original_values = collect(original).values().clone();
    for (k, attack) in refs.iter().enumerate() {
        let mut table = TableSink::new(M);
        StreamingDriver::sequential()
            .run_with_moments(*attack, moments, disguised, noise, &mut table)
            .unwrap();
        let expected = per_row_mse(&table.into_matrix().unwrap(), &original_values);
        let mut sink = MseSink::new(original).unwrap();
        let alone = StreamingDriver::sequential()
            .run_with_moments_cancellable(*attack, moments, disguised, noise, &mut sink, &cancel)
            .unwrap();
        let what = format!("{what}, member {k} ({})", attack.name());
        assert_eq!(
            group_mse[k].to_bits(),
            sink.mse().to_bits(),
            "{what}: MSE {} in the group, {} alone",
            group_mse[k],
            sink.mse()
        );
        assert_eq!(
            group_mse[k].to_bits(),
            expected.to_bits(),
            "{what}: MSE {} in the group, {expected} summed row by row",
            group_mse[k]
        );
        assert_same_member(&reports[k], &alone, &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any subset and order of the five schemes, under each noise model, at
    /// chunk sizes 1, 7, 64 and n, read at random (the synthetic stream) or
    /// sequentially (a table of the same records), at ring depths 1–8:
    /// every group member equals its one-member run bit for bit.
    #[test]
    fn group_pass_matches_one_member_runs(
        keys in collection::vec(0u64..1_000_000, 5),
        mask in 1u32..32,
        noise in 0usize..3,
        chunk_pick in 0usize..4,
        sequential in prop_bool::ANY,
        slots in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let mut order: Vec<usize> = (0..5).collect();
        order.sort_by_key(|&s| keys[s]);
        let members: Vec<usize> = order.into_iter().filter(|&s| mask & (1 << s) != 0).collect();
        let chunk = [1, 7, 64, N][chunk_pick];
        let (mut original, mut disguised) = workload(noise, chunk, seed);
        let model = disguised.model().clone();
        let what = format!(
            "members {members:?}, noise {noise}, chunk {chunk}, sequential {sequential}, \
             slots {slots}, seed {seed}"
        );
        if sequential {
            let table = collect(&mut disguised);
            let mut source = TableChunkSource::new(&table, chunk).unwrap();
            let moments = StreamingDriver::accumulate_moments(&mut source).unwrap();
            check_group(&members, slots, &moments, &mut source, &mut original, &model, &what);
        } else {
            let moments = StreamingDriver::accumulate_moments(&mut disguised).unwrap();
            check_group(&members, slots, &moments, &mut disguised, &mut original, &model, &what);
        }
    }
}

#[test]
fn group_pass_rejects_an_empty_group_and_a_one_stream_sink() {
    let (mut original, mut disguised) = workload(0, 32, 3);
    let noise = disguised.model().clone();
    let moments = StreamingDriver::accumulate_moments(&mut disguised).unwrap();
    let cancel = CancelToken::new();
    let driver = StreamingDriver::default();
    assert!(driver
        .run_group(
            &[],
            &moments,
            &mut disguised,
            &noise,
            &mut DiscardSink::default(),
            &cancel
        )
        .is_err());
    assert!(MseSink::for_group(&mut original, 0).is_err());

    // A sink that keeps one stream refuses a two-member group at the first
    // chunk, and the error is located there.
    let pair: [&dyn ChunkReconstructor; 2] = [&StreamingNdr, &StreamingBeDr::default()];
    let err = driver
        .run_group(
            &pair,
            &moments,
            &mut disguised,
            &noise,
            &mut DiscardSink::default(),
            &cancel,
        )
        .unwrap_err();
    assert!(err.to_string().contains("chunk 0"), "{err}");
    let mut one = MseSink::new(&mut original).unwrap();
    assert!(one
        .consume_group(&[Matrix::zeros(2, M), Matrix::zeros(2, M)])
        .is_err());
}
