//! Fail-soft execution: a sweep with panicking and erroring cells completes
//! every remaining cell and reports each failure, transient faults are
//! retried under a retry policy, and the streaming driver locates injected
//! chunk-level faults instead of wedging.
//!
//! The injected faults come from [`randrecon_experiments::fault`] — every
//! one fires at a deterministic point, so these tests are reproducible
//! across runs and thread counts.

use randrecon_core::streaming::{DiscardSink, StreamingDriver, StreamingUdr, TableSink};
use randrecon_data::chunks::TableChunkSource;
use randrecon_experiments::fault::{
    reset_transient_counters, ChunkFault, FaultMode, FaultyChunkSource, FaultySink,
};
use randrecon_experiments::scenario::{AttackSpec, RetryPolicy, ScenarioOutcome, ScenarioSpec};
use randrecon_experiments::{run_scenarios, run_scenarios_failsoft, ExperimentError, SchemeKind};
use randrecon_noise::additive::AdditiveRandomizer;
use randrecon_stats::rng::seeded_rng;

fn good_spec(label: &str, scheme: SchemeKind) -> ScenarioSpec {
    let mut spec = ScenarioSpec::synthetic_quick(label, 400, 8, 2);
    spec.attack = AttackSpec::Scheme(scheme);
    spec
}

fn faulty_spec(label: &str, mode: FaultMode) -> ScenarioSpec {
    let mut spec = ScenarioSpec::synthetic_quick(label, 400, 8, 2);
    spec.attack = AttackSpec::InjectedFault { mode };
    spec
}

/// The strict runner stops on failure instead: a panicking cell fails the
/// whole `run_scenarios` call as `WorkerFailed`, carrying the panic message.
#[test]
fn strict_runner_reports_a_panicking_cell_as_worker_failed() {
    let specs = vec![
        good_spec("good-udr", SchemeKind::Udr),
        faulty_spec("boom-panic", FaultMode::Panic),
    ];
    match run_scenarios(&specs) {
        Err(ExperimentError::WorkerFailed { reason }) => {
            assert!(
                reason.contains("injected panic in scenario 'boom-panic'"),
                "{reason}"
            );
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
}

/// An erroring cell fails the strict runner with the cell's own error.
#[test]
fn strict_runner_propagates_an_erroring_cell() {
    let specs = vec![
        good_spec("good-bedr", SchemeKind::BeDr),
        faulty_spec("boom-error", FaultMode::Error),
    ];
    match run_scenarios(&specs) {
        Err(ExperimentError::InjectedFault { label }) => assert_eq!(label, "boom-error"),
        other => panic!("expected InjectedFault, got {other:?}"),
    }
}

/// With several failing workload groups, the strict runner reports the
/// lowest-index one, as a sequential sweep would, whichever worker fails
/// first.
#[test]
fn strict_runner_returns_the_lowest_index_failure() {
    // A distinct seed puts each faulty cell in a workload group of its own.
    let own_group = |mut spec: ScenarioSpec, seed: u64| {
        spec.seed = seed;
        spec
    };
    let good = good_spec("good-udr", SchemeKind::Udr);
    let erroring = own_group(faulty_spec("boom-error", FaultMode::Error), 1);
    let panicking = own_group(faulty_spec("boom-panic", FaultMode::Panic), 2);

    match run_scenarios(&[good.clone(), erroring.clone(), panicking.clone()]) {
        Err(ExperimentError::InjectedFault { label }) => assert_eq!(label, "boom-error"),
        other => panic!("expected the error cell's InjectedFault, got {other:?}"),
    }
    match run_scenarios(&[good, panicking, erroring]) {
        Err(ExperimentError::WorkerFailed { reason }) => {
            assert!(reason.contains("'boom-panic'"), "{reason}");
        }
        other => panic!("expected the panic cell's WorkerFailed, got {other:?}"),
    }
}

/// An empty sweep is not an error: both runners return no results.
#[test]
fn empty_sweeps_return_no_results() {
    assert!(run_scenarios(&[]).unwrap().is_empty());
    assert!(run_scenarios_failsoft(&[], RetryPolicy::default())
        .unwrap()
        .is_empty());
}

/// The acceptance scenario: a sweep containing a panicking cell AND an
/// erroring cell completes all the healthy cells and reports both failures
/// with their cause — neither failure mode may take the sweep down or
/// poison a neighbouring cell.
#[test]
fn sweep_survives_panicking_and_erroring_cells() {
    let specs = vec![
        good_spec("good-udr", SchemeKind::Udr),
        faulty_spec("boom-panic", FaultMode::Panic),
        good_spec("good-bedr", SchemeKind::BeDr),
        faulty_spec("boom-error", FaultMode::Error),
        good_spec("good-pcadr", SchemeKind::PcaDr),
    ];
    let outcomes = run_scenarios_failsoft(&specs, RetryPolicy::default()).unwrap();
    assert_eq!(outcomes.len(), specs.len());
    // Outcomes arrive in input order with matching labels.
    for (spec, outcome) in specs.iter().zip(&outcomes) {
        assert_eq!(spec.label, outcome.label());
    }

    // The healthy cells completed with finite metrics.
    for i in [0usize, 2, 4] {
        let result = outcomes[i]
            .as_completed()
            .unwrap_or_else(|| panic!("healthy cell {} did not complete", specs[i].label));
        assert!(result.rmse().unwrap().is_finite());
    }

    // Both failures are reported with their cause.
    let ScenarioOutcome::Failed(panic_failure) = &outcomes[1] else {
        panic!("panicking cell reported as completed");
    };
    assert!(
        panic_failure.error.contains("injected panic"),
        "panic cause lost: {}",
        panic_failure.error
    );
    assert!(!panic_failure.transient);

    let ScenarioOutcome::Failed(error_failure) = &outcomes[3] else {
        panic!("erroring cell reported as completed");
    };
    assert!(
        error_failure.error.contains("injected fault"),
        "error cause lost: {}",
        error_failure.error
    );
    assert!(!error_failure.transient);
    // Deterministic failures are not retried under the default policy.
    assert_eq!(error_failure.attempts, 1);
}

/// The healthy cells of a fail-soft sweep are bit-identical to running them
/// alone: fault isolation re-runs failed groups member by member, and that
/// fallback must not perturb anybody's spec-derived randomness.
#[test]
fn healthy_cells_match_a_clean_run_bitwise() {
    let specs = vec![
        good_spec("iso-udr", SchemeKind::Udr),
        faulty_spec("iso-boom", FaultMode::Panic),
        good_spec("iso-bedr", SchemeKind::BeDr),
    ];
    let outcomes = run_scenarios_failsoft(&specs, RetryPolicy::default()).unwrap();

    let clean_specs = vec![specs[0].clone(), specs[2].clone()];
    let clean = run_scenarios(&clean_specs).unwrap();

    for (outcome, reference) in [&outcomes[0], &outcomes[2]].into_iter().zip(&clean) {
        let got = outcome.as_completed().expect("healthy cell completed");
        assert_eq!(got.label, reference.label);
        assert_eq!(got.metrics.len(), reference.metrics.len());
        for ((ka, va), (kb, vb)) in got.metrics.iter().zip(&reference.metrics) {
            assert_eq!(ka, kb);
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "metric {ka:?} of {} differs between fail-soft and clean runs",
                got.label
            );
        }
    }
}

/// A transient fault (first two invocations fail with an I/O error)
/// succeeds under `transient_retries(3)` and the attempt count is reported;
/// under the default no-retry policy the same fault is a failure marked
/// transient.
#[test]
fn transient_faults_retry_to_success() {
    reset_transient_counters();
    let specs = vec![faulty_spec(
        "transient-retry",
        FaultMode::Transient { fail_first: 2 },
    )];
    let outcomes = run_scenarios_failsoft(&specs, RetryPolicy::transient_retries(3)).unwrap();
    let result = outcomes[0]
        .as_completed()
        .expect("transient fault should succeed within the retry budget");
    assert_eq!(result.label, "transient-retry");

    reset_transient_counters();
    let specs = vec![faulty_spec(
        "transient-noretry",
        FaultMode::Transient { fail_first: 2 },
    )];
    let outcomes = run_scenarios_failsoft(&specs, RetryPolicy::default()).unwrap();
    let ScenarioOutcome::Failed(failure) = &outcomes[0] else {
        panic!("single attempt should not outlast a fail_first=2 fault");
    };
    assert!(failure.transient, "I/O faults must classify as transient");
    assert_eq!(failure.attempts, 1);

    // A budget smaller than the fault still fails, but shows it tried.
    reset_transient_counters();
    let specs = vec![faulty_spec(
        "transient-short",
        FaultMode::Transient { fail_first: 5 },
    )];
    let outcomes = run_scenarios_failsoft(&specs, RetryPolicy::transient_retries(2)).unwrap();
    let ScenarioOutcome::Failed(failure) = &outcomes[0] else {
        panic!("fail_first=5 must exhaust a 2-attempt budget");
    };
    assert_eq!(failure.attempts, 2);
}

fn disguised_table() -> randrecon_data::DataTable {
    use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
    let spectrum = EigenSpectrum::principal_plus_small(2, 50.0, 6, 1.0).unwrap();
    let ds = SyntheticDataset::generate(&spectrum, 600, 9090).unwrap();
    let randomizer = AdditiveRandomizer::gaussian(4.0).unwrap();
    randomizer
        .disguise(&ds.table, &mut seeded_rng(9091))
        .unwrap()
}

/// A source error during pass 2 surfaces as a chunk-located
/// `ReconError::AtChunk` naming the failing chunk, not a bare stream error.
#[test]
fn streaming_driver_locates_source_faults_by_chunk() {
    let randomizer = AdditiveRandomizer::gaussian(4.0).unwrap();
    let noise = randomizer.model();
    let table = disguised_table();
    // Sweep 2 = pass 2 (the driver resets the source before each pass).
    let inner = TableChunkSource::new(&table, 64).unwrap();
    let mut source = FaultyChunkSource::new(inner, ChunkFault::Error, 2, 3);
    let mut sink = TableSink::new(6);
    let err = StreamingDriver::default()
        .run(&StreamingUdr, &mut source, noise, &mut sink)
        .unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("chunk 3"),
        "source fault not chunk-located: {message}"
    );
    assert!(
        message.contains("injected source fault"),
        "cause lost: {message}"
    );
}

/// A sink error mid-pass-2 surfaces chunk-located too, in both the
/// sequential and double-buffered drivers (the pipeline must shut down and
/// report, not wedge its channel).
#[test]
fn streaming_driver_locates_sink_faults_by_chunk() {
    let randomizer = AdditiveRandomizer::gaussian(4.0).unwrap();
    let noise = randomizer.model();
    let table = disguised_table();
    for driver in [StreamingDriver::default(), StreamingDriver::sequential()] {
        let mut source = TableChunkSource::new(&table, 64).unwrap();
        let mut sink = FaultySink::erroring(DiscardSink::default(), 2);
        let err = driver
            .run(&StreamingUdr, &mut source, noise, &mut sink)
            .unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("chunk 2"),
            "sink fault not chunk-located ({driver:?}): {message}"
        );
        assert!(
            message.contains("injected sink fault"),
            "cause lost ({driver:?}): {message}"
        );
        // Chunks before the trigger made it into the inner sink.
        assert_eq!(sink.inner().rows(), 128);
    }
}

/// A malformed (wrong-width) chunk from the source is rejected with a
/// located error rather than silently reconstructing garbage.
#[test]
fn malformed_chunks_are_rejected_not_reconstructed() {
    let randomizer = AdditiveRandomizer::gaussian(4.0).unwrap();
    let noise = randomizer.model();
    let table = disguised_table();
    let inner = TableChunkSource::new(&table, 64).unwrap();
    let mut source = FaultyChunkSource::new(inner, ChunkFault::Malformed, 2, 1);
    let mut sink = TableSink::new(6);
    let err = StreamingDriver::default()
        .run(&StreamingUdr, &mut source, noise, &mut sink)
        .unwrap_err();
    assert!(
        err.to_string().contains("chunk"),
        "malformed chunk not located: {err}"
    );
}

/// Pass 2 runs once per streaming workload group, so one member that fails
/// mid-stream stops the shared pass. Here UDR under uniform noise meets a
/// CSV stream whose single outlier (1e4 at record 500 of attribute 1) lifts
/// that attribute's prior so far that ordinary values get no posterior
/// mass. Every cell must still come out exactly as its isolated run: the
/// other four schemes `Completed` with the same bits, and UDR `Failed` with
/// the same located error text.
#[test]
fn group_pass_fail_soft_keeps_every_cell_at_its_isolated_outcome() {
    use randrecon_experiments::scenario::{
        DataSpec, EngineSpec, GridAxis, NoiseSpec, ScenarioGrid,
    };
    let mut rng = seeded_rng(2201);
    let mut values = randrecon_linalg::Matrix::from_fn(1_000, 2, |_, _| {
        randrecon_stats::rng::standard_normal(&mut rng)
    });
    values.set(500, 1, 1e4);
    let table = randrecon_data::DataTable::from_matrix(values).unwrap();
    let path = std::env::temp_dir().join(format!(
        "randrecon_group_pass_outlier_{}.csv",
        std::process::id()
    ));
    randrecon_data::csv::write_csv_file(&table, &path).unwrap();

    let mut base = ScenarioSpec::synthetic_quick("outlier", 1_000, 2, 1);
    base.data = DataSpec::Csv { path: path.clone() };
    base.noise = NoiseSpec::Uniform { sigma: 1.0 };
    base.engine = EngineSpec::Streaming { chunk_rows: 128 };
    let specs = ScenarioGrid {
        base,
        axes: vec![GridAxis::schemes(&SchemeKind::all())],
    }
    .expand_validated()
    .unwrap();
    assert_eq!(specs.len(), 5);

    let grouped = run_scenarios_failsoft(&specs, RetryPolicy::default()).unwrap();
    for (spec, outcome) in specs.iter().zip(&grouped) {
        let isolated =
            run_scenarios_failsoft(std::slice::from_ref(spec), RetryPolicy::default()).unwrap();
        match (outcome, &isolated[0]) {
            (ScenarioOutcome::Failed(a), ScenarioOutcome::Failed(b)) => {
                assert_eq!(spec.attack, AttackSpec::Scheme(SchemeKind::Udr));
                assert_eq!(a.error, b.error, "{}", spec.label);
                assert!(
                    a.error.contains("at chunk") && a.error.contains("attribute 1"),
                    "{}: {}",
                    spec.label,
                    a.error
                );
            }
            (ScenarioOutcome::Completed(a), ScenarioOutcome::Completed(b)) => {
                assert_ne!(spec.attack, AttackSpec::Scheme(SchemeKind::Udr));
                let bits = |r: &randrecon_experiments::scenario::ScenarioResult| {
                    r.metrics
                        .iter()
                        .map(|(k, v)| (*k, v.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(a), bits(b), "{}", spec.label);
                assert_eq!(a.components_kept, b.components_kept, "{}", spec.label);
                assert_eq!(a.warnings, b.warnings, "{}", spec.label);
            }
            (grouped, isolated) => {
                panic!("{}: grouped {grouped:?}, isolated {isolated:?}", spec.label)
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
