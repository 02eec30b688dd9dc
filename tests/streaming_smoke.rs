//! Release-mode streaming smoke test (CI `--ignored` slow job).
//!
//! Runs the bounded-memory flagship scenario — 500 k × 64 records, fully
//! streamed (generation, disguising, both attack passes and the metrics-only
//! MSE sink all move chunk by chunk; no `n × m` matrix is ever allocated) —
//! through the unified five-scheme streaming driver and checks every attack
//! actually works at that scale. Takes ~30 s in release and minutes in
//! debug, hence `#[ignore]`: it rides the existing
//! `cargo test --release -- --ignored` CI job.

use randrecon::experiments::report::results_table;
use randrecon::experiments::scenario::MetricKind;
use randrecon::experiments::streaming::StreamingScenario;
use randrecon::experiments::SchemeKind;

#[test]
#[ignore = "release-mode 500k-record five-scheme streaming sweep; runs in the slow CI job"]
fn streaming_attacks_survive_500k_by_64_with_bounded_memory() {
    let scenario = StreamingScenario::large_500k();
    assert_eq!(scenario.n_records, 500_000);
    assert_eq!(scenario.n_attributes, 64);
    let results = scenario
        .grid()
        .run()
        .expect("500k streaming scenario must run");
    let cell = |scheme: SchemeKind| {
        results
            .iter()
            .find(|r| r.scheme == Some(scheme))
            .unwrap_or_else(|| panic!("no {} cell", scheme.label()))
    };
    let mse = |scheme: SchemeKind| cell(scheme).metric(MetricKind::Mse).unwrap();

    // NDR streams the disguised values through unchanged, so its measured
    // MSE is the empirical σ² = 100 noise floor.
    let floor = scenario.noise_sigma * scenario.noise_sigma;
    let ndr = mse(SchemeKind::Ndr);
    assert!(
        (ndr - floor).abs() / floor < 0.05,
        "streaming NDR mse {ndr} should sit at the noise floor {floor}"
    );
    // UDR exploits the marginals only; PCA-DR and BE-DR must decisively
    // beat the floor on this highly correlated workload (6 principal
    // components out of 64).
    let udr = mse(SchemeKind::Udr);
    assert!(
        udr < 0.6 * floor,
        "streaming UDR mse {udr} vs noise floor {floor}"
    );
    let pca_dr = mse(SchemeKind::PcaDr);
    let be_dr = mse(SchemeKind::BeDr);
    for (label, mse) in [("PCA-DR", pca_dr), ("BE-DR", be_dr)] {
        assert!(
            mse < 0.25 * floor,
            "streaming {label} mse {mse} should be far below the noise floor {floor}"
        );
    }
    // SF only has to beat the floor here: with bulk eigenvalues of 4 under
    // σ² = 100 noise, the Marčenko–Pastur edge (≈102.3 at n = 500k) sits
    // below the disguised bulk (≈104), so SF keeps almost every component —
    // the "non-principal eigenvalues not small ⇒ SF bound inaccurate"
    // weakness the paper documents.
    let sf = mse(SchemeKind::SpectralFiltering);
    assert!(sf < floor, "streaming SF mse {sf} vs noise floor {floor}");
    // BE-DR at least as strong as PCA-DR (Section 6), and both beat UDR.
    assert!(be_dr <= pca_dr * 1.05);
    assert!(pca_dr < udr);
    // The largest-gap rule recovers the planted component count at scale.
    assert_eq!(cell(SchemeKind::PcaDr).components_kept, Some(6));
    // Sanity on the throughput bookkeeping.
    for r in &results {
        assert_eq!(r.n_records, scenario.n_records);
        assert!(r.seconds > 0.0);
    }
    println!("{}", results_table(&results));
}
