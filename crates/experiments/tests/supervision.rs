//! Supervised execution: the deterministic backoff schedule is a pure
//! function of its seed triple, cell deadlines classify runaway cells as
//! timed out (and are never retried), and a numerically degenerate BE-DR
//! cell completes through the eigenvalue-clipped SPD repair as `Degraded`
//! with metrics pinned against a well-floored reference run.

use proptest::prelude::*;
use randrecon_experiments::backoff::BackoffPolicy;
use randrecon_experiments::fault::near_singular_be_dr_spec;
use randrecon_experiments::run_scenarios_failsoft;
use randrecon_experiments::scenario::{
    AttackSpec, MetricKind, RetryPolicy, ScenarioOutcome, ScenarioSpec,
};
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The backoff schedule is a pure function of
    /// `(fingerprint, stream, attempt)`: recomputing any delay yields the
    /// identical duration, attempt 0 is always free, every jittered delay
    /// stays within `[raw/2, raw]` of the capped exponential scale, and
    /// exhaustion is monotone in the attempt number (once the budget is
    /// gone it never comes back).
    #[test]
    fn backoff_is_pure_bounded_and_monotonically_exhausting(
        fingerprint in 0u64..u64::MAX,
        stream in 0u64..u64::MAX,
        attempt in 1u32..12,
    ) {
        let policy = BackoffPolicy {
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            budget: Duration::from_secs(3),
        };
        prop_assert_eq!(policy.delay(fingerprint, stream, 0), Some(Duration::ZERO));

        let first = policy.delay(fingerprint, stream, attempt);
        let second = policy.delay(fingerprint, stream, attempt);
        prop_assert_eq!(first, second, "schedule must be recomputable");

        if let Some(d) = first {
            // Pre-jitter scale: base · 2^(attempt-1), capped.
            let doublings = (attempt - 1).min(30);
            let raw = policy
                .base
                .saturating_mul(1u32 << doublings)
                .min(policy.cap);
            prop_assert!(
                d >= raw / 2 && d <= raw,
                "attempt {attempt}: {d:?} outside [{:?}, {raw:?}]",
                raw / 2
            );
        } else {
            // Monotone exhaustion: every later attempt is exhausted too.
            prop_assert!(policy.delay(fingerprint, stream, attempt + 1).is_none());
            prop_assert!(policy.delay(fingerprint, stream, attempt + 7).is_none());
        }
    }
}

/// A zero cell deadline trips the cooperative cancel token before any
/// trial completes: the cell fails as timed out, classifies as
/// `"timed-out"`, and is **not** retried even under a transient-retry
/// policy (a deadline kill is not a transient fault).
#[test]
fn zero_cell_deadline_times_out_without_retries() {
    let mut spec = ScenarioSpec::synthetic_quick("deadline", 400, 8, 2);
    spec.attack = AttackSpec::Scheme(randrecon_experiments::SchemeKind::Udr);
    let policy = RetryPolicy::transient_retries(3).with_cell_timeout(Duration::ZERO);
    let outcomes = run_scenarios_failsoft(&[spec], policy).unwrap();
    let ScenarioOutcome::Failed(failure) = &outcomes[0] else {
        panic!("zero deadline should fail the cell, got {:?}", outcomes[0]);
    };
    assert!(failure.timed_out, "deadline kill must be flagged timed out");
    assert_eq!(failure.classification(), "timed-out");
    assert_eq!(
        failure.attempts, 1,
        "timed-out cells must not burn retry attempts"
    );
    assert!(
        failure.error.contains("cancel") || failure.error.contains("deadline"),
        "cause lost: {}",
        failure.error
    );
}

/// A generous cell deadline leaves a healthy sweep untouched: identical
/// outcomes (bitwise metrics) to running with no deadline at all.
#[test]
fn generous_cell_deadline_is_invisible_to_healthy_cells() {
    let mut spec = ScenarioSpec::synthetic_quick("deadline-ok", 400, 8, 2);
    spec.attack = AttackSpec::Scheme(randrecon_experiments::SchemeKind::BeDr);
    let specs = [spec];
    let with_deadline = run_scenarios_failsoft(
        &specs,
        RetryPolicy::default().with_cell_timeout(Duration::from_secs(600)),
    )
    .unwrap();
    let without = run_scenarios_failsoft(&specs, RetryPolicy::default()).unwrap();
    let a = with_deadline[0].as_completed().expect("healthy cell");
    let b = without[0].as_completed().expect("healthy cell");
    assert_eq!(a.metrics.len(), b.metrics.len());
    for ((ka, va), (kb, vb)) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(ka, kb);
        assert_eq!(va.to_bits(), vb.to_bits(), "metric {ka:?} perturbed");
    }
}

/// The graceful-degradation golden: the near-singular BE-DR workload fails
/// straight Cholesky and completes through the eigenvalue-clipped SPD
/// repair — surfacing as `Degraded` with the repair warning — and its MSE
/// stays within ±5% of the same workload run with a generous explicit
/// eigenvalue floor (which keeps the posterior system SPD without repair).
#[test]
fn near_singular_cell_degrades_with_mse_close_to_spd_path() {
    let spec = near_singular_be_dr_spec("near-singular", 0xD15C);
    let outcomes =
        run_scenarios_failsoft(std::slice::from_ref(&spec), RetryPolicy::default()).unwrap();
    let ScenarioOutcome::Degraded(degraded) = &outcomes[0] else {
        panic!(
            "near-singular BE-DR cell should degrade via SPD repair, got {:?}",
            outcomes[0]
        );
    };
    assert!(
        degraded
            .warnings
            .iter()
            .any(|w| w.contains("SPD repair") && w.contains("Cholesky")),
        "repair warning missing: {:?}",
        degraded.warnings
    );

    // Reference: identical workload (same seeds → same dataset, same
    // disguise) with an eigenvalue floor far above the recomposition
    // rounding, so the straight Cholesky path succeeds. The pair-consistent
    // repair escalates the degraded cell's clip floor to the same order, so
    // the two reconstructions should nearly coincide.
    let mut reference = spec.clone();
    reference.attack = AttackSpec::BeDr {
        eigenvalue_floor: Some(1.0),
    };
    let ref_outcomes =
        run_scenarios_failsoft(std::slice::from_ref(&reference), RetryPolicy::default()).unwrap();
    let clean = ref_outcomes[0]
        .as_completed()
        .expect("floored reference should complete");
    assert!(
        clean.warnings.is_empty(),
        "reference must take the straight SPD path: {:?}",
        clean.warnings
    );

    let mse = degraded.metric(MetricKind::Mse).expect("degraded MSE");
    let ref_mse = clean.metric(MetricKind::Mse).expect("reference MSE");
    assert!(mse.is_finite() && ref_mse.is_finite() && ref_mse > 0.0);
    let relative = (mse - ref_mse).abs() / ref_mse;
    assert!(
        relative < 0.05,
        "clipped-fallback MSE {mse:e} deviates {:.1}% from SPD-path MSE {ref_mse:e}",
        relative * 100.0
    );
}

/// The earlier near-singular fixture — 6 records in 8 attributes, a
/// `1e9`/`1e-3` spectrum, floor `1e-12`, σ = `1e-6` — leaves `T = Σ̂_x + Σ_r`
/// rank-deficient as computed but, on some seeds, rounded so that the
/// straight Cholesky succeeds on pivots of pure rounding noise. Such a
/// factor must count as failed (its smallest pivot lies within the
/// `(m+1)·ε·max diag(T)` backward-error bound), so every seed degrades
/// through the repair with a warning that names the pivot, in the default
/// and the fused (`fma`) profile alike.
#[test]
fn noise_pivot_factors_degrade_on_every_seed() {
    let failures: Vec<String> = (0..40u64)
        .filter_map(|seed| {
            let mut spec = near_singular_be_dr_spec("six-by-eight", seed);
            let mut eigenvalues = vec![1e9, 1e9];
            eigenvalues.extend(vec![1e-3; 6]);
            spec.data = randrecon_experiments::scenario::DataSpec::SyntheticMvn {
                spectrum: randrecon_experiments::scenario::SpectrumSpec::Explicit(eigenvalues),
                records: 6,
            };
            let outcomes =
                run_scenarios_failsoft(std::slice::from_ref(&spec), RetryPolicy::default())
                    .unwrap();
            match &outcomes[0] {
                ScenarioOutcome::Degraded(r)
                    if r.warnings
                        .iter()
                        .any(|w| w.contains("SPD repair") && w.contains("pivot")) =>
                {
                    None
                }
                other => Some(format!("seed {seed}: {other:?}")),
            }
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
