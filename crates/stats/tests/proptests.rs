//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use randrecon_stats::distributions::{ContinuousDistribution, Normal, Uniform};
use randrecon_stats::posterior::{gaussian_posterior_mean, grid_posterior_mean, PreparedPosterior};
use randrecon_stats::rng::{child_seed, seeded_rng, standard_normal};
use randrecon_stats::summary;
use randrecon_stats::StatsError;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The normal pdf is symmetric around its mean and maximal at the mean.
    #[test]
    fn normal_pdf_symmetry(mu in -50.0f64..50.0, sigma in 0.1f64..20.0, dx in 0.0f64..30.0) {
        let n = Normal::new(mu, sigma).unwrap();
        let left = n.pdf(mu - dx);
        let right = n.pdf(mu + dx);
        prop_assert!((left - right).abs() <= 1e-12 * left.max(1e-300));
        prop_assert!(n.pdf(mu) >= left);
    }

    /// The normal CDF is monotone and maps the real line into [0, 1].
    #[test]
    fn normal_cdf_monotone(mu in -10.0f64..10.0, sigma in 0.1f64..10.0, a in -40.0f64..40.0, b in -40.0f64..40.0) {
        let n = Normal::new(mu, sigma).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let cl = n.cdf(lo);
        let ch = n.cdf(hi);
        prop_assert!((0.0..=1.0).contains(&cl));
        prop_assert!((0.0..=1.0).contains(&ch));
        prop_assert!(ch + 1e-9 >= cl);
    }

    /// Uniform samples stay inside the support and the pdf integrates to 1.
    #[test]
    fn uniform_support_and_normalization(low in -100.0f64..0.0, width in 0.5f64..100.0, seed in 0u64..10_000) {
        let u = Uniform::new(low, low + width).unwrap();
        let mut rng = seeded_rng(seed);
        for _ in 0..100 {
            let x = u.sample(&mut rng);
            prop_assert!(x >= low && x < low + width);
            prop_assert!(u.pdf(x) > 0.0);
        }
        // Composite trapezoid rule over [low − 1, high + 1] in 4 000 steps.
        let (a, steps) = (low - 1.0, 4_000);
        let h = (width + 2.0) / steps as f64;
        let interior: f64 = (1..steps).map(|i| u.pdf(a + i as f64 * h)).sum();
        let integral = (0.5 * (u.pdf(a) + u.pdf(a + width + 2.0)) + interior) * h;
        prop_assert!((integral - 1.0).abs() < 1e-2);
    }

    /// The trapezoid integral of the normal pdf over any interval matches
    /// the CDF difference (within the erf approximation's error).
    #[test]
    fn normal_pdf_integrates_to_cdf_differences(
        mu in -10.0f64..10.0,
        sigma in 0.2f64..5.0,
        a in -4.0f64..4.0,
        width in 0.01f64..6.0,
    ) {
        let n = Normal::new(mu, sigma).unwrap();
        let (lo, hi, steps) = (mu + a * sigma, mu + (a + width) * sigma, 4_000);
        let h = (hi - lo) / steps as f64;
        let interior: f64 = (1..steps).map(|i| n.pdf(lo + i as f64 * h)).sum();
        let integral = (0.5 * (n.pdf(lo) + n.pdf(hi)) + interior) * h;
        prop_assert!((integral - (n.cdf(hi) - n.cdf(lo))).abs() < 1e-6);
    }

    /// variance(c * x) = c^2 * variance(x); mean is linear.
    #[test]
    fn summary_scaling_laws(xs in proptest::collection::vec(-100.0f64..100.0, 3..50), c in -5.0f64..5.0) {
        let scaled: Vec<f64> = xs.iter().map(|&x| c * x).collect();
        let v = summary::variance(&xs);
        let vs = summary::variance(&scaled);
        prop_assert!((vs - c * c * v).abs() < 1e-6 * (1.0 + vs.abs()));
        let m = summary::mean(&xs);
        let ms = summary::mean(&scaled);
        prop_assert!((ms - c * m).abs() < 1e-9 * (1.0 + ms.abs()));
    }

    /// Correlation is bounded by 1 in absolute value and invariant to positive
    /// affine transformations.
    #[test]
    fn correlation_bounds_and_invariance(
        xs in proptest::collection::vec(-50.0f64..50.0, 5..40),
        shift in -10.0f64..10.0,
        scale in 0.1f64..10.0,
    ) {
        // Build a second series deterministically correlated with the first.
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, &x)| 0.5 * x + (i as f64 % 7.0)).collect();
        let r = summary::correlation(&xs, &ys);
        prop_assert!(r.abs() <= 1.0 + 1e-12);
        let ys_affine: Vec<f64> = ys.iter().map(|&y| scale * y + shift).collect();
        let r2 = summary::correlation(&xs, &ys_affine);
        prop_assert!((r - r2).abs() < 1e-8);
    }

    /// Covariance matrices estimated from any finite sample are symmetric with
    /// non-negative diagonals, and the correlation matrix has a unit diagonal.
    #[test]
    fn covariance_matrix_invariants(rows in 2usize..30, cols in 1usize..6, seed in 0u64..10_000) {
        let mut rng = seeded_rng(seed);
        let data = randrecon_linalg::Matrix::from_fn(rows, cols, |_, _| {
            randrecon_stats::rng::standard_normal(&mut rng) * 3.0
        });
        let cov = summary::covariance_matrix(&data);
        prop_assert!(cov.is_symmetric(1e-9));
        for j in 0..cols {
            prop_assert!(cov.get(j, j) >= -1e-12);
        }
        let corr = summary::correlation_matrix(&data);
        for j in 0..cols {
            prop_assert!((corr.get(j, j) - 1.0).abs() < 1e-12);
        }
    }

    /// The Gaussian posterior mean always lies between the prior mean and the
    /// observation (shrinkage), and moves toward the observation as the noise
    /// variance shrinks.
    #[test]
    fn posterior_mean_shrinkage(
        mu in -20.0f64..20.0,
        var_x in 0.1f64..100.0,
        var_r in 0.1f64..100.0,
        y in -50.0f64..50.0,
    ) {
        let est = gaussian_posterior_mean(y, mu, var_x, var_r).unwrap();
        let (lo, hi) = if mu <= y { (mu, y) } else { (y, mu) };
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
        let est_less_noise = gaussian_posterior_mean(y, mu, var_x, var_r * 0.5).unwrap();
        prop_assert!((est_less_noise - y).abs() <= (est - y).abs() + 1e-9);
    }

    /// UDR's prepared uniform-noise posterior, which sums only the grid
    /// points inside each value's noise window, equals the full 600-point
    /// `grid_posterior_mean` bit for bit, errors included. σx/σr spans six
    /// decades, so the draws cover grids much coarser than the noise window
    /// as well as windows holding over a quarter of the grid. The values are
    /// disguised draws, the two window edges at a random grid point (and
    /// their neighbours one ulp away), and values beyond the grid.
    #[test]
    fn prepared_uniform_posterior_is_the_grid_reference_bit_for_bit(
        mu in -100.0f64..100.0,
        log_sigma_r in -2.0f64..2.0,
        log_ratio in -3.0f64..3.0,
        edge in 0usize..600,
        seed in 0u64..1_000_000,
    ) {
        let sigma_r = 10f64.powf(log_sigma_r);
        let sigma_x = sigma_r * 10f64.powf(log_ratio);
        let (var_x, var_r) = (sigma_x * sigma_x, sigma_r * sigma_r);
        let prepared = PreparedPosterior::gaussian_moments(mu, var_x, var_r, false).unwrap();

        let prior = Normal::new(mu, var_x.sqrt()).unwrap();
        let noise = Uniform::centered_with_std(var_r.sqrt()).unwrap();
        let span = 6.0 * (var_x.sqrt() + var_r.sqrt());
        let (low, high) = (mu - span, mu + span);
        let x_edge = low + edge as f64 * ((high - low) / 599.0);

        let mut rng = seeded_rng(seed);
        let mut values: Vec<f64> = (0..24)
            .map(|_| mu + sigma_x * standard_normal(&mut rng) + noise.sample(&mut rng))
            .collect();
        for y in [x_edge + noise.low(), x_edge + noise.high()] {
            values.extend([y.next_down(), y, y.next_up()]);
        }
        values.extend([low - noise.high(), high - noise.low(), high + 1.5 * span]);

        for y in values {
            let want = grid_posterior_mean(y, |x| prior.pdf(x), &noise, low, high, 600);
            assert_same_answer(y, &prepared.apply(y), &want);
        }
    }

    /// Child seeds derived from different streams never collide for small stream
    /// counts (sanity check on the splitting function).
    #[test]
    fn child_seeds_do_not_collide(base in 0u64..u64::MAX / 2) {
        let seeds: Vec<u64> = (0..32).map(|s| child_seed(base, s)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), seeds.len());
    }
}

/// Asserts that the prepared posterior's answer `got` for `y` is the
/// reference's `want`: the same bits, or the same error variant with the
/// same value and spacing.
fn assert_same_answer(y: f64, got: &Result<f64, StatsError>, want: &Result<f64, StatsError>) {
    match (got, want) {
        (Ok(a), Ok(b)) => assert!(
            a.to_bits() == b.to_bits(),
            "y = {y:e}: prepared {a:e} vs reference {b:e}"
        ),
        (Err(a), Err(b)) => {
            assert!(
                std::mem::discriminant(a) == std::mem::discriminant(b),
                "y = {y:e}: {a:?} vs {b:?}"
            );
            if let (
                StatsError::ZeroPosteriorMass { value, spacing, .. },
                StatsError::ZeroPosteriorMass {
                    value: v,
                    spacing: s,
                    ..
                },
            ) = (a, b)
            {
                assert!(value.to_bits() == v.to_bits() && spacing == s, "y = {y:e}");
            }
        }
        _ => panic!("y = {y:e}: prepared {got:?} vs reference {want:?}"),
    }
}

/// Checks UDR's prepared uniform-noise posterior for the prior
/// `N(mu, sigma_x²)` under uniform noise of standard deviation `sigma_r`
/// against the full 600-point reference on the values where a window table
/// and the walk that locates a value's window could go wrong:
/// - both window edges of every grid index, and their neighbours one ulp
///   away on either side;
/// - values whose windows are clipped at the low and at the high grid end;
/// - `±f64::MAX`, `±1e308`, `±0.0`, the smallest subnormal, NaN and ±∞.
///
/// Every answer must be the reference's (see [`assert_same_answer`]). On
/// a grid whose abscissae are distinct (`distinct_grid`), a value the
/// reference answers whose window neither grid end clips must also be
/// answered from the window table.
fn assert_edges_match_the_reference(mu: f64, sigma_x: f64, sigma_r: f64, distinct_grid: bool) {
    let (var_x, var_r) = (sigma_x * sigma_x, sigma_r * sigma_r);
    let prepared = PreparedPosterior::gaussian_moments(mu, var_x, var_r, false).unwrap();
    let PreparedPosterior::Quadrature(quadrature) = &prepared else {
        panic!("uniform noise with a positive prior variance is a quadrature");
    };
    let prior = Normal::new(mu, var_x.sqrt()).unwrap();
    let noise = Uniform::centered_with_std(var_r.sqrt()).unwrap();
    let span = 6.0 * (var_x.sqrt() + var_r.sqrt());
    let (low, high) = (mu - span, mu + span);
    let h = (high - low) / 599.0;
    let (lo, hi) = (noise.low(), noise.high());

    let mut values = Vec::new();
    for i in 0..600 {
        let x = low + i as f64 * h;
        for edge in [x + lo, x + hi] {
            values.extend([edge.next_down(), edge, edge.next_up()]);
        }
    }
    for k in 0..=8 {
        let t = k as f64 / 8.0;
        values.extend([low + lo + t * (hi - lo), high + lo + t * (hi - lo)]);
    }
    values.extend([
        f64::MAX,
        -f64::MAX,
        1e308,
        -1e308,
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]);

    let mut tabulated = 0;
    for &y in &values {
        let want = grid_posterior_mean(y, |x| prior.pdf(x), &noise, low, high, 600);
        assert_same_answer(y, &prepared.apply(y), &want);
        let table = quadrature.tabulated_mean(y);
        if let Some(mean) = table {
            let reference = want.as_ref().map(|v| v.to_bits());
            assert_eq!(Ok(mean.to_bits()), reference, "y = {y:e}");
            tabulated += 1;
        }
        let unclipped = y - hi > low + h && y - lo < high - h;
        if distinct_grid && unclipped && want.is_ok() {
            assert!(
                table.is_some(),
                "y = {y:e}: an unclipped window is not tabulated"
            );
        }
    }
    if distinct_grid {
        assert!(tabulated > 0, "no value was answered from the table");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The window table and the walk that locates each value's window
    /// agree with the full-grid reference on every edge of the grid, with
    /// σx/σr over six decades: grids far coarser than the noise window as
    /// well as windows holding over a quarter of the grid.
    #[test]
    fn prepared_uniform_posterior_matches_the_reference_on_grid_edges(
        mu in -100.0f64..100.0,
        log_sigma_r in -2.0f64..2.0,
        log_ratio in -3.0f64..3.0,
    ) {
        let sigma_r = 10f64.powf(log_sigma_r);
        assert_edges_match_the_reference(mu, sigma_r * 10f64.powf(log_ratio), sigma_r, true);
    }
}

/// The edge check on two fixed geometries: a grid whose abscissae repeat
/// (at mean 1e17 neighbouring doubles are 16 apart, so the 600 points
/// round onto three values and a window holds a whole run of them), and
/// windows narrower than the grid spacing (σx = 300·σr), which hold at
/// most one point.
#[test]
fn prepared_uniform_posterior_matches_the_reference_on_degenerate_grids() {
    assert_edges_match_the_reference(1e17, 1.0, 1.0, false);
    assert_edges_match_the_reference(3.0, 300.0, 1.0, true);
    assert_edges_match_the_reference(-7.0, 3e4, 0.5, true);
}
