//! Deterministic random-number generation: seeding and the normal sampler.
//!
//! Every experiment in this workspace is seeded so that figures and benches
//! are reproducible run to run; these helpers centralize the seeding policy.
//! Every Gaussian draw in the workspace — synthetic records, MVN samples,
//! additive noise — comes from one primitive, [`standard_normal`]: a
//! 256-layer ziggurat (Marsaglia & Tsang 2000) whose tables are computed
//! once per process, at first use.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::LazyLock;

/// Creates a deterministic [`StdRng`] from a `u64` seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a base seed and a stream index.
///
/// Experiments use one stream per sweep point so that changing the number of
/// sweep points does not perturb the random draws of the other points.
pub fn child_seed(base: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer — good avalanche behaviour, cheap, and dependency-free.
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Layers of the ziggurat; one byte of each draw picks the layer.
const ZIGGURAT_LAYERS: usize = 256;

/// Right edge of the base layer (Marsaglia & Tsang's `r` for 256 layers):
/// draws beyond it come from the tail, sampled exactly by Marsaglia's
/// exponential method.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;

/// The unnormalized density `f(x) = exp(−x²/2)` the ziggurat covers.
fn gauss(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The ziggurat tables of Marsaglia & Tsang (2000), "The Ziggurat Method for
/// Generating Random Variables": 256 layers of equal area `V` under
/// `f(x) = exp(−x²/2)`, `x ≥ 0`.
///
/// `x[0] = V / f(R)` is the width of the base layer's rectangle (the base
/// layer is that rectangle below `f(R)` plus the tail beyond `R`, area `V`
/// together), `x[1] = R`, and every further edge follows from the equal-area
/// rule `x[i]·(f(x[i+1]) − f(x[i])) = V`, falling to `x[256] = 0`.
/// `f[i] = f(x[i])`.
struct Ziggurat {
    x: [f64; ZIGGURAT_LAYERS + 1],
    f: [f64; ZIGGURAT_LAYERS + 1],
}

impl Ziggurat {
    fn build() -> Ziggurat {
        // Tail mass ∫_R^∞ f = f(R)·M(R), with Mills' ratio M from its
        // continued fraction 1/(R + 1/(R + 2/(R + 3/(R + …)))), evaluated
        // bottom-up; 200 terms are exact to rounding at R ≈ 3.65.
        let mut fraction = ZIGGURAT_R;
        for k in (1..=200).rev() {
            fraction = ZIGGURAT_R + k as f64 / fraction;
        }
        let v = ZIGGURAT_R * gauss(ZIGGURAT_R) + gauss(ZIGGURAT_R) / fraction;
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = v / gauss(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 1..ZIGGURAT_LAYERS - 1 {
            x[i + 1] = (-2.0 * (v / x[i] + gauss(x[i])).ln()).sqrt();
        }
        let f = x.map(gauss);
        Ziggurat { x, f }
    }

    /// One standard-normal draw. In the common case (≈ 99% of draws) it
    /// costs one `next_u64`: the low 8 bits pick the layer, the top 52 bits
    /// a signed position across it, and a position inside the next layer's
    /// width lies wholly under the curve. Otherwise a wedge test (one more
    /// uniform and an `exp`) or, from the base layer, the tail decides.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            // (bits >> 12) / 2⁵² ∈ [0, 1), mapped onto [−1, 1).
            let u = (bits >> 12) as f64 * (2.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * self.x[i];
            if x.abs() < self.x[i + 1] {
                return x;
            }
            if i == 0 {
                return Self::tail(rng, u < 0.0);
            }
            let y = self.f[i + 1] + (self.f[i] - self.f[i + 1]) * rng.gen::<f64>();
            if y < gauss(x) {
                return x;
            }
        }
    }

    /// Marsaglia's tail method: with `a = −ln(u₁)/R` and `b = −ln(u₂)`,
    /// accept `R + a` once `2b > a²`.
    #[cold]
    fn tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
        loop {
            let a = -open_unit(rng).ln() / ZIGGURAT_R;
            let b = -open_unit(rng).ln();
            if 2.0 * b > a * a {
                let x = ZIGGURAT_R + a;
                return if negative { -x } else { x };
            }
        }
    }
}

/// A uniform draw in the open interval (0, 1), safe to take the log of.
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// The tables, computed once per process on first use.
static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(Ziggurat::build);

/// Draws one standard-normal sample with the 256-layer ziggurat — the one
/// normal primitive of the workspace (`rand` alone, without `rand_distr`,
/// provides only uniform primitives).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ZIGGURAT.sample(rng)
}

/// Fills a slice with independent standard-normal draws: the same stream
/// as calling [`standard_normal`] once per element, with the table lookup
/// hoisted out of the loop.
pub fn standard_normal_fill<R: Rng + ?Sized>(out: &mut [f64], rng: &mut R) {
    let ziggurat = &*ZIGGURAT;
    for o in out {
        *o = ziggurat.sample(rng);
    }
}

/// Returns `n` independent standard-normal draws.
pub fn standard_normal_vec<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
    let mut out = vec![0.0; n];
    standard_normal_fill(&mut out, rng);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{ContinuousDistribution, Normal};

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        let xa: f64 = a.gen();
        let xb: f64 = b.gen();
        assert_eq!(xa, xb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let xa: f64 = a.gen();
        let xb: f64 = b.gen();
        assert_ne!(xa, xb);
    }

    #[test]
    fn child_seed_varies_with_stream() {
        let s0 = child_seed(7, 0);
        let s1 = child_seed(7, 1);
        let s2 = child_seed(8, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Deterministic.
        assert_eq!(child_seed(7, 0), s0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(123);
        let samples = standard_normal_vec(50_000, &mut rng);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (samples.len() - 1) as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn standard_normal_is_finite() {
        let mut rng = seeded_rng(5);
        for _ in 0..1_000 {
            assert!(standard_normal(&mut rng).is_finite());
        }
    }

    #[test]
    fn fill_is_repeated_standard_normal() {
        let mut a = seeded_rng(77);
        let mut b = seeded_rng(77);
        let filled = standard_normal_vec(4_096, &mut a);
        let scalar: Vec<f64> = (0..4_096).map(|_| standard_normal(&mut b)).collect();
        assert_eq!(
            filled.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ziggurat_tables_fall_to_zero_in_equal_area_layers() {
        let z = &*ZIGGURAT;
        assert_eq!(z.x[1], ZIGGURAT_R);
        assert_eq!(z.x[ZIGGURAT_LAYERS], 0.0);
        assert!(z.x[0] > z.x[1], "the base rectangle is wider than R");
        for i in 1..ZIGGURAT_LAYERS {
            assert!(z.x[i + 1] < z.x[i], "x[{}] does not fall", i + 1);
        }
        // The base rectangle (width x[0], height f(R)) has area V by
        // construction; V itself must match Marsaglia & Tsang's published
        // v = 4.92867323399e-3 for 256 layers to its printed digits.
        let v = z.x[0] * z.f[1];
        assert!((v - 4.928_673_233_99e-3).abs() < 1e-13, "V = {v}");
        for i in 1..ZIGGURAT_LAYERS {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!(
                (area - v).abs() < 1e-12 * v,
                "layer {i}: area {area} vs V {v}"
            );
        }
    }

    #[test]
    fn ziggurat_matches_the_normal_cdf() {
        // Kolmogorov–Smirnov distance over 2²⁰ draws. The critical value at
        // α = 0.001 is 1.95/√n ≈ 0.0019; the reference cdf's own error
        // (1.5e-7) is negligible against it.
        let n = 1 << 20;
        let mut draws = standard_normal_vec(n, &mut seeded_rng(2000));
        draws.sort_by(f64::total_cmp);
        let normal = Normal::standard();
        let mut distance: f64 = 0.0;
        for (k, &x) in draws.iter().enumerate() {
            let cdf = normal.cdf(x);
            let below = k as f64 / n as f64;
            let above = (k + 1) as f64 / n as f64;
            distance = distance.max((cdf - below).abs()).max((above - cdf).abs());
        }
        let bound = 1.95 / (n as f64).sqrt();
        assert!(distance < bound, "KS distance {distance} ≥ {bound}");
    }

    #[test]
    fn ziggurat_tail_mass_beyond_r_is_binomial() {
        // Draws with |z| > R come only from the tail branch; their count is
        // Binomial(n, p) with p = 2(1 − Φ(R)) ≈ 2.6e-4. Allow 5σ.
        let n = 1 << 21;
        let mut rng = seeded_rng(31);
        let mut beyond = 0usize;
        let (mut negative, mut positive) = (0usize, 0usize);
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            if z.abs() > ZIGGURAT_R {
                beyond += 1;
                if z < 0.0 {
                    negative += 1;
                } else {
                    positive += 1;
                }
            }
        }
        let p = 2.0 * (1.0 - Normal::standard().cdf(ZIGGURAT_R));
        let expected = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (beyond as f64 - expected).abs() < 5.0 * sd,
            "{beyond} draws beyond R, expected {expected:.0} ± {sd:.0}"
        );
        assert!(negative > 0 && positive > 0, "the tail covers both signs");
    }

    #[test]
    fn batched_fill_handles_odd_lengths_and_is_deterministic() {
        let mut a = seeded_rng(9);
        let mut b = seeded_rng(9);
        let x = standard_normal_vec(17, &mut a);
        let y = standard_normal_vec(17, &mut b);
        assert_eq!(x, y);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn chi_squared_marginal_moments() {
        // If the marginals are standard normal, s = Σ_{i<k} z_i² over k = 16
        // components is χ²(16): mean 16, variance 32. With 4 000 replicates
        // the mean estimator has sd ≈ √(32/4000) ≈ 0.09 and the variance
        // estimator sd ≈ √(2·32²/4000) ≈ 0.7; use 5σ-ish tolerances.
        let k = 16;
        let reps = 4_000;
        let mut rng = seeded_rng(2025);
        let mut stats = Vec::with_capacity(reps);
        let mut buf = vec![0.0; k];
        for _ in 0..reps {
            standard_normal_fill(&mut buf, &mut rng);
            stats.push(buf.iter().map(|z| z * z).sum::<f64>());
        }
        let mean = stats.iter().sum::<f64>() / reps as f64;
        let var = stats.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (reps - 1) as f64;
        assert!((mean - 16.0).abs() < 0.5, "chi2 mean = {mean}");
        assert!((var - 32.0).abs() < 4.0, "chi2 var = {var}");
    }
}
