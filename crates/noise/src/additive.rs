//! Additive randomization: `Y = X + R`.
//!
//! This is the scheme whose privacy the paper studies. The original variant
//! adds independent zero-mean noise to every value (Agrawal–Srikant); the
//! improved variant of Section 8.1 draws the noise vector for each record from
//! a multivariate normal whose correlation structure resembles the original
//! data, which defeats the correlation-exploiting attacks.

use crate::error::{NoiseError, Result};
use crate::model::NoiseModel;
use rand::Rng;
use randrecon_data::chunks::{RandomAccess, RecordChunkSource};
use randrecon_data::{DataError, DataTable};
use randrecon_linalg::Matrix;
use randrecon_stats::distributions::{ContinuousDistribution, Normal, Uniform};
use randrecon_stats::mvn::MultivariateNormal;
use randrecon_stats::rng::{child_seed, seeded_rng};

/// A randomizer that disguises a table by adding noise drawn from a
/// [`NoiseModel`].
#[derive(Debug, Clone)]
pub struct AdditiveRandomizer {
    model: NoiseModel,
}

impl AdditiveRandomizer {
    /// Independent zero-mean Gaussian noise with standard deviation `sigma`.
    pub fn gaussian(sigma: f64) -> Result<Self> {
        Ok(AdditiveRandomizer {
            model: NoiseModel::independent_gaussian(sigma)?,
        })
    }

    /// Independent zero-mean uniform noise with standard deviation `sigma`.
    pub fn uniform(sigma: f64) -> Result<Self> {
        Ok(AdditiveRandomizer {
            model: NoiseModel::independent_uniform(sigma)?,
        })
    }

    /// Correlated Gaussian noise with covariance `covariance` — the improved
    /// randomization scheme of Section 8.1.
    pub fn correlated(covariance: Matrix) -> Result<Self> {
        Ok(AdditiveRandomizer {
            model: NoiseModel::correlated(covariance)?,
        })
    }

    /// The public noise model (what an adversary is assumed to know).
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// Adds fresh noise to `values` in place, `Y = X + R`, drawing `R` in
    /// row-major order: `σ·z` per entry for Gaussian noise, one uniform
    /// draw per entry for uniform noise, and one MVN sample per record for
    /// correlated noise. The one noise routine: [`disguise`](Self::disguise),
    /// [`sample_noise`](Self::sample_noise) and the chunk-wise
    /// [`DisguisedChunkSource`] all draw through it.
    pub fn add_noise<R: Rng + ?Sized>(&self, values: &mut Matrix, rng: &mut R) -> Result<()> {
        match &self.model {
            NoiseModel::IndependentGaussian { sigma } => {
                let dist = Normal::new(0.0, *sigma).map_err(NoiseError::Stats)?;
                for v in values.as_mut_slice() {
                    *v += dist.sample(rng);
                }
            }
            NoiseModel::IndependentUniform { sigma } => {
                let dist = Uniform::centered_with_std(*sigma).map_err(NoiseError::Stats)?;
                for v in values.as_mut_slice() {
                    *v += dist.sample(rng);
                }
            }
            NoiseModel::Correlated { covariance } => {
                let m = values.cols();
                if covariance.rows() != m {
                    return Err(NoiseError::DimensionMismatch {
                        reason: format!(
                            "noise covariance is {}x{} but the data has {m} attributes",
                            covariance.rows(),
                            covariance.cols()
                        ),
                    });
                }
                let mvn = MultivariateNormal::zero_mean(covariance.clone())?;
                values.add_assign_matrix(&mvn.sample_matrix(values.rows(), rng))?;
            }
        }
        Ok(())
    }

    /// Generates the noise matrix `R` (same shape as the data) without adding
    /// it: [`add_noise`](Self::add_noise) into zeros.
    pub fn sample_noise<R: Rng + ?Sized>(&self, n: usize, m: usize, rng: &mut R) -> Result<Matrix> {
        let mut noise = Matrix::zeros(n, m);
        self.add_noise(&mut noise, rng)?;
        Ok(noise)
    }

    /// Disguises a table: returns `Y = X + R` with fresh noise.
    pub fn disguise<R: Rng + ?Sized>(&self, table: &DataTable, rng: &mut R) -> Result<DataTable> {
        let mut disguised = table.values().clone();
        self.add_noise(&mut disguised, rng)?;
        Ok(table.with_values(disguised)?)
    }

    /// Disguises a table and also returns the exact noise matrix that was
    /// added. Experiments use this to verify theoretical error decompositions
    /// (e.g. Theorem 5.2).
    pub fn disguise_with_noise<R: Rng + ?Sized>(
        &self,
        table: &DataTable,
        rng: &mut R,
    ) -> Result<(DataTable, Matrix)> {
        let (n, m) = table.values().shape();
        let noise = self.sample_noise(n, m, rng)?;
        let disguised = table.values().add(&noise)?;
        Ok((table.with_values(disguised)?, noise))
    }
}

/// Chunk-wise disguising adapter: wraps any [`RecordChunkSource`] of
/// *original* records and yields the same chunks with fresh additive noise —
/// `Y = X + R` one chunk at a time, so the full noise matrix is never
/// materialized.
///
/// Chunk `i`'s noise is drawn from a child-seeded RNG
/// ([`child_seed`]`(base_seed, i)`) and added in place into the chunk the
/// inner source produced, which keeps the stream **restartable**: after
/// [`reset`](RecordChunkSource::reset) the adapter replays the identical
/// disguised chunks, exactly what the two-pass streaming attack engine
/// requires (pass 1 estimates Σ̂ and μ̂ from the same disguised values pass 2
/// reconstructs from). For the same reason chunk `i` depends on `i` alone,
/// so the adapter forwards the inner source's
/// [`random_access`](RecordChunkSource::random_access) view, disguising
/// each chunk it hands out.
#[derive(Debug, Clone)]
pub struct DisguisedChunkSource<S> {
    inner: S,
    randomizer: AdditiveRandomizer,
    base_seed: u64,
    chunk_index: u64,
}

impl<S: RecordChunkSource> DisguisedChunkSource<S> {
    /// Wraps a source of original records.
    pub fn new(inner: S, randomizer: AdditiveRandomizer, base_seed: u64) -> Self {
        DisguisedChunkSource {
            inner,
            randomizer,
            base_seed,
            chunk_index: 0,
        }
    }

    /// The public noise model of the wrapped randomizer.
    pub fn model(&self) -> &NoiseModel {
        self.randomizer.model()
    }

    /// The wrapped source of original records.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps back into the original-record source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

/// Adds chunk `index`'s noise to `chunk` in place.
fn disguise_chunk(
    randomizer: &AdditiveRandomizer,
    base_seed: u64,
    index: u64,
    chunk: &mut Matrix,
) -> randrecon_data::Result<()> {
    let mut rng = seeded_rng(child_seed(base_seed, index));
    randomizer
        .add_noise(chunk, &mut rng)
        .map_err(|e| DataError::Stream {
            reason: format!("noise sampling failed: {e}"),
        })
}

impl<S: RecordChunkSource> RecordChunkSource for DisguisedChunkSource<S> {
    fn n_attributes(&self) -> usize {
        self.inner.n_attributes()
    }

    fn n_records_hint(&self) -> Option<usize> {
        self.inner.n_records_hint()
    }

    fn reset(&mut self) -> randrecon_data::Result<()> {
        self.inner.reset()?;
        self.chunk_index = 0;
        Ok(())
    }

    fn next_chunk(&mut self) -> randrecon_data::Result<Option<Matrix>> {
        let Some(mut chunk) = self.inner.next_chunk()? else {
            return Ok(None);
        };
        disguise_chunk(
            &self.randomizer,
            self.base_seed,
            self.chunk_index,
            &mut chunk,
        )?;
        self.chunk_index += 1;
        Ok(Some(chunk))
    }

    fn skip_chunks(&mut self, n_chunks: usize) -> randrecon_data::Result<()> {
        // Noise chunk `i` is child-seeded by `i` alone, so skipping keeps
        // the disguise of every later chunk bit-identical to a full sweep.
        self.inner.skip_chunks(n_chunks)?;
        self.chunk_index += n_chunks as u64;
        Ok(())
    }

    fn random_access(&self) -> Option<RandomAccess<'_>> {
        let inner = self.inner.random_access()?;
        let (randomizer, base_seed) = (&self.randomizer, self.base_seed);
        Some(RandomAccess::new(inner.n_chunks(), move |index| {
            let Some(mut chunk) = inner.chunk_at(index)? else {
                return Ok(None);
            };
            disguise_chunk(randomizer, base_seed, index as u64, &mut chunk)?;
            Ok(Some(chunk))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randrecon_data::chunks::{materialize, SyntheticChunkSource, TableChunkSource};
    use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
    use randrecon_stats::summary;

    fn dataset(n: usize, seed: u64) -> SyntheticDataset {
        let spectrum = EigenSpectrum::principal_plus_small(2, 50.0, 5, 2.0).unwrap();
        SyntheticDataset::generate(&spectrum, n, seed).unwrap()
    }

    #[test]
    fn gaussian_noise_has_requested_variance() {
        let r = AdditiveRandomizer::gaussian(3.0).unwrap();
        let noise = r.sample_noise(20_000, 2, &mut seeded_rng(1)).unwrap();
        let var0 = summary::variance(&noise.column(0));
        let var1 = summary::variance(&noise.column(1));
        assert!((var0 - 9.0).abs() < 0.4, "var0 = {var0}");
        assert!((var1 - 9.0).abs() < 0.4, "var1 = {var1}");
        let mean0 = summary::mean(&noise.column(0));
        assert!(mean0.abs() < 0.1);
    }

    #[test]
    fn uniform_noise_bounded_and_has_requested_variance() {
        let r = AdditiveRandomizer::uniform(2.0).unwrap();
        let noise = r.sample_noise(20_000, 1, &mut seeded_rng(2)).unwrap();
        let col = noise.column(0);
        let half_width = 2.0 * 3.0_f64.sqrt();
        assert!(col.iter().all(|&v| v.abs() <= half_width));
        let var = summary::variance(&col);
        assert!((var - 4.0).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn disguise_preserves_shape_and_changes_values() {
        let ds = dataset(100, 7);
        let r = AdditiveRandomizer::gaussian(2.0).unwrap();
        let disguised = r.disguise(&ds.table, &mut seeded_rng(3)).unwrap();
        assert_eq!(disguised.n_records(), 100);
        assert_eq!(disguised.n_attributes(), 5);
        assert!(!disguised.approx_eq(&ds.table, 1e-9));
        assert_eq!(disguised.schema(), ds.table.schema());
    }

    #[test]
    fn disguise_with_noise_is_consistent() {
        let ds = dataset(50, 9);
        let r = AdditiveRandomizer::gaussian(1.5).unwrap();
        let (disguised, noise) = r
            .disguise_with_noise(&ds.table, &mut seeded_rng(4))
            .unwrap();
        let reconstructed_noise = disguised.values().sub(ds.table.values()).unwrap();
        assert!(reconstructed_noise.approx_eq(&noise, 1e-12));
    }

    #[test]
    fn disguised_covariance_gains_sigma_squared_on_diagonal() {
        // Theorem 5.1: Cov(Y) ≈ Cov(X) + σ² I.
        let ds = dataset(20_000, 11);
        let sigma = 4.0;
        let r = AdditiveRandomizer::gaussian(sigma).unwrap();
        let disguised = r.disguise(&ds.table, &mut seeded_rng(5)).unwrap();
        let cov_x = ds.table.covariance_matrix();
        let cov_y = disguised.covariance_matrix();
        for i in 0..5 {
            let expected = cov_x.get(i, i) + sigma * sigma;
            assert!(
                (cov_y.get(i, i) - expected).abs() < 2.0,
                "diagonal {i}: got {}, expected {expected}",
                cov_y.get(i, i)
            );
            for j in 0..5 {
                if i != j {
                    assert!((cov_y.get(i, j) - cov_x.get(i, j)).abs() < 2.0);
                }
            }
        }
    }

    #[test]
    fn correlated_noise_matches_requested_covariance() {
        let ds = dataset(10_000, 13);
        let target_cov = ds.covariance.scale(0.25);
        let r = AdditiveRandomizer::correlated(target_cov.clone()).unwrap();
        let noise = r.sample_noise(10_000, 5, &mut seeded_rng(6)).unwrap();
        let est = summary::covariance_matrix(&noise);
        let rel = est.sub(&target_cov).unwrap().frobenius_norm() / target_cov.frobenius_norm();
        assert!(rel < 0.1, "relative error {rel}");
        // Wrong dimension rejected.
        assert!(r.sample_noise(10, 3, &mut seeded_rng(1)).is_err());
    }

    #[test]
    fn model_accessor() {
        let model = NoiseModel::independent_gaussian(2.0).unwrap();
        let r = AdditiveRandomizer::gaussian(2.0).unwrap();
        assert_eq!(r.model(), &model);
    }

    #[test]
    fn disguised_chunk_source_replays_identically_after_reset() {
        let ds = dataset(120, 21);
        let randomizer = AdditiveRandomizer::gaussian(2.0).unwrap();
        let source = TableChunkSource::new(&ds.table, 32).unwrap();
        let mut disguised = DisguisedChunkSource::new(source, randomizer, 77);
        assert_eq!(disguised.n_attributes(), 5);
        assert_eq!(disguised.n_records_hint(), Some(120));
        assert_eq!(disguised.model().iid_variance(), Some(4.0));

        let sweep1 = materialize(&mut disguised).unwrap();
        let sweep2 = materialize(&mut disguised).unwrap();
        assert!(sweep1.approx_eq(&sweep2, 0.0));
        // Noise actually got added.
        assert!(!sweep1.values().approx_eq(ds.table.values(), 1e-9));
        // And it is zero-mean-ish: the disguised means track the originals.
        let orig_means = ds.table.mean_vector();
        for (got, want) in sweep1.mean_vector().iter().zip(orig_means.iter()) {
            assert!((got - want).abs() < 1.5, "means drifted: {got} vs {want}");
        }
        let inner = disguised.into_inner();
        assert_eq!(inner.n_records_hint(), Some(120));
    }

    #[test]
    fn disguise_and_disguise_with_noise_draw_the_same_noise() {
        let ds = dataset(300, 17);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for r in [
            AdditiveRandomizer::gaussian(2.0).unwrap(),
            AdditiveRandomizer::uniform(2.0).unwrap(),
            AdditiveRandomizer::correlated(ds.covariance.scale(0.5)).unwrap(),
        ] {
            let disguised = r.disguise(&ds.table, &mut seeded_rng(8)).unwrap();
            let (with_noise, noise) = r
                .disguise_with_noise(&ds.table, &mut seeded_rng(8))
                .unwrap();
            assert_eq!(bits(disguised.values()), bits(with_noise.values()));
            let mut by_hand = ds.table.values().clone();
            r.add_noise(&mut by_hand, &mut seeded_rng(8)).unwrap();
            assert_eq!(bits(&by_hand), bits(disguised.values()));
            assert_eq!(
                bits(&noise),
                bits(&r.sample_noise(300, 5, &mut seeded_rng(8)).unwrap())
            );
        }
    }

    #[test]
    fn disguised_random_access_is_the_sequential_sweep() {
        let spectrum = EigenSpectrum::principal_plus_small(2, 50.0, 5, 2.0).unwrap();
        // 500 records in chunks of 128: three full chunks and a short one.
        let original = SyntheticChunkSource::generate(&spectrum, 500, 128, 3).unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for randomizer in [
            AdditiveRandomizer::gaussian(2.0).unwrap(),
            AdditiveRandomizer::uniform(2.0).unwrap(),
            AdditiveRandomizer::correlated(original.covariance().scale(0.5)).unwrap(),
        ] {
            let mut disguised = DisguisedChunkSource::new(original.clone(), randomizer, 19);
            let mut sweep = Vec::new();
            while let Some(chunk) = disguised.next_chunk().unwrap() {
                sweep.push(chunk);
            }
            let view = disguised
                .random_access()
                .expect("forwarded from the generator");
            assert_eq!(view.n_chunks(), 4);
            for index in [3, 1, 0, 2] {
                let chunk = view.chunk_at(index).unwrap().unwrap();
                assert_eq!(bits(&chunk), bits(&sweep[index]), "chunk {index}");
            }
            assert_eq!(view.chunk_at(3).unwrap().unwrap().rows(), 500 - 3 * 128);
            assert!(view.chunk_at(4).unwrap().is_none());
            // Noise went in: the view is not the generator's view.
            let raw = original
                .random_access()
                .unwrap()
                .chunk_at(0)
                .unwrap()
                .unwrap();
            assert_ne!(bits(&raw), bits(&sweep[0]));
        }
    }

    #[test]
    fn disguised_skip_keeps_later_chunks_identical_to_the_full_sweep() {
        let ds = dataset(200, 29);
        let randomizer = AdditiveRandomizer::uniform(1.5).unwrap();
        let source = TableChunkSource::new(&ds.table, 48).unwrap();
        let mut disguised = DisguisedChunkSource::new(source, randomizer, 41);
        let mut sweep = Vec::new();
        while let Some(chunk) = disguised.next_chunk().unwrap() {
            sweep.push(chunk);
        }
        assert_eq!(sweep.len(), 5);
        disguised.reset().unwrap();
        disguised.skip_chunks(2).unwrap();
        for expected in &sweep[2..] {
            let chunk = disguised.next_chunk().unwrap().unwrap();
            assert!(chunk.approx_eq(expected, 0.0));
        }
        assert!(disguised.next_chunk().unwrap().is_none());
        assert_eq!(disguised.inner().n_records_hint(), Some(200));
    }

    #[test]
    fn indefinite_correlated_covariance_is_rejected_when_sampling() {
        // Symmetric, so the model accepts it, but not positive definite.
        let cov = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 1.0][..]]).unwrap();
        let r = AdditiveRandomizer::correlated(cov).unwrap();
        assert!(r.sample_noise(10, 2, &mut seeded_rng(1)).is_err());
        let table = DataTable::from_matrix(Matrix::zeros(10, 2)).unwrap();
        assert!(r.disguise(&table, &mut seeded_rng(1)).is_err());
    }

    #[test]
    fn disguised_sequential_source_offers_no_random_access() {
        let ds = dataset(40, 5);
        let source = TableChunkSource::new(&ds.table, 16).unwrap();
        let disguised =
            DisguisedChunkSource::new(source, AdditiveRandomizer::gaussian(1.0).unwrap(), 1);
        assert!(disguised.random_access().is_none());
    }

    #[test]
    fn disguised_chunk_noise_has_requested_variance() {
        // Big enough sample to pin the per-attribute noise variance.
        let ds = dataset(20_000, 23);
        let randomizer = AdditiveRandomizer::gaussian(3.0).unwrap();
        let source = TableChunkSource::new(&ds.table, 1024).unwrap();
        let mut disguised = DisguisedChunkSource::new(source, randomizer, 5);
        let swept = materialize(&mut disguised).unwrap();
        let noise = swept.values().sub(ds.table.values()).unwrap();
        for j in 0..5 {
            let var = summary::variance(&noise.column(j));
            assert!((var - 9.0).abs() < 0.5, "attribute {j}: var = {var}");
        }
    }
}
