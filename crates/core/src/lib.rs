//! # randrecon-core
//!
//! The reconstruction attacks from *"Deriving Private Information from
//! Randomized Data"* (Huang, Du & Chen, SIGMOD 2005), plus the Spectral
//! Filtering baseline they compare against (Kargupta et al., ICDM 2003).
//!
//! Every attack consumes a **disguised** [`randrecon_data::DataTable`]
//! (`Y = X + R`) together with the **public** [`randrecon_noise::NoiseModel`]
//! and produces an estimate `X̂` of the original table. How close `X̂` gets to
//! `X` (RMSE, see `randrecon-metrics`) measures how much private information
//! the randomization leaked.
//!
//! | Scheme | Section | Idea |
//! |---|---|---|
//! | [`ndr::Ndr`] | §4.1 | guess `X̂ = Y` (noise-only baseline) |
//! | [`udr::Udr`] | §4.2 | per-attribute posterior mean `E[X \| Y]` |
//! | [`pca_dr::PcaDr`] | §5 | project onto the estimated principal components |
//! | [`spectral::SpectralFiltering`] | Kargupta et al. | random-matrix bound separates signal from noise eigenvalues |
//! | [`be_dr::BeDr`] | §6 & §8 | multivariate Bayes estimate (Eq. 11 / Eq. 13) |
//!
//! For record sets too large to hold in memory, the [`streaming`] module
//! runs **all five** attacks in two passes over a chunked record source
//! (`randrecon_data::chunks::RecordChunkSource`) with peak memory
//! `O(chunk · m + m²)`: pass 1 feeds a mergeable [`CovarianceAccumulator`],
//! then each attack — a [`streaming::ChunkReconstructor`] — prepares its
//! cached state once from the streamed moments and the generic
//! [`streaming::StreamingDriver`] sweeps the chunks through it into a
//! pluggable sink, pipelining the sweep on an N-slot ring so sink I/O overlaps
//! reconstruction.
//!
//! The [`engine`] module names the five schemes ([`engine::AttackScheme`])
//! and carries a configured instance ([`engine::Attack`]) with one method
//! per execution path: [`engine::Attack::reconstruct_table_with_report`]
//! in memory and [`engine::Attack::chunk_reconstructor`] for the streaming
//! driver. The declarative scenario layer in `randrecon-experiments` calls
//! both.
//!
//! ## Example
//!
//! ```
//! use randrecon_core::{be_dr::BeDr, Reconstructor};
//! use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
//! use randrecon_noise::additive::AdditiveRandomizer;
//! use randrecon_stats::rng::seeded_rng;
//!
//! // Highly correlated data: 2 dominant directions out of 8 attributes.
//! let spectrum = EigenSpectrum::principal_plus_small(2, 200.0, 8, 1.0).unwrap();
//! let ds = SyntheticDataset::generate(&spectrum, 500, 11).unwrap();
//! let randomizer = AdditiveRandomizer::gaussian(4.0).unwrap();
//! let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(12)).unwrap();
//!
//! let attack = BeDr::default();
//! let reconstructed = attack.reconstruct(&disguised, randomizer.model()).unwrap();
//! let rmse = randrecon_metrics::rmse(&ds.table, &reconstructed).unwrap();
//! // Much better than the noise standard deviation of 4.0.
//! assert!(rmse < 3.0, "rmse = {rmse}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod be_dr;
pub mod covariance;
pub mod engine;
pub mod error;
pub mod ndr;
pub mod partial;
pub mod pca_dr;
pub mod selection;
pub mod spectral;
pub mod streaming;
pub mod temporal;
pub mod theory;
pub mod traits;
pub mod udr;

pub use covariance::CovarianceAccumulator;
pub use engine::{Attack, AttackScheme};
pub use error::{ReconError, Result};
pub use selection::ComponentSelection;
pub use streaming::{
    accumulate_moment_segments, merge_moment_segments, moment_segment_count, ChunkReconstructor,
    MomentSegment, RecordSink, StreamingBeDr, StreamingDriver, StreamingNdr, StreamingPcaDr,
    StreamingSf, StreamingUdr, MOMENT_SEGMENT_CHUNKS,
};
pub use traits::Reconstructor;
