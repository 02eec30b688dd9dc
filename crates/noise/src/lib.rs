//! # randrecon-noise
//!
//! The randomization (data-disguising) schemes that the reconstruction attacks
//! in `randrecon-core` target.
//!
//! * [`model::NoiseModel`] — the *public* description of the noise an adversary
//!   is assumed to know: independent Gaussian, independent uniform, or
//!   correlated Gaussian noise with a full covariance matrix.
//! * [`additive::AdditiveRandomizer`] — the classic Agrawal–Srikant scheme
//!   `Y = X + R` with i.i.d. zero-mean noise, plus the paper's improved scheme
//!   (Section 8.1) that draws `R` from a multivariate normal whose correlation
//!   structure mimics the original data.
//! * [`correlated`] — helpers for building the correlated-noise covariance
//!   from a data set's eigenbasis at a chosen similarity level, exactly as
//!   Experiment 4 does.
//!
//! ## Example
//!
//! ```
//! use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
//! use randrecon_noise::additive::AdditiveRandomizer;
//! use randrecon_stats::rng::seeded_rng;
//!
//! let spectrum = EigenSpectrum::principal_plus_small(2, 100.0, 6, 1.0).unwrap();
//! let ds = SyntheticDataset::generate(&spectrum, 200, 1).unwrap();
//! let randomizer = AdditiveRandomizer::gaussian(4.0).unwrap();
//! let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(2)).unwrap();
//! assert_eq!(disguised.n_records(), 200);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod additive;
pub mod correlated;
pub mod error;
pub mod model;

pub use additive::AdditiveRandomizer;
pub use error::{NoiseError, Result};
pub use model::NoiseModel;
