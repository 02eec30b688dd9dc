//! # randrecon-stats
//!
//! Statistics substrate for the `randrecon` workspace: univariate and
//! multivariate distributions, summary statistics, density estimation, the
//! Agrawal–Srikant distribution-reconstruction algorithm, and the posterior
//! means of the univariate Bayes reconstruction (UDR, Section 4.2 of the
//! SIGMOD 2005 paper). Under uniform noise UDR's trapezoid quadrature is
//! tabulated once per attribute and summed only inside each value's noise
//! window, bit for bit equal to the full-grid reference.
//!
//! The paper's experiments were run in Matlab (`mvnrnd`, `cov`, `corrcoef`);
//! this crate provides the equivalent functionality on top of
//! [`randrecon_linalg`] so the whole pipeline is pure Rust.
//!
//! ## Example: sampling a correlated multivariate normal
//!
//! ```
//! use randrecon_linalg::Matrix;
//! use randrecon_stats::{mvn::MultivariateNormal, rng::seeded_rng, summary};
//!
//! let cov = Matrix::from_rows(&[&[4.0, 1.5][..], &[1.5, 2.0][..]]).unwrap();
//! let mvn = MultivariateNormal::new(vec![0.0, 0.0], cov).unwrap();
//! let mut rng = seeded_rng(7);
//! let samples = mvn.sample_matrix(5_000, &mut rng);
//! let est = summary::covariance_matrix(&samples);
//! assert!((est.get(0, 1) - 1.5).abs() < 0.2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod density;
pub mod distributions;
pub mod error;
pub mod mvn;
pub mod posterior;
pub mod reconstruction;
pub mod rng;
pub mod summary;

pub use error::{Result, StatsError};
