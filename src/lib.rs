//! # randrecon — Deriving Private Information from Randomized Data
//!
//! Facade crate re-exporting the whole workspace. The crate-level docs of
//! the sub-crates map each subsystem back to the SIGMOD 2005 paper it
//! reproduces: [`core`] for the five reconstruction attacks and the
//! streaming engine, [`experiments`] for the evaluation (the named grids
//! behind `scenarios --grid <name>`, journals and shards), and
//! [`linalg`], [`stats`], [`noise`], [`data`] and [`metrics`] for the
//! layers underneath.
//!
//! ```
//! // The facade simply re-exports the sub-crates under shorter names.
//! use randrecon::linalg::Matrix;
//! let eye = Matrix::identity(3);
//! assert_eq!(eye.trace(), 3.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use randrecon_core as core;
pub use randrecon_data as data;
pub use randrecon_experiments as experiments;
pub use randrecon_linalg as linalg;
pub use randrecon_metrics as metrics;
pub use randrecon_noise as noise;
pub use randrecon_stats as stats;
