//! # randrecon-data
//!
//! Data representation and workload generation for the `randrecon` workspace.
//!
//! * [`table::DataTable`] — a named, column-oriented table of `f64` records;
//!   every randomization scheme and reconstruction attack consumes and
//!   produces these.
//! * [`schema::Schema`] — attribute names and sensitivity flags.
//! * [`synthetic`] — the synthetic workload generator of Section 7.1 of the
//!   SIGMOD 2005 paper: specify an eigenvalue spectrum, build a random
//!   orthogonal eigenbasis with Gram–Schmidt, form `C = Q Λ Qᵀ`, and sample a
//!   multivariate normal data set from it.
//! * [`csv`] — minimal CSV reading/writing so examples can persist data sets
//!   without extra dependencies, including a chunked reader/writer pair for
//!   streaming workloads.
//! * [`chunks`] — the [`chunks::RecordChunkSource`] abstraction behind the
//!   bounded-memory streaming attack engine, with in-memory and synthetic
//!   chunk sources.
//!
//! ## Example
//!
//! ```
//! use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
//!
//! // 10 attributes, 3 dominant directions — a highly correlated data set.
//! let spectrum = EigenSpectrum::principal_plus_small(3, 400.0, 10, 1.0).unwrap();
//! let dataset = SyntheticDataset::generate(&spectrum, 500, 42).unwrap();
//! assert_eq!(dataset.table.n_attributes(), 10);
//! assert_eq!(dataset.table.n_records(), 500);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chunks;
pub mod csv;
pub mod error;
mod float_text;
pub mod schema;
pub mod synthetic;
pub mod table;
pub mod timeseries;

pub use chunks::RecordChunkSource;
pub use error::{DataError, Result};
pub use schema::Schema;
pub use table::DataTable;
