//! Matrix decompositions.
//!
//! * [`Cholesky`] — for sampling from multivariate normals and for the SPD
//!   solves of the Bayes-estimate reconstruction.
//! * [`SymmetricEigen`] — symmetric eigendecomposition; the workhorse behind
//!   PCA-DR and Spectral Filtering. The default path is Householder
//!   tridiagonalization + implicit-shift QL ([`tridiagonal`]); the original
//!   cyclic Jacobi solver survives as the pinned reference
//!   ([`eigen_jacobi`]) and as the small-m fallback.

mod cholesky;
mod eigen;
pub mod tridiagonal;

pub use cholesky::Cholesky;
pub use eigen::{eigen_jacobi, recompose, SymmetricEigen};
pub use tridiagonal::{symmetric_eigenvalues, Tridiagonal};
