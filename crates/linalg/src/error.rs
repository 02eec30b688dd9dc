//! Error types shared across the linear-algebra crate.

use std::fmt;

/// Convenience alias used throughout `randrecon-linalg`.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Errors raised by matrix construction and decomposition routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes (e.g. a 3×2 added to a 2×3).
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand as (rows, cols).
        left: (usize, usize),
        /// Shape of the right/second operand as (rows, cols).
        right: (usize, usize),
    },
    /// An operation that requires a square matrix received a rectangular one.
    NotSquare {
        /// Shape that was provided.
        shape: (usize, usize),
    },
    /// A matrix expected to be symmetric was not (beyond tolerance).
    NotSymmetric {
        /// Maximum observed asymmetry |a_ij - a_ji|.
        max_asymmetry: f64,
    },
    /// Cholesky factorization failed because the matrix is not positive definite.
    NotPositiveDefinite {
        /// Index of the pivot that became non-positive.
        pivot: usize,
        /// Value of the offending pivot.
        value: f64,
    },
    /// The Jacobi eigensolver did not converge within the sweep budget.
    EigenDidNotConverge {
        /// Number of sweeps performed before giving up.
        sweeps: usize,
        /// Remaining off-diagonal Frobenius norm.
        off_diagonal_norm: f64,
    },
    /// A constructor received data whose length does not match the shape.
    InvalidData {
        /// Description of what was wrong.
        reason: String,
    },
    /// An empty matrix (zero rows or zero columns) was passed where it is not allowed.
    Empty {
        /// The operation that rejected the empty input.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::NotSymmetric { max_asymmetry } => {
                write!(f, "matrix is not symmetric (max |a_ij - a_ji| = {max_asymmetry:e})")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} has value {value:e}"
            ),
            LinalgError::EigenDidNotConverge {
                sweeps,
                off_diagonal_norm,
            } => write!(
                f,
                "Jacobi eigensolver did not converge after {sweeps} sweeps (off-diagonal norm {off_diagonal_norm:e})"
            ),
            LinalgError::InvalidData { reason } => write!(f, "invalid data: {reason}"),
            LinalgError::Empty { op } => write!(f, "empty matrix not allowed in {op}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = LinalgError::DimensionMismatch {
            op: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn display_not_positive_definite() {
        let err = LinalgError::NotPositiveDefinite {
            pivot: 3,
            value: -0.5,
        };
        assert!(err.to_string().contains("pivot 3"));
    }

    #[test]
    fn display_eigen_did_not_converge() {
        let e = LinalgError::EigenDidNotConverge {
            sweeps: 10,
            off_diagonal_norm: 1.0,
        };
        assert!(e.to_string().contains("10 sweeps"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LinalgError::Empty { op: "test" });
    }
}
