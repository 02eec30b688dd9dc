//! # randrecon-linalg
//!
//! Dense linear-algebra substrate for the `randrecon` workspace.
//!
//! The SIGMOD 2005 paper this workspace reproduces ("Deriving Private
//! Information from Randomized Data", Huang, Du & Chen) leans on a small but
//! specific set of matrix computations: covariance algebra, symmetric
//! eigendecomposition (for PCA-based reconstruction and spectral filtering),
//! Cholesky factorization (for multivariate-normal sampling and the SPD
//! solves of the Bayes-estimate reconstruction), and Gram–Schmidt
//! orthonormalization (for the synthetic workload generator of Section 7.1).
//!
//! Rather than pulling in `ndarray`/`nalgebra`, this crate implements exactly
//! those pieces from scratch so that the numerical behaviour of the attack and
//! defense code is fully auditable and has no hidden dependencies.
//!
//! ## Overview
//!
//! * [`Matrix`] — dense, row-major, `f64` matrix with the usual arithmetic.
//! * [`vector`] — free functions over `&[f64]` slices (dot products, norms, …).
//! * [`decomposition::Cholesky`] — SPD factorization, solves, log-det.
//! * [`decomposition::SymmetricEigen`] — symmetric eigensolver, eigenpairs
//!   sorted by descending eigenvalue: Householder tridiagonalization +
//!   implicit-shift QL by default, with the cyclic Jacobi solver retained as
//!   the pinned reference ([`decomposition::eigen_jacobi`]) and small-m
//!   fallback.
//! * [`gram_schmidt`] — modified Gram–Schmidt orthonormalization, used to build
//!   random orthogonal eigenvector bases exactly as the paper's experiment
//!   methodology prescribes, and the orthonormality check the tests use.
//! * [`parallel`] — the shared `randrecon-parallel` pool, re-exported so a
//!   crate that depends only on this one (the CSV codec in
//!   `randrecon-data`) runs on the same workers.
//!
//! ## Kernel design
//!
//! The hot operations run on slice kernels (in the private `kernels` module)
//! rather than per-element `get`/`set`:
//!
//! * **Blocked, packed matmul with a register microkernel.**
//!   [`Matrix::matmul`] packs the right operand once into panel-major layout
//!   (`KC = 64` × `NC = 256` panels: a 128 KiB panel streams through L2
//!   while each 2 KiB packed row stays in L1) and sweeps `k`-stripes.
//!   Inside each panel a **4×8 register microkernel** (`MR = 4` output rows
//!   × `NR = 8` output columns) loads its block of `C` into locals once per
//!   stripe, accumulates all `kc` rank-1 contributions while the block
//!   lives in registers, then stores — cutting `C` traffic from one
//!   load+store per `k` iteration (the old per-row `axpy` sweep, preserved
//!   in `randrecon-bench` as `matmul_blocked_axpy_seed`) to one per stripe,
//!   and giving the compiler a straight-line 32-multiply-add body it
//!   vectorizes at the machine's native width (`.cargo/config.toml` sets
//!   `target-cpu=native`; LLVM still performs no FMA contraction or
//!   reassociation, so results are flag-independent). Row/column tails
//!   fall back to the `axpy` sweep. Products below ~32 K multiply-adds
//!   keep the plain i-k-j loop — packing would cost more than it saves.
//!   Per-element accumulation order over `k` is identical in every path,
//!   so the result equals the naive loop ([`Matrix::matmul_naive`], kept
//!   public as the reference) element-for-element (`==`; the microkernel
//!   skips the naive loop's zero-skip, which for finite inputs can only
//!   flip the sign of an exact zero). Measured single-thread at 512×512:
//!   ~2.4× over the axpy-sweep blocked kernel (see `BENCH_3.json`).
//! * **Parallelism.** Products at or above ~4 M multiply-adds split the
//!   output row-wise across the **shared** workspace pool
//!   (`randrecon_parallel`, the same pool the experiment sweeps use; rayon is
//!   not available in the offline build environment, so the pool provides the
//!   rayon-equivalent bridge). Each output row is owned by exactly one
//!   worker, so results do not depend on thread count.
//! * **In-place products.** Two kernels overwrite their left operand
//!   instead of allocating a second `rows × cols` buffer, so a streamed
//!   chunk can stay one buffer from generation to sink.
//!   [`Matrix::matmul_square_in_place`] (`A ← A·B` for a square `B`, BE-DR's
//!   chunk map) copies 64 rows at a time into a scratch buffer and rebuilds
//!   them through the blocked kernel's row-block body.
//!   [`decomposition::Cholesky::mul_rows_in_place`] (each row `z ← z·Lᵀ`,
//!   the multivariate-normal transform) copies 8 rows at a time, transposed,
//!   into an L1 scratch so SIMD lanes run across rows, and accumulates an
//!   8-column register tile over `k` only up to the tile's diagonal block:
//!   about half the multiply-adds of `Z·Lᵀ`. Both keep the naive loop's
//!   per-element order, so they are bit-identical to `matmul` into a fresh
//!   buffer (for finite inputs the skipped upper triangle could only add
//!   `±0` to partial sums that are never `−0`), and both split rows across
//!   the pool at `matmul`'s threshold.
//! * **Transpose-free projections.** [`Matrix::matmul_transpose_b`] computes
//!   `A·Bᵀ` as row-by-row dot products — the natural kernel for the
//!   `(Y Q̂) Q̂ᵀ` projections of PCA-DR / spectral filtering — without ever
//!   materializing `Bᵀ`.
//! * **Tridiagonal eigensolver pipeline.** [`decomposition::SymmetricEigen`]
//!   runs the classic one-shot dense symmetric pipeline
//!   ([`decomposition::tridiagonal`]): Householder reduction to tridiagonal
//!   form on full symmetric storage (the rank-2 trailing-block update works
//!   on whole contiguous row segments and preserves symmetry bit-exactly),
//!   then implicit-shift QL with Wilkinson shifts and EISPACK-style
//!   global-scale deflation. The orthogonal factor is accumulated directly
//!   as `Qᵀ` by right-multiplying reflectors in reverse order, so both the
//!   back-transform and the trailing-block update are row-parallel over the
//!   shared pool, and every QL rotation touches two *adjacent contiguous
//!   rows* rather than strided column pairs. The QL chase additionally
//!   applies its rotations in **waves**: up to 32 consecutive rotations are
//!   buffered and replayed over `Qᵀ` in 128-column panels, so the ~33-row
//!   rotation band makes one cache-resident pass per panel instead of 32
//!   full-width row sweeps — same rotations, same order per element, so the
//!   result is bit-identical to the scalar two-row kernel (pinned as a
//!   `#[cfg(test)]` reference and cross-checked against Jacobi by the
//!   property tests). `O(n³)` with a small constant
//!   versus Jacobi's `O(n³ · sweeps)` — the swap that makes m = 256–512
//!   attack audits tractable. Cyclic Jacobi survives as
//!   [`decomposition::eigen_jacobi`], the pinned reference the property
//!   tests compare against (the same role `matmul_naive` plays for
//!   `matmul`), and handles dimensions below the dispatch threshold where
//!   reflector setup outweighs the sweeps.
//! * **Solve, don't invert.** [`decomposition::Cholesky::solve_matrix`]
//!   applies forward/back substitution to whole right-hand-side rows with
//!   contiguous `axpy`s. Every reconstruction path in the workspace is
//!   expressed through solves against a single factorization (e.g. BE-DR
//!   factors `Σ_x + Σ_r` exactly once), so the crate has no inverse.
//! * **Chunk sweeps compose with the kernels.** The streaming attack engine
//!   (`randrecon-core::streaming`) feeds records through these kernels one
//!   chunk at a time: pass 1 accumulates `Σ̂` with the same contiguous
//!   rank-update rows, pass 2 multiplies each chunk against the cached
//!   `m × m` solve products. Because every kernel's per-output-row
//!   accumulation order is independent of the other rows, a chunked sweep
//!   produces the same rows as one big product — the matmul dispatch
//!   (naive below ~32 K multiply-adds, blocked above) never changes a
//!   value, only the speed — which is what makes the streaming and
//!   in-memory attacks numerically interchangeable. The sweep is also
//!   *pipelined*: both passes flow through the bounded N-slot ring
//!   (`randrecon-parallel::pipeline_ring`, which generalized PR 4's
//!   two-slot pipeline) — a producer thread reads ahead while waves of
//!   chunks are transformed on the shared pool and the consumer drains
//!   results strictly in production order — the kernels themselves are
//!   untouched, and the output stays byte-identical to the sequential
//!   sweep at every slot count and worker count.
//! * **One contraction funnel.** Every kernel accumulates through a single
//!   `fmadd(a, b, acc)` helper, and so does the naive reference
//!   [`Matrix::matmul_naive`]. By default it is a separately rounded
//!   multiply-then-add, so results are flag-independent and bit-exact
//!   against the naive references; the opt-in `fma` cargo feature swaps in
//!   `f64::mul_add`, which `target-cpu=native` lowers to one hardware FMA
//!   per element (higher precision, different bits — the statistical
//!   goldens are re-baselined separately for that profile). Because the
//!   reference fuses too, every kernel is pinned bit for bit in both
//!   profiles.
//!
//! ## Example
//!
//! ```
//! use randrecon_linalg::{Matrix, decomposition::SymmetricEigen};
//!
//! // A tiny covariance matrix with one dominant direction.
//! let c = Matrix::from_rows(&[
//!     &[4.0, 1.9][..],
//!     &[1.9, 1.0][..],
//! ]).unwrap();
//! let eig = SymmetricEigen::new(&c).unwrap();
//! assert!(eig.eigenvalues[0] >= eig.eigenvalues[1]);
//! // Reconstruct C = Q Λ Qᵀ.
//! let rebuilt = eig.recompose();
//! assert!(c.approx_eq(&rebuilt, 1e-10));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decomposition;
pub mod error;
pub mod gram_schmidt;
mod kernels;
pub mod matrix;
pub mod vector;

pub use error::{LinalgError, Result};
pub use matrix::Matrix;

/// The shared workspace pool, for crates that reach it through this one.
/// `randrecon-data` parses and formats CSV bands on it this way: depending
/// on `randrecon-parallel` directly would add an entry to every lock file
/// that lists `randrecon-data`'s dependencies, while this re-export adds
/// none.
pub use randrecon_parallel as parallel;
