//! Eigensolvers and linear operators for random-walk spectra.
//!
//! The paper's first measurement method needs the **second largest
//! eigenvalue modulus** (SLEM) of the random-walk transition matrix
//! `P = D⁻¹A` of graphs with up to a million nodes. No mature sparse
//! eigensolver exists in the offline crate set, so this crate
//! implements the whole stack from scratch:
//!
//! - [`op`] — matrix-free [`op::LinearOp`]s over a CSR graph: the
//!   row-stochastic walk operator `P`, its symmetrization
//!   `S = D^{-1/2} A D^{-1/2}` (same spectrum, symmetric — the key
//!   trick that lets us use symmetric methods), lazy and deflated
//!   wrappers.
//! - [`kernel`] — the CSR gathers every operator runs (one exact f64
//!   loop per shape, plus the f32 loop), the sealed [`Real`] trait over
//!   f32 and f64, and the `SOCMIX_KERNEL` knob choosing between exact
//!   and mixed-precision (1e-6 tolerance) eigensolvers. `LinearOp`,
//!   `SymmetricWalkOp`, `DeflatedOp`, the vector ops and the Lanczos
//!   recurrence are each written once over `T: Real` (default `f64`):
//!   the mixed drivers run the same code at f32, then polish in f64.
//! - [`multivec`] — row-major `n × B` blocks and the batched
//!   [`multivec::MultiLinearOp`] apply: one CSR traversal serves `B`
//!   stacked distributions, the GEMM-shaped kernel behind the
//!   sampling probe.
//! - [`distributed`] — the partitioned-CSR multi-process backend:
//!   [`distributed::plan_shards`] splits the structure along an
//!   edge-cut, [`distributed::DistributedOp`] runs the same walk
//!   operators across worker processes (selected by `SOCMIX_SHARDS`,
//!   bit-for-bit equal to the shared-memory kernels).
//! - [`dense`] — dense symmetric **Jacobi** eigensolver, the ground
//!   truth for everything else on graphs up to a few hundred nodes.
//! - [`tridiag`] — symmetric tridiagonal QL with implicit shifts,
//!   the inner solver for Lanczos.
//! - [`lanczos`] — **Lanczos with full reorthogonalization**, the
//!   production path for SLEM on large graphs.
//! - [`power`] — power iteration with Rayleigh quotients, an
//!   independent second method used to cross-check Lanczos.
//! - [`vecops`] — the dense vector kernels shared by all of the
//!   above.
//! - [`workspace`] — per-thread reusable scratch buffers; with them
//!   the operators above allocate **nothing** per application, so the
//!   iterative drivers run allocation-free in steady state.
//!
//! Spectral facts used throughout (Theorem 2 of the paper, after
//! Sinclair): for a connected undirected graph the eigenvalues of `P`
//! are real, `1 = λ₁ > λ₂ ≥ … ≥ λₙ ≥ −1`, with `λₙ = −1` iff the
//! graph is bipartite; `µ = max(λ₂, −λₙ)`; and the eigenvector of
//! `S` for λ₁ is the known vector `D^{1/2}𝟙` (normalized), which we
//! deflate explicitly instead of estimating.

// Every pointer dereference inside an unsafe fn must carry its own
// unsafe block (and SAFETY comment) instead of riding the signature.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cg;
pub mod dense;
pub mod distributed;
pub mod kernel;
pub mod lanczos;
pub mod multivec;
pub mod op;
pub mod power;
pub mod tridiag;
pub mod vecops;
pub mod workspace;

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use dense::{jacobi_eigen, DenseMatrix};
pub use distributed::{contiguous_labels, plan_shards, DistributedOp, ShardPart, ShardPlan};
pub use kernel::{KernelKind, Real};
pub use lanczos::{
    lanczos_extreme, lanczos_extreme_mixed, lanczos_topk, LanczosOptions, LanczosResult, TopkResult,
};
pub use multivec::{MultiLinearOp, MultiVec, MultiVecMut};
pub use op::{DeflatedOp, LazyOp, LinearOp, SymmetricWalkOp, WalkOp};
pub use power::{
    power_iteration, power_iteration_mixed, spectral_radius_in_complement,
    spectral_radius_in_complement_mixed, PowerOptions, PowerResult, SpectralRadius,
};
