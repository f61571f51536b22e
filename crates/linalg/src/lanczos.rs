//! Lanczos iteration with full reorthogonalization.
//!
//! The production SLEM path: run Lanczos on the deflated symmetric
//! walk operator and read the extreme Ritz values — the top one
//! converges to λ₂ and the bottom one to λₙ, giving
//! `µ = max(λ₂, −λₙ)`.
//!
//! Full reorthogonalization (two Gram–Schmidt passes against the
//! whole basis per step) trades memory — `O(n·k)` for `k` basis
//! vectors — for unconditional numerical robustness; without it,
//! Lanczos famously produces ghost copies of converged eigenvalues.
//! At the basis sizes extremal problems need (k ≤ a few hundred) this
//! is the right trade. For graphs too large for the basis to fit in
//! memory, use [`crate::power::power_iteration`], which needs O(n).
//!
//! # Reorthogonalization: CGS2 over fixed chunks
//!
//! Each step orthogonalizes the new vector `w` by classical
//! Gram–Schmidt run twice (CGS2): `w −= V·(Vᵀw)`, then again. Two
//! passes of the classical variant keep the basis orthogonal to
//! working precision ("twice is enough": Giraud, Langou & Rozložník,
//! *Numer. Math.* 2005), and unlike modified Gram–Schmidt all `k` dots
//! of a pass are independent, so a pass is two sweeps over the basis
//! instead of `2k` dependent ones:
//!
//! - **Dots.** `Vᵀw` is computed over fixed chunks of `REORTH_CHUNK`
//!   (4096) rows. Within a chunk each basis vector sums its rows in
//!   order into one f64 accumulator, eight vectors sharing each pass
//!   over `w`; the per-chunk partials are then added in chunk order.
//!   The chunk size is a constant, so the summation order, and every
//!   bit of the result, is a function of `n` alone.
//! - **Update.** `w −= V·h` runs chunk by chunk in place, each entry
//!   subtracting the basis terms in basis order.
//!
//! The first pass's update and the second pass's dots share one sweep,
//! block by block while the block's basis rows are still in L2, so a
//! step reads the basis three times instead of four.
//!
//! Every sweep runs on the operator's [`LinearOp::pool`]; the pool only
//! schedules chunks, so pool width changes wall clock, never bits.
//!
//! The in-order, single-accumulator order stays the contract where a
//! result must equal another code path bit for bit: the operators and
//! CSR gathers (pinned to the naive-loop oracle and, sharded, to
//! shared memory) and the batched evolver (pinned to the serial one),
//! plus the f64 [`Real::sum_pairs`] behind α, β and the deflation
//! projection. No other code path computes a Lanczos basis, so the
//! reorthogonalization dots owe bits only to themselves: they stay
//! deterministic across pools and backends, but trade the single add
//! chain, whose latency serialized ~80% of every step, for the chunk
//! fold.

use crate::kernel::Real;
use crate::op::{LinearOp, SendMut};
use crate::tridiag::tridiag_eigen;
use crate::vecops::{axpy, dot, norm2, normalize, resid_norm, scale};
use rand::Rng;
use socmix_obs::{obs_debug, Counter, Histogram, Span};
use socmix_par::Pool;
use std::ops::Range;

static RUNS: Counter = Counter::new("linalg.lanczos.runs");
static STEPS: Counter = Counter::new("linalg.lanczos.steps");
/// Mixed-precision driver invocations.
static MIXED_RUNS: Counter = Counter::new("linalg.lanczos.mixed_runs");
/// Wall time per Lanczos run (extreme/topk, scalar and mixed); on a
/// trace timeline one span per SLEM solve.
static RUN_NS: Histogram = Histogram::new("linalg.lanczos.run_ns");

/// Wall time per reorthogonalization (one CGS2 call per Lanczos
/// step); the rest of a step is the operator apply.
static REORTH_NS: Histogram = Histogram::new("linalg.lanczos.reorth_ns");

/// Rows per chunk of the reorthogonalization sweeps. A constant, so
/// the chunk fold of every basis dot, and with it every Lanczos bit,
/// depends on `n` alone.
const REORTH_CHUNK: usize = 4096;

/// Rows per block within a sweep chunk. The basis rows one block
/// touches (≤ 1.2 MB at 300 vectors) stay in L2 between a fused
/// sweep's update and its dots. Blocking never changes bits: each
/// dot's accumulator carries across the blocks of its chunk.
const SWEEP_BLOCK: usize = 512;

/// Residual tolerance the polished f64 Ritz pairs are held to when
/// reporting `converged`: the basis itself carries f32-level error, so
/// tolerances tighter than this are not attainable on the mixed path.
const MIXED_TOL_FLOOR: f64 = 1e-5;
/// f64 shifted power-iteration refinement steps per extreme vector.
const MIXED_REFINE_STEPS: usize = 2;

/// Options for [`lanczos_extreme`].
#[derive(Debug, Clone, Copy)]
pub struct LanczosOptions {
    /// Maximum Lanczos steps (= maximum basis size).
    pub max_iter: usize,
    /// Residual tolerance for the extreme Ritz pairs.
    pub tol: f64,
    /// Check convergence every this many steps (0 is taken as 1).
    pub check_every: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_iter: 300,
            tol: 1e-9,
            check_every: 10,
        }
    }
}

/// Result of [`lanczos_extreme`].
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Largest Ritz value (→ largest eigenvalue of the operator).
    pub top: f64,
    /// Smallest Ritz value (→ smallest eigenvalue of the operator).
    pub bottom: f64,
    /// Residual bound `|β_k · s_k|` for the top pair.
    pub top_residual: f64,
    /// Residual bound for the bottom pair.
    pub bottom_residual: f64,
    /// Lanczos steps taken.
    pub iterations: usize,
    /// Whether both residuals met the tolerance.
    pub converged: bool,
}

/// What the extreme drivers report when the operator is zero on the
/// start vector: a zero spectrum.
const ZERO_SPECTRUM: LanczosResult = LanczosResult {
    top: 0.0,
    bottom: 0.0,
    top_residual: 0.0,
    bottom_residual: 0.0,
    iterations: 0,
    converged: true,
};

/// The start vector of every iterative solver in this crate: entries
/// drawn uniformly from `[−½, ½)` in f64 and rounded once to `T`, then
/// folded through one application of `op` — for a
/// [`crate::op::DeflatedOp`] that also projects out the deflated
/// directions — unless the fold nearly vanishes, in which case the raw
/// draw is kept. `None` when the result normalizes to zero.
pub(crate) fn start_vector<T: Real, Op: LinearOp<T>, R: Rng + ?Sized>(
    op: &Op,
    rng: &mut R,
) -> Option<Vec<T>> {
    let mut v: Vec<T> = (0..op.dim())
        .map(|_| T::from_f64(rng.random::<f64>() - 0.5))
        .collect();
    let w = op.apply_vec(&v);
    if norm2(&w) > T::START_FLOOR {
        v = w;
    }
    (normalize(&mut v) != 0.0).then_some(v)
}

/// The state of one Lanczos run: the orthonormal Krylov basis and the
/// symmetric tridiagonal matrix `T` (diagonal `alphas`, off-diagonal
/// `betas[..m − 1]`, and `betas[m − 1]` the residual coupling, zero
/// once the space is exhausted). The basis may hold one vector more
/// than `T` has rows.
struct Krylov<T> {
    basis: Vec<Vec<T>>,
    alphas: Vec<f64>,
    betas: Vec<f64>,
}

impl<T: Real> Krylov<T> {
    /// The Lanczos recurrence with full reorthogonalization, at
    /// precision `T` with every coefficient in f64 — the one loop all
    /// drivers in this module run. Starts from the unit vector `v`,
    /// takes at most `max_iter` steps, stops early when `β` falls below
    /// `T::BETA_FLOOR` (an invariant subspace) or when `stop`, asked
    /// with the current `(alphas, betas)` every `check_every` steps,
    /// says so.
    fn run<Op: LinearOp<T>>(
        op: &Op,
        v: Vec<T>,
        max_iter: usize,
        check_every: usize,
        mut stop: impl FnMut(&[f64], &[f64]) -> bool,
    ) -> Self {
        let mut k = Krylov {
            basis: vec![v],
            alphas: Vec::new(),
            betas: Vec::new(),
        };
        let pool = op.pool();
        let check_every = check_every.max(1);
        let mut partials = Vec::new();
        for j in 0..max_iter {
            STEPS.incr();
            // `w` is the only per-step allocation left: it becomes the
            // next basis vector (storage the algorithm must keep),
            // while the operator's own scratch is reused across applies.
            let mut w = vec![T::default(); op.dim()];
            op.apply(&k.basis[j], &mut w);
            let alpha = dot(&w, &k.basis[j]);
            axpy(-alpha, &k.basis[j], &mut w);
            if j > 0 {
                axpy(-k.betas[j - 1], &k.basis[j - 1], &mut w);
            }
            cgs2(&pool, &k.basis, &mut w, &mut partials);
            k.alphas.push(alpha);
            let beta = norm2(&w);
            if beta < T::BETA_FLOOR {
                // invariant subspace found: the tridiagonal matrix is
                // exact at this precision's resolution
                k.betas.push(0.0);
                break;
            }
            k.betas.push(beta);
            if k.basis.len() == max_iter {
                break;
            }
            normalize(&mut w);
            k.basis.push(w);
            if (j + 1) % check_every == 0 && stop(&k.alphas, &k.betas) {
                break;
            }
        }
        k
    }

    /// The Ritz values (descending) and the matching eigenvectors `s`
    /// of the tridiagonal matrix.
    fn ritz_pairs(&self) -> (Vec<f64>, Vec<Vec<f64>>) {
        let m = self.alphas.len();
        tridiag_eigen(&self.alphas, &self.betas[..m - 1])
    }

    /// The unit Ritz vector `Σ_i s_i · v_i`, accumulated in f64.
    fn ritz_vector(&self, s: &[f64]) -> Vec<f64> {
        let mut rv = vec![0.0f64; self.basis[0].len()];
        for (b, &c) in self.basis.iter().zip(s) {
            for (ri, &bi) in rv.iter_mut().zip(b) {
                *ri += c * bi.to_f64();
            }
        }
        normalize(&mut rv);
        rv
    }
}

/// Full reorthogonalization of `w` against the orthonormal `basis`:
/// two passes of classical Gram–Schmidt (CGS2), `w −= V·(Vᵀw)` twice,
/// as three sweeps over the basis: the first pass's dots, its update
/// fused with the second pass's dots, and the second pass's update.
/// `partials` is reusable scratch for the per-chunk dots.
fn cgs2<T: Real>(pool: &Pool, basis: &[Vec<T>], w: &mut [T], partials: &mut Vec<f64>) {
    let _span = Span::start(&REORTH_NS);
    let mut h = vec![0.0f64; basis.len()];
    sweep(pool, basis, w, None, Some(partials));
    fold_chunks(partials, &mut h);
    sweep(pool, basis, w, Some(&h), Some(partials));
    fold_chunks(partials, &mut h);
    sweep(pool, basis, w, Some(&h), None);
}

/// One sweep over `w` in fixed [`REORTH_CHUNK`]-row chunks scheduled
/// on `pool`. Per [`SWEEP_BLOCK`] rows it first applies `w −= V·h`
/// when `update` is given, then adds those rows' terms of `Vᵀw` to the
/// chunk's `k`-wide row of `dots` when given (zeroed first), while the
/// block's basis rows are still in cache.
fn sweep<T: Real>(
    pool: &Pool,
    basis: &[Vec<T>],
    w: &mut [T],
    update: Option<&[f64]>,
    dots: Option<&mut Vec<f64>>,
) {
    let (n, k) = (w.len(), basis.len());
    let chunks = n.div_ceil(REORTH_CHUNK);
    let dots = dots.map(|d| {
        d.clear();
        d.resize(chunks * k, 0.0);
        SendMut(d.as_mut_ptr())
    });
    let rows = SendMut(w.as_mut_ptr());
    let (dots, rows) = (&dots, &rows);
    pool.for_each_chunk(chunks, |cs| {
        for c in cs {
            let start = c * REORTH_CHUNK;
            let end = (start + REORTH_CHUNK).min(n);
            // SAFETY: `w` has `n` entries, and chunk `c` owns rows
            // `start..end`; `for_each_chunk` hands each chunk to one
            // body, so no other slice overlaps them.
            let wc = unsafe { rows.rows(start, end - start) };
            // SAFETY: `dots` holds `chunks · k` entries, of which chunk
            // `c` alone owns the `k` at `c · k`.
            let mut hc = dots.as_ref().map(|d| unsafe { d.rows(c * k, k) });
            for (b, wb) in wc.chunks_mut(SWEEP_BLOCK).enumerate() {
                let block = start + b * SWEEP_BLOCK..start + b * SWEEP_BLOCK + wb.len();
                if let Some(h) = update {
                    block_update(basis, &block, h, wb);
                }
                if let Some(hc) = hc.as_deref_mut() {
                    block_dots(basis, &block, wb, hc);
                }
            }
        }
    });
}

/// `h[i] = Σ_c partials[c·k + i]` for `k = h.len()`, the chunks added
/// in order.
fn fold_chunks(partials: &[f64], h: &mut [f64]) {
    let (first, rest) = partials.split_at(h.len());
    h.copy_from_slice(first);
    for hc in rest.chunks_exact(h.len()) {
        for (hi, &p) in h.iter_mut().zip(hc) {
            *hi += p;
        }
    }
}

/// Adds the `rows` terms of every basis vector's dot with `w` (= those
/// rows of the vector being orthogonalized) to `out`, one in-order f64
/// accumulator per vector. Eight vectors share a pass over `w`, so
/// their eight add chains overlap instead of each waiting out its own
/// latency.
fn block_dots<T: Real>(basis: &[Vec<T>], rows: &Range<usize>, w: &[T], out: &mut [f64]) {
    let mut done = 0;
    while done < basis.len() {
        let (vs, hs) = (&basis[done..], &mut out[done..]);
        done += match vs.len() {
            8.. => group_dots::<T, 8>(vs, rows, w, hs),
            4.. => group_dots::<T, 4>(vs, rows, w, hs),
            2.. => group_dots::<T, 2>(vs, rows, w, hs),
            _ => group_dots::<T, 1>(vs, rows, w, hs),
        };
    }
}

/// [`block_dots`] for the first `G` vectors of `basis`; returns `G`.
#[inline(always)]
fn group_dots<T: Real, const G: usize>(
    basis: &[Vec<T>],
    rows: &Range<usize>,
    w: &[T],
    out: &mut [f64],
) -> usize {
    let vs: [&[T]; G] = std::array::from_fn(|i| &basis[i][rows.clone()][..w.len()]);
    let mut acc: [f64; G] = std::array::from_fn(|i| out[i]);
    for (r, &wr) in w.iter().enumerate() {
        let wr = wr.to_f64();
        for (a, v) in acc.iter_mut().zip(&vs) {
            *a += v[r].to_f64() * wr;
        }
    }
    out[..G].copy_from_slice(&acc);
    G
}

/// `w −= Σ_i h[i]·basis[i][rows]`, each entry subtracting the terms in
/// basis order (the bits of one `axpy` per vector), eight vectors per
/// pass over `w`.
fn block_update<T: Real>(basis: &[Vec<T>], rows: &Range<usize>, h: &[f64], w: &mut [T]) {
    let mut done = 0;
    while done < basis.len() {
        let (vs, hs) = (&basis[done..], &h[done..]);
        done += match vs.len() {
            8.. => group_update::<T, 8>(vs, rows, hs, w),
            4.. => group_update::<T, 4>(vs, rows, hs, w),
            2.. => group_update::<T, 2>(vs, rows, hs, w),
            _ => group_update::<T, 1>(vs, rows, hs, w),
        };
    }
}

/// [`block_update`] for the first `G` vectors of `basis`; returns `G`.
#[inline(always)]
fn group_update<T: Real, const G: usize>(
    basis: &[Vec<T>],
    rows: &Range<usize>,
    h: &[f64],
    w: &mut [T],
) -> usize {
    let vs: [&[T]; G] = std::array::from_fn(|i| &basis[i][rows.clone()][..w.len()]);
    let a: [T; G] = std::array::from_fn(|i| T::from_f64(-h[i]));
    for (r, wr) in w.iter_mut().enumerate() {
        let mut x = *wr;
        for (v, &ai) in vs.iter().zip(&a) {
            x += ai * v[r];
        }
        *wr = x;
    }
    G
}

/// The extreme Ritz pairs of the tridiagonal matrix, with the residual
/// bounds `|β_m| · |s_{m,i}|` (`s` the bottom component of the pair's
/// eigenvector) judged against `tol`.
fn extreme_pairs(alphas: &[f64], betas: &[f64], tol: f64) -> LanczosResult {
    let m = alphas.len();
    let (vals, vecs) = tridiag_eigen(alphas, &betas[..m - 1]);
    let beta_last = betas[m - 1].abs();
    let top_residual = beta_last * vecs[0][m - 1].abs();
    let bottom_residual = beta_last * vecs[m - 1][m - 1].abs();
    // residual trajectory: one event per convergence check
    obs_debug!(
        "linalg.lanczos",
        "step {m}: ritz [{:.8}, {:.8}] residuals [{top_residual:.3e}, {bottom_residual:.3e}]",
        vals[m - 1],
        vals[0]
    );
    LanczosResult {
        top: vals[0],
        bottom: vals[m - 1],
        top_residual,
        bottom_residual,
        iterations: m,
        converged: top_residual < tol && bottom_residual < tol,
    }
}

/// Runs Lanczos on a symmetric operator and returns its extreme
/// eigenvalues.
///
/// The starting vector is random (from `rng`) — callers wanting the
/// operator restricted to a subspace should wrap it in
/// [`crate::op::DeflatedOp`], whose projection is applied on every
/// operator application, keeping the Krylov space orthogonal to the
/// deflated directions.
///
/// # Panics
///
/// Panics if the operator dimension is 0.
pub fn lanczos_extreme<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    opts: LanczosOptions,
    rng: &mut R,
) -> LanczosResult {
    let n = op.dim();
    assert!(n > 0, "operator must be non-empty");
    RUNS.incr();
    let _span = Span::start(&RUN_NS);
    let Some(v) = start_vector(op, rng) else {
        return ZERO_SPECTRUM;
    };
    let mut found = None;
    let k = Krylov::run(
        op,
        v,
        opts.max_iter.min(n).max(1),
        opts.check_every,
        |a, b| {
            found = Some(extreme_pairs(a, b, opts.tol)).filter(|r| r.converged);
            found.is_some()
        },
    );
    found.unwrap_or_else(|| extreme_pairs(&k.alphas, &k.betas, opts.tol))
}

/// Mixed-precision Lanczos: the recurrence and the full
/// reorthogonalization run entirely in f32 (half the memory traffic
/// and basis footprint), with every reduction accumulated in f64; the
/// extreme Ritz vectors are then reconstructed in f64, refined with a
/// few shifted power steps, and the reported eigenvalues are their
/// f64 Rayleigh quotients.
///
/// `op64` and `op32` must represent the same operator at the two
/// precisions. Because the Rayleigh quotient is quadratically accurate
/// in the vector error, an f32-accurate basis (vector error ≈1e-6)
/// yields eigenvalues accurate to ≈1e-12 after the polish. The f32
/// loop stops once its Ritz residuals reach the larger of `opts.tol`
/// and the f32 floor (1e-6). Residuals and `converged` are measured in
/// f64 against `opts.tol.max(1e-5)` — tolerances tighter than the
/// floor are not attainable from an f32 basis and are reported
/// honestly as such.
///
/// # Panics
///
/// Panics if the operator dimension is 0 or the two dims disagree.
pub fn lanczos_extreme_mixed<Op64, Op32, R>(
    op64: &Op64,
    op32: &Op32,
    opts: LanczosOptions,
    rng: &mut R,
) -> LanczosResult
where
    Op64: LinearOp,
    Op32: LinearOp<f32>,
    R: Rng + ?Sized,
{
    let n = op64.dim();
    assert!(n > 0, "operator must be non-empty");
    assert_eq!(op32.dim(), n, "f32/f64 operator dimension mismatch");
    RUNS.incr();
    MIXED_RUNS.incr();
    let _span = Span::start(&RUN_NS);
    let Some(v) = start_vector(op32, rng) else {
        return ZERO_SPECTRUM;
    };
    let loop_tol = opts.tol.max(f32::TOL_FLOOR);
    let k = Krylov::run(
        op32,
        v,
        opts.max_iter.min(n).max(1),
        opts.check_every,
        |a, b| extreme_pairs(a, b, loop_tol).converged,
    );

    // --- f64 polish: reconstruct the extreme Ritz vectors from the
    // f32 basis, refine each with a few shifted power steps, and
    // re-measure everything in f64.
    //
    // `shift = +1` refines toward the top of the spectrum via the
    // half-shifted operator (I + Op)/2, whose dominant eigenvector is
    // the wanted one; `shift = -1` uses (I − Op)/2 for the bottom.
    // Both applications go through op64, so a deflated operator keeps
    // projecting the iterate back into the complement.
    let polish = |mut v: Vec<f64>, shift: f64| -> (f64, f64) {
        let mut w = vec![0.0; n];
        for _ in 0..MIXED_REFINE_STEPS {
            op64.apply(&v, &mut w);
            scale(&mut w, 0.5 * shift);
            axpy(0.5, &v, &mut w);
            if normalize(&mut w) == 0.0 {
                break;
            }
            std::mem::swap(&mut v, &mut w);
        }
        op64.apply(&v, &mut w);
        let lambda = dot(&v, &w);
        (lambda, resid_norm(&w, &v, lambda))
    };
    let (_, vecs) = k.ritz_pairs();
    let m = vecs.len();
    let (top, top_residual) = polish(k.ritz_vector(&vecs[0]), 1.0);
    let (bottom, bottom_residual) = polish(k.ritz_vector(&vecs[m - 1]), -1.0);
    let mixed_tol = opts.tol.max(MIXED_TOL_FLOOR);
    LanczosResult {
        top,
        bottom,
        top_residual,
        bottom_residual,
        iterations: m,
        converged: top_residual < mixed_tol && bottom_residual < mixed_tol,
    }
}

/// Result of [`lanczos_topk`]: the leading Ritz pairs.
#[derive(Debug, Clone)]
pub struct TopkResult {
    /// Ritz values, descending; `values.len() == k` requested (or the
    /// reached basis size if smaller).
    pub values: Vec<f64>,
    /// `vectors[j]` is the unit Ritz vector for `values[j]`.
    pub vectors: Vec<Vec<f64>>,
    /// Residual bounds `|β·s|` per pair.
    pub residuals: Vec<f64>,
    /// Lanczos steps taken.
    pub iterations: usize,
}

/// Runs Lanczos and returns the `k` *largest* eigenpairs (values and
/// vectors) of a symmetric operator.
///
/// Used by the spectral-embedding clustering in `socmix-community`:
/// on the deflated walk operator the top-k pairs are λ₂..λ_{k+1} and
/// their eigenvectors — the coordinates that separate communities.
///
/// Convergence is judged on the k-th pair's residual; the basis grows
/// until `opts.max_iter`.
pub fn lanczos_topk<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    k: usize,
    opts: LanczosOptions,
    rng: &mut R,
) -> TopkResult {
    let n = op.dim();
    assert!(n > 0 && k >= 1);
    RUNS.incr();
    let _span = Span::start(&RUN_NS);
    let Some(v) = start_vector(op, rng) else {
        return TopkResult {
            values: vec![0.0; k.min(n)],
            vectors: vec![vec![0.0; n]; k.min(n)],
            residuals: vec![0.0; k.min(n)],
            iterations: 0,
        };
    };
    // convergence check on the k-th pair
    let kr = Krylov::run(
        op,
        v,
        opts.max_iter.min(n).max(k),
        opts.check_every,
        |a, b| {
            let m = a.len();
            if m < k {
                return false;
            }
            let (_, vecs) = tridiag_eigen(a, &b[..m - 1]);
            let res_k = b[m - 1].abs() * vecs[k - 1][m - 1].abs();
            obs_debug!("linalg.lanczos", "topk step {m}: residual {res_k:.3e}");
            res_k < opts.tol
        },
    );
    let (vals, vecs) = kr.ritz_pairs();
    let m = vals.len();
    let kk = k.min(m);
    // zero when the space was exhausted
    let beta_last = kr.betas[m - 1].abs();
    TopkResult {
        values: vals[..kk].to_vec(),
        vectors: vecs[..kk].iter().map(|s| kr.ritz_vector(s)).collect(),
        residuals: vecs[..kk]
            .iter()
            .map(|s| beta_last * s[m - 1].abs())
            .collect(),
        iterations: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{jacobi_eigen, slem_dense, DenseMatrix};
    use crate::op::{DeflatedOp, DenseOp, SymmetricWalkOp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socmix_graph::GraphBuilder;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_operator_extremes() {
        let n = 20;
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = (i as f64) / (n as f64 - 1.0) * 2.0 - 1.0; // [-1, 1]
        }
        let op = DenseOp { data, n };
        let mut rng = StdRng::seed_from_u64(0);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert!(r.converged);
        assert_close(r.top, 1.0, 1e-8);
        assert_close(r.bottom, -1.0, 1e-8);
    }

    #[test]
    fn agrees_with_jacobi_on_random_symmetric() {
        let n = 40;
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = (((i * 31 + j * 17 + 3) % 101) as f64) / 101.0 - 0.5;
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let (jv, _) = jacobi_eigen(&m);
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = m.get(i, j);
            }
        }
        let op = DenseOp { data, n };
        let mut rng = StdRng::seed_from_u64(1);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert_close(r.top, jv[0], 1e-7);
        assert_close(r.bottom, jv[n - 1], 1e-7);
    }

    #[test]
    fn walk_spectrum_top_is_one() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]).build();
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert_close(r.top, 1.0, 1e-9);
    }

    #[test]
    fn deflated_walk_gives_slem() {
        // odd cycle: SLEM = cos(π/n) (the −cos(π/n) end dominates)
        let n = 9;
        let g = {
            let mut b = GraphBuilder::new();
            for i in 0..n as u32 {
                b.add_edge(i, (i + 1) % n as u32);
            }
            b.build()
        };
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(SymmetricWalkOp::new(&g), &basis);
        let mut rng = StdRng::seed_from_u64(3);
        let r = lanczos_extreme(&defl, LanczosOptions::default(), &mut rng);
        let mu = r.top.max(-r.bottom);
        assert_close(mu, (std::f64::consts::PI / n as f64).cos(), 1e-8);
    }

    #[test]
    fn deflated_matches_dense_slem_on_random_graph() {
        let g = tests_support::random_connected(7);
        let expect = slem_dense(&g);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let mut rng = StdRng::seed_from_u64(8);
        let r = lanczos_extreme(&defl, LanczosOptions::default(), &mut rng);
        let mu = r.top.max(-r.bottom);
        assert_close(mu, expect, 1e-7);
    }

    #[test]
    fn bipartite_bottom_is_minus_one() {
        // K_{3,3}: spectrum {1, 0, …, -1}
        let g = tests_support::k33();
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert_close(r.bottom, -1.0, 1e-9);
    }

    #[test]
    fn max_iter_cap_reports_unconverged_or_exact() {
        let g = tests_support::big_cycle(101);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let mut rng = StdRng::seed_from_u64(5);
        let opts = LanczosOptions {
            max_iter: 8,
            tol: 1e-12,
            check_every: 4,
        };
        let r = lanczos_extreme(&defl, opts, &mut rng);
        assert!(r.iterations <= 8);
        // with such a tiny basis the result is a valid *bound*:
        // Ritz values are inside the true spectrum
        assert!(r.top <= 1.0 + 1e-9);
        assert!(r.bottom >= -1.0 - 1e-9);
    }

    #[test]
    fn topk_matches_jacobi_on_dense() {
        let n = 30;
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = (((i * 13 + j * 7 + 1) % 17) as f64) / 17.0 - 0.5;
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let (jv, _) = jacobi_eigen(&m);
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = m.get(i, j);
            }
        }
        let op = DenseOp { data, n };
        let mut rng = StdRng::seed_from_u64(21);
        let r = lanczos_topk(
            &op,
            4,
            LanczosOptions {
                max_iter: n,
                ..Default::default()
            },
            &mut rng,
        );
        for (&rv, &jvj) in r.values.iter().zip(&jv).take(4) {
            assert_close(rv, jvj, 1e-6);
        }
    }

    #[test]
    fn topk_vectors_are_eigenvectors() {
        let g = GraphBuilder::from_edges([
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (0, 5),
        ])
        .build();
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(22);
        let r = lanczos_topk(&op, 3, LanczosOptions::default(), &mut rng);
        for (vec_j, &val_j) in r.vectors.iter().zip(&r.values).take(3) {
            let av = op.apply_vec(vec_j);
            for (&avi, &vji) in av.iter().zip(vec_j) {
                assert_close(avi, val_j * vji, 1e-6);
            }
        }
        // orthonormal
        for a in 0..3 {
            for b in (a + 1)..3 {
                assert_close(crate::vecops::dot(&r.vectors[a], &r.vectors[b]), 0.0, 1e-7);
            }
        }
    }

    #[test]
    fn topk_top_value_is_one_for_walk() {
        let g = tests_support::big_cycle(31);
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(23);
        let r = lanczos_topk(&op, 2, LanczosOptions::default(), &mut rng);
        assert_close(r.values[0], 1.0, 1e-8);
        assert_close(r.values[1], (2.0 * std::f64::consts::PI / 31.0).cos(), 1e-7);
    }

    #[test]
    fn mixed_deflated_odd_cycle_closed_form() {
        let n = 9;
        let g = tests_support::big_cycle(n);
        let (defl, defl32) = tests_support::deflated_pair(&g);
        let mut rng = StdRng::seed_from_u64(30);
        let r = lanczos_extreme_mixed(&defl, &defl32, LanczosOptions::default(), &mut rng);
        let mu = r.top.max(-r.bottom);
        assert_close(mu, (std::f64::consts::PI / n as f64).cos(), 1e-7);
        assert!(
            r.converged,
            "residuals {:e}/{:e}",
            r.top_residual, r.bottom_residual
        );
    }

    #[test]
    fn mixed_matches_dense_slem_on_random_graph() {
        let g = tests_support::random_connected(31);
        let expect = slem_dense(&g);
        let (defl, defl32) = tests_support::deflated_pair(&g);
        let mut rng = StdRng::seed_from_u64(32);
        let r = lanczos_extreme_mixed(&defl, &defl32, LanczosOptions::default(), &mut rng);
        let mu = r.top.max(-r.bottom);
        assert_close(mu, expect, 1e-6);
    }

    #[test]
    fn mixed_bipartite_bottom_is_minus_one() {
        let g = tests_support::k33();
        let op = SymmetricWalkOp::new(&g);
        let op32 = SymmetricWalkOp::<f32>::with_pool(&g, socmix_par::Pool::serial());
        let mut rng = StdRng::seed_from_u64(33);
        let r = lanczos_extreme_mixed(&op, &op32, LanczosOptions::default(), &mut rng);
        assert_close(r.bottom, -1.0, 1e-6);
        assert_close(r.top, 1.0, 1e-6);
    }

    #[test]
    fn cgs2_basis_stays_orthonormal_across_chunks() {
        // two reorthogonalization chunks, and enough steps that plain
        // Lanczos would long since have lost orthogonality
        let g = socmix_gen::fixtures::grid(97, 71);
        assert!(g.num_nodes() > REORTH_CHUNK);
        let sop = SymmetricWalkOp::<f64>::with_pool(&g, socmix_par::Pool::with_threads(2));
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let v = start_vector(&defl, &mut StdRng::seed_from_u64(9)).unwrap();
        let k = Krylov::run(&defl, v, 160, 10, |_, _| false);
        assert!(k.basis.len() >= 150, "only {} steps", k.basis.len());
        let mut worst = 0.0f64;
        for (i, a) in k.basis.iter().enumerate() {
            for (j, b) in k.basis.iter().enumerate().skip(i) {
                let want = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((crate::vecops::dot(a, b) - want).abs());
            }
        }
        assert!(worst <= 1e-12, "max |VᵀV − I| = {worst:e}");
    }

    #[test]
    fn one_node_graph_trivial() {
        // operator on a single node with a self-structure: dimension 1
        let op = DenseOp {
            data: vec![0.42],
            n: 1,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert_close(r.top, 0.42, 1e-12);
        assert_close(r.bottom, 0.42, 1e-12);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use crate::op::{DeflatedOp, SymmetricWalkOp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use socmix_graph::{Graph, GraphBuilder};

    pub fn big_cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..n as u32 {
            b.add_edge(i, (i + 1) % n as u32);
        }
        b.build()
    }

    /// K_{3,3}: spectrum {1, 0, …, −1}.
    pub fn k33() -> Graph {
        GraphBuilder::from_edges((0..9u32).map(|k| (k / 3, 3 + k % 3))).build()
    }

    /// A connected random graph on 60 nodes: a random tree plus up to
    /// 120 random edges.
    pub fn random_connected(seed: u64) -> Graph {
        let mut grng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        for v in 1..60u32 {
            let u = grng.random_range(0..v);
            b.add_edge(u, v);
        }
        for _ in 0..120 {
            let u = grng.random_range(0..60u32);
            let v = grng.random_range(0..60u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// The deflated symmetric walk operator of `g` at both precisions
    /// (serial pool for the f32 one), as the mixed drivers take them.
    #[allow(clippy::type_complexity)]
    pub fn deflated_pair(
        g: &Graph,
    ) -> (
        DeflatedOp<'_, SymmetricWalkOp<'_>>,
        DeflatedOp<'_, SymmetricWalkOp<'_, f32>, f32>,
    ) {
        let sop = SymmetricWalkOp::new(g);
        let basis = vec![sop.top_eigenvector()];
        let sop32 = SymmetricWalkOp::<f32>::with_pool(g, socmix_par::Pool::serial());
        let basis32 = vec![sop32.top_eigenvector()];
        (
            DeflatedOp::new(sop, Box::leak(Box::new(basis))),
            DeflatedOp::new(sop32, Box::leak(Box::new(basis32))),
        )
    }
}
