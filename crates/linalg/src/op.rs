//! Matrix-free linear operators over a CSR graph.
//!
//! [`LinearOp`], [`SymmetricWalkOp`] and [`DeflatedOp`] take a
//! [`Real`] precision parameter that defaults to `f64`: the f64
//! instances are the exact, bit-for-bit operators every estimator
//! uses, and the f32 instances are what the mixed-precision drivers
//! iterate on (same graph, same pool, tolerance contract instead of
//! bits). [`WalkOp`], [`LazyOp`] and [`DenseOp`] are f64 only.
//!
//! Operator applications are the hot path of every measurement in the
//! workspace, so they are engineered to be **allocation-free**: the
//! per-apply scratch (the `z` scale vector of [`WalkOp`] and
//! [`SymmetricWalkOp`], the projected input copy of [`DeflatedOp`])
//! comes from the reusable per-thread pool in [`crate::workspace`],
//! and row chunks are scheduled on `socmix-par`'s persistent worker
//! runtime — no thread spawns, no steady-state heap traffic per
//! apply.

use crate::distributed::DistributedOp;
use crate::kernel::Real;
use crate::vecops;
use crate::workspace::{with_arena, with_scratch};
use socmix_graph::Graph;
use socmix_obs::Counter;
use socmix_par::Pool;

/// Sparse walk-operator applications (serial kernels; the batched
/// kernel counts separately under `linalg.matvec.multi`).
static MATVECS: Counter = Counter::new("linalg.matvec");
/// Applications of the f32 symmetric walk operator.
static F32_MATVECS: Counter = Counter::new("linalg.matvec.f32");

/// A (square) linear operator applied matrix-free at precision `T`.
///
/// Operators over graphs never materialize a matrix; `apply` computes
/// `y = Op·x` in O(m) with one gather pass over the CSR arrays.
///
/// The f64 operators are exact: no reassociation, so results are
/// bit-reproducible. The f32 operators are free to reassociate — their
/// contract is a tolerance (µ within 1e-6 of the f64 answer after the
/// mixed drivers' f64 polish) — but for a fixed input their result is
/// still deterministic and pool-width independent: each output row's
/// accumulation order is fixed, only row scheduling varies.
pub trait LinearOp<T: Real = f64> {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = Op · x`. Both slices have length [`LinearOp::dim`].
    fn apply(&self, x: &[T], y: &mut [T]);

    /// Convenience allocating wrapper around [`LinearOp::apply`].
    fn apply_vec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::default(); self.dim()];
        self.apply(x, &mut y);
        y
    }
}

/// The row-stochastic random-walk operator `P = D⁻¹A`, applied as
/// `y = xP` (distribution evolution, row-vector convention):
/// `y[j] = Σ_{i ∼ j} x[i] / deg(i)`.
///
/// Note `P` is *not* symmetric; its left-multiplication is what
/// distribution evolution needs and what this operator computes.
/// For eigenvalue work use [`SymmetricWalkOp`] (same spectrum).
pub struct WalkOp<'g> {
    graph: &'g Graph,
    pool: Pool,
    /// scratch: z[i] = x[i] / deg(i)
    inv_deg: Vec<f64>,
    /// The process-sharded twin when `SOCMIX_SHARDS > 1` routes this
    /// operator through worker processes (bitwise-identical results;
    /// `None` means shared-memory kernels only).
    dist: Option<Box<DistributedOp<'g>>>,
}

impl<'g> WalkOp<'g> {
    /// Wraps a graph. Nodes of degree 0 contribute nothing (their
    /// probability mass is dropped — callers should pass connected
    /// graphs, as the mixing time requires).
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_pool(graph, Pool::new())
    }

    /// As [`WalkOp::new`] with an explicit thread pool.
    pub fn with_pool(graph: &'g Graph, pool: Pool) -> Self {
        WalkOp {
            graph,
            pool,
            inv_deg: inv_scale(graph, false),
            dist: crate::distributed::auto_route(graph, false),
        }
    }

    /// The process-sharded twin, if the `SOCMIX_SHARDS` backend is
    /// live for this operator.
    pub(crate) fn dist(&self) -> Option<&DistributedOp<'g>> {
        self.dist.as_deref()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The precomputed `1/deg(v)` table (0 for isolated nodes).
    pub fn inv_degrees(&self) -> &[f64] {
        &self.inv_deg
    }

    /// The pool this operator schedules row chunks on.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }
}

impl LinearOp for WalkOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        MATVECS.incr();
        if let Some(dist) = &self.dist {
            match dist.try_apply(x, y) {
                Ok(()) => return,
                Err(e) => socmix_obs::warn_once!(
                    "shard",
                    "sharded matvec failed ({e}); continuing on the shared-memory kernel"
                ),
            }
        }
        // y[j] = Σ_{i∼j} x[i]/deg(i)
        with_scratch(x.len(), |z| {
            scaled_gather(self.graph, &self.pool, &self.inv_deg, x, z, y, |_, a| a)
        });
    }
}

/// The symmetric normalization `S = D^{-1/2} A D^{-1/2}`, applied at
/// precision `T`.
///
/// `S = D^{1/2} P D^{-1/2}` is similar to `P`, so it has the same
/// (real) spectrum, and being symmetric it is what Lanczos and Jacobi
/// operate on. Its top eigenvector is known in closed form:
/// `u₁ ∝ D^{1/2} 𝟙` (see [`SymmetricWalkOp::top_eigenvector`]).
pub struct SymmetricWalkOp<'g, T: Real = f64> {
    graph: &'g Graph,
    pool: Pool,
    inv_sqrt_deg: Vec<T>,
    /// The process-sharded twin when `SOCMIX_SHARDS > 1` is live
    /// (bitwise-identical results; `None` = shared-memory only, and
    /// always `None` off the exact precision).
    dist: Option<Box<DistributedOp<'g>>>,
}

impl<'g> SymmetricWalkOp<'g> {
    /// Wraps a graph (exact f64 operator, default pool).
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_pool(graph, Pool::new())
    }
}

impl<'g, T: Real> SymmetricWalkOp<'g, T> {
    /// Wraps a graph with an explicit thread pool.
    pub fn with_pool(graph: &'g Graph, pool: Pool) -> Self {
        SymmetricWalkOp {
            graph,
            pool,
            inv_sqrt_deg: inv_scale(graph, true),
            dist: if T::EXACT {
                crate::distributed::auto_route(graph, true)
            } else {
                None
            },
        }
    }

    /// The unit eigenvector of `S` for λ₁ = 1: `D^{1/2}𝟙 / ‖D^{1/2}𝟙‖`,
    /// i.e. `u₁[v] = √deg(v) / √(2m)` (computed in f64, rounded once
    /// to `T`).
    pub fn top_eigenvector(&self) -> Vec<T> {
        let total = self.graph.total_degree() as f64;
        (0..self.graph.num_nodes())
            .map(|v| T::from_f64((self.graph.degree(v as u32) as f64 / total).sqrt()))
            .collect()
    }
}

impl LinearOp for SymmetricWalkOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        MATVECS.incr();
        if let Some(dist) = &self.dist {
            match dist.try_apply(x, y) {
                Ok(()) => return,
                Err(e) => socmix_obs::warn_once!(
                    "shard",
                    "sharded matvec failed ({e}); continuing on the shared-memory kernel"
                ),
            }
        }
        // y[i] = (1/√deg i) Σ_{j∼i} x[j]/√deg j
        let inv = &self.inv_sqrt_deg;
        with_scratch(x.len(), |z| {
            scaled_gather(self.graph, &self.pool, inv, x, z, y, |i, a| a * inv[i])
        });
    }
}

/// The f32 apply: same formula, its `z` scratch from the per-thread
/// arena, and counted under `linalg.matvec.f32` so `linalg.matvec`
/// stays a count of exact applies.
impl LinearOp<f32> for SymmetricWalkOp<'_, f32> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.dim());
        F32_MATVECS.incr();
        let inv = &self.inv_sqrt_deg;
        with_arena(|arena| {
            let z = arena.alloc(x.len());
            scaled_gather(self.graph, &self.pool, inv, x, z, y, |i, a| a * inv[i])
        });
    }
}

/// The input scale of the walk operators, computed in f64 and rounded
/// once to `T`: `1/√deg(v)` (symmetric) or `1/deg(v)`, 0 for isolated
/// nodes.
pub(crate) fn inv_scale<T: Real>(graph: &Graph, symmetric: bool) -> Vec<T> {
    (0..graph.num_nodes() as u32)
        .map(|v| match graph.degree(v) {
            0 => T::default(),
            d if symmetric => T::from_f64(1.0 / (d as f64).sqrt()),
            d => T::from_f64(1.0 / d as f64),
        })
        .collect()
}

/// The single-column apply shared by both walk operators at both
/// precisions: `z = x·scale`, then `y[j] = finish(j, Σ_{i∼j} z[i])`
/// with row chunks scheduled on `pool`. The caller supplies `z` from
/// reusable scratch, so steady-state applies allocate nothing.
fn scaled_gather<T: Real>(
    graph: &Graph,
    pool: &Pool,
    scale: &[T],
    x: &[T],
    z: &mut [T],
    y: &mut [T],
    finish: impl Fn(usize, T) -> T + Sync,
) {
    let n = graph.num_nodes();
    assert_eq!(y.len(), n, "one output entry per node");
    for ((zi, xi), s) in z.iter_mut().zip(x).zip(scale) {
        *zi = *xi * *s;
    }
    let zref = &*z;
    let out = SendMut(y.as_mut_ptr());
    let out = &out;
    pool.for_each_chunk(n, |range| {
        // SAFETY: `y` has `n` entries and the chunks of
        // `for_each_chunk` are disjoint ranges of `0..n`.
        let yr = unsafe { out.rows(range.start, range.len()) };
        T::gather_rows(graph, zref, range, yr, &finish);
    });
}

/// The lazy variant `(I + Op) / 2`.
///
/// Shifts the spectrum to `[0, 1]`, killing periodicity: the lazy walk
/// on a bipartite graph still converges. Used when the Markov layer
/// detects bipartiteness.
pub struct LazyOp<Op> {
    inner: Op,
}

impl<Op: LinearOp> LazyOp<Op> {
    /// Wraps an operator.
    pub fn new(inner: Op) -> Self {
        LazyOp { inner }
    }

    /// The wrapped operator.
    pub fn inner(&self) -> &Op {
        &self.inner
    }
}

impl<Op: LinearOp> LinearOp for LazyOp<Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = 0.5 * (*yi + xi);
        }
    }
}

/// Deflation wrapper: applies `Op` restricted to the orthogonal
/// complement of a set of known *unit* eigenvectors, at precision `T`.
///
/// Iterating this operator converges to the extreme eigenvalues of
/// the complement — for [`SymmetricWalkOp`] with `u₁` deflated, that
/// is exactly `λ₂` (top) and `λₙ` (bottom), the two ingredients of
/// the SLEM.
pub struct DeflatedOp<'a, Op, T: Real = f64> {
    inner: Op,
    basis: &'a [Vec<T>],
}

impl<'a, T: Real, Op: LinearOp<T>> DeflatedOp<'a, Op, T> {
    /// Wraps `inner`, deflating the span of `basis` (each vector must
    /// be unit-norm; vectors should be mutually orthogonal).
    pub fn new(inner: Op, basis: &'a [Vec<T>]) -> Self {
        for b in basis {
            debug_assert_eq!(b.len(), inner.dim());
            debug_assert!(
                (vecops::norm2(b) - 1.0).abs() < T::UNIT_TOL,
                "basis must be unit"
            );
        }
        DeflatedOp { inner, basis }
    }

    /// Projects `x` onto the orthogonal complement of the basis.
    pub fn project(&self, x: &mut [T]) {
        for b in self.basis {
            vecops::project_out(x, b);
        }
    }
}

/// The exact apply projects both the input and the output: `P·Op·P`.
impl<Op: LinearOp> LinearOp for DeflatedOp<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // The projected input copy comes from the per-thread
        // workspace; the nested inner apply checks out its own buffer.
        with_scratch(x.len(), |xp| {
            xp.copy_from_slice(x);
            self.project(xp);
            self.inner.apply(xp, y);
        });
        self.project(y);
    }
}

/// The f32 apply projects the output only: `P·Op`. The input
/// projection buys nothing the tolerance contract can measure:
/// deflation presumes the basis spans an invariant subspace of `Op`
/// (`S·b ≈ b` for the walk operator's top eigenvector), so for
/// `x = x⊥ + c·b` the skipped term is `P·S·(c·b) = c·P·b + O(c·ε) =
/// O(c·ε)` — f32 noise. On the complement itself (where every
/// projected output, hence every power/Lanczos iterate, lives) the
/// two applies are identical. Skipping it saves an O(n) copy and
/// projection per matvec in the mixed drivers' hot loop.
impl<Op: LinearOp<f32>> LinearOp<f32> for DeflatedOp<'_, Op, f32> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f32], y: &mut [f32]) {
        self.inner.apply(x, y);
        self.project(y);
    }
}

/// A dense operator for tests and small cross-checks.
pub struct DenseOp {
    /// Row-major `n×n`.
    pub data: Vec<f64>,
    pub n: usize,
}

impl LinearOp for DenseOp {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate().take(self.n) {
            *yi = vecops::dot(&self.data[i * self.n..(i + 1) * self.n], x);
        }
    }
}

/// Raw-pointer handle on an output buffer whose disjoint row ranges
/// are written by different pool chunks without a lock (same pattern
/// as `socmix-par`'s map). Every kernel that fans one output out over
/// `for_each_chunk` goes through it.
pub(crate) struct SendMut<T>(pub(crate) *mut T);

impl<T> SendMut<T> {
    /// The `len` entries starting at `start`.
    ///
    /// # Safety
    /// `start + len` must not exceed the buffer's length, the buffer
    /// must outlive the returned slice, and no other live slice may
    /// overlap `start..start + len` — guaranteed when the range comes
    /// from one chunk of a `for_each_chunk` over the buffer's rows.
    // SAFETY: caller contract (see `# Safety` above) — the range is in
    // bounds, the buffer is live, and no other slice overlaps it.
    pub(crate) unsafe fn rows<'a>(&self, start: usize, len: usize) -> &'a mut [T] {
        // SAFETY: the caller contract above — in bounds, live, and
        // exclusively owned by this chunk.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

// SAFETY: the pointer is only dereferenced through `rows`, whose
// contract gives each chunk an exclusive, disjoint slice of the
// buffer, so no two threads ever alias the same entry; `T: Send` lets
// the written values cross threads.
unsafe impl<T: Send> Send for SendMut<T> {}
// SAFETY: sharing the handle shares only the base address; writes
// stay chunk-disjoint per the Send argument above.
unsafe impl<T: Send> Sync for SendMut<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops::{dot, norm2};
    use socmix_graph::GraphBuilder;

    fn path3() -> Graph {
        GraphBuilder::from_edges([(0, 1), (1, 2)]).build()
    }

    #[test]
    fn walk_op_preserves_probability_mass() {
        let g = path3();
        let op = WalkOp::new(&g);
        let x = vec![0.2, 0.5, 0.3];
        let y = op.apply_vec(&x);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn walk_op_path_step() {
        let g = path3();
        let op = WalkOp::new(&g);
        // start at node 0: all mass moves to node 1
        let y = op.apply_vec(&[1.0, 0.0, 0.0]);
        assert_eq!(y, vec![0.0, 1.0, 0.0]);
        // start at node 1: splits to 0 and 2
        let y = op.apply_vec(&[0.0, 1.0, 0.0]);
        assert!((y[0] - 0.5).abs() < 1e-15 && (y[2] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn stationary_is_fixed_point_of_walk_op() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]).build();
        let op = WalkOp::new(&g);
        let total = g.total_degree() as f64;
        let pi: Vec<f64> = g.nodes().map(|v| g.degree(v) as f64 / total).collect();
        let y = op.apply_vec(&pi);
        for (a, b) in y.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-14, "πP ≠ π");
        }
    }

    #[test]
    fn symmetric_op_is_symmetric() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).build();
        let op = SymmetricWalkOp::new(&g);
        let n = op.dim();
        // check <Sx, y> == <x, Sy> for a few vector pairs
        for k in 0..3 {
            let x: Vec<f64> = (0..n).map(|i| ((i + k) as f64).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| ((2 * i + k) as f64).cos()).collect();
            let sx = op.apply_vec(&x);
            let sy = op.apply_vec(&y);
            assert!((dot(&sx, &y) - dot(&x, &sy)).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_op_top_eigenvector_is_fixed() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (0, 3)]).build();
        let op = SymmetricWalkOp::new(&g);
        let u1 = op.top_eigenvector();
        assert!((norm2(&u1) - 1.0).abs() < 1e-12);
        let y = op.apply_vec(&u1);
        for (a, b) in y.iter().zip(&u1) {
            assert!((a - b).abs() < 1e-12, "S·u₁ ≠ u₁");
        }
    }

    #[test]
    fn lazy_op_halves_spectrum() {
        let g = path3();
        let op = LazyOp::new(WalkOp::new(&g));
        // lazy step from node 0: half stays, half moves to 1
        let y = op.apply_vec(&[1.0, 0.0, 0.0]);
        assert!((y[0] - 0.5).abs() < 1e-15);
        assert!((y[1] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn deflated_op_annihilates_basis() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0)]).build();
        let op = SymmetricWalkOp::new(&g);
        let basis = vec![op.top_eigenvector()];
        let defl = DeflatedOp::new(SymmetricWalkOp::new(&g), &basis);
        let y = defl.apply_vec(&basis[0]);
        assert!(norm2(&y) < 1e-12, "deflated operator must kill u₁");
    }

    #[test]
    fn deflated_output_is_orthogonal_to_basis() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).build();
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let x: Vec<f64> = (0..g.num_nodes()).map(|i| (i as f64) - 1.7).collect();
        let y = defl.apply_vec(&x);
        assert!(dot(&y, &basis[0]).abs() < 1e-12);
    }

    #[test]
    fn dense_op_matches_manual() {
        let op = DenseOp {
            data: vec![1.0, 2.0, 3.0, 4.0],
            n: 2,
        };
        assert_eq!(op.apply_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn exact_kernels_match_naive_oracle_bitwise() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]).build();
        let n = g.num_nodes();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) + 0.3).sin()).collect();
        let sym_want = crate::oracle::symmetric(&g, &x);
        let walk_want = crate::oracle::walk(&g, &x);
        for pool in [
            socmix_par::Pool::serial(),
            socmix_par::Pool::with_threads(4),
        ] {
            let sym = SymmetricWalkOp::with_pool(&g, pool).apply_vec(&x);
            for (av, bv) in sym.iter().zip(&sym_want) {
                assert_eq!(av.to_bits(), bv.to_bits(), "symmetric, {pool:?}");
            }
            let walk = WalkOp::with_pool(&g, pool).apply_vec(&x);
            for (av, bv) in walk.iter().zip(&walk_want) {
                assert_eq!(av.to_bits(), bv.to_bits(), "walk, {pool:?}");
            }
        }
    }

    #[test]
    fn deflated_f32_annihilates_basis() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0)]).build();
        let pool = socmix_par::Pool::serial();
        let op = SymmetricWalkOp::<f32>::with_pool(&g, pool);
        let basis = vec![op.top_eigenvector()];
        let defl = DeflatedOp::new(SymmetricWalkOp::<f32>::with_pool(&g, pool), &basis);
        let y = defl.apply_vec(&basis[0]);
        assert!(vecops::norm2(&y) < 1e-5, "deflated f32 op must kill u₁");
    }

    #[test]
    fn walk_op_handles_isolated_nodes() {
        let mut b = GraphBuilder::from_edges([(0, 1)]);
        b.grow_to(3);
        let g = b.build();
        let op = WalkOp::new(&g);
        let y = op.apply_vec(&[0.0, 0.0, 1.0]);
        // isolated node's mass is dropped, not NaN
        assert!(y.iter().all(|v| v.is_finite()));
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
    }
}
