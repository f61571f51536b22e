//! SLEM estimation — the spectral half of the paper's methodology.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix_graph::Graph;
use socmix_linalg::power::{spectral_radius_in_complement, spectral_radius_in_complement_mixed};
use socmix_linalg::{
    dense, lanczos_extreme, lanczos_extreme_mixed, DeflatedOp, KernelKind, LanczosOptions,
    PowerOptions, SymmetricWalkOp,
};
use socmix_markov::ergodicity;
use socmix_obs::{obs_info, Counter};
use socmix_par::Pool;

/// `Auto` runs resolved to the Lanczos backend (n ≤ 200k).
static AUTO_LANCZOS: Counter = Counter::new("core.slem.auto_lanczos");
/// `Auto` runs resolved to power iteration (n > 200k).
static AUTO_POWER: Counter = Counter::new("core.slem.auto_power");

/// Which eigensolver backend computes µ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlemMethod {
    /// Lanczos with full reorthogonalization on the deflated
    /// symmetric walk operator — the production path. Memory
    /// O(n · basis).
    Lanczos,
    /// Power iteration on the deflated operator — O(n) memory, used
    /// for graphs whose Lanczos basis would not fit, and as the
    /// independent cross-check.
    PowerIteration,
    /// Dense Jacobi — ground truth, O(n²) memory; only for n ≲ 512.
    Dense,
    /// Lanczos for graphs up to ~200k nodes, power iteration beyond.
    Auto,
}

/// A SLEM estimate with its provenance.
#[derive(Debug, Clone)]
pub struct SlemEstimate {
    /// `µ = max(λ₂, −λₙ)` — the second largest eigenvalue modulus.
    pub mu: f64,
    /// Second largest eigenvalue λ₂ (when the backend resolves it;
    /// the power backend only resolves the dominant modulus).
    pub lambda2: Option<f64>,
    /// Smallest eigenvalue λₙ (same caveat).
    pub lambda_n: Option<f64>,
    /// Backend that produced the estimate.
    pub method: SlemMethod,
    /// Whether the backend reported convergence to its tolerance.
    pub converged: bool,
    /// Iterations used by the backend.
    pub iterations: usize,
}

/// Why a SLEM could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlemError {
    /// Graph is disconnected (walk not irreducible; µ would be 1
    /// trivially and the mixing time undefined). Extract the LCC
    /// first.
    Disconnected,
    /// Graph has fewer than 2 nodes.
    TooSmall,
}

impl std::fmt::Display for SlemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Disconnected => {
                write!(
                    f,
                    "graph is disconnected; extract the largest component first"
                )
            }
            Self::TooSmall => write!(f, "graph needs at least 2 nodes"),
        }
    }
}

impl std::error::Error for SlemError {}

/// SLEM estimator: configure a backend, then [`Slem::estimate`].
///
/// # Example
///
/// ```
/// use socmix_core::Slem;
/// // K₉: the walk spectrum is {1, −1/8, …}, so µ = 1/8
/// let g = socmix_gen::fixtures::complete(9);
/// let est = Slem::lanczos(&g).estimate().unwrap();
/// assert!((est.mu - 1.0 / 8.0).abs() < 1e-7);
/// ```
///
/// Deterministic for a fixed seed (default 0x50C1A1 — set your own
/// with [`Slem::seed`] to vary the random start vectors).
pub struct Slem<'g> {
    graph: &'g Graph,
    method: SlemMethod,
    seed: u64,
    lanczos_opts: LanczosOptions,
    power_opts: PowerOptions,
    pool: Pool,
    kernel: KernelKind,
}

impl<'g> Slem<'g> {
    /// Estimator with the given backend. The kernel kind defaults to
    /// the `SOCMIX_KERNEL` environment knob (exact when unset).
    pub fn new(graph: &'g Graph, method: SlemMethod) -> Self {
        Slem {
            graph,
            method,
            seed: 0x50C1A1,
            lanczos_opts: LanczosOptions::default(),
            power_opts: PowerOptions::default(),
            pool: Pool::new(),
            kernel: KernelKind::from_env(),
        }
    }

    /// Lanczos backend (shortcut).
    pub fn lanczos(graph: &'g Graph) -> Self {
        Self::new(graph, SlemMethod::Lanczos)
    }

    /// Power-iteration backend (shortcut).
    pub fn power_iteration(graph: &'g Graph) -> Self {
        Self::new(graph, SlemMethod::PowerIteration)
    }

    /// Dense Jacobi backend (shortcut; n ≲ 512).
    pub fn dense(graph: &'g Graph) -> Self {
        Self::new(graph, SlemMethod::Dense)
    }

    /// Automatic backend selection.
    pub fn auto(graph: &'g Graph) -> Self {
        Self::new(graph, SlemMethod::Auto)
    }

    /// Sets the RNG seed for the iterative backends.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the Lanczos options.
    pub fn lanczos_options(mut self, opts: LanczosOptions) -> Self {
        self.lanczos_opts = opts;
        self
    }

    /// Overrides the power-iteration options.
    pub fn power_options(mut self, opts: PowerOptions) -> Self {
        self.power_opts = opts;
        self
    }

    /// Sets the thread pool the iterative backends apply the walk
    /// operator on. The answer is bit-for-bit independent of the pool
    /// (disjoint row chunks, no float reassociation); only wall-clock
    /// changes.
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Overrides the kernel kind (default: the `SOCMIX_KERNEL`
    /// environment knob). `Exact` runs the f64 solvers on the exact
    /// gathers; `F32` routes the iterative backends through the
    /// mixed-precision drivers, whose final f64 Rayleigh polish keeps
    /// `|µ_f32 − µ_f64| ≤ 1e-6`. The dense backend ignores the kind.
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Computes the SLEM.
    ///
    /// Rejects disconnected graphs: the paper always extracts the
    /// largest connected component first, because the mixing time of
    /// a disconnected graph is undefined (µ = 1 with multiplicity).
    pub fn estimate(&self) -> Result<SlemEstimate, SlemError> {
        let g = self.graph;
        if g.num_nodes() < 2 {
            return Err(SlemError::TooSmall);
        }
        let erg = ergodicity(g);
        if !erg.connected {
            return Err(SlemError::Disconnected);
        }
        let method = match self.method {
            SlemMethod::Auto => {
                let chosen = if g.num_nodes() <= 200_000 {
                    AUTO_LANCZOS.incr();
                    SlemMethod::Lanczos
                } else {
                    AUTO_POWER.incr();
                    SlemMethod::PowerIteration
                };
                obs_info!(
                    "core.slem",
                    "auto backend for n={}: {chosen:?}",
                    g.num_nodes()
                );
                chosen
            }
            m => m,
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        Ok(match method {
            SlemMethod::Dense => {
                let s = dense::DenseMatrix::symmetric_walk_matrix(g);
                let (vals, _) = dense::jacobi_eigen(&s);
                let n = g.num_nodes();
                SlemEstimate {
                    mu: vals[1].max(-vals[n - 1]),
                    lambda2: Some(vals[1]),
                    lambda_n: Some(vals[n - 1]),
                    method: SlemMethod::Dense,
                    converged: true,
                    iterations: 0,
                }
            }
            SlemMethod::Lanczos => {
                let r = self.with_deflated(|defl, defl32| match defl32 {
                    Some(defl32) => {
                        lanczos_extreme_mixed(defl, defl32, self.lanczos_opts, &mut rng)
                    }
                    None => lanczos_extreme(defl, self.lanczos_opts, &mut rng),
                });
                SlemEstimate {
                    mu: r.top.max(-r.bottom).clamp(0.0, 1.0),
                    lambda2: Some(r.top),
                    lambda_n: Some(r.bottom),
                    method: SlemMethod::Lanczos,
                    converged: r.converged,
                    iterations: r.iterations,
                }
            }
            SlemMethod::PowerIteration => {
                let mu = self.with_deflated(|defl, defl32| match defl32 {
                    Some(defl32) => {
                        spectral_radius_in_complement_mixed(defl, defl32, self.power_opts, &mut rng)
                    }
                    None => spectral_radius_in_complement(defl, self.power_opts, &mut rng),
                });
                SlemEstimate {
                    mu: mu.radius.clamp(0.0, 1.0),
                    lambda2: None,
                    lambda_n: None,
                    method: SlemMethod::PowerIteration,
                    converged: mu.converged,
                    iterations: mu.iterations,
                }
            }
            SlemMethod::Auto => unreachable!("resolved above"),
        })
    }

    /// Runs `f` on the symmetric walk operator deflated of its top
    /// eigenvector `u₁` — the operator whose extreme eigenvalues are
    /// λ₂ and λₙ — together with its f32 instance when the kernel is
    /// [`KernelKind::F32`] (`None` otherwise).
    fn with_deflated<R>(
        &self,
        f: impl FnOnce(&Deflated<'_, f64>, Option<&Deflated<'_, f32>>) -> R,
    ) -> R {
        let sop = SymmetricWalkOp::with_pool(self.graph, self.pool);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        if self.kernel != KernelKind::F32 {
            return f(&defl, None);
        }
        let sop32 = SymmetricWalkOp::with_pool(self.graph, self.pool);
        let basis32 = vec![sop32.top_eigenvector()];
        f(&defl, Some(&DeflatedOp::new(sop32, &basis32)))
    }
}

/// `S` restricted to the complement of `u₁`, at precision `T`.
type Deflated<'a, T> = DeflatedOp<'a, SymmetricWalkOp<'a, T>, T>;

#[cfg(test)]
#[path = "../../linalg/tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use socmix_gen::fixtures;
    use socmix_graph::GraphBuilder;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn complete_graph_all_methods_agree() {
        let g = fixtures::complete(12);
        let expect = 1.0 / 11.0;
        for method in [
            SlemMethod::Dense,
            SlemMethod::Lanczos,
            SlemMethod::PowerIteration,
        ] {
            let est = Slem::new(&g, method).estimate().unwrap();
            assert_close(est.mu, expect, 1e-6);
        }
    }

    #[test]
    fn odd_cycle_closed_form() {
        let n = 15;
        let g = fixtures::cycle(n);
        let expect = (std::f64::consts::PI / n as f64).cos();
        let est = Slem::lanczos(&g).estimate().unwrap();
        assert_close(est.mu, expect, 1e-7);
        assert!(est.converged);
    }

    #[test]
    fn bipartite_slem_is_one() {
        let g = fixtures::complete_bipartite(4, 5);
        let est = Slem::lanczos(&g).estimate().unwrap();
        assert_close(est.mu, 1.0, 1e-7);
        assert!(est.lambda_n.unwrap() < -0.999999);
    }

    #[test]
    fn lanczos_matches_dense_on_fixture_zoo() {
        for g in [
            fixtures::petersen(),
            fixtures::barbell(5, 2),
            fixtures::lollipop(6, 3),
            fixtures::grid(5, 4),
            fixtures::binary_tree(4),
        ] {
            let d = Slem::dense(&g).estimate().unwrap().mu;
            let l = Slem::lanczos(&g).estimate().unwrap().mu;
            assert_close(d, l, 1e-6);
        }
    }

    #[test]
    fn power_matches_dense_on_fixture_zoo() {
        for g in [
            fixtures::petersen(),
            fixtures::barbell(5, 2),
            fixtures::grid(4, 4),
        ] {
            let d = Slem::dense(&g).estimate().unwrap().mu;
            let p = Slem::power_iteration(&g).estimate().unwrap().mu;
            assert_close(d, p, 1e-5);
        }
    }

    #[test]
    fn disconnected_rejected() {
        let g = GraphBuilder::from_edges([(0, 1), (2, 3)]).build();
        assert!(matches!(
            Slem::lanczos(&g).estimate().unwrap_err(),
            SlemError::Disconnected
        ));
    }

    #[test]
    fn tiny_graph_rejected() {
        use socmix_graph::Graph;
        assert!(matches!(
            Slem::lanczos(&Graph::empty(1)).estimate().unwrap_err(),
            SlemError::TooSmall
        ));
    }

    #[test]
    fn barbell_mu_approaches_one_with_clique_size() {
        let small = Slem::dense(&fixtures::barbell(4, 0)).estimate().unwrap().mu;
        let large = Slem::dense(&fixtures::barbell(12, 0))
            .estimate()
            .unwrap()
            .mu;
        assert!(
            large > small,
            "bigger cliques ⇒ tighter bottleneck ⇒ larger µ"
        );
        assert!(large > 0.95);
    }

    #[test]
    fn auto_uses_lanczos_for_small_graphs() {
        let g = fixtures::petersen();
        let est = Slem::auto(&g).estimate().unwrap();
        assert_eq!(est.method, SlemMethod::Lanczos);
    }

    #[test]
    fn seed_changes_start_not_answer() {
        let g = fixtures::barbell(6, 1);
        let a = Slem::lanczos(&g).seed(1).estimate().unwrap().mu;
        let b = Slem::lanczos(&g).seed(999).estimate().unwrap().mu;
        assert_close(a, b, 1e-7);
    }

    #[test]
    fn power_backend_reports_real_provenance() {
        let g = fixtures::petersen();
        let est = Slem::power_iteration(&g).estimate().unwrap();
        assert!(est.converged);
        assert!(
            est.iterations > 0 && est.iterations < PowerOptions::default().max_iter,
            "iterations must be the actual count, not the budget ({})",
            est.iterations
        );
        // a starved budget must be reported as not converged
        let starved = Slem::power_iteration(&g)
            .power_options(PowerOptions {
                max_iter: 1,
                tol: 1e-15,
            })
            .estimate()
            .unwrap();
        assert!(!starved.converged);
        assert_eq!(starved.iterations, 1);
    }

    #[test]
    fn pool_width_does_not_change_estimate() {
        let g = fixtures::barbell(8, 2);
        let serial = Slem::lanczos(&g).pool(Pool::serial()).estimate().unwrap();
        for threads in [2, 8] {
            let par = Slem::lanczos(&g)
                .pool(Pool::with_threads(threads))
                .estimate()
                .unwrap();
            assert_eq!(serial.mu.to_bits(), par.mu.to_bits());
        }
        let pserial = Slem::power_iteration(&g)
            .pool(Pool::serial())
            .estimate()
            .unwrap();
        let ppar = Slem::power_iteration(&g)
            .pool(Pool::with_threads(4))
            .estimate()
            .unwrap();
        assert_eq!(pserial.mu.to_bits(), ppar.mu.to_bits());
        assert_eq!(pserial.iterations, ppar.iterations);
    }

    /// `S` applied by the naive gather, so the solvers can be driven
    /// on the oracle bits.
    struct OracleSym<'g>(&'g Graph);

    impl socmix_linalg::LinearOp for OracleSym<'_> {
        fn dim(&self) -> usize {
            self.0.num_nodes()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            y.copy_from_slice(&super::oracle::symmetric(self.0, x));
        }
    }

    #[test]
    fn exact_estimate_is_bitwise_oracle() {
        let seed = 7;
        for g in [
            fixtures::petersen(),
            fixtures::barbell(5, 2),
            fixtures::grid(5, 4),
        ] {
            let basis = vec![SymmetricWalkOp::new(&g).top_eigenvector()];
            let defl = DeflatedOp::new(OracleSym(&g), &basis);
            for method in [SlemMethod::Lanczos, SlemMethod::PowerIteration] {
                let est = Slem::new(&g, method)
                    .kernel(KernelKind::Exact)
                    .seed(seed)
                    .estimate()
                    .unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let (mu, iterations) = if method == SlemMethod::Lanczos {
                    let r = lanczos_extreme(&defl, LanczosOptions::default(), &mut rng);
                    (r.top.max(-r.bottom).clamp(0.0, 1.0), r.iterations)
                } else {
                    let r = spectral_radius_in_complement(&defl, PowerOptions::default(), &mut rng);
                    (r.radius.clamp(0.0, 1.0), r.iterations)
                };
                assert_eq!(
                    est.mu.to_bits(),
                    mu.to_bits(),
                    "{method:?} exact kernel must match the naive gather bit for bit"
                );
                assert_eq!(est.iterations, iterations);
            }
        }
    }

    #[test]
    fn f32_kernel_estimate_within_tolerance_on_fixture_zoo() {
        // the ISSUE contract: |µ_f32 − µ_f64| ≤ 1e-6 across the zoo
        for g in [
            fixtures::petersen(),
            fixtures::barbell(5, 2),
            fixtures::lollipop(6, 3),
            fixtures::grid(5, 4),
            fixtures::binary_tree(4),
        ] {
            for method in [SlemMethod::Lanczos, SlemMethod::PowerIteration] {
                let exact = Slem::new(&g, method)
                    .kernel(KernelKind::Exact)
                    .estimate()
                    .unwrap();
                let mixed = Slem::new(&g, method)
                    .kernel(KernelKind::F32)
                    .estimate()
                    .unwrap();
                assert!(
                    (mixed.mu - exact.mu).abs() <= 1e-6,
                    "{method:?}: f32 µ {} vs f64 µ {}",
                    mixed.mu,
                    exact.mu
                );
            }
        }
    }

    #[test]
    fn two_node_graph() {
        // K_2 is bipartite: spectrum {1, -1}, µ = 1
        let g = GraphBuilder::from_edges([(0, 1)]).build();
        let est = Slem::dense(&g).estimate().unwrap();
        assert_close(est.mu, 1.0, 1e-12);
    }
}
