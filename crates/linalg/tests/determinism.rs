//! Cross-thread-count determinism of the operator kernels.
//!
//! The parallel contract of the workspace: pool width changes
//! wall-clock, never bits. Every operator chunks its output rows into
//! disjoint ranges and never reassociates a floating-point reduction
//! across chunks, so a 1-, 2-, 8-, or 32-thread pool must produce
//! byte-identical output — including when threads vastly outnumber
//! rows, and on degenerate graphs (no edges, a single edge).
//!
//! The multi-process backend extends the same contract across shard
//! counts (`SOCMIX_SHARDS=1/2/4` bit-for-bit equal to shared memory);
//! that half lives in `tests/shard_determinism.rs`, a harness-free
//! binary because its workers are fork/execs of the test executable.
//!
//! The exact kernels are also pinned to the naive gather in
//! `tests/oracle`, so a faster loop can never drift from the reference
//! bits.

mod oracle;

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix_gen::ba::barabasi_albert;
use socmix_graph::{Graph, GraphBuilder};
use socmix_linalg::vecops::project_out;
use socmix_linalg::{
    lanczos_extreme, DeflatedOp, LanczosOptions, LinearOp, MultiLinearOp, MultiVec,
    SymmetricWalkOp, WalkOp,
};
use socmix_par::Pool;

/// Mildly irregular test graph: a BA preferential-attachment run,
/// large enough that every pool width actually splits it into
/// multiple chunks.
fn ba_graph() -> Graph {
    barabasi_albert(500, 3, &mut StdRng::seed_from_u64(42))
}

/// A deterministic but unstructured input vector.
fn probe_vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
        .collect()
}

const WIDTHS: [usize; 4] = [1, 2, 8, 32];

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: row {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn walk_op_bitwise_identical_across_pool_widths() {
    let g = ba_graph();
    let x = probe_vector(g.num_nodes());
    let serial = WalkOp::with_pool(&g, Pool::serial()).apply_vec(&x);
    for t in WIDTHS {
        let par = WalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_bitwise_eq(&serial, &par, "WalkOp");
    }
}

#[test]
fn symmetric_walk_op_bitwise_identical_across_pool_widths() {
    let g = ba_graph();
    let x = probe_vector(g.num_nodes());
    let serial = SymmetricWalkOp::with_pool(&g, Pool::serial()).apply_vec(&x);
    for t in WIDTHS {
        let par = SymmetricWalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_bitwise_eq(&serial, &par, "SymmetricWalkOp");
    }
}

#[test]
fn deflated_op_bitwise_identical_across_pool_widths() {
    let g = ba_graph();
    let x = probe_vector(g.num_nodes());
    let serial_sop = SymmetricWalkOp::with_pool(&g, Pool::serial());
    let basis = vec![serial_sop.top_eigenvector()];
    let serial = DeflatedOp::new(serial_sop, &basis).apply_vec(&x);
    for t in WIDTHS {
        let sop = SymmetricWalkOp::with_pool(&g, Pool::with_threads(t));
        let par = DeflatedOp::new(sop, &basis).apply_vec(&x);
        assert_bitwise_eq(&serial, &par, "DeflatedOp");
    }
}

#[test]
fn apply_multi_bitwise_identical_across_pool_widths() {
    let g = ba_graph();
    let n = g.num_nodes();
    let width = 5;
    let mut x = MultiVec::zeros(n, width);
    for c in 0..width {
        let col: Vec<f64> = probe_vector(n).iter().map(|v| v * (c + 1) as f64).collect();
        x.set_column(c, &col);
    }
    let mut serial = MultiVec::zeros(n, width);
    WalkOp::with_pool(&g, Pool::serial()).apply_multi(&x, &mut serial, width);
    for t in WIDTHS {
        let mut par = MultiVec::zeros(n, width);
        WalkOp::with_pool(&g, Pool::with_threads(t)).apply_multi(&x, &mut par, width);
        assert_bitwise_eq(serial.as_slice(), par.as_slice(), "apply_multi");
    }
}

#[test]
fn oversubscribed_pool_on_tiny_graph() {
    // 32 threads on 3 rows: most workers must find nothing to claim
    // and the answer must not change.
    let g = GraphBuilder::from_edges([(0, 1), (1, 2)]).build();
    let x = vec![0.25, 0.5, 0.25];
    let serial = WalkOp::with_pool(&g, Pool::serial()).apply_vec(&x);
    let par = WalkOp::with_pool(&g, Pool::with_threads(32)).apply_vec(&x);
    assert_bitwise_eq(&serial, &par, "oversubscribed WalkOp");
}

#[test]
fn single_edge_graph_all_widths() {
    let g = GraphBuilder::from_edges([(0, 1)]).build();
    let x = vec![0.75, 0.25];
    for t in WIDTHS {
        let y = WalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_eq!(y, vec![0.25, 0.75]);
        let s = SymmetricWalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_eq!(s, vec![0.25, 0.75]);
    }
}

#[test]
fn edgeless_graph_all_widths() {
    // every node isolated: the walk drops all mass, on any pool
    let mut b = GraphBuilder::from_edges([]);
    b.grow_to(4);
    let g = b.build();
    let x = vec![0.25; 4];
    for t in WIDTHS {
        let y = WalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_eq!(y, vec![0.0; 4]);
    }
}

#[test]
fn empty_graph_all_widths() {
    let g = Graph::empty(0);
    for t in WIDTHS {
        let y = WalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&[]);
        assert!(y.is_empty());
    }
}

fn pool_of(threads: usize) -> Pool {
    if threads == 1 {
        Pool::serial()
    } else {
        Pool::with_threads(threads)
    }
}

#[test]
fn lanczos_bitwise_identical_across_pool_widths() {
    // 22,500 nodes: several of the solver's fixed reorthogonalization
    // chunks, so the chunked dot fold runs on every width
    let g = socmix_gen::fixtures::grid(150, 150);
    let basis = vec![SymmetricWalkOp::new(&g).top_eigenvector()];
    let opts = LanczosOptions {
        max_iter: 60,
        tol: 0.0,
        check_every: 10,
    };
    let run = |t: usize| {
        let op = DeflatedOp::new(SymmetricWalkOp::with_pool(&g, pool_of(t)), &basis);
        lanczos_extreme(&op, opts, &mut StdRng::seed_from_u64(7))
    };
    let serial = run(1);
    assert_eq!(serial.iterations, 60);
    for t in WIDTHS {
        let par = run(t);
        assert_eq!(serial.top.to_bits(), par.top.to_bits(), "top, {t} threads");
        assert_eq!(
            serial.bottom.to_bits(),
            par.bottom.to_bits(),
            "bottom, {t} threads"
        );
        assert_eq!(serial.iterations, par.iterations, "{t} threads");
    }
}

#[test]
fn exact_kernel_bitwise_identical_to_oracle() {
    // The single-column gather sums each row's (sorted) neighbors
    // left to right into one accumulator, so it must equal the naive
    // loop bit for bit on every pool width.
    let g = ba_graph();
    let x = probe_vector(g.num_nodes());
    let walk = oracle::walk(&g, &x);
    let sym = oracle::symmetric(&g, &x);
    for t in [1usize, 4] {
        let y = WalkOp::with_pool(&g, pool_of(t)).apply_vec(&x);
        assert_bitwise_eq(&walk, &y, "WalkOp");
        let y = SymmetricWalkOp::with_pool(&g, pool_of(t)).apply_vec(&x);
        assert_bitwise_eq(&sym, &y, "SymmetricWalkOp");
    }
}

#[test]
fn exact_apply_multi_bitwise_identical_to_oracle() {
    let g = ba_graph();
    let n = g.num_nodes();
    let stride = 5;
    let mut x = MultiVec::zeros(n, stride);
    for c in 0..stride {
        let col: Vec<f64> = probe_vector(n).iter().map(|v| v * (c + 1) as f64).collect();
        x.set_column(c, &col);
    }
    for width in [1, 3, stride] {
        let want = oracle::block(&g, false, x.as_slice(), stride, width);
        for t in [1usize, 8] {
            let mut y = MultiVec::zeros(n, stride);
            WalkOp::with_pool(&g, pool_of(t)).apply_multi(&x, &mut y, width);
            assert_bitwise_eq(&want, y.as_slice(), "apply_multi");
        }
    }
}

/// The f32 operators on `g` over `pool`: the symmetric walk operator
/// and its deflation by `basis32`, whose apply projects the output
/// only.
fn f32_ops<'a>(
    g: &'a Graph,
    pool: Pool,
    basis32: &'a [Vec<f32>],
) -> [Box<dyn LinearOp<f32> + 'a>; 2] {
    let sop = || SymmetricWalkOp::with_pool(g, pool);
    [Box::new(sop()), Box::new(DeflatedOp::new(sop(), basis32))]
}

#[test]
fn f32_kernel_tracks_f64_within_tolerance() {
    // The mixed-precision contract: per-application error within
    // ~1e-6 of the f64 operator on unit-scale inputs. The input lies
    // in the complement of u₁, where the f32 deflated operator's
    // output-only projection must equal the f64 operator's full
    // projection up to f32 noise.
    let g = ba_graph();
    let sop = SymmetricWalkOp::with_pool(&g, Pool::serial());
    let basis = vec![sop.top_eigenvector()];
    let mut x = probe_vector(g.num_nodes());
    project_out(&mut x, &basis[0]);
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let want = [
        sop.apply_vec(&x),
        DeflatedOp::new(sop, &basis).apply_vec(&x),
    ];
    let basis32 = vec![SymmetricWalkOp::<f32>::with_pool(&g, Pool::serial()).top_eigenvector()];
    for (k, (op, want)) in f32_ops(&g, Pool::serial(), &basis32)
        .iter()
        .zip(&want)
        .enumerate()
    {
        let got = op.apply_vec(&x32);
        for (i, (w, g32)) in want.iter().zip(&got).enumerate() {
            assert!(
                (w - f64::from(*g32)).abs() <= 1e-6,
                "op {k} row {i}: f32 {g32} vs f64 {w}"
            );
        }
    }
}

#[test]
fn f32_kernel_bitwise_identical_across_pool_widths() {
    // f32 results are approximate relative to f64, but they must
    // still be deterministic: pool width never changes bits.
    let g = ba_graph();
    let basis32 = vec![SymmetricWalkOp::<f32>::with_pool(&g, Pool::serial()).top_eigenvector()];
    let mut x32: Vec<f32> = probe_vector(g.num_nodes())
        .iter()
        .map(|&v| v as f32)
        .collect();
    project_out(&mut x32, &basis32[0]);
    let serial = f32_ops(&g, Pool::serial(), &basis32).map(|op| op.apply_vec(&x32));
    for t in WIDTHS {
        for (k, (op, serial)) in f32_ops(&g, Pool::with_threads(t), &basis32)
            .iter()
            .zip(&serial)
            .enumerate()
        {
            let par = op.apply_vec(&x32);
            for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "op {k} row {i} differs ({a} vs {b})"
                );
            }
        }
    }
}
