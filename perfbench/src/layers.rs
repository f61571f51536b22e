//! The per-layer half of a traced run: the L0 memory probe, direct
//! calls into `linalg`, `markov` and `par`, counter deltas, and the
//! self-time report.

use crate::spans::Spans;
use crate::stats::median;
use crate::Out;
use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix_graph::Graph;
use socmix_linalg::lanczos::{lanczos_extreme, LanczosOptions};
use socmix_linalg::op::{DeflatedOp, LinearOp, SymmetricWalkOp, WalkOp};
use socmix_linalg::{MultiLinearOp, MultiVec};
use socmix_markov::{BatchEvolver, WalkKind};
use socmix_obs::MetricsSnapshot;
use socmix_par::Pool;
use std::time::Instant;

/// Turns counters and tracing on or off together.
pub fn telemetry(on: bool) {
    socmix_obs::set_metrics_enabled(on);
    socmix_obs::set_trace_enabled(on);
}

/// Counter value in a snapshot (0 when never registered).
pub fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

/// `after - before` for a counter.
pub fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    counter(after, name) - counter(before, name)
}

/// Median seconds per call of `f`, over batches that each run for at
/// least `min_batch_s` (after one warm-up call).
pub fn per_call(batches: usize, min_batch_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut per = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || t.elapsed().as_secs_f64() < min_batch_s {
            f();
            calls += 1;
        }
        per.push(t.elapsed().as_secs_f64() / calls as f64);
    }
    median(&per).expect("at least one batch")
}

/// Size of the largest CPU cache in bytes, from sysfs (what `lscpu`
/// reports). Falls back to 32 MiB when sysfs has no cache entries.
pub fn llc_bytes() -> u64 {
    let mut best = 0u64;
    for i in 0..8 {
        let p = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(s) = std::fs::read_to_string(&p) else {
            continue;
        };
        let s = s.trim();
        let (num, mult) = match s.chars().last() {
            Some('K') => (&s[..s.len() - 1], 1u64 << 10),
            Some('M') => (&s[..s.len() - 1], 1 << 20),
            Some('G') => (&s[..s.len() - 1], 1 << 30),
            _ => (s, 1),
        };
        if let Ok(v) = num.parse::<u64>() {
            best = best.max(v * mult);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Runs `body(chunk_a, chunk_b, chunk_c)` on disjoint equal chunks of
/// three arrays, one chunk per thread.
fn par3(
    a: &mut [f64],
    b: &mut [f64],
    c: &mut [f64],
    threads: usize,
    body: impl Fn(&mut [f64], &mut [f64], &mut [f64]) + Sync,
) {
    let chunk = a.len().div_ceil(threads);
    std::thread::scope(|s| {
        for ((x, y), z) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            let body = &body;
            s.spawn(move || body(x, y, z));
        }
    });
}

/// L0 roofline: STREAM-style copy and triad over arrays of at least
/// four times the largest cache, one chunk per core. Prints one row
/// per kernel with its computed bytes moved and returns (copy GB/s,
/// triad GB/s), best of three passes each.
pub fn stream(out: &mut Out) -> (f64, f64) {
    let llc = llc_bytes();
    let bytes = (4 * llc).max(64 << 20);
    let n = (bytes / 8) as usize;
    let threads = socmix_par::num_threads();
    let mut a = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut c = vec![0.0f64; n];
    // first touch in parallel, so pages land where the kernels run
    par3(&mut a, &mut b, &mut c, threads, |x, y, z| {
        x.fill(1.0);
        y.fill(2.0);
        z.fill(0.5);
    });
    let best = |a: &mut Vec<f64>, b: &mut Vec<f64>, c: &mut Vec<f64>, triad: bool| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                par3(a, b, c, threads, |x, y, z| {
                    if triad {
                        for ((xi, yi), zi) in x.iter_mut().zip(y.iter()).zip(z.iter()) {
                            *xi = *yi + 3.0 * *zi;
                        }
                    } else {
                        x.copy_from_slice(y);
                    }
                });
                std::hint::black_box(&a[n / 2]);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let copy_s = best(&mut a, &mut b, &mut c, false);
    let triad_s = best(&mut a, &mut b, &mut c, true);
    let (copy_bytes, triad_bytes) = (2.0 * bytes as f64, 3.0 * bytes as f64);
    let mib = |x: u64| x as f64 / (1u64 << 20) as f64;
    println!(
        "# L0 probe: largest cache {:.0} MiB, each array {:.0} MiB ({}x), {threads} threads",
        mib(llc),
        mib(bytes),
        bytes / llc.max(1)
    );
    for (name, moved, s) in [
        ("copy", copy_bytes, copy_s),
        ("triad", triad_bytes, triad_s),
    ] {
        println!(
            "# L0 {name:<5} computed bytes moved {:.3e}  best {:.4} s  {:.2} GB/s",
            moved,
            s,
            moved / s / 1e9
        );
    }
    let (copy, triad) = (copy_bytes / copy_s / 1e9, triad_bytes / triad_s / 1e9);
    out.metric("mem.copy_gbps", copy, "GB/s");
    out.metric("mem.triad_gbps", triad, "GB/s");
    (copy, triad)
}

/// Computed bytes of one `SymmetricWalkOp::apply`: the row offsets,
/// the 4-byte target ids, one 8-byte gather per stored edge, and the
/// per-node passes (read x and the inverse degrees, write and read
/// the scaled copy, read the degrees again, write y).
pub fn apply_bytes(g: &Graph) -> f64 {
    let (n, nnz) = (g.num_nodes() as f64, 2.0 * g.num_edges() as f64);
    8.0 * (n + 1.0) + 12.0 * nnz + 48.0 * n
}

/// Computed bytes of one `WalkOp::apply_multi` at width `w`: offsets,
/// target ids, one `w`-wide row gather per stored edge, the inverse
/// degrees and the `w`-wide output rows.
pub fn apply_multi_bytes(g: &Graph, w: usize) -> f64 {
    let (n, nnz, w) = (g.num_nodes() as f64, 2.0 * g.num_edges() as f64, w as f64);
    8.0 * (n + 1.0) + 4.0 * nnz + 8.0 * w * nnz + 8.0 * n + 8.0 * w * n
}

/// The `linalg` layer on `g`: single- and multi-column apply, and a
/// direct Lanczos solve on the deflated operator.
pub fn linalg(out: &mut Out, spans: &Spans, g: &Graph, seed: u64, triad_gbps: f64) {
    let n = g.num_nodes();
    let sop = SymmetricWalkOp::new(g);
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut y = vec![0.0; n];
    let (apply_s, _) = spans.time("linalg.apply", || {
        per_call(5, 0.05, || sop.apply(std::hint::black_box(&x), &mut y))
    });
    let gbps = apply_bytes(g) / apply_s / 1e9;
    out.metric("linalg.apply_us", apply_s * 1e6, "us");
    out.metric("linalg.apply_gbps", gbps, "GB/s");
    out.metric("linalg.apply_roofline_frac", gbps / triad_gbps, "1");

    let op = WalkOp::new(g);
    for w in [1usize, 4, 16, 64] {
        let mut xm = MultiVec::zeros(n, w);
        for i in 0..n {
            xm.set(i, i % w, 1.0 / n as f64);
        }
        let mut ym = MultiVec::zeros(n, w);
        let (s, _) = spans.time("linalg.apply_multi", || {
            per_call(5, 0.05, || {
                op.apply_multi(std::hint::black_box(&xm), &mut ym, w)
            })
        });
        out.metric(&format!("linalg.apply_multi_us.w{w}"), s * 1e6, "us");
        if w == 16 {
            let gbps = apply_multi_bytes(g, w) / s / 1e9;
            out.metric("linalg.apply_multi_gbps.w16", gbps, "GB/s");
            out.metric(
                "linalg.apply_multi_roofline_frac.w16",
                gbps / triad_gbps,
                "1",
            );
        }
    }

    let before = socmix_obs::snapshot();
    let basis = vec![sop.top_eigenvector()];
    let defl = DeflatedOp::new(SymmetricWalkOp::new(g), &basis);
    let mut rng = StdRng::seed_from_u64(seed);
    let (r, s) = spans.time("linalg.lanczos_extreme", || {
        lanczos_extreme(&defl, LanczosOptions::default(), &mut rng)
    });
    let after = socmix_obs::snapshot();
    out.metric("linalg.lanczos_s", s, "s");
    out.metric("linalg.lanczos.steps", r.iterations as f64, "count");
    out.metric(
        "linalg.lanczos.matvecs",
        delta(&before, &after, "linalg.matvec"),
        "count",
    );
}

/// The `markov` layer: one 16-source `tvd_series_block` of `t_max`
/// steps, with the multi-column matvec and retirement counts it made.
pub fn markov(out: &mut Out, spans: &Spans, g: &Graph, kind: WalkKind, t_max: usize) {
    let be = BatchEvolver::with_kind(g, kind);
    let step = (g.num_nodes() / 16).max(1);
    let sources: Vec<u32> = (0..16)
        .map(|i| ((i * step) % g.num_nodes()) as u32)
        .collect();
    let before = socmix_obs::snapshot();
    let (series, s) = spans.time("markov.tvd_series_block", || {
        be.tvd_series_block(&sources, t_max, None)
    });
    std::hint::black_box(series);
    let after = socmix_obs::snapshot();
    out.metric("markov.tvd_block_s", s, "s");
    out.metric(
        "markov.batch.steps",
        delta(&before, &after, "markov.batch.steps"),
        "count",
    );
}

/// The `par` layer: an empty `for_each_chunk` on the default pool.
pub fn par(out: &mut Out, spans: &Spans) {
    let pool = Pool::new();
    let n = pool.threads().max(1) * 4;
    let (s, _) = spans.time("par.for_each_chunk", || {
        per_call(5, 0.05, || {
            pool.for_each_chunk(n, |r| {
                std::hint::black_box(r);
            })
        })
    });
    out.metric("par.dispatch_us", s * 1e6, "us");
}

/// Pool and probe counters over a workload's traced job; `count`
/// gives each counter's change over the job.
pub fn job_counters(out: &mut Out, count: impl Fn(&str) -> f64) {
    for name in [
        "par.jobs.dispatched",
        "par.jobs.inline",
        "par.worker.wakes",
        "core.probe.blocks",
        "linalg.matvec.multi_cols",
        "markov.batch.retired",
    ] {
        out.metric(name, count(name), "count");
    }
}

/// Prints the self-time table and the share of the workload's time
/// the layer calls explain, and writes the Chrome trace.
pub fn report(out: &mut Out, spans: &Spans, root: &str, trace_path: &std::path::Path) {
    println!("# self time per benchmark span (s)");
    println!(
        "# {:<34} {:>6} {:>10} {:>10}",
        "span", "calls", "total", "self"
    );
    for r in spans.self_times() {
        println!(
            "# {:<34} {:>6} {:>10.4} {:>10.4}",
            r.name, r.calls, r.total_s, r.self_s
        );
    }
    let share = spans.explained_share(root);
    println!("# layer calls explain {:.1}% of {root}", 100.0 * share);
    out.metric("trace.explained_frac", share, "1");
    match spans.write_chrome(trace_path) {
        Ok(events) => println!("# chrome trace: {} ({events} events)", trace_path.display()),
        Err(e) => out.op(false, &format!("writing {}: {e}", trace_path.display())),
    }
}
