//! Bench: the two `SOCMIX_KERNEL` kinds through the full SLEM
//! pipeline — exact f64 vs mixed-precision f32, end to end on a
//! catalog graph at the 100k-node scale.
//!
//! Unlike the criterion-stub benches this harness is hand-rolled so
//! the variants can be **interleaved**: each round times exact, then
//! f32 once, so clock drift, thermal state, and page
//! cache effects land on every variant equally instead of biasing
//! whichever ran last. Per-variant statistics are taken across rounds
//! and written to `BENCH_kernels.json` (override the path with
//! `SOCMIX_BENCH_JSON`) in the same record format the vendored
//! criterion stub emits.

use std::io::Write as _;
use std::time::Instant;

use socmix_core::Slem;
use socmix_gen::Dataset;
use socmix_linalg::{KernelKind, PowerOptions};

/// Fixed-work measurement: `tol: 0.0` never converges, so every
/// variant runs exactly `max_iter` matvec iterations.
const OPTS: PowerOptions = PowerOptions {
    max_iter: 120,
    tol: 0.0,
};
const ROUNDS: usize = 7;

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if let Some(f) = &filter {
        if !"slem_e2e/power_120it_100k".contains(f.as_str()) {
            return;
        }
    }
    // 100_000 nodes, ~1M edges: the f64 working set (~16 MB of
    // vectors plus the CSR stream) is far outside cache.
    let g = Dataset::FacebookA.generate(0.1, 7);
    let variants: [(&str, KernelKind); 2] =
        [("exact", KernelKind::Exact), ("f32", KernelKind::F32)];
    let run = |cfg: KernelKind| {
        let est = Slem::power_iteration(&g)
            .power_options(OPTS)
            .kernel(cfg)
            .estimate()
            .unwrap();
        std::hint::black_box(est.mu)
    };
    // one untimed warmup per variant to fault in pages and arenas
    for &(_, cfg) in &variants {
        run(cfg);
    }
    // times[round][variant]: each round times every variant once
    let mut times = [[0.0f64; 2]; ROUNDS];
    for round in times.iter_mut() {
        for (slot, &(_, cfg)) in round.iter_mut().zip(&variants) {
            let start = Instant::now();
            run(cfg);
            *slot = start.elapsed().as_secs_f64() * 1e9;
        }
    }
    let mut out = String::from("[\n");
    let mut medians = [0.0f64; 2];
    for (v, &(name, _)) in variants.iter().enumerate() {
        let mut t = times.map(|row| row[v]);
        t.sort_by(|a, b| a.total_cmp(b));
        let min = t[0];
        let median = t[ROUNDS / 2];
        let mean = t.iter().sum::<f64>() / ROUNDS as f64;
        medians[v] = median;
        println!(
            "slem_e2e/power_120it_100k/{name:<8} time: [{:.2} ms {:.2} ms {:.2} ms]",
            min / 1e6,
            median / 1e6,
            mean / 1e6
        );
        out.push_str(&format!(
            "  {{\"id\":\"slem_e2e/power_120it_100k/{name}\",\"min_ns\":{min:.1},\
             \"median_ns\":{median:.1},\"mean_ns\":{mean:.1},\"samples\":{ROUNDS},\
             \"iters_per_sample\":1}}{}\n",
            if v + 1 == variants.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    println!("speedup vs exact: f32 {:.2}x", medians[0] / medians[1]);
    let path = std::env::var("SOCMIX_BENCH_JSON").unwrap_or_else(|_| "BENCH_kernels.json".into());
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
