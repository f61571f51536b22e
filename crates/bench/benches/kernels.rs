//! Bench: the two `SOCMIX_KERNEL` kinds through the full SLEM
//! pipeline — exact f64 vs mixed-precision f32, end to end on a
//! catalog graph at the 100k-node scale, for both iterative backends
//! (power iteration and Lanczos).
//!
//! Unlike the criterion-stub benches this harness is hand-rolled so
//! the variants can be **interleaved**: each round times every
//! (backend, kind) pair once, so clock drift, thermal state, and page
//! cache effects land on every variant equally instead of biasing
//! whichever ran last. Per-variant statistics are taken across rounds
//! and written to `BENCH_kernels.json` (override the path with
//! `SOCMIX_BENCH_JSON`) in the same record format the vendored
//! criterion stub emits.

use std::io::Write as _;
use std::time::Instant;

use socmix_core::Slem;
use socmix_gen::Dataset;
use socmix_linalg::{KernelKind, LanczosOptions, PowerOptions};

/// Fixed-work measurement: `tol: 0.0` never converges, so every
/// variant runs exactly `max_iter` matvec iterations.
const POWER: PowerOptions = PowerOptions {
    max_iter: 120,
    tol: 0.0,
};
/// Fixed-work Lanczos: `tol: 0.0` never converges in f64, and 60 steps
/// stay well above the f32 loop's 1e-6 residual floor on this graph
/// (the f32 run needs ~190 steps to reach it), so both kinds build the
/// full 60-vector basis.
const LANCZOS: LanczosOptions = LanczosOptions {
    max_iter: 60,
    tol: 0.0,
    check_every: 10,
};
const ROUNDS: usize = 7;
const GROUPS: [&str; 2] = ["slem_e2e/power_120it_100k", "slem_e2e/lanczos_60it_100k"];
const KINDS: [(&str, KernelKind); 2] = [("exact", KernelKind::Exact), ("f32", KernelKind::F32)];

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let groups: Vec<usize> = (0..GROUPS.len())
        .filter(|&g| filter.iter().all(|f| GROUPS[g].contains(f.as_str())))
        .collect();
    if groups.is_empty() {
        return;
    }
    // 100_000 nodes, ~1M edges: the f64 working set (~16 MB of
    // vectors plus the CSR stream) is far outside cache.
    let g = Dataset::FacebookA.generate(0.1, 7);
    let run = |group: usize, kind: KernelKind| {
        let est = if group == 0 {
            Slem::power_iteration(&g).power_options(POWER)
        } else {
            Slem::lanczos(&g).lanczos_options(LANCZOS)
        };
        std::hint::black_box(est.kernel(kind).estimate().unwrap().mu)
    };
    let variants: Vec<(usize, usize)> = groups
        .iter()
        .flat_map(|&g| (0..KINDS.len()).map(move |k| (g, k)))
        .collect();
    // one untimed warmup per variant to fault in pages and arenas
    for &(group, k) in &variants {
        run(group, KINDS[k].1);
    }
    // times[round][variant]: each round times every variant once
    let mut times = vec![vec![0.0f64; variants.len()]; ROUNDS];
    for round in times.iter_mut() {
        for (slot, &(group, k)) in round.iter_mut().zip(&variants) {
            let start = Instant::now();
            run(group, KINDS[k].1);
            *slot = start.elapsed().as_secs_f64() * 1e9;
        }
    }
    let mut records = Vec::new();
    let mut medians = vec![0.0f64; variants.len()];
    for (v, &(group, k)) in variants.iter().enumerate() {
        let id = format!("{}/{}", GROUPS[group], KINDS[k].0);
        let mut t: Vec<f64> = times.iter().map(|row| row[v]).collect();
        t.sort_by(|a, b| a.total_cmp(b));
        let min = t[0];
        let median = t[ROUNDS / 2];
        let mean = t.iter().sum::<f64>() / ROUNDS as f64;
        medians[v] = median;
        println!(
            "{id:<38} time: [{:.2} ms {:.2} ms {:.2} ms]",
            min / 1e6,
            median / 1e6,
            mean / 1e6
        );
        records.push(format!(
            "  {{\"id\":\"{id}\",\"min_ns\":{min:.1},\"median_ns\":{median:.1},\
             \"mean_ns\":{mean:.1},\"samples\":{ROUNDS},\"iters_per_sample\":1}}"
        ));
    }
    for pair in medians.chunks(KINDS.len()) {
        println!("speedup vs exact: f32 {:.2}x", pair[0] / pair[1]);
    }
    let out = format!("[\n{}\n]\n", records.join(",\n"));
    let path = std::env::var("SOCMIX_BENCH_JSON").unwrap_or_else(|_| "BENCH_kernels.json".into());
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
