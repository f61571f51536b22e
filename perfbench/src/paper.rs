//! `paper-100k`: both of the paper's methods on Facebook A at scale
//! 0.1 (100k nodes, 1.41M edges). Phase 1 is the SLEM bound
//! (`Slem::auto`, a Lanczos solve); phase 2 samples TVD curves from
//! `PROBE_SOURCES` random sources for `PROBE_STEPS` steps and reads
//! T(ε) off them, `PROBES` times with fresh sources. A job is one of
//! each phase; after one untimed warm-up probe, jobs repeat while the
//! next one is expected to end within the run's time budget.

use crate::layers;
use crate::spans::Spans;
use crate::stats::{another, median};
use crate::{Args, Out};
use socmix_core::probe::ProbeResult;
use socmix_core::{MixingProbe, Slem};
use socmix_gen::{Dataset, GraphCache};
use socmix_graph::Graph;
use socmix_markov::Evolver;
use std::time::Instant;

pub const DATASET: Dataset = Dataset::FacebookA;
pub const SCALE: f64 = 0.1;
/// Sources per probe: two blocks of 16, one per core on two cores.
pub const PROBE_SOURCES: usize = 32;
/// Probes per job; `sampling_s` is the median probe time.
pub const PROBES: usize = 2;
/// Probes per job in a traced run, both in the untraced job that is
/// the base of the overhead and in the traced one: one, so that the
/// traced run, which also climbs the whole ladder, ends well within
/// `run.py`'s timeout (it took 145 s with two).
pub const TRACED_PROBES: usize = 1;
pub const PROBE_STEPS: usize = 100;
/// Steps of the untimed warm-up probe.
const WARMUP_STEPS: usize = 10;
pub const EPSILON: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median. One takes about 0.3 s,
/// so many of them keep the median steady at little cost.
pub const SETUPS: usize = 15;
/// Fewest jobs an untraced run times, however short `--seconds` is.
pub const MIN_JOBS: usize = 2;
/// Largest |µ − reference| accepted.
const MU_TOL: f64 = 1e-7;

/// µ of the graph (`Slem::auto`, converged), recorded with this
/// benchmark; every start vector must land within `MU_TOL` of it.
const REFERENCE_MU: f64 = 0.998482550457;

/// Generates a graph into a fresh cache under `dir` and reloads it.
/// Returns the reloaded graph and the (generate, reload) seconds.
pub fn setup_graph(
    spans: &Spans,
    dir: &std::path::Path,
    ds: Dataset,
    scale: f64,
    seed: u64,
) -> (Graph, f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let cache = GraphCache::at(dir);
    let (g, gen_s) = spans.time("gen.generate", || cache.load_or_generate(ds, scale, seed));
    drop(g);
    let (g, load_s) = spans.time("gen.cache_load", || cache.load_or_generate(ds, scale, seed));
    (g, gen_s, load_s)
}

fn check_mu(out: &mut Out, mu: f64) {
    out.op(
        (mu - REFERENCE_MU).abs() <= MU_TOL,
        &format!("mu {mu} vs reference {REFERENCE_MU}"),
    );
}

/// Times of one job.
struct Job {
    slem_s: f64,
    probe_s: Vec<f64>,
    wall_s: f64,
    mu: f64,
    /// The last probe, for the output checks.
    probe: ProbeResult,
}

/// One timed job: µ, then `probes` probes with T(ε). `start` seeds the
/// Lanczos start vector; `seed`, with the probe index, the sources.
fn job(spans: &Spans, g: &Graph, probes: usize, start: u64, seed: u64) -> Result<Job, String> {
    let t = Instant::now();
    let (est, slem_s) = spans.time("core.slem", || Slem::auto(g).seed(start).estimate());
    let est = est.map_err(|e| format!("slem: {e}"))?;
    let mut probe_s = Vec::new();
    let mut last = None;
    for i in 0..probes as u64 {
        let ((r, t_eps), s) = spans.time("core.probe", || {
            let r = MixingProbe::new(g).auto_kernel().probe_random_sources(
                PROBE_SOURCES,
                PROBE_STEPS,
                seed.wrapping_mul(31).wrapping_add(i),
            );
            let t_eps = r.mixing_time(EPSILON);
            (r, t_eps)
        });
        println!(
            "# probe {i}: {s:.3} s, T({EPSILON}) {}",
            t_eps.map_or(format!("> {PROBE_STEPS}"), |t| t.to_string())
        );
        probe_s.push(s);
        last = Some(r);
    }
    let wall_s = t.elapsed().as_secs_f64();
    println!(
        "# job: slem {slem_s:.3} s, mu {:.12} ({} Lanczos steps, converged {}), wall {wall_s:.3} s",
        est.mu, est.iterations, est.converged
    );
    Ok(Job {
        slem_s,
        probe_s,
        wall_s,
        mu: est.mu,
        probe: last.expect("at least one probe"),
    })
}

pub fn run(args: &Args, out: &mut Out) -> Result<(), String> {
    let spans = Spans::new(args.trace);
    let gseed = crate::GRAPH_SEED;
    println!(
        "# paper-100k: {} at scale {SCALE}, graph seed {gseed}",
        DATASET.name()
    );
    layers::telemetry(false);

    let mut setups = Vec::new();
    let (mut gens, mut loads) = (Vec::new(), Vec::new());
    let mut graph = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (g, gen_s, load_s) =
            setup_graph(&spans, &args.work.join("cache"), DATASET, SCALE, gseed);
        setups.push(t.elapsed().as_secs_f64());
        gens.push(gen_s);
        loads.push(load_s);
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up");
    println!("# graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // Warm-up: a short probe, untimed, so the pool's workers are up
    // and the graph's pages are in cache before the first timed job.
    std::hint::black_box(MixingProbe::new(&g).auto_kernel().probe_random_sources(
        PROBE_SOURCES,
        WARMUP_STEPS,
        args.seed,
    ));

    // Timed region: repeat the job while the next one fits the budget.
    let mut slem = Vec::new();
    let mut sampling = Vec::new();
    let mut wall = Vec::new();
    let mut mus = Vec::new();
    let budget = Instant::now();
    let mut last = None;
    // A traced run times one job untraced, as the base of the overhead.
    let min_jobs = if args.trace { 1 } else { MIN_JOBS };
    let probes = if args.trace { TRACED_PROBES } else { PROBES };
    let budget_s = if args.trace { 0.0 } else { args.seconds };
    while another(
        wall.len(),
        min_jobs,
        budget.elapsed().as_secs_f64(),
        wall.last().copied().unwrap_or(0.0),
        budget_s,
    ) {
        // Job n starts Lanczos from start vector n whatever the seed:
        // µ is the same from every start vector but the work is not
        // (seeds 11 to 25 took 210 to 230 steps, and full
        // reorthogonalization grows with the square of the steps), so
        // a seeded start vector moved `slem_s` by a tenth between runs.
        // The seed chooses the probe sources.
        let n = wall.len() as u64;
        let j = job(&spans, &g, probes, n, args.seed.wrapping_add(n))?;
        slem.push(j.slem_s);
        sampling.extend(&j.probe_s);
        wall.push(j.wall_s);
        mus.push(j.mu);
        last = Some(j);
    }
    let probe = last.expect("ran once").probe;

    // Output checks, outside the timed region: every job's µ (each
    // from its own start vector), then the last probe's columns.
    for mu in mus {
        check_mu(out, mu);
    }
    let ev = Evolver::with_kind(&g, MixingProbe::new(&g).auto_kernel().walk_kind());
    for k in [0, PROBE_SOURCES / 2 + 1] {
        let serial = ev.tvd_series(probe.sources[k], PROBE_STEPS);
        let same = serial.len() == probe.series[k].len()
            && serial
                .iter()
                .zip(&probe.series[k])
                .all(|(a, b)| a.to_bits() == b.to_bits());
        out.op(
            same,
            &format!("probe column {k} bit-equal to serial Evolver::tvd_series"),
        );
    }

    let med = |v: &[f64]| median(v).expect("non-empty");
    if !args.trace {
        out.metric("setup_s", med(&setups), "s");
        out.metric("slem_s", med(&slem), "s");
        out.metric("wall_s", med(&wall), "s");
        // Printed only: over runs on a shared host its spread reached
        // 0.14 (see README), too wide to gate; `wall_s` holds it.
        out.info("sampling_s", med(&sampling), "s");
        out.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        return Ok(());
    }

    // Traced run: the job again with telemetry on, then the layer ladder.
    layers::telemetry(true);
    let before = socmix_obs::snapshot();
    let (traced, _) = spans.iteration("workload.paper-100k", 1, || {
        job(&spans, &g, TRACED_PROBES, 0, args.seed)
    });
    let traced = traced?;
    let after = socmix_obs::snapshot();
    check_mu(out, traced.mu);
    out.metric(
        "obs.trace_overhead_frac",
        traced.wall_s / med(&wall) - 1.0,
        "1",
    );
    out.metric("core.slem_s", traced.slem_s, "s");
    out.metric("core.probe_s", med(&traced.probe_s), "s");
    layers::job_counters(out, |n| layers::delta(&before, &after, n));
    out.metric("gen.generate_s", med(&gens), "s");
    out.metric("gen.cache_load_s", med(&loads), "s");
    crate::ladder(args, out, &spans, &g, PROBE_STEPS)?;
    layers::report(
        out,
        &spans,
        "workload.paper-100k",
        &args.work.join("trace-paper-100k.json"),
    );
    Ok(())
}
