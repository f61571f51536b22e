//! `repro-small`: the researcher's end-to-end, `repro all --scale 0.01
//! --sources 50 --tmax 200` at the default `--stage-jobs`, on a graph
//! cache filled during set-up. The same run with `--metrics` supplies
//! the pipeline rungs (`stage.*`) of every traced run's layer ladder.

use crate::layers;
use crate::spans::Spans;
use crate::stats::{another, median};
use crate::{Args, Out};
use socmix_gen::{Dataset, GraphCache};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

pub const SCALE: f64 = 0.01;
pub const SOURCES: usize = 50;
pub const TMAX: usize = 200;
/// Set-ups per run; `setup_s` is their median. One takes about 0.2 s,
/// so many of them keep the median steady at little cost.
pub const SETUPS: usize = 15;
/// Fewest `repro all` runs an untraced run times.
pub const MIN_RUNS: usize = 2;

/// The 17 stages of `repro all`, in order.
pub const STAGES: [&str; 17] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "sybil-attack",
    "whanau",
    "average",
    "ncp",
    "defenses",
    "sampler-bias",
    "null-model",
    "shard",
];

/// FNV-1a 64 digest of `repro all` stdout without the wall-clock
/// footer, recorded with this benchmark (byte-identical at
/// `--stage-jobs` 1 and 2).
const REFERENCE_DIGEST: &str = "30bfe7e00af09591";

/// Every `(dataset, scale)` graph `repro all --scale 0.01` reads: all
/// fifteen datasets at the run scale (physics sets at five times it),
/// plus Physics 3 at twice the scale (`defenses`) and Livejournal A
/// at 0.005 (`null-model`). A graph missing here would be generated
/// inside the timed run; the traced run checks `gen.cache.miss` is 0.
pub fn artifacts() -> Vec<(Dataset, f64)> {
    let physics = [Dataset::Physics1, Dataset::Physics2, Dataset::Physics3];
    let mut v: Vec<(Dataset, f64)> = Dataset::all()
        .iter()
        .map(|&d| {
            (
                d,
                if physics.contains(&d) {
                    SCALE * 5.0
                } else {
                    SCALE
                },
            )
        })
        .collect();
    v.push((Dataset::Physics3, SCALE * 2.0));
    v.push((Dataset::LivejournalA, (SCALE / 2.5).max(0.005)));
    v
}

/// FNV-1a 64 of the stdout up to the wall-clock footer.
pub fn digest(stdout: &str) -> String {
    let body = stdout.split("\n--- wall clock ---").next().unwrap_or("");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in body.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Fills a fresh cache at `dir` with every graph of `artifacts()` and
/// reloads each once. Returns (generate, reload) seconds.
pub fn fill_cache(spans: &Spans, dir: &Path, seed: u64) -> (f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let cache = GraphCache::at(dir);
    let (_, gen_s) = spans.time("gen.generate", || {
        for (ds, scale) in artifacts() {
            cache.load_or_generate(ds, scale, seed);
        }
    });
    let (_, load_s) = spans.time("gen.cache_load", || {
        for (ds, scale) in artifacts() {
            cache.load_or_generate(ds, scale, seed);
        }
    });
    (gen_s, load_s)
}

/// Result of one `repro all` run.
pub struct ReproRun {
    pub wall_s: f64,
    pub stdout: String,
}

/// Runs `repro all` on the filled cache with a fresh output directory;
/// `metrics` adds `--metrics` and `--trace` files.
pub fn repro_all(
    args: &Args,
    cache: &Path,
    out_dir: &Path,
    seed: u64,
    metrics: Option<(&Path, &Path)>,
) -> Result<ReproRun, String> {
    let _ = std::fs::remove_dir_all(out_dir);
    let mut cmd = Command::new(&args.repro);
    cmd.args([
        "--scale",
        &SCALE.to_string(),
        "--sources",
        &SOURCES.to_string(),
    ])
    .args(["--tmax", &TMAX.to_string(), "--seed", &seed.to_string()])
    .arg("--cache-dir")
    .arg(cache)
    .arg("--out-dir")
    .arg(out_dir)
    .arg("--quiet");
    if let Some((m, t)) = metrics {
        cmd.arg("--metrics").arg(m).arg("--trace").arg(t);
    }
    cmd.arg("all").stdin(Stdio::null()).stderr(Stdio::inherit());
    let t = Instant::now();
    let output = cmd
        .output()
        .map_err(|e| format!("running {}: {e}", args.repro.display()))?;
    let wall_s = t.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("repro all exited with {}", output.status));
    }
    Ok(ReproRun {
        wall_s,
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
    })
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest peak resident set of any waited-for child, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a properly aligned, writable `struct rusage`
    // (two timevals, then fourteen longs on 64-bit Linux), and
    // getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

fn check_digest(out: &mut Out, stdout: &str) {
    let d = digest(stdout);
    out.op(
        d == REFERENCE_DIGEST,
        &format!("repro stdout digest {d} vs reference {REFERENCE_DIGEST}"),
    );
}

/// Reads a `repro --metrics` manifest.
fn manifest(path: &Path) -> Result<socmix_obs::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    socmix_obs::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn manifest_counter(m: &socmix_obs::Value, name: &str) -> f64 {
    m.get("metrics")
        .and_then(|x| x.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(socmix_obs::Value::as_f64)
        .unwrap_or(0.0)
}

/// The pipeline rungs from a traced `repro all`: per-stage seconds,
/// mean DAG task wait and cache hits. Checks the set-up left nothing
/// for the run to generate.
fn pipeline_metrics(out: &mut Out, m: &socmix_obs::Value) {
    let stages = m
        .get("stages")
        .and_then(socmix_obs::Value::as_arr)
        .unwrap_or(&[]);
    for name in STAGES {
        let s = stages
            .iter()
            .find(|s| s.get("name").and_then(socmix_obs::Value::as_str) == Some(name))
            .and_then(|s| s.get("seconds"))
            .and_then(socmix_obs::Value::as_f64);
        out.op(s.is_some(), &format!("manifest has stage {name}"));
        out.metric(&format!("stage.{name}_s"), s.unwrap_or(0.0), "s");
    }
    let wait = m
        .get("metrics")
        .and_then(|x| x.get("histograms"))
        .and_then(|h| h.get("dag.task_wait_ns"))
        .and_then(|h| h.get("mean"))
        .and_then(socmix_obs::Value::as_f64)
        .unwrap_or(0.0);
    out.metric("dag.task_wait_ms", wait / 1e6, "ms");
    out.metric(
        "gen.cache.hit",
        manifest_counter(m, "gen.cache.hit"),
        "count",
    );
    let miss = manifest_counter(m, "gen.cache.miss");
    out.op(
        miss == 0.0,
        &format!("set-up filled the cache ({miss} misses in the run)"),
    );
}

/// The pipeline rungs for a traced run of another workload: fill a
/// cache and run `repro all` once with `--metrics`.
pub fn stages(args: &Args, out: &mut Out, spans: &Spans) -> Result<(), String> {
    let seed = crate::GRAPH_SEED;
    let cache = args.work.join("ladder-repro-cache");
    fill_cache(spans, &cache, seed);
    let (m, t) = (
        args.work.join("ladder-repro-metrics.json"),
        args.work.join("ladder-repro-trace.json"),
    );
    let (run, _) = spans.time("bench.repro_all", || {
        repro_all(
            args,
            &cache,
            &args.work.join("ladder-repro-out"),
            seed,
            Some((&m, &t)),
        )
    });
    check_digest(out, &run?.stdout);
    pipeline_metrics(out, &manifest(&m)?);
    Ok(())
}

/// Stages whose time is the pipeline's time to µ: Table 1 and the
/// Fig. 1–2 bounds.
pub const SLEM_STAGES: [&str; 3] = ["table1", "fig1", "fig2"];
/// Stages whose time is the pipeline's sampled TVD curves: Fig. 3–7
/// (the physics graphs, DBLP trimming, BFS samples).
pub const SAMPLING_STAGES: [&str; 5] = ["fig3", "fig4", "fig5", "fig6", "fig7"];

/// Per-stage seconds from the wall-clock footer `repro all` prints.
pub fn footer_seconds(stdout: &str) -> Vec<(String, f64)> {
    let Some((_, footer)) = stdout.split_once("\n--- wall clock ---\n") else {
        return Vec::new();
    };
    footer
        .lines()
        .filter_map(|l| {
            let (name, secs) = l.split_once(char::is_whitespace)?;
            Some((
                name.to_string(),
                secs.trim().strip_suffix('s')?.parse().ok()?,
            ))
        })
        .collect()
}

/// Sum of the footer seconds of `names`; `None` when one is missing.
fn stage_sum(stages: &[(String, f64)], names: &[&str]) -> Option<f64> {
    names
        .iter()
        .map(|n| stages.iter().find(|(s, _)| s == n).map(|&(_, v)| v))
        .sum()
}

pub fn run(args: &Args, out: &mut Out) -> Result<(), String> {
    let spans = Spans::new(args.trace);
    layers::telemetry(false);
    let gseed = crate::GRAPH_SEED;
    println!(
        "# repro-small: repro all --scale {SCALE} --sources {SOURCES} --tmax {TMAX} --seed {gseed}"
    );
    let mut setups = Vec::new();
    let (mut gens, mut loads) = (Vec::new(), Vec::new());
    let cache = args.work.join("repro-cache");
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (g, l) = fill_cache(&spans, &cache, gseed);
        setups.push(t.elapsed().as_secs_f64());
        gens.push(g);
        loads.push(l);
    }
    let out_dir = args.work.join("repro-out");

    // Timed region: `repro all` while the next run fits the budget.
    let (mut walls, mut slem, mut sampling) = (Vec::new(), Vec::new(), Vec::new());
    let budget = Instant::now();
    // A traced run times one run untraced, as the base of the overhead.
    let min_runs = if args.trace { 1 } else { MIN_RUNS };
    let budget_s = if args.trace { 0.0 } else { args.seconds };
    while another(
        walls.len(),
        min_runs,
        budget.elapsed().as_secs_f64(),
        walls.last().copied().unwrap_or(0.0),
        budget_s,
    ) {
        let (run, _) = spans.time("bench.repro_all", || {
            repro_all(args, &cache, &out_dir, gseed, None)
        });
        let run = run?;
        walls.push(run.wall_s);
        check_digest(out, &run.stdout);
        let stages = footer_seconds(&run.stdout);
        out.op(
            stages.len() == STAGES.len() + 1,
            "footer lists every stage and the total",
        );
        slem.extend(stage_sum(&stages, &SLEM_STAGES));
        sampling.extend(stage_sum(&stages, &SAMPLING_STAGES));
    }
    if slem.is_empty() || sampling.is_empty() {
        return Err("repro all printed no stage times".to_string());
    }
    let med = |v: &[f64]| median(v).expect("non-empty");
    if !args.trace {
        out.metric("setup_s", med(&setups), "s");
        out.metric("slem_s", med(&slem), "s");
        out.metric("wall_s", med(&walls), "s");
        out.info("sampling_s", med(&sampling), "s");
        out.metric(
            "peak_rss_mb",
            children_peak_rss_mb().max(crate::peak_rss_mb()),
            "MiB",
        );
        return Ok(());
    }

    layers::telemetry(true);
    let (m, t) = (
        args.work.join("repro-metrics.json"),
        args.work.join("repro-trace.json"),
    );
    let (run, _) = spans.iteration("workload.repro-small", 1, || {
        spans
            .time("bench.repro_all", || {
                repro_all(args, &cache, &out_dir, gseed, Some((&m, &t)))
            })
            .0
    });
    let run = run?;
    check_digest(out, &run.stdout);
    out.metric(
        "obs.trace_overhead_frac",
        run.wall_s / med(&walls) - 1.0,
        "1",
    );
    let man = manifest(&m)?;
    pipeline_metrics(out, &man);
    // The pool and probe counters of the pipeline process itself.
    layers::job_counters(out, |name| manifest_counter(&man, name));
    out.metric("gen.generate_s", med(&gens), "s");
    out.metric("gen.cache_load_s", med(&loads), "s");
    let g = GraphCache::at(&cache).load_or_generate(Dataset::FacebookA, SCALE, gseed);
    core_layer(out, &spans, &g, args.seed);
    crate::ladder(args, out, &spans, &g, TMAX)?;
    layers::report(
        out,
        &spans,
        "workload.repro-small",
        &args.work.join("trace-repro-small.json"),
    );
    Ok(())
}

/// Direct `core` calls, which the `repro` process makes out of reach:
/// µ and a 32-source, 100-step probe on `g`.
fn core_layer(out: &mut Out, spans: &Spans, g: &socmix_graph::Graph, seed: u64) {
    let (est, s) = spans.time("core.slem", || {
        socmix_core::Slem::auto(g).seed(seed).estimate()
    });
    out.op(est.is_ok(), "core slem");
    out.metric("core.slem_s", s, "s");
    let (r, s) = spans.time("core.probe", || {
        socmix_core::MixingProbe::new(g)
            .auto_kernel()
            .probe_random_sources(32, 100, seed)
    });
    std::hint::black_box(r);
    out.metric("core.probe_s", s, "s");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footer_parses_and_sums() {
        let stdout = "table\nrows\n\n--- wall clock ---\ntable1              4.61s\nfig1                0.11s\nfig2                6.22s\nwhanau              0.00s\ntotal              19.08s\n";
        let stages = footer_seconds(stdout);
        assert_eq!(stages.len(), 5);
        assert_eq!(stages[3], ("whanau".to_string(), 0.0));
        let slem = stage_sum(&stages, &SLEM_STAGES).unwrap();
        assert!((slem - 10.94).abs() < 1e-9);
        assert_eq!(stage_sum(&stages, &SAMPLING_STAGES), None);
        assert_eq!(
            digest(stdout),
            digest("table\nrows\n\n--- wall clock ---\nother")
        );
        assert!(footer_seconds("no footer").is_empty());
    }
}
