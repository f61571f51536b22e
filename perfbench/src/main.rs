//! `socmix-perfbench` — the repository benchmark.
//!
//! ```text
//! socmix-perfbench --workload <paper-100k|repro-small>
//!                  --seed N --seconds S --trace <0|1>
//!                  --repro PATH --work DIR --spec BENCHMARK.json
//! ```
//!
//! `run.py` builds this package and the `repro` binary, then runs this
//! program with the three extra paths. Every end-to-end metric is
//! printed as a `metric` line with its unit, every output check runs,
//! and the last line of stdout is the JSON result. With `--trace 1`
//! the run reports the per-layer metrics instead (see `README.md`).

mod layers;
mod loadgen;
mod paper;
mod repro;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repro: PathBuf,
    pub work: PathBuf,
    pub spec: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut repro, mut work) =
        (None, None, None, None, None, None);
    let mut spec = None;
    while let Some(flag) = a.next() {
        let v = a.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed {v:?}"))?),
            "--seconds" => {
                seconds = Some(
                    v.parse::<f64>()
                        .map_err(|_| format!("bad --seconds {v:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v:?}")),
                })
            }
            "--repro" => repro = Some(PathBuf::from(v)),
            "--work" => work = Some(PathBuf::from(v)),
            "--spec" => spec = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1.0),
        trace: trace.ok_or("--trace is required")?,
        repro: repro.ok_or("--repro is required")?,
        work: work.ok_or("--work is required")?,
        spec: spec.ok_or("--spec is required")?,
    })
}

/// Metrics, operation counts and check results of one run.
#[derive(Default)]
pub struct Out {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Out {
    /// Records a metric and prints it as a `metric` line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name:<32} {value:>14.6} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints a metric line that is reported but not gated, so not
    /// part of the JSON result.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name:<32} {value:>14.6} {unit}  (printed, not gated)");
    }

    /// A metric recorded earlier in this run.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Counts one operation; a failed one is reported on stderr.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Seed of every generated graph (the `repro` default). The benchmark
/// seed varies the start vectors, probe sources, query choices and
/// arrival times instead: those change the answers but not the amount
/// of work, while the graph seed changes it a lot (the eight Facebook A
/// graphs of seeds 0 to 7 take 150 to 230 Lanczos steps). The timed
/// runs of repro-small use no benchmark seed: their stdout must match
/// one stored digest.
pub const GRAPH_SEED: u64 = 7;

/// The metric names `BENCHMARK.json` declares for a run: its
/// `per_layer` list for a traced run, else its `end_to_end` list.
fn declared(spec: &std::path::Path, trace: bool) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("cannot read {}: {e}", spec.display()))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    socmix_obs::parse(&text)?
        .get(key)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("{} has no {key} list", spec.display()))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("a {key} entry has no name"))
        })
        .collect()
}

/// The layer ladder every traced run climbs on its workload's main
/// graph `g`: L0 memory probe, `linalg`, `markov`, `par`, `serve` and
/// `sybil`, and (except on repro-small, which measures them itself)
/// the pipeline stages.
pub fn ladder(
    args: &Args,
    out: &mut Out,
    spans: &spans::Spans,
    g: &socmix_graph::Graph,
    t_max: usize,
) -> Result<(), String> {
    let (_, triad) = spans.time("mem.stream", || layers::stream(out)).0;
    layers::linalg(out, spans, g, args.seed, triad);
    let kind = socmix_core::MixingProbe::new(g).auto_kernel().walk_kind();
    layers::markov(out, spans, g, kind, t_max);
    layers::par(out, spans);
    serve::ladder(args, out, spans)?;
    if args.workload != "repro-small" {
        repro::stages(args, out, spans)?;
    }
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    if args.trace {
        socmix_obs::set_metrics_enabled(true);
        socmix_obs::set_trace_enabled(true);
    }
    // The result must carry exactly the metrics the benchmark declares.
    let mut want = match declared(&args.spec, args.trace) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Out::default();
    println!(
        "# workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        socmix_par::num_threads()
    );
    let res = match args.workload.as_str() {
        "paper-100k" => paper::run(&args, &mut out),
        "repro-small" => repro::run(&args, &mut out),
        w => Err(format!("unknown workload {w:?}")),
    };
    if let Err(e) = res {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let mut got: Vec<String> = out.metrics.iter().map(|(n, _, _)| n.clone()).collect();
    want.sort();
    got.sort();
    if want != got {
        let missing: Vec<&String> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<&String> = got.iter().filter(|n| !want.contains(n)).collect();
        eprintln!("error: metric set mismatch: missing {missing:?}, unexpected {extra:?}");
        std::process::exit(1);
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.info("failed_frac", failed_frac, "1");
    println!("{}", out.json());
}
