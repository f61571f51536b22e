//! The `serve` rungs of every traced run's layer ladder: one
//! in-process `Server` at its default configuration (HTTP only) with
//! `facebook` and `enron` resident at scale 0.05, measured over one
//! closed-loop connection and driven by an open loop of seeded Poisson
//! arrivals at two fixed rates, plus the `max_rps` search.

use crate::layers::counter;
use crate::loadgen::{self, Conn, Kind, Mix, Outcome, Request, Target};
use crate::spans::Spans;
use crate::stats::{median, percentile, samples_needed};
use crate::{Args, Out, GRAPH_SEED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socmix_gen::{Dataset, GraphCache};
use socmix_obs::HistogramSnapshot;
use socmix_par::Pool;
use socmix_serve::{queries, Catalog, LoadedGraph, ServeConfig, Server};
use socmix_sybil::{SybilLimit, SybilLimitParams};
use std::net::SocketAddr;
use std::sync::Arc;

pub const SCALE: f64 = 0.05;
/// Resident graphs; `/admit` judges on the second.
pub const RESIDENT: [Dataset; 2] = [Dataset::Facebook, Dataset::Enron];
/// The graph `/load` and `/evict` cycle; no query reads it.
pub const CHURN: Dataset = Dataset::WikiVote;
/// The two fixed open-loop rates, requests per second.
pub const LOW_RPS: f64 = 100.0;
pub const HIGH_RPS: f64 = 200.0;
/// `max_rps` searches this geometric ladder upward from `HIGH_RPS`.
pub const LADDER_STEP: f64 = std::f64::consts::SQRT_2;
pub const LADDER_RUNGS: usize = 4;
/// The latency limit a ladder rung must meet at p99.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Every `CHECK_EVERY`-th open-loop answer is recomputed directly.
pub const CHECK_EVERY: usize = 10;

fn slug(ds: Dataset) -> String {
    socmix_serve::catalog::slug(ds.name())
}

/// A running server with its graphs resident and the ε grid cached,
/// plus a catalog over the same cache for computing reference answers.
pub struct Ctx {
    server: Option<Server>,
    pub addr: SocketAddr,
    pub graphs: Vec<Arc<LoadedGraph>>,
    pub targets: Vec<Target>,
    pub grid: Vec<f64>,
    pub seed: u64,
    /// Slug of the `CHURN` graph.
    churn: String,
    pool: Pool,
}

impl Drop for Ctx {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

fn expect_ok(out: &mut Out, res: std::io::Result<(u16, String)>, what: &str) -> Option<String> {
    match res {
        Ok((200, body)) => {
            out.op(true, what);
            Some(body)
        }
        Ok((status, body)) => {
            out.op(false, &format!("{what}: status {status}: {body}"));
            None
        }
        Err(e) => {
            out.op(false, &format!("{what}: {e}"));
            None
        }
    }
}

/// Generates the graphs into a fresh cache, reloads them, starts the
/// server, preloads the resident graphs and touches the whole ε grid.
pub fn setup(
    out: &mut Out,
    spans: &Spans,
    dir: &std::path::Path,
    seed: u64,
) -> Result<Ctx, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = GraphCache::at(dir);
    let all = [RESIDENT[0], RESIDENT[1], CHURN];
    spans.time("gen.generate", || {
        for ds in all {
            cache.load_or_generate(ds, SCALE, GRAPH_SEED);
        }
    });
    spans.time("gen.cache_load", || {
        for ds in all {
            cache.load_or_generate(ds, SCALE, GRAPH_SEED);
        }
    });
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, dir).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let catalog = Catalog::at(dir);
    let mut ctx = Ctx {
        server: Some(server),
        addr,
        graphs: Vec::new(),
        targets: Vec::new(),
        grid: socmix_core::bounds::epsilon_grid(0.25, 1e-5, 2),
        seed,
        churn: slug(CHURN),
        pool: Pool::new(),
    };
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    for ds in RESIDENT {
        let s = slug(ds);
        let body = format!("{{\"graph\":\"{s}\",\"scale\":{SCALE},\"seed\":{GRAPH_SEED}}}");
        let what = format!("preload {s}");
        expect_ok(
            out,
            spans
                .time("serve.load", || conn.exchange("POST", "/load", &body))
                .0,
            &what,
        );
        let lg = catalog.load(&s, SCALE, GRAPH_SEED)?;
        ctx.targets.push(Target {
            slug: s,
            honest: lg.attacked.honest as u64,
            nodes: lg.attacked.graph.num_nodes() as u64,
        });
        ctx.graphs.push(lg);
    }
    for ti in 0..ctx.targets.len() {
        for &eps in &ctx.grid.clone() {
            let target = format!("/mix?graph={}&eps={eps}", ctx.targets[ti].slug);
            let (res, _) = spans.time("serve.mix_miss", || conn.exchange("GET", &target, ""));
            if let Some(body) = expect_ok(out, res, &target) {
                ctx.check_mix(out, ti, eps, &body);
            }
        }
    }
    Ok(ctx)
}

impl Ctx {
    fn mix(&self) -> Mix<'_> {
        Mix {
            graphs: &self.targets,
            admit_graph: 1,
            eps_grid: &self.grid,
            churn: (&self.churn, SCALE, GRAPH_SEED),
        }
    }

    fn check_mix(&self, out: &mut Out, g: usize, eps: f64, body: &str) {
        let direct = queries::mix(&self.graphs[g], eps, self.pool);
        out.op(
            direct.as_deref() == Ok(body),
            &format!(
                "/mix {} eps {eps} body equals queries::mix",
                self.targets[g].slug
            ),
        );
    }

    fn check_escape(&self, out: &mut Out, g: usize, node: u64, w: usize, body: &str) {
        let lg = &self.graphs[g];
        let direct = queries::escape_batch(lg, &[node], w, self.pool)
            .map(|p| queries::render_escape(lg, node, w, p[0]));
        out.op(
            direct.as_deref() == Ok(body),
            &format!(
                "/escape {} node {node} w {w} body equals escape_batch",
                self.targets[g].slug
            ),
        );
    }

    /// Recomputes a kept answer directly and compares the bytes.
    fn check(&self, out: &mut Out, req: &Request, body: &str) {
        match &req.kind {
            Kind::Escape { graph, node, w } => self.check_escape(out, *graph, *node, *w, body),
            Kind::Mix { graph, eps } => self.check_mix(out, *graph, *eps, body),
            Kind::Admit {
                graph,
                verifier,
                suspects,
            } => {
                let direct =
                    queries::admit(&self.graphs[*graph], *verifier, suspects, 10, self.pool);
                out.op(
                    direct.as_deref() == Ok(body),
                    "/admit body equals queries::admit",
                );
            }
            Kind::Load | Kind::Evict => {}
        }
    }

    /// One open-loop phase at `rate`: enough requests for a p99 with
    /// ten samples beyond it.
    fn phase(&self, out: &mut Out, rate: f64, stream: u64) -> Phase {
        let count = samples_needed(0.99);
        let sched = loadgen::schedule(&self.mix(), rate, count, self.seed ^ stream);
        let h0 = hist(&socmix_obs::snapshot(), "serve.request_ns");
        let (outcomes, wall_s) = loadgen::run_open(self.addr, &sched, |i| i % CHECK_EVERY == 0);
        let h1 = hist(&socmix_obs::snapshot(), "serve.request_ns");
        for ((_, req), o) in sched.iter().zip(&outcomes) {
            let ok = o.status == 200;
            out.op(
                ok,
                &format!("{} {} -> status {}", req.method, req.target, o.status),
            );
            if let (true, Some(body)) = (ok, &o.body) {
                self.check(out, req, body);
            }
        }
        let mut p = Phase::new(rate, &outcomes, wall_s);
        p.server_p50_ms = server_p50_ms(&h0, &h1);
        p
    }
}

/// Per-rate results of an open-loop phase.
pub struct Phase {
    pub rate: f64,
    pub sent: usize,
    pub ok: usize,
    pub shed: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub late_p99_ms: f64,
    /// Median lateness of the last quarter minus the first quarter.
    pub late_growth_ms: f64,
    pub wall_s: f64,
    /// Server-side median of `serve.request_ns` over the phase.
    pub server_p50_ms: f64,
}

impl Phase {
    fn new(rate: f64, outcomes: &[Outcome], wall_s: f64) -> Phase {
        // A failed or shed request misses any latency limit.
        let latencies: Vec<f64> = outcomes
            .iter()
            .map(|o| {
                if o.status == 200 {
                    o.latency_ms
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let late: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
        let q = late.len() / 4;
        let growth =
            median(&late[late.len() - q..]).unwrap_or(0.0) - median(&late[..q]).unwrap_or(0.0);
        let ok = outcomes.iter().filter(|o| o.status == 200).count();
        let shed = outcomes.iter().filter(|o| o.status == 503).count();
        Phase {
            rate,
            sent: outcomes.len(),
            ok,
            shed,
            failed: outcomes.len() - ok - shed,
            p50_ms: median(&latencies).unwrap_or(f64::INFINITY),
            p99_ms: percentile(&latencies, 0.99).unwrap_or(f64::INFINITY),
            late_p99_ms: percentile(&late, 0.99).unwrap_or(f64::INFINITY),
            late_growth_ms: growth,
            wall_s,
            server_p50_ms: 0.0,
        }
    }

    /// Meets the limit: p99 within it and no growing backlog.
    fn passes(&self) -> bool {
        self.p99_ms <= P99_LIMIT_MS && self.late_growth_ms < 10.0
    }

    fn print(&self, label: &str) {
        println!(
            "# open loop {label:<5} {:>7.1} rps: sent {} ok {} failed {} shed {}  p50 {:.3} ms  p99 {:.3} ms  late p99 {:.3} ms  late growth {:.3} ms  wall {:.2} s",
            self.rate, self.sent, self.ok, self.failed, self.shed, self.p50_ms, self.p99_ms,
            self.late_p99_ms, self.late_growth_ms, self.wall_s
        );
    }
}

/// Both fixed-rate open-loop phases and the `max_rps` search, printed
/// with their per-rate counts. Returns the (low, high) phases.
pub fn rates(ctx: &Ctx, out: &mut Out) -> (Phase, Phase) {
    let low = ctx.phase(out, LOW_RPS, 1);
    low.print("low");
    let high = ctx.phase(out, HIGH_RPS, 2);
    high.print("high");
    // The ladder is LOW_RPS * LADDER_STEP^k, so HIGH_RPS is rung 2.
    // Walk up from the highest passing fixed rate until a rung fails.
    let (mut best, mut next) = if high.passes() {
        (HIGH_RPS, 3)
    } else if low.passes() {
        (LOW_RPS, 1)
    } else {
        (0.0, LADDER_RUNGS + 1)
    };
    // rung 2 is the high rate, already run (and failed if reached here)
    while next <= LADDER_RUNGS && next != 2 {
        let rate = LOW_RPS * LADDER_STEP.powi(next as i32);
        let p = ctx.phase(out, rate, 10 + next as u64);
        p.print("rung");
        if !p.passes() {
            break;
        }
        best = rate;
        next += 1;
    }
    out.info("p50_ms.low", low.p50_ms, "ms");
    out.info("p99_ms.low", low.p99_ms, "ms");
    out.info("p50_ms.high", high.p50_ms, "ms");
    out.info("p99_ms.high", high.p99_ms, "ms");
    out.info("max_rps", best, "1/s");
    (low, high)
}

/// Median of the server's `serve.request_ns` histogram between two
/// snapshots, in ms (bucket resolution: within 2x).
fn server_p50_ms(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    let d = HistogramSnapshot {
        name: after.name.clone(),
        count: after.count - before.count,
        sum: after.sum - before.sum,
        max: after.max,
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a - b)
            .collect(),
    };
    d.quantile(0.5) as f64 / 1e6
}

fn hist(s: &socmix_obs::MetricsSnapshot, name: &str) -> HistogramSnapshot {
    s.hist(name).cloned().unwrap_or(HistogramSnapshot {
        name: name.to_string(),
        count: 0,
        sum: 0,
        max: 0,
        buckets: vec![0; socmix_obs::BUCKETS],
    })
}

/// Sends `reqs` one at a time over `conn`; median milliseconds.
fn closed_loop(
    out: &mut Out,
    spans: &Spans,
    conn: &mut Conn,
    name: &str,
    reqs: &[(&str, String, String)],
) -> f64 {
    let ms: Vec<f64> = reqs
        .iter()
        .map(|(method, target, body)| {
            let (res, s) = spans.time(name, || conn.exchange(method, target, body));
            expect_ok(out, res, target);
            s * 1e3
        })
        .collect();
    median(&ms).expect("at least one request")
}

/// The `serve` and `sybil` rungs of the layer ladder: closed-loop
/// service times over one connection, the HTTP overhead over a direct
/// call, the server's own counters, and one open-loop phase for queue
/// wait and generator lateness, on a server of its own.
pub fn ladder(args: &Args, out: &mut Out, spans: &Spans) -> Result<(), String> {
    let ctx = &setup(out, spans, &args.work.join("ladder-serve-cache"), args.seed)?;
    let before = socmix_obs::snapshot();
    let mut conn = Conn::open(ctx.addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x1add);
    let (fb, en) = (&ctx.targets[0], &ctx.targets[1]);
    let get = |target: String| ("GET", target, String::new());
    for w in [16usize, 64] {
        let reqs: Vec<_> = (0..200)
            .map(|_| {
                let node = rng.random_range(0..fb.honest);
                get(format!("/escape?graph={}&node={node}&w={w}", fb.slug))
            })
            .collect();
        let v = closed_loop(out, spans, &mut conn, &format!("serve.escape.w{w}"), &reqs);
        out.metric(&format!("serve.escape_ms.w{w}"), v, "ms");
    }
    let reqs: Vec<_> = (0..200)
        .map(|_| {
            let eps = ctx.grid[rng.random_range(0..ctx.grid.len())];
            get(format!("/mix?graph={}&eps={eps}", fb.slug))
        })
        .collect();
    let v = closed_loop(out, spans, &mut conn, "serve.mix_hit", &reqs);
    out.metric("serve.mix_hit_ms", v, "ms");
    // ε values off the grid: each one is a fresh SLEM solve
    let reqs: Vec<_> = (1..=5)
        .map(|k| {
            get(format!(
                "/mix?graph={}&eps={}",
                fb.slug,
                0.2 + f64::from(k) * 1e-4
            ))
        })
        .collect();
    let v = closed_loop(out, spans, &mut conn, "serve.mix_miss", &reqs);
    out.metric("serve.mix_miss_ms", v, "ms");
    let reqs: Vec<_> = (0..50)
        .map(|_| {
            let verifier = rng.random_range(0..en.honest);
            let sus: Vec<String> = (0..3)
                .map(|_| rng.random_range(0..en.nodes).to_string())
                .collect();
            let body = format!(
                "{{\"graph\":\"{}\",\"verifier\":{verifier},\"suspects\":[{}],\"w\":10}}",
                en.slug,
                sus.join(",")
            );
            ("POST", "/admit".to_string(), body)
        })
        .collect();
    let v = closed_loop(out, spans, &mut conn, "serve.admit", &reqs);
    out.metric("serve.admit_ms", v, "ms");
    let mut load_ms = Vec::new();
    for _ in 0..5 {
        let evict = format!("{{\"graph\":\"{}\"}}", ctx.churn);
        expect_ok(out, conn.exchange("POST", "/evict", &evict), "evict");
        let body = format!(
            "{{\"graph\":\"{}\",\"scale\":{SCALE},\"seed\":{GRAPH_SEED}}}",
            ctx.churn
        );
        let (res, s) = spans.time("serve.load", || conn.exchange("POST", "/load", &body));
        expect_ok(out, res, "load");
        load_ms.push(s * 1e3);
    }
    out.metric("serve.load_ms", median(&load_ms).expect("five loads"), "ms");

    // HTTP overhead: the same w=16 escape, direct.
    let lg = &ctx.graphs[0];
    let mut direct = Vec::new();
    for _ in 0..200 {
        let node = rng.random_range(0..fb.honest);
        let (_, s) = spans.time("serve.escape_batch", || {
            queries::escape_batch(lg, &[node], 16, ctx.pool)
        });
        direct.push(s * 1e3);
    }
    let http = out.value("serve.escape_ms.w16").unwrap_or(0.0);
    out.metric(
        "serve.http_overhead_ms",
        http - median(&direct).expect("200 calls"),
        "ms",
    );

    // sybil: verify_all on enron's attacked twin, as /admit runs it.
    let el = &ctx.graphs[1];
    let mut ms = Vec::new();
    for _ in 0..20 {
        let verifier = rng.random_range(0..en.honest) as u32;
        let sus: Vec<u32> = (0..3)
            .map(|_| rng.random_range(0..en.nodes) as u32)
            .collect();
        let params = SybilLimitParams {
            w: 10,
            seed: el.key,
            ..SybilLimitParams::default()
        };
        let (v, s) = spans.time("sybil.verify_all", || {
            SybilLimit::new(&el.attacked.graph, params)
                .pool(ctx.pool)
                .verify_all(verifier, &sus)
        });
        std::hint::black_box(v);
        ms.push(s * 1e3);
    }
    out.metric("sybil.verify_all_ms", median(&ms).expect("20 calls"), "ms");

    // Both fixed rates with counters on: queue wait and lateness at
    // the high rate, where queueing shows.
    let ((_, high), _) = spans.time("serve.open_loop", || rates(ctx, out));
    // client minus server median: time outside the handler (accept
    // queue, connection hand-off, parsing, the wire)
    out.metric(
        "serve.queue_wait_ms.p50",
        high.p50_ms - high.server_p50_ms,
        "ms",
    );
    out.metric("loadgen.late_ms.p99", high.late_p99_ms, "ms");
    let after = socmix_obs::snapshot();
    let width = hist(&after, "serve.batch_width");
    let width0 = hist(&before, "serve.batch_width");
    let batches = (width.count - width0.count).max(1) as f64;
    out.metric(
        "serve.batch_width.mean",
        (width.sum - width0.sum) as f64 / batches,
        "count",
    );
    let hits = counter(&after, "serve.cache.hit") - counter(&before, "serve.cache.hit");
    let misses = counter(&after, "serve.cache.miss") - counter(&before, "serve.cache.miss");
    out.metric(
        "serve.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "1",
    );
    out.metric(
        "serve.slem_solves",
        counter(&after, "serve.slem_solves") - counter(&before, "serve.slem_solves"),
        "count",
    );
    out.metric(
        "serve.shed",
        counter(&after, "serve.shed") - counter(&before, "serve.shed"),
        "count",
    );
    Ok(())
}
