//! Open-loop load for the serve rungs: a seeded Poisson schedule of
//! requests, replayed over at most two keep-alive HTTP connections by
//! at most two threads. Latency is timed from each request's due time,
//! so a stall also charges the requests queued behind it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Connections (and threads) the generator uses.
pub const CONNECTIONS: usize = 2;

/// One HTTP request of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub method: &'static str,
    pub target: String,
    pub body: String,
    pub kind: Kind,
}

/// What a request asks for; the checks recompute it directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Escape {
        graph: usize,
        node: u64,
        w: usize,
    },
    Mix {
        graph: usize,
        eps: f64,
    },
    Admit {
        graph: usize,
        verifier: u64,
        suspects: Vec<u64>,
    },
    Load,
    Evict,
}

/// The resident graphs requests may name: slug and honest-node count.
pub struct Target {
    pub slug: String,
    pub honest: u64,
    /// Honest plus Sybil nodes: the valid suspect ids.
    pub nodes: u64,
}

/// The request mix: about 75% `/escape`, 20% `/mix`, 4% `/admit`, 1%
/// `/load` or `/evict` of a graph no query reads (alternating).
pub struct Mix<'a> {
    pub graphs: &'a [Target],
    /// Index into `graphs` of the graph `/admit` judges on.
    pub admit_graph: usize,
    pub eps_grid: &'a [f64],
    /// `(slug, scale, seed)` of the graph `/load` and `/evict` cycle.
    pub churn: (&'a str, f64, u64),
}

impl Mix<'_> {
    fn draw(&self, rng: &mut StdRng, loaded: &mut bool) -> Request {
        let u: f64 = rng.random();
        let g = rng.random_range(0..self.graphs.len());
        let slug = &self.graphs[g].slug;
        if u < 0.75 {
            let node = rng.random_range(0..self.graphs[g].honest);
            let w = if rng.random_bool(0.5) { 16 } else { 64 };
            get(
                format!("/escape?graph={slug}&node={node}&w={w}"),
                Kind::Escape { graph: g, node, w },
            )
        } else if u < 0.95 {
            let eps = self.eps_grid[rng.random_range(0..self.eps_grid.len())];
            get(
                format!("/mix?graph={slug}&eps={eps}"),
                Kind::Mix { graph: g, eps },
            )
        } else if u < 0.99 {
            let t = &self.graphs[self.admit_graph];
            let verifier = rng.random_range(0..t.honest);
            let suspects: Vec<u64> = (0..3).map(|_| rng.random_range(0..t.nodes)).collect();
            let list: Vec<String> = suspects.iter().map(u64::to_string).collect();
            post(
                "/admit",
                format!(
                    "{{\"graph\":\"{}\",\"verifier\":{verifier},\"suspects\":[{}],\"w\":10}}",
                    t.slug,
                    list.join(",")
                ),
                Kind::Admit {
                    graph: self.admit_graph,
                    verifier,
                    suspects,
                },
            )
        } else {
            let (slug, scale, seed) = self.churn;
            *loaded = !*loaded;
            if *loaded {
                post(
                    "/load",
                    format!("{{\"graph\":\"{slug}\",\"scale\":{scale},\"seed\":{seed}}}"),
                    Kind::Load,
                )
            } else {
                post("/evict", format!("{{\"graph\":\"{slug}\"}}"), Kind::Evict)
            }
        }
    }
}

fn get(target: String, kind: Kind) -> Request {
    Request {
        method: "GET",
        target,
        body: String::new(),
        kind,
    }
}

fn post(target: &str, body: String, kind: Kind) -> Request {
    Request {
        method: "POST",
        target: target.to_string(),
        body,
        kind,
    }
}

/// A seeded Poisson schedule at `rate` requests per second: `count`
/// due offsets from the start, with the request due at each.
pub fn schedule(mix: &Mix<'_>, rate: f64, count: usize, seed: u64) -> Vec<(Duration, Request)> {
    let mut rng = StdRng::seed_from_u64(seed ^ rate.to_bits().rotate_left(17));
    let mut t = 0.0f64;
    let mut loaded = false;
    (0..count)
        .map(|_| {
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            (Duration::from_secs_f64(t), mix.draw(&mut rng, &mut loaded))
        })
        .collect()
}

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The server asked to close after its last answer.
    pub closed: bool,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            closed: false,
        })
    }

    /// Sends one request and reads the reply: (status, body).
    pub fn exchange(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let mut req = format!("{method} {target} HTTP/1.1\r\nHost: perfbench\r\n");
        if !body.is_empty() {
            req.push_str("Content-Type: application/json\r\n");
        }
        req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        self.writer.write_all(req.as_bytes())?;
        self.writer.flush()?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("headers cut short"));
            }
            let l = line.trim().to_ascii_lowercase();
            if l.is_empty() {
                break;
            }
            if let Some(v) = l.strip_prefix("content-length:") {
                len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
            if l == "connection: close" {
                close = true;
            }
        }
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        self.closed = close;
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }

    pub fn send(&mut self, r: &Request) -> std::io::Result<(u16, String)> {
        self.exchange(r.method, &r.target, &r.body)
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Status code (0 when the exchange itself failed).
    pub status: u16,
    /// Milliseconds from due time to the complete answer.
    pub latency_ms: f64,
    /// Milliseconds from due time to the send.
    pub late_ms: f64,
    /// The body, kept only for requests picked for checking.
    pub body: Option<String>,
}

/// Replays `sched` open-loop over [`CONNECTIONS`] connections: each
/// thread takes the next request in order, waits for its due time
/// when early, sends it, and reads the answer. Keeps the bodies of
/// requests whose index satisfies `keep`. Returns the outcomes in
/// schedule order and the wall time from start to the last answer.
pub fn run_open(
    addr: SocketAddr,
    sched: &[(Duration, Request)],
    keep: impl Fn(usize) -> bool + Sync,
) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![Outcome::default(); sched.len()]);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut conn = Conn::open(addr).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((due, req)) = sched.get(i) else {
                        break;
                    };
                    let due = start + *due;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    if conn.is_none() {
                        conn = Conn::open(addr).ok();
                    }
                    let res = match conn.as_mut() {
                        Some(c) => c.send(req),
                        None => Err(std::io::Error::other("connect failed")),
                    };
                    let done = Instant::now();
                    if conn.as_ref().is_some_and(|c| c.closed) {
                        conn = None;
                    }
                    let (status, body) = match res {
                        Ok(x) => x,
                        Err(_) => {
                            conn = None;
                            (0, String::new())
                        }
                    };
                    let o = Outcome {
                        status,
                        latency_ms: (done - due).as_secs_f64() * 1e3,
                        late_ms: (sent.saturating_duration_since(due)).as_secs_f64() * 1e3,
                        body: keep(i).then_some(body),
                    };
                    out.lock().expect("outcome lock poisoned")[i] = o;
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (out.into_inner().expect("outcome lock poisoned"), wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_fixture(graphs: &[Target]) -> Mix<'_> {
        Mix {
            graphs,
            admit_graph: 1,
            eps_grid: &[0.25, 0.01, 1e-5],
            churn: ("wiki-vote", 0.05, 3),
        }
    }

    fn targets() -> Vec<Target> {
        vec![
            Target {
                slug: "facebook".into(),
                honest: 3000,
                nodes: 3150,
            },
            Target {
                slug: "enron".into(),
                honest: 1600,
                nodes: 1680,
            },
        ]
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let t = targets();
        let mix = mix_fixture(&t);
        let a = schedule(&mix, 100.0, 500, 7);
        let b = schedule(&mix, 100.0, 500, 7);
        assert_eq!(a, b);
        let c = schedule(&mix, 100.0, 500, 8);
        assert_ne!(a, c);
        // the two rates of one seed are independent streams
        let d = schedule(&mix, 200.0, 500, 7);
        assert_ne!(a[0].1, d[0].1);
    }

    #[test]
    fn schedule_has_the_stated_rate_and_mix() {
        let t = targets();
        let mix = mix_fixture(&t);
        let s = schedule(&mix, 250.0, 20_000, 1);
        let span = s.last().unwrap().0.as_secs_f64();
        let rate = s.len() as f64 / span;
        assert!((rate - 250.0).abs() < 10.0, "{rate}");
        let share = |f: fn(&Kind) -> bool| {
            s.iter().filter(|(_, r)| f(&r.kind)).count() as f64 / s.len() as f64
        };
        assert!((share(|k| matches!(k, Kind::Escape { .. })) - 0.75).abs() < 0.02);
        assert!((share(|k| matches!(k, Kind::Mix { .. })) - 0.20).abs() < 0.02);
        assert!((share(|k| matches!(k, Kind::Admit { .. })) - 0.04).abs() < 0.01);
        // load and evict alternate, starting with a load
        let churn: Vec<&Kind> = s
            .iter()
            .map(|(_, r)| &r.kind)
            .filter(|k| matches!(k, Kind::Load | Kind::Evict))
            .collect();
        assert!(churn.len() > 100);
        for (i, k) in churn.iter().enumerate() {
            assert_eq!(matches!(k, Kind::Load), i % 2 == 0);
        }
    }
}
