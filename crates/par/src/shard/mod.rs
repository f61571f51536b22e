//! Sharded multi-process backend: worker process groups exchanging
//! partitioned matvec work over a zero-dependency message-passing
//! layer.
//!
//! The shared-memory pool in this crate parallelizes a matvec across
//! threads of one process; this module parallelizes it across
//! **processes**. The linear-algebra layer partitions the CSR graph,
//! hands each shard's rows to a worker process, and exchanges
//! boundary-vector slices every application round:
//!
//! - [`frame`]: the length-prefixed wire codec (1-byte opcode, u64
//!   length, payload) spoken over Unix domain sockets.
//! - `proc`: worker lifecycle — spawn (fork/exec of the current
//!   executable re-entered via the `shard-worker` subcommand),
//!   handshake, pipelined request rounds, death detection, teardown.
//! - `worker`: the serve loop running inside each worker process.
//!
//! The backend is selected by `SOCMIX_SHARDS=<n>` (parsed warn-once
//! like every other knob; `1` or unset means shared-memory). Binaries
//! that want to *host* workers must call [`worker_check`] first thing
//! in `main` — a parent whose binary lacks the hook gets a fast typed
//! spawn failure and operators fall back to the local kernels.
//!
//! Failure semantics: a worker death closes its socket; the next
//! exchange surfaces [`ShardError::WorkerDied`] and poisons the group
//! (mirroring the pool's panic poisoning), and the next
//! [`ShardGroup::obtain`] respawns it.

pub mod frame;
mod proc;
mod worker;

pub use proc::{ShardGroup, ShardSpec};

/// The `argv[1]` sentinel that re-enters a binary as a shard worker.
pub const WORKER_SUBCOMMAND: &str = "shard-worker";
/// Environment variable carrying the rendezvous socket path to the
/// spawned worker.
pub(crate) const SOCKET_ENV: &str = "SOCMIX_SHARD_SOCKET";
/// Environment variable carrying the worker's shard index.
pub(crate) const SHARD_ID_ENV: &str = "SOCMIX_SHARD_ID";
/// Environment variable carrying the group's shard count.
pub(crate) const SHARD_TOTAL_ENV: &str = "SOCMIX_SHARD_TOTAL";

/// Errors from the sharded backend. All variants identify the shard
/// involved so telemetry and retries can name the failing worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The worker process could not be spawned or never connected
    /// because it exited first.
    Spawn { shard: usize, message: String },
    /// The worker process neither connected nor exited before the
    /// handshake deadline.
    ConnectTimeout { shard: usize },
    /// The worker process died mid-job (closed-socket sentinel).
    WorkerDied { shard: usize },
    /// A previous round already poisoned the group; this round was
    /// refused without touching the sockets.
    GroupPoisoned { shards: usize },
    /// The worker rejected a request (fingerprint not loaded, shape
    /// mismatch, ...).
    Worker { shard: usize, message: String },
    /// The reply stream desynchronized from the protocol.
    Protocol { shard: usize, message: String },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Spawn { shard, message } => {
                write!(f, "shard {shard}: spawn failed: {message}")
            }
            ShardError::ConnectTimeout { shard } => {
                write!(f, "shard {shard}: worker never connected")
            }
            ShardError::WorkerDied { shard } => {
                write!(f, "shard {shard}: worker process died mid-job")
            }
            ShardError::GroupPoisoned { shards } => {
                write!(
                    f,
                    "shard group ({shards} workers) is poisoned by an earlier death"
                )
            }
            ShardError::Worker { shard, message } => {
                write!(f, "shard {shard}: worker error: {message}")
            }
            ShardError::Protocol { shard, message } => {
                write!(f, "shard {shard}: protocol error: {message}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Returns the configured shard count: `SOCMIX_SHARDS` if set and
/// valid, else `1` (shared-memory backend). Like `SOCMIX_THREADS`, an
/// invalid value (`0`, non-numeric) is ignored with a once-per-process
/// warning.
pub fn configured_shards() -> usize {
    shards_from_env(std::env::var("SOCMIX_SHARDS").ok().as_deref())
}

/// Resolves a raw `SOCMIX_SHARDS` value (`None` = unset). Split from
/// [`configured_shards`] so the rejection path is testable without
/// mutating the process environment.
fn shards_from_env(raw: Option<&str>) -> usize {
    if let Some(v) = raw {
        match parse_shards(v) {
            Some(n) => return n,
            None => socmix_obs::warn_once!(
                "shard",
                "ignoring invalid SOCMIX_SHARDS={v:?}: expected a positive integer, \
                 falling back to the shared-memory backend"
            ),
        }
    }
    1
}

/// A valid `SOCMIX_SHARDS` value is a positive integer.
fn parse_shards(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Re-enters the process as a shard worker if it was spawned as one.
///
/// Host binaries (the CLI, the repro driver, harness-free test and
/// bench binaries) must call this **first thing in `main`**: when
/// `argv[1]` is `shard-worker`, the function connects back to the
/// parent over `SOCMIX_SHARD_SOCKET`, serves frames until shutdown or
/// parent death, and exits the process. In the ordinary parent path it
/// returns immediately having done nothing.
pub fn worker_check() {
    if std::env::args().nth(1).as_deref() != Some(WORKER_SUBCOMMAND) {
        return;
    }
    std::process::exit(worker_entry());
}

/// The worker-mode body: resolves the rendezvous environment and runs
/// the serve loop. Separate from [`worker_check`] for testability.
fn worker_entry() -> i32 {
    let path = match std::env::var(SOCKET_ENV) {
        Ok(p) => p,
        Err(_) => {
            // socmix-lint: allow(bare-print): worker-mode process diagnostic — this branch runs only inside a spawned worker process, where stderr (inherited from the parent) is the only channel that outlives the exit below.
            eprintln!(
                "socmix shard-worker: {SOCKET_ENV} is not set; this subcommand is \
                 internal — it is spawned by the parent process, not run by hand"
            );
            return 2;
        }
    };
    let shard = std::env::var(SHARD_ID_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    // Workers always record telemetry: the parent only asks for a
    // snapshot when building a `--metrics` manifest, and the counters
    // here are a handful of relaxed atomics on an I/O-bound loop.
    socmix_obs::set_metrics_enabled(true);
    let stream = match std::os::unix::net::UnixStream::connect(&path) {
        Ok(s) => s,
        Err(e) => {
            // socmix-lint: allow(bare-print): worker-mode process diagnostic — see above.
            eprintln!("socmix shard-worker: cannot connect to {path}: {e}");
            return 1;
        }
    };
    let reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            // socmix-lint: allow(bare-print): worker-mode process diagnostic — see above.
            eprintln!("socmix shard-worker: cannot clone socket: {e}");
            return 1;
        }
    };
    worker::serve(reader, stream, shard)
}

/// Broadcasts a pipeline stage label to every live worker group
/// (best-effort telemetry; see [`ShardGroup::set_stage`]).
pub fn note_stage(label: &str) {
    for group in ShardGroup::live_groups() {
        group.set_stage(label);
    }
}

/// Collects per-worker telemetry snapshots from every live group as
/// `(shards_in_group, shard_index, json_text)` rows — the `--metrics`
/// manifest rolls these up next to the parent's own snapshot.
pub fn collect_snapshots() -> Vec<(usize, usize, String)> {
    let mut rows = Vec::new();
    for group in ShardGroup::live_groups() {
        for (shard, json) in group.snapshots() {
            rows.push((group.shards(), shard, json));
        }
    }
    rows
}

/// Drains per-worker trace buffers from every live group as
/// `(shards_in_group, shard_index, chrome_events_json)` rows — each
/// payload is a chrome-format event array (worker pid, offset-aligned
/// timestamps) that `repro --trace` splices into the parent's
/// `traceEvents` for one merged multi-process timeline.
pub fn collect_traces() -> Vec<(usize, usize, String)> {
    let mut rows = Vec::new();
    for group in ShardGroup::live_groups() {
        for (shard, json) in group.traces() {
            rows.push((group.shards(), shard, json));
        }
    }
    rows
}

/// Live worker groups (shard counts), for manifest reporting.
pub fn live_shard_counts() -> Vec<usize> {
    ShardGroup::live_groups()
        .iter()
        .map(|g| g.shards())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_parse_accepts_positive_integers() {
        assert_eq!(parse_shards("1"), Some(1));
        assert_eq!(parse_shards(" 4 "), Some(4));
        assert_eq!(parse_shards("0"), None);
        assert_eq!(parse_shards("two"), None);
        assert_eq!(parse_shards(""), None);
        assert_eq!(parse_shards("-3"), None);
    }

    #[test]
    fn invalid_shards_override_warns_and_falls_back() {
        socmix_obs::set_log_level(socmix_obs::Level::Warn);
        let _ = socmix_obs::take_recent_events();
        assert_eq!(shards_from_env(Some("0")), 1);
        assert_eq!(shards_from_env(Some("nope")), 1);
        let events = socmix_obs::take_recent_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.contains("invalid SOCMIX_SHARDS"))
                .count(),
            1,
            "expected exactly one warning, got {events:?}"
        );
        assert_eq!(shards_from_env(Some("2")), 2);
        assert_eq!(shards_from_env(None), 1);
    }

    #[test]
    fn spawn_failure_in_harness_is_fast_and_typed() {
        // This test binary is a libtest harness: it cannot host a
        // worker, so the spawned child exits without connecting and
        // the error must come back quickly (try_wait detection), typed
        // as Spawn — and be cached for the next obtain.
        let t0 = std::time::Instant::now();
        let first = ShardGroup::obtain(2).map(|_| ()).unwrap_err();
        let elapsed = t0.elapsed();
        assert!(
            matches!(
                first,
                ShardError::Spawn { .. } | ShardError::ConnectTimeout { .. }
            ),
            "unexpected error {first}"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(8),
            "spawn failure took {elapsed:?}; child-exit detection is not working"
        );
        let t1 = std::time::Instant::now();
        let second = ShardGroup::obtain(2).map(|_| ()).unwrap_err();
        assert_eq!(first, second, "failure must be cached");
        assert!(
            t1.elapsed() < std::time::Duration::from_millis(100),
            "cached failure must not respawn"
        );
    }

    #[test]
    fn shard_error_display_names_the_shard() {
        let e = ShardError::WorkerDied { shard: 3 };
        assert!(e.to_string().contains("shard 3"));
        let e = ShardError::GroupPoisoned { shards: 4 };
        assert!(e.to_string().contains("4 workers"));
    }
}
