//! Spans recorded from the benchmark's own code around each call into
//! a layer, the self-time table built from them, and the Chrome trace
//! export.
//!
//! Every call is timed with `Instant` whether or not tracing is on, so
//! the end-to-end runs and the traced run share one code path. With
//! tracing on, each call also opens a `socmix_obs::trace` span, so the
//! exported trace nests the program's own spans under the benchmark's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Rec {
    name: String,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Records the benchmark-side span tree of one run.
pub struct Spans {
    traced: bool,
    recs: RefCell<Vec<Rec>>,
    stack: RefCell<Vec<usize>>,
}

/// One row of the self-time table.
pub struct SelfTime {
    pub name: String,
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Spans {
    pub fn new(traced: bool) -> Self {
        Spans {
            traced,
            recs: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// wall time in seconds.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let parent = self.stack.borrow().last().copied();
        let idx = {
            let mut recs = self.recs.borrow_mut();
            recs.push(Rec {
                name: name.to_string(),
                parent,
                start: Instant::now(),
                end: None,
            });
            recs.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let id = if self.traced {
            socmix_obs::trace::begin(name.to_string())
        } else {
            0
        };
        let start = self.recs.borrow()[idx].start;
        let out = f();
        let end = Instant::now();
        socmix_obs::trace::end(id);
        self.stack.borrow_mut().pop();
        self.recs.borrow_mut()[idx].end = Some(end);
        (out, (end - start).as_secs_f64())
    }

    /// Opens the root span of one workload iteration under its own
    /// trace id, so the spans of one iteration share an identifier.
    pub fn iteration<T>(&self, name: &str, iteration: u64, f: impl FnOnce() -> T) -> (T, f64) {
        if self.traced {
            socmix_obs::trace::set_context(0x5eed_0000_0000 | iteration, 0, 0);
        }
        self.time(name, f)
    }

    /// Per-name self time: each span's duration minus the part its
    /// direct children cover (children never overlap: calls are
    /// sequential on the benchmark thread).
    pub fn self_times(&self) -> Vec<SelfTime> {
        let recs = self.recs.borrow();
        let dur = |r: &Rec| r.end.map_or(0.0, |e| (e - r.start).as_secs_f64());
        let mut child = vec![0.0; recs.len()];
        for r in recs.iter() {
            if let Some(p) = r.parent {
                child[p] += dur(r);
            }
        }
        let mut rows: BTreeMap<&str, SelfTime> = BTreeMap::new();
        for (i, r) in recs.iter().enumerate() {
            let row = rows.entry(&r.name).or_insert_with(|| SelfTime {
                name: r.name.clone(),
                calls: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            row.calls += 1;
            row.total_s += dur(r);
            row.self_s += (dur(r) - child[i]).max(0.0);
        }
        rows.into_values().collect()
    }

    /// Share of the named root spans' time that their direct children
    /// (the layer calls) cover.
    pub fn explained_share(&self, root: &str) -> f64 {
        let recs = self.recs.borrow();
        let dur = |r: &Rec| r.end.map_or(0.0, |e| (e - r.start).as_secs_f64());
        let roots: Vec<usize> = (0..recs.len()).filter(|&i| recs[i].name == root).collect();
        let total: f64 = roots.iter().map(|&i| dur(&recs[i])).sum();
        let covered: f64 = recs
            .iter()
            .filter(|r| r.parent.is_some_and(|p| roots.contains(&p)))
            .map(dur)
            .sum();
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Drains the process trace buffers into a Chrome trace document.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let events = socmix_obs::trace::drain();
        let labels = socmix_obs::trace::thread_labels();
        let rows = socmix_obs::export::chrome_events(&events, std::process::id() as u64, &labels);
        let n = rows.len();
        let doc = socmix_obs::export::chrome_trace_document(rows);
        std::fs::write(path, doc.to_compact())?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let s = Spans::new(false);
        s.time("root", || {
            s.time("child", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let rows = s.self_times();
        let root = rows.iter().find(|r| r.name == "root").unwrap();
        let child = rows.iter().find(|r| r.name == "child").unwrap();
        assert!(root.total_s >= 0.03 && root.self_s < root.total_s - 0.019);
        assert!((child.self_s - child.total_s).abs() < 1e-12);
        let share = s.explained_share("root");
        assert!(share > 0.5 && share < 1.0, "{share}");
    }
}
