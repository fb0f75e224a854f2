//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! engine crates — nothing inside the program is instrumented. Each span
//! is `(name, start, end, parent, op id)`; spans of one operation share its
//! op id. Spans stay in memory until the run ends, when the benchmark
//! derives per-layer totals and self times from them and writes them out
//! as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span that has started and not yet ended.
#[must_use = "close the span to record it"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, to pass as the parent of its children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

/// A cloneable handle onto one run's span store; clones on other threads
/// (the prefetch thread, serve clients) record into the same store.
#[derive(Clone)]
pub struct Tracer(Arc<Inner>);

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer(Arc::new(Inner {
            epoch: crate::sys::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }))
    }
}

impl Tracer {
    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: Option<u64>, op: u64) -> Open {
        Open {
            id: self.0.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start: crate::sys::now(),
        }
    }

    /// Ends and records a span; returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = crate::sys::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: (open.start - self.0.epoch).as_nanos() as u64,
            end_ns: (end - self.0.epoch).as_nanos() as u64,
        };
        let secs = span.secs();
        self.0.spans.lock().expect("span store poisoned").push(span);
        secs
    }

    /// Adds `v` to a named counter.
    pub fn count(&self, name: &'static str, v: f64) {
        *self
            .0
            .counters
            .lock()
            .expect("counter store poisoned")
            .entry(name)
            .or_insert(0.0) += v;
    }

    /// A counter's value (`0.0` if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.0
            .counters
            .lock()
            .expect("counter store poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.0.spans.lock().expect("span store poisoned").clone()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.0
            .spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds across spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per-name totals and self times (see [`layer_stats`]).
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        layer_stats(&self.spans())
    }

    /// Writes the counters and every span as JSON lines (`header` first).
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (name, v) in self
            .0
            .counters
            .lock()
            .expect("counter store poisoned")
            .iter()
        {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{v}}}")?;
        }
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, passing the span id down as the
/// parent of `f`'s own spans; runs `f(None)` untraced otherwise.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    op: u64,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => {
            let open = t.open(name, parent, op);
            let out = f(Some(open.id()));
            t.close(open);
            out
        }
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    pub count: usize,
    pub total_s: f64,
    /// Total minus the part of each span's interval its child spans cover.
    pub self_s: f64,
}

/// Per-name span count, total time and self time. A span's self time is its
/// duration minus the union of its children's intervals (clipped to the
/// span), so overlapping children — e.g. work on another thread — are
/// never subtracted twice.
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let stat = out.entry(s.name).or_default();
        stat.count += 1;
        stat.total_s += s.secs();
        stat.self_s += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: ["root", "a", "b", "c"][id as usize],
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0, 100) has children a [10, 40) and b [30, 60) which
        // overlap on [30, 40): covered = 50, self = 50. a has child c
        // [15, 20): a's self = 25.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(1), 15, 20),
        ];
        let stats = layer_stats(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(stats["root"].self_s), 50);
        assert_eq!(ns(stats["a"].self_s), 25);
        assert_eq!(ns(stats["b"].self_s), 30);
        assert_eq!(ns(stats["c"].self_s), 5);
        assert_eq!(ns(stats["root"].total_s), 100);
    }

    #[test]
    fn children_outside_the_parent_interval_are_clipped() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 0, 15)];
        let self_ns = (layer_stats(&spans)["root"].self_s * 1e9).round() as u64;
        assert_eq!(self_ns, 5);
    }
}
