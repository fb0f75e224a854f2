//! The metric catalog and the result line.
//!
//! Every workload reports every metric of the catalog: the end-to-end set
//! in an untraced run, the per-layer set in a traced one. A layer a
//! workload does not exercise reports `0`; the workload descriptions in
//! `BENCHMARK.json` say which layers each one drives.

/// One metric: its name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported with `--trace 0` by every workload.
pub const END_TO_END: &[MetricDef] = &[
    // Program set-up: generate inputs, write the CSV, build and warm the
    // state, start the server. Median of several set-ups in one run.
    m("setup_s", "s", "lower"),
    // The next four are medians over windows of 1,000 consecutive
    // completions (`Phase::windows`); a shorter phase is one window.
    // Completed operations per second.
    m("req_per_s", "1/s", "higher"),
    // System x scenario footprints the completed operations answered, per
    // second.
    m("assess_per_s", "1/s", "higher"),
    // Median per-operation latency.
    m("req_p50_ms", "ms", "lower"),
    // Tail per-operation latency under the percentile rule
    // (`stats::tail`): p99 of each 1,000-operation window; the median for
    // the batch workloads, whose phases hold fewer than 20 operations.
    m("req_p99_ms", "ms", "lower"),
    // Peak resident memory of the measured phase (`VmHWM`, reset when the
    // phase starts).
    m("peak_rss_mb", "MB", "lower"),
];

/// Reply error codes the serve protocol defines, plus the benchmark's own
/// `mismatch` (a well-formed reply whose bytes differ from the reference)
/// and `transport` (the connection failed).
pub const SERVE_ERROR_CODES: &[&str] = &[
    "malformed-request",
    "oversized-request",
    "queue-full",
    "timeout",
    "shutting-down",
    "unknown-op",
    "bad-scenario",
    "no-paired-draws",
    "internal-error",
    "mismatch",
    "transport",
];

/// Per-layer metrics, reported with `--trace 1` by every workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("top500.synthetic.gen_s", "s", "lower"),
    m("top500.parse.busy_s", "s", "lower"),
    m("top500.ingest.wait_s", "s", "lower"),
    m("top500.ingest.rows", "count", "higher"),
    m("top500.ingest.bytes", "bytes", "higher"),
    m("easyc.metrics.extract_s", "s", "lower"),
    m("easyc.columns.build_s", "s", "lower"),
    m("easyc.state.build_s", "s", "lower"),
    m("easyc.state.warm_s", "s", "lower"),
    m("easyc.estimate.op_s", "s", "lower"),
    m("easyc.estimate.emb_s", "s", "lower"),
    m("easyc.estimate.err_rows", "count", "lower"),
    m("easyc.state.query_hit_ms", "ms", "lower"),
    m("easyc.state.query_miss_ms", "ms", "lower"),
    m("easyc.draws.s", "s", "lower"),
    m("easyc.draws.terms", "count", "higher"),
    m("easyc.partial.fold_s", "s", "lower"),
    m("easyc.state.update_rows_ms", "ms", "lower"),
    m("frame.csv.render_s", "s", "lower"),
    m("frame.csv.bytes_out", "bytes", "lower"),
    m("bench.digest_s", "s", "lower"),
    m("process.cpu_s", "s", "lower"),
    m("process.cpu_util", "ratio", "higher"),
    m("serve.rtt_ms.hit", "ms", "lower"),
    m("serve.rtt_ms.miss", "ms", "lower"),
    m("serve.rtt_ms.draws", "ms", "lower"),
    m("serve.rtt_ms.sweep", "ms", "lower"),
    m("serve.compute_ms.hit", "ms", "lower"),
    m("serve.compute_ms.miss", "ms", "lower"),
    m("serve.compute_ms.draws", "ms", "lower"),
    m("serve.compute_ms.sweep", "ms", "lower"),
    m("serve.overhead_ms.hit", "ms", "lower"),
    m("serve.overhead_ms.miss", "ms", "lower"),
    m("serve.overhead_ms.draws", "ms", "lower"),
    m("serve.overhead_ms.sweep", "ms", "lower"),
    m("serve.json.parse_s", "s", "lower"),
    m("serve.bytes_out", "bytes", "lower"),
    m("serve.errors.malformed-request", "count", "lower"),
    m("serve.errors.oversized-request", "count", "lower"),
    m("serve.errors.queue-full", "count", "lower"),
    m("serve.errors.timeout", "count", "lower"),
    m("serve.errors.shutting-down", "count", "lower"),
    m("serve.errors.unknown-op", "count", "lower"),
    m("serve.errors.bad-scenario", "count", "lower"),
    m("serve.errors.no-paired-draws", "count", "lower"),
    m("serve.errors.internal-error", "count", "lower"),
    m("serve.errors.mismatch", "count", "lower"),
    m("serve.errors.transport", "count", "lower"),
    m("trace.overhead.req_per_s", "1/s", "higher"),
    m("trace.overhead.assess_per_s", "1/s", "higher"),
    m("trace.overhead.req_p50_ms", "ms", "lower"),
    m("trace.overhead.req_p99_ms", "ms", "lower"),
    m("trace.overhead.peak_rss_mb", "MB", "lower"),
];

/// A metric name: starts with a letter or digit; at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted across the run's measured phases.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned output that
    /// differs from the reference.
    pub failed: u64,
    /// `(metric, value)` in catalog order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// True when every attempted operation matched its reference.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    /// The single-line JSON result: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    json_number(*v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite number in JSON form with every digit Rust's shortest
/// round-trip formatting gives; non-finite values become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_and_units_follow_the_grammar_and_are_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().any(|d| *d == m("setup_s", "s", "lower")));
        for code in SERVE_ERROR_CODES {
            let name = format!("serve.errors.{code}");
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }

    #[test]
    fn grammar_rejects_malformed_names_and_units() {
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_name("9lives.ok-name_1"));
        for bad in ["", "m s", "kg*m", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
        for good in ["ms", "1/s", "%", "count", "MB", "bytes"] {
            assert!(valid_unit(good), "{good}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![(END_TO_END[0], 0.5), (END_TO_END[1], f64::NAN)],
            lines: vec![],
        };
        assert_eq!(
            report.json_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\
             \"req_per_s\":{\"value\":0.0,\"unit\":\"1/s\"}}}"
        );
        assert_eq!(json_number(1.0e-7), "1e-7");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
