//! End-to-end benchmark of the EasyC engine.
//!
//! One command runs one named workload from a seed, checks every output
//! against a reference computed once in set-up by an independent path, and
//! prints its metrics by name with their units, then one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream-csv --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics
//! ([`report::END_TO_END`]); with `--trace 1` the run is split into an
//! untraced and a traced half and the result carries the per-layer metrics
//! ([`report::PER_LAYER`]), including the tracing overhead (traced minus
//! untraced values). Every layer number is a span the benchmark records
//! around its own calls into the public functions of `top500`, `easyc`,
//! `frame` and `serve`; the program itself carries no tracing.
//!
//! The process exits non-zero when any operation failed or differed from
//! its reference, or when set-up failed.

pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use report::{json_string, MetricDef, Report, END_TO_END, PER_LAYER};
use workloads::{Opts, Outcome, Phase, Window, Workload};

/// Runs one workload and assembles its report.
pub fn run(opts: &Opts, capture: &sys::Capture) -> Result<Report, String> {
    let outcome = match opts.workload {
        Workload::StreamCsv => workloads::stream_csv::run(opts)?,
        Workload::DrawsMatrix => workloads::draws_matrix::run(opts)?,
        Workload::ServeMixed => workloads::serve_mixed::run(opts)?,
        Workload::ResidentEdits => workloads::resident_edits::run(opts)?,
    };
    Ok(assemble(opts, capture, outcome))
}

/// The end-to-end values of one measured phase. Rates and latencies are
/// medians over the phase's windows of consecutive completions
/// ([`Phase::windows`]), so a speed swing shorter than half the phase does
/// not decide them; a phase of fewer than 2,000 operations is one window.
fn end_to_end(setup_s: f64, phase: &Phase) -> Vec<(MetricDef, f64)> {
    let windows = phase.windows();
    let median_of = |f: &dyn Fn(&Window) -> f64| {
        stats::median(&windows.iter().map(f).collect::<Vec<f64>>())
    };
    END_TO_END
        .iter()
        .map(|&d| {
            let v = match d.name {
                "setup_s" => setup_s,
                "req_per_s" => median_of(&|w| w.completed / w.secs),
                "assess_per_s" => median_of(&|w| w.footprints / w.secs),
                "req_p50_ms" => median_of(&|w| stats::median(&w.lat_s)) * 1e3,
                "req_p99_ms" => median_of(&|w| stats::tail(&w.lat_s).value) * 1e3,
                "peak_rss_mb" => phase.peak_rss_mb,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (d, v)
        })
        .collect()
}

fn summary_lines(label: &str, setup_s: f64, phase: &Phase) -> Vec<String> {
    let windows = phase.windows();
    let tail = stats::tail(&windows[0].lat_s);
    let mut lines = vec![format!(
        "  [{label}] {} ops in {:.3} s, {} window(s); req_p99_ms is p{:.2} with {} samples beyond in each window",
        phase.attempted,
        phase.wall_s,
        windows.len(),
        tail.percentile,
        tail.beyond
    )];
    for (d, v) in end_to_end(setup_s, phase) {
        lines.push(format!("  {:<14} {v:>16.6} {}", d.name, d.unit));
    }
    if phase.draw_terms > 0.0 {
        lines.push(format!(
            "  {:<14} {:>16.6} 1/s",
            "draw_terms_per_s",
            phase.draw_terms / phase.wall_s
        ));
    }
    if !phase.write_s.is_empty() {
        let wtail = stats::tail(&phase.write_s);
        lines.push(format!(
            "  {:<14} {:>16.6} ms",
            "write_p50_ms",
            stats::median(&phase.write_s) * 1e3
        ));
        lines.push(format!(
            "  {:<14} {:>16.6} ms (p{:.2} of {})",
            "write_p99_ms",
            wtail.value * 1e3,
            wtail.percentile,
            phase.write_s.len()
        ));
    }
    lines.push(format!(
        "  {:<14} {:>16.6} (failed {} of {})",
        "failed_frac",
        phase.failed as f64 / phase.attempted.max(1) as f64,
        phase.failed,
        phase.attempted
    ));
    lines
}

fn capture_json(opts: &Opts, c: &sys::Capture) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu_model\":{},\"l2\":{},\"l3\":{},\"rustc\":{},\"git_rev\":{},\"source_digest\":{},\"profile\":{}}}",
        json_string(opts.workload.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        c.nproc,
        json_string(&c.cpu_model),
        json_string(&c.l2),
        json_string(&c.l3),
        json_string(&c.rustc),
        json_string(&c.git_rev),
        json_string(&c.source_digest),
        json_string(c.profile),
    )
}

fn assemble(opts: &Opts, capture: &sys::Capture, outcome: Outcome) -> Report {
    let setup_s = stats::median(&outcome.setup_s);
    let mut lines = vec![
        format!("capture {}", capture_json(opts, capture)),
        format!("workload {} seed {}", opts.workload.name(), opts.seed),
    ];
    lines.extend(outcome.notes.iter().map(|n| format!("  {n}")));
    lines.push(format!(
        "  setup_s is the median of {} set-ups",
        outcome.setup_s.len()
    ));
    lines.extend(summary_lines("untraced", setup_s, &outcome.untraced));
    let mut attempted = outcome.untraced.attempted + outcome.extra_attempted;
    let mut failed = outcome.untraced.failed + outcome.extra_failed;

    let metrics = match &outcome.traced {
        None => end_to_end(setup_s, &outcome.untraced),
        Some(traced) => {
            lines.extend(summary_lines("traced", setup_s, traced));
            attempted += traced.attempted;
            failed += traced.failed;
            let mut layers = outcome.layers.clone();
            if let Some(tracer) = &outcome.tracer {
                let gen = tracer.durations("top500.synthetic.gen");
                layers.insert("top500.synthetic.gen_s", stats::median(&gen));
            }
            layers.insert("process.cpu_s", traced.cpu_s);
            layers.insert(
                "process.cpu_util",
                traced.cpu_s / (traced.wall_s * sys::nproc() as f64),
            );
            // Traced minus untraced, for every end-to-end metric the two
            // halves measure separately (set-up is shared by both).
            let untraced_e2e = end_to_end(setup_s, &outcome.untraced);
            for ((d, t), (_, u)) in end_to_end(setup_s, traced).iter().zip(&untraced_e2e) {
                if let Some(o) = PER_LAYER
                    .iter()
                    .find(|o| o.name.strip_prefix("trace.overhead.") == Some(d.name))
                {
                    layers.insert(o.name, t - u);
                }
            }
            lines.push("  per-layer (traced):".into());
            PER_LAYER
                .iter()
                .map(|&d| {
                    let v = layers.get(d.name).copied().unwrap_or(0.0);
                    lines.push(format!("  {:<32} {v:>16.6} {}", d.name, d.unit));
                    (d, v)
                })
                .collect()
        }
    };
    if let Some(tracer) = &outcome.tracer {
        lines.push("  spans by name (total and self time):".into());
        lines.extend(layer_table(tracer));
        let path = opts
            .work_dir
            .join(format!("{}.spans.jsonl", opts.workload.name()));
        match tracer.write_jsonl(&path, &capture_json(opts, capture)) {
            Ok(()) => lines.push(format!("  spans written to {}", path.display())),
            Err(e) => lines.push(format!("  spans not written: {e}")),
        }
    }
    if outcome.extra_failed > 0 {
        lines.push(format!(
            "  {} of {} warm-up or probe check(s) did not reproduce the reference",
            outcome.extra_failed, outcome.extra_attempted
        ));
    }
    Report {
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// Span totals and self times of a traced run, one line per span name.
fn layer_table(tracer: &trace::Tracer) -> Vec<String> {
    tracer
        .layers()
        .iter()
        .map(|(name, s)| {
            format!(
                "  {name:<32} n={:<7} total {:>12.6} s  self {:>12.6} s",
                s.count, s.total_s, s.self_s
            )
        })
        .collect()
}
