//! Tiny-scale runs of every workload with the correctness gate on, and
//! agreement between the metric catalog and `BENCHMARK.json`.

use perfbench::report::{valid_name, valid_unit, MetricDef, END_TO_END, PER_LAYER};
use perfbench::sys::Capture;
use perfbench::workloads::{Opts, Scale, Workload};
use serve::json::Value;
use std::path::PathBuf;

fn opts(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::TINY,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

fn smoke(trace: bool) {
    let capture = Capture::take();
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    for workload in Workload::ALL {
        let report = perfbench::run(&opts(workload, trace), &capture)
            .unwrap_or_else(|e| panic!("{} set-up failed: {e}", workload.name()));
        assert!(
            report.correct(),
            "{} (trace {trace}): {} of {} operations failed\n{}",
            workload.name(),
            report.failed,
            report.attempted,
            report.lines.join("\n")
        );
        let names: Vec<&str> = report.metrics.iter().map(|(d, _)| d.name).collect();
        let expected: Vec<&str> = catalog.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            expected,
            "{} reports the wrong metrics",
            workload.name()
        );
        for (d, v) in &report.metrics {
            assert!(v.is_finite(), "{}: {} = {v}", workload.name(), d.name);
            if !trace {
                assert!(*v > 0.0, "{}: {} = {v}", workload.name(), d.name);
            }
        }
        let line = report.json_line();
        let parsed = serve::json::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
    }
}

#[test]
fn every_workload_passes_its_correctness_gate_untraced() {
    smoke(false);
}

#[test]
fn every_workload_passes_its_correctness_gate_traced() {
    smoke(true);
}

#[test]
fn traced_runs_measure_the_layers_their_workload_drives() {
    let capture = Capture::take();
    let layer = |workload: Workload, name: &str| {
        perfbench::run(&opts(workload, true), &capture)
            .expect("set-up")
            .value(name)
            .expect("catalog metric")
    };
    assert!(layer(Workload::StreamCsv, "top500.parse.busy_s") > 0.0);
    assert!(layer(Workload::StreamCsv, "frame.csv.bytes_out") > 0.0);
    assert!(layer(Workload::StreamCsv, "bench.digest_s") > 0.0);
    assert!(layer(Workload::DrawsMatrix, "easyc.draws.s") > 0.0);
    assert!(layer(Workload::ServeMixed, "serve.rtt_ms.hit") > 0.0);
    assert!(layer(Workload::ServeMixed, "serve.json.parse_s") > 0.0);
    assert!(layer(Workload::ResidentEdits, "easyc.state.update_rows_ms") > 0.0);
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serve::json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(json: &Value, key: &str) -> Vec<MetricDef> {
    json.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
        .iter()
        .map(|m| {
            let field = |k: &str| -> &'static str {
                let s = m.get(k).and_then(Value::as_str).expect("string field");
                Box::leak(s.to_string().into_boxed_str())
            };
            MetricDef {
                name: field("name"),
                unit: field("unit"),
                better: field("better"),
            }
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_catalog() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), END_TO_END);
    assert_eq!(listed(&json, "per_layer"), PER_LAYER);
    for m in json.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name) && valid_unit(d.unit), "{}", d.name);
    }
}
