//! Scenario-diversity workloads through the unified assessment session.
//!
//! ```text
//! cargo run --release --example scenario_sweep
//! ```
//!
//! Builds a matrix of data scenarios — ground truth, degraded-availability
//! variants, and site-knowledge overrides — and assesses the synthetic
//! Top 500 under all of them in ONE session: the metric extraction runs
//! once and is shared, masks apply as zero-copy `FleetView` lenses (no
//! record clones), every (scenario × chunk) work item interleaves in one
//! parallel phase, and each scenario's results come back typed, columnar and
//! with a Monte-Carlo fleet interval.

use top500_carbon::analysis::fleet::{render_sweep, summarize};
use top500_carbon::analysis::sensitivity;
use top500_carbon::easyc::{
    Assessment, DataScenario, MetricBit, MetricMask, OverrideSet, ScenarioMatrix,
};
use top500_carbon::top500::synthetic::{generate_full, SyntheticConfig};

fn main() {
    let list = generate_full(&SyntheticConfig {
        seed: 0x5EED_CAFE,
        ..Default::default()
    });

    let matrix = ScenarioMatrix::new()
        .with(DataScenario::full("full"))
        .with(DataScenario::masked(
            "no-power",
            MetricMask::ALL
                .without(MetricBit::PowerKw)
                .without(MetricBit::AnnualEnergy),
        ))
        .with(DataScenario::masked(
            "no-structure",
            MetricMask::ALL
                .without(MetricBit::Nodes)
                .without(MetricBit::Gpus)
                .without(MetricBit::Cpus),
        ))
        .with(DataScenario::masked(
            "anonymous-sites",
            MetricMask::ALL.without(MetricBit::Location),
        ))
        .with(
            DataScenario::full("site-pue-1.1").with_overrides(OverrideSet {
                pue: Some(1.1),
                ..OverrideSet::NONE
            }),
        )
        .with(
            DataScenario::full("clean-grid-50g").with_overrides(OverrideSet {
                aci_g_per_kwh: Some(50.0),
                ..OverrideSet::NONE
            }),
        );

    let output = Assessment::of(&list)
        .scenarios(&matrix)
        .uncertainty(400)
        .confidence(0.9)
        .seed(7)
        .run();

    println!(
        "== scenario sweep: {} scenarios x {} systems, one session ==\n",
        matrix.len(),
        list.len()
    );
    println!("{}", render_sweep(&summarize(&output)));

    // Fleet-total operational AND embodied intervals came out of the same
    // session run — both families share the (scenario × draw-chunk) plan.
    println!("90% fleet intervals (MT CO2e):");
    for slice in output.slices() {
        let render = |iv: &Option<top500_carbon::easyc::Interval>| match iv {
            Some(iv) => format!("{:>9.0} [{:>9.0}, {:>9.0}]", iv.point, iv.lo, iv.hi),
            None => "        —".to_string(),
        };
        println!(
            "  {:>14}: op {}  emb {}",
            slice.scenario.name,
            render(&slice.interval),
            render(&slice.embodied_interval)
        );
    }
    println!();

    // Scenario sensitivity straight off the session slices: what does
    // losing every measured power number cost the fleet estimate?
    let report =
        sensitivity::between(&output, "full", "no-power", false).expect("both scenarios present");
    println!("operational sensitivity to losing measured power:");
    println!(
        "  fleet total {:.0} -> {:.0} MT CO2e ({:+.1} %)",
        report.baseline_total_mt,
        report.enriched_total_mt,
        report.relative_change() * 100.0
    );
    println!(
        "  largest single-system change: {:+.0} / {:+.0} MT",
        report.max_increase_mt, report.max_decrease_mt
    );

    // First-class scenario comparison: every scenario of the matrix saw
    // IDENTICAL per-system perturbations (common random numbers — the
    // DrawPlan keys its RNG streams by (system, draw), never by scenario),
    // so the paired difference interval is far tighter than differencing
    // the two independent bands printed above.
    println!("\npaired 90% deltas vs `full` (common random numbers):");
    for variant in ["no-power", "site-pue-1.1", "clean-grid-50g"] {
        let delta = output.compare("full", variant).expect("scenarios present");
        let op = delta.operational.expect("operational coverage");
        let naive = top500_carbon::easyc::Interval::independent_difference(
            &output.interval(variant).expect("interval"),
            &output.interval("full").expect("interval"),
        );
        println!(
            "  {:>14}: op {:+9.0} [{:+9.0}, {:+9.0}]  (naive band width {:.0}x wider)",
            variant,
            op.point,
            op.lo,
            op.hi,
            naive.width() / op.width().max(1e-9),
        );
    }

    // The columnar view feeds straight into the frame machinery.
    let frame = output.to_frame();
    println!(
        "\ncolumnar results: {} rows x {} columns (scenario, rank, footprints, provenance)",
        frame.len(),
        frame.width()
    );
}
