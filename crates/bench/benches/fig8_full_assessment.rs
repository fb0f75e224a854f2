//! Figure 8: full Top 500 assessment by rank (with interpolated systems).

use analysis::figures::CarbonByRank;
use analysis::report::default_scenario_matrix;
use bench::{appendix_rows, banner, pipeline_run, BENCH_SEED};
use criterion::{criterion_group, criterion_main, Criterion};
use easyc::Assessment;
use top500::synthetic::{generate_full, SyntheticConfig};

fn bench_fig8(c: &mut Criterion) {
    let rows = appendix_rows();
    let fig = CarbonByRank::fig8(&rows);
    banner(
        "Figure 8",
        "full assessment: all 500 systems, interpolation included",
    );
    println!(
        "operational points: {} / 500; embodied points: {} / 500",
        fig.operational_count(),
        fig.embodied_count()
    );
    let op_total: f64 = fig.points.iter().filter_map(|(_, op, _)| *op).sum();
    let emb_total: f64 = fig.points.iter().filter_map(|(_, _, emb)| *emb).sum();
    println!(
        "totals: {:.3} M MT operational, {:.3} M MT embodied (paper: 1.39 / 1.88)",
        op_total / 1e6,
        emb_total / 1e6
    );

    c.bench_function("fig8/reference_series", |b| {
        b.iter(|| CarbonByRank::fig8(std::hint::black_box(&rows)))
    });
    // The pipeline edition: synthetic end-to-end including interpolation,
    // now routed through the staged batch engine.
    c.bench_function("fig8/pipeline_end_to_end_500", |b| {
        b.iter(|| std::hint::black_box(pipeline_run()))
    });
    // Scenario-matrix edition: the full default matrix in one interleaved
    // session (shared metric extraction, (scenario × chunk) items in one
    // phase) versus per-scenario re-assessment through fresh sessions.
    let list = generate_full(&SyntheticConfig {
        seed: BENCH_SEED,
        ..Default::default()
    });
    let matrix = default_scenario_matrix();
    c.bench_function("fig8/session_matrix_5_scenarios", |b| {
        b.iter(|| {
            Assessment::of(std::hint::black_box(&list))
                .scenarios(std::hint::black_box(&matrix))
                .run()
        })
    });
    c.bench_function("fig8/per_scenario_reassessment", |b| {
        b.iter(|| {
            matrix
                .scenarios()
                .iter()
                .map(|s| {
                    Assessment::of(std::hint::black_box(&list))
                        .scenario(s.clone())
                        .run()
                        .into_footprints()
                })
                .collect::<Vec<_>>()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig8
}
criterion_main!(benches);
