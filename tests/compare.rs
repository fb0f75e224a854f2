//! Acceptance tests for the common-random-numbers scenario comparison:
//! `AssessmentOutput::compare` must produce
//! paired-difference intervals that are strictly tighter than the naive
//! difference of the two independent per-scenario bands on the synthetic
//! 500 (the CRN variance-reduction claim), must be bit-identical between
//! list and streamed runs, and must be invariant to which
//! other scenarios share the matrix (the draws are keyed by (system,
//! draw), never by scenario).

use top500_carbon::easyc::{
    Assessment, DataScenario, DrawPlan, Interval, MetricBit, MetricMask, OverrideSet,
    ScenarioMatrix,
};
use top500_carbon::top500::stream::InMemoryChunks;
use top500_carbon::top500::synthetic::{generate_full, SyntheticConfig};

fn full_500() -> top500_carbon::top500::list::Top500List {
    generate_full(&SyntheticConfig {
        n: 500,
        seed: 0x5EED_CAFE,
        ..Default::default()
    })
}

fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .with(DataScenario::full("full"))
        .with(DataScenario::masked(
            "no-power",
            MetricMask::ALL
                .without(MetricBit::PowerKw)
                .without(MetricBit::AnnualEnergy),
        ))
        .with(
            DataScenario::full("clean-grid").with_overrides(OverrideSet {
                aci_g_per_kwh: Some(50.0),
                ..OverrideSet::NONE
            }),
        )
}

#[test]
fn paired_delta_strictly_tighter_than_independent_difference_on_the_synthetic_500() {
    // The acceptance pin: on the full synthetic 500 the paired interval
    // must be strictly tighter than the naive independent-band difference,
    // for every variant and every family (operational, embodied, total).
    let list = full_500();
    let output = Assessment::of(&list)
        .scenarios(&matrix())
        .uncertainty(400)
        .confidence(0.9)
        .seed(7)
        .run();
    for variant in ["no-power", "clean-grid"] {
        let delta = output.compare("full", variant).unwrap();
        let naive_op = Interval::independent_difference(
            &output.interval(variant).unwrap(),
            &output.interval("full").unwrap(),
        );
        let paired_op = delta.operational.unwrap();
        assert!(
            paired_op.width() < naive_op.width(),
            "{variant} operational: paired {} vs naive {}",
            paired_op.width(),
            naive_op.width()
        );
        assert_eq!(paired_op.point, naive_op.point, "{variant} point");
        let naive_emb = Interval::independent_difference(
            &output.embodied_interval(variant).unwrap(),
            &output.embodied_interval("full").unwrap(),
        );
        let paired_emb = delta.embodied.unwrap();
        assert!(
            paired_emb.width() < naive_emb.width(),
            "{variant} embodied: paired {} vs naive {}",
            paired_emb.width(),
            naive_emb.width()
        );
        let total = delta.total.unwrap();
        assert!(total.lo <= total.point && total.point <= total.hi);
    }
    // Both masked-identical scenarios share embodied physics, so the
    // embodied delta of clean-grid (an ACI override) is exactly zero.
    let clean = output.compare("full", "clean-grid").unwrap();
    let emb = clean.embodied.unwrap();
    assert_eq!((emb.point, emb.lo, emb.hi), (0.0, 0.0, 0.0));
    // And the cleaner grid lowers operational carbon with certainty: the
    // whole paired band sits below zero even though the two independent
    // bands overlap zero-crossing widths.
    let op = clean.operational.unwrap();
    assert!(op.hi < 0.0, "clean-grid paired band must exclude 0: {op:?}");
}

#[test]
fn streamed_compare_bit_identical_to_in_memory_compare() {
    let list = full_500();
    let plan = DrawPlan::new(120).with_confidence(0.9).with_seed(21);
    let in_memory = Assessment::of(&list)
        .scenarios(&matrix())
        .draw_plan(plan)
        .run();
    for chunk_rows in [1usize, 64, 500, 4096] {
        let streamed = Assessment::stream(InMemoryChunks::new(&list, chunk_rows))
            .scenarios(&matrix())
            .draw_plan(plan)
            .run()
            .unwrap();
        for variant in ["no-power", "clean-grid"] {
            assert_eq!(
                streamed.compare("full", variant),
                in_memory.compare("full", variant),
                "rows {chunk_rows} variant {variant}"
            );
            assert_eq!(
                streamed.operational_draws(variant),
                in_memory.operational_draws(variant),
                "rows {chunk_rows} draws {variant}"
            );
            assert_eq!(
                streamed.embodied_draws(variant),
                in_memory.embodied_draws(variant),
                "rows {chunk_rows} embodied draws {variant}"
            );
        }
    }
}

#[test]
fn draws_are_scenario_independent_so_intervals_survive_matrix_composition() {
    // The CRN keying promise, end to end: a scenario's interval and draw
    // vector must not depend on which other scenarios ride in the matrix.
    let list = full_500();
    let plan = DrawPlan::new(100).with_seed(3);
    let alone = Assessment::of(&list)
        .scenario(DataScenario::full("full"))
        .draw_plan(plan)
        .run();
    let in_matrix = Assessment::of(&list)
        .scenarios(&matrix())
        .draw_plan(plan)
        .run();
    assert_eq!(alone.interval("full"), in_matrix.interval("full"));
    assert_eq!(
        alone.embodied_interval("full"),
        in_matrix.embodied_interval("full")
    );
    assert_eq!(
        alone.operational_draws("full"),
        in_matrix.operational_draws("full")
    );
    assert_eq!(
        alone.embodied_draws("full"),
        in_matrix.embodied_draws("full")
    );
}

#[test]
fn compare_is_none_without_draws_or_unknown_scenarios() {
    let list = generate_full(&SyntheticConfig {
        n: 30,
        ..Default::default()
    });
    let no_draws = Assessment::of(&list).scenarios(&matrix()).run();
    assert!(no_draws.compare("full", "no-power").is_none());
    assert!(no_draws.operational_draws("full").is_none());
    let with_draws = Assessment::of(&list)
        .scenarios(&matrix())
        .uncertainty(50)
        .run();
    assert!(with_draws.compare("full", "missing").is_none());
    assert!(with_draws.compare("missing", "full").is_none());
    assert!(with_draws.compare("full", "no-power").is_some());
    assert_eq!(
        with_draws.operational_draws("full").map(<[f64]>::len),
        Some(50)
    );
}

#[test]
fn compare_deterministic_across_workers_and_granularity() {
    let list = generate_full(&SyntheticConfig {
        n: 120,
        ..Default::default()
    });
    let run = |workers: usize, rows: usize| {
        Assessment::stream(InMemoryChunks::new(&list, rows))
            .workers(workers)
            .scenarios(&matrix())
            .uncertainty(80)
            .seed(9)
            .run()
            .unwrap()
            .compare("full", "no-power")
            .unwrap()
    };
    let reference = Assessment::of(&list)
        .workers(1)
        .scenarios(&matrix())
        .uncertainty(80)
        .seed(9)
        .run()
        .compare("full", "no-power")
        .unwrap();
    for (workers, rows) in [(1usize, 120usize), (2, 1), (4, 17), (8, 60)] {
        assert_eq!(
            run(workers, rows),
            reference,
            "workers {workers} rows {rows}"
        );
    }
}
