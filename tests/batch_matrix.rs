//! Acceptance tests for the assessment engine: the unified session must be
//! bit-identical to the serial per-system path for the full synthetic 500,
//! under every scenario, at any worker count and any chunk granularity;
//! masked sweeps must perform zero record clones; fleet intervals
//! (operational and embodied) must equal the serial uncertainty entry
//! points; and the figure pipelines must produce the same results through
//! the session API.

use top500_carbon::analysis::report::default_scenario_matrix;
use top500_carbon::analysis::StudyPipeline;
use top500_carbon::easyc::{
    Assessment, DataScenario, DrawPlan, EasyC, EasyCConfig, MetricBit, MetricMask, OverrideSet,
    ScenarioMatrix, SystemFootprint,
};
use top500_carbon::top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

fn full_500() -> top500_carbon::top500::list::Top500List {
    generate_full(&SyntheticConfig {
        n: 500,
        seed: 0x5EED_CAFE,
        ..Default::default()
    })
}

fn scenario_matrix() -> ScenarioMatrix {
    default_scenario_matrix()
        .with(DataScenario::masked(
            "anonymous-sites",
            MetricMask::ALL.without(MetricBit::Location),
        ))
        .with(
            DataScenario::masked(
                "bare-minimum",
                MetricMask::parse("none +nodes +gpus +cpus").expect("valid spec"),
            )
            .with_overrides(OverrideSet {
                utilization: Some(0.55),
                ..OverrideSet::NONE
            }),
        )
}

fn assert_bit_identical(a: &[SystemFootprint], b: &[SystemFootprint], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.rank, y.rank, "{what}: rank order");
        assert_eq!(
            x.operational, y.operational,
            "{what}: rank {} operational",
            x.rank
        );
        assert_eq!(x.embodied, y.embodied, "{what}: rank {} embodied", x.rank);
    }
}

#[test]
fn session_bit_identical_to_serial_full_500_at_pinned_worker_counts() {
    // The acceptance pin for the unified session: every scenario of the
    // extended matrix over the full synthetic 500, at workers {1, 2, 8},
    // must be bit-identical to serial per-system assessment.
    let list = full_500();
    let serial_tool = EasyC::new();
    let matrix = scenario_matrix();
    let serial_by_scenario: Vec<Vec<SystemFootprint>> = matrix
        .scenarios()
        .iter()
        .map(|scenario| {
            list.systems()
                .iter()
                .map(|s| serial_tool.assess_scenario(s, scenario))
                .collect()
        })
        .collect();
    for workers in [1usize, 2, 8] {
        let output = Assessment::of(&list)
            .workers(workers)
            .scenarios(&matrix)
            .run();
        assert_eq!(output.slices().len(), matrix.len());
        for (slice, serial) in output.slices().iter().zip(&serial_by_scenario) {
            assert_bit_identical(
                &slice.footprints,
                serial,
                &format!(
                    "session scenario `{}` workers {workers}",
                    slice.scenario.name
                ),
            );
        }
    }
}

#[test]
fn session_bit_identical_across_chunk_granularities() {
    // The chunk-skew fix made the work-item size a scheduler knob
    // (~4× workers by default). Any granularity must produce bit-identical
    // output — including the Monte-Carlo intervals, whose draws depend
    // only on (seed, sample, base index).
    let list = full_500();
    let matrix = scenario_matrix();
    let run = |workers: usize, items: usize| {
        Assessment::of(&list)
            .workers(workers)
            .items_per_worker(items)
            .scenarios(&matrix)
            .uncertainty(60)
            .seed(7)
            .run()
    };
    let reference = run(1, 1); // one chunk per scenario: the coarsest plan
    for (workers, items) in [(1usize, 4usize), (2, 1), (2, 4), (8, 2), (8, 16)] {
        let got = run(workers, items);
        for (a, b) in reference.slices().iter().zip(got.slices()) {
            assert_bit_identical(
                &a.footprints,
                &b.footprints,
                &format!("workers {workers} items/worker {items}"),
            );
            assert_eq!(a.coverage, b.coverage);
        }
        assert_eq!(reference.intervals(), got.intervals());
        assert_eq!(reference.embodied_intervals(), got.embodied_intervals());
    }
}

#[test]
fn masked_session_sweep_performs_zero_record_clones() {
    // The FleetView lens replaced the clone-per-scenario masking path;
    // workers(1) keeps the whole plan on this thread so the thread-local
    // clone counter observes everything the engine does.
    let list = full_500();
    let matrix = scenario_matrix();
    let before = top500_carbon::top500::record::clones_on_thread();
    let output = Assessment::of(&list).workers(1).scenarios(&matrix).run();
    assert_eq!(output.slices().len(), matrix.len());
    assert_eq!(
        top500_carbon::top500::record::clones_on_thread(),
        before,
        "masked sweep must not clone a single record"
    );
}

#[test]
fn session_intervals_match_serial_draw_plan_kernel() {
    // Both interval families of the session — operational and embodied —
    // must be bit-identical to the serial DrawPlan reference kernel over
    // the same footprints, for every scenario of the default matrix. The
    // operational bases are tagged with their global list index (the CRN
    // stream key), exactly as the session tags them.
    let list = generate_full(&SyntheticConfig {
        n: 150,
        seed: 0x5EED_CAFE,
        ..Default::default()
    });
    let matrix = default_scenario_matrix();
    let tool = EasyC::new();
    let plan = DrawPlan::new(200).with_confidence(0.9).with_seed(17);
    let session = Assessment::of(&list)
        .config(*tool.config())
        .scenarios(&matrix)
        .draw_plan(plan)
        .run();
    for scenario in matrix.scenarios() {
        let serial: Vec<SystemFootprint> = list
            .systems()
            .iter()
            .map(|s| tool.assess_scenario(s, scenario))
            .collect();
        let op_bases: Vec<_> = serial
            .iter()
            .enumerate()
            .filter_map(|(i, fp)| fp.operational.as_ref().ok().cloned().map(|op| (i, op)))
            .collect();
        assert_eq!(
            session.interval(&scenario.name),
            plan.operational_interval(&op_bases),
            "operational `{}`",
            scenario.name
        );
        let emb_bases: Vec<_> = serial
            .iter()
            .filter_map(|fp| fp.embodied.as_ref().ok().cloned())
            .collect();
        assert_eq!(
            session.embodied_interval(&scenario.name),
            plan.embodied_interval(&emb_bases),
            "embodied `{}`",
            scenario.name
        );
    }
}

#[test]
fn matrix_pass_equals_independent_session_passes() {
    let list = full_500();
    let matrix = scenario_matrix();
    let combined = Assessment::of(&list).scenarios(&matrix).run();
    assert_eq!(combined.slices().len(), matrix.len());
    for (slice, scenario) in combined.slices().iter().zip(matrix.scenarios()) {
        let independent = Assessment::of(&list)
            .scenario(scenario.clone())
            .run()
            .into_footprints();
        assert_bit_identical(&slice.footprints, &independent, &scenario.name);
        // Coverage read off the footprints must match the slice's report.
        assert_eq!(
            slice.coverage,
            top500_carbon::easyc::CoverageReport::from_footprints(&independent)
        );
    }
}

#[test]
fn masked_list_matches_masked_scenario_semantics() {
    // Masking the power column via the scenario must equal physically
    // removing it from the records.
    let list = full_500();
    let scenario = DataScenario::masked(
        "no-power",
        MetricMask::ALL
            .without(MetricBit::PowerKw)
            .without(MetricBit::AnnualEnergy),
    );
    let via_mask = Assessment::of(&list)
        .scenario(scenario)
        .run()
        .into_footprints();

    let mut stripped = list.clone();
    for record in stripped.systems_mut() {
        record.power_kw = None;
        record.annual_energy_mwh = None;
    }
    let via_records = Assessment::of(&stripped).run().into_footprints();
    assert_bit_identical(&via_mask, &via_records, "mask vs stripped records");
}

#[test]
fn pipeline_through_session_unchanged_from_serial_reference() {
    // The figure pipelines run on the session; their per-system numbers
    // must still equal a plain serial assessment of the same lists.
    let out = StudyPipeline::new(500, 0x5EED_CAFE).run();
    let tool = EasyC::new();
    for (list, results, label) in [
        (&out.baseline, &out.baseline_results, "baseline"),
        (&out.enriched, &out.enriched_results, "enriched"),
    ] {
        let serial: Vec<SystemFootprint> = list.systems().iter().map(|s| tool.assess(s)).collect();
        assert_bit_identical(&results.footprints, &serial, label);
        assert_eq!(
            results.coverage.operational,
            serial.iter().filter(|f| f.operational.is_ok()).count(),
            "{label} coverage"
        );
    }
}

#[test]
fn overrides_inside_stages_replace_rescaling() {
    // PUE override: linear in PUE, so direct application must scale the
    // footprint exactly, including on masked lists.
    let full = full_500();
    let masked = mask_baseline(&full, &MaskRates::default(), 7);
    let base = Assessment::of(&masked)
        .scenario(DataScenario::full("base"))
        .run()
        .into_footprints();
    let pue = Assessment::of(&masked)
        .scenario(DataScenario::full("pue").with_overrides(OverrideSet {
            pue: Some(2.0),
            ..OverrideSet::NONE
        }))
        .run()
        .into_footprints();
    for (b, o) in base.iter().zip(&pue) {
        match (&b.operational, &o.operational) {
            (Ok(b), Ok(o)) => {
                assert_eq!(o.pue, 2.0);
                let expected = b.mt_co2e / b.pue * 2.0;
                assert!(
                    (o.mt_co2e - expected).abs() <= 1e-9 * expected.abs().max(1.0),
                    "expected {expected}, got {}",
                    o.mt_co2e
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("override changed coverage: {other:?}"),
        }
    }
}

#[test]
fn utilization_override_regression_full_list() {
    // The seed's rescale hack skipped the override when the estimated
    // utilisation was exactly 1.0. The staged path applies it uniformly on
    // every non-measured-energy power path.
    let list = full_500();
    let overridden = Assessment::of(&list)
        .config(EasyCConfig {
            utilization_override: Some(0.5),
            ..Default::default()
        })
        .run()
        .into_footprints();
    for fp in &overridden {
        if let Ok(op) = &fp.operational {
            match op.path {
                top500_carbon::easyc::PowerPath::MeasuredEnergy => {
                    assert_eq!(op.utilization, 1.0, "rank {}", fp.rank)
                }
                _ => assert_eq!(op.utilization, 0.5, "rank {}", fp.rank),
            }
        }
    }
}

#[test]
fn columnar_frame_matches_typed_results() {
    let list = generate_full(&SyntheticConfig {
        n: 120,
        ..Default::default()
    });
    let matrix = scenario_matrix();
    let out = Assessment::of(&list).scenarios(&matrix).run();
    let df = out.to_frame();
    assert_eq!(df.len(), matrix.len() * list.len());
    let op = df.numeric("operational_mt").expect("operational column");
    let mut row = 0;
    for slice in out.slices() {
        for fp in &slice.footprints {
            assert_eq!(op[row], fp.operational_mt(), "row {row}");
            row += 1;
        }
    }
}
