//! Monte-Carlo uncertainty at fleet scale: the DrawPlan phase under
//! (draws × scenarios) load, serial vs pooled draw folding, and a
//! self-verifying proof of the common-random-numbers tightness claim.
//!
//! The preamble asserts the CRN contract in release mode — the paired
//! `compare` interval on the synthetic 500 is strictly tighter than the
//! naive independent-band difference, and the streamed fold reproduces the
//! in-memory delta bit for bit. Criterion groups then sweep draw count and
//! matrix width on a 2 000-system fleet, and pit the serial one-worker
//! fold against the pooled (scenario × draw-chunk) plan.

use bench::{banner, BENCH_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use easyc::scenario::{DataScenario, MetricBit, MetricMask, OverrideSet, ScenarioMatrix};
use easyc::{Assessment, DrawPlan, Interval};
use top500::stream::SyntheticChunks;
use top500::synthetic::{generate_full, SyntheticConfig};

fn config(n: u32) -> SyntheticConfig {
    SyntheticConfig {
        n,
        seed: BENCH_SEED,
        ..Default::default()
    }
}

/// A matrix of the given width: `full` plus masked/override variants.
fn matrix(scenarios: usize) -> ScenarioMatrix {
    let variants = [
        DataScenario::masked(
            "no-power",
            MetricMask::ALL
                .without(MetricBit::PowerKw)
                .without(MetricBit::AnnualEnergy),
        ),
        DataScenario::full("clean-grid").with_overrides(OverrideSet {
            aci_g_per_kwh: Some(50.0),
            ..OverrideSet::NONE
        }),
        DataScenario::masked(
            "no-structure",
            MetricMask::ALL
                .without(MetricBit::Nodes)
                .without(MetricBit::Gpus)
                .without(MetricBit::Cpus),
        ),
        DataScenario::full("site-pue").with_overrides(OverrideSet {
            pue: Some(1.1),
            ..OverrideSet::NONE
        }),
    ];
    let mut m = ScenarioMatrix::new().with(DataScenario::full("full"));
    for v in variants.into_iter().take(scenarios.saturating_sub(1)) {
        m.push(v);
    }
    m
}

/// Asserts the CRN tightness claim and in-memory/streamed delta
/// bit-identity on the synthetic 500 — the bench self-verifies the
/// contract it measures.
fn crn_tightness_proof() {
    const DRAWS: usize = 1_000;
    let list = generate_full(&config(500));
    let plan = DrawPlan::new(DRAWS)
        .with_confidence(0.9)
        .with_seed(BENCH_SEED);
    let start = std::time::Instant::now();
    let output = Assessment::of(&list)
        .scenarios(&matrix(3))
        .workers(parallel::default_workers())
        .draw_plan(plan)
        .run();
    let elapsed = start.elapsed();
    for variant in ["no-power", "clean-grid"] {
        let paired = output
            .compare("full", variant)
            .and_then(|d| d.operational)
            .expect("paired operational delta");
        let naive = Interval::independent_difference(
            &output.interval(variant).expect("variant interval"),
            &output.interval("full").expect("baseline interval"),
        );
        assert!(
            paired.width() < naive.width(),
            "{variant}: paired {} not tighter than naive {}",
            paired.width(),
            naive.width()
        );
        println!(
            "{variant:>11} − full: paired op delta {:+.0} MT [{:+.0}, {:+.0}] — \
             {:.1}x tighter than the independent-band difference",
            paired.point,
            paired.lo,
            paired.hi,
            naive.width() / paired.width().max(1e-9)
        );
    }
    let streamed = Assessment::stream(SyntheticChunks::new(config(500), 64))
        .scenarios(&matrix(3))
        .draw_plan(plan)
        .run()
        .expect("synthetic source cannot fail");
    assert_eq!(
        streamed.compare("full", "no-power"),
        output.compare("full", "no-power"),
        "streamed delta drifted from the in-memory session"
    );
    println!(
        "CRN proof: 500 systems x 3 scenarios x {DRAWS} draws in {:.2}s; \
         streamed compare bit-identical: OK",
        elapsed.as_secs_f64()
    );
}

fn bench_uncertainty(c: &mut Criterion) {
    banner(
        "Uncertainty scaling",
        "DrawPlan Monte-Carlo phase: draws x scenarios sweeps, serial vs pooled folding",
    );
    crn_tightness_proof();

    const FLEET: u32 = 2_000;
    let list = generate_full(&config(FLEET));
    let workers = parallel::default_workers();

    // Draw-count sweep at a fixed two-scenario matrix: the phase is
    // O(draws × estimable systems × scenarios) RNG evaluations.
    let mut group = c.benchmark_group("uncertainty/draws_2k_fleet");
    let m = matrix(2);
    for draws in [256usize, 1_024, 4_096] {
        group.throughput(Throughput::Elements(draws as u64));
        group.bench_with_input(BenchmarkId::from_parameter(draws), &draws, |b, &draws| {
            b.iter(|| {
                Assessment::of(std::hint::black_box(&list))
                    .scenarios(&m)
                    .workers(workers)
                    .uncertainty(draws)
                    .seed(BENCH_SEED)
                    .run()
            })
        });
    }
    group.finish();

    // Matrix-width sweep at fixed draws: wide matrices share one phase and
    // one extraction, so cost should grow sublinearly with scenarios.
    let mut group = c.benchmark_group("uncertainty/scenarios_2k_fleet");
    for scenarios in [1usize, 2, 5] {
        let m = matrix(scenarios);
        group.throughput(Throughput::Elements(scenarios as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(scenarios),
            &scenarios,
            |b, _| {
                b.iter(|| {
                    Assessment::of(std::hint::black_box(&list))
                        .scenarios(&m)
                        .workers(workers)
                        .uncertainty(1_024)
                        .seed(BENCH_SEED)
                        .run()
                })
            },
        );
    }
    group.finish();

    // Serial vs pooled folding of the same plan: one worker runs the
    // draws inline on the calling thread; the pooled arm interleaves
    // (scenario × draw-chunk) items. Results are bit-identical (pinned by
    // tests); the gap is the parallel speedup of the phase.
    let m = matrix(3);
    let mut group = c.benchmark_group("uncertainty/fold_2k_fleet_3_scenarios");
    group.throughput(Throughput::Elements(2_048));
    group.bench_function("serial", |b| {
        b.iter(|| {
            Assessment::of(std::hint::black_box(&list))
                .scenarios(&m)
                .workers(1)
                .uncertainty(2_048)
                .seed(BENCH_SEED)
                .run()
        })
    });
    group.bench_function("pooled", |b| {
        b.iter(|| {
            Assessment::of(std::hint::black_box(&list))
                .scenarios(&m)
                .workers(workers)
                .uncertainty(2_048)
                .seed(BENCH_SEED)
                .run()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_uncertainty
}
criterion_main!(benches);
