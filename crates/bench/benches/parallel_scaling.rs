//! Ablation: worker-count scaling of the parallel substrate on the
//! assessment workload (DESIGN.md calls out the build-vs-rayon decision —
//! this bench is the evidence the substrate scales).

use bench::BENCH_SEED;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use easyc::scenario::{DataScenario, MetricBit, MetricMask, ScenarioMatrix};
use easyc::Assessment;
use top500::synthetic::{generate_full, SyntheticConfig};

fn bench_scaling(c: &mut Criterion) {
    let list = generate_full(&SyntheticConfig {
        n: 20_000,
        seed: BENCH_SEED,
        ..Default::default()
    });

    // The session is the hot path behind every list-scale assessment.
    let mut group = c.benchmark_group("parallel/assess_20k_by_workers");
    group.throughput(Throughput::Elements(list.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                Assessment::of(std::hint::black_box(&list))
                    .workers(w)
                    .run()
                    .into_footprints()
            })
        });
    }
    group.finish();

    // Scenario-matrix scaling: three scenarios over the 20k list in one
    // session, by worker count. All (scenario × chunk) work items
    // interleave in one parallel phase — this is the scheduler the
    // ROADMAP's "single-pass matrix stages" item asked for — and the masks
    // apply as zero-copy FleetView lenses (no record clones).
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
        ));
    let mut group = c.benchmark_group("parallel/session_matrix_20k_x3_by_workers");
    group.throughput(Throughput::Elements((3 * list.len()) as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                Assessment::of(std::hint::black_box(&list))
                    .workers(w)
                    .scenarios(std::hint::black_box(&matrix))
                    .run()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scaling
}
criterion_main!(benches);
