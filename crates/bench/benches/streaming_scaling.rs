//! Streaming ingestion at fleet scale: the larger-than-memory proof and
//! its scaling knobs.
//!
//! The headline run streams a **one-million-system** synthetic fleet
//! through the incremental session under a two-scenario matrix without
//! ever materializing it — peak fleet residency is asserted to be one
//! chunk — and cross-checks the fold against the in-memory session on the
//! synthetic 500 (bit-identity). A second proof streams a 20k-row CSV with
//! the parser inline and behind [`Prefetched`], asserting identical folds.
//! Criterion groups then sweep chunk budget and worker count on a
//! 100k-system fleet, and time serial vs prefetched CSV ingest.

use bench::{banner, BENCH_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use easyc::scenario::{DataScenario, MetricBit, MetricMask, ScenarioMatrix};
use easyc::Assessment;
use std::io::Cursor;
use top500::io::{export_csv, stream_csv};
use top500::stream::{Prefetched, SyntheticChunks};
use top500::synthetic::{generate_full, SyntheticConfig};

fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .with(DataScenario::full("full"))
        .with(DataScenario::masked(
            "no-power",
            MetricMask::ALL
                .without(MetricBit::PowerKw)
                .without(MetricBit::AnnualEnergy),
        ))
}

fn config(n: u32) -> SyntheticConfig {
    SyntheticConfig {
        n,
        seed: BENCH_SEED,
        ..Default::default()
    }
}

/// Streams a 1M-system fleet once and asserts the memory model: exactly
/// one chunk resident, results folded, nothing materialized.
fn million_row_proof() {
    const FLEET: u32 = 1_000_000;
    const CHUNK: usize = 8_192;
    let workers = parallel::default_workers();
    let start = std::time::Instant::now();
    let output = Assessment::stream(SyntheticChunks::new(config(FLEET), CHUNK))
        .scenarios(&matrix())
        .workers(workers)
        .run()
        .expect("synthetic source cannot fail");
    let elapsed = start.elapsed();
    assert_eq!(output.systems(), FLEET as usize);
    assert_eq!(output.chunks(), (FLEET as usize).div_ceil(CHUNK));
    assert!(
        output.peak_chunk_rows() <= CHUNK,
        "peak resident chunk {} exceeds the {CHUNK}-row budget",
        output.peak_chunk_rows()
    );
    let full = output.slice("full").expect("scenario present");
    assert_eq!(full.coverage.total, FLEET as usize);
    assert!(full.operational_total_mt > 0.0);
    println!(
        "streamed {} systems x {} scenarios in {:.1}s ({} workers): \
         {} chunks, peak residency {} rows (fleet never materialized)",
        output.systems(),
        output.len(),
        elapsed.as_secs_f64(),
        workers,
        output.chunks(),
        output.peak_chunk_rows()
    );
    println!(
        "fleet totals: {:.2} M MT operational, {:.2} M MT embodied",
        full.operational_total_mt / 1e6,
        full.embodied_total_mt / 1e6
    );

    // Bit-identity spot check against the in-memory session (synthetic
    // 500) — the same pin tests/streaming.rs enforces, kept here so a
    // release bench run self-verifies.
    let list = generate_full(&config(500));
    let session = Assessment::of(&list).scenarios(&matrix()).run();
    let streamed = Assessment::stream(SyntheticChunks::new(config(500), 64))
        .scenarios(&matrix())
        .run()
        .unwrap();
    for (s, m) in streamed.slices().iter().zip(session.slices()) {
        let op: f64 = m
            .footprints
            .iter()
            .filter_map(|f| f.operational.as_ref().ok().map(|o| o.mt_co2e))
            .fold(0.0, |acc, v| acc + v);
        assert_eq!(s.coverage, m.coverage, "streamed coverage drifted");
        assert_eq!(s.operational_total_mt, op, "streamed totals drifted");
    }
    println!("bit-identity vs in-memory session on the synthetic 500: OK");
}

/// Serial vs overlapped ingest on an ingest-heavy workload: a Top500 CSV
/// (the quote-aware chunked parser is the expensive source) streamed
/// through the session once with the parser inline and once wrapped in
/// [`Prefetched`], which parses chunk k+1 on a background thread while the
/// engine assesses chunk k. Folds must be bit-identical; the wall-clock gap
/// is the parse latency the pipeline hides (expect ≈1× on a single
/// hardware thread, where parse and assess share one core, and up to
/// `1 + parse/assess` speedup once a spare core exists).
fn overlapped_ingest_proof() {
    const ROWS: u32 = 20_000;
    const CHUNK: usize = 2_048;
    let workers = parallel::default_workers();
    let bytes = export_csv(&generate_full(&config(ROWS))).into_bytes();
    let m = matrix();

    let start = std::time::Instant::now();
    let serial = Assessment::stream(stream_csv(Cursor::new(bytes.clone()), CHUNK))
        .scenarios(&m)
        .workers(workers)
        .run()
        .expect("serial CSV stream");
    let serial_time = start.elapsed();

    let source = Prefetched::new(stream_csv(Cursor::new(bytes.clone()), CHUNK));
    let probe = source.probe();
    let start = std::time::Instant::now();
    let overlapped = Assessment::stream(source)
        .scenarios(&m)
        .workers(workers)
        .run()
        .expect("overlapped CSV stream");
    let overlapped_time = start.elapsed();

    assert_eq!(serial.systems(), overlapped.systems());
    assert_eq!(serial.chunks(), overlapped.chunks());
    for (a, b) in serial.slices().iter().zip(overlapped.slices()) {
        assert_eq!(a.coverage, b.coverage, "overlapped fold drifted");
        assert_eq!(a.operational_total_mt, b.operational_total_mt);
        assert_eq!(a.embodied_total_mt, b.embodied_total_mt);
    }
    assert!(
        probe.peak_ahead() <= 1,
        "prefetcher ran {} chunks ahead of the double-buffer bound",
        probe.peak_ahead()
    );
    println!(
        "ingest-bound CSV sweep, {ROWS} rows x {} scenarios ({} workers): \
         serial {:.2}s, overlapped {:.2}s ({:.2}x; prefetcher peak {} chunk ahead)",
        m.len(),
        workers,
        serial_time.as_secs_f64(),
        overlapped_time.as_secs_f64(),
        serial_time.as_secs_f64() / overlapped_time.as_secs_f64().max(1e-9),
        probe.peak_ahead()
    );
}

fn bench_streaming(c: &mut Criterion) {
    banner(
        "Streaming ingestion",
        "larger-than-memory sweeps: chunked synthetic fleets through the incremental session",
    );
    million_row_proof();
    overlapped_ingest_proof();

    const BENCH_FLEET: u32 = 100_000;
    let workers = parallel::default_workers();
    let m = matrix();

    // Chunk-budget sweep: how much chunking overhead does bounded memory
    // cost at a fixed worker count?
    let mut group = c.benchmark_group("streaming/sweep_100k_by_chunk_rows");
    group.throughput(Throughput::Elements(2 * u64::from(BENCH_FLEET)));
    for chunk_rows in [1_024usize, 8_192, 65_536] {
        group.bench_with_input(
            BenchmarkId::from_parameter(chunk_rows),
            &chunk_rows,
            |b, &rows| {
                b.iter(|| {
                    Assessment::stream(SyntheticChunks::new(config(BENCH_FLEET), rows))
                        .scenarios(std::hint::black_box(&m))
                        .workers(workers)
                        .run()
                        .unwrap()
                })
            },
        );
    }
    group.finish();

    // Worker sweep at a fixed chunk budget: the per-chunk (scenario ×
    // sub-chunk) plan must keep every worker busy.
    let mut group = c.benchmark_group("streaming/sweep_100k_by_workers");
    group.throughput(Throughput::Elements(2 * u64::from(BENCH_FLEET)));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                Assessment::stream(SyntheticChunks::new(config(BENCH_FLEET), 8_192))
                    .scenarios(std::hint::black_box(&m))
                    .workers(w)
                    .run()
                    .unwrap()
            })
        });
    }
    group.finish();

    // Serial vs overlapped ingest on an ingest-heavy (CSV-parsing) source:
    // the Prefetched arm hides the chunk parse behind assessment.
    const CSV_FLEET: u32 = 20_000;
    let bytes = export_csv(&generate_full(&config(CSV_FLEET))).into_bytes();
    let mut group = c.benchmark_group("streaming/csv_20k_ingest");
    group.throughput(Throughput::Elements(2 * u64::from(CSV_FLEET)));
    group.bench_function("serial", |b| {
        b.iter(|| {
            Assessment::stream(stream_csv(Cursor::new(bytes.clone()), 2_048))
                .scenarios(std::hint::black_box(&m))
                .workers(workers)
                .run()
                .unwrap()
        })
    });
    group.bench_function("overlapped", |b| {
        b.iter(|| {
            Assessment::stream(Prefetched::new(stream_csv(
                Cursor::new(bytes.clone()),
                2_048,
            )))
            .scenarios(std::hint::black_box(&m))
            .workers(workers)
            .run()
            .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_streaming
}
criterion_main!(benches);
