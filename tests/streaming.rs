//! Acceptance tests for streaming ingestion + incremental sessions.
//!
//! The contract under test: a streamed sweep — CSV chunks, synthetic
//! chunks, or a re-chunked in-memory list — folds to results that are
//! **bit-identical** to the in-memory session over the same systems
//! (coverage counts, fleet totals, operational and embodied intervals),
//! while never holding more than one chunk of the fleet.

use top500_carbon::analysis::fleet::summarize;
use top500_carbon::analysis::report::SweepCsvWriter;
use top500_carbon::easyc::{
    Assessment, AssessmentOutput, DataScenario, MetricBit, MetricMask, ScenarioMatrix, StreamOutput,
};
use top500_carbon::frame;
use top500_carbon::top500::io::{export_csv, stream_csv};
use top500_carbon::top500::stream::{FleetChunks, InMemoryChunks, Prefetched, SyntheticChunks};
use top500_carbon::top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

const SEED: u64 = 0x5EED_CAFE;

fn synthetic_500() -> top500_carbon::top500::list::Top500List {
    generate_full(&SyntheticConfig {
        n: 500,
        seed: SEED,
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
        .with(DataScenario::masked(
            "no-structure",
            MetricMask::ALL
                .without(MetricBit::Nodes)
                .without(MetricBit::Gpus)
                .without(MetricBit::Cpus),
        ))
}

/// Asserts a streamed output folds to exactly what the in-memory session
/// reports: per-scenario coverage, sequential-sum totals, both interval
/// families.
fn assert_stream_matches_session(streamed: &StreamOutput, session: &AssessmentOutput, what: &str) {
    assert_eq!(streamed.len(), session.len(), "{what}: scenario count");
    for (s, m) in streamed.slices().iter().zip(session.slices()) {
        assert_eq!(s.scenario.name, m.scenario.name, "{what}");
        assert_eq!(
            s.coverage, m.coverage,
            "{what}: coverage `{}`",
            s.scenario.name
        );
        let mut op = 0.0;
        let mut emb = 0.0;
        for fp in &m.footprints {
            if let Ok(o) = &fp.operational {
                op += o.mt_co2e;
            }
            if let Ok(e) = &fp.embodied {
                emb += e.mt_co2e;
            }
        }
        assert_eq!(
            s.operational_total_mt, op,
            "{what}: operational total `{}`",
            s.scenario.name
        );
        assert_eq!(
            s.embodied_total_mt, emb,
            "{what}: embodied total `{}`",
            s.scenario.name
        );
        let name = s.scenario.name.as_str();
        assert_eq!(
            s.interval,
            session.interval(name),
            "{what}: interval `{name}`"
        );
        assert_eq!(
            s.embodied_interval,
            session.embodied_interval(name),
            "{what}: embodied interval `{name}`"
        );
    }
}

#[test]
fn streamed_synthetic_500_bit_identical_to_in_memory_session() {
    // The acceptance pin: the synthetic 500, streamed at several chunk
    // budgets (including chunk = 1 row and chunk > fleet), folds to
    // bit-identical results — with Monte-Carlo intervals on.
    let list = synthetic_500();
    let session = Assessment::of(&list)
        .scenarios(&matrix())
        .uncertainty(120)
        .confidence(0.9)
        .seed(17)
        .run();
    for chunk_rows in [1usize, 37, 128, 500, 4096] {
        let streamed = Assessment::stream(SyntheticChunks::new(
            SyntheticConfig {
                n: 500,
                seed: SEED,
                ..Default::default()
            },
            chunk_rows,
        ))
        .scenarios(&matrix())
        .uncertainty(120)
        .confidence(0.9)
        .seed(17)
        .run()
        .expect("synthetic source cannot fail");
        assert_eq!(streamed.systems(), 500, "rows {chunk_rows}");
        assert!(
            streamed.peak_chunk_rows() <= chunk_rows,
            "rows {chunk_rows}: peak {} exceeds the chunk budget",
            streamed.peak_chunk_rows()
        );
        assert_stream_matches_session(&streamed, &session, &format!("rows {chunk_rows}"));
    }
}

#[test]
fn streamed_csv_bit_identical_to_in_memory_import() {
    // End-to-end through the quote-aware chunked CSV reader: a masked
    // fleet (realistic missingness, quoted names with commas) exported to
    // CSV, streamed back in bounded chunks, must assess identically to
    // the in-memory import + session.
    let full = generate_full(&SyntheticConfig {
        n: 200,
        seed: SEED,
        ..Default::default()
    });
    let mut masked = mask_baseline(&full, &MaskRates::default(), 3);
    masked.systems_mut()[0].name = Some("MareNostrum 5, ACC".into());
    masked.systems_mut()[1].name = Some("say \"hi\"".into());
    let text = export_csv(&masked);
    let session = Assessment::of(&masked)
        .scenarios(&matrix())
        .uncertainty(60)
        .seed(5)
        .run();
    for chunk_rows in [1usize, 33, 200, 1000] {
        let streamed = Assessment::stream(stream_csv(text.as_bytes(), chunk_rows))
            .scenarios(&matrix())
            .uncertainty(60)
            .seed(5)
            .run()
            .expect("CSV stream");
        assert_eq!(streamed.systems(), 200);
        assert!(streamed.peak_chunk_rows() <= chunk_rows);
        assert_stream_matches_session(&streamed, &session, &format!("csv rows {chunk_rows}"));
    }
}

#[test]
fn streamed_analysis_sweep_bit_identical_to_in_memory_summaries() {
    let list = synthetic_500();
    let in_memory = summarize(&Assessment::of(&list).scenarios(&matrix()).run());
    let streamed = summarize(
        &Assessment::stream(InMemoryChunks::new(&list, 64))
            .scenarios(&matrix())
            .run()
            .expect("in-memory chunks cannot fail"),
    );
    assert_eq!(streamed, in_memory);
}

#[test]
fn streaming_memory_is_bounded_by_chunk_not_fleet() {
    // Ten chunks of 100 make a 1000-system fleet; the session must never
    // report more than one chunk resident.
    let streamed = Assessment::stream(SyntheticChunks::new(
        SyntheticConfig {
            n: 1000,
            seed: SEED,
            ..Default::default()
        },
        100,
    ))
    .scenarios(&matrix())
    .run()
    .unwrap();
    assert_eq!(streamed.systems(), 1000);
    assert_eq!(streamed.chunks(), 10);
    assert_eq!(streamed.peak_chunk_rows(), 100);
}

#[test]
fn csv_stream_error_surfaces_through_the_session() {
    let text = "rank,rmax_tflops\n1,100\n2,oops\n3,50\n";
    let err = Assessment::stream(stream_csv(text.as_bytes(), 1))
        .scenarios(&matrix())
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("row 1"), "{err}");
}

#[test]
fn streamed_out_artifact_byte_identical_to_in_memory_artifact() {
    // The `sweep --stream --out` acceptance pin: per-(scenario, system)
    // rows spilled chunk-by-chunk through the prefetched CSV pipeline must
    // assemble into *exactly* the CSV the in-memory `sweep --out` path
    // writes (`AssessmentOutput::to_frame` + `frame::csv::write`) — while
    // pipeline residency never exceeds two chunks (the one being assessed
    // plus the one the prefetcher holds).
    let full = generate_full(&SyntheticConfig {
        n: 160,
        seed: SEED,
        ..Default::default()
    });
    let mut masked = mask_baseline(&full, &MaskRates::default(), 3);
    masked.systems_mut()[0].name = Some("MareNostrum 5, ACC".into());
    masked.systems_mut()[1].name = Some("say \"hi\"".into());
    let text = export_csv(&masked);
    let expected = frame::csv::write(
        &Assessment::of(&masked)
            .scenarios(&matrix())
            .run()
            .to_frame(),
    );
    for chunk_rows in [1usize, 33, 160, 1000] {
        let target = std::env::temp_dir().join(format!(
            "stream-out-parity-{}-{chunk_rows}.csv",
            std::process::id()
        ));
        let mut writer = SweepCsvWriter::create(&target, matrix().len()).unwrap();
        // `Prefetched` needs an owned (`'static`) source; an in-memory
        // cursor over the exported bytes stands in for a file reader.
        let source = Prefetched::new(stream_csv(
            std::io::Cursor::new(text.clone().into_bytes()),
            chunk_rows,
        ));
        let probe = source.probe();
        let streamed = Assessment::stream(source)
            .scenarios(&matrix())
            .rows(|block| writer.append(&block))
            .run()
            .expect("CSV stream");
        writer.finish().unwrap();
        assert_eq!(streamed.systems(), 160);
        assert!(
            streamed.peak_chunk_rows() <= chunk_rows,
            "rows {chunk_rows}: consumer residency"
        );
        assert!(
            probe.peak_ahead() <= 1,
            "rows {chunk_rows}: prefetcher ran {} chunks ahead",
            probe.peak_ahead()
        );
        let written = std::fs::read_to_string(&target).unwrap();
        assert_eq!(written, expected, "rows {chunk_rows}");
        std::fs::remove_file(&target).ok();
    }
}

/// Streams `source()` once inline and once behind [`Prefetched`]:
/// overlapping ingest with assessment must change throughput only. Fold
/// results (totals, coverage, both interval families) are bit-identical to
/// the serial source, and the double buffer never holds more than one
/// chunk ahead of the consumer.
fn assert_prefetched_matches_serial<S>(source: impl Fn() -> S, what: &str)
where
    S: FleetChunks + Send + 'static,
    S::Error: Send + std::fmt::Debug,
{
    let serial = Assessment::stream(source())
        .scenarios(&matrix())
        .uncertainty(60)
        .seed(5)
        .run()
        .unwrap();
    let prefetched = Prefetched::new(source());
    let probe = prefetched.probe();
    let overlapped = Assessment::stream(prefetched)
        .scenarios(&matrix())
        .uncertainty(60)
        .seed(5)
        .run()
        .unwrap();
    assert_eq!(overlapped.systems(), serial.systems(), "{what}");
    assert_eq!(overlapped.chunks(), serial.chunks(), "{what}");
    assert_eq!(
        overlapped.peak_chunk_rows(),
        serial.peak_chunk_rows(),
        "{what}"
    );
    assert_eq!(probe.chunks_parsed(), serial.chunks(), "{what}");
    assert_eq!(probe.chunks_delivered(), serial.chunks(), "{what}");
    assert!(
        probe.peak_ahead() <= 1,
        "{what}: prefetcher ran {} chunks ahead",
        probe.peak_ahead()
    );
    for (a, b) in serial.slices().iter().zip(overlapped.slices()) {
        assert_eq!(a.coverage, b.coverage, "{what}");
        assert_eq!(a.operational_total_mt, b.operational_total_mt, "{what}");
        assert_eq!(a.embodied_total_mt, b.embodied_total_mt, "{what}");
        assert_eq!(a.interval, b.interval, "{what}");
        assert_eq!(a.embodied_interval, b.embodied_interval, "{what}");
    }
}

#[test]
fn prefetched_stream_bit_identical_to_serial_stream_with_bounded_residency() {
    // Both ingest sources: the synthetic generator, and the CSV reader
    // whose parse is the work the prefetcher exists to hide.
    let config = SyntheticConfig {
        n: 500,
        seed: SEED,
        ..Default::default()
    };
    assert_prefetched_matches_serial(|| SyntheticChunks::new(config, 64), "synthetic");
    let csv = export_csv(&generate_full(&config)).into_bytes();
    assert_prefetched_matches_serial(|| stream_csv(std::io::Cursor::new(csv.clone()), 64), "csv");
}

#[test]
fn row_sink_blocks_arrive_in_deterministic_scenario_major_order_per_chunk() {
    let list = generate_full(&SyntheticConfig {
        n: 50,
        seed: SEED,
        ..Default::default()
    });
    let mut seen: Vec<(usize, usize, usize)> = Vec::new(); // (chunk, scenario, rows)
    Assessment::stream(InMemoryChunks::new(&list, 20))
        .scenarios(&matrix())
        .rows(|block| {
            assert_eq!(
                block.scenario.name,
                matrix().scenarios()[block.scenario_index].name
            );
            seen.push((
                block.chunk_index,
                block.scenario_index,
                block.footprints.len(),
            ));
        })
        .run()
        .unwrap();
    let expected: Vec<(usize, usize, usize)> = (0..3usize)
        .flat_map(|chunk| {
            (0..3usize).map(move |scenario| (chunk, scenario, if chunk == 2 { 10 } else { 20 }))
        })
        .collect();
    assert_eq!(seen, expected);
}

#[test]
#[ignore = "one million systems: a release-mode scale run"]
fn a_million_system_stream_holds_one_chunk_at_a_time() {
    // The larger-than-memory proof at scale: a million synthetic systems
    // under a two-scenario matrix fold chunk by chunk, and no more than
    // one 8,192-row chunk of the fleet is ever resident.
    const FLEET: u32 = 1_000_000;
    const CHUNK: usize = 8_192;
    let matrix = ScenarioMatrix::new()
        .with(DataScenario::full("full"))
        .with(DataScenario::masked(
            "no-power",
            MetricMask::ALL
                .without(MetricBit::PowerKw)
                .without(MetricBit::AnnualEnergy),
        ));
    let config = SyntheticConfig {
        n: FLEET,
        seed: SEED,
        ..Default::default()
    };
    let output = Assessment::stream(SyntheticChunks::new(config, CHUNK))
        .scenarios(&matrix)
        .run()
        .expect("synthetic source cannot fail");
    assert_eq!(output.systems(), FLEET as usize);
    assert_eq!(output.chunks(), 123);
    assert!(
        output.peak_chunk_rows() <= CHUNK,
        "peak resident chunk {} exceeds the {CHUNK}-row budget",
        output.peak_chunk_rows()
    );
    let full = output.slice("full").expect("scenario present");
    assert_eq!(full.coverage.total, FLEET as usize);
    assert!(full.operational_total_mt > 0.0);
}
