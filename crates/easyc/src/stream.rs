//! Streamed assessment over a chunked fleet source — the
//! larger-than-memory source of the [`Assessment`] plan.
//!
//! ```text
//! Assessment::stream(source)       any top500::stream::FleetChunks
//!     .scenarios(&matrix)          the same builder as every other source
//!     .workers(8)
//!     .uncertainty(1000)
//!     .rows(sink)                  optional per-(scenario × chunk) rows
//!     .run()?                      -> AssessmentOutput (no footprints kept)
//! ```
//!
//! Each pulled chunk is one block of the session engine (see
//! [`crate::session`]): metric extraction, interleaved (scenario ×
//! sub-range) assessment items in one parallel phase, the fold into running
//! per-scenario [`PartialAssessment`](crate::partial::PartialAssessment)s
//! at the chunk's first global row, then (scenario × draw-chunk)
//! Monte-Carlo items at that same offset — all before the next chunk is
//! pulled. At any instant the run holds **one** fleet chunk (plus
//! per-scenario draw buffers of `draws` floats), so peak memory is set by
//! the source's chunk budget, not the fleet size;
//! [`AssessmentOutput::peak_chunk_rows`] reports the high-water mark so
//! callers (and the streaming bench) can assert the bound. Wrapping the
//! source in [`top500::stream::Prefetched`] overlaps parsing of chunk k+1
//! with the assessment of chunk k on a dedicated background thread
//! (residency rises to at most **two** chunks — one being assessed, one
//! prefetched).
//!
//! Per-system results fold away with the chunk, so a streamed output's
//! slices carry coverage, totals and intervals but no footprints. To keep
//! them — e.g. to spill a full per-(scenario, system) columnar artifact to
//! disk at bounded memory — attach a [`RowSink`] with `rows`: it receives
//! every [`ChunkRows`] block (matrix order within each chunk) before the
//! chunk is dropped.
//!
//! # Bit-identity with the in-memory session
//!
//! The fold is *bit-identical* to running the session over the
//! concatenation of all chunks (pinned by `tests/streaming.rs` and
//! proptests), because it *is* the same engine: the same columnar kernels
//! over the same [`FleetView`](crate::view::FleetView) lenses, one
//! single-consumer partial per scenario extended block after adjacent
//! block (so the absorb is the left fold `Iterator::sum` performs — see
//! [`crate::partial`]), and Monte-Carlo terms keyed by each system's
//! *global row index* (scenario- and chunk-independent — the
//! common-random-numbers key).

use crate::estimator::{EasyCConfig, SystemFootprint};
use crate::scenario::DataScenario;
use crate::session::{Assessment, AssessmentOutput};
use top500::stream::FleetChunks;

/// One (scenario × chunk) block of per-system results, handed to a row
/// sink (see [`RowSink`]) *before* the chunk is folded and dropped. Blocks
/// arrive in deterministic order: for each non-empty pulled chunk, every
/// scenario in matrix order. A sink that spills each scenario's blocks to
/// its own buffer and concatenates them in matrix order reconstructs
/// exactly the scenario-major
/// [`AssessmentOutput::to_frame`] row order of the in-memory session.
pub struct ChunkRows<'a> {
    /// Position of the scenario in the matrix (0-based).
    pub scenario_index: usize,
    /// The scenario these rows were assessed under (display form, as
    /// labelled in the matrix — the same name the in-memory frame carries).
    pub scenario: &'a DataScenario,
    /// 0-based index of the source chunk these rows came from.
    pub chunk_index: usize,
    /// Per-system footprints of this chunk under this scenario, rank
    /// order — bit-identical to the same rows of the in-memory session.
    pub footprints: &'a [SystemFootprint],
}

/// The per-block row callback of a streamed run.
pub type RowSink<'sink> = Box<dyn FnMut(ChunkRows<'_>) + 'sink>;

/// The chunk source of a streamed [`Assessment`]: a
/// [`top500::stream::FleetChunks`] plus the optional row sink. Construct
/// with [`Assessment::stream`]. The `'sink` lifetime bounds the sink and is
/// inferred — runs without a sink are unconstrained.
pub struct Chunked<'sink, S> {
    source: S,
    sink: Option<RowSink<'sink>>,
}

/// The output of a streamed run: the one [`AssessmentOutput`] every source
/// returns (its slices keep no footprints).
pub type StreamOutput = AssessmentOutput;

impl<'sink, S: FleetChunks> Assessment<Chunked<'sink, S>> {
    /// Incremental session over a chunked fleet source — the
    /// larger-than-memory mode. Per-chunk results fold into running
    /// totals, coverage counts and fleet intervals without ever holding
    /// the full fleet; see [`crate::stream`]. Wrap the source in
    /// [`top500::stream::Prefetched`] to parse the next chunk on a
    /// background thread while the engine assesses the current one.
    ///
    /// ```
    /// use easyc::Assessment;
    /// use top500::stream::SyntheticChunks;
    /// use top500::synthetic::SyntheticConfig;
    ///
    /// // Stream a 100-system synthetic fleet in 16-row chunks: totals and
    /// // coverage fold incrementally, so only one chunk is ever resident.
    /// let source = SyntheticChunks::new(
    ///     SyntheticConfig { n: 100, ..Default::default() },
    ///     16,
    /// );
    /// let output = Assessment::stream(source)
    ///     .workers(2)
    ///     .run()
    ///     .expect("synthetic sources cannot fail");
    /// let slice = &output.slices()[0];
    /// assert_eq!(output.systems(), 100);
    /// assert_eq!(slice.coverage.total, 100);
    /// assert!(slice.operational_total_mt > 0.0);
    /// assert!(slice.footprints.is_empty());
    /// assert!(output.peak_chunk_rows() <= 16);
    /// ```
    pub fn stream(source: S) -> Assessment<Chunked<'sink, S>> {
        Assessment::with_source(Chunked { source, sink: None }, EasyCConfig::default())
    }

    /// Attaches a per-(scenario × chunk) row sink: `sink` is called with
    /// every [`ChunkRows`] block right after the chunk is assessed and
    /// before it is dropped, so per-system results can be spilled to disk
    /// (or anywhere else) without the run ever holding more than one chunk
    /// of them. This is what `sweep --stream --out` builds its
    /// byte-identical columnar artifact on — see
    /// `analysis::report::SweepCsvWriter` in the `analysis` crate.
    pub fn rows<F>(mut self, sink: F) -> Assessment<Chunked<'sink, S>>
    where
        F: FnMut(ChunkRows<'_>) + 'sink,
    {
        self.source.sink = Some(Box::new(sink));
        self
    }

    /// Pulls every chunk from the source, runs it as one engine block,
    /// hands its rows to the sink, and returns the per-scenario roll-up.
    /// Stops at the source's first error.
    pub fn run(self) -> Result<AssessmentOutput, S::Error> {
        let (
            Chunked {
                mut source,
                mut sink,
            },
            mut engine,
        ) = self.into_parts();
        let mut chunk_index = 0;
        while let Some(next) = source.next_chunk() {
            let list = next?;
            let blocks = engine.run_block(&list, None);
            if let Some(sink) = sink.as_mut().filter(|_| !list.is_empty()) {
                for (scenario_index, (scenario, footprints)) in
                    engine.scenarios().iter().zip(&blocks).enumerate()
                {
                    sink(ChunkRows {
                        scenario_index,
                        scenario,
                        chunk_index,
                        footprints,
                    });
                }
            }
            chunk_index += 1;
            // `list` and its footprints drop here — nothing of the chunk
            // survives into the next pull.
        }
        Ok(engine.finish(Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{DataScenario, MetricBit, MetricMask, ScenarioMatrix};
    use crate::session::{Assessment, AssessmentOutput};
    use top500::stream::{FleetChunks, InMemoryChunks, SyntheticChunks};
    use top500::synthetic::{generate_full, SyntheticConfig};
    use top500::Top500List;

    fn list(n: u32) -> Top500List {
        generate_full(&SyntheticConfig {
            n,
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
    }

    /// Folds an in-memory output the way the stream does, for comparison.
    fn fold_in_memory(output: &AssessmentOutput) -> Vec<(usize, usize, f64, f64)> {
        output
            .slices()
            .iter()
            .map(|slice| {
                let mut op = 0.0;
                let mut emb = 0.0;
                for fp in &slice.footprints {
                    if let Ok(o) = &fp.operational {
                        op += o.mt_co2e;
                    }
                    if let Ok(e) = &fp.embodied {
                        emb += e.mt_co2e;
                    }
                }
                (slice.coverage.operational, slice.coverage.embodied, op, emb)
            })
            .collect()
    }

    #[test]
    fn streamed_fold_bit_identical_to_in_memory_session() {
        let list = list(90);
        let in_memory = Assessment::of(&list)
            .scenarios(&matrix())
            .uncertainty(80)
            .confidence(0.9)
            .seed(11)
            .run();
        let expected = fold_in_memory(&in_memory);
        for chunk_rows in [1usize, 7, 33, 90, 512] {
            let streamed = Assessment::stream(InMemoryChunks::new(&list, chunk_rows))
                .scenarios(&matrix())
                .uncertainty(80)
                .confidence(0.9)
                .seed(11)
                .run()
                .unwrap();
            assert_eq!(streamed.systems(), 90);
            assert!(streamed.peak_chunk_rows() <= chunk_rows.max(1));
            for (slice, (op_cov, emb_cov, op, emb)) in streamed.slices().iter().zip(&expected) {
                assert_eq!(slice.coverage.operational, *op_cov, "rows {chunk_rows}");
                assert_eq!(slice.coverage.embodied, *emb_cov, "rows {chunk_rows}");
                assert_eq!(slice.operational_total_mt, *op, "rows {chunk_rows}");
                assert_eq!(slice.embodied_total_mt, *emb, "rows {chunk_rows}");
                let name = slice.scenario.name.as_str();
                assert_eq!(
                    slice.interval,
                    in_memory.interval(name),
                    "rows {chunk_rows}"
                );
                assert_eq!(
                    slice.embodied_interval,
                    in_memory.embodied_interval(name),
                    "rows {chunk_rows}"
                );
            }
        }
    }

    #[test]
    fn streamed_results_independent_of_workers_and_granularity() {
        let list = list(60);
        let run = |workers, rows| {
            Assessment::stream(InMemoryChunks::new(&list, rows))
                .scenarios(&matrix())
                .workers(workers)
                .uncertainty(50)
                .seed(3)
                .run()
                .unwrap()
        };
        let reference = run(1, 60);
        for (workers, rows) in [(2, 13), (4, 7), (8, 1)] {
            let got = run(workers, rows);
            for (a, b) in reference.slices().iter().zip(got.slices()) {
                assert_eq!(a.operational_total_mt, b.operational_total_mt);
                assert_eq!(a.embodied_total_mt, b.embodied_total_mt);
                assert_eq!(a.interval, b.interval, "workers {workers} rows {rows}");
                assert_eq!(a.embodied_interval, b.embodied_interval);
            }
        }
    }

    #[test]
    fn synthetic_source_streams_without_materializing() {
        let config = SyntheticConfig {
            n: 200,
            ..Default::default()
        };
        let streamed = Assessment::stream(SyntheticChunks::new(config, 32))
            .scenarios(&matrix())
            .run()
            .unwrap();
        assert_eq!(streamed.systems(), 200);
        assert_eq!(streamed.chunks(), 7);
        assert_eq!(streamed.peak_chunk_rows(), 32);
        assert!(streamed.slices().iter().all(|s| s.footprints.is_empty()));
        assert_eq!(streamed.to_frame().len(), 0);
        let in_memory = Assessment::of(&generate_full(&config))
            .scenarios(&matrix())
            .run();
        for (slice, (op_cov, emb_cov, op, emb)) in
            streamed.slices().iter().zip(fold_in_memory(&in_memory))
        {
            assert_eq!(slice.coverage.operational, op_cov);
            assert_eq!(slice.coverage.embodied, emb_cov);
            assert_eq!(slice.operational_total_mt, op);
            assert_eq!(slice.embodied_total_mt, emb);
        }
    }

    #[test]
    fn empty_source_yields_zeroed_slices() {
        let list = list(1);
        let mut empty = InMemoryChunks::new(&list, 8);
        let _ = FleetChunks::next_chunk(&mut empty); // drain
        let out = Assessment::stream(empty)
            .scenarios(&matrix())
            .run()
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.systems(), 0);
        for slice in out.slices() {
            assert_eq!(slice.coverage.total, 0);
            assert_eq!(slice.operational_total_mt, 0.0);
            assert!(slice.interval.is_none());
        }
    }

    #[test]
    fn source_error_propagates() {
        struct Failing(usize);
        impl FleetChunks for Failing {
            type Error = String;
            fn next_chunk(&mut self) -> Option<Result<Top500List, String>> {
                self.0 += 1;
                if self.0 > 2 {
                    Some(Err("disk on fire".into()))
                } else {
                    Some(Ok(generate_full(&SyntheticConfig {
                        n: 5,
                        ..Default::default()
                    })))
                }
            }
        }
        let err = Assessment::stream(Failing(0)).run().unwrap_err();
        assert_eq!(err, "disk on fire");
    }

    #[test]
    fn lookup_by_name_matches_matrix_order() {
        let list = list(20);
        let out = Assessment::stream(InMemoryChunks::new(&list, 6))
            .scenarios(&matrix())
            .run()
            .unwrap();
        assert!(!out.is_empty());
        assert_eq!(out.slice("full").unwrap().coverage.total, 20);
        assert!(out.slice("missing").is_none());
    }
}
