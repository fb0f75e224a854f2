//! Run the whole study and emit artifacts (text + CSV + JSON), including
//! the chunk-at-a-time [`SweepCsvWriter`] behind `sweep --stream --out`.

use crate::figures::{self, CarbonByRank, CoverageByRange, Fig2, Fig4, Fig7, Fig9, Table1};
use crate::fleet::{self, ScenarioSummary};
use crate::pipeline::{PipelineOutput, StudyPipeline};
use easyc::batch::footprints_frame;
use easyc::{
    Assessment, AssessmentOutput, ChunkRows, DataScenario, EasyCConfig, MetricBit, MetricMask,
    OverrideSet, ScenarioMatrix,
};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Headline numbers of the study, serialisable for EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Reference (appendix-derived) numbers.
    pub reference: ReferenceHeadline,
    /// Pipeline (synthetic) numbers.
    pub pipeline: PipelineHeadline,
}

/// Numbers recomputed from the embedded appendix.
#[derive(Debug, Clone)]
pub struct ReferenceHeadline {
    /// Operational coverage: top500.org scenario.
    pub op_coverage_top500: usize,
    /// Operational coverage: +public scenario.
    pub op_coverage_public: usize,
    /// Embodied coverage: top500.org scenario.
    pub emb_coverage_top500: usize,
    /// Embodied coverage: +public scenario.
    pub emb_coverage_public: usize,
    /// Operational total of the interpolated 500, MT CO2e.
    pub op_total_mt: f64,
    /// Embodied total of the interpolated 500, MT CO2e.
    pub emb_total_mt: f64,
    /// Operational sensitivity (+public vs baseline), fraction.
    pub op_sensitivity: f64,
    /// Embodied sensitivity change, thousand MT.
    pub emb_sensitivity_kmt: f64,
    /// Vehicle equivalent of the operational total.
    pub op_vehicles: f64,
    /// Vehicle equivalent of the embodied total.
    pub emb_vehicles: f64,
    /// Projected 2030 / 2024 operational ratio.
    pub op_growth_2030: f64,
    /// Projected 2030 / 2024 embodied ratio.
    pub emb_growth_2030: f64,
}

/// Numbers from the synthetic end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct PipelineHeadline {
    /// Systems in the synthetic list.
    pub systems: usize,
    /// Operational coverage at baseline.
    pub op_coverage_baseline: usize,
    /// Operational coverage after enrichment.
    pub op_coverage_enriched: usize,
    /// Embodied coverage at baseline.
    pub emb_coverage_baseline: usize,
    /// Embodied coverage after enrichment.
    pub emb_coverage_enriched: usize,
    /// Operational interpolated total, MT.
    pub op_total_mt: f64,
    /// Embodied interpolated total, MT.
    pub emb_total_mt: f64,
}

impl Headline {
    /// Pretty-printed JSON (hand-rolled; the environment has no serde).
    pub(crate) fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let r = &self.reference;
        let p = &self.pipeline;
        format!(
            "{{\n  \"reference\": {{\n    \"op_coverage_top500\": {},\n    \"op_coverage_public\": {},\n    \"emb_coverage_top500\": {},\n    \"emb_coverage_public\": {},\n    \"op_total_mt\": {},\n    \"emb_total_mt\": {},\n    \"op_sensitivity\": {},\n    \"emb_sensitivity_kmt\": {},\n    \"op_vehicles\": {},\n    \"emb_vehicles\": {},\n    \"op_growth_2030\": {},\n    \"emb_growth_2030\": {}\n  }},\n  \"pipeline\": {{\n    \"systems\": {},\n    \"op_coverage_baseline\": {},\n    \"op_coverage_enriched\": {},\n    \"emb_coverage_baseline\": {},\n    \"emb_coverage_enriched\": {},\n    \"op_total_mt\": {},\n    \"emb_total_mt\": {}\n  }}\n}}\n",
            r.op_coverage_top500,
            r.op_coverage_public,
            r.emb_coverage_top500,
            r.emb_coverage_public,
            num(r.op_total_mt),
            num(r.emb_total_mt),
            num(r.op_sensitivity),
            num(r.emb_sensitivity_kmt),
            num(r.op_vehicles),
            num(r.emb_vehicles),
            num(r.op_growth_2030),
            num(r.emb_growth_2030),
            p.systems,
            p.op_coverage_baseline,
            p.op_coverage_enriched,
            p.emb_coverage_baseline,
            p.emb_coverage_enriched,
            num(p.op_total_mt),
            num(p.emb_total_mt),
        )
    }
}

/// Chunk-at-a-time CSV appender for per-(scenario, system) sweep results —
/// the artifact sink of `sweep --stream --out`.
///
/// The in-memory sweep writes its columnar artifact scenario-major (every
/// system of scenario 0, then scenario 1, …) via
/// [`AssessmentOutput::to_frame`] + `frame::csv::write`. A streaming sweep
/// produces rows chunk-major instead, so this writer spills each
/// scenario's rows to its own `*.partN` sidecar file as [`ChunkRows`]
/// blocks arrive, then [`finish`](SweepCsvWriter::finish) concatenates
/// header + sidecars (matrix order) into the target and removes them. The
/// result is **byte-identical** to the in-memory artifact (pinned by
/// `tests/streaming.rs` and a proptest) while memory stays bounded by one
/// chunk of rendered rows. Only paths are kept between blocks: a sidecar
/// is open just while one block is appended to it, so a matrix of any
/// width stays within the process's open-file limit.
///
/// I/O errors are latched: the first failure disables further writes and
/// is surfaced by `finish`, so the sink callback stays infallible and the
/// streaming session's error type stays the source's.
///
/// ```no_run
/// use easyc::{Assessment, ScenarioMatrix};
/// use top500::stream::{Prefetched, SyntheticChunks};
/// use top500::synthetic::SyntheticConfig;
/// use analysis::report::SweepCsvWriter;
///
/// let matrix = ScenarioMatrix::new(); // … scenarios elided
/// let mut writer = SweepCsvWriter::create("results.csv", matrix.len())?;
/// let source = Prefetched::new(SyntheticChunks::new(
///     SyntheticConfig { n: 1_000_000, ..Default::default() },
///     8192,
/// ));
/// let output = Assessment::stream(source)
///     .scenarios(&matrix)
///     .rows(|block| writer.append(&block))
///     .run()?;
/// writer.finish()?; // header + per-scenario spills -> results.csv
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SweepCsvWriter {
    target: PathBuf,
    parts: Vec<PathBuf>,
    error: Option<io::Error>,
}

impl SweepCsvWriter {
    /// Creates one empty spill sidecar per scenario next to `target`
    /// (`<target>.<pid>-<k>.part0`, `.part1`, …) and closes it again, so
    /// no file stays open between blocks however many scenarios the
    /// matrix has. The pid + process-local counter make the names unique,
    /// and the files are created `create_new`, so a concurrent sweep
    /// spilling next to the same target (or a pre-existing user file that
    /// happens to share a name) surfaces as an error instead of silently
    /// interleaving rows. Nothing is written to `target` itself until
    /// [`finish`](SweepCsvWriter::finish).
    pub fn create(target: impl Into<PathBuf>, scenarios: usize) -> io::Result<SweepCsvWriter> {
        static SPILL_EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let epoch = SPILL_EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let stamp = format!("{}-{epoch}", std::process::id());
        let target = target.into();
        let mut parts = Vec::with_capacity(scenarios);
        for i in 0..scenarios {
            let path = PathBuf::from(format!("{}.{stamp}.part{i}", target.display()));
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => parts.push(path),
                Err(e) => {
                    // Don't orphan the sidecars already created.
                    for created in &parts {
                        let _ = fs::remove_file(created);
                    }
                    return Err(e);
                }
            }
        }
        Ok(SweepCsvWriter {
            target,
            parts,
            error: None,
        })
    }

    /// Appends one (scenario × chunk) block of rows to that scenario's
    /// spill file, opened in append mode for one `write_all` and closed
    /// again. Rendering goes through the exact code path of the in-memory
    /// artifact (`easyc::batch::footprints_frame` +
    /// `frame::csv::write_rows`), which is what makes the final
    /// concatenation byte-identical. Infallible by design — see the type
    /// docs for the error latch.
    pub fn append(&mut self, block: &ChunkRows<'_>) {
        if self.error.is_some() {
            return;
        }
        let Some(path) = self.parts.get(block.scenario_index) else {
            self.error = Some(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "scenario index {} out of range for {} spill files",
                    block.scenario_index,
                    self.parts.len()
                ),
            ));
            return;
        };
        let rows =
            frame::csv::write_rows(&footprints_frame(&block.scenario.name, block.footprints));
        let appended = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut part| part.write_all(rows.as_bytes()));
        if let Err(e) = appended {
            self.error = Some(e);
        }
    }

    /// Writes the header plus every scenario's spilled rows (matrix order)
    /// into the target, streaming sidecar-by-sidecar, then removes the
    /// sidecars. Returns the target path. On failure nothing is left
    /// behind — a partially-assembled target is removed along with the
    /// sidecars, so a target file on disk always means a complete artifact.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        if let Some(e) = self.error.take() {
            self.cleanup();
            return Err(e);
        }
        let result = (|| {
            let mut out = BufWriter::new(File::create(&self.target)?);
            out.write_all(frame::csv::write_header(&footprints_frame("", &[])).as_bytes())?;
            for path in &self.parts {
                io::copy(&mut File::open(path)?, &mut out)?;
            }
            out.flush()
        })();
        self.cleanup();
        if result.is_err() {
            let _ = fs::remove_file(&self.target);
        }
        result.map(|()| self.target.clone())
    }

    /// Best-effort removal of the spill sidecars.
    fn cleanup(&mut self) {
        for path in &self.parts {
            let _ = fs::remove_file(path);
        }
    }
}

impl Drop for SweepCsvWriter {
    /// An abandoned writer (e.g. the stream errored before `finish`) must
    /// not leave `*.partN` sidecars behind. Removal is idempotent, so the
    /// extra pass after a successful `finish` is a no-op.
    fn drop(&mut self) {
        self.cleanup();
    }
}

/// The complete study output.
pub struct StudyReport {
    /// Headline numbers.
    pub headline: Headline,
    /// Pipeline raw output.
    pub pipeline: PipelineOutput,
    /// Scenario sweep of the enriched synthetic list (one interleaved
    /// [`Assessment`] session over [`default_scenario_matrix`]).
    pub sweep: Vec<ScenarioSummary>,
    /// The raw session output behind `sweep` (per-scenario footprints and
    /// retained CRN draw vectors), kept so figures can render per-scenario
    /// panels and paired deltas without re-assessing.
    pub sweep_output: AssessmentOutput,
    /// Paired-difference deltas of every sweep scenario against the `full`
    /// baseline, from the session's common random numbers.
    pub sweep_deltas: Vec<easyc::ScenarioDelta>,
}

/// Monte-Carlo draws behind the study sweep's intervals and deltas.
const STUDY_SWEEP_DRAWS: usize = 256;

/// The scenario matrix the study sweeps by default: ground truth, the two
/// dominant missing-data situations, and two site-knowledge overrides.
pub fn default_scenario_matrix() -> ScenarioMatrix {
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
        )
}

/// Runs everything with the default 500-system synthetic list.
pub fn run_study(seed: u64) -> StudyReport {
    let rows = top500::appendix::load();
    let pipeline = StudyPipeline::new(500, seed).run();
    let sweep_output = Assessment::of(&pipeline.enriched)
        .config(EasyCConfig::default())
        .scenarios(&default_scenario_matrix())
        .uncertainty(STUDY_SWEEP_DRAWS)
        .seed(seed)
        .run();
    let sweep = fleet::summarize(&sweep_output);
    let sweep_deltas = fleet::compare_to_baseline(&sweep_output, "full");

    let fig7 = Fig7::from_appendix(&rows);
    let fig9 = Fig9::from_appendix(&rows);
    let fig10 = figures::fig10(&rows);
    let reference = ReferenceHeadline {
        op_coverage_top500: rows
            .iter()
            .filter(|r| r.operational.top500.is_some())
            .count(),
        op_coverage_public: rows
            .iter()
            .filter(|r| r.operational.public.is_some())
            .count(),
        emb_coverage_top500: rows.iter().filter(|r| r.embodied.top500.is_some()).count(),
        emb_coverage_public: rows.iter().filter(|r| r.embodied.public.is_some()).count(),
        op_total_mt: fig7.op_interpolated.total_mt,
        emb_total_mt: fig7.emb_interpolated.total_mt,
        op_sensitivity: fig9.operational.relative_change(),
        emb_sensitivity_kmt: fig9.embodied.total_change_mt() / 1000.0,
        op_vehicles: fig7.op_interpolated.equivalences().vehicles,
        emb_vehicles: fig7.emb_interpolated.equivalences().vehicles,
        op_growth_2030: fig10.operational.overall_growth(),
        emb_growth_2030: fig10.embodied.overall_growth(),
    };
    let pipeline_headline = PipelineHeadline {
        systems: pipeline.full.len(),
        op_coverage_baseline: pipeline.baseline_results.coverage.operational,
        op_coverage_enriched: pipeline.enriched_results.coverage.operational,
        emb_coverage_baseline: pipeline.baseline_results.coverage.embodied,
        emb_coverage_enriched: pipeline.enriched_results.coverage.embodied,
        op_total_mt: pipeline.operational_summary.full_total,
        emb_total_mt: pipeline.embodied_summary.full_total,
    };
    StudyReport {
        headline: Headline {
            reference,
            pipeline: pipeline_headline,
        },
        pipeline,
        sweep,
        sweep_output,
        sweep_deltas,
    }
}

impl StudyReport {
    /// One-screen text summary.
    pub fn summary(&self) -> String {
        let r = &self.headline.reference;
        let p = &self.headline.pipeline;
        format!(
            "Top 500 carbon footprint (reference, from embedded Table II)\n\
             ------------------------------------------------------------\n\
             coverage  operational: {}/500 (top500.org) -> {}/500 (+public)\n\
             coverage  embodied:    {}/500 (top500.org) -> {}/500 (+public)\n\
             total     operational: {:.2} M MT CO2e (~{:.0}k vehicles)\n\
             total     embodied:    {:.2} M MT CO2e (~{:.0}k vehicles)\n\
             sensitivity: operational {:+.2}%, embodied {:+.1} kMT\n\
             2030 projection: operational x{:.2}, embodied x{:.2}\n\
             \n\
             Synthetic pipeline ({} systems, EasyC end-to-end)\n\
             ------------------------------------------------------------\n\
             coverage  operational: {} -> {}\n\
             coverage  embodied:    {} -> {}\n\
             totals    operational {:.2} M MT, embodied {:.2} M MT\n",
            r.op_coverage_top500,
            r.op_coverage_public,
            r.emb_coverage_top500,
            r.emb_coverage_public,
            r.op_total_mt / 1e6,
            r.op_vehicles / 1e3,
            r.emb_total_mt / 1e6,
            r.emb_vehicles / 1e3,
            r.op_sensitivity * 100.0,
            r.emb_sensitivity_kmt,
            r.op_growth_2030,
            r.emb_growth_2030,
            p.systems,
            p.op_coverage_baseline,
            p.op_coverage_enriched,
            p.emb_coverage_baseline,
            p.emb_coverage_enriched,
            p.op_total_mt / 1e6,
            p.emb_total_mt / 1e6,
        )
    }

    /// Writes all figure/table artifacts under `dir`.
    pub fn write_artifacts(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let rows = top500::appendix::load();
        fs::write(dir.join("summary.txt"), self.summary())?;
        fs::write(dir.join("headline.json"), self.headline.to_json())?;
        fs::write(
            dir.join("fig2_missingness.csv"),
            Fig2::from_list(&self.pipeline.baseline).to_csv(),
        )?;
        fs::write(
            dir.join("table1_incompleteness.csv"),
            Table1::from_lists(&self.pipeline.baseline, &self.pipeline.enriched).to_csv(),
        )?;
        fs::write(
            dir.join("fig3_baseline_scatter.csv"),
            CarbonByRank::fig3(&rows).to_csv(),
        )?;
        fs::write(
            dir.join("fig4_coverage_reference.csv"),
            Fig4::reference(&rows).to_csv(),
        )?;
        fs::write(
            dir.join("fig4_coverage_pipeline.csv"),
            Fig4::pipeline(&self.pipeline).to_csv(),
        )?;
        fs::write(
            dir.join("fig5_op_coverage_ranges.csv"),
            CoverageByRange::from_appendix(&rows, false).to_csv(),
        )?;
        fs::write(
            dir.join("fig6_emb_coverage_ranges.csv"),
            CoverageByRange::from_appendix(&rows, true).to_csv(),
        )?;
        fs::write(
            dir.join("fig8_full_assessment.csv"),
            CarbonByRank::fig8(&rows).to_csv(),
        )?;
        fs::write(
            dir.join("fig9_sensitivity.csv"),
            Fig9::from_appendix(&rows).to_csv(),
        )?;
        let p = figures::fig10(&rows);
        let mut fig10_csv = String::from("year,operational_mt,embodied_mt\n");
        for (op, emb) in p.operational.points.iter().zip(&p.embodied.points) {
            fig10_csv.push_str(&format!("{},{:.0},{:.0}\n", op.year, op.value, emb.value));
        }
        fs::write(dir.join("fig10_projection.csv"), fig10_csv)?;
        let (op_panel, emb_panel) = figures::fig11(&rows);
        let mut fig11_csv = String::from("year,op_projected,op_ideal,emb_projected,emb_ideal\n");
        for i in 0..op_panel.projected.points.len() {
            fig11_csv.push_str(&format!(
                "{},{:.3},{:.3},{:.3},{:.3}\n",
                op_panel.projected.points[i].year,
                op_panel.projected.points[i].value,
                op_panel.ideal.points[i].value,
                emb_panel.projected.points[i].value,
                emb_panel.ideal.points[i].value,
            ));
        }
        fs::write(dir.join("fig11_perf_per_carbon.csv"), fig11_csv)?;
        fs::write(
            dir.join("table2_per_system.txt"),
            figures::table2_render(&rows),
        )?;
        fs::write(
            dir.join("scenario_sweep.csv"),
            fleet::sweep_to_csv(&self.sweep),
        )?;
        // Paired scenario deltas (variant − full) with CRN-tight intervals.
        fs::write(
            dir.join("sweep_deltas.csv"),
            fleet::deltas_to_csv(&self.sweep_deltas),
        )?;
        // Coverage-by-rank panels per sweep scenario (the generalised
        // Figures 5/6 over the whole scenario matrix).
        fs::write(
            dir.join("sweep_op_coverage_ranges.csv"),
            CoverageByRange::from_slices(self.sweep_output.slices(), false).to_csv(),
        )?;
        fs::write(
            dir.join("sweep_emb_coverage_ranges.csv"),
            CoverageByRange::from_slices(self.sweep_output.slices(), true).to_csv(),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use top500::stream::InMemoryChunks;
    use top500::synthetic::{generate_full, SyntheticConfig};

    fn sweep_matrix() -> ScenarioMatrix {
        ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked(
                "no-power",
                MetricMask::ALL
                    .without(MetricBit::PowerKw)
                    .without(MetricBit::AnnualEnergy),
            ))
    }

    #[test]
    fn sweep_csv_writer_byte_identical_to_in_memory_artifact() {
        let list = generate_full(&SyntheticConfig {
            n: 70,
            ..Default::default()
        });
        let matrix = sweep_matrix();
        let expected =
            frame::csv::write(&Assessment::of(&list).scenarios(&matrix).run().to_frame());
        let dir = std::env::temp_dir();
        for rows in [1usize, 13, 70, 500] {
            let target = dir.join(format!("sweep-writer-{}-{rows}.csv", std::process::id()));
            // Every sibling named `<target>.…`: the spill sidecars.
            let stem = target.file_name().unwrap().to_string_lossy().to_string();
            let sidecars = || -> Vec<String> {
                fs::read_dir(&dir)
                    .unwrap()
                    .filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().to_string())
                    .filter(|name| name.starts_with(&format!("{stem}.")))
                    .collect()
            };
            let mut writer = SweepCsvWriter::create(&target, matrix.len()).unwrap();
            Assessment::stream(InMemoryChunks::new(&list, rows))
                .scenarios(&matrix)
                .rows(|block| writer.append(&block))
                .run()
                .unwrap();
            assert!(writer.error.is_none());
            // Mid-flight: exactly one `<target>.<pid>-<k>.part<i>` per scenario.
            let mut spilled = sidecars();
            spilled.sort();
            assert_eq!(spilled.len(), matrix.len(), "rows {rows}: {spilled:?}");
            for (i, name) in spilled.iter().enumerate() {
                assert!(
                    name.ends_with(&format!(".part{i}")),
                    "rows {rows}: {spilled:?}"
                );
            }
            let finished = writer.finish().unwrap();
            assert_eq!(finished, target);
            let streamed = fs::read_to_string(&target).unwrap();
            assert_eq!(streamed, expected, "rows {rows}");
            // The sidecars must be gone after `finish`.
            let leftovers = sidecars();
            assert!(leftovers.is_empty(), "sidecars left behind: {leftovers:?}");
            fs::remove_file(&target).ok();
        }
    }

    #[test]
    fn sweep_csv_writer_empty_stream_writes_header_only() {
        let target = std::env::temp_dir().join(format!("sweep-empty-{}.csv", std::process::id()));
        let writer = SweepCsvWriter::create(&target, 0).unwrap();
        writer.finish().unwrap();
        let text = fs::read_to_string(&target).unwrap();
        assert_eq!(
            text,
            "scenario,rank,operational_mt,embodied_mt,power_kw,pue,utilization,power_path,note\n"
        );
        fs::remove_file(&target).ok();
    }

    #[test]
    fn sweep_csv_writer_latches_out_of_range_scenario() {
        let list = generate_full(&SyntheticConfig {
            n: 5,
            ..Default::default()
        });
        let matrix = sweep_matrix();
        let target = std::env::temp_dir().join(format!("sweep-oob-{}.csv", std::process::id()));
        // One spill file for a two-scenario matrix: the second scenario's
        // first block must latch an error that finish() surfaces.
        let mut writer = SweepCsvWriter::create(&target, 1).unwrap();
        Assessment::stream(InMemoryChunks::new(&list, 2))
            .scenarios(&matrix)
            .rows(|block| writer.append(&block))
            .run()
            .unwrap();
        assert!(writer.error.is_some());
        assert!(writer.finish().is_err());
        fs::remove_file(&target).ok();
    }

    #[test]
    fn study_headline_consistent() {
        let report = run_study(7);
        let r = &report.headline.reference;
        assert_eq!(r.op_coverage_top500, 391);
        assert_eq!(r.emb_coverage_public, 404);
        assert!((r.op_total_mt / 1.39e6 - 1.0).abs() < 0.01);
        assert!((r.emb_total_mt / 1.88e6 - 1.0).abs() < 0.01);
        assert!((r.op_vehicles / 325_000.0 - 1.0).abs() < 0.02);
    }

    #[test]
    fn study_sweep_covers_default_matrix() {
        let report = run_study(7);
        assert_eq!(report.sweep.len(), default_scenario_matrix().len());
        let full = &report.sweep[0];
        let no_structure = report
            .sweep
            .iter()
            .find(|s| s.name == "no-structure")
            .unwrap();
        assert!(no_structure.coverage.embodied < full.coverage.embodied);
        let clean = report
            .sweep
            .iter()
            .find(|s| s.name == "clean-grid-50g")
            .unwrap();
        assert!(clean.operational.total_mt < full.operational.total_mt);
        // One paired delta per non-baseline scenario, each tighter than
        // differencing the two independent per-scenario bands.
        assert_eq!(
            report.sweep_deltas.len(),
            default_scenario_matrix().len() - 1
        );
        let clean_delta = report
            .sweep_deltas
            .iter()
            .find(|d| d.variant == "clean-grid-50g")
            .unwrap();
        let paired = clean_delta.operational.unwrap();
        assert!(
            paired.hi < 0.0,
            "cleaner grid must lower the total: {paired:?}"
        );
        let naive = easyc::Interval::independent_difference(
            &report.sweep_output.interval("clean-grid-50g").unwrap(),
            &report.sweep_output.interval("full").unwrap(),
        );
        assert!(paired.width() < naive.width());
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let report = run_study(7);
        let text = report.summary();
        assert!(text.contains("391/500"));
        assert!(text.contains("490/500"));
        assert!(text.contains("1.39 M MT"));
        assert!(text.contains("1.88 M MT"));
    }

    #[test]
    fn artifacts_written() {
        let dir = std::env::temp_dir().join(format!("easyc-artifacts-{}", std::process::id()));
        let report = run_study(7);
        report.write_artifacts(&dir).unwrap();
        for file in [
            "summary.txt",
            "headline.json",
            "fig2_missingness.csv",
            "table1_incompleteness.csv",
            "fig3_baseline_scatter.csv",
            "fig4_coverage_reference.csv",
            "fig5_op_coverage_ranges.csv",
            "fig6_emb_coverage_ranges.csv",
            "fig8_full_assessment.csv",
            "fig9_sensitivity.csv",
            "fig10_projection.csv",
            "fig11_perf_per_carbon.csv",
            "table2_per_system.txt",
            "scenario_sweep.csv",
            "sweep_deltas.csv",
            "sweep_op_coverage_ranges.csv",
            "sweep_emb_coverage_ranges.csv",
        ] {
            assert!(dir.join(file).exists(), "{file} missing");
        }
        let json = std::fs::read_to_string(dir.join("headline.json")).unwrap();
        assert!(json.contains("op_coverage_top500"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
