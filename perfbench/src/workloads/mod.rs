//! The four workloads and what they share: inputs derived from the seed,
//! the measured loop, exact-output digests, and the traced layer probes.

pub mod draws_matrix;
pub mod resident_edits;
pub mod serve_mixed;
pub mod stream_csv;

use crate::stats::{self, Digest};
use crate::sys;
use crate::trace::{span, Tracer};
use easyc::{
    Assessment, AssessmentOutput, DataScenario, EasyCConfig, FleetColumns, FleetState, FleetTotals,
    FleetView, Interval, MetricMask, PartialAssessment, ScenarioMatrix, SevenMetrics,
    SystemFootprint,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use top500::synthetic::SyntheticConfig;
use top500::Top500List;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamCsv,
    DrawsMatrix,
    ServeMixed,
    ResidentEdits,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::StreamCsv,
        Workload::DrawsMatrix,
        Workload::ServeMixed,
        Workload::ResidentEdits,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamCsv => "stream-csv",
            Workload::DrawsMatrix => "draws-matrix",
            Workload::ServeMixed => "serve-mixed",
            Workload::ResidentEdits => "resident-edits",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::TINY`] runs the
/// same code paths in well under a second for the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `stream-csv` fleet size.
    pub stream_systems: u32,
    /// Rows per streamed chunk (the CLI default).
    pub chunk_rows: usize,
    /// Chunk size of the `stream-csv` reference (deliberately different).
    pub reference_chunk_rows: usize,
    /// `draws-matrix` fleet size and draws per scenario.
    pub draws_systems: u32,
    pub draws: usize,
    /// Resident fleet size of `serve-mixed` and `resident-edits`.
    pub resident_systems: u32,
    /// Draws of the draw-bearing resident queries.
    pub resident_draws: usize,
    /// Rows per `update_rows` edit.
    pub edit_rows: usize,
    /// Distinct edits in the `resident-edits` pool.
    pub edit_pool: usize,
    /// Set-ups per run behind the `setup_s` median (see [`SetUp`]): for
    /// `stream-csv`, and for the three lighter workloads.
    pub setup_reps_csv: usize,
    pub setup_reps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        stream_systems: 200_000,
        chunk_rows: 8192,
        reference_chunk_rows: 5000,
        draws_systems: 50_000,
        draws: 256,
        resident_systems: 2000,
        resident_draws: 64,
        edit_rows: 8,
        edit_pool: 32,
        setup_reps_csv: 4,
        setup_reps: 16,
    };

    pub const TINY: Scale = Scale {
        stream_systems: 3000,
        chunk_rows: 700,
        reference_chunk_rows: 450,
        draws_systems: 400,
        draws: 16,
        resident_systems: 120,
        resident_draws: 8,
        edit_rows: 8,
        edit_pool: 4,
        setup_reps_csv: 2,
        setup_reps: 2,
    };
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds (split evenly between an untraced and a traced
    /// phase when tracing).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where inputs and span dumps go.
    pub work_dir: PathBuf,
}

impl Opts {
    /// The synthetic fleet of `n` systems this run's seed selects.
    pub fn fleet(&self, n: u32) -> SyntheticConfig {
        SyntheticConfig {
            n,
            seed: derive(self.seed, 0xF1EE7),
            ..Default::default()
        }
    }

    /// Draw seed of the run's Monte-Carlo queries.
    pub fn draw_seed(&self) -> u64 {
        derive(self.seed, 0xD4A5) % 1_000_000
    }
}

/// A seed derived from the run seed and a purpose tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    stats::Rng::new(seed ^ tag.rotate_left(32)).next_u64()
}

/// The five-scenario `sweep-template` matrix.
pub fn template_matrix() -> ScenarioMatrix {
    ScenarioMatrix::from_csv(&ScenarioMatrix::csv_template()).expect("built-in template parses")
}

/// The default configuration every workload's engine calls use (workers =
/// the machine's logical CPUs).
pub fn config() -> EasyCConfig {
    EasyCConfig {
        workers: sys::nproc(),
        ..EasyCConfig::default()
    }
}

/// The masked scenario of the resident workloads' cache-missing reads.
pub fn masked_scenario() -> DataScenario {
    DataScenario::masked(
        "default",
        MetricMask::parse("all -power -energy").expect("valid mask"),
    )
}

/// Span op id of set-up work.
pub const SETUP_OP: u64 = u64::MAX;
/// Span op id of the traced layer probes.
pub const PROBE_OP: u64 = u64::MAX - 1;

/// One measured operation.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// When it completed.
    pub end: Instant,
    pub latency_s: f64,
    pub ok: bool,
    /// System x scenario footprints it answered (0 when it failed).
    pub footprints: f64,
}

/// The measured-phase log of one run phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// When the phase began.
    pub start: Instant,
    pub wall_s: f64,
    /// Every operation, in recording order.
    pub ops: Vec<OpRecord>,
    /// `update_rows` latency, seconds (`resident-edits`).
    pub write_s: Vec<f64>,
    /// System x scenario x draw terms computed by completed operations.
    pub draw_terms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
}

impl Default for Phase {
    /// An empty phase starting now.
    fn default() -> Phase {
        Phase {
            start: sys::now(),
            wall_s: 0.0,
            ops: Vec::new(),
            write_s: Vec::new(),
            draw_terms: 0.0,
            attempted: 0,
            failed: 0,
            peak_rss_mb: 0.0,
            cpu_s: 0.0,
        }
    }
}

/// Completions per window of the windowed end-to-end figures: enough for a
/// p99 with ten samples beyond it.
pub const WINDOW_OPS: usize = 1000;

/// A run of consecutive completions and the time they took.
#[derive(Debug, Clone)]
pub struct Window {
    pub secs: f64,
    /// Operations that completed correctly.
    pub completed: f64,
    pub footprints: f64,
    /// Latency of every operation in the window, seconds.
    pub lat_s: Vec<f64>,
}

impl Phase {
    /// Records one operation, completing now.
    pub fn op(&mut self, latency_s: f64, ok: bool, footprints: f64, draw_terms: f64) {
        self.ops.push(OpRecord {
            end: sys::now(),
            latency_s,
            ok,
            footprints: if ok { footprints } else { 0.0 },
        });
        self.attempted += 1;
        if ok {
            self.draw_terms += draw_terms;
        } else {
            self.failed += 1;
        }
    }

    /// The operations in completion order, cut into windows of
    /// [`WINDOW_OPS`] consecutive completions; the last window takes the
    /// remainder and ends with the phase, and a phase with fewer
    /// operations is one window. A window lasts from the previous window's
    /// last completion (the phase start for the first) to its own.
    pub fn windows(&self) -> Vec<Window> {
        let mut ops = self.ops.clone();
        ops.sort_by_key(|o| o.end);
        let n = (ops.len() / WINDOW_OPS).max(1);
        let mut from = 0.0;
        (0..n)
            .map(|k| {
                let lo = k * WINDOW_OPS;
                let (hi, to) = if k + 1 == n {
                    (ops.len(), self.wall_s)
                } else {
                    let last = ops[lo + WINDOW_OPS - 1].end;
                    (lo + WINDOW_OPS, last.duration_since(self.start).as_secs_f64())
                };
                let slice = &ops[lo..hi];
                let window = Window {
                    secs: to - from,
                    completed: slice.iter().filter(|o| o.ok).count() as f64,
                    footprints: slice.iter().map(|o| o.footprints).sum(),
                    lat_s: slice.iter().map(|o| o.latency_s).collect(),
                };
                from = to;
                window
            })
            .collect()
    }
}

/// Runs `step` until `seconds` have passed and at least `min_ops`
/// operations were attempted, reading peak memory and CPU time around it.
pub fn measure(seconds: f64, min_ops: u64, mut step: impl FnMut(&mut Phase)) -> Phase {
    let cpu0 = sys::cpu_seconds();
    sys::reset_peak_rss();
    let mut phase = Phase::default();
    while phase.attempted < min_ops || phase.start.elapsed().as_secs_f64() < seconds {
        step(&mut phase);
    }
    phase.wall_s = phase.start.elapsed().as_secs_f64();
    phase.peak_rss_mb = sys::peak_rss_mb();
    phase.cpu_s = sys::cpu_seconds() - cpu0;
    phase
}

/// Runs the measured phase: all of `opts.seconds` untraced, or when
/// tracing an untraced half and then a traced half.
pub fn phases<T>(
    opts: &Opts,
    tracer: Option<&Tracer>,
    mut phase: impl FnMut(f64, Option<&Tracer>) -> T,
) -> (T, Option<T>) {
    if opts.trace {
        let untraced = phase(opts.seconds / 2.0, None);
        (untraced, Some(phase(opts.seconds / 2.0, tracer)))
    } else {
        (phase(opts.seconds, None), None)
    }
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = sys::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Program set-up, timed. The repetitions are split around the measured
/// phase — [`SetUp::before`] runs the first half and keeps the last
/// product, [`SetUp::after`] runs the rest and drops theirs — so the
/// `setup_s` median samples the machine at two moments of the run.
pub struct SetUp<F> {
    make: F,
    reps: usize,
    /// Seconds of each repetition.
    pub secs: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, String>> SetUp<F> {
    /// A set-up repeated `reps` times in all (at least once before).
    pub fn new(reps: usize, make: F) -> SetUp<F> {
        SetUp {
            make,
            reps: reps.max(1),
            secs: Vec::new(),
        }
    }

    fn once(&mut self) -> Result<T, String> {
        let (made, secs) = timed(&mut self.make);
        self.secs.push(secs);
        made
    }

    /// The first half of the repetitions; returns the last product.
    pub fn before(&mut self) -> Result<T, String> {
        for _ in 1..self.reps.div_ceil(2) {
            drop(self.once()?);
        }
        self.once()
    }

    /// The remaining repetitions, after the measured phase.
    pub fn after(mut self) -> Result<Vec<f64>, String> {
        while self.secs.len() < self.reps {
            drop(self.once()?);
        }
        Ok(self.secs)
    }
}

/// What a workload hands back to [`crate::run`].
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The untraced measured phase.
    pub untraced: Phase,
    /// The traced measured phase (trace runs only).
    pub traced: Option<Phase>,
    /// Per-layer values the workload measured; [`crate::run`] fills the
    /// rest of the catalog.
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific lines for the human-readable summary.
    pub notes: Vec<String>,
    /// Checked operations outside the measured phases: the untimed warm-up
    /// operation, and the traced layer probes that replay the engine's work.
    pub extra_attempted: u64,
    pub extra_failed: u64,
    /// The traced phase's spans (trace runs only).
    pub tracer: Option<Tracer>,
}

// ------------------------------------------------------------ digests

const NONE_BITS: u64 = 0x7FF8_DEAD_BEEF_0001;

fn opt_bits(v: Option<f64>) -> u64 {
    v.map_or(NONE_BITS, f64::to_bits)
}

fn interval_digest(d: &mut Digest, iv: Option<Interval>) {
    match iv {
        None => d.u64(NONE_BITS),
        Some(iv) => {
            d.u64(iv.point.to_bits());
            d.u64(iv.lo.to_bits());
            d.u64(iv.hi.to_bits());
        }
    }
}

/// Appends every footprint's rank and result bits.
pub fn footprints_digest(d: &mut Digest, footprints: &[SystemFootprint]) {
    for f in footprints {
        d.u64(u64::from(f.rank));
        d.u64(opt_bits(f.operational_mt()));
        d.u64(opt_bits(f.embodied_mt()));
    }
}

/// Digest of a whole assessment output: per scenario its name, coverage,
/// every footprint's bits and both fleet intervals.
pub fn output_digest(out: &AssessmentOutput) -> u64 {
    let mut d = Digest::default();
    for (i, slice) in out.slices().iter().enumerate() {
        d.update(slice.scenario.name.as_bytes());
        d.u64(slice.coverage.operational as u64);
        d.u64(slice.coverage.embodied as u64);
        d.u64(slice.coverage.total as u64);
        footprints_digest(&mut d, &slice.footprints);
        interval_digest(&mut d, out.intervals().get(i).copied().flatten());
        interval_digest(&mut d, out.embodied_intervals().get(i).copied().flatten());
    }
    d.finish()
}

/// The comparable part of fleet totals: exact bits and counts.
pub type TotalsKey = (u64, u64, usize, usize, usize);

/// Fleet totals as compared against a reference.
pub fn totals_key(t: &FleetTotals) -> TotalsKey {
    (
        t.operational_mt.to_bits(),
        t.embodied_mt.to_bits(),
        t.total,
        t.op_covered,
        t.emb_covered,
    )
}

/// Folds footprints through the pinned partial and returns their totals.
pub fn fold_totals(footprints: &[SystemFootprint]) -> FleetTotals {
    let mut partial = PartialAssessment::identity(0);
    partial.absorb(0, footprints);
    partial.finish()
}

// ------------------------------------------------------- layer probes

/// Serial, layer-by-layer replay of the engine's per-chunk assessment
/// work, each layer in its own span: metric extraction, column build, the
/// operational and embodied estimation kernels per scenario, and the
/// partial fold. Call once per chunk in fleet order; `finish_replay` closes
/// the fold. Returns the rows whose estimate errored (which the kernels
/// re-run through the row-at-a-time reference).
pub fn replay_chunk(
    tracer: &Tracer,
    list: &Top500List,
    first_row: usize,
    matrix: &ScenarioMatrix,
    partials: &mut [PartialAssessment],
) -> u64 {
    let t = Some(tracer);
    let metrics: Vec<SevenMetrics> = span(t, "easyc.metrics.extract", None, PROBE_OP, |_| {
        list.systems().iter().map(SevenMetrics::extract).collect()
    });
    let columns = span(t, "easyc.columns.build", None, PROBE_OP, |_| {
        FleetColumns::build(list, &metrics)
    });
    let n = list.len();
    let mut err_rows = 0u64;
    for (scenario, partial) in matrix.scenarios().iter().zip(partials.iter_mut()) {
        let view = FleetView::new(list, &metrics, scenario);
        let op = span(t, "easyc.estimate.op", None, PROBE_OP, |_| {
            easyc::operational::estimate_columns(&columns, &view, 0..n)
        });
        let emb = span(t, "easyc.estimate.emb", None, PROBE_OP, |_| {
            easyc::embodied::estimate_columns(&columns, &view, 0..n)
        });
        err_rows += op.iter().filter(|r| r.is_err()).count() as u64;
        err_rows += emb.iter().filter(|r| r.is_err()).count() as u64;
        let footprints: Vec<SystemFootprint> = list
            .systems()
            .iter()
            .zip(op.into_iter().zip(emb))
            .map(|(record, (operational, embodied))| SystemFootprint {
                rank: record.rank,
                operational,
                embodied,
            })
            .collect();
        span(t, "easyc.partial.fold", None, PROBE_OP, |_| {
            partial.absorb(first_row, &footprints)
        });
    }
    err_rows
}

/// Closes a replay: finishes every scenario's partial inside the fold span.
pub fn finish_replay(tracer: &Tracer, partials: Vec<PartialAssessment>) -> Vec<TotalsKey> {
    partials
        .into_iter()
        .map(|p| {
            let totals = span(Some(tracer), "easyc.partial.fold", None, PROBE_OP, |_| {
                p.finish()
            });
            totals_key(&totals)
        })
        .collect()
}

/// Replays one in-memory fleet under `matrix`, records the estimation
/// layers into `layers`, and returns whether the replayed totals equal a
/// one-worker in-memory session's.
pub fn replay_fleet(
    tracer: &Tracer,
    list: &Top500List,
    matrix: &ScenarioMatrix,
    layers: &mut BTreeMap<&'static str, f64>,
) -> bool {
    let mut partials: Vec<PartialAssessment> = matrix
        .scenarios()
        .iter()
        .map(|_| PartialAssessment::identity(0))
        .collect();
    let err_rows = replay_chunk(tracer, list, 0, matrix, &mut partials);
    let totals = finish_replay(tracer, partials);
    record_replay_layers(tracer, err_rows, layers);
    let reference = Assessment::of(list).scenarios(matrix).workers(1).run();
    let expected: Vec<TotalsKey> = reference
        .slices()
        .iter()
        .map(|s| totals_key(&fold_totals(&s.footprints)))
        .collect();
    totals == expected
}

/// Moves the replay spans' totals into the layer map.
pub fn record_replay_layers(
    tracer: &Tracer,
    err_rows: u64,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    for (layer, span_name) in [
        ("easyc.metrics.extract_s", "easyc.metrics.extract"),
        ("easyc.columns.build_s", "easyc.columns.build"),
        ("easyc.estimate.op_s", "easyc.estimate.op"),
        ("easyc.estimate.emb_s", "easyc.estimate.emb"),
        ("easyc.partial.fold_s", "easyc.partial.fold"),
    ] {
        layers.insert(layer, tracer.total(span_name));
    }
    layers.insert("easyc.estimate.err_rows", err_rows as f64);
}

/// Builds a resident state over `list` and times its layers: build, warm,
/// a cache-hitting default query, a cache-missing masked query, and a warm
/// default query with `draws` draws (estimation skipped, so it times the
/// draw kernels and the fold). Medians over `reps` queries each.
pub fn probe_state(
    tracer: &Tracer,
    list: &Top500List,
    draws: usize,
    draw_seed: u64,
    reps: usize,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let t = Some(tracer);
    let mut state = span(t, "easyc.state.build", None, PROBE_OP, |_| {
        FleetState::from_list(list.clone(), config())
    });
    span(t, "easyc.state.warm", None, PROBE_OP, |_| state.warm());
    let masked = masked_scenario();
    for _ in 0..reps {
        span(t, "easyc.state.query_hit", None, PROBE_OP, |_| {
            std::hint::black_box(state.query().run())
        });
        span(t, "easyc.state.query_miss", None, PROBE_OP, |_| {
            std::hint::black_box(state.query().scenario(masked.clone()).run())
        });
        span(t, "easyc.draws", None, PROBE_OP, |_| {
            std::hint::black_box(state.query().uncertainty(draws).seed(draw_seed).run())
        });
    }
    layers.insert("easyc.state.build_s", tracer.total("easyc.state.build"));
    layers.insert("easyc.state.warm_s", tracer.total("easyc.state.warm"));
    let med = |name: &str| stats::median(&tracer.durations(name));
    layers.insert(
        "easyc.state.query_hit_ms",
        med("easyc.state.query_hit") * 1e3,
    );
    layers.insert(
        "easyc.state.query_miss_ms",
        med("easyc.state.query_miss") * 1e3,
    );
    layers.insert("easyc.draws.s", med("easyc.draws"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A phase of `n` correct operations, one completing every millisecond
    /// (recorded out of order), with latency `i` ms.
    fn phase(n: usize) -> Phase {
        let mut p = Phase::default();
        for i in (0..n).rev() {
            p.ops.push(OpRecord {
                end: p.start + Duration::from_millis(i as u64 + 1),
                latency_s: i as f64 * 1e-3,
                ok: true,
                footprints: 2.0,
            });
        }
        p.wall_s = n as f64 * 1e-3 + 0.5;
        p
    }

    #[test]
    fn windows_cut_completions_into_runs_of_1000() {
        let w = phase(2500).windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].lat_s.len(), WINDOW_OPS);
        assert_eq!(w[1].lat_s.len(), 1500);
        // The first window ends at its last completion; the last one takes
        // the remainder and ends with the phase.
        assert!((w[0].secs - 1.0).abs() < 1e-9);
        assert!((w[1].secs - 2.0).abs() < 1e-9);
        assert_eq!(w[1].completed, 1500.0);
        assert_eq!(w[1].footprints, 3000.0);
        // Completion order, not recording order, decides the windows.
        assert!(w[0].lat_s.iter().all(|&l| l < 0.9995));
    }

    #[test]
    fn a_short_phase_is_one_window() {
        let w = phase(1999).windows();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].lat_s.len(), 1999);
        assert!((w[0].secs - 2.499).abs() < 1e-9);
        assert_eq!(Phase::default().windows().len(), 1);
    }
}
