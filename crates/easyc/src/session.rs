//! The unified assessment session — one plan type, one engine, one output.
//!
//! An [`Assessment`] plans a whole fleet job once, over one of three
//! sources:
//!
//! ```text
//! Assessment::of(&list)            a borrowed list
//! Assessment::stream(source)       any top500::stream::FleetChunks
//! state.query()                    a resident crate::state::FleetState
//!     .scenarios(&matrix)          what-if matrix (default: one scenario)
//!     .workers(8)                  threads per phase
//!     .uncertainty(1000)           optional Monte-Carlo draws
//!     .run()                       plan + execute -> AssessmentOutput
//! ```
//!
//! The builder methods live once, on `Assessment<Src>`; the source type
//! only decides where the rows come from (and whether `run` can fail: a
//! chunk source can). Behind every source sits one private per-block
//! engine. A list or state run is one block; a streamed run is one block
//! per pulled chunk. For each block the engine:
//!
//! 1. extracts the seven metrics and builds the
//!    [`crate::columns::FleetColumns`] layout, chunk-parallel —
//!    unless the source already holds them (a resident state does);
//! 2. interleaves every **(scenario × sub-range)** work item in one
//!    [`parallel::run`] call through the columnar kernels
//!    ([`crate::operational::estimate_columns`] /
//!    [`crate::embodied::estimate_columns`]), skipping any scenario whose
//!    footprints a warm resident cache already holds;
//! 3. absorbs each scenario's block into its running
//!    [`PartialAssessment`] at the block's first global row;
//! 4. with `uncertainty(draws)`, runs blocked (sample-chunk × scenario)
//!    Monte-Carlo items at that same row offset.
//!
//! Each phase with work to do is one [`parallel::run`] call: its planned
//! items run on the calling thread at `workers(1)`, and on at most
//! `workers` scoped threads otherwise, which start and join inside the
//! phase — so a warm resident hit, with nothing to compute, starts no
//! thread. Each block is split into roughly `workers × items_per_worker`
//! contiguous sub-ranges (default 4× the workers — fine enough that one
//! slow item cannot idle the other threads, see
//! [`Assessment::items_per_worker`]). Wide matrices do not walk scenarios
//! sequentially, so a slow scenario cannot leave workers idle while others
//! wait. Output is deterministic and bit-identical to the serial
//! per-system path at any worker count, chunk granularity, fleet chunking
//! and cache temperature:
//!
//! - every item writes disjoint, pre-planned output slots, and the
//!   columnar kernels are pinned bit-identical to the row-at-a-time
//!   [`crate::operational::estimate_view`] /
//!   [`crate::embodied::estimate_view`] reference;
//! - one consumer absorbs adjacent blocks, so each scenario's totals are
//!   the serial left fold (see [`crate::partial`]);
//! - the draws' RNG streams are keyed by (global row, draw index) — never
//!   by scenario, block or cache state — so every scenario replays
//!   identical per-system perturbations (common random numbers), and each
//!   work item computes its samples' factors and noise column once,
//!   sweeping them over every scenario's pre-hoisted factor columns.
//!
//! Every run returns one [`AssessmentOutput`]: per-scenario
//! [`ScenarioSlice`]s (coverage, fleet totals, operational **and** embodied
//! [`Interval`]s, and the footprints when the source keeps them) plus the
//! retained per-scenario draw vectors, which [`AssessmentOutput::compare`]
//! pairs into tight [`ScenarioDelta`] difference intervals.

use crate::batch::{assess_columns, slices_to_frame};
use crate::columns::FleetColumns;
use crate::coverage::CoverageReport;
use crate::embodied::EmbodiedEstimate;
use crate::estimator::{EasyCConfig, SystemFootprint};
use crate::metrics::SevenMetrics;
use crate::operational::OperationalEstimate;
use crate::partial::PartialAssessment;
use crate::scenario::{DataScenario, ScenarioMatrix};
use crate::uncertainty::{
    embodied_block_accumulate, embodied_factors, fleet_factors, operational_block_accumulate,
    operational_noise, DrawPlan, EmbFactorColumns, Interval, OpFactorColumns, PriorUncertainty,
    ScenarioDelta, ScenarioDraws,
};
use crate::view::FleetView;
use frame::DataFrame;
use parallel::Job;
use std::collections::HashMap;
use std::ops::Range;
use top500::list::Top500List;

/// Builder for a planned, parallel fleet assessment over the source
/// `Src` — a borrowed list ([`Assessment::of`]), a chunk source
/// ([`Assessment::stream`]) or a resident fleet
/// ([`crate::state::FleetState::query`]).
///
/// See the [module docs](self) for the execution model. All builder
/// methods are by-value; finish with `run`.
pub struct Assessment<Src> {
    pub(crate) source: Src,
    config: EasyCConfig,
    matrix: Option<ScenarioMatrix>,
    plan: DrawPlan,
    items_per_worker: usize,
}

/// Default work-item oversubscription: ~4 items per worker, so a skewed
/// item (one giant system, a cache-cold stretch) stops one worker for a
/// quarter of a share instead of idling the other threads at the tail.
const DEFAULT_ITEMS_PER_WORKER: usize = 4;

impl<Src> Assessment<Src> {
    /// A default plan over `source` under `config`.
    pub(crate) fn with_source(source: Src, config: EasyCConfig) -> Assessment<Src> {
        Assessment {
            source,
            config,
            matrix: None,
            plan: DrawPlan::default(),
            items_per_worker: DEFAULT_ITEMS_PER_WORKER,
        }
    }

    /// Replaces the whole configuration (overrides, lifetime, workers).
    /// On a state query a changed override set also changes which
    /// scenarios the warm cache may serve — see
    /// [`crate::state::FleetState::query`].
    pub fn config(mut self, config: EasyCConfig) -> Assessment<Src> {
        self.config = config;
        self
    }

    /// Sets how many threads each phase of this run may use.
    pub fn workers(mut self, workers: usize) -> Assessment<Src> {
        self.config.workers = workers.max(1);
        self
    }

    /// Assesses one explicit scenario (replacing the default
    /// configuration-implied scenario or any previous matrix).
    pub fn scenario(mut self, scenario: DataScenario) -> Assessment<Src> {
        self.matrix = Some(ScenarioMatrix::from_scenarios(vec![scenario]));
        self
    }

    /// Assesses a whole scenario matrix in one interleaved pass per block.
    pub fn scenarios(mut self, matrix: &ScenarioMatrix) -> Assessment<Src> {
        self.matrix = Some(matrix.clone());
        self
    }

    /// Requests Monte-Carlo fleet-total intervals (operational and
    /// embodied) with this many draws per scenario (0 = skip, the
    /// default). All scenarios replay the same per-system perturbations
    /// (common random numbers), so [`AssessmentOutput::compare`] can pair
    /// them into tight difference intervals.
    pub fn uncertainty(mut self, draws: usize) -> Assessment<Src> {
        self.plan.draws = draws;
        self
    }

    /// Confidence level of the intervals (default 0.95).
    pub fn confidence(mut self, level: f64) -> Assessment<Src> {
        self.plan.level = level;
        self
    }

    /// RNG seed for the Monte-Carlo draws (default 0). Results are
    /// reproducible and independent of worker count, granularity and fleet
    /// chunking for a given seed.
    pub fn seed(mut self, seed: u64) -> Assessment<Src> {
        self.plan.seed = seed;
        self
    }

    /// Prior uncertainty widths used by the Monte-Carlo draws.
    pub fn priors(mut self, priors: PriorUncertainty) -> Assessment<Src> {
        self.plan.priors = priors;
        self
    }

    /// Replaces the whole [`DrawPlan`] (draws, level, seed and priors) in
    /// one call.
    pub fn draw_plan(mut self, plan: DrawPlan) -> Assessment<Src> {
        self.plan = plan;
        self
    }

    /// Work items planned per worker within each block (default 4). The
    /// plan splits each block into `workers × items_per_worker` contiguous
    /// sub-ranges; finer items interleave better on skewed lists, coarser
    /// items have less dispatch overhead. Results are bit-identical at any
    /// granularity — this is purely a scheduler knob (pinned by
    /// `tests/batch_matrix`).
    pub fn items_per_worker(mut self, items: usize) -> Assessment<Src> {
        self.items_per_worker = items.max(1);
        self
    }

    /// Splits the plan into its source and an engine ready to run it.
    pub(crate) fn into_parts(self) -> (Src, Engine) {
        let engine = Engine::new(
            self.matrix.as_ref(),
            &self.config,
            self.plan,
            self.items_per_worker,
        );
        (self.source, engine)
    }
}

impl<'a> Assessment<&'a Top500List> {
    /// Session over a borrowed list.
    ///
    /// ```
    /// use easyc::Assessment;
    /// use top500::synthetic::{generate_full, SyntheticConfig};
    ///
    /// // Assess a tiny synthetic fleet end to end: no scenarios, no
    /// // uncertainty — the default single-scenario plan.
    /// let list = generate_full(&SyntheticConfig { n: 25, ..Default::default() });
    /// let output = Assessment::of(&list).workers(2).run();
    /// let slice = &output.slices()[0];
    /// assert_eq!(slice.footprints.len(), 25);
    /// assert_eq!(slice.coverage.total, 25);
    /// assert!(slice.footprints.iter().any(|fp| fp.operational.is_ok()));
    /// ```
    pub fn of(list: &'a Top500List) -> Assessment<&'a Top500List> {
        Assessment::with_source(list, EasyCConfig::default())
    }

    /// Plans and executes the session as one block; the output keeps
    /// every scenario's footprints.
    pub fn run(self) -> AssessmentOutput {
        let (list, mut engine) = self.into_parts();
        let footprints = engine.run_block(list, None);
        engine.finish(footprints)
    }
}

/// Phase-1 products a resident [`crate::state::FleetState`] already holds
/// for its one block, plus its warm footprints per effective scenario
/// (`None` = run the kernels). A cached entry is valid only when the cache
/// was produced by these same kernels over this same fleet and scenario,
/// which is exactly what the resident state guarantees.
pub(crate) struct Resident<'b> {
    pub(crate) metrics: &'b [SevenMetrics],
    pub(crate) columns: &'b FleetColumns,
    pub(crate) cached: Vec<Option<&'b [SystemFootprint]>>,
}

/// The per-block engine behind every [`Assessment`] run (see the
/// [module docs](self)). It owns one running [`PartialAssessment`] per
/// scenario; each [`Engine::run_block`] folds the next contiguous block
/// of the fleet into them.
pub(crate) struct Engine {
    /// The scenarios as displayed (slice labels).
    display: Vec<DataScenario>,
    /// The scenarios as computed: configuration overrides merged under
    /// each scenario's own (scenario wins, matching the serial
    /// `EasyC::assess_scenario` semantics).
    effective: Vec<DataScenario>,
    plan: DrawPlan,
    /// Work items per block: `workers × items_per_worker`.
    granularity: usize,
    /// Threads per phase, passed to [`parallel::run`] (workers=1 keeps the
    /// calling thread, so e.g. thread-local clone counters in tests observe
    /// the whole execution).
    workers: usize,
    partials: Vec<PartialAssessment>,
    blocks: usize,
    systems: usize,
    peak_block_rows: usize,
}

impl Engine {
    fn new(
        matrix: Option<&ScenarioMatrix>,
        config: &EasyCConfig,
        plan: DrawPlan,
        items_per_worker: usize,
    ) -> Engine {
        let workers = config.workers.max(1);
        let display: Vec<DataScenario> = match matrix {
            Some(matrix) => matrix.scenarios().to_vec(),
            None => vec![DataScenario::full("default")],
        };
        let effective: Vec<DataScenario> = display
            .iter()
            .map(|s| DataScenario {
                name: s.name.clone(),
                mask: s.mask,
                overrides: s.overrides.or(config.overrides()),
            })
            .collect();
        Engine {
            partials: display
                .iter()
                .map(|_| PartialAssessment::identity(plan.draws))
                .collect(),
            display,
            effective,
            plan,
            granularity: workers * items_per_worker,
            workers,
            blocks: 0,
            systems: 0,
            peak_block_rows: 0,
        }
    }

    /// The scenarios as labelled in the matrix (matrix order).
    pub(crate) fn scenarios(&self) -> &[DataScenario] {
        &self.display
    }

    /// The scenarios as computed, configuration overrides merged in
    /// (matrix order) — what a warm cache is matched against.
    pub(crate) fn effective(&self) -> &[DataScenario] {
        &self.effective
    }

    /// Runs phases 1–3 over `list`, the block of rows right after every
    /// block already run, and returns its per-scenario footprints (matrix
    /// order). `resident` supplies phase-1 products and warm footprints a
    /// resident state already holds.
    pub(crate) fn run_block(
        &mut self,
        list: &Top500List,
        resident: Option<Resident<'_>>,
    ) -> Vec<Vec<SystemFootprint>> {
        let n = list.len();
        // Global row of the block's first system: the fold offset and the
        // scenario-independent CRN stream offset of its draws.
        let first_row = self.systems;
        self.blocks += 1;
        self.systems += n;
        self.peak_block_rows = self.peak_block_rows.max(n);
        if n == 0 {
            return self.display.iter().map(|_| Vec::new()).collect();
        }
        let ranges = parallel::split_ranges(n, self.granularity);

        // Phase 1 — metrics and the columnar layout every scenario's
        // kernels share, unless the source already holds them.
        let (extracted, built);
        let (metrics, columns, cached) = match &resident {
            Some(r) => (r.metrics, r.columns, r.cached.as_slice()),
            None => {
                extracted = extract_metrics(list, &ranges, self.workers);
                built = FleetColumns::build(list, &extracted);
                (extracted.as_slice(), &built, &[][..])
            }
        };

        // Phase 2 — the (scenario × sub-range) items.
        let footprints = assess_scenarios(
            list,
            metrics,
            columns,
            &self.effective,
            cached,
            &ranges,
            self.workers,
        );

        // Phase 3 — fold the block into each scenario's partial at its
        // global offset (the serial left fold, term by term), then
        // accumulate its Monte-Carlo terms into the partials' draw slots.
        for (partial, block) in self.partials.iter_mut().zip(&footprints) {
            partial.absorb(first_row, block);
        }
        if self.plan.draws > 0 {
            self.run_draws(first_row, n, &footprints);
        }
        footprints
    }

    /// Accumulates one block's Monte-Carlo terms into the partials'
    /// per-sample draw buffers with the blocked kernels. Each work item
    /// owns one disjoint sample range of **every** scenario's buffer: the
    /// per-sample systematic factors and the idiosyncratic noise column
    /// (keyed by `first_row + block row`, the CRN global index) are
    /// scenario-invariant, so one job computes them once and sweeps each
    /// scenario's [`OpFactorColumns`] / [`EmbFactorColumns`] lanes over
    /// them. Terms fold in as `*slot += term` in base order — bit-identical
    /// to the serial [`DrawPlan::operational_draws`] /
    /// [`DrawPlan::embodied_draws`] reference kernels (pinned by
    /// `tests/batch_matrix.rs` and proptests). The draws are a pure
    /// function of the footprint bases and the plan, independent of
    /// whether phase 2 computed the bases or a resident cache supplied
    /// them — which is what makes warm intervals bit-identical.
    fn run_draws(&mut self, first_row: usize, rows: usize, footprints: &[Vec<SystemFootprint>]) {
        let plan = self.plan;
        // Per-scenario factor columns over the Ok estimates, operational
        // bases tagged with their global row — the stream key.
        let op_cols: Vec<OpFactorColumns> = footprints
            .iter()
            .map(|block| {
                let bases: Vec<(usize, OperationalEstimate)> = block
                    .iter()
                    .enumerate()
                    .filter_map(|(row, fp)| {
                        fp.operational
                            .as_ref()
                            .ok()
                            .map(|op| (first_row + row, op.clone()))
                    })
                    .collect();
                OpFactorColumns::from_bases(&bases)
            })
            .collect();
        let emb_cols: Vec<EmbFactorColumns> = footprints
            .iter()
            .map(|block| {
                let bases: Vec<EmbodiedEstimate> = block
                    .iter()
                    .filter_map(|fp| fp.embodied.as_ref().ok().cloned())
                    .collect();
                EmbFactorColumns::from_bases(&bases)
            })
            .collect();
        let sample_chunks = parallel::split_ranges(plan.draws, self.granularity);
        // Transpose the per-scenario buffers into per-sample-chunk work
        // items: item j owns samples `sample_chunks[j]` of every covered
        // scenario, as (scenario index, buffer sub-slice).
        let mut op_parts: Vec<Vec<(usize, &mut [f64])>> =
            sample_chunks.iter().map(|_| Vec::new()).collect();
        let mut emb_parts: Vec<Vec<(usize, &mut [f64])>> =
            sample_chunks.iter().map(|_| Vec::new()).collect();
        for (scenario, ((partial, op), emb)) in self
            .partials
            .iter_mut()
            .zip(&op_cols)
            .zip(&emb_cols)
            .enumerate()
        {
            if op.is_empty() && emb.is_empty() {
                continue;
            }
            let (op_buffer, emb_buffer) = partial.draw_slots();
            if !op.is_empty() {
                let split = parallel::split_mut_by_ranges(op_buffer, &sample_chunks);
                for (item, part) in op_parts.iter_mut().zip(split) {
                    item.push((scenario, part));
                }
            }
            if !emb.is_empty() {
                let split = parallel::split_mut_by_ranges(emb_buffer, &sample_chunks);
                for (item, part) in emb_parts.iter_mut().zip(split) {
                    item.push((scenario, part));
                }
            }
        }
        let (op_cols, emb_cols) = (&op_cols, &emb_cols);
        let op_streams = &plan.operational_streams();
        let emb_streams = &plan.embodied_streams();
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(sample_chunks.len());
        for ((range, mut op_item), mut emb_item) in
            sample_chunks.iter().cloned().zip(op_parts).zip(emb_parts)
        {
            if op_item.is_empty() && emb_item.is_empty() {
                continue;
            }
            let priors = plan.priors;
            jobs.push(Box::new(move || {
                let mut noise = vec![0.0f64; if op_item.is_empty() { 0 } else { rows }];
                for (k, sample) in range.clone().enumerate() {
                    if !op_item.is_empty() {
                        let factors = fleet_factors(op_streams, &priors, sample);
                        operational_noise(op_streams, sample, first_row, &mut noise);
                        for (scenario, part) in op_item.iter_mut() {
                            operational_block_accumulate(
                                &op_cols[*scenario],
                                &factors,
                                &noise,
                                first_row,
                                &mut part[k],
                            );
                        }
                    }
                    if !emb_item.is_empty() {
                        let factors = embodied_factors(emb_streams, &priors, sample);
                        for (scenario, part) in emb_item.iter_mut() {
                            embodied_block_accumulate(&emb_cols[*scenario], &factors, &mut part[k]);
                        }
                    }
                }
            }));
        }
        parallel::run(self.workers, jobs);
    }

    /// Collapses the running partials into the run's output. `footprints`
    /// are the per-scenario rows a list or state run keeps; a streamed run
    /// passes none, leaving every slice's footprints empty.
    pub(crate) fn finish(self, mut footprints: Vec<Vec<SystemFootprint>>) -> AssessmentOutput {
        footprints.resize_with(self.display.len(), Vec::new);
        let plan = self.plan;
        let mut slices = Vec::with_capacity(self.display.len());
        let mut retained = Vec::with_capacity(self.display.len());
        for ((scenario, partial), footprints) in
            self.display.into_iter().zip(self.partials).zip(footprints)
        {
            // `finish` returns the fold state verbatim: the absorbed point
            // totals and the kernel-filled draw buffers, with an uncovered
            // family's buffer dropped — the retention policy.
            let totals = partial.finish();
            slices.push(ScenarioSlice {
                scenario,
                footprints,
                coverage: CoverageReport {
                    operational: totals.op_covered,
                    embodied: totals.emb_covered,
                    total: totals.total,
                },
                operational_total_mt: totals.operational_mt,
                embodied_total_mt: totals.embodied_mt,
                interval: plan.interval_of(totals.operational_mt, &totals.op_draws),
                embodied_interval: plan.interval_of(totals.embodied_mt, &totals.emb_draws),
            });
            retained.push(ScenarioDraws {
                op_point: totals.operational_mt,
                op: totals.op_draws,
                emb_point: totals.embodied_mt,
                emb: totals.emb_draws,
            });
        }
        let mut index = HashMap::with_capacity(slices.len());
        for (i, slice) in slices.iter().enumerate() {
            index.entry(slice.scenario.name.clone()).or_insert(i);
        }
        AssessmentOutput {
            slices,
            index,
            plan,
            draws: retained,
            blocks: self.blocks,
            systems: self.systems,
            peak_block_rows: self.peak_block_rows,
        }
    }
}

/// Phase 1 — metric extraction, chunk-parallel.
fn extract_metrics(
    list: &Top500List,
    ranges: &[Range<usize>],
    workers: usize,
) -> Vec<SevenMetrics> {
    let mut slots: Vec<Option<SevenMetrics>> = Vec::with_capacity(list.len());
    slots.resize_with(list.len(), || None);
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(ranges.len());
    let mut rest = slots.as_mut_slice();
    for range in ranges {
        let (chunk, tail) = rest.split_at_mut(range.len());
        rest = tail;
        // audit: allow(panic-surface) — the chunk plan partitions 0..len, so every range is in bounds
        let records = &list.systems()[range.clone()];
        jobs.push(Box::new(move || {
            for (slot, record) in chunk.iter_mut().zip(records) {
                *slot = Some(SevenMetrics::extract(record));
            }
        }));
    }
    parallel::run(workers, jobs);
    slots
        .into_iter()
        // audit: allow(panic-surface) — `parallel::run` returns after every job ran, so each slot was filled
        .map(|m| m.expect("every extraction chunk ran"))
        .collect()
}

/// Phase 2 — every (scenario × sub-range) item of one block, interleaved
/// in one [`parallel::run`] call. Each item owns a disjoint slice of one scenario's output,
/// so the result is deterministic regardless of scheduling. All scenarios
/// share one [`FleetColumns`] layout — bit-identical to the row-at-a-time
/// `assess_view` reference (pinned by the session tests and
/// `tests/proptests.rs`). Scenarios with cached footprints skip their
/// items entirely: the resident state already holds the same bits.
fn assess_scenarios(
    list: &Top500List,
    metrics: &[SevenMetrics],
    columns: &FleetColumns,
    effective: &[DataScenario],
    cached: &[Option<&[SystemFootprint]>],
    ranges: &[Range<usize>],
    workers: usize,
) -> Vec<Vec<SystemFootprint>> {
    let n = list.len();
    let cached_of = |scenario: usize| cached.get(scenario).copied().flatten();
    let mut outputs: Vec<Option<Vec<Option<SystemFootprint>>>> = (0..effective.len())
        .map(|scenario| {
            cached_of(scenario).is_none().then(|| {
                let mut v = Vec::with_capacity(n);
                v.resize_with(n, || None);
                v
            })
        })
        .collect();
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(effective.len() * ranges.len());
    for (scenario, out) in effective.iter().zip(outputs.iter_mut()) {
        let Some(out) = out.as_mut() else { continue };
        let view = FleetView::new(list, metrics, scenario);
        let mut rest = out.as_mut_slice();
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let range = range.clone();
            jobs.push(Box::new(move || {
                assess_columns(columns, &view, range, chunk);
            }));
        }
    }
    parallel::run(workers, jobs);
    outputs
        .into_iter()
        .enumerate()
        .map(|(scenario, out)| match out {
            Some(out) => out
                .into_iter()
                // audit: allow(panic-surface) — `parallel::run` returns after every job ran, so each slot was filled
                .map(|f| f.expect("every assessment chunk ran"))
                .collect(),
            None => cached_of(scenario)
                // audit: allow(panic-surface) — the planner skips exactly the cached scenarios
                .expect("uncomputed scenarios carry a cache")
                .to_vec(),
        })
        .collect()
}

/// One scenario's results: coverage, fleet totals and (with draws) fleet
/// intervals — plus the per-system footprints when the run keeps them.
#[derive(Debug, Clone)]
pub struct ScenarioSlice {
    /// The scenario that produced this slice (display form, as labelled in
    /// the matrix).
    pub scenario: DataScenario,
    /// Per-system footprints, rank order. List and state runs keep them;
    /// a streamed run folds them away and leaves this empty (attach a row
    /// sink to see them).
    pub footprints: Vec<SystemFootprint>,
    /// Coverage counts under the scenario. Coverage is *by construction*
    /// "the estimator returned `Ok`".
    pub coverage: CoverageReport,
    /// Fleet-total operational carbon over covered systems, MT CO2e/yr.
    pub operational_total_mt: f64,
    /// Fleet-total embodied carbon over covered systems, MT CO2e.
    pub embodied_total_mt: f64,
    /// Fleet-total operational interval (`None` without `uncertainty` or
    /// when nothing was estimable).
    pub interval: Option<Interval>,
    /// Fleet-total embodied interval (`None` without `uncertainty` or when
    /// nothing was estimable).
    pub embodied_interval: Option<Interval>,
}

/// Results of one [`Assessment`] run, whatever its source: per-scenario
/// slices (matrix order) with O(1) lookup by name (first occurrence wins),
/// the retained per-scenario draw vectors — paired across scenarios by the
/// run's common random numbers, which is what
/// [`AssessmentOutput::compare`] folds into tight [`ScenarioDelta`]
/// difference intervals — and the blocks the engine ran.
#[derive(Debug, Clone)]
pub struct AssessmentOutput {
    slices: Vec<ScenarioSlice>,
    index: HashMap<String, usize>,
    plan: DrawPlan,
    /// Per-scenario draw vectors, matrix order (empty without draws).
    draws: Vec<ScenarioDraws>,
    blocks: usize,
    systems: usize,
    peak_block_rows: usize,
}

impl AssessmentOutput {
    /// All slices, matrix order.
    pub fn slices(&self) -> &[ScenarioSlice] {
        &self.slices
    }

    /// Number of scenarios assessed.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True when nothing was assessed (empty matrix).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Slice by scenario name — O(1).
    pub fn slice(&self, name: &str) -> Option<&ScenarioSlice> {
        self.index_of(name).and_then(|i| self.slices.get(i))
    }

    /// Footprints of one scenario by name — O(1) (empty for a streamed
    /// run).
    pub fn footprints(&self, name: &str) -> Option<&[SystemFootprint]> {
        self.slice(name).map(|s| s.footprints.as_slice())
    }

    /// Per-scenario fleet-total operational intervals, matrix order
    /// (`None` entries when `uncertainty` was not requested or a scenario
    /// covered nothing).
    pub fn intervals(&self) -> Vec<Option<Interval>> {
        self.slices.iter().map(|s| s.interval).collect()
    }

    /// Per-scenario fleet-total *embodied* intervals, matrix order.
    pub fn embodied_intervals(&self) -> Vec<Option<Interval>> {
        self.slices.iter().map(|s| s.embodied_interval).collect()
    }

    /// Operational interval of one scenario by name — O(1).
    pub fn interval(&self, name: &str) -> Option<Interval> {
        self.slice(name).and_then(|s| s.interval)
    }

    /// Embodied interval of one scenario by name — O(1).
    pub fn embodied_interval(&self, name: &str) -> Option<Interval> {
        self.slice(name).and_then(|s| s.embodied_interval)
    }

    /// The [`DrawPlan`] that produced this output's uncertainty phase.
    pub fn draw_plan(&self) -> &DrawPlan {
        &self.plan
    }

    /// One scenario's retained operational draw vector (`None` without
    /// `uncertainty` or when the scenario covered nothing). Draws are
    /// paired across scenarios: index `i` of every scenario's vector was
    /// produced by the same per-system perturbations, whatever the source.
    pub fn operational_draws(&self, name: &str) -> Option<&[f64]> {
        let draws = &self.draws.get(self.index_of(name)?)?.op;
        (!draws.is_empty()).then_some(draws)
    }

    /// One scenario's retained embodied draw vector — see
    /// [`AssessmentOutput::operational_draws`].
    pub fn embodied_draws(&self, name: &str) -> Option<&[f64]> {
        let draws = &self.draws.get(self.index_of(name)?)?.emb;
        (!draws.is_empty()).then_some(draws)
    }

    /// Paired-difference intervals `variant − baseline` over the run's
    /// common random numbers — the first-class scenario comparison. `None`
    /// when either scenario is absent or no uncertainty draws ran; the
    /// per-family intervals inside are `None` where a side had no
    /// coverage. The paired interval is no wider — in practice far tighter
    /// — than [`Interval::independent_difference`] of the two scenarios'
    /// own bands, because both scenarios replayed identical per-system
    /// perturbations (pinned by `tests/compare.rs` and proptests).
    pub fn compare(&self, baseline: &str, variant: &str) -> Option<ScenarioDelta> {
        let b = self.draws.get(self.index_of(baseline)?)?;
        let v = self.draws.get(self.index_of(variant)?)?;
        (self.plan.draws > 0)
            .then(|| ScenarioDelta::paired(baseline, variant, b, v, self.plan.alpha()))
    }

    /// Columnar layout of every kept (scenario, system) result:
    /// `scenario, rank, operational_mt, embodied_mt, power_kw, pue,
    /// utilization, power_path, note` (nulls where not estimable). A
    /// streamed run keeps no footprints, so its frame has no rows — its
    /// row sink renders the same rows block by block through
    /// [`crate::batch::footprints_frame`].
    pub fn to_frame(&self) -> DataFrame {
        slices_to_frame(&self.slices)
    }

    /// Consumes the output, returning the first scenario's footprints —
    /// the single-scenario convenience.
    pub fn into_footprints(self) -> Vec<SystemFootprint> {
        self.slices
            .into_iter()
            .next()
            .map(|s| s.footprints)
            .unwrap_or_default()
    }

    /// Blocks the engine ran: chunks pulled from a streamed source (empty
    /// ones included), or 1 for a list or state run.
    pub fn chunks(&self) -> usize {
        self.blocks
    }

    /// Systems assessed across all blocks.
    pub fn systems(&self) -> usize {
        self.systems
    }

    /// Largest single block — for a streamed run, the fleet-memory
    /// high-water mark, since exactly one chunk is resident at a time.
    pub fn peak_chunk_rows(&self) -> usize {
        self.peak_block_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EasyC;
    use crate::scenario::{MetricBit, MetricMask, OverrideSet};
    use top500::synthetic::{generate_full, SyntheticConfig};

    fn list() -> Top500List {
        generate_full(&SyntheticConfig {
            n: 80,
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
            .with(DataScenario::full("site-pue").with_overrides(OverrideSet {
                pue: Some(1.1),
                ..OverrideSet::NONE
            }))
    }

    #[test]
    fn session_matches_serial_at_every_worker_count() {
        let list = list();
        let tool = EasyC::new();
        for scenario in matrix().scenarios() {
            let serial: Vec<SystemFootprint> = list
                .systems()
                .iter()
                .map(|s| tool.assess_scenario(s, scenario))
                .collect();
            for workers in [1usize, 2, 3, 8] {
                let out = Assessment::of(&list)
                    .workers(workers)
                    .scenario(scenario.clone())
                    .run();
                let got = out.footprints(&scenario.name).unwrap();
                assert_eq!(got.len(), serial.len());
                for (g, s) in got.iter().zip(&serial) {
                    assert_eq!(g.operational, s.operational, "workers {workers}");
                    assert_eq!(g.embodied, s.embodied, "workers {workers}");
                }
            }
        }
    }

    #[test]
    fn matrix_slices_keep_matrix_order_and_names() {
        let list = list();
        let out = Assessment::of(&list).scenarios(&matrix()).run();
        assert_eq!(out.len(), 3);
        assert!(!out.is_empty());
        let names: Vec<&str> = out
            .slices()
            .iter()
            .map(|s| s.scenario.name.as_str())
            .collect();
        assert_eq!(names, vec!["full", "no-power", "site-pue"]);
        assert!(out.slice("no-power").is_some());
        assert!(out.slice("missing").is_none());
        assert_eq!(out.footprints("full").unwrap().len(), 80);
    }

    #[test]
    fn config_overrides_merge_under_scenario_overrides() {
        let list = list();
        let config = EasyCConfig {
            pue_override: Some(2.0),
            ..Default::default()
        };
        let out = Assessment::of(&list)
            .config(config)
            .scenarios(&matrix())
            .run();
        // "full" inherits the config PUE; "site-pue" wins with its own.
        for fp in out.footprints("full").unwrap() {
            if let Ok(op) = &fp.operational {
                assert_eq!(op.pue, 2.0);
            }
        }
        for fp in out.footprints("site-pue").unwrap() {
            if let Ok(op) = &fp.operational {
                assert_eq!(op.pue, 1.1);
            }
        }
    }

    #[test]
    fn default_scenario_matches_easyc_assess() {
        let list = list();
        let tool = EasyC::new();
        let serial: Vec<SystemFootprint> = list.systems().iter().map(|s| tool.assess(s)).collect();
        let session = Assessment::of(&list).workers(4).run().into_footprints();
        assert_eq!(session.len(), serial.len());
        for (a, b) in session.iter().zip(&serial) {
            assert_eq!(a.operational, b.operational);
            assert_eq!(a.embodied, b.embodied);
        }
    }

    #[test]
    fn intervals_deterministic_across_worker_counts() {
        let list = list();
        let run = |workers| {
            Assessment::of(&list)
                .workers(workers)
                .scenarios(&matrix())
                .uncertainty(200)
                .confidence(0.9)
                .seed(11)
                .run()
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.intervals(), b.intervals());
        assert_eq!(a.embodied_intervals(), b.embodied_intervals());
        let iv = a.interval("full").unwrap();
        assert!(iv.lo < iv.point && iv.point < iv.hi * 1.2);
        let emb = a.embodied_interval("full").unwrap();
        assert!(emb.lo < emb.point && emb.point < emb.hi * 1.2);
    }

    #[test]
    fn no_uncertainty_means_no_intervals() {
        let list = list();
        let out = Assessment::of(&list).scenarios(&matrix()).run();
        assert_eq!(out.intervals().len(), 3);
        assert!(out.intervals().iter().all(Option::is_none));
        assert!(out.embodied_intervals().iter().all(Option::is_none));
        assert!(out.interval("full").is_none());
        assert!(out.embodied_interval("full").is_none());
    }

    #[test]
    fn empty_matrix_yields_empty_output() {
        let list = list();
        let out = Assessment::of(&list)
            .scenarios(&ScenarioMatrix::new())
            .run();
        assert!(out.is_empty());
        assert!(out.into_footprints().is_empty());
    }

    #[test]
    fn duplicate_names_resolve_to_first_like_a_linear_scan() {
        let list = list();
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("dup"))
                .with(DataScenario::masked(
                    "dup",
                    MetricMask::ALL.without(MetricBit::PowerKw),
                ));
        let out = Assessment::of(&list).scenarios(&matrix).run();
        let slice = out.slice("dup").unwrap();
        assert_eq!(slice.scenario.mask, MetricMask::ALL);
    }

    #[test]
    fn masked_matrix_run_performs_zero_record_clones() {
        let list = list();
        let before = top500::record::clones_on_thread();
        // workers(1) keeps the whole plan on this thread, so the
        // thread-local counter observes every clone the engine would do.
        let out = Assessment::of(&list).workers(1).scenarios(&matrix()).run();
        assert_eq!(out.len(), 3);
        assert_eq!(
            top500::record::clones_on_thread(),
            before,
            "masked sweep must not clone records"
        );
    }

    #[test]
    fn list_run_totals_are_the_fold_of_its_footprints() {
        // A list run keeps footprints *and* carries totals: the totals are
        // the partial fold of exactly those footprints, and coverage is
        // the count of `Ok` estimates among them.
        let list = list();
        let out = Assessment::of(&list).scenarios(&matrix()).run();
        assert_eq!(out.systems(), 80);
        assert_eq!(out.chunks(), 1);
        for slice in out.slices() {
            let mut partial = PartialAssessment::identity(0);
            partial.absorb(0, &slice.footprints);
            let totals = partial.finish();
            assert_eq!(
                slice.operational_total_mt.to_bits(),
                totals.operational_mt.to_bits()
            );
            assert_eq!(
                slice.embodied_total_mt.to_bits(),
                totals.embodied_mt.to_bits()
            );
            assert_eq!(
                slice.coverage,
                CoverageReport::from_footprints(&slice.footprints)
            );
        }
    }
}
