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
//! thread. Each block is split into roughly `workers × 4` contiguous
//! sub-ranges (fine enough that one slow item cannot idle the other
//! threads). Wide matrices do not walk scenarios sequentially, so a slow
//! scenario cannot leave workers idle while others wait. Output is deterministic and bit-identical to the serial
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
//!   work item computes its samples' factors and noise column once (or
//!   reads the column from a resident state's noise cache), then one
//!   lognormal ACI factor per distinct (row, σ) pair over every scenario,
//!   sweeping them over every leading scenario's pre-hoisted factor
//!   columns;
//! - a scenario whose factor columns and running draws equal an earlier
//!   scenario's, in one family, copies that scenario's draws: the kernels
//!   are pure functions of those bits, so the copy is what its own
//!   accumulate would have written.
//!
//! Every run returns one [`AssessmentOutput`]: per-scenario
//! [`ScenarioSlice`]s (coverage, fleet totals, operational **and** embodied
//! [`Interval`]s, and the footprints when the source keeps them) plus the
//! retained per-scenario draw vectors, which [`AssessmentOutput::compare`]
//! pairs into tight [`ScenarioDelta`] difference intervals.

use crate::batch::{assess_columns, slices_to_frame};
use crate::columns::FleetColumns;
use crate::coverage::CoverageReport;
use crate::estimator::{EasyCConfig, SystemFootprint};
use crate::metrics::SevenMetrics;
use crate::partial::PartialAssessment;
use crate::scenario::{DataScenario, ScenarioMatrix};
use crate::uncertainty::{
    column_bits, embodied_block_accumulate, embodied_factors, fleet_factors,
    operational_block_accumulate, operational_noise, AciLanes, DrawPlan, EmbFactorColumns,
    Interval, OpFactorColumns, ScenarioDelta, ScenarioDraws,
};
use crate::view::FleetView;
use frame::DataFrame;
use parallel::Job;
use std::collections::{HashMap, VecDeque};
use std::mem::{size_of, size_of_val};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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
}

/// Work-item oversubscription: ~4 items per worker, so a skewed item (one
/// giant system, a cache-cold stretch) stops one worker for a quarter of a
/// share instead of idling the other threads at the tail. Results are
/// bit-identical at any granularity, so this is purely a scheduling choice.
const DEFAULT_ITEMS_PER_WORKER: usize = 4;

impl<Src> Assessment<Src> {
    /// A default plan over `source` under `config`.
    pub(crate) fn with_source(source: Src, config: EasyCConfig) -> Assessment<Src> {
        Assessment {
            source,
            config,
            matrix: None,
            plan: DrawPlan::default(),
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
    /// them into tight difference intervals. The CLI and `serve` refuse
    /// more than [`crate::MAX_DRAWS`] draws over all scenarios.
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

    /// Replaces the whole [`DrawPlan`] (draws, level, seed and priors) in
    /// one call.
    pub fn draw_plan(mut self, plan: DrawPlan) -> Assessment<Src> {
        self.plan = plan;
        self
    }

    /// Splits the plan into its source and an engine ready to run it.
    pub(crate) fn into_parts(self) -> (Src, Engine) {
        let engine = Engine::new(self.matrix.as_ref(), &self.config, self.plan);
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
/// for its one block (which starts at row 0), plus its warm footprints per
/// effective scenario (`None` = run the kernels) and its noise cache. A
/// cached entry is valid only when the cache was produced by these same
/// kernels over this same fleet and scenario, which is exactly what the
/// resident state guarantees.
pub(crate) struct Resident<'b> {
    pub(crate) metrics: &'b [SevenMetrics],
    pub(crate) columns: &'b FleetColumns,
    pub(crate) cached: Vec<Option<&'b [SystemFootprint]>>,
    pub(crate) noise: &'b NoiseCache,
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
    /// Work items per block: `workers × DEFAULT_ITEMS_PER_WORKER`.
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
    fn new(matrix: Option<&ScenarioMatrix>, config: &EasyCConfig, plan: DrawPlan) -> Engine {
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
            granularity: workers * DEFAULT_ITEMS_PER_WORKER,
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
            let noise = resident.as_ref().map(|r| r.noise);
            self.run_draws(first_row, n, &footprints, noise);
        }
        footprints
    }

    /// Accumulates one block's Monte-Carlo terms into the partials'
    /// per-sample draw buffers with the blocked kernels, doing each piece
    /// of scenario-invariant work once. Each work item owns one disjoint
    /// sample range of every leading scenario's buffer (below). Per
    /// sample, it computes the systematic factors and the idiosyncratic
    /// noise column (keyed by `first_row + block row`, the CRN global
    /// index) once, then one lognormal ACI factor per [`AciLanes`] lane —
    /// a distinct (row, σ) pair over every scenario, so four scenarios that
    /// give a row its country σ share one `exp` — and sweeps each leading
    /// scenario's [`OpFactorColumns`] / [`EmbFactorColumns`] over them.
    /// Terms fold in as `*slot += term` in base order — bit-identical to
    /// the serial [`DrawPlan::operational_draws`] /
    /// [`DrawPlan::embodied_draws`] reference kernels (pinned by
    /// `tests/batch_matrix.rs` and proptests). The draws are a pure
    /// function of the footprint bases and the plan, independent of
    /// whether phase 2 computed the bases or a resident cache supplied
    /// them — which is what makes warm intervals bit-identical.
    ///
    /// A scenario whose factor columns **and** running draw buffer are
    /// bitwise equal to an earlier scenario's in one family gets no work
    /// item there: after the run it copies that leader's buffer, which the
    /// same kernel over the same inputs filled (see [`DrawShares`]). The
    /// buffer condition keeps streamed runs exact, since two scenarios may
    /// agree on this block but not on an earlier one.
    ///
    /// With a resident `noise_cache`, the noise columns come from the
    /// matrix cached for this (seed, rows, draws); when there is none and
    /// the key repeats a recent uncached one, each item fills its own
    /// sample range of a new matrix, which is cached after the run. A
    /// list or stream block, a key's first query and an over-budget
    /// request refill one scratch column per sample. Every column is the
    /// same [`operational_noise`] fill, so the three read the same bits.
    fn run_draws(
        &mut self,
        first_row: usize,
        rows: usize,
        footprints: &[Vec<SystemFootprint>],
        noise_cache: Option<&NoiseCache>,
    ) {
        let plan = self.plan;
        let DrawShares {
            lanes,
            op_cols,
            emb_cols,
            op_roles,
            emb_roles,
        } = DrawShares::plan(footprints, &mut self.partials);
        let sample_chunks = parallel::split_ranges(plan.draws, self.granularity);
        // Transpose the leaders' buffers into per-sample-chunk work items:
        // item j owns samples `sample_chunks[j]` of every leading scenario,
        // as (scenario index, buffer sub-slice).
        let mut op_parts: Vec<Vec<(usize, &mut [f64])>> =
            sample_chunks.iter().map(|_| Vec::new()).collect();
        let mut emb_parts: Vec<Vec<(usize, &mut [f64])>> =
            sample_chunks.iter().map(|_| Vec::new()).collect();
        for (scenario, ((partial, op), emb)) in self
            .partials
            .iter_mut()
            .zip(&op_roles)
            .zip(&emb_roles)
            .enumerate()
        {
            let (op_buffer, emb_buffer) = partial.draw_slots();
            for (role, buffer, parts) in [
                (op, op_buffer, &mut op_parts),
                (emb, emb_buffer, &mut emb_parts),
            ] {
                if *role == Role::Lead {
                    let split = parallel::split_mut_by_ranges(buffer, &sample_chunks);
                    for (item, part) in parts.iter_mut().zip(split) {
                        item.push((scenario, part));
                    }
                }
            }
        }
        // Noise is read only where some scenario has operational terms;
        // the first such scenario leads, so every item then has them and
        // a new matrix is filled whole.
        let key = (plan.seed, rows, plan.draws);
        let mut source = match noise_cache {
            Some(cache) if !lanes.is_empty() => cache.lookup(key),
            _ => NoiseSource::Scratch,
        };
        // Sample range `r` of an item is columns `r.start * rows ..
        // r.end * rows` of a matrix (overflow-free: the matrix exists).
        let columns = |r: &Range<usize>| r.start * rows..r.end * rows;
        let noises: Vec<Noise<'_>> = match &mut source {
            NoiseSource::Cached(matrix) => sample_chunks
                .iter()
                .map(|r| Noise::Cached(&matrix[columns(r)]))
                .collect(),
            NoiseSource::Fill(matrix) => {
                let ranges: Vec<Range<usize>> = sample_chunks.iter().map(columns).collect();
                parallel::split_mut_by_ranges(matrix, &ranges)
                    .into_iter()
                    .map(Noise::Fill)
                    .collect()
            }
            NoiseSource::Scratch => sample_chunks
                .iter()
                .map(|_| Noise::Scratch(Vec::new()))
                .collect(),
        };
        let (lanes, op_cols, emb_cols) = (&lanes, &op_cols, &emb_cols);
        let op_streams = &plan.operational_streams();
        let emb_streams = &plan.embodied_streams();
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(sample_chunks.len());
        for (((range, mut op_item), mut emb_item), mut noise) in sample_chunks
            .iter()
            .cloned()
            .zip(op_parts)
            .zip(emb_parts)
            .zip(noises)
        {
            if op_item.is_empty() && emb_item.is_empty() {
                continue;
            }
            let priors = plan.priors;
            jobs.push(Box::new(move || {
                // The sample's lognormal ACI factor per lane, allocated on
                // the first fill and refilled for every sample.
                let mut mult = Vec::new();
                for (k, sample) in range.clone().enumerate() {
                    if !op_item.is_empty() {
                        let factors = fleet_factors(op_streams, &priors, sample);
                        let z = noise.column(k, rows, |column| {
                            operational_noise(op_streams, sample, first_row, column);
                        });
                        lanes.fill(z, &mut mult);
                        for (scenario, part) in op_item.iter_mut() {
                            operational_block_accumulate(
                                &op_cols[*scenario],
                                &factors,
                                &mult,
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
        if let (Some(cache), NoiseSource::Fill(matrix)) = (noise_cache, source) {
            cache.insert(key, matrix);
        }
        // Each follower copies its leader's finished buffer; a leader
        // precedes its followers, so it lies before the split.
        for (scenario, (op, emb)) in op_roles.iter().zip(&emb_roles).enumerate() {
            let (leaders, rest) = self.partials.split_at_mut(scenario);
            let Some(partial) = rest.first_mut() else {
                break;
            };
            let (op_buffer, emb_buffer) = partial.draw_slots();
            if let Role::Follow(leader) = *op {
                op_buffer.copy_from_slice(leaders[leader].draw_slots().0);
            }
            if let Role::Follow(leader) = *emb {
                emb_buffer.copy_from_slice(leaders[leader].draw_slots().1);
            }
        }
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

/// A scenario's part in one family's draws for one block (see
/// [`Engine::run_draws`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// No terms in this block: the buffer stays as it is.
    Idle,
    /// Runs the family's accumulate into its own buffer.
    Lead,
    /// Copies the buffer of this earlier, leading scenario, whose factor
    /// columns and running buffer were bitwise its own.
    Follow(usize),
}

/// One block's draws work with its scenario-invariant parts found: the
/// ACI lanes, the per-scenario factor columns (matrix order) and each
/// scenario's [`Role`] in the operational and embodied families.
struct DrawShares {
    lanes: AciLanes,
    op_cols: Vec<OpFactorColumns>,
    emb_cols: Vec<EmbFactorColumns>,
    op_roles: Vec<Role>,
    emb_roles: Vec<Role>,
}

impl DrawShares {
    /// Plans the draws of `footprints` (one block per scenario) into the
    /// running buffers of `partials` (same order).
    fn plan(footprints: &[Vec<SystemFootprint>], partials: &mut [PartialAssessment]) -> DrawShares {
        let (lanes, op_cols) = AciLanes::build(footprints);
        let emb_cols: Vec<EmbFactorColumns> = footprints
            .iter()
            .map(|block| EmbFactorColumns::from_block(block))
            .collect();
        let buffers: Vec<(&[f64], &[f64])> = partials
            .iter_mut()
            .map(|partial| {
                let (op, emb) = partial.draw_slots();
                (&*op, &*emb)
            })
            .collect();
        let op_roles =
            roles(op_cols.iter().zip(&buffers).map(|(cols, (op, _))| {
                (!cols.is_empty()).then(|| cols.bits().chain(column_bits(op)))
            }));
        let emb_roles = roles(emb_cols.iter().zip(&buffers).map(|(cols, (_, emb))| {
            (!cols.is_empty()).then(|| cols.bits().chain(column_bits(emb)))
        }));
        DrawShares {
            lanes,
            op_cols,
            emb_cols,
            op_roles,
            emb_roles,
        }
    }
}

/// Each scenario's [`Role`] in one family, from its inputs in matrix
/// order: `None` without terms, else the bits of its factor columns
/// followed by those of its running buffer. The accumulate is a pure
/// function of these bits, so a scenario whose bits equal an earlier
/// leader's follows it. Candidates are found by a `u64` digest of the
/// bits, scanned over the leaders in a `Vec` (a hash map's iteration
/// order is not deterministic), and confirmed bitwise only on equal
/// digests: a wide matrix costs O(scenarios × rows), not O(scenarios² ×
/// rows).
fn roles<I: Iterator<Item = u64> + Clone>(inputs: impl Iterator<Item = Option<I>>) -> Vec<Role> {
    // The 64-bit FNV-1a step over whole words: each step is a bijection
    // of the running digest, so two inputs of one length that differ in
    // one word never collide.
    let digest = |bits: I| {
        bits.fold(0xcbf2_9ce4_8422_2325_u64, |h, word| {
            (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let mut leaders: Vec<(u64, usize, I)> = Vec::new();
    inputs
        .enumerate()
        .map(|(scenario, bits)| {
            let Some(bits) = bits else {
                return Role::Idle;
            };
            let d = digest(bits.clone());
            let leader = leaders
                .iter()
                .find(|(ld, _, lead)| *ld == d && lead.clone().eq(bits.clone()));
            match leader {
                Some(&(_, leader, _)) => Role::Follow(leader),
                None => {
                    leaders.push((d, scenario, bits));
                    Role::Lead
                }
            }
        })
        .collect()
}

/// Where one draws work item reads its samples' CRN noise columns, each
/// `rows` long, the item's `k`-th sample at `k * rows` (see
/// [`Engine::run_draws`]).
enum Noise<'a> {
    /// The item's columns of a cached matrix, read as they are.
    Cached(&'a [f64]),
    /// The item's columns of a new matrix, each filled once.
    Fill(&'a mut [f64]),
    /// One column, refilled for every sample (allocated on first use).
    Scratch(Vec<f64>),
}

impl Noise<'_> {
    /// The noise column of the item's `k`-th sample; `fill` writes it
    /// unless it is cached.
    fn column(&mut self, k: usize, rows: usize, fill: impl FnOnce(&mut [f64])) -> &[f64] {
        let column = match self {
            Noise::Cached(columns) => return &columns[k * rows..(k + 1) * rows],
            Noise::Fill(columns) => &mut columns[k * rows..(k + 1) * rows],
            Noise::Scratch(column) => {
                column.resize(rows, 0.0);
                column.as_mut_slice()
            }
        };
        fill(column);
        column
    }
}

/// The byte budget of a resident state's [`NoiseCache`]: 64 MiB holds,
/// e.g., 64 draws over 131,072 systems, or 256 draws over 32,768.
const NOISE_CACHE_BYTES: usize = 64 << 20;

/// How many uncached draws keys a [`NoiseCache`] remembers. A matrix is
/// cached only for a query that repeats one of them, so a stream of
/// queries that never repeat a key fills no matrix: each reads scratch
/// columns, as a list or stream run does.
const NOISE_SEEN_KEYS: usize = 64;

/// Bytes a cached matrix is charged beyond its `f64`s: its entry and its
/// shared allocation's header, so many small matrices are bounded too.
const NOISE_ENTRY_BYTES: usize =
    size_of::<(NoiseKey, Arc<Vec<f64>>)>() + size_of::<(usize, usize, Vec<f64>)>();

/// The most `f64`s a cached matrix may hold.
const NOISE_MATRIX_LEN: usize = (NOISE_CACHE_BYTES - NOISE_ENTRY_BYTES) / size_of::<f64>();

/// A noise matrix's key: the plan seed, the rows (counted from global row
/// 0, the one block of a resident state) and the samples. The noise
/// `z(seed, sample, row)` depends on nothing else — not on priors,
/// scenarios, row contents or the source hash.
type NoiseKey = (u64, usize, usize);

/// The CRN noise matrices of a resident state's repeated draws queries,
/// sample-major: one `rows`-long column per sample, sample `k` at
/// `k * rows`. The lock is held only to find, insert or evict an entry,
/// never while a matrix is filled or read, so concurrent queries of one
/// `&FleetState` share it.
#[derive(Default)]
pub(crate) struct NoiseCache {
    entries: Mutex<NoiseEntries>,
}

/// What a [`NoiseCache`]'s lock guards.
#[derive(Default)]
struct NoiseEntries {
    /// Cached matrices, least recently used first.
    matrices: Vec<(NoiseKey, Arc<Vec<f64>>)>,
    /// The last [`NOISE_SEEN_KEYS`] keys that found no matrix, oldest
    /// first.
    seen: VecDeque<NoiseKey>,
}

/// Where a draws run reads its noise columns.
enum NoiseSource {
    /// A cached matrix.
    Cached(Arc<Vec<f64>>),
    /// A new matrix the run fills, then [inserts](NoiseCache::insert).
    Fill(Vec<f64>),
    /// One scratch column per work item, refilled for every sample.
    Scratch,
}

impl NoiseCache {
    /// Every entry is whole between statements, so a panic elsewhere while
    /// the lock was held leaves nothing to repair.
    fn lock(&self) -> MutexGuard<'_, NoiseEntries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The noise source of a draws run keyed `key`: its cached matrix,
    /// marked most recently used; else, when `key` repeats a remembered
    /// key and its matrix fits the budget, a new zeroed matrix to fill;
    /// else scratch columns, remembering `key` if its matrix fits.
    fn lookup(&self, key: NoiseKey) -> NoiseSource {
        let mut entries = self.lock();
        if let Some(at) = entries.matrices.iter().position(|(k, _)| *k == key) {
            let entry = entries.matrices.remove(at);
            let matrix = Arc::clone(&entry.1);
            entries.matrices.push(entry);
            return NoiseSource::Cached(matrix);
        }
        let (_, rows, samples) = key;
        let Some(len) = rows
            .checked_mul(samples)
            .filter(|len| *len <= NOISE_MATRIX_LEN)
        else {
            return NoiseSource::Scratch;
        };
        if let Some(at) = entries.seen.iter().position(|k| *k == key) {
            entries.seen.remove(at);
            drop(entries);
            return NoiseSource::Fill(vec![0.0; len]);
        }
        if entries.seen.len() == NOISE_SEEN_KEYS {
            entries.seen.pop_front();
        }
        entries.seen.push_back(key);
        NoiseSource::Scratch
    }

    /// Caches a matrix [`NoiseCache::lookup`] handed out for `key`, now
    /// filled, unless a concurrent run cached `key` first; then evicts
    /// least-recently-used matrices until the budget holds.
    fn insert(&self, key: NoiseKey, matrix: Vec<f64>) {
        let mut entries = self.lock();
        if entries.matrices.iter().any(|(k, _)| *k == key) {
            return;
        }
        entries.matrices.push((key, Arc::new(matrix)));
        let charged =
            |(_, matrix): &(NoiseKey, Arc<Vec<f64>>)| size_of_val(&matrix[..]) + NOISE_ENTRY_BYTES;
        let mut total: usize = entries.matrices.iter().map(charged).sum();
        while total > NOISE_CACHE_BYTES {
            total -= charged(&entries.matrices.remove(0));
        }
    }

    /// The cached matrices' keys, least recently used first.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<(u64, usize, usize)> {
        self.lock().matrices.iter().map(|(key, _)| *key).collect()
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

    #[test]
    fn template_draws_share_aci_lanes_and_follow_repeated_families() {
        // Bit tests cannot see a planner that silently stops sharing, so
        // this pins what the template matrix shares over a small fleet.
        let list = list();
        let template = ScenarioMatrix::from_csv(&ScenarioMatrix::csv_template()).unwrap();
        let output = Assessment::of(&list).scenarios(&template).run();
        let footprints: Vec<Vec<SystemFootprint>> = (output.slices().iter())
            .map(|slice| slice.footprints.clone())
            .collect();
        let identity = || -> Vec<PartialAssessment> {
            (footprints.iter())
                .map(|_| PartialAssessment::identity(16))
                .collect()
        };
        let mut partials = identity();
        let shares = DrawShares::plan(&footprints, &mut partials);
        // One lane per distinct (row, σ bits) pair over every scenario.
        let mut pairs: Vec<(usize, u64)> = (footprints.iter())
            .flat_map(|block| block.iter().enumerate())
            .filter_map(|(row, fp)| {
                let op = fp.operational.as_ref().ok()?;
                Some((row, (op.aci.relative_uncertainty() / 2.0).to_bits()))
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(shares.lanes.len(), pairs.len());
        assert!(pairs.len() < footprints.iter().flatten().count());
        // `no-structure` repeats `full`'s operational terms; `no-power`,
        // `site-pue` and `clean-grid` repeat its embodied ones, and
        // `no-structure` has no embodied coverage.
        use Role::{Follow, Idle, Lead};
        assert_eq!(shares.op_roles, [Lead, Lead, Follow(0), Lead, Lead]);
        assert_eq!(
            shares.emb_roles,
            [Lead, Follow(0), Idle, Follow(0), Follow(0)]
        );
        // Equal columns over a running buffer that differs lead: an
        // earlier block of a streamed run may have told them apart.
        let mut partials = identity();
        partials[2].draw_slots().0[15] = 1.0;
        partials[4].draw_slots().1[0] = -0.0;
        let shares = DrawShares::plan(&footprints, &mut partials);
        assert_eq!(shares.op_roles, [Lead, Lead, Lead, Lead, Lead]);
        assert_eq!(shares.emb_roles, [Lead, Follow(0), Idle, Follow(0), Lead]);
    }

    /// Caches a zero matrix under `key` the way a run does: the key's
    /// first lookup is remembered, its repeat hands out the matrix.
    fn cache_matrix(cache: &NoiseCache, key: NoiseKey) {
        assert!(matches!(cache.lookup(key), NoiseSource::Scratch));
        let NoiseSource::Fill(matrix) = cache.lookup(key) else {
            panic!("a repeated key that fits fills a matrix");
        };
        cache.insert(key, matrix);
    }

    #[test]
    fn noise_cache_admits_repeated_keys_and_evicts_least_recently_used_within_its_budget() {
        // Four 16 MiB matrices: three fit, the fourth evicts the least
        // recently used (seed 2, since seed 1 was read after it).
        let (rows, samples) = (1024, 2048);
        let cache = NoiseCache::default();
        for seed in 1..=3 {
            cache_matrix(&cache, (seed, rows, samples));
        }
        assert!(matches!(
            cache.lookup((1, rows, samples)),
            NoiseSource::Cached(_)
        ));
        cache_matrix(&cache, (4, rows, samples));
        assert_eq!(cache.keys(), [3, 1, 4].map(|seed| (seed, rows, samples)));
        let total: usize = (cache.lock().matrices.iter())
            .map(|(_, m)| size_of_val(&m[..]) + NOISE_ENTRY_BYTES)
            .sum();
        assert!(total <= NOISE_CACHE_BYTES);
        // A concurrent run's second matrix for a cached key is dropped.
        cache.insert((4, rows, samples), vec![0.0; rows * samples]);
        assert_eq!(cache.keys().len(), 3);
        // A hit needs the exact key.
        for key in [
            (4, rows, samples - 1),
            (4, rows, samples + 1),
            (4, rows - 1, samples),
        ] {
            assert!(matches!(cache.lookup(key), NoiseSource::Scratch));
        }
        // 64 × 131,072 `f64`s are the whole budget, so with its bookkeeping
        // that matrix does not fit; a key that does not fit, or whose size
        // overflows, is never remembered, so its repeats never fill.
        const { assert!(64 * 131_071 <= NOISE_MATRIX_LEN && NOISE_MATRIX_LEN < 64 * 131_072) };
        for key in [(5, 64, 131_072), (5, usize::MAX, 2)] {
            for _ in 0..3 {
                assert!(matches!(cache.lookup(key), NoiseSource::Scratch));
            }
        }
        // A key is forgotten after `NOISE_SEEN_KEYS` later uncached keys.
        let key = |seed| (seed, 8, 8);
        assert!(matches!(cache.lookup(key(100)), NoiseSource::Scratch));
        for seed in 0..NOISE_SEEN_KEYS as u64 {
            assert!(matches!(
                cache.lookup(key(200 + seed)),
                NoiseSource::Scratch
            ));
        }
        assert!(matches!(cache.lookup(key(100)), NoiseSource::Scratch));
        assert!(matches!(cache.lookup(key(100)), NoiseSource::Fill(_)));
    }
}
