//! The resident-service layer: a long-lived [`FleetState`] answering cheap
//! borrowed queries — the resident source of the one [`Assessment`] plan.
//!
//! A cold [`Assessment::of`] pays the whole pipeline per call: parse,
//! Phase-1 metric extraction, columnar transposition, Phase-2 estimation.
//! A `FleetState` pays it once and keeps the products warm:
//!
//! - the parsed [`Top500List`] and its Phase-1 [`SevenMetrics`];
//! - the [`FleetColumns`] struct-of-arrays layout the kernels read;
//! - a **footprint cache** for the default (everything-visible) scenario,
//!   keyed by a deterministic content hash of the source
//!   ([`content_hash`], std `DefaultHasher` with its fixed keys), holding
//!   the per-system footprints.
//!
//! [`FleetState::query`] returns the same builder a cold run uses, and its
//! `run` hands the resident products to the same per-block engine
//! ([`crate::session`]) as one block, so every answer is **bit-identical**
//! to the cold path (pinned by `tests/proptests.rs` and `tests/serve.rs`):
//! a cache hit supplies the very bits phase 2 would recompute, and the
//! Monte-Carlo draws are a pure function of those bases and the
//! [`DrawPlan`](crate::uncertainty::DrawPlan) (CRN streams keyed by system
//! index, never by scenario or cache temperature).
//!
//! # Incremental re-assessment
//!
//! [`FleetState::update_rows`] splices `k` edited records in place and
//! repairs every warm product in O(k) work: re-extract `k` metric rows,
//! `FleetColumns::patch_range` `k` columns rows, and re-estimate `k`
//! footprints through the same kernels. No fold is cached: totals are
//! folded from the footprints when asked for
//! ([`FleetState::cached_totals`], or a query's own
//! [`PartialAssessment`]), so there is nothing else to repair. The content
//! hash advances by a deterministic chain hash, so stale
//! [`FleetState::invalidate`] requests are detected exactly
//! ([`InvalidateOutcome::Stale`]).
//!
//! # Noise cache
//!
//! A draws query's idiosyncratic CRN noise `z(seed, sample, row)` depends
//! on the plan seed, the sample and the global row only — not on priors,
//! scenarios, row contents or the source hash. A state keeps the noise
//! matrices of repeated draws queries in a noise cache keyed by (seed, row
//! count, draw count): a key's first query fills scratch columns and is
//! remembered, its second fills a matrix and caches it, and later ones
//! read it. Queries that never repeat a key therefore cache nothing. The
//! matrices survive [`FleetState::update_rows`] and
//! [`FleetState::invalidate`]; [`FleetState::update_source`] rebuilds the
//! state and drops them. Least-recently-used matrices are evicted to stay
//! within one constant byte budget (64 MiB); a larger request is answered
//! without caching. Cached noise is the noise a query would fill, so an
//! answer's bits never depend on the cache. The cache and the matrix
//! layout live in [`crate::session`], whose draws kernel reads them.

use crate::batch::assess_columns;
use crate::columns::FleetColumns;
use crate::estimator::{EasyCConfig, SystemFootprint};
use crate::metrics::SevenMetrics;
use crate::partial::{FleetTotals, PartialAssessment};
use crate::scenario::DataScenario;
use crate::session::{Assessment, AssessmentOutput, NoiseCache, Resident};
use crate::view::FleetView;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use top500::io::ImportError;
use top500::list::Top500List;
use top500::record::SystemRecord;

/// Deterministic content hash of a source text — the footprint-cache key.
///
/// Uses the std `DefaultHasher` *with its default (fixed) keys*: unlike a
/// `HashMap`'s per-instance `RandomState`, `DefaultHasher::new()` is
/// specified to produce the same digest for the same bytes in every
/// process, so hashes are stable across server restarts and comparable
/// across client and server.
pub fn content_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Chain hash advancing a content hash over an in-place row splice — a
/// pure function of (previous hash, splice position, new row contents),
/// so repeating the same edit history always lands on the same hash.
fn chain_hash(prev: u64, first_row: usize, rows: &[SystemRecord]) -> u64 {
    let mut h = DefaultHasher::new();
    prev.hash(&mut h);
    first_row.hash(&mut h);
    format!("{rows:?}").hash(&mut h);
    h.finish()
}

/// The default-scenario footprints, tagged with the content hash of the
/// source they were computed from.
struct FootprintCache {
    hash: u64,
    footprints: Vec<SystemFootprint>,
}

/// What a [`FleetState::invalidate`] request found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidateOutcome {
    /// The hash named the current source: the footprint cache was evicted.
    Evicted,
    /// The hash was stale (or there was nothing cached): no-op. Servers
    /// report this with a distinct response code so clients learn their
    /// view of the fleet is outdated.
    Stale,
}

/// Why a [`FleetState::update_rows`] splice was rejected (state unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// The spliced range `first_row .. first_row + rows` leaves the fleet.
    OutOfBounds {
        /// First row the splice addressed.
        first_row: usize,
        /// Number of replacement rows.
        rows: usize,
        /// Fleet length.
        len: usize,
    },
    /// A replacement row changed its position's rank. Rank defines list
    /// order (and the CRN stream key), so an in-place update must keep it.
    RankChanged {
        /// List position of the offending row.
        row: usize,
        /// The rank currently at that position.
        expected: u32,
        /// The rank the replacement carried.
        got: u32,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::OutOfBounds {
                first_row,
                rows,
                len,
            } => match first_row.checked_add(*rows) {
                Some(end) => write!(
                    f,
                    "row update {first_row}..{end} leaves the {len}-system fleet"
                ),
                None => write!(
                    f,
                    "row update of {rows} rows at {first_row} overflows the row index \
                     of the {len}-system fleet"
                ),
            },
            UpdateError::RankChanged { row, expected, got } => write!(
                f,
                "row {row} must keep rank {expected} (replacement has rank {got}); \
                 rank defines list order — use a full source update to re-rank"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// A long-lived, query-ready fleet: parsed records, Phase-1 metrics, the
/// columnar layout, and (after [`FleetState::warm`]) a content-hash-keyed
/// footprint cache — see the [module docs](self).
pub struct FleetState {
    list: Top500List,
    metrics: Vec<SevenMetrics>,
    columns: FleetColumns,
    config: EasyCConfig,
    source_hash: u64,
    cache: Option<FootprintCache>,
    noise: NoiseCache,
}

impl FleetState {
    /// Parses a TOP500 CSV export and builds the resident products. The
    /// cache key is [`content_hash`] of `text` verbatim.
    pub fn from_csv(text: &str, config: EasyCConfig) -> Result<FleetState, ImportError> {
        let list = top500::io::import_csv(text)?;
        Ok(FleetState::build(list, config, content_hash(text)))
    }

    /// Wraps an already-parsed list; the cache key is the hash of its
    /// canonical CSV export (so equal fleets share a key however built).
    pub fn from_list(list: Top500List, config: EasyCConfig) -> FleetState {
        let hash = content_hash(&top500::io::export_csv(&list));
        FleetState::build(list, config, hash)
    }

    fn build(list: Top500List, config: EasyCConfig, source_hash: u64) -> FleetState {
        let metrics: Vec<SevenMetrics> = list.systems().iter().map(SevenMetrics::extract).collect();
        let columns = FleetColumns::build(&list, &metrics);
        FleetState {
            list,
            metrics,
            columns,
            config,
            source_hash,
            cache: None,
            noise: NoiseCache::default(),
        }
    }

    /// The resident fleet.
    pub fn list(&self) -> &Top500List {
        &self.list
    }

    /// The configuration every query plans against.
    pub fn config(&self) -> &EasyCConfig {
        &self.config
    }

    /// The content hash of the current source — the cache key clients
    /// must present to [`FleetState::invalidate`].
    pub fn source_hash(&self) -> u64 {
        self.source_hash
    }

    /// Number of systems.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.list.len() == 0
    }

    /// True when the default-scenario footprint cache is present and keyed
    /// by the current source hash.
    pub fn is_warm(&self) -> bool {
        self.cached_footprints().is_some()
    }

    /// The effective default scenario (everything visible, configuration
    /// overrides applied) — what the cache is keyed against.
    fn default_scenario(&self) -> DataScenario {
        DataScenario::full("default").with_overrides(self.config.overrides())
    }

    /// Computes (or refreshes) the default-scenario footprint cache
    /// through the same columnar kernels a query uses. Idempotent when
    /// warm.
    pub fn warm(&mut self) {
        if self.is_warm() {
            return;
        }
        let scenario = self.default_scenario();
        let view = FleetView::new(&self.list, &self.metrics, &scenario);
        let n = self.list.len();
        let mut slots: Vec<Option<SystemFootprint>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        assess_columns(&self.columns, &view, 0..n, &mut slots);
        let footprints: Vec<SystemFootprint> = slots
            .into_iter()
            // audit: allow(panic-surface) — assess_columns fills the whole 0..n range it was given
            .map(|f| f.expect("assess_columns fills every slot"))
            .collect();
        self.cache = Some(FootprintCache {
            hash: self.source_hash,
            footprints,
        });
    }

    /// Fleet totals of the cached footprints (`None` when cold): one
    /// fresh [`PartialAssessment`] absorbs them in rank order, so the bits
    /// equal the serial left fold a cold run performs.
    pub fn cached_totals(&self) -> Option<FleetTotals> {
        self.cached_footprints().map(|footprints| {
            let mut partial = PartialAssessment::identity(0);
            partial.absorb(0, footprints);
            partial.finish()
        })
    }

    /// The cached default-scenario footprints (`None` when cold).
    fn cached_footprints(&self) -> Option<&[SystemFootprint]> {
        self.cache
            .as_ref()
            .filter(|c| c.hash == self.source_hash)
            .map(|c| c.footprints.as_slice())
    }

    /// Evicts the footprint cache **iff** `hash` names the current
    /// source; a stale hash is a no-op reported as
    /// [`InvalidateOutcome::Stale`] so clients can distinguish "evicted"
    /// from "your view is outdated".
    pub fn invalidate(&mut self, hash: u64) -> InvalidateOutcome {
        if hash == self.source_hash && self.cache.is_some() {
            self.cache = None;
            InvalidateOutcome::Evicted
        } else {
            InvalidateOutcome::Stale
        }
    }

    /// Replaces the whole source: re-parse, re-extract, re-transpose,
    /// evict the footprint cache and drop the noise cache. Returns the new
    /// source hash.
    pub fn update_source(&mut self, text: &str) -> Result<u64, ImportError> {
        let list = top500::io::import_csv(text)?;
        *self = FleetState::build(list, self.config, content_hash(text));
        Ok(self.source_hash)
    }

    /// Splices `rows` over positions `first_row ..` in place — the O(k)
    /// incremental path (see the [module docs](self)). Replacement rows
    /// must keep their position's rank (rank defines list order and the
    /// CRN stream key). Re-extracts the touched metrics, patches the
    /// touched columns, and — when warm — re-estimates exactly the
    /// touched footprints, keeping the cache warm under the advanced chain
    /// hash. Returns the new source hash.
    pub fn update_rows(
        &mut self,
        first_row: usize,
        rows: Vec<SystemRecord>,
    ) -> Result<u64, UpdateError> {
        let n = self.list.len();
        let k = rows.len();
        if first_row.checked_add(k).is_none_or(|end| end > n) {
            return Err(UpdateError::OutOfBounds {
                first_row,
                rows: k,
                len: n,
            });
        }
        if k == 0 {
            return Ok(self.source_hash);
        }
        let range = first_row..first_row + k;
        for (offset, row) in rows.iter().enumerate() {
            // audit: allow(panic-surface) — `first_row + k <= n` was range-checked (overflow-free) at entry
            let expected = self.list.systems()[first_row + offset].rank;
            if row.rank != expected {
                return Err(UpdateError::RankChanged {
                    row: first_row + offset,
                    expected,
                    got: row.rank,
                });
            }
        }
        // audit: allow(panic-surface) — same entry range check covers the splice
        for (slot, row) in self.list.systems_mut()[range.clone()].iter_mut().zip(rows) {
            *slot = row;
        }
        for i in range.clone() {
            // audit: allow(panic-surface) — same entry range check covers the re-extraction
            self.metrics[i] = SevenMetrics::extract(&self.list.systems()[i]);
        }
        self.columns
            .patch_range(&self.list, &self.metrics, range.clone());
        let new_hash = chain_hash(
            self.source_hash,
            first_row,
            // audit: allow(panic-surface) — same entry range check covers the hash window
            &self.list.systems()[range.clone()],
        );

        let scenario = self.default_scenario();
        if let Some(cache) = self.cache.as_mut().filter(|c| c.hash == self.source_hash) {
            let view = FleetView::new(&self.list, &self.metrics, &scenario);
            let mut slots: Vec<Option<SystemFootprint>> = Vec::with_capacity(k);
            slots.resize_with(k, || None);
            assess_columns(&self.columns, &view, range.clone(), &mut slots);
            for (i, slot) in range.zip(slots) {
                // audit: allow(panic-surface) — assess_columns fills the whole range it was given
                cache.footprints[i] = slot.expect("assess_columns fills every slot");
            }
            cache.hash = new_hash;
        } else {
            self.cache = None;
        }
        self.source_hash = new_hash;
        Ok(new_hash)
    }

    /// Starts a query over the resident fleet: the one [`Assessment`]
    /// builder over a borrowed state, planned against the state's
    /// configuration. Scenarios whose effective (mask, overrides) equal the
    /// warm default scenario skip phase 2 — the cache already holds the
    /// bits it would recompute; everything else (including every scenario
    /// of a query given a different [`Assessment::config`]) runs the cold
    /// kernels over the resident columns. Monte-Carlo draws are a pure
    /// function of the footprint bases and the plan, so intervals match the
    /// cold session bit for bit either way.
    pub fn query(&self) -> Assessment<&FleetState> {
        Assessment::with_source(self, self.config)
    }
}

impl Assessment<&FleetState> {
    /// Plans and executes the query as one engine block over the resident
    /// metrics and columns; the output keeps every scenario's footprints.
    pub fn run(self) -> AssessmentOutput {
        let (state, mut engine) = self.into_parts();
        let warm = state.cached_footprints();
        let default = state.default_scenario();
        let cached = engine
            .effective()
            .iter()
            .map(|eff| {
                warm.filter(|_| eff.mask == default.mask && eff.overrides == default.overrides)
            })
            .collect();
        let footprints = engine.run_block(
            &state.list,
            Some(Resident {
                metrics: &state.metrics,
                columns: &state.columns,
                cached,
                noise: &state.noise,
            }),
        );
        engine.finish(footprints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MetricBit, MetricMask, OverrideSet, ScenarioMatrix};
    use top500::synthetic::{generate_full, SyntheticConfig};

    fn list(n: u32) -> Top500List {
        generate_full(&SyntheticConfig {
            n,
            ..Default::default()
        })
    }

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::new()
            .with(DataScenario::full("default"))
            .with(DataScenario::masked(
                "no-power",
                MetricMask::ALL
                    .without(MetricBit::PowerKw)
                    .without(MetricBit::AnnualEnergy),
            ))
            .with(DataScenario::full("pue").with_overrides(OverrideSet {
                pue: Some(1.15),
                ..OverrideSet::NONE
            }))
    }

    fn assert_outputs_identical(a: &AssessmentOutput, b: &AssessmentOutput) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.slices().iter().zip(b.slices()) {
            assert_eq!(x.scenario.name, y.scenario.name);
            for (f, g) in x.footprints.iter().zip(&y.footprints) {
                assert_eq!(f.operational, g.operational);
                assert_eq!(f.embodied, g.embodied);
            }
        }
        assert_eq!(a.intervals(), b.intervals());
        assert_eq!(a.embodied_intervals(), b.embodied_intervals());
    }

    #[test]
    fn warm_query_is_bit_identical_to_cold_session() {
        let list = list(60);
        let cold = Assessment::of(&list)
            .workers(3)
            .scenarios(&matrix())
            .uncertainty(64)
            .seed(9)
            .run();
        let mut state = FleetState::from_list(list, EasyCConfig::default());
        state.warm();
        assert!(state.is_warm());
        let warm = state
            .query()
            .workers(3)
            .scenarios(&matrix())
            .uncertainty(64)
            .seed(9)
            .run();
        assert_outputs_identical(&cold, &warm);
        // Cold state (no warm()) also matches — the cache is an
        // optimisation, never a semantic.
        let cold_state = FleetState::from_list(
            top500::io::import_csv(&top500::io::export_csv(state.list())).unwrap(),
            EasyCConfig::default(),
        );
        let unwarmed = cold_state
            .query()
            .workers(3)
            .scenarios(&matrix())
            .uncertainty(64)
            .seed(9)
            .run();
        assert_outputs_identical(&cold, &unwarmed);
    }

    #[test]
    fn cached_totals_match_the_serial_fold() {
        let mut state = FleetState::from_list(list(50), EasyCConfig::default());
        assert!(state.cached_totals().is_none());
        state.warm();
        let totals = state.cached_totals().expect("warm");
        let cold = Assessment::of(state.list()).run();
        let reference = &cold.slices()[0];
        assert_eq!(
            totals.operational_mt.to_bits(),
            reference.operational_total_mt.to_bits()
        );
        assert_eq!(
            totals.embodied_mt.to_bits(),
            reference.embodied_total_mt.to_bits()
        );
        assert_eq!(totals.total, 50);
    }

    #[test]
    fn update_rows_is_bit_identical_to_rebuild() {
        let base = list(70);
        let mut state = FleetState::from_list(
            top500::io::import_csv(&top500::io::export_csv(&base)).unwrap(),
            EasyCConfig::default(),
        );
        state.warm();
        // Edit rows 30..34: new power, a different CPU, dropped country.
        let mut rows: Vec<SystemRecord> = base.systems()[30..34].to_vec();
        for r in &mut rows {
            r.power_kw = Some(4321.0);
            r.processor = Some("Xeon Platinum 8280".into());
            r.country = None;
        }
        let mut edited = base.systems().to_vec();
        for (slot, row) in edited[30..34].iter_mut().zip(rows.iter()) {
            *slot = row.clone();
        }
        let hash_before = state.source_hash();
        let hash_after = state.update_rows(30, rows).expect("valid splice");
        assert_ne!(hash_before, hash_after);
        assert!(state.is_warm(), "an in-place update keeps the cache warm");

        let rebuilt = Top500List::new(edited);
        let cold = Assessment::of(&rebuilt)
            .workers(2)
            .scenarios(&matrix())
            .uncertainty(48)
            .seed(4)
            .run();
        let warm = state
            .query()
            .workers(2)
            .scenarios(&matrix())
            .uncertainty(48)
            .seed(4)
            .run();
        assert_outputs_identical(&cold, &warm);

        // The repaired cache folds to the cold run's totals.
        let totals = state.cached_totals().expect("warm");
        let reference = &cold.slices()[0];
        assert_eq!(
            totals.operational_mt.to_bits(),
            reference.operational_total_mt.to_bits()
        );
        assert_eq!(
            totals.embodied_mt.to_bits(),
            reference.embodied_total_mt.to_bits()
        );
    }

    #[test]
    fn update_rows_rejects_bad_splices_untouched() {
        let base = list(20);
        let mut state = FleetState::from_list(
            top500::io::import_csv(&top500::io::export_csv(&base)).unwrap(),
            EasyCConfig::default(),
        );
        state.warm();
        let hash = state.source_hash();

        let rows: Vec<SystemRecord> = base.systems()[5..7].to_vec();
        let err = state.update_rows(19, rows).unwrap_err();
        assert!(matches!(err, UpdateError::OutOfBounds { .. }));
        assert!(err.to_string().contains("19..21"));

        let mut rows: Vec<SystemRecord> = base.systems()[5..6].to_vec();
        rows[0].rank = 999;
        let err = state.update_rows(5, rows).unwrap_err();
        assert!(matches!(err, UpdateError::RankChanged { row: 5, .. }));
        assert!(err.to_string().contains("rank"));

        assert_eq!(state.source_hash(), hash, "rejected splices change nothing");
        assert!(state.is_warm());

        // Empty splices are hash-preserving no-ops.
        assert_eq!(state.update_rows(3, Vec::new()).unwrap(), hash);
    }

    #[test]
    fn update_rows_rejects_an_overflowing_splice_untouched() {
        // `first_row + rows` wraps past usize::MAX: the bounds test must
        // not let it through to the splice.
        let base = list(20);
        let mut state = FleetState::from_list(base.clone(), EasyCConfig::default());
        state.warm();
        let hash = state.source_hash();
        let err = state
            .update_rows(usize::MAX, base.systems()[..1].to_vec())
            .unwrap_err();
        assert_eq!(
            err,
            UpdateError::OutOfBounds {
                first_row: usize::MAX,
                rows: 1,
                len: 20
            }
        );
        assert!(err.to_string().contains("overflows"));
        assert_eq!(state.source_hash(), hash);
        assert!(state.is_warm());
    }

    #[test]
    fn invalidate_distinguishes_current_from_stale() {
        let mut state = FleetState::from_list(list(10), EasyCConfig::default());
        state.warm();
        let hash = state.source_hash();
        assert_eq!(state.invalidate(hash ^ 1), InvalidateOutcome::Stale);
        assert!(state.is_warm(), "a stale invalidate is a no-op");
        assert_eq!(state.invalidate(hash), InvalidateOutcome::Evicted);
        assert!(!state.is_warm());
        assert_eq!(state.invalidate(hash), InvalidateOutcome::Stale);
    }

    #[test]
    fn update_source_reparses_and_evicts() {
        let a = list(12);
        let b = list(9);
        let text_a = top500::io::export_csv(&a);
        let text_b = top500::io::export_csv(&b);
        let mut state = FleetState::from_csv(&text_a, EasyCConfig::default()).unwrap();
        state.warm();
        assert_eq!(state.source_hash(), content_hash(&text_a));
        let new_hash = state.update_source(&text_b).unwrap();
        assert_eq!(new_hash, content_hash(&text_b));
        assert_eq!(state.len(), 9);
        assert!(!state.is_warm(), "a source swap evicts the cache");
        assert!(state.update_source("not,a,valid header\n???").is_err());
    }

    fn draws_query(state: &FleetState, draws: usize, seed: u64) -> AssessmentOutput {
        state
            .query()
            .workers(2)
            .scenarios(&matrix())
            .uncertainty(draws)
            .seed(seed)
            .run()
    }

    fn draws_reference(list: &Top500List, draws: usize, seed: u64) -> AssessmentOutput {
        Assessment::of(list)
            .workers(2)
            .scenarios(&matrix())
            .uncertainty(draws)
            .seed(seed)
            .run()
    }

    #[test]
    fn an_over_budget_draws_query_is_answered_and_caches_nothing() {
        // 64 rows × 131,072 samples of `f64` is the whole 64 MiB budget,
        // so with its bookkeeping the matrix does not fit.
        let (rows, draws) = (64, 131_072);
        let state = FleetState::from_list(list(rows as u32), EasyCConfig::default());
        let one = DataScenario::full("default");
        let want = Assessment::of(state.list())
            .scenario(one.clone())
            .uncertainty(draws)
            .seed(3)
            .run();
        // A repeat would cache a matrix that fits.
        for _ in 0..2 {
            let got = state
                .query()
                .scenario(one.clone())
                .uncertainty(draws)
                .seed(3)
                .run();
            assert_outputs_identical(&got, &want);
            assert!(state.noise.keys().is_empty());
        }
    }

    #[test]
    fn noise_cache_survives_edits_and_invalidate_but_not_a_new_source() {
        let base = list(40);
        let text = top500::io::export_csv(&base);
        let mut state = FleetState::from_csv(&text, EasyCConfig::default()).unwrap();
        state.warm();
        // A key's first query caches nothing, its repeat caches the
        // matrix, and the next reads it, adding nothing.
        let first = draws_query(&state, 24, 5);
        assert!(state.noise.keys().is_empty());
        for _ in 0..2 {
            assert_outputs_identical(&draws_query(&state, 24, 5), &first);
            assert_eq!(state.noise.keys(), vec![(5, 40, 24)]);
        }

        let mut rows: Vec<SystemRecord> = base.systems()[10..13].to_vec();
        for r in &mut rows {
            r.power_kw = Some(777.0);
        }
        state.update_rows(10, rows).expect("rank-preserving splice");
        assert_eq!(state.noise.keys(), vec![(5, 40, 24)]);
        let edited = draws_query(&state, 24, 5);
        assert_outputs_identical(&edited, &draws_reference(state.list(), 24, 5));

        assert_eq!(
            state.invalidate(state.source_hash()),
            InvalidateOutcome::Evicted
        );
        assert_eq!(state.noise.keys(), vec![(5, 40, 24)]);
        assert_outputs_identical(&draws_query(&state, 24, 5), &edited);

        state.update_source(&text).unwrap();
        assert!(state.noise.keys().is_empty());
        assert_outputs_identical(&draws_query(&state, 24, 5), &first);
    }

    #[test]
    fn concurrent_draws_queries_share_one_state_and_match_serial_answers() {
        let state = FleetState::from_list(list(50), EasyCConfig::default());
        let serial: Vec<AssessmentOutput> = (0..4u64)
            .map(|seed| draws_reference(state.list(), 32, seed))
            .collect();
        // Both threads query every seed, in opposite orders, so misses,
        // inserts and hits of one key interleave across threads.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for order in [[0u64, 1, 2, 3], [3, 2, 1, 0]] {
                let (state, serial, barrier) = (&state, &serial, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..3 {
                        for seed in order {
                            let got = draws_query(state, 32, seed);
                            assert_outputs_identical(&got, &serial[seed as usize]);
                        }
                    }
                });
            }
        });
        let mut seeds: Vec<u64> = state.noise.keys().iter().map(|k| k.0).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![0, 1, 2, 3]);
    }

    #[test]
    fn config_overrides_gate_the_cache_but_not_the_bits() {
        let config = EasyCConfig {
            pue_override: Some(1.3),
            ..Default::default()
        };
        let base = list(30);
        let cold = Assessment::of(&base).config(config).run();
        let mut state = FleetState::from_list(base, config);
        state.warm();
        let warm = state.query().run();
        assert_outputs_identical(&cold, &warm);
    }
}
