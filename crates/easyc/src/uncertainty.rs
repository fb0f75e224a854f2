//! Monte-Carlo uncertainty quantification for EasyC estimates.
//!
//! Each prior in the model carries an uncertainty band (ACI source ±10 % or
//! ±77.5 %, PUE ±10 %, utilisation ±15 %, fab factors ±20 %). This module
//! resamples a system's footprint with those bands using the reproducible
//! RNG streams from `parallel`, producing percentile intervals that are
//! independent of thread count.
//!
//! # Draw plans and common random numbers
//!
//! Fleet-scale uncertainty is organised around one abstraction: the
//! [`DrawPlan`]. A plan fixes the draw count, confidence level, seed and
//! prior widths, and from those derives every RNG stream of a session.
//! The streams are keyed by **(system, draw index) — never by scenario**:
//!
//! ```text
//! operational sample s:
//!   factors(s)      ← stream(seed ^ FLEET_SEED_MIX, s)          systematic
//!   term(s, system) ← stream(seed ^ FLEET_SEED_MIX,             idiosyncratic
//!                            (s << 32) | (system_index + 1))
//! embodied sample s:
//!   factors(s)      ← stream(seed ^ EMBODIED_SEED_MIX, s)       systematic only
//! ```
//!
//! `system_index` is the system's **global position in the fleet** (its
//! row in the list, or its running row index across streamed chunks) — not
//! its position among the scenario's estimable systems. Every scenario of
//! a matrix therefore sees *identical* per-system perturbations: the only
//! thing that differs between two scenarios' draw vectors is the base
//! estimates the shared noise multiplies. This is the common-random-numbers
//! (paired Monte-Carlo) construction, and it is what makes
//! [`ScenarioDelta`] intervals — quantiles of per-draw *differences* —
//! far tighter than differencing two independently-drawn bands.
//!
//! The per-scenario draw vectors are retained by the session output
//! (`AssessmentOutput`, whatever the source), whose `compare(a, b)` builds
//! the paired-difference intervals.

use crate::embodied::EmbodiedEstimate;
use crate::fold;
use crate::operational::{self, OperationalEstimate};
use frame::stats;
use parallel::rng::RngStreams;

/// Relative 1-sigma widths of the model priors.
#[derive(Debug, Clone, Copy)]
pub struct PriorUncertainty {
    /// PUE prior spread.
    pub pue: f64,
    /// Utilisation prior spread.
    pub utilization: f64,
    /// Fab-intensity spread (embodied).
    pub fab: f64,
    /// Memory/storage prior spread (embodied).
    pub capacity_priors: f64,
}

impl Default for PriorUncertainty {
    fn default() -> PriorUncertainty {
        PriorUncertainty {
            pue: 0.10,
            utilization: 0.15,
            fab: 0.20,
            capacity_priors: 0.30,
        }
    }
}

/// A two-sided percentile interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Central (point) estimate, MT CO2e.
    pub point: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
}

impl Interval {
    /// Full width of the interval (`hi − lo`).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// The naive difference interval of two **independent** bands:
    /// `variant − baseline` with bounds `[v.lo − b.hi, v.hi − b.lo]`. Its
    /// width is the *sum* of the two widths — the reference a paired
    /// common-random-numbers [`ScenarioDelta`] has to beat.
    pub fn independent_difference(variant: &Interval, baseline: &Interval) -> Interval {
        Interval {
            point: variant.point - baseline.point,
            lo: variant.lo - baseline.hi,
            hi: variant.hi - baseline.lo,
        }
    }
}

/// The most Monte-Carlo draws one run the CLI or `serve` accepts may hold,
/// counted over its scenarios (draws × scenarios): 2^20 keep a run's draw
/// buffers (operational and embodied, every scenario) within 16 MiB of
/// `f64`. So one scenario takes at most 2^20 draws, and a matrix of `n`
/// scenarios at most `MAX_DRAWS / n`. Both front ends refuse a larger
/// count before anything is allocated.
pub const MAX_DRAWS: usize = 1 << 20;

/// Seed-mixing constant for the fleet-total operational RNG stream family.
pub(crate) const FLEET_SEED_MIX: u64 = 0xF1EE_7000;

/// Seed-mixing constant for the fleet-total *embodied* RNG stream family
/// (a separate domain from [`FLEET_SEED_MIX`], so operational and embodied
/// draws never correlate by construction).
pub(crate) const EMBODIED_SEED_MIX: u64 = 0xE3B0_D1ED_5EED_00AA;

/// The plan of a family of Monte-Carlo fleet draws: draw count, confidence
/// level, seed and prior widths. One plan drives every uncertainty phase
/// of a session — in-memory and streaming — and its RNG streams are keyed
/// by (system, draw index), never by scenario, so all scenarios of a
/// matrix share per-system perturbations (common random numbers; see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct DrawPlan {
    /// Monte-Carlo draws per scenario (0 = no uncertainty phase).
    pub draws: usize,
    /// Two-sided confidence level of collapsed intervals (default 0.95).
    pub level: f64,
    /// Master seed; results are reproducible and independent of worker
    /// count, chunk granularity and fleet chunking for a given seed.
    pub seed: u64,
    /// Prior widths the draws perturb with.
    pub priors: PriorUncertainty,
}

impl Default for DrawPlan {
    fn default() -> DrawPlan {
        DrawPlan::new(0)
    }
}

impl DrawPlan {
    /// Plan with `draws` samples, 95 % confidence, seed 0, default priors.
    pub fn new(draws: usize) -> DrawPlan {
        DrawPlan {
            draws,
            level: 0.95,
            seed: 0,
            priors: PriorUncertainty::default(),
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> DrawPlan {
        self.seed = seed;
        self
    }

    /// Replaces the confidence level.
    pub fn with_confidence(mut self, level: f64) -> DrawPlan {
        self.level = level;
        self
    }

    /// Replaces the prior widths.
    pub fn with_priors(mut self, priors: PriorUncertainty) -> DrawPlan {
        self.priors = priors;
        self
    }

    /// Lower tail mass of the plan's two-sided interval.
    pub(crate) fn alpha(&self) -> f64 {
        (1.0 - self.level.clamp(0.0, 1.0)) / 2.0
    }

    /// The operational RNG stream family of this plan.
    pub(crate) fn operational_streams(&self) -> RngStreams {
        RngStreams::new(self.seed ^ FLEET_SEED_MIX)
    }

    /// The embodied RNG stream family of this plan.
    pub(crate) fn embodied_streams(&self) -> RngStreams {
        RngStreams::new(self.seed ^ EMBODIED_SEED_MIX)
    }

    /// The fleet-total operational draw vector for one scenario: each base
    /// estimate is tagged with its system's **global fleet index**, which
    /// keys the idiosyncratic noise stream — the CRN invariant. This is the
    /// serial reference kernel; the session's parallel (scenario ×
    /// draw-chunk) plan and the streaming fold accumulate the exact same
    /// terms in the exact same order (pinned by tests).
    pub fn operational_draws(&self, bases: &[(usize, OperationalEstimate)]) -> Vec<f64> {
        let streams = self.operational_streams();
        (0..self.draws)
            .map(|sample| operational_draw(bases, &self.priors, &streams, sample))
            .collect()
    }

    /// The fleet-total embodied draw vector for one scenario. Embodied
    /// priors are fully systematic (one fab regime and one capacity-prior
    /// regime per sample, shared by every system), so the draws carry no
    /// per-system index and CRN across scenarios holds trivially.
    pub fn embodied_draws(&self, bases: &[EmbodiedEstimate]) -> Vec<f64> {
        let streams = self.embodied_streams();
        (0..self.draws)
            .map(|sample| embodied_draw(bases, &self.priors, &streams, sample))
            .collect()
    }

    /// Collapses a draw vector into the plan's percentile interval around
    /// `point`. `None` when the vector is empty (no draws requested, or a
    /// scenario with nothing estimable).
    pub(crate) fn interval_of(&self, point: f64, draws: &[f64]) -> Option<Interval> {
        tail_interval(point, draws, self.alpha())
    }

    /// Fleet-total operational interval over indexed bases — the one-call
    /// replacement for the retired `fleet_operational_interval*` free
    /// functions (serial; fleet sessions get the same numbers from
    /// `Assessment…uncertainty(n)`).
    pub fn operational_interval(&self, bases: &[(usize, OperationalEstimate)]) -> Option<Interval> {
        if bases.is_empty() {
            return None;
        }
        let point = fold::sum_f64(bases.iter().map(|(_, b)| b.mt_co2e));
        self.interval_of(point, &self.operational_draws(bases))
    }

    /// Fleet-total embodied interval — the one-call replacement for the
    /// retired `fleet_embodied_interval*` free functions.
    pub fn embodied_interval(&self, bases: &[EmbodiedEstimate]) -> Option<Interval> {
        if bases.is_empty() {
            return None;
        }
        let point = fold::sum_f64(bases.iter().map(|b| b.mt_co2e));
        self.interval_of(point, &self.embodied_draws(bases))
    }
}

/// One scenario's retained draw state: fleet-total points plus the full
/// per-sample draw vectors (empty when the family had no coverage or no
/// draws were requested) — what `AssessmentOutput::compare` pairs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScenarioDraws {
    pub(crate) op_point: f64,
    pub(crate) op: Vec<f64>,
    pub(crate) emb_point: f64,
    pub(crate) emb: Vec<f64>,
}

/// Paired-difference intervals between two scenarios of one session run:
/// `variant − baseline` for the operational, embodied and combined fleet
/// totals, computed draw-by-draw over the session's common random numbers.
/// Because both scenarios replay identical per-system perturbations, the
/// paired interval is (much) tighter than
/// [`Interval::independent_difference`] of the two per-scenario bands —
/// the variance-reduction that makes between-scenario claims crisp.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDelta {
    /// Baseline scenario name.
    pub baseline: String,
    /// Variant scenario name (the delta is `variant − baseline`).
    pub variant: String,
    /// Paired interval on the operational fleet-total difference (`None`
    /// when either side had no operational coverage or no draws ran).
    pub operational: Option<Interval>,
    /// Paired interval on the embodied fleet-total difference.
    pub embodied: Option<Interval>,
    /// Paired interval on the combined (operational + embodied) difference
    /// (`None` unless both families are present on both sides).
    pub total: Option<Interval>,
}

impl ScenarioDelta {
    /// Builds the paired deltas from two scenarios' retained draws.
    pub(crate) fn paired(
        baseline: &str,
        variant: &str,
        b: &ScenarioDraws,
        v: &ScenarioDraws,
        alpha: f64,
    ) -> ScenarioDelta {
        let operational = paired_interval(v.op_point - b.op_point, &v.op, &b.op, alpha);
        let embodied = paired_interval(v.emb_point - b.emb_point, &v.emb, &b.emb, alpha);
        let total = if v.op.len() == v.emb.len() && b.op.len() == b.emb.len() {
            let sum = |d: &ScenarioDraws| -> Vec<f64> {
                d.op.iter().zip(&d.emb).map(|(o, e)| o + e).collect()
            };
            paired_interval(
                (v.op_point + v.emb_point) - (b.op_point + b.emb_point),
                &sum(v),
                &sum(b),
                alpha,
            )
        } else {
            None
        };
        ScenarioDelta {
            baseline: baseline.to_string(),
            variant: variant.to_string(),
            operational,
            embodied,
            total,
        }
    }
}

/// Two-sided percentile interval of a draw vector around `point`, sorting
/// the vector once and reading both tails off the sorted copy (a
/// per-quantile `stats::quantile` call would clone-and-sort twice).
/// `total_cmp` orders any float, so a non-finite draw (finite inputs can
/// still overflow) yields a non-finite bound instead of a panic. Valid
/// draws are sums of non-negative terms and their paired differences,
/// never `-0.0`, so for them this is the `partial_cmp` order.
fn tail_interval(point: f64, draws: &[f64], alpha: f64) -> Option<Interval> {
    if draws.is_empty() {
        return None;
    }
    let mut sorted = draws.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Interval {
        point,
        lo: stats::quantile_of_sorted(&sorted, alpha)?,
        hi: stats::quantile_of_sorted(&sorted, 1.0 - alpha)?,
    })
}

/// Quantiles of the per-draw differences `variant[i] − baseline[i]`.
/// `None` when either vector is empty or the lengths disagree.
fn paired_interval(point: f64, variant: &[f64], baseline: &[f64], alpha: f64) -> Option<Interval> {
    if variant.is_empty() || variant.len() != baseline.len() {
        return None;
    }
    let diffs: Vec<f64> = variant.iter().zip(baseline).map(|(v, b)| v - b).collect();
    tail_interval(point, &diffs, alpha)
}

impl DrawPlan {
    /// Monte-Carlo interval for **one system's** operational estimate —
    /// the singleton special case of [`DrawPlan::operational_interval`].
    /// `index` is the system's global fleet position, which keys its
    /// idiosyncratic noise stream exactly as in the fleet draws: a
    /// per-system band and the fleet band it contributes to now share one
    /// seed discipline (this replaced the retired free functions that
    /// keyed private streams off `record.rank`).
    pub fn system_operational_interval(
        &self,
        index: usize,
        base: &OperationalEstimate,
    ) -> Option<Interval> {
        self.operational_interval(&[(index, base.clone())])
    }

    /// Monte-Carlo interval for **one system's** embodied estimate — the
    /// singleton special case of [`DrawPlan::embodied_interval`] (embodied
    /// noise is fully systematic, so no index is involved).
    pub fn system_embodied_interval(&self, base: &EmbodiedEstimate) -> Option<Interval> {
        self.embodied_interval(std::slice::from_ref(base))
    }
}

/// Per-sample systematic factors of one fleet operational draw (one PUE
/// and one utilisation regime draw shared by every system in the sample —
/// the paper's §V point that prior errors are systematic, not independent
/// per system).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FleetFactors {
    pue: f64,
    util: f64,
}

/// Draws the systematic factors of operational sample `sample`.
pub(crate) fn fleet_factors(
    streams: &RngStreams,
    priors: &PriorUncertainty,
    sample: usize,
) -> FleetFactors {
    let mut global = streams.stream(sample as u64);
    FleetFactors {
        pue: global.next_lognormal(0.0, priors.pue),
        util: global.next_lognormal(0.0, priors.utilization),
    }
}

/// One system's contribution to one fleet operational draw: systematic
/// factors shared across the fleet, idiosyncratic ACI noise drawn from the
/// `(sample, index)` stream. `index` is the system's **global fleet
/// position** (list row in memory, running row across streamed chunks) —
/// identical for every scenario, which is the common-random-numbers
/// invariant behind [`ScenarioDelta`].
pub(crate) fn fleet_term(
    base: &OperationalEstimate,
    factors: &FleetFactors,
    streams: &RngStreams,
    sample: usize,
    index: usize,
) -> f64 {
    let mut local = streams.stream(((sample as u64) << 32) | (index as u64 + 1));
    let aci_sigma = base.aci.relative_uncertainty() / 2.0;
    let aci = base.aci.value() * local.next_lognormal(0.0, aci_sigma);
    let pue = (base.pue * factors.pue).max(1.0);
    let util = (base.utilization * factors.util).clamp(0.05, 1.0);
    base.power_kw * operational::HOURS_PER_YEAR * pue * util * aci / 1.0e6
}

/// One Monte-Carlo fleet-total operational draw over index-tagged bases:
/// the single kernel behind [`DrawPlan::operational_draws`] and the
/// session's parallel interval phase, so the two stay bit-identical.
/// Systematic components (PUE, utilisation) draw once per sample;
/// idiosyncratic ACI noise draws per (sample, global system index).
pub(crate) fn operational_draw(
    bases: &[(usize, OperationalEstimate)],
    priors: &PriorUncertainty,
    streams: &RngStreams,
    sample: usize,
) -> f64 {
    let factors = fleet_factors(streams, priors, sample);
    fold::sum_f64(
        bases
            .iter()
            .map(|(index, base)| fleet_term(base, &factors, streams, sample, *index)),
    )
}

/// Per-sample systematic factors of one fleet embodied draw (one fab
/// regime and one capacity-prior regime per sample, mirroring the
/// per-system [`embodied_interval`] priors).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EmbodiedFactors {
    fab: f64,
    cap: f64,
}

/// Draws the systematic factors of embodied sample `sample`.
pub(crate) fn embodied_factors(
    streams: &RngStreams,
    priors: &PriorUncertainty,
    sample: usize,
) -> EmbodiedFactors {
    let mut global = streams.stream(sample as u64);
    EmbodiedFactors {
        fab: global.next_lognormal(0.0, priors.fab),
        cap: global.next_lognormal(0.0, priors.capacity_priors),
    }
}

/// One system's contribution to one fleet embodied draw, MT CO2e — the
/// same component resampling [`embodied_interval`] applies per system
/// (silicon scaled by the fab regime, memory/storage by the capacity
/// regime, chassis and interconnect deterministic).
pub(crate) fn embodied_term(base: &EmbodiedEstimate, factors: &EmbodiedFactors) -> f64 {
    let b = base.breakdown;
    ((b.cpu_kg + b.accelerator_kg) * factors.fab
        + (b.dram_kg + b.storage_kg) * factors.cap
        + b.chassis_kg
        + b.interconnect_kg)
        / 1000.0
}

/// One Monte-Carlo fleet-total embodied draw: the single kernel behind
/// [`DrawPlan::embodied_draws`] and the session's interval phase. Embodied
/// priors are fully systematic (fab lines and capacity priors are shared
/// across the fleet), so fleet-total embodied uncertainty does not average
/// out with fleet size.
pub(crate) fn embodied_draw(
    bases: &[EmbodiedEstimate],
    priors: &PriorUncertainty,
    streams: &RngStreams,
    sample: usize,
) -> f64 {
    let factors = embodied_factors(streams, priors, sample);
    fold::sum_f64(bases.iter().map(|b| embodied_term(b, &factors)))
}

// ---------------------------------------------------------------------------
// Blocked (columnar) draw kernels — the session fast path.
//
// The serial kernels above walk `&[(usize, OperationalEstimate)]` and
// re-derive every factor (and re-key every idiosyncratic RNG stream) per
// (scenario, sample, system). The blocked kernels restructure the same
// arithmetic for (sample × system) lane sweeps:
//
// - the per-system factors that do not change across samples (power, PUE,
//   utilisation, ACI value and sigma) are hoisted into contiguous columns,
//   built once per scenario ([`OpFactorColumns`] / [`EmbFactorColumns`]);
// - the idiosyncratic ACI noise `z(sample, global index)` is
//   scenario-invariant by the CRN keying, so one dense noise column per
//   sample ([`operational_noise`]) is shared by every scenario of a matrix;
// - each `*_block_accumulate` call folds one scenario's terms for one
//   sample into its draw slot with the exact `*slot += term` order of the
//   streaming fold, so in-memory, streamed and serial draws stay
//   bit-identical (pinned by `tests/proptests.rs`).
// ---------------------------------------------------------------------------

/// Struct-of-arrays form of one scenario's operational draw bases: the
/// sample-invariant per-system factors, hoisted out of the per-sample loop.
/// Built once per scenario (in-memory) or per (scenario, chunk) (streaming)
/// and swept once per sample.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpFactorColumns {
    /// Global fleet index per base — the idiosyncratic noise key.
    index: Vec<usize>,
    power_kw: Vec<f64>,
    pue: Vec<f64>,
    util: Vec<f64>,
    aci_value: Vec<f64>,
    /// `aci.relative_uncertainty() / 2.0`, exactly as [`fleet_term`] derives
    /// it (band → ~2 sigma).
    aci_sigma: Vec<f64>,
}

impl OpFactorColumns {
    /// Hoists the index-tagged bases into columns (base order preserved —
    /// the accumulation order of the draws).
    pub(crate) fn from_bases(bases: &[(usize, OperationalEstimate)]) -> OpFactorColumns {
        let mut cols = OpFactorColumns::default();
        cols.index.reserve_exact(bases.len());
        cols.power_kw.reserve_exact(bases.len());
        cols.pue.reserve_exact(bases.len());
        cols.util.reserve_exact(bases.len());
        cols.aci_value.reserve_exact(bases.len());
        cols.aci_sigma.reserve_exact(bases.len());
        for (index, base) in bases {
            cols.index.push(*index);
            cols.power_kw.push(base.power_kw);
            cols.pue.push(base.pue);
            cols.util.push(base.utilization);
            cols.aci_value.push(base.aci.value());
            cols.aci_sigma.push(base.aci.relative_uncertainty() / 2.0);
        }
        cols
    }

    /// True when the scenario had no operational coverage.
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// Struct-of-arrays form of one scenario's embodied draw bases. The fab
/// and capacity groups of [`embodied_term`] are pre-summed per system
/// (`cpu + accelerator`, `dram + storage` — the same additions the serial
/// kernel performs first); chassis and interconnect stay separate columns
/// so the term's left-associated addition chain is reproduced exactly.
#[derive(Debug, Clone, Default)]
pub(crate) struct EmbFactorColumns {
    silicon_kg: Vec<f64>,
    capacity_kg: Vec<f64>,
    chassis_kg: Vec<f64>,
    interconnect_kg: Vec<f64>,
}

impl EmbFactorColumns {
    /// Hoists the bases into columns (base order preserved).
    pub(crate) fn from_bases(bases: &[EmbodiedEstimate]) -> EmbFactorColumns {
        let mut cols = EmbFactorColumns::default();
        cols.silicon_kg.reserve_exact(bases.len());
        cols.capacity_kg.reserve_exact(bases.len());
        cols.chassis_kg.reserve_exact(bases.len());
        cols.interconnect_kg.reserve_exact(bases.len());
        for base in bases {
            let b = base.breakdown;
            cols.silicon_kg.push(b.cpu_kg + b.accelerator_kg);
            cols.capacity_kg.push(b.dram_kg + b.storage_kg);
            cols.chassis_kg.push(b.chassis_kg);
            cols.interconnect_kg.push(b.interconnect_kg);
        }
        cols
    }

    /// True when the scenario had no embodied coverage.
    pub(crate) fn is_empty(&self) -> bool {
        self.silicon_kg.is_empty()
    }
}

/// Fills `noise[i]` with the idiosyncratic ACI noise draw of sample
/// `sample` for global fleet row `first_row + i` — the standard-normal `z`
/// that [`fleet_term`] feeds into its lognormal. The stream key is
/// `(sample << 32) | (global index + 1)`, identical to the serial kernel,
/// and carries no scenario component: one fill per sample serves every
/// scenario of a matrix (common random numbers).
pub(crate) fn operational_noise(
    streams: &RngStreams,
    sample: usize,
    first_row: usize,
    noise: &mut [f64],
) {
    for (i, slot) in noise.iter_mut().enumerate() {
        let mut local = streams.stream(((sample as u64) << 32) | ((first_row + i) as u64 + 1));
        *slot = local.next_normal();
    }
}

/// Folds one scenario's operational terms for one sample into `slot`, in
/// base order — the blocked form of [`operational_draw`]'s sum and the
/// streaming fold's `*slot += fleet_term(…)` accumulation. `noise` is the
/// per-sample column from [`operational_noise`], indexed by global fleet
/// row relative to `first_row`. Bit-identical to the serial kernels: the
/// per-term arithmetic is the same expression tree as [`fleet_term`]
/// (`(0.0 + sigma·z).exp()` and `(sigma·z).exp()` agree bitwise, including
/// at negative zero where both sides are exactly `1.0`).
pub(crate) fn operational_block_accumulate(
    cols: &OpFactorColumns,
    factors: &FleetFactors,
    noise: &[f64],
    first_row: usize,
    slot: &mut f64,
) {
    for k in 0..cols.index.len() {
        let z = noise[cols.index[k] - first_row];
        let aci = cols.aci_value[k] * (cols.aci_sigma[k] * z).exp();
        let pue = (cols.pue[k] * factors.pue).max(1.0);
        let util = (cols.util[k] * factors.util).clamp(0.05, 1.0);
        *slot += cols.power_kw[k] * operational::HOURS_PER_YEAR * pue * util * aci / 1.0e6;
    }
}

/// Folds one scenario's embodied terms for one sample into `slot`, in base
/// order — the blocked form of [`embodied_draw`]'s sum. Embodied noise is
/// fully systematic, so the whole sweep shares the sample's two factors.
pub(crate) fn embodied_block_accumulate(
    cols: &EmbFactorColumns,
    factors: &EmbodiedFactors,
    slot: &mut f64,
) {
    for k in 0..cols.silicon_kg.len() {
        *slot += (cols.silicon_kg[k] * factors.fab
            + cols.capacity_kg[k] * factors.cap
            + cols.chassis_kg[k]
            + cols.interconnect_kg[k])
            / 1000.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EasyC;
    use crate::metrics::SevenMetrics;
    use top500::record::SystemRecord;
    use top500::synthetic::{generate_full, SyntheticConfig};

    fn system() -> SystemRecord {
        generate_full(&SyntheticConfig {
            n: 10,
            ..Default::default()
        })
        .systems()[2]
            .clone()
    }

    /// Index-tagged operational bases of a list, as the session builds
    /// them: (global list position, Ok estimate).
    fn op_bases(list: &top500::list::Top500List) -> Vec<(usize, OperationalEstimate)> {
        let tool = EasyC::new();
        list.systems()
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let m = SevenMetrics::extract(r);
                operational::estimate_with(r, &m, &tool.config().overrides())
                    .ok()
                    .map(|b| (i, b))
            })
            .collect()
    }

    fn emb_bases(list: &top500::list::Top500List) -> Vec<EmbodiedEstimate> {
        list.systems()
            .iter()
            .filter_map(|r| {
                let m = SevenMetrics::extract(r);
                crate::embodied::estimate(r, &m).ok()
            })
            .collect()
    }

    #[test]
    fn system_operational_interval_brackets_point() {
        let rec = system();
        let tool = EasyC::new();
        let metrics = SevenMetrics::extract(&rec);
        let base = operational::estimate_with(&rec, &metrics, &tool.config().overrides()).unwrap();
        let plan = DrawPlan::new(500).with_seed(42);
        let iv = plan.system_operational_interval(2, &base).unwrap();
        assert_eq!(iv.point, base.mt_co2e);
        assert!(iv.lo <= iv.point * 1.05, "lo {} point {}", iv.lo, iv.point);
        assert!(iv.hi >= iv.point * 0.95, "hi {} point {}", iv.hi, iv.point);
        assert!(iv.lo < iv.hi);
    }

    #[test]
    fn system_operational_interval_keys_by_global_index() {
        // One seed discipline with the fleet draws: the system's global
        // fleet index selects its idiosyncratic noise stream, so the same
        // base at a different fleet position draws a different band (the
        // retired free functions keyed off `record.rank` instead).
        let list = generate_full(&SyntheticConfig {
            n: 10,
            ..Default::default()
        });
        let bases = op_bases(&list);
        let (_, base) = &bases[1];
        let plan = DrawPlan::new(300).with_seed(9);
        let a = plan.system_operational_interval(5, base).unwrap();
        let b = plan.system_operational_interval(6, base).unwrap();
        assert_eq!(a.point, b.point);
        assert_ne!((a.lo, a.hi), (b.lo, b.hi));
    }

    #[test]
    fn wider_priors_widen_system_embodied_interval() {
        let rec = system();
        let metrics = SevenMetrics::extract(&rec);
        let base = crate::embodied::estimate(&rec, &metrics).unwrap();
        let narrow = DrawPlan::new(400)
            .with_seed(7)
            .system_embodied_interval(&base)
            .unwrap();
        let wide_priors = PriorUncertainty {
            fab: 0.6,
            capacity_priors: 0.8,
            ..PriorUncertainty::default()
        };
        let wide = DrawPlan::new(400)
            .with_seed(7)
            .with_priors(wide_priors)
            .system_embodied_interval(&base)
            .unwrap();
        // Same base, same point: the wider band is the wider interval.
        assert!(wide.width() > narrow.width());
    }

    #[test]
    fn fleet_interval_brackets_total() {
        let list = generate_full(&SyntheticConfig {
            n: 100,
            ..Default::default()
        });
        let plan = DrawPlan::new(400).with_confidence(0.9).with_seed(11);
        let iv = plan.operational_interval(&op_bases(&list)).unwrap();
        assert!(iv.lo < iv.point && iv.point < iv.hi * 1.2, "{iv:?}");
        assert!(iv.lo > 0.0);
    }

    #[test]
    fn plan_interval_deterministic_and_independent_of_vector_helpers() {
        let list = generate_full(&SyntheticConfig {
            n: 60,
            ..Default::default()
        });
        let plan = DrawPlan::new(200).with_confidence(0.9).with_seed(5);
        let bases = op_bases(&list);
        let a = plan.operational_interval(&bases).unwrap();
        // The same numbers via the draw-vector surface.
        let point: f64 = bases.iter().map(|(_, b)| b.mt_co2e).sum();
        let b = plan
            .interval_of(point, &plan.operational_draws(&bases))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn systematic_priors_widen_fleet_interval_more_than_independent_would() {
        // With systematic (shared) PUE/util draws, fleet-total uncertainty
        // does NOT average out across systems: relative width stays near
        // the single-system width instead of shrinking by sqrt(n).
        let list = generate_full(&SyntheticConfig {
            n: 100,
            ..Default::default()
        });
        let plan = DrawPlan::new(600).with_confidence(0.9).with_seed(3);
        let fleet = plan.operational_interval(&op_bases(&list)).unwrap();
        let fleet_rel = fleet.width() / 2.0 / fleet.point;
        assert!(
            fleet_rel > 0.05,
            "systematic error must not vanish in the aggregate, got {fleet_rel}"
        );
    }

    #[test]
    fn common_random_numbers_make_terms_scenario_independent() {
        // The CRN invariant at kernel scale: a system's per-draw term
        // depends only on (seed, sample, global index) and its base — the
        // other systems in the scenario change nothing. A two-system draw
        // is bit-identical to the sum of the two single-system draws.
        let list = generate_full(&SyntheticConfig {
            n: 10,
            ..Default::default()
        });
        let bases = op_bases(&list);
        assert!(bases.len() >= 4);
        let plan = DrawPlan::new(64).with_seed(9);
        let a = vec![bases[1].clone()];
        let b = vec![bases[3].clone()];
        let both = vec![bases[1].clone(), bases[3].clone()];
        let da = plan.operational_draws(&a);
        let db = plan.operational_draws(&b);
        let dab = plan.operational_draws(&both);
        for i in 0..plan.draws {
            assert_eq!(dab[i], da[i] + db[i], "draw {i}");
        }
    }

    #[test]
    fn identical_scenarios_have_zero_width_paired_delta() {
        let list = generate_full(&SyntheticConfig {
            n: 40,
            ..Default::default()
        });
        let plan = DrawPlan::new(100).with_seed(2);
        let op = op_bases(&list);
        let emb = emb_bases(&list);
        let draws = ScenarioDraws {
            op_point: op.iter().map(|(_, b)| b.mt_co2e).sum(),
            op: plan.operational_draws(&op),
            emb_point: emb.iter().map(|b| b.mt_co2e).sum(),
            emb: plan.embodied_draws(&emb),
        };
        let delta = ScenarioDelta::paired("a", "a", &draws, &draws, plan.alpha());
        for iv in [delta.operational, delta.embodied, delta.total] {
            let iv = iv.unwrap();
            assert_eq!(iv.point, 0.0);
            assert_eq!(iv.lo, 0.0);
            assert_eq!(iv.hi, 0.0);
        }
    }

    #[test]
    fn paired_delta_none_when_a_side_has_no_draws() {
        let delta = ScenarioDelta::paired(
            "a",
            "b",
            &ScenarioDraws::default(),
            &ScenarioDraws {
                op_point: 1.0,
                op: vec![1.0, 2.0],
                emb_point: 0.0,
                emb: Vec::new(),
            },
            0.05,
        );
        assert!(delta.operational.is_none());
        assert!(delta.embodied.is_none());
        assert!(delta.total.is_none());
    }

    #[test]
    fn independent_difference_sums_widths() {
        let b = Interval {
            point: 10.0,
            lo: 8.0,
            hi: 13.0,
        };
        let v = Interval {
            point: 14.0,
            lo: 11.0,
            hi: 18.0,
        };
        let d = Interval::independent_difference(&v, &b);
        assert_eq!(d.point, 4.0);
        assert_eq!(d.lo, 11.0 - 13.0);
        assert_eq!(d.hi, 18.0 - 8.0);
        assert!((d.width() - (v.width() + b.width())).abs() < 1e-12);
    }

    #[test]
    fn session_matrix_intervals_well_formed_per_scenario() {
        use crate::scenario::{DataScenario, MetricBit, MetricMask, ScenarioMatrix};
        let list = generate_full(&SyntheticConfig {
            n: 60,
            ..Default::default()
        });
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("full"))
                .with(DataScenario::masked(
                    "no-power",
                    MetricMask::ALL
                        .without(MetricBit::PowerKw)
                        .without(MetricBit::AnnualEnergy),
                ));
        let output = crate::session::Assessment::of(&list)
            .scenarios(&matrix)
            .uncertainty(150)
            .confidence(0.9)
            .seed(3)
            .run();
        assert_eq!(output.len(), 2);
        let full = output.interval("full").unwrap();
        let degraded = output.interval("no-power").unwrap();
        // Hiding measured power moves systems onto prior-based paths; the
        // fleet point estimate changes but both remain well-formed.
        assert!(full.lo < full.hi && degraded.lo < degraded.hi);
        assert_ne!(full.point, degraded.point);
    }

    #[test]
    fn fleet_embodied_interval_brackets_total() {
        let list = generate_full(&SyntheticConfig {
            n: 80,
            ..Default::default()
        });
        let tool = EasyC::new();
        let plan = DrawPlan::new(400).with_confidence(0.9).with_seed(11);
        let iv = plan.embodied_interval(&emb_bases(&list)).unwrap();
        let direct: f64 = list
            .systems()
            .iter()
            .filter_map(|s| tool.assess(s).embodied_mt())
            .sum();
        assert_eq!(iv.point, direct);
        assert!(iv.lo < iv.point && iv.point < iv.hi * 1.2, "{iv:?}");
        assert!(iv.lo > 0.0);
    }

    #[test]
    fn plan_intervals_none_for_empty_or_zero_draws() {
        let plan = DrawPlan::new(10);
        assert!(plan.operational_interval(&[]).is_none());
        assert!(plan.embodied_interval(&[]).is_none());
        let list = generate_full(&SyntheticConfig {
            n: 5,
            ..Default::default()
        });
        let zero = DrawPlan::new(0);
        assert!(zero.operational_interval(&op_bases(&list)).is_none());
        assert!(zero.embodied_interval(&emb_bases(&list)).is_none());
        assert!(zero.interval_of(1.0, &[]).is_none());
    }

    #[test]
    fn system_intervals_none_without_draws() {
        let rec = system();
        let tool = EasyC::new();
        let metrics = SevenMetrics::extract(&rec);
        let op = operational::estimate_with(&rec, &metrics, &tool.config().overrides()).unwrap();
        let emb = crate::embodied::estimate(&rec, &metrics).unwrap();
        let plan = DrawPlan::new(0);
        assert!(plan.system_operational_interval(0, &op).is_none());
        assert!(plan.system_embodied_interval(&emb).is_none());
    }
}
