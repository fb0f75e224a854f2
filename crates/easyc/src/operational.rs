//! Operational carbon: `energy × average carbon intensity`.
//!
//! ```text
//! C_op[MT CO2e/yr] = P_avg[kW] × 8760 h × PUE × util × ACI[g/kWh] / 1e6
//! ```
//!
//! The art is in `P_avg`. EasyC tries four *power paths* in order of
//! fidelity; which one fires is recorded in the estimate so the sensitivity
//! study can attribute changes to data additions.

use crate::columns::FleetColumns;
use crate::error::{EasyCError, Result};
use crate::metrics::SevenMetrics;
use crate::scenario::{MetricBit, OverrideSet};
use crate::view::{FleetView, SystemView};
use frame::bitset::for_each_set_bit;
use hwdb::accel::AccelVendor;
use hwdb::efficiency::{gflops_per_watt_prior, MachineClass, DEFAULT_UTILIZATION};
use hwdb::grid::{country_aci, regional_aci, Region, REGIONAL_ACI_RELATIVE_UNCERTAINTY};
use hwdb::pue::{infer_site_class, DEFAULT_PUE};
use top500::record::SystemRecord;

/// Hours in the modelled year.
pub(crate) const HOURS_PER_YEAR: f64 = 8760.0;

/// Which data supplied the average power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerPath {
    /// Site-disclosed annual energy (best; already includes utilisation).
    MeasuredEnergy,
    /// Top500 measured LINPACK power.
    MeasuredPower,
    /// Roll-up of CPU socket and accelerator TDPs.
    DeviceTdp,
    /// Rmax divided by a Green500-anchored efficiency prior (CPU-only
    /// systems or systems with an identified accelerator family).
    RmaxEfficiency,
}

impl PowerPath {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PowerPath::MeasuredEnergy => "measured annual energy",
            PowerPath::MeasuredPower => "measured LINPACK power",
            PowerPath::DeviceTdp => "device TDP roll-up",
            PowerPath::RmaxEfficiency => "Rmax / efficiency prior",
        }
    }
}

/// Where the grid carbon intensity came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AciSource {
    /// National annual average.
    Country(f64),
    /// Regional mean with the paper's ±77.5 % refinement uncertainty.
    Regional(f64),
    /// World-average prior (nothing about the site is known).
    WorldPrior(f64),
    /// Site-supplied intensity (scenario override, e.g. contracted supply).
    Site(f64),
}

impl AciSource {
    /// The gCO2e/kWh value.
    pub fn value(self) -> f64 {
        match self {
            AciSource::Country(v)
            | AciSource::Regional(v)
            | AciSource::WorldPrior(v)
            | AciSource::Site(v) => v,
        }
    }

    /// Relative half-width of the uncertainty band.
    pub(crate) fn relative_uncertainty(self) -> f64 {
        match self {
            AciSource::Country(_) => 0.10,
            AciSource::Site(_) => 0.05,
            AciSource::Regional(_) | AciSource::WorldPrior(_) => REGIONAL_ACI_RELATIVE_UNCERTAINTY,
        }
    }
}

/// A completed operational estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationalEstimate {
    /// Annual operational carbon, MT CO2e.
    pub mt_co2e: f64,
    /// Average IT power used, kW.
    pub power_kw: f64,
    /// Which power path fired.
    pub path: PowerPath,
    /// Grid intensity used.
    pub aci: AciSource,
    /// PUE applied.
    pub pue: f64,
    /// Utilisation applied (1.0 when the path already includes it).
    pub utilization: f64,
}

/// Resolves the grid intensity through a scenario lens: the country's
/// intensity, else the region's, else the world prior. A masked location
/// falls to the world prior without any record clone.
pub(crate) fn resolve_aci_view(view: &SystemView<'_>) -> AciSource {
    if let Some(aci) = view.country().and_then(country_aci) {
        return AciSource::Country(aci);
    }
    if let Some(region) = view.region() {
        return AciSource::Regional(regional_aci(region));
    }
    AciSource::WorldPrior(regional_aci(Region::World))
}

/// Resolves the average IT power (kW) and the path that provided it,
/// through a scenario lens — the single implementation both the serial
/// facade and the batch/session engines run.
pub(crate) fn resolve_power_view(view: &SystemView<'_>) -> Result<(f64, PowerPath)> {
    if let Some(energy) = view.annual_energy_mwh() {
        if energy <= 0.0 {
            return Err(EasyCError::InvalidField {
                field: "annual_energy_mwh",
                value: energy.to_string(),
            });
        }
        // Convert to an equivalent average power; utilisation is baked in.
        return Ok((energy * 1000.0 / HOURS_PER_YEAR, PowerPath::MeasuredEnergy));
    }
    if let Some(power) = view.power_kw() {
        if power <= 0.0 {
            return Err(EasyCError::InvalidField {
                field: "power_kw",
                value: power.to_string(),
            });
        }
        return Ok((power, PowerPath::MeasuredPower));
    }
    // Device TDP roll-up needs the structural counts.
    if let (Some(nodes), Some(gpus)) = (view.nodes(), view.gpus()) {
        if view.has_accelerator() || view.cpus().is_some() {
            let cpu_spec = view
                .processor()
                .map(|p| hwdb::cpu::lookup_or_generic(p).0)
                .unwrap_or(&hwdb::cpu::GENERIC_CPU);
            let sockets = view.cpus().unwrap_or(nodes * 2);
            let accel_watts = view
                .accelerator()
                .map(|a| hwdb::accel::lookup_or_mainstream(a).0.tdp_watts)
                .unwrap_or(0.0);
            // 10 % node overhead (NICs, fans, VRM losses) + 200 W base.
            let watts = (sockets as f64 * cpu_spec.tdp_watts + gpus as f64 * accel_watts) * 1.1
                + nodes as f64 * 200.0;
            return Ok((watts / 1000.0, PowerPath::DeviceTdp));
        }
    }
    // CPU-only systems can always fall back to the socket roll-up even
    // without a node count (sockets from total cores).
    if !view.has_accelerator() {
        if let Some(sockets) = view.cpus() {
            let cpu_spec = view
                .processor()
                .map(|p| hwdb::cpu::lookup_or_generic(p).0)
                .unwrap_or(&hwdb::cpu::GENERIC_CPU);
            let watts = sockets as f64 * cpu_spec.tdp_watts * 1.1 + sockets as f64 * 100.0;
            return Ok((watts / 1000.0, PowerPath::DeviceTdp));
        }
        // Last resort for CPU machines: efficiency prior on Rmax.
        let gfw =
            gflops_per_watt_prior(MachineClass::CpuOnly, view.operation_year().unwrap_or(2020));
        return Ok((
            view.rmax_tflops() * 1000.0 / gfw / 1000.0,
            PowerPath::RmaxEfficiency,
        ));
    }
    // Accelerated system without measured power and without device counts:
    // an Rmax/efficiency prior would hide a 2-4x spread across accelerator
    // configurations, so EasyC declines (the paper: power "is essential
    // when information on the number of compute nodes and GPU nodes is
    // unavailable" — this is the 109-system operational gap).
    let _ = AccelVendor::Other;
    Err(EasyCError::NoPowerPath { rank: view.rank() })
}

/// Full operational estimate for a record with default priors.
pub(crate) fn estimate(
    record: &SystemRecord,
    metrics: &SevenMetrics,
) -> Result<OperationalEstimate> {
    estimate_with(record, metrics, &OverrideSet::NONE)
}

/// Full operational estimate with scenario overrides applied *inside* the
/// computation (no post-hoc rescaling):
///
/// - `overrides.pue` replaces the site-class PUE prior.
/// - `overrides.utilization` replaces the utilisation factor wherever one
///   applies — every power path except measured energy, which already
///   reflects real load. In particular it applies even when the estimated
///   utilisation would have been exactly 1.0 (the seed's rescaling hack
///   silently skipped that case).
/// - `overrides.aci_g_per_kwh` replaces the resolved grid intensity.
pub fn estimate_with(
    record: &SystemRecord,
    metrics: &SevenMetrics,
    overrides: &OverrideSet,
) -> Result<OperationalEstimate> {
    estimate_view(&SystemView::full(record, metrics), overrides)
}

/// [`estimate_with`] through a scenario lens ([`SystemView`]): the masked
/// fields read as unreported without cloning the record. This is the single
/// code path behind the serial facade, the batch stages and the
/// [`Assessment`](crate::session::Assessment) session.
pub fn estimate_view(
    view: &SystemView<'_>,
    overrides: &OverrideSet,
) -> Result<OperationalEstimate> {
    let (power_kw, path) = resolve_power_view(view)?;
    let aci = match overrides.aci_g_per_kwh {
        Some(v) => AciSource::Site(v),
        None => resolve_aci_view(view),
    };
    let pue = overrides.pue.unwrap_or_else(|| match view.rank() {
        0 => DEFAULT_PUE,
        rank => infer_site_class(rank, view.has_accelerator()).pue(),
    });
    // Measured energy already reflects real load; other paths need the
    // utilisation de-rating.
    let utilization = match path {
        PowerPath::MeasuredEnergy => 1.0,
        _ => overrides
            .utilization
            .unwrap_or_else(|| view.utilization().unwrap_or(DEFAULT_UTILIZATION)),
    };
    let mt_co2e = power_kw * HOURS_PER_YEAR * pue * utilization * aci.value() / 1.0e6;
    Ok(OperationalEstimate {
        mt_co2e,
        power_kw,
        path,
        aci,
        pue,
        utilization,
    })
}

/// Columnar fast path: estimates a whole (scenario × chunk) block from
/// [`FleetColumns`], one result per row of `range` in order.
///
/// Bit-identical to [`estimate_view`] row by row. The scenario's mask is
/// applied word-wide (presence bitset AND broadcast mask bit — no per-row
/// `Option` matching), the four power paths are pre-classified into
/// per-path index lanes so each lane's loop is branch-free float math over
/// precomputed columns, and rows that resolve to an error re-run the
/// row-at-a-time reference so error payloads (field names, formatted
/// values) match exactly. `view` must lens the same fleet the columns were
/// built from.
pub fn estimate_columns(
    columns: &FleetColumns,
    view: &FleetView<'_>,
    range: std::ops::Range<usize>,
) -> Vec<Result<OperationalEstimate>> {
    debug_assert_eq!(columns.len(), view.len(), "columns must cover the fleet");
    let start = range.start;
    let m = range.end - range.start;
    let mask = view.mask();
    let overrides = view.overrides();

    // Scenario-constant visibility flags, hoisted out of every loop.
    let energy_vis = mask.contains(MetricBit::AnnualEnergy);
    let power_vis = mask.contains(MetricBit::PowerKw);
    let nodes_vis = mask.contains(MetricBit::Nodes);
    let gpus_vis = mask.contains(MetricBit::Gpus);
    let cpus_vis = mask.contains(MetricBit::Cpus);
    let util_vis = mask.contains(MetricBit::Utilization);
    let year_vis = mask.contains(MetricBit::OperationYear);
    let location_vis = mask.contains(MetricBit::Location);

    // Power-path pre-classification: per-path lanes of slot offsets,
    // derived word-wide from the presence bitsets in cascade order.
    let mut lane_energy: Vec<u32> = Vec::new();
    let mut lane_power: Vec<u32> = Vec::new();
    let mut lane_tdp_nodes: Vec<u32> = Vec::new();
    let mut lane_tdp_sockets: Vec<u32> = Vec::new();
    let mut lane_rmax: Vec<u32> = Vec::new();
    let mut lane_fallback: Vec<u32> = Vec::new();
    for (w, valid) in FleetColumns::word_window(&range) {
        let has_accel = columns.has_accelerator.word(w);
        let energy = columns.energy_present.masked_word(w, energy_vis) & valid;
        let power = columns.power_present.masked_word(w, power_vis) & !energy & valid;
        let nodes = columns.nodes_present.masked_word(w, nodes_vis);
        // Hiding the gpu count leaves CPU-only systems trivially known
        // (`SystemView::gpus`): presence = NOT has-accelerator.
        let gpus = if gpus_vis {
            columns.gpus_present.word(w)
        } else {
            !has_accel
        };
        let cpus = columns.cpus_present.masked_word(w, cpus_vis);
        let taken = energy | power;
        let tdp_nodes = nodes & gpus & (has_accel | cpus) & valid & !taken;
        let taken = taken | tdp_nodes;
        let tdp_sockets = !has_accel & cpus & valid & !taken;
        let taken = taken | tdp_sockets;
        let rmax = !has_accel & valid & !taken;
        let no_path = valid & !(taken | rmax);
        let base = w * 64;
        // Value validation (non-positive measured fields error out in the
        // reference) rides in the gather, keeping the lane loops pure.
        for_each_set_bit(energy, base, |i| {
            if columns.energy_mwh[i] <= 0.0 {
                lane_fallback.push((i - start) as u32);
            } else {
                lane_energy.push((i - start) as u32);
            }
        });
        for_each_set_bit(power, base, |i| {
            if columns.power_kw[i] <= 0.0 {
                lane_fallback.push((i - start) as u32);
            } else {
                lane_power.push((i - start) as u32);
            }
        });
        for_each_set_bit(tdp_nodes, base, |i| lane_tdp_nodes.push((i - start) as u32));
        for_each_set_bit(tdp_sockets, base, |i| {
            lane_tdp_sockets.push((i - start) as u32)
        });
        for_each_set_bit(rmax, base, |i| lane_rmax.push((i - start) as u32));
        for_each_set_bit(no_path, base, |i| lane_fallback.push((i - start) as u32));
    }

    let aci_of = |i: usize| match overrides.aci_g_per_kwh {
        Some(v) => AciSource::Site(v),
        None if location_vis => columns.aci_located[i],
        None => columns.aci_world,
    };
    let pue_of = |i: usize| overrides.pue.unwrap_or(columns.site_pue[i]);
    let util_of = |i: usize| {
        overrides
            .utilization
            .unwrap_or(if util_vis && columns.util_present.get(i) {
                columns.utilization[i]
            } else {
                DEFAULT_UTILIZATION
            })
    };
    // Same expression, same operation order as `estimate_view` — the
    // bit-identity contract.
    let make = |i: usize, power_kw: f64, path: PowerPath| {
        let aci = aci_of(i);
        let pue = pue_of(i);
        let utilization = match path {
            PowerPath::MeasuredEnergy => 1.0,
            _ => util_of(i),
        };
        let mt_co2e = power_kw * HOURS_PER_YEAR * pue * utilization * aci.value() / 1.0e6;
        OperationalEstimate {
            mt_co2e,
            power_kw,
            path,
            aci,
            pue,
            utilization,
        }
    };

    let mut out: Vec<Result<OperationalEstimate>> =
        vec![Err(EasyCError::NoPowerPath { rank: 0 }); m];
    for &s in &lane_energy {
        let i = start + s as usize;
        let power_kw = columns.energy_mwh[i] * 1000.0 / HOURS_PER_YEAR;
        out[s as usize] = Ok(make(i, power_kw, PowerPath::MeasuredEnergy));
    }
    for &s in &lane_power {
        let i = start + s as usize;
        out[s as usize] = Ok(make(i, columns.power_kw[i], PowerPath::MeasuredPower));
    }
    for &s in &lane_tdp_nodes {
        let i = start + s as usize;
        let nodes = columns.nodes[i];
        let gpus = if gpus_vis { columns.gpus[i] } else { 0 };
        let sockets = if cpus_vis && columns.cpus_present.get(i) {
            columns.cpus[i]
        } else {
            nodes * 2
        };
        let watts = (sockets as f64 * columns.cpu_tdp_watts[i]
            + gpus as f64 * columns.accel_tdp_watts[i])
            * 1.1
            + nodes as f64 * 200.0;
        out[s as usize] = Ok(make(i, watts / 1000.0, PowerPath::DeviceTdp));
    }
    for &s in &lane_tdp_sockets {
        let i = start + s as usize;
        let sockets = columns.cpus[i];
        let watts = sockets as f64 * columns.cpu_tdp_watts[i] * 1.1 + sockets as f64 * 100.0;
        out[s as usize] = Ok(make(i, watts / 1000.0, PowerPath::DeviceTdp));
    }
    for &s in &lane_rmax {
        let i = start + s as usize;
        let gfw = if year_vis {
            columns.gfw_year[i]
        } else {
            columns.gfw_default
        };
        let power_kw = columns.rmax_tflops[i] * 1000.0 / gfw / 1000.0;
        out[s as usize] = Ok(make(i, power_kw, PowerPath::RmaxEfficiency));
    }
    for &s in &lane_fallback {
        let i = start + s as usize;
        out[s as usize] = estimate_view(&view.system(i), &overrides);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frontier_like() -> SystemRecord {
        let mut r = SystemRecord::bare(2, 1.353e6, 2.055e6);
        r.name = Some("Frontier-like".into());
        r.country = Some("United States".into());
        r.processor = Some("AMD Optimized 3rd Generation EPYC 64C 2GHz".into());
        r.accelerator = Some("AMD Instinct MI250X".into());
        r.accelerator_count = Some(37632);
        r.node_count = Some(9408);
        r.cpu_count = Some(9408);
        r.total_cores = Some(8_699_904);
        r.power_kw = Some(22_786.0);
        r.year = Some(2022);
        r
    }

    #[test]
    fn frontier_scale_operational_matches_paper_magnitude() {
        let r = frontier_like();
        let m = SevenMetrics::extract(&r);
        let est = estimate(&r, &m).unwrap();
        assert_eq!(est.path, PowerPath::MeasuredPower);
        // Paper Table II: Frontier ≈ 59.6–60.0 thousand MT CO2e.
        assert!(
            est.mt_co2e > 40_000.0 && est.mt_co2e < 80_000.0,
            "{}",
            est.mt_co2e
        );
    }

    #[test]
    fn measured_energy_preferred_over_power() {
        let mut r = frontier_like();
        r.annual_energy_mwh = Some(160_000.0);
        let m = SevenMetrics::extract(&r);
        let est = estimate(&r, &m).unwrap();
        assert_eq!(est.path, PowerPath::MeasuredEnergy);
        assert_eq!(est.utilization, 1.0);
    }

    #[test]
    fn tdp_path_when_power_missing() {
        let mut r = frontier_like();
        r.power_kw = None;
        let m = SevenMetrics::extract(&r);
        let est = estimate(&r, &m).unwrap();
        assert_eq!(est.path, PowerPath::DeviceTdp);
        // TDP roll-up should land within 2x of the measured 22.8 MW.
        assert!(
            est.power_kw > 11_000.0 && est.power_kw < 46_000.0,
            "{}",
            est.power_kw
        );
    }

    #[test]
    fn accelerated_without_power_or_counts_fails() {
        // Even a well-known accelerator is not enough: without power or
        // device counts the configuration spread is too wide (paper §IV-A).
        let mut r = frontier_like();
        r.power_kw = None;
        r.node_count = None;
        r.accelerator_count = None;
        r.cpu_count = None;
        r.total_cores = None;
        let m = SevenMetrics::extract(&r);
        assert_eq!(
            estimate(&r, &m).unwrap_err(),
            EasyCError::NoPowerPath { rank: 2 }
        );
    }

    #[test]
    fn unknown_accelerator_without_counts_fails() {
        let mut r = frontier_like();
        r.power_kw = None;
        r.node_count = None;
        r.accelerator_count = None;
        r.cpu_count = None;
        r.total_cores = None;
        r.accelerator = Some("Custom AI Accelerator X1".into());
        let m = SevenMetrics::extract(&r);
        let err = estimate(&r, &m).unwrap_err();
        assert_eq!(err, EasyCError::NoPowerPath { rank: 2 });
    }

    #[test]
    fn cpu_only_always_estimable() {
        let mut r = SystemRecord::bare(300, 2000.0, 3000.0);
        r.processor = Some("Xeon Platinum 8380 40C 2.3GHz".into());
        r.total_cores = Some(80_000);
        let m = SevenMetrics::extract(&r);
        let est = estimate(&r, &m).unwrap();
        assert_eq!(est.path, PowerPath::DeviceTdp);
        assert!(est.mt_co2e > 0.0);
    }

    #[test]
    fn higher_aci_means_more_carbon() {
        let mut fr = frontier_like();
        fr.country = Some("France".into());
        let mut pl = frontier_like();
        pl.country = Some("Poland".into());
        let m_fr = SevenMetrics::extract(&fr);
        let m_pl = SevenMetrics::extract(&pl);
        let est_fr = estimate(&fr, &m_fr).unwrap();
        let est_pl = estimate(&pl, &m_pl).unwrap();
        assert!(est_pl.mt_co2e > est_fr.mt_co2e * 5.0);
    }

    #[test]
    fn regional_fallback_has_wide_uncertainty() {
        let mut r = frontier_like();
        r.country = None;
        r.region = Some(Region::Europe);
        let m = SevenMetrics::extract(&r);
        let est = estimate(&r, &m).unwrap();
        assert!(matches!(est.aci, AciSource::Regional(_)));
        assert_eq!(est.aci.relative_uncertainty(), 0.775);
    }

    #[test]
    fn pue_override_applies_inside_estimate() {
        let r = frontier_like();
        let m = SevenMetrics::extract(&r);
        let base = estimate(&r, &m).unwrap();
        let ov = OverrideSet {
            pue: Some(base.pue * 2.0),
            ..OverrideSet::NONE
        };
        let overridden = estimate_with(&r, &m, &ov).unwrap();
        assert_eq!(overridden.pue, base.pue * 2.0);
        assert!((overridden.mt_co2e / base.mt_co2e - 2.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_override_applies_even_at_unit_estimate() {
        // Regression for the seed's `est.utilization != 1.0` guard: a
        // record reporting exactly 100 % utilisation on a TDP path must
        // still honour the override (the old rescale hack silently skipped
        // it). See ISSUE 1, satellite 2.
        let mut r = frontier_like();
        r.power_kw = None; // force the DeviceTdp path
        r.utilization = Some(1.0);
        let m = SevenMetrics::extract(&r);
        let base = estimate(&r, &m).unwrap();
        assert_eq!(base.path, PowerPath::DeviceTdp);
        assert_eq!(base.utilization, 1.0);
        let ov = OverrideSet {
            utilization: Some(0.5),
            ..OverrideSet::NONE
        };
        let halved = estimate_with(&r, &m, &ov).unwrap();
        assert_eq!(halved.utilization, 0.5);
        assert!((halved.mt_co2e / base.mt_co2e - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_override_never_touches_measured_energy() {
        let mut r = frontier_like();
        r.annual_energy_mwh = Some(160_000.0);
        let m = SevenMetrics::extract(&r);
        let ov = OverrideSet {
            utilization: Some(0.5),
            ..OverrideSet::NONE
        };
        let est = estimate_with(&r, &m, &ov).unwrap();
        assert_eq!(est.path, PowerPath::MeasuredEnergy);
        assert_eq!(est.utilization, 1.0);
    }

    #[test]
    fn aci_override_replaces_grid_source() {
        let r = frontier_like();
        let m = SevenMetrics::extract(&r);
        let ov = OverrideSet {
            aci_g_per_kwh: Some(50.0),
            ..OverrideSet::NONE
        };
        let est = estimate_with(&r, &m, &ov).unwrap();
        assert_eq!(est.aci, AciSource::Site(50.0));
        assert_eq!(est.aci.relative_uncertainty(), 0.05);
        let base = estimate(&r, &m).unwrap();
        assert!(est.mt_co2e < base.mt_co2e);
    }

    #[test]
    fn empty_overrides_are_bit_identical_to_estimate() {
        let r = frontier_like();
        let m = SevenMetrics::extract(&r);
        assert_eq!(estimate(&r, &m), estimate_with(&r, &m, &OverrideSet::NONE));
    }

    #[test]
    fn negative_power_is_invalid_field() {
        let mut r = frontier_like();
        r.power_kw = Some(-5.0);
        let m = SevenMetrics::extract(&r);
        assert!(matches!(
            estimate(&r, &m),
            Err(EasyCError::InvalidField {
                field: "power_kw",
                ..
            })
        ));
    }
}
