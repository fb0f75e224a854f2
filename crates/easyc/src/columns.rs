//! Struct-of-arrays fleet representation — the columnar fast path.
//!
//! [`FleetColumns`] transposes a fleet (records + extracted
//! [`SevenMetrics`]) into contiguous value columns plus one presence
//! [`Bitset`] per maskable metric, and resolves every *scenario-independent*
//! lookup exactly once per fleet:
//!
//! - hardware-database resolutions (CPU/accelerator spec lookups are
//!   case-insensitive substring scans over static tables, grid-intensity
//!   resolution is a linear country scan plus a regional average) are
//!   memoised per distinct string, then burned into plain `f64` columns;
//! - per-unit embodied silicon (`silicon_kg(1.0, ..)`) and per-device HBM
//!   factors are precomputed so the kernel multiplies by device counts;
//! - site-class PUE and the efficiency-prior GFLOPS/W are resolved per row.
//!
//! The chunk-at-a-time kernels (`operational::estimate_columns`,
//! `embodied::estimate_columns`) then apply a scenario's [`MetricMask`] as a
//! word-wide AND against the presence bitsets — no per-row `Option`
//! matching, no string work, no table scans — and reproduce
//! `estimate_view`'s arithmetic bit for bit (proptest-pinned).
//!
//! Building `FleetColumns` clones no record: every column is derived
//! through `&str`/`Copy` reads of the borrowed list.
//!
//! [`MetricMask`]: crate::scenario::MetricMask

use crate::metrics::SevenMetrics;
use crate::operational::AciSource;
use frame::bitset::Bitset;
use hwdb::efficiency::{gflops_per_watt_prior, MachineClass};
use hwdb::grid::{country_aci, regional_aci, Region};
use hwdb::memory::{dram_embodied_kg, MemoryType, DEFAULT_DRAM_KG_PER_GB};
use hwdb::pue::{infer_site_class, DEFAULT_PUE};
use std::collections::HashMap;
use top500::list::Top500List;

/// A fleet transposed into estimator-input columns (see module docs).
///
/// Columns are indexed by list position (rank order), exactly like
/// [`FleetView::system`](crate::view::FleetView::system). Value columns hold
/// `0`/`0.0` where the corresponding presence bit is clear.
#[derive(Debug, Clone)]
pub struct FleetColumns {
    len: usize,

    // ----------------------------------------------------- always visible
    pub(crate) rank: Vec<u32>,
    pub(crate) rmax_tflops: Vec<f64>,
    pub(crate) has_accelerator: Bitset,

    // ------------------------- hwdb resolutions (scenario-independent)
    /// CPU socket TDP, watts (generic prior when the processor string is
    /// absent or unrecognised).
    pub(crate) cpu_tdp_watts: Vec<f64>,
    /// Embodied kg of one CPU socket's silicon + packaging.
    pub(crate) cpu_unit_kg: Vec<f64>,
    /// Processor absent or unrecognised (the generic-CPU prior applied).
    pub(crate) cpu_fallback: Bitset,
    /// Accelerator board TDP, watts; 0.0 when no accelerator string.
    pub(crate) accel_tdp_watts: Vec<f64>,
    /// Embodied kg of one accelerator's silicon + packaging.
    pub(crate) accel_unit_die_kg: Vec<f64>,
    /// Embodied kg of one accelerator's HBM stack.
    pub(crate) accel_unit_hbm_kg: Vec<f64>,
    /// Accelerator string unrecognised (mainstream-GPU approximation).
    pub(crate) accel_fallback: Bitset,
    /// Accelerator string is a coarse family label (blocks embodied).
    pub(crate) accel_generic: Bitset,
    /// Site-class PUE prior (rank 0 falls to the default PUE).
    pub(crate) site_pue: Vec<f64>,
    /// Grid intensity as resolved with location *visible*.
    pub(crate) aci_located: Vec<AciSource>,
    /// Grid intensity when location is masked (world prior).
    pub(crate) aci_world: AciSource,
    /// CPU-only efficiency prior at the row's operation year (or 2020).
    pub(crate) gfw_year: Vec<f64>,
    /// CPU-only efficiency prior at 2020 (operation year masked).
    pub(crate) gfw_default: f64,

    // ----------------------- metric value columns + presence bitsets
    pub(crate) energy_mwh: Vec<f64>,
    pub(crate) energy_present: Bitset,
    pub(crate) power_kw: Vec<f64>,
    pub(crate) power_present: Bitset,
    pub(crate) utilization: Vec<f64>,
    pub(crate) util_present: Bitset,
    pub(crate) nodes: Vec<u64>,
    pub(crate) nodes_present: Bitset,
    pub(crate) gpus: Vec<u64>,
    pub(crate) gpus_present: Bitset,
    pub(crate) cpus: Vec<u64>,
    pub(crate) cpus_present: Bitset,
    pub(crate) memory_gb: Vec<f64>,
    pub(crate) memory_present: Bitset,
    pub(crate) ssd_gb: Vec<f64>,
    pub(crate) ssd_present: Bitset,
    /// DRAM kg/GB with the memory type *visible* (default rate when the
    /// string is absent or unparseable — same as `dram_embodied_kg`).
    pub(crate) mem_rate: Vec<f64>,
}

impl FleetColumns {
    /// Transposes `list`/`metrics` into columns, resolving every
    /// scenario-independent lookup once (memoised per distinct string).
    /// `metrics` must be the per-record extraction of the same list.
    pub fn build(list: &Top500List, metrics: &[SevenMetrics]) -> FleetColumns {
        assert_eq!(
            list.len(),
            metrics.len(),
            "metrics must cover the whole list"
        );
        let n = list.len();
        let mut c = FleetColumns::with_capacity(n);
        let mut caches = ResolveCaches::default();
        for (i, (record, m)) in list.systems().iter().zip(metrics).enumerate() {
            let row = resolve_row(&mut caches, record, m);
            c.push_row(i, &row);
        }
        c
    }

    /// Recomputes the columns of `range` in place after those records (or
    /// their metrics) changed — the O(k) incremental path of the resident
    /// [`crate::state::FleetState`]. Bit-identical to a full `build`: row
    /// resolution is per-row pure (the memoisation only avoids repeated
    /// lookups, it never changes a value), so patched rows carry exactly
    /// the bits a rebuild would, and untouched rows are never read.
    pub(crate) fn patch_range(
        &mut self,
        list: &Top500List,
        metrics: &[SevenMetrics],
        range: std::ops::Range<usize>,
    ) {
        assert_eq!(
            list.len(),
            metrics.len(),
            "metrics must cover the whole list"
        );
        assert_eq!(self.len, list.len(), "a patch may not change the length");
        assert!(range.end <= self.len, "patched range must lie in the fleet");
        let mut caches = ResolveCaches::default();
        for i in range {
            // audit: allow(panic-surface) — `i` ranges over a patch range the asserts above pin inside the fleet
            let row = resolve_row(&mut caches, &list.systems()[i], &metrics[i]);
            self.write_row(i, &row);
        }
    }

    /// Appends one resolved row (the `build` path: bitsets start clear).
    fn push_row(&mut self, i: usize, row: &ResolvedRow) {
        self.rank.push(row.rank);
        self.rmax_tflops.push(row.rmax_tflops);
        self.has_accelerator.assign(i, row.has_accelerator);
        self.cpu_tdp_watts.push(row.cpu_tdp_watts);
        self.cpu_unit_kg.push(row.cpu_unit_kg);
        self.cpu_fallback.assign(i, row.cpu_fallback);
        self.accel_tdp_watts.push(row.accel_tdp_watts);
        self.accel_unit_die_kg.push(row.accel_unit_die_kg);
        self.accel_unit_hbm_kg.push(row.accel_unit_hbm_kg);
        self.accel_fallback.assign(i, row.accel_fallback);
        self.accel_generic.assign(i, row.accel_generic);
        self.site_pue.push(row.site_pue);
        self.aci_located.push(row.aci_located);
        self.gfw_year.push(row.gfw_year);
        self.energy_mwh.push(row.energy_mwh.unwrap_or(0.0));
        self.energy_present.assign(i, row.energy_mwh.is_some());
        self.power_kw.push(row.power_kw.unwrap_or(0.0));
        self.power_present.assign(i, row.power_kw.is_some());
        self.utilization.push(row.utilization.unwrap_or(0.0));
        self.util_present.assign(i, row.utilization.is_some());
        self.nodes.push(row.nodes.unwrap_or(0));
        self.nodes_present.assign(i, row.nodes.is_some());
        self.gpus.push(row.gpus.unwrap_or(0));
        self.gpus_present.assign(i, row.gpus.is_some());
        self.cpus.push(row.cpus.unwrap_or(0));
        self.cpus_present.assign(i, row.cpus.is_some());
        self.memory_gb.push(row.memory_gb.unwrap_or(0.0));
        self.memory_present.assign(i, row.memory_gb.is_some());
        self.ssd_gb.push(row.ssd_gb.unwrap_or(0.0));
        self.ssd_present.assign(i, row.ssd_gb.is_some());
        self.mem_rate.push(row.mem_rate);
    }

    /// Overwrites row `i` with a resolved row (the `patch_range` path).
    fn write_row(&mut self, i: usize, row: &ResolvedRow) {
        self.rank[i] = row.rank;
        self.rmax_tflops[i] = row.rmax_tflops;
        self.has_accelerator.assign(i, row.has_accelerator);
        self.cpu_tdp_watts[i] = row.cpu_tdp_watts;
        self.cpu_unit_kg[i] = row.cpu_unit_kg;
        self.cpu_fallback.assign(i, row.cpu_fallback);
        self.accel_tdp_watts[i] = row.accel_tdp_watts;
        self.accel_unit_die_kg[i] = row.accel_unit_die_kg;
        self.accel_unit_hbm_kg[i] = row.accel_unit_hbm_kg;
        self.accel_fallback.assign(i, row.accel_fallback);
        self.accel_generic.assign(i, row.accel_generic);
        self.site_pue[i] = row.site_pue;
        self.aci_located[i] = row.aci_located;
        self.gfw_year[i] = row.gfw_year;
        self.energy_mwh[i] = row.energy_mwh.unwrap_or(0.0);
        self.energy_present.assign(i, row.energy_mwh.is_some());
        self.power_kw[i] = row.power_kw.unwrap_or(0.0);
        self.power_present.assign(i, row.power_kw.is_some());
        self.utilization[i] = row.utilization.unwrap_or(0.0);
        self.util_present.assign(i, row.utilization.is_some());
        self.nodes[i] = row.nodes.unwrap_or(0);
        self.nodes_present.assign(i, row.nodes.is_some());
        self.gpus[i] = row.gpus.unwrap_or(0);
        self.gpus_present.assign(i, row.gpus.is_some());
        self.cpus[i] = row.cpus.unwrap_or(0);
        self.cpus_present.assign(i, row.cpus.is_some());
        self.memory_gb[i] = row.memory_gb.unwrap_or(0.0);
        self.memory_present.assign(i, row.memory_gb.is_some());
        self.ssd_gb[i] = row.ssd_gb.unwrap_or(0.0);
        self.ssd_present.assign(i, row.ssd_gb.is_some());
        self.mem_rate[i] = row.mem_rate;
    }

    /// Number of systems.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn with_capacity(n: usize) -> FleetColumns {
        FleetColumns {
            len: n,
            rank: Vec::with_capacity(n),
            rmax_tflops: Vec::with_capacity(n),
            has_accelerator: Bitset::new(n),
            cpu_tdp_watts: Vec::with_capacity(n),
            cpu_unit_kg: Vec::with_capacity(n),
            cpu_fallback: Bitset::new(n),
            accel_tdp_watts: Vec::with_capacity(n),
            accel_unit_die_kg: Vec::with_capacity(n),
            accel_unit_hbm_kg: Vec::with_capacity(n),
            accel_fallback: Bitset::new(n),
            accel_generic: Bitset::new(n),
            site_pue: Vec::with_capacity(n),
            aci_located: Vec::with_capacity(n),
            aci_world: AciSource::WorldPrior(regional_aci(Region::World)),
            gfw_year: Vec::with_capacity(n),
            gfw_default: gflops_per_watt_prior(MachineClass::CpuOnly, 2020),
            energy_mwh: Vec::with_capacity(n),
            energy_present: Bitset::new(n),
            power_kw: Vec::with_capacity(n),
            power_present: Bitset::new(n),
            utilization: Vec::with_capacity(n),
            util_present: Bitset::new(n),
            nodes: Vec::with_capacity(n),
            nodes_present: Bitset::new(n),
            gpus: Vec::with_capacity(n),
            gpus_present: Bitset::new(n),
            cpus: Vec::with_capacity(n),
            cpus_present: Bitset::new(n),
            memory_gb: Vec::with_capacity(n),
            memory_present: Bitset::new(n),
            ssd_gb: Vec::with_capacity(n),
            ssd_present: Bitset::new(n),
            mem_rate: Vec::with_capacity(n),
        }
    }

    /// The word-aligned classification window for a row range: word index
    /// bounds plus a validity mask per word (1-bits = rows inside `range`).
    pub(crate) fn word_window(
        range: &std::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, u64)> {
        let (start, end) = (range.start, range.end);
        (start / 64..end.div_ceil(64)).map(move |w| {
            let base = w * 64;
            let mut valid = !0u64;
            if base < start {
                valid &= !0u64 << (start - base);
            }
            if base + 64 > end {
                valid &= !0u64 >> (base + 64 - end);
            }
            (w, valid)
        })
    }
}

/// Memoised hwdb resolutions, keyed on borrowed record strings. Shared by
/// `build` (whole fleet) and `patch_range` (k rows); the memoisation only
/// avoids repeated lookups — it never changes a resolved value — so the
/// two paths produce identical rows.
#[derive(Default)]
struct ResolveCaches<'a> {
    /// (tdp, unit silicon kg, fallback)
    cpu: HashMap<&'a str, (f64, f64, bool)>,
    /// (tdp, unit die kg, unit HBM kg, fallback, generic label)
    accel: HashMap<&'a str, (f64, f64, f64, bool, bool)>,
    country: HashMap<&'a str, Option<f64>>,
    regional: HashMap<Region, f64>,
    mem_rate: HashMap<&'a str, f64>,
    gfw: HashMap<u32, f64>,
}

/// One system's fully resolved column values — what `build` appends and
/// `patch_range` overwrites in place.
struct ResolvedRow {
    rank: u32,
    rmax_tflops: f64,
    has_accelerator: bool,
    cpu_tdp_watts: f64,
    cpu_unit_kg: f64,
    cpu_fallback: bool,
    accel_tdp_watts: f64,
    accel_unit_die_kg: f64,
    accel_unit_hbm_kg: f64,
    accel_fallback: bool,
    accel_generic: bool,
    site_pue: f64,
    aci_located: AciSource,
    gfw_year: f64,
    energy_mwh: Option<f64>,
    power_kw: Option<f64>,
    utilization: Option<f64>,
    nodes: Option<u64>,
    gpus: Option<u64>,
    cpus: Option<u64>,
    memory_gb: Option<f64>,
    ssd_gb: Option<f64>,
    mem_rate: f64,
}

/// Resolves one record + extracted metrics into column values, memoising
/// hwdb lookups in `caches`.
fn resolve_row<'a>(
    caches: &mut ResolveCaches<'a>,
    record: &'a top500::record::SystemRecord,
    m: &'a SevenMetrics,
) -> ResolvedRow {
    // CPU spec (estimate_view uses the generic prior when the processor
    // string is absent — same fallback flag discipline as
    // `lookup_or_generic`).
    let (cpu_tdp_watts, cpu_unit_kg, cpu_fallback) = match record.processor.as_deref() {
        Some(p) => *caches.cpu.entry(p).or_insert_with(|| {
            let (spec, fell_back) = hwdb::cpu::lookup_or_generic(p);
            (
                spec.tdp_watts,
                crate::embodied::silicon_kg(1.0, spec.die_area_cm2, spec.node, false),
                fell_back,
            )
        }),
        None => (
            hwdb::cpu::GENERIC_CPU.tdp_watts,
            crate::embodied::silicon_kg(
                1.0,
                hwdb::cpu::GENERIC_CPU.die_area_cm2,
                hwdb::cpu::GENERIC_CPU.node,
                false,
            ),
            true,
        ),
    };

    // Accelerator spec. The TDP column is 0.0 without a string (the power
    // roll-up's `unwrap_or(0.0)`); the embodied unit columns are only read
    // when the device count is positive, which implies the string is
    // present.
    let (accel_tdp_watts, accel_unit_die_kg, accel_unit_hbm_kg, accel_fallback, accel_generic) =
        match record.accelerator.as_deref() {
            Some(a) => *caches.accel.entry(a).or_insert_with(|| {
                let (spec, fell_back) = hwdb::accel::lookup_or_mainstream(a);
                (
                    spec.tdp_watts,
                    crate::embodied::silicon_kg(1.0, spec.die_area_cm2, spec.node, true),
                    dram_embodied_kg(spec.hbm_gb, Some(MemoryType::Hbm3)),
                    fell_back,
                    hwdb::accel::is_generic_label(a),
                )
            }),
            None => (0.0, 0.0, 0.0, false, false),
        };

    let site_pue = match record.rank {
        0 => DEFAULT_PUE,
        rank => infer_site_class(rank, record.has_accelerator()).pue(),
    };

    // Grid intensity with location visible — the same cascade as
    // `operational::resolve_aci_view`, with the linear scans memoised.
    let regional = |cache: &mut HashMap<Region, f64>, region: Region| {
        *cache.entry(region).or_insert_with(|| regional_aci(region))
    };
    let aci_located = match record
        .country
        .as_deref()
        .and_then(|cc| *caches.country.entry(cc).or_insert_with(|| country_aci(cc)))
    {
        Some(aci) => AciSource::Country(aci),
        None => match record.region {
            Some(region) => AciSource::Regional(regional(&mut caches.regional, region)),
            None => AciSource::WorldPrior(regional(&mut caches.regional, Region::World)),
        },
    };

    let year = m.operation_year.unwrap_or(2020);
    let gfw_year = *caches
        .gfw
        .entry(year)
        .or_insert_with(|| gflops_per_watt_prior(MachineClass::CpuOnly, year));

    let mem_rate = match m.memory_type.as_deref() {
        Some(t) => *caches.mem_rate.entry(t).or_insert_with(|| {
            MemoryType::parse(t).map_or(DEFAULT_DRAM_KG_PER_GB, MemoryType::kg_per_gb)
        }),
        None => DEFAULT_DRAM_KG_PER_GB,
    };

    ResolvedRow {
        rank: record.rank,
        rmax_tflops: record.rmax_tflops,
        has_accelerator: record.has_accelerator(),
        cpu_tdp_watts,
        cpu_unit_kg,
        cpu_fallback,
        accel_tdp_watts,
        accel_unit_die_kg,
        accel_unit_hbm_kg,
        accel_fallback,
        accel_generic,
        site_pue,
        aci_located,
        gfw_year,
        energy_mwh: m.annual_energy_mwh,
        power_kw: record.power_kw,
        utilization: m.utilization,
        nodes: m.nodes,
        gpus: m.gpus,
        cpus: m.cpus,
        memory_gb: m.memory_gb,
        ssd_gb: m.ssd_gb,
        mem_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use top500::record::SystemRecord;

    fn fleet() -> (Top500List, Vec<SevenMetrics>) {
        let mut systems = Vec::new();
        for rank in 1..=70u32 {
            let mut r = SystemRecord::bare(rank, 1000.0 * rank as f64, 1500.0 * rank as f64);
            if rank % 2 == 0 {
                r.processor = Some("AMD EPYC 7763 64C 2.45GHz".into());
            }
            if rank % 3 == 0 {
                r.accelerator = Some("NVIDIA A100 SXM4 80GB".into());
                r.accelerator_count = Some(100 * rank as u64);
            }
            if rank % 4 == 0 {
                r.country = Some("United States".into());
            }
            if rank % 5 == 0 {
                r.power_kw = Some(50.0 * rank as f64);
            }
            r.node_count = Some(10 * rank as u64);
            systems.push(r);
        }
        let list = Top500List::new(systems);
        let metrics = list.systems().iter().map(SevenMetrics::extract).collect();
        (list, metrics)
    }

    #[test]
    fn columns_mirror_records() {
        let (list, metrics) = fleet();
        let c = FleetColumns::build(&list, &metrics);
        assert_eq!(c.len(), 70);
        for (i, r) in list.systems().iter().enumerate() {
            assert_eq!(c.rank[i], r.rank);
            assert_eq!(c.has_accelerator.get(i), r.has_accelerator());
            assert_eq!(c.power_present.get(i), r.power_kw.is_some());
            if let Some(p) = r.power_kw {
                assert_eq!(c.power_kw[i], p);
            }
            assert_eq!(c.nodes_present.get(i), metrics[i].nodes.is_some());
        }
    }

    #[test]
    fn build_clones_no_record() {
        let (list, metrics) = fleet();
        let before = top500::record::clones_on_thread();
        let c = FleetColumns::build(&list, &metrics);
        assert_eq!(top500::record::clones_on_thread(), before);
        assert_eq!(c.len(), list.len());
    }

    #[test]
    fn hwdb_resolutions_match_row_lookups() {
        let (list, metrics) = fleet();
        let c = FleetColumns::build(&list, &metrics);
        for (i, r) in list.systems().iter().enumerate() {
            let view = crate::view::SystemView::full(r, &metrics[i]);
            let expected = crate::operational::resolve_aci_view(&view);
            assert_eq!(c.aci_located[i], expected, "row {i}");
            let tdp = match r.processor.as_deref() {
                Some(p) => hwdb::cpu::lookup_or_generic(p).0.tdp_watts,
                None => hwdb::cpu::GENERIC_CPU.tdp_watts,
            };
            assert_eq!(c.cpu_tdp_watts[i], tdp, "row {i}");
        }
    }

    #[test]
    fn patch_range_matches_full_rebuild() {
        let (mut list, metrics) = fleet();
        let mut c = FleetColumns::build(&list, &metrics);
        // Flip metrics both directions inside the range: add power, swap
        // the CPU, drop the country (presence bits must clear, not stick).
        for r in &mut list.systems_mut()[10..20] {
            r.power_kw = Some(123.0);
            r.processor = Some("Xeon Platinum 8280".into());
            r.country = None;
            r.accelerator = None;
            r.accelerator_count = None;
        }
        let metrics: Vec<SevenMetrics> = list.systems().iter().map(SevenMetrics::extract).collect();
        c.patch_range(&list, &metrics, 10..20);
        let rebuilt = FleetColumns::build(&list, &metrics);
        // `Debug` prints every column with round-trippable floats, so
        // formatting equality pins all fields at once.
        assert_eq!(format!("{c:?}"), format!("{rebuilt:?}"));
    }

    #[test]
    fn word_window_masks_partial_words() {
        let windows: Vec<(usize, u64)> = FleetColumns::word_window(&(3..70)).collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0], (0, !0u64 << 3));
        assert_eq!(windows[1], (1, !0u64 >> (64 - 6)));
        let full: Vec<(usize, u64)> = FleetColumns::word_window(&(0..64)).collect();
        assert_eq!(full, vec![(0, !0u64)]);
    }
}
