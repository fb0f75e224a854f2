//! Borrowed, field-level scenario views — the zero-copy lens layer.
//!
//! The first batch engine applied a [`MetricMask`] by *cloning* every
//! [`SystemRecord`] (and its extracted [`SevenMetrics`]) per scenario and
//! blanking the hidden fields on the copy. For wide scenario matrices that
//! made masked sweeps allocation-bound: `scenarios × systems` record clones,
//! each carrying several heap `String`s.
//!
//! This module replaces the clone with a lens. A [`SystemView`] borrows one
//! record and its metrics and answers every estimator query *through* the
//! mask: a hidden field reads as unreported, a visible one reads straight
//! from the borrowed data. A [`FleetView`] is the list-level counterpart —
//! one scenario's lens over a whole `&Top500List` — and is what the
//! [`Assessment`](crate::session::Assessment) session iterates.
//!
//! Field semantics are **identical** to the old clone path
//! ([`MetricMask::apply_record`] / [`MetricMask::apply_metrics`]) by
//! construction — each accessor mirrors one field's masking rule — and
//! property tests in `tests/proptests.rs` pin the equivalence for arbitrary
//! masks, while `tests/batch_matrix.rs` pins that masked sweeps perform
//! zero record clones (via `top500::record::clones_on_thread`).

use crate::metrics::SevenMetrics;
use crate::scenario::{DataScenario, MetricBit, MetricMask, OverrideSet};
use hwdb::grid::Region;
use top500::list::Top500List;
use top500::record::SystemRecord;

/// One system as one scenario sees it: a borrowed record + metrics pair
/// read through a [`MetricMask`]. Copy-cheap (two references and a `u16`).
#[derive(Debug, Clone, Copy)]
pub struct SystemView<'a> {
    record: &'a SystemRecord,
    metrics: &'a SevenMetrics,
    mask: MetricMask,
}

impl<'a> SystemView<'a> {
    /// View of `record`/`metrics` under `mask`. `metrics` must be the
    /// extraction of the same record.
    pub fn new(record: &'a SystemRecord, metrics: &'a SevenMetrics, mask: MetricMask) -> Self {
        SystemView {
            record,
            metrics,
            mask,
        }
    }

    /// Unmasked view (ground-truth scenario).
    pub(crate) fn full(record: &'a SystemRecord, metrics: &'a SevenMetrics) -> Self {
        SystemView::new(record, metrics, MetricMask::ALL)
    }

    // ------------------------------------------------- always-visible data

    /// List rank (a listing requirement; never maskable).
    pub(crate) fn rank(&self) -> u32 {
        self.record.rank
    }

    /// LINPACK Rmax, TFlop/s (listing requirement).
    pub(crate) fn rmax_tflops(&self) -> f64 {
        self.record.rmax_tflops
    }

    /// Processor description string. Not one of the maskable inputs — the
    /// legacy clone path never blanked it either.
    pub(crate) fn processor(&self) -> Option<&'a str> {
        self.record.processor.as_deref()
    }

    /// Accelerator model text. Like the processor string, never masked:
    /// the `gpus` *count* is the maskable metric.
    pub(crate) fn accelerator(&self) -> Option<&'a str> {
        self.record.accelerator.as_deref()
    }

    /// True when the system lists an accelerator.
    pub fn has_accelerator(&self) -> bool {
        self.record.has_accelerator()
    }

    // ------------------------------------------------ masked record fields

    /// Measured LINPACK power, kW — hidden by [`MetricBit::PowerKw`].
    pub(crate) fn power_kw(&self) -> Option<f64> {
        self.visible(MetricBit::PowerKw, self.record.power_kw)
    }

    /// Hosting country — hidden by [`MetricBit::Location`].
    pub(crate) fn country(&self) -> Option<&'a str> {
        self.visible(MetricBit::Location, self.record.country.as_deref())
    }

    /// World region — hidden by [`MetricBit::Location`].
    pub(crate) fn region(&self) -> Option<Region> {
        self.visible(MetricBit::Location, self.record.region)
    }

    // ------------------------------------------------ masked metric fields

    /// Operation year — hidden by [`MetricBit::OperationYear`].
    pub(crate) fn operation_year(&self) -> Option<u32> {
        self.visible(MetricBit::OperationYear, self.metrics.operation_year)
    }

    /// Compute-node count — hidden by [`MetricBit::Nodes`].
    pub(crate) fn nodes(&self) -> Option<u64> {
        self.visible(MetricBit::Nodes, self.metrics.nodes)
    }

    /// Accelerator device count — hidden by [`MetricBit::Gpus`]. Hiding the
    /// count leaves CPU-only systems trivially known (zero accelerators),
    /// matching [`SevenMetrics::extract`] and the legacy clone path.
    pub fn gpus(&self) -> Option<u64> {
        if self.mask.contains(MetricBit::Gpus) {
            self.metrics.gpus
        } else if self.record.has_accelerator() {
            None
        } else {
            Some(0)
        }
    }

    /// CPU socket count — hidden by [`MetricBit::Cpus`].
    pub(crate) fn cpus(&self) -> Option<u64> {
        self.visible(MetricBit::Cpus, self.metrics.cpus)
    }

    /// Memory capacity, GB — hidden by [`MetricBit::MemoryGb`].
    pub(crate) fn memory_gb(&self) -> Option<f64> {
        self.visible(MetricBit::MemoryGb, self.metrics.memory_gb)
    }

    /// Memory technology — hidden by [`MetricBit::MemoryType`].
    pub(crate) fn memory_type(&self) -> Option<&'a str> {
        self.visible(MetricBit::MemoryType, self.metrics.memory_type.as_deref())
    }

    /// SSD capacity, GB — hidden by [`MetricBit::SsdGb`].
    pub(crate) fn ssd_gb(&self) -> Option<f64> {
        self.visible(MetricBit::SsdGb, self.metrics.ssd_gb)
    }

    /// Measured annual energy, MWh — hidden by [`MetricBit::AnnualEnergy`].
    pub(crate) fn annual_energy_mwh(&self) -> Option<f64> {
        self.visible(MetricBit::AnnualEnergy, self.metrics.annual_energy_mwh)
    }

    /// Average utilisation — hidden by [`MetricBit::Utilization`].
    pub(crate) fn utilization(&self) -> Option<f64> {
        self.visible(MetricBit::Utilization, self.metrics.utilization)
    }

    fn visible<T>(&self, bit: MetricBit, value: Option<T>) -> Option<T> {
        if self.mask.contains(bit) {
            value
        } else {
            None
        }
    }
}

/// One scenario's zero-copy lens over a whole list: the borrowed records,
/// their pre-extracted metrics, and the scenario's mask and (pre-merged)
/// overrides. Building a `FleetView` allocates nothing and clones no
/// record; [`FleetView::system`] yields each system's [`SystemView`].
#[derive(Debug, Clone, Copy)]
pub struct FleetView<'a> {
    list: &'a Top500List,
    metrics: &'a [SevenMetrics],
    mask: MetricMask,
    overrides: OverrideSet,
}

impl<'a> FleetView<'a> {
    /// Lens over `list` under `scenario`. `metrics` must be the per-record
    /// extraction of the same list, rank order (one entry per system).
    pub fn new(
        list: &'a Top500List,
        metrics: &'a [SevenMetrics],
        scenario: &DataScenario,
    ) -> FleetView<'a> {
        assert_eq!(
            list.len(),
            metrics.len(),
            "metrics must cover the whole list"
        );
        FleetView {
            list,
            metrics,
            mask: scenario.mask,
            overrides: scenario.overrides,
        }
    }

    /// The scenario's mask.
    pub(crate) fn mask(&self) -> MetricMask {
        self.mask
    }

    /// The scenario's overrides (already merged with any configuration
    /// overrides by the caller).
    pub(crate) fn overrides(&self) -> OverrideSet {
        self.overrides
    }

    /// Number of systems.
    pub(crate) fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Lens on the `i`-th system (rank order).
    pub fn system(&self, i: usize) -> SystemView<'a> {
        SystemView::new(&self.list.systems()[i], &self.metrics[i], self.mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MetricBit;

    fn record() -> SystemRecord {
        let mut r = SystemRecord::bare(5, 90_000.0, 120_000.0);
        r.country = Some("United States".into());
        r.processor = Some("AMD EPYC 7763 64C 2.45GHz".into());
        r.accelerator = Some("NVIDIA A100 SXM4 80GB".into());
        r.accelerator_count = Some(4000);
        r.node_count = Some(1000);
        r.total_cores = Some(128_000);
        r.power_kw = Some(5_000.0);
        r.memory_gb = Some(512_000.0);
        r.memory_type = Some("DDR4".into());
        r.utilization = Some(0.8);
        r.annual_energy_mwh = Some(40_000.0);
        r.year = Some(2021);
        r
    }

    #[test]
    fn full_view_reads_everything_through() {
        let r = record();
        let m = SevenMetrics::extract(&r);
        let v = SystemView::full(&r, &m);
        assert_eq!(v.rank(), 5);
        assert_eq!(v.power_kw(), r.power_kw);
        assert_eq!(v.country(), r.country.as_deref());
        assert_eq!(v.nodes(), m.nodes);
        assert_eq!(v.gpus(), m.gpus);
        assert_eq!(v.memory_type(), m.memory_type.as_deref());
        assert_eq!(v.annual_energy_mwh(), m.annual_energy_mwh);
        assert_eq!(v.utilization(), m.utilization);
        assert_eq!(v.operation_year(), m.operation_year);
    }

    #[test]
    fn masked_fields_read_as_unreported() {
        let r = record();
        let m = SevenMetrics::extract(&r);
        let mask = MetricMask::ALL
            .without(MetricBit::PowerKw)
            .without(MetricBit::Location)
            .without(MetricBit::MemoryGb);
        let v = SystemView::new(&r, &m, mask);
        assert_eq!(v.power_kw(), None);
        assert_eq!(v.country(), None);
        assert_eq!(v.region(), None);
        assert_eq!(v.memory_gb(), None);
        // Unhidden neighbours stay visible.
        assert_eq!(v.nodes(), m.nodes);
        assert_eq!(v.processor(), r.processor.as_deref());
    }

    #[test]
    fn gpu_mask_keeps_cpu_only_trivial() {
        let mut r = record();
        r.accelerator = None;
        r.accelerator_count = None;
        let m = SevenMetrics::extract(&r);
        let v = SystemView::new(&r, &m, MetricMask::ALL.without(MetricBit::Gpus));
        assert_eq!(v.gpus(), Some(0));
        let accel = record();
        let m2 = SevenMetrics::extract(&accel);
        let v2 = SystemView::new(&accel, &m2, MetricMask::ALL.without(MetricBit::Gpus));
        assert_eq!(v2.gpus(), None);
    }

    #[test]
    fn view_accessors_match_clone_path_for_every_single_bit_mask() {
        let r = record();
        let m = SevenMetrics::extract(&r);
        for bit in MetricBit::ALL {
            let mask = MetricMask::ALL.without(bit);
            let masked_record = mask.apply_record(&r);
            let masked_metrics = mask.apply_metrics(&r, &m);
            let v = SystemView::new(&r, &m, mask);
            assert_eq!(v.power_kw(), masked_record.power_kw, "{bit:?}");
            assert_eq!(v.country(), masked_record.country.as_deref(), "{bit:?}");
            assert_eq!(v.region(), masked_record.region, "{bit:?}");
            assert_eq!(v.operation_year(), masked_metrics.operation_year);
            assert_eq!(v.nodes(), masked_metrics.nodes);
            assert_eq!(v.gpus(), masked_metrics.gpus);
            assert_eq!(v.cpus(), masked_metrics.cpus);
            assert_eq!(v.memory_gb(), masked_metrics.memory_gb);
            assert_eq!(v.memory_type(), masked_metrics.memory_type.as_deref());
            assert_eq!(v.ssd_gb(), masked_metrics.ssd_gb);
            assert_eq!(v.annual_energy_mwh(), masked_metrics.annual_energy_mwh);
            assert_eq!(v.utilization(), masked_metrics.utilization);
        }
    }

    #[test]
    fn fleet_view_is_clone_free() {
        let list = Top500List::new((1..=40).map(record_at).collect());
        let metrics: Vec<SevenMetrics> = list.systems().iter().map(SevenMetrics::extract).collect();
        let scenario = DataScenario::masked(
            "no-power",
            MetricMask::ALL
                .without(MetricBit::PowerKw)
                .without(MetricBit::AnnualEnergy),
        );
        let before = top500::record::clones_on_thread();
        let view = FleetView::new(&list, &metrics, &scenario);
        let mut seen = 0;
        for sys in (0..view.len()).map(|i| view.system(i)) {
            assert_eq!(sys.power_kw(), None);
            assert_eq!(sys.annual_energy_mwh(), None);
            seen += 1;
        }
        assert_eq!(seen, 40);
        assert_eq!(
            top500::record::clones_on_thread(),
            before,
            "building and walking a FleetView must clone no record"
        );
    }

    fn record_at(rank: u32) -> SystemRecord {
        let mut r = record();
        r.rank = rank;
        r
    }

    #[test]
    fn range_views_cover_chunks() {
        let list = Top500List::new((1..=10).map(record_at).collect());
        let metrics: Vec<SevenMetrics> = list.systems().iter().map(SevenMetrics::extract).collect();
        let view = FleetView::new(&list, &metrics, &DataScenario::full("full"));
        let ranks: Vec<u32> = (3..7).map(|i| view.system(i).rank()).collect();
        assert_eq!(ranks, vec![4, 5, 6, 7]);
        assert_eq!(view.len(), 10);
    }

    #[test]
    #[should_panic(expected = "metrics must cover")]
    fn mismatched_metrics_rejected() {
        let list = Top500List::new((1..=3).map(record_at).collect());
        let metrics = vec![SevenMetrics::extract(&list.systems()[0])];
        let _ = FleetView::new(&list, &metrics, &DataScenario::full("full"));
    }
}
