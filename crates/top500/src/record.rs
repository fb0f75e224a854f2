//! The Top500 system record schema and its 19 reportable data items.
//!
//! Every field beyond the ranking essentials is `Option`: missingness is the
//! central phenomenon the paper studies, so it is explicit in the types.

use hwdb::grid::Region;
use std::cell::Cell;

thread_local! {
    /// Per-thread count of [`SystemRecord`] clones, see [`clones_on_thread`].
    static RECORD_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`SystemRecord`] clones performed *by the calling thread* since
/// it started. Record clones are the allocation cost the field-level view
/// layer (`easyc`'s `FleetView`) exists to eliminate; this counter lets
/// tests pin "masked sweeps perform zero record clones" instead of trusting
/// the types. Thread-local so concurrently running tests cannot disturb
/// each other's measurements.
pub fn clones_on_thread() -> u64 {
    RECORD_CLONES.with(Cell::get)
}

/// One system as reported (partially) by top500.org plus any enrichment.
#[derive(Debug, PartialEq)]
pub struct SystemRecord {
    /// Rank on the list (1-based). Always present.
    pub rank: u32,
    /// System name; a handful of systems are listed anonymously.
    pub name: Option<String>,
    /// Hosting country, when disclosed.
    pub country: Option<String>,
    /// World region (coarser than country; derivable from site text).
    pub region: Option<Region>,
    /// Year the system entered operation.
    pub year: Option<u32>,
    /// Vendor string (HPE, EVIDEN, Lenovo, ...).
    pub vendor: Option<String>,
    /// Processor description, e.g. "AMD EPYC 9654 96C 2.4GHz".
    pub processor: Option<String>,
    /// Total cores across the machine (CPU + accelerator cores as listed).
    pub total_cores: Option<u64>,
    /// Accelerator / co-processor model text, when the system has one.
    pub accelerator: Option<String>,
    /// Number of accelerator devices.
    pub accelerator_count: Option<u64>,
    /// LINPACK Rmax, TFlop/s. Required for listing; always present.
    pub rmax_tflops: f64,
    /// Theoretical peak, TFlop/s. Required for listing; always present.
    pub rpeak_tflops: f64,
    /// LINPACK problem size.
    pub nmax: Option<u64>,
    /// Measured LINPACK power, kW (the famously sparse column).
    pub power_kw: Option<f64>,
    /// Number of compute nodes.
    pub node_count: Option<u64>,
    /// Number of CPU sockets.
    pub cpu_count: Option<u64>,
    /// Total memory capacity, GB.
    pub memory_gb: Option<f64>,
    /// Memory technology string ("DDR5", "HBM2e", ...).
    pub memory_type: Option<String>,
    /// Total SSD capacity, GB.
    pub ssd_gb: Option<f64>,
    /// Average utilisation (0..1], optional EasyC refinement input.
    pub utilization: Option<f64>,
    /// Measured annual energy, MWh, optional EasyC refinement input.
    pub annual_energy_mwh: Option<f64>,
}

impl Clone for SystemRecord {
    fn clone(&self) -> SystemRecord {
        RECORD_CLONES.with(|c| c.set(c.get() + 1));
        SystemRecord {
            rank: self.rank,
            name: self.name.clone(),
            country: self.country.clone(),
            region: self.region,
            year: self.year,
            vendor: self.vendor.clone(),
            processor: self.processor.clone(),
            total_cores: self.total_cores,
            accelerator: self.accelerator.clone(),
            accelerator_count: self.accelerator_count,
            rmax_tflops: self.rmax_tflops,
            rpeak_tflops: self.rpeak_tflops,
            nmax: self.nmax,
            power_kw: self.power_kw,
            node_count: self.node_count,
            cpu_count: self.cpu_count,
            memory_gb: self.memory_gb,
            memory_type: self.memory_type.clone(),
            ssd_gb: self.ssd_gb,
            utilization: self.utilization,
            annual_energy_mwh: self.annual_energy_mwh,
        }
    }
}

impl SystemRecord {
    /// A record with only the always-present ranking fields.
    pub fn bare(rank: u32, rmax_tflops: f64, rpeak_tflops: f64) -> SystemRecord {
        SystemRecord {
            rank,
            name: None,
            country: None,
            region: None,
            year: None,
            vendor: None,
            processor: None,
            total_cores: None,
            accelerator: None,
            accelerator_count: None,
            rmax_tflops,
            rpeak_tflops,
            nmax: None,
            power_kw: None,
            node_count: None,
            cpu_count: None,
            memory_gb: None,
            memory_type: None,
            ssd_gb: None,
            utilization: None,
            annual_energy_mwh: None,
        }
    }

    /// True when the system lists an accelerator.
    pub fn has_accelerator(&self) -> bool {
        self.accelerator.is_some()
    }

    /// Which of the 19 reportable data items are missing on this record.
    pub(crate) fn missing_items(&self) -> Vec<DataItem> {
        DataItem::ALL
            .iter()
            .copied()
            .filter(|item| !self.has_item(*item))
            .collect()
    }

    /// Number of missing data items (the x-axis of the paper's Figure 2).
    pub fn missing_count(&self) -> usize {
        self.missing_items().len()
    }

    /// Whether a given data item is present.
    pub fn has_item(&self, item: DataItem) -> bool {
        match item {
            DataItem::Name => self.name.is_some(),
            DataItem::Country => self.country.is_some(),
            DataItem::Region => self.region.is_some(),
            DataItem::OperationYear => self.year.is_some(),
            DataItem::Vendor => self.vendor.is_some(),
            DataItem::Processor => self.processor.is_some(),
            DataItem::TotalCores => self.total_cores.is_some(),
            DataItem::AcceleratorModel => self.accelerator.is_some(),
            DataItem::AcceleratorCount => self.accelerator_count.is_some(),
            DataItem::Rmax => true,
            DataItem::Rpeak => true,
            DataItem::Nmax => self.nmax.is_some(),
            DataItem::PowerKw => self.power_kw.is_some(),
            DataItem::NodeCount => self.node_count.is_some(),
            DataItem::CpuCount => self.cpu_count.is_some(),
            DataItem::MemoryCapacity => self.memory_gb.is_some(),
            DataItem::MemoryType => self.memory_type.is_some(),
            DataItem::SsdCapacity => self.ssd_gb.is_some(),
            DataItem::Utilization => self.utilization.is_some(),
        }
    }
}

/// The 19 reportable data items tracked by the coverage study (Figure 2).
///
/// `Rmax` and `Rpeak` are listing requirements and therefore never missing;
/// they are included so the item count matches the paper's axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataItem {
    /// System name.
    Name,
    /// Hosting country.
    Country,
    /// World region.
    Region,
    /// Year of first operation.
    OperationYear,
    /// System vendor.
    Vendor,
    /// Processor description string.
    Processor,
    /// Total core count.
    TotalCores,
    /// Accelerator model.
    AcceleratorModel,
    /// Accelerator device count.
    AcceleratorCount,
    /// LINPACK Rmax.
    Rmax,
    /// Theoretical peak.
    Rpeak,
    /// LINPACK problem size.
    Nmax,
    /// Measured LINPACK power.
    PowerKw,
    /// Compute node count.
    NodeCount,
    /// CPU socket count.
    CpuCount,
    /// Memory capacity.
    MemoryCapacity,
    /// Memory technology.
    MemoryType,
    /// SSD capacity.
    SsdCapacity,
    /// Average utilisation.
    Utilization,
}

impl DataItem {
    /// All 19 items in display order.
    pub const ALL: [DataItem; 19] = [
        DataItem::Name,
        DataItem::Country,
        DataItem::Region,
        DataItem::OperationYear,
        DataItem::Vendor,
        DataItem::Processor,
        DataItem::TotalCores,
        DataItem::AcceleratorModel,
        DataItem::AcceleratorCount,
        DataItem::Rmax,
        DataItem::Rpeak,
        DataItem::Nmax,
        DataItem::PowerKw,
        DataItem::NodeCount,
        DataItem::CpuCount,
        DataItem::MemoryCapacity,
        DataItem::MemoryType,
        DataItem::SsdCapacity,
        DataItem::Utilization,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_record_missing_everything_but_perf() {
        let r = SystemRecord::bare(1, 1000.0, 1500.0);
        let missing = r.missing_items();
        // 19 items minus Rmax and Rpeak which are always present.
        assert_eq!(missing.len(), 17);
        assert!(!missing.contains(&DataItem::Rmax));
        assert!(!missing.contains(&DataItem::Rpeak));
    }

    #[test]
    fn has_item_tracks_fields() {
        let mut r = SystemRecord::bare(1, 1.0, 2.0);
        assert!(!r.has_item(DataItem::PowerKw));
        r.power_kw = Some(500.0);
        assert!(r.has_item(DataItem::PowerKw));
        assert_eq!(r.missing_count(), 16);
    }

    #[test]
    fn accelerator_flag() {
        let mut r = SystemRecord::bare(2, 1.0, 2.0);
        assert!(!r.has_accelerator());
        r.accelerator = Some("NVIDIA H100".into());
        assert!(r.has_accelerator());
    }

    #[test]
    fn clone_counter_counts_this_thread_only() {
        let r = SystemRecord::bare(1, 1.0, 2.0);
        let before = clones_on_thread();
        let _a = r.clone();
        let _b = r.clone();
        assert_eq!(clones_on_thread() - before, 2);
        // Clones on another thread leave this thread's counter untouched.
        let here = clones_on_thread();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _c = r.clone();
            });
        });
        assert_eq!(clones_on_thread(), here);
    }

    #[test]
    fn all_items_distinct() {
        let mut seen = std::collections::HashSet::new();
        for item in DataItem::ALL {
            assert!(seen.insert(item), "duplicate item {item:?}");
        }
        assert_eq!(seen.len(), 19);
    }
}
