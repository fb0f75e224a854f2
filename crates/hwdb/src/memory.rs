//! Embodied-carbon factors for memory and storage.
//!
//! Per-GB factors follow the ACT paper and vendor LCA disclosures: DRAM
//! embodied carbon scales with die count (≈ capacity), HBM pays a stacking
//! premium, NAND flash is cheaper per GB and dropping with layer count.

/// DRAM technology generations appearing in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryType {
    /// Registered DDR4.
    Ddr4,
    /// Registered DDR5.
    Ddr5,
    /// High-bandwidth memory (on-package stacks).
    Hbm2,
    /// HBM3-class stacks.
    Hbm3,
}

impl MemoryType {
    /// Embodied kgCO2e per GB of capacity.
    pub fn kg_per_gb(self) -> f64 {
        match self {
            MemoryType::Ddr4 => 0.29,
            MemoryType::Ddr5 => 0.34,
            MemoryType::Hbm2 => 0.62,
            MemoryType::Hbm3 => 0.74,
        }
    }

    /// Parses Top500-style memory-type strings.
    pub fn parse(text: &str) -> Option<MemoryType> {
        let lower = text.to_ascii_lowercase();
        if lower.contains("hbm3") {
            Some(MemoryType::Hbm3)
        } else if lower.contains("hbm") {
            Some(MemoryType::Hbm2)
        } else if lower.contains("ddr5") {
            Some(MemoryType::Ddr5)
        } else if lower.contains("ddr4") {
            Some(MemoryType::Ddr4)
        } else {
            None
        }
    }
}

/// Default DRAM factor when the type is unknown (DDR4/DDR5 midpoint).
pub const DEFAULT_DRAM_KG_PER_GB: f64 = 0.315;

/// Embodied kgCO2e per GB of datacenter NAND (TLC, current-gen).
pub(crate) const SSD_KG_PER_GB: f64 = 0.025;

/// Chassis, motherboard, PSU, cabling and cooling hardware per compute
/// node, kgCO2e (server-LCA manufacturing aggregate less silicon/DRAM).
pub const NODE_CHASSIS_KG: f64 = 600.0;

/// Per-node share of the interconnect fabric (switches, optics, cables).
pub const NODE_INTERCONNECT_KG: f64 = 150.0;

/// Per-node share of the site parallel filesystem when storage capacity is
/// undisclosed, GB (≈20 TB/node; the paper notes embodied carbon "is
/// heavily influenced by storage").
pub const DEFAULT_STORAGE_GB_PER_NODE: f64 = 20_000.0;

/// Default DRAM capacity prior per node when undisclosed, GB.
pub const DEFAULT_MEMORY_GB_PER_NODE: f64 = 512.0;

/// Embodied carbon of DRAM capacity, kgCO2e.
pub fn dram_embodied_kg(capacity_gb: f64, mem_type: Option<MemoryType>) -> f64 {
    if capacity_gb <= 0.0 {
        return 0.0;
    }
    capacity_gb * mem_type.map_or(DEFAULT_DRAM_KG_PER_GB, MemoryType::kg_per_gb)
}

/// Embodied carbon of SSD capacity, kgCO2e.
pub fn ssd_embodied_kg(capacity_gb: f64) -> f64 {
    if capacity_gb <= 0.0 {
        return 0.0;
    }
    capacity_gb * SSD_KG_PER_GB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm_costs_more_than_ddr() {
        assert!(MemoryType::Hbm3.kg_per_gb() > MemoryType::Ddr5.kg_per_gb());
        assert!(MemoryType::Hbm2.kg_per_gb() > MemoryType::Ddr4.kg_per_gb());
    }

    #[test]
    fn parse_variants() {
        assert_eq!(MemoryType::parse("DDR5-4800"), Some(MemoryType::Ddr5));
        assert_eq!(MemoryType::parse("HBM2e"), Some(MemoryType::Hbm2));
        assert_eq!(MemoryType::parse("HBM3"), Some(MemoryType::Hbm3));
        assert_eq!(MemoryType::parse("GDDR6"), None);
    }

    #[test]
    fn dram_uses_default_when_unknown() {
        let v = dram_embodied_kg(100.0, None);
        assert!((v - 31.5).abs() < 1e-9);
    }

    #[test]
    fn nonpositive_capacity_is_zero() {
        assert_eq!(dram_embodied_kg(0.0, Some(MemoryType::Ddr5)), 0.0);
        assert_eq!(ssd_embodied_kg(-5.0), 0.0);
    }

    #[test]
    fn ssd_cheaper_than_dram_per_gb() {
        let (ssd, dram) = (SSD_KG_PER_GB, DEFAULT_DRAM_KG_PER_GB);
        assert!(ssd < dram);
    }
}
