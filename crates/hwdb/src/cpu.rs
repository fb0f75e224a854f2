//! CPU specification database.
//!
//! Entries cover the processor families that actually appear on the November
//! 2024 Top 500 list (EPYC generations, Xeon generations, POWER9, A64FX,
//! Sunway, Grace, SPARC64, ThunderX2, Hygon, Matrix-2000 hosts). Matching is
//! by case-insensitive substring over the Top500 "Processor" field, longest
//! pattern first, so "EPYC 9654" wins over "EPYC".

use crate::fab::ProcessNode;

/// Static description of a CPU model family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Substring pattern matched against the processor description.
    pub pattern: &'static str,
    /// Human-readable family name.
    pub family: &'static str,
    /// Cores per socket (typical SKU for the family).
    pub cores_per_socket: u32,
    /// Thermal design power per socket, watts.
    pub tdp_watts: f64,
    /// Die area per socket in cm² (sum of chiplets for MCM parts).
    pub die_area_cm2: f64,
    /// Process node of the compute dies.
    pub node: ProcessNode,
}

/// The CPU database. Longest/most-specific patterns first.
pub(crate) const CPUS: &[CpuSpec] = &[
    CpuSpec {
        pattern: "epyc 9754",
        family: "AMD EPYC Bergamo",
        cores_per_socket: 128,
        tdp_watts: 360.0,
        die_area_cm2: 8.7,
        node: ProcessNode::N5,
    },
    CpuSpec {
        pattern: "epyc 9654",
        family: "AMD EPYC Genoa",
        cores_per_socket: 96,
        tdp_watts: 360.0,
        die_area_cm2: 10.3,
        node: ProcessNode::N5,
    },
    CpuSpec {
        pattern: "epyc 9554",
        family: "AMD EPYC Genoa",
        cores_per_socket: 64,
        tdp_watts: 360.0,
        die_area_cm2: 8.5,
        node: ProcessNode::N5,
    },
    CpuSpec {
        pattern: "epyc 7763",
        family: "AMD EPYC Milan",
        cores_per_socket: 64,
        tdp_watts: 280.0,
        die_area_cm2: 7.4,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "epyc 7742",
        family: "AMD EPYC Rome",
        cores_per_socket: 64,
        tdp_watts: 225.0,
        die_area_cm2: 7.4,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "epyc 7713",
        family: "AMD EPYC Milan",
        cores_per_socket: 64,
        tdp_watts: 225.0,
        die_area_cm2: 7.4,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "epyc 7543",
        family: "AMD EPYC Milan",
        cores_per_socket: 32,
        tdp_watts: 225.0,
        die_area_cm2: 5.8,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "epyc 7a53",
        family: "AMD EPYC Trento",
        cores_per_socket: 64,
        tdp_watts: 225.0,
        die_area_cm2: 7.4,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "4th generation epyc",
        family: "AMD EPYC Genoa",
        cores_per_socket: 96,
        tdp_watts: 360.0,
        die_area_cm2: 10.3,
        node: ProcessNode::N5,
    },
    CpuSpec {
        pattern: "3rd generation epyc",
        family: "AMD EPYC Milan",
        cores_per_socket: 64,
        tdp_watts: 280.0,
        die_area_cm2: 7.4,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "epyc",
        family: "AMD EPYC (generic)",
        cores_per_socket: 64,
        tdp_watts: 280.0,
        die_area_cm2: 7.4,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "xeon platinum 8480",
        family: "Intel Sapphire Rapids",
        cores_per_socket: 56,
        tdp_watts: 350.0,
        die_area_cm2: 15.7,
        node: ProcessNode::N10,
    },
    CpuSpec {
        pattern: "xeon platinum 8470",
        family: "Intel Sapphire Rapids",
        cores_per_socket: 52,
        tdp_watts: 350.0,
        die_area_cm2: 15.7,
        node: ProcessNode::N10,
    },
    CpuSpec {
        pattern: "xeon platinum 8380",
        family: "Intel Ice Lake",
        cores_per_socket: 40,
        tdp_watts: 270.0,
        die_area_cm2: 6.6,
        node: ProcessNode::N10,
    },
    CpuSpec {
        pattern: "xeon platinum 8368",
        family: "Intel Ice Lake",
        cores_per_socket: 38,
        tdp_watts: 270.0,
        die_area_cm2: 6.6,
        node: ProcessNode::N10,
    },
    CpuSpec {
        pattern: "xeon platinum 8280",
        family: "Intel Cascade Lake",
        cores_per_socket: 28,
        tdp_watts: 205.0,
        die_area_cm2: 6.9,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "xeon platinum 8168",
        family: "Intel Skylake-SP",
        cores_per_socket: 24,
        tdp_watts: 205.0,
        die_area_cm2: 6.9,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "xeon max 9470",
        family: "Intel Sapphire Rapids HBM",
        cores_per_socket: 52,
        tdp_watts: 350.0,
        die_area_cm2: 15.7,
        node: ProcessNode::N10,
    },
    CpuSpec {
        pattern: "xeon cpu max",
        family: "Intel Sapphire Rapids HBM",
        cores_per_socket: 52,
        tdp_watts: 350.0,
        die_area_cm2: 15.7,
        node: ProcessNode::N10,
    },
    CpuSpec {
        pattern: "xeon gold 63",
        family: "Intel Ice Lake Gold",
        cores_per_socket: 32,
        tdp_watts: 205.0,
        die_area_cm2: 6.6,
        node: ProcessNode::N10,
    },
    CpuSpec {
        pattern: "xeon gold 62",
        family: "Intel Cascade Lake Gold",
        cores_per_socket: 24,
        tdp_watts: 150.0,
        die_area_cm2: 6.9,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "xeon gold",
        family: "Intel Xeon Gold (generic)",
        cores_per_socket: 28,
        tdp_watts: 205.0,
        die_area_cm2: 6.9,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "xeon",
        family: "Intel Xeon (generic)",
        cores_per_socket: 32,
        tdp_watts: 250.0,
        die_area_cm2: 7.0,
        node: ProcessNode::N10,
    },
    CpuSpec {
        pattern: "a64fx",
        family: "Fujitsu A64FX",
        cores_per_socket: 48,
        tdp_watts: 160.0,
        die_area_cm2: 4.0,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "power9",
        family: "IBM POWER9",
        cores_per_socket: 22,
        tdp_watts: 250.0,
        die_area_cm2: 6.9,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "sw26010",
        family: "Sunway SW26010",
        cores_per_socket: 260,
        tdp_watts: 300.0,
        die_area_cm2: 5.0,
        node: ProcessNode::N28,
    },
    CpuSpec {
        pattern: "grace",
        family: "NVIDIA Grace",
        cores_per_socket: 72,
        tdp_watts: 250.0,
        die_area_cm2: 5.5,
        node: ProcessNode::N5,
    },
    CpuSpec {
        pattern: "sparc64",
        family: "Fujitsu SPARC64",
        cores_per_socket: 32,
        tdp_watts: 160.0,
        die_area_cm2: 4.9,
        node: ProcessNode::N28,
    },
    CpuSpec {
        pattern: "thunderx2",
        family: "Marvell ThunderX2",
        cores_per_socket: 32,
        tdp_watts: 180.0,
        die_area_cm2: 4.5,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "hygon",
        family: "Hygon Dhyana",
        cores_per_socket: 32,
        tdp_watts: 200.0,
        die_area_cm2: 4.5,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "matrix-2000",
        family: "NUDT Matrix-2000 host",
        cores_per_socket: 12,
        tdp_watts: 240.0,
        die_area_cm2: 6.0,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "epyc 9965",
        family: "AMD EPYC Turin Dense",
        cores_per_socket: 192,
        tdp_watts: 500.0,
        die_area_cm2: 11.0,
        node: ProcessNode::N3,
    },
    CpuSpec {
        pattern: "epyc 9755",
        family: "AMD EPYC Turin",
        cores_per_socket: 128,
        tdp_watts: 500.0,
        die_area_cm2: 11.5,
        node: ProcessNode::N3,
    },
    CpuSpec {
        pattern: "epyc 7h12",
        family: "AMD EPYC Rome HPC",
        cores_per_socket: 64,
        tdp_watts: 280.0,
        die_area_cm2: 7.4,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "epyc 7402",
        family: "AMD EPYC Rome",
        cores_per_socket: 24,
        tdp_watts: 180.0,
        die_area_cm2: 5.0,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "xeon 6980p",
        family: "Intel Granite Rapids",
        cores_per_socket: 128,
        tdp_watts: 500.0,
        die_area_cm2: 17.0,
        node: ProcessNode::N5,
    },
    CpuSpec {
        pattern: "xeon platinum 9242",
        family: "Intel Cascade Lake-AP",
        cores_per_socket: 48,
        tdp_watts: 350.0,
        die_area_cm2: 13.8,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "e5-2690",
        family: "Intel Xeon Broadwell/Haswell",
        cores_per_socket: 14,
        tdp_watts: 135.0,
        die_area_cm2: 4.6,
        node: ProcessNode::N28,
    },
    CpuSpec {
        pattern: "e5-2680",
        family: "Intel Xeon Broadwell/Haswell",
        cores_per_socket: 14,
        tdp_watts: 120.0,
        die_area_cm2: 4.6,
        node: ProcessNode::N28,
    },
    CpuSpec {
        pattern: "xeon phi",
        family: "Intel Xeon Phi (KNL)",
        cores_per_socket: 68,
        tdp_watts: 215.0,
        die_area_cm2: 6.8,
        node: ProcessNode::N16,
    },
    CpuSpec {
        pattern: "power10",
        family: "IBM POWER10",
        cores_per_socket: 15,
        tdp_watts: 250.0,
        die_area_cm2: 6.0,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "kunpeng",
        family: "Huawei Kunpeng 920",
        cores_per_socket: 64,
        tdp_watts: 180.0,
        die_area_cm2: 4.6,
        node: ProcessNode::N7,
    },
    CpuSpec {
        pattern: "ft-2000",
        family: "Phytium FT-2000+",
        cores_per_socket: 64,
        tdp_watts: 100.0,
        die_area_cm2: 4.0,
        node: ProcessNode::N16,
    },
];

/// Generic prior used when no pattern matches: a mid-range 64-core server
/// part on N7. The paper's EasyC similarly falls back to mainstream parts.
pub const GENERIC_CPU: CpuSpec = CpuSpec {
    pattern: "",
    family: "generic server CPU",
    cores_per_socket: 64,
    tdp_watts: 250.0,
    die_area_cm2: 7.0,
    node: ProcessNode::N7,
};

/// Looks up a CPU spec by substring match (case-insensitive), preferring
/// the longest matching pattern so `"EPYC 9654"` beats the generic
/// `"epyc"` regardless of table order. Returns `None` when nothing
/// matches — callers decide whether to use [`GENERIC_CPU`] (and record
/// that a fallback happened).
pub(crate) fn lookup(description: &str) -> Option<&'static CpuSpec> {
    let lower = description.to_ascii_lowercase();
    CPUS.iter()
        .filter(|spec| lower.contains(spec.pattern))
        .max_by_key(|spec| spec.pattern.len())
}

/// Lookup with generic fallback; the boolean reports whether the fallback
/// was used (feeds the paper's "novel device" sensitivity discussion).
pub fn lookup_or_generic(description: &str) -> (&'static CpuSpec, bool) {
    match lookup(description) {
        Some(spec) => (spec, false),
        None => (&GENERIC_CPU, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specific_beats_generic_epyc() {
        let spec = lookup("AMD Optimized 3rd Generation EPYC 64C 2GHz").unwrap();
        assert_eq!(spec.family, "AMD EPYC Milan");
    }

    #[test]
    fn sku_number_matches() {
        let spec = lookup("AMD EPYC 9654 96C 2.4GHz").unwrap();
        assert_eq!(spec.cores_per_socket, 96);
    }

    #[test]
    fn case_insensitive() {
        assert!(lookup("XEON PLATINUM 8480C").is_some());
    }

    #[test]
    fn a64fx_is_known() {
        let spec = lookup("Fujitsu A64FX 48C 2.2GHz").unwrap();
        assert_eq!(spec.family, "Fujitsu A64FX");
    }

    #[test]
    fn unknown_returns_none() {
        assert!(lookup("Quantum FooChip 9000").is_none());
    }

    #[test]
    fn fallback_flags_generic() {
        let (spec, fell_back) = lookup_or_generic("Quantum FooChip 9000");
        assert!(fell_back);
        assert_eq!(spec.family, "generic server CPU");
        let (_, fell_back) = lookup_or_generic("EPYC 7763");
        assert!(!fell_back);
    }

    #[test]
    fn all_specs_have_positive_fields() {
        for spec in CPUS {
            assert!(spec.cores_per_socket > 0, "{}", spec.family);
            assert!(spec.tdp_watts > 0.0, "{}", spec.family);
            assert!(spec.die_area_cm2 > 0.0, "{}", spec.family);
        }
    }

    #[test]
    fn generic_xeon_is_last_resort_for_xeon_strings() {
        let spec = lookup("Intel Xeon D-1520").unwrap();
        assert_eq!(spec.family, "Intel Xeon (generic)");
    }

    #[test]
    fn longest_pattern_wins_regardless_of_table_order() {
        // "xeon 6980p" appears after the generic "xeon" entry in the table;
        // the longest-match rule must still select it.
        let spec = lookup("Intel Xeon 6980P 128C 2GHz").unwrap();
        assert_eq!(spec.family, "Intel Granite Rapids");
        let spec = lookup("Intel Xeon E5-2690v4 14C 2.6GHz").unwrap();
        assert_eq!(spec.family, "Intel Xeon Broadwell/Haswell");
        let spec = lookup("AMD EPYC 9755 128C 2.7GHz").unwrap();
        assert_eq!(spec.family, "AMD EPYC Turin");
    }

    #[test]
    fn late_additions_resolve() {
        for (text, family) in [
            ("Intel Xeon Phi 7250 68C 1.4GHz", "Intel Xeon Phi (KNL)"),
            ("IBM POWER10 15C 3.8GHz", "IBM POWER10"),
            ("Huawei Kunpeng 920 64C 2.6GHz", "Huawei Kunpeng 920"),
            ("Phytium FT-2000+ 64C 2.2GHz", "Phytium FT-2000+"),
        ] {
            assert_eq!(lookup(text).unwrap().family, family, "{text}");
        }
    }
}
