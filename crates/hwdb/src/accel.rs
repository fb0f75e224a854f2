//! Accelerator (GPU / manycore) specification database.
//!
//! The paper's embodied-carbon coverage problem is accelerator diversity:
//! "top systems today make heavy use of an increasingly diverse set of
//! accelerators … Top500.org does not capture adequate accelerator
//! information." This table covers the families on the Nov 2024 list; the
//! [`lookup_or_mainstream`] fallback reproduces the paper's documented
//! behaviour of approximating novel accelerators with mainstream GPUs
//! (producing systematic underestimates of silicon size).

use crate::fab::ProcessNode;

/// Accelerator vendor, used for efficiency priors and fleet statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelVendor {
    /// NVIDIA GPUs.
    Nvidia,
    /// AMD Instinct GPUs / APUs.
    Amd,
    /// Intel Xe / Ponte Vecchio.
    Intel,
    /// Chinese manycore accelerators (Matrix-2000, SW slave cores).
    DomesticCn,
    /// Vector engines (NEC SX-Aurora).
    Nec,
    /// PEZY and other specialist parts.
    Other,
}

/// Static description of an accelerator model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelSpec {
    /// Substring pattern matched against the accelerator description.
    pub pattern: &'static str,
    /// Human-readable model name.
    pub model: &'static str,
    /// Vendor.
    pub vendor: AccelVendor,
    /// Board TDP in watts.
    pub tdp_watts: f64,
    /// Compute die area in cm² (sum over chiplets).
    pub die_area_cm2: f64,
    /// On-package HBM capacity in GB.
    pub hbm_gb: f64,
    /// Process node of the compute dies.
    pub node: ProcessNode,
    /// FP64 peak GFlops per watt (for the Rmax power fallback).
    pub gflops_per_watt: f64,
}

/// Accelerator database; most-specific patterns first.
// The A40's real die area happens to round to 6.28 cm^2; it is data, not
// an approximation of a mathematical constant.
#[allow(clippy::approx_constant)]
pub(crate) const ACCELS: &[AccelSpec] = &[
    AccelSpec {
        pattern: "gh200",
        model: "NVIDIA GH200",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 900.0,
        die_area_cm2: 8.14 + 5.5,
        hbm_gb: 96.0,
        node: ProcessNode::N5,
        gflops_per_watt: 50.0,
    },
    AccelSpec {
        pattern: "h100",
        model: "NVIDIA H100",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 700.0,
        die_area_cm2: 8.14,
        hbm_gb: 80.0,
        node: ProcessNode::N5,
        gflops_per_watt: 48.0,
    },
    AccelSpec {
        pattern: "h200",
        model: "NVIDIA H200",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 700.0,
        die_area_cm2: 8.14,
        hbm_gb: 141.0,
        node: ProcessNode::N5,
        gflops_per_watt: 48.0,
    },
    AccelSpec {
        pattern: "a100",
        model: "NVIDIA A100",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 400.0,
        die_area_cm2: 8.26,
        hbm_gb: 40.0,
        node: ProcessNode::N7,
        gflops_per_watt: 24.0,
    },
    AccelSpec {
        pattern: "v100",
        model: "NVIDIA V100",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 300.0,
        die_area_cm2: 8.15,
        hbm_gb: 16.0,
        node: ProcessNode::N16,
        gflops_per_watt: 23.0,
    },
    AccelSpec {
        pattern: "p100",
        model: "NVIDIA P100",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 300.0,
        die_area_cm2: 6.1,
        hbm_gb: 16.0,
        node: ProcessNode::N16,
        gflops_per_watt: 15.0,
    },
    AccelSpec {
        pattern: "b200",
        model: "NVIDIA B200",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 1000.0,
        die_area_cm2: 16.0,
        hbm_gb: 192.0,
        node: ProcessNode::N3,
        gflops_per_watt: 60.0,
    },
    AccelSpec {
        pattern: "mi300a",
        model: "AMD Instinct MI300A",
        vendor: AccelVendor::Amd,
        tdp_watts: 760.0,
        die_area_cm2: 10.2,
        hbm_gb: 128.0,
        node: ProcessNode::N5,
        gflops_per_watt: 80.0,
    },
    AccelSpec {
        pattern: "mi300x",
        model: "AMD Instinct MI300X",
        vendor: AccelVendor::Amd,
        tdp_watts: 750.0,
        die_area_cm2: 10.2,
        hbm_gb: 192.0,
        node: ProcessNode::N5,
        gflops_per_watt: 80.0,
    },
    AccelSpec {
        pattern: "mi250x",
        model: "AMD Instinct MI250X",
        vendor: AccelVendor::Amd,
        tdp_watts: 560.0,
        die_area_cm2: 14.5,
        hbm_gb: 128.0,
        node: ProcessNode::N7,
        gflops_per_watt: 85.0,
    },
    AccelSpec {
        pattern: "mi250",
        model: "AMD Instinct MI250",
        vendor: AccelVendor::Amd,
        tdp_watts: 560.0,
        die_area_cm2: 14.5,
        hbm_gb: 128.0,
        node: ProcessNode::N7,
        gflops_per_watt: 80.0,
    },
    AccelSpec {
        pattern: "mi210",
        model: "AMD Instinct MI210",
        vendor: AccelVendor::Amd,
        tdp_watts: 300.0,
        die_area_cm2: 7.2,
        hbm_gb: 64.0,
        node: ProcessNode::N7,
        gflops_per_watt: 75.0,
    },
    AccelSpec {
        pattern: "max 1550",
        model: "Intel Data Center GPU Max 1550",
        vendor: AccelVendor::Intel,
        tdp_watts: 600.0,
        die_area_cm2: 12.8,
        hbm_gb: 128.0,
        node: ProcessNode::N7,
        gflops_per_watt: 87.0,
    },
    AccelSpec {
        pattern: "ponte vecchio",
        model: "Intel Ponte Vecchio",
        vendor: AccelVendor::Intel,
        tdp_watts: 600.0,
        die_area_cm2: 12.8,
        hbm_gb: 128.0,
        node: ProcessNode::N7,
        gflops_per_watt: 87.0,
    },
    AccelSpec {
        pattern: "sx-aurora",
        model: "NEC SX-Aurora TSUBASA",
        vendor: AccelVendor::Nec,
        tdp_watts: 300.0,
        die_area_cm2: 5.0,
        hbm_gb: 48.0,
        node: ProcessNode::N16,
        gflops_per_watt: 16.0,
    },
    AccelSpec {
        pattern: "matrix-2000",
        model: "NUDT Matrix-2000",
        vendor: AccelVendor::DomesticCn,
        tdp_watts: 240.0,
        die_area_cm2: 6.0,
        hbm_gb: 0.0,
        node: ProcessNode::N16,
        gflops_per_watt: 10.0,
    },
    AccelSpec {
        pattern: "deep computing processor",
        model: "Sugon DCU",
        vendor: AccelVendor::DomesticCn,
        tdp_watts: 300.0,
        die_area_cm2: 6.0,
        hbm_gb: 16.0,
        node: ProcessNode::N7,
        gflops_per_watt: 25.0,
    },
    AccelSpec {
        pattern: "gb200",
        model: "NVIDIA GB200",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 1200.0,
        die_area_cm2: 16.0 + 5.5,
        hbm_gb: 192.0,
        node: ProcessNode::N3,
        gflops_per_watt: 67.0,
    },
    AccelSpec {
        pattern: "a40",
        model: "NVIDIA A40",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 300.0,
        die_area_cm2: 6.28,
        hbm_gb: 48.0,
        node: ProcessNode::N7,
        gflops_per_watt: 2.0,
    },
    AccelSpec {
        pattern: "a30",
        model: "NVIDIA A30",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 165.0,
        die_area_cm2: 8.26,
        hbm_gb: 24.0,
        node: ProcessNode::N7,
        gflops_per_watt: 31.0,
    },
    AccelSpec {
        pattern: "t4",
        model: "NVIDIA T4",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 70.0,
        die_area_cm2: 5.45,
        hbm_gb: 16.0,
        node: ProcessNode::N16,
        gflops_per_watt: 4.0,
    },
    AccelSpec {
        pattern: "k80",
        model: "NVIDIA K80",
        vendor: AccelVendor::Nvidia,
        tdp_watts: 300.0,
        die_area_cm2: 11.0,
        hbm_gb: 24.0,
        node: ProcessNode::N28,
        gflops_per_watt: 6.2,
    },
    AccelSpec {
        pattern: "mi100",
        model: "AMD Instinct MI100",
        vendor: AccelVendor::Amd,
        tdp_watts: 300.0,
        die_area_cm2: 7.5,
        hbm_gb: 32.0,
        node: ProcessNode::N7,
        gflops_per_watt: 38.0,
    },
    AccelSpec {
        pattern: "mi60",
        model: "AMD Radeon Instinct MI60",
        vendor: AccelVendor::Amd,
        tdp_watts: 300.0,
        die_area_cm2: 3.31,
        hbm_gb: 32.0,
        node: ProcessNode::N7,
        gflops_per_watt: 24.0,
    },
    AccelSpec {
        pattern: "mi325x",
        model: "AMD Instinct MI325X",
        vendor: AccelVendor::Amd,
        tdp_watts: 1000.0,
        die_area_cm2: 10.2,
        hbm_gb: 256.0,
        node: ProcessNode::N5,
        gflops_per_watt: 82.0,
    },
    AccelSpec {
        pattern: "pezy-sc3",
        model: "PEZY-SC3",
        vendor: AccelVendor::Other,
        tdp_watts: 470.0,
        die_area_cm2: 7.86,
        hbm_gb: 32.0,
        node: ProcessNode::N7,
        gflops_per_watt: 42.0,
    },
];

/// Mainstream approximation used for unrecognised accelerators: an A100.
///
/// Deliberately mid-generation: the paper reports that approximating novel
/// accelerators with mainstream GPUs "produces systematic underestimates of
/// silicon size", which this fallback reproduces for MI300A-class parts.
pub const MAINSTREAM_FALLBACK: AccelSpec = AccelSpec {
    pattern: "",
    model: "mainstream GPU approximation (A100-class)",
    vendor: AccelVendor::Other,
    tdp_watts: 400.0,
    die_area_cm2: 8.26,
    hbm_gb: 40.0,
    node: ProcessNode::N7,
    gflops_per_watt: 24.0,
};

/// Coarse family labels that identify a vendor but not the silicon — the
/// form top500.org often reports. These cannot anchor an embodied estimate.
pub(crate) const GENERIC_LABELS: &[&str] = &[
    "nvidia gpu",
    "amd gpu",
    "intel gpu",
    "nvidia tesla gpu",
    "gpu",
    "accelerator",
    "co-processor",
    "many-core accelerator",
];

/// True when the description is a coarse family label rather than a model.
pub fn is_generic_label(description: &str) -> bool {
    let lower = description.trim().to_ascii_lowercase();
    GENERIC_LABELS.iter().any(|l| lower == *l)
}

/// Substring lookup (case-insensitive), preferring the longest matching
/// pattern; `None` when unknown.
pub fn lookup(description: &str) -> Option<&'static AccelSpec> {
    let lower = description.to_ascii_lowercase();
    ACCELS
        .iter()
        .filter(|spec| lower.contains(spec.pattern))
        .max_by_key(|spec| spec.pattern.len())
}

/// Lookup with mainstream fallback; the boolean reports fallback use.
pub fn lookup_or_mainstream(description: &str) -> (&'static AccelSpec, bool) {
    match lookup(description) {
        Some(spec) => (spec, false),
        None => (&MAINSTREAM_FALLBACK, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi300a_found() {
        let spec = lookup("AMD Instinct MI300A").unwrap();
        assert_eq!(spec.vendor, AccelVendor::Amd);
        assert_eq!(spec.hbm_gb, 128.0);
    }

    #[test]
    fn gh200_beats_h100_pattern() {
        let spec = lookup("NVIDIA GH200 Superchip").unwrap();
        assert_eq!(spec.model, "NVIDIA GH200");
    }

    #[test]
    fn h100_sxm_variants_match() {
        assert_eq!(
            lookup("NVIDIA H100 SXM5 64GB").unwrap().model,
            "NVIDIA H100"
        );
        assert_eq!(
            lookup("nvidia h100 80gb pcie").unwrap().model,
            "NVIDIA H100"
        );
    }

    #[test]
    fn novel_accelerator_falls_back_to_mainstream() {
        let (spec, fell_back) = lookup_or_mainstream("PEZY-SC4s");
        assert!(fell_back);
        assert_eq!(spec.model, MAINSTREAM_FALLBACK.model);
    }

    #[test]
    fn fallback_underestimates_mi300a_silicon() {
        // The documented failure mode: fallback die area < MI300A die area.
        let mi300a = lookup("MI300A").unwrap();
        assert!(MAINSTREAM_FALLBACK.die_area_cm2 < mi300a.die_area_cm2);
        assert!(MAINSTREAM_FALLBACK.hbm_gb < mi300a.hbm_gb);
    }

    #[test]
    fn generic_labels_detected() {
        assert!(is_generic_label("NVIDIA GPU"));
        assert!(is_generic_label("  gpu "));
        assert!(!is_generic_label("NVIDIA H100"));
        assert!(!is_generic_label("Custom AI Accelerator X1"));
    }

    #[test]
    fn generic_labels_do_not_resolve() {
        for label in GENERIC_LABELS {
            assert!(
                lookup(label).is_none(),
                "{label} should not resolve to silicon"
            );
        }
    }

    #[test]
    fn all_specs_positive() {
        for spec in ACCELS {
            assert!(spec.tdp_watts > 0.0, "{}", spec.model);
            assert!(spec.die_area_cm2 > 0.0, "{}", spec.model);
            assert!(spec.gflops_per_watt > 0.0, "{}", spec.model);
        }
    }

    #[test]
    fn longest_pattern_beats_short_overlaps() {
        // "mi325x" must not be hijacked by shorter overlapping patterns.
        assert_eq!(
            lookup("AMD Instinct MI325X").unwrap().model,
            "AMD Instinct MI325X"
        );
        assert_eq!(lookup("NVIDIA GB200 NVL72").unwrap().model, "NVIDIA GB200");
        assert_eq!(lookup("NVIDIA Tesla K80").unwrap().model, "NVIDIA K80");
        assert_eq!(lookup("PEZY-SC3 custom").unwrap().model, "PEZY-SC3");
    }

    #[test]
    fn intel_max_found_by_either_name() {
        let by_sku = lookup("Intel Data Center GPU Max 1550").unwrap();
        let by_codename = lookup("Intel Ponte Vecchio GPU").unwrap();
        assert_eq!(by_sku.die_area_cm2, by_codename.die_area_cm2);
        assert_eq!(by_sku.vendor, by_codename.vendor);
    }
}
