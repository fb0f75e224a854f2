//! ACT-style wafer-fab embodied-carbon factors.
//!
//! Following Gupta et al., "ACT: designing sustainable computer systems with
//! an architectural carbon modeling tool" (ISCA '22), the embodied carbon of
//! a die is
//!
//! ```text
//! C_die = area_cm2 × (CI_fab_energy + C_gas + C_materials) / yield
//! ```
//!
//! where `CI_fab_energy` depends on the fab's electricity mix and the energy
//! per wafer-layer of the process node, `C_gas` covers direct per-area GHG
//! emissions (PFCs etc.), and yield follows a defect-density model. We encode
//! the per-node aggregate factors published in the ACT paper's supplementary
//! data, normalised to kgCO2e per cm² of *good* die.

/// Semiconductor process nodes used across the Top 500 fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcessNode {
    /// 28 nm and older planar processes.
    N28,
    /// 16/14 nm FinFET class.
    N16,
    /// 10 nm class.
    N10,
    /// 7 nm class (EPYC Rome/Milan, A100, MI250).
    N7,
    /// 5 nm class (H100, MI300, Genoa).
    N5,
    /// 3 nm class (projection scenarios).
    N3,
}

impl ProcessNode {
    /// Fab energy + direct gas + materials carbon per cm² of *printed* die,
    /// in kgCO2e/cm², before yield. Values follow the ACT supplementary
    /// aggregates (TSMC-class fab on the Taiwanese grid): newer nodes use
    /// more EUV passes and more energy per wafer.
    pub(crate) fn gross_intensity_kg_per_cm2(self) -> f64 {
        match self {
            ProcessNode::N28 => 0.9,
            ProcessNode::N16 => 1.2,
            ProcessNode::N10 => 1.475,
            ProcessNode::N7 => 1.52,
            ProcessNode::N5 => 2.75,
            ProcessNode::N3 => 3.3,
        }
    }

    /// Defect density (defects/cm²) for the yield model; mature nodes are
    /// cleaner.
    pub(crate) fn defect_density_per_cm2(self) -> f64 {
        match self {
            ProcessNode::N28 => 0.05,
            ProcessNode::N16 => 0.07,
            ProcessNode::N10 => 0.09,
            ProcessNode::N7 => 0.10,
            ProcessNode::N5 => 0.12,
            ProcessNode::N3 => 0.15,
        }
    }
}

/// Poisson yield model: fraction of dies of `area_cm2` that are good.
pub(crate) fn poisson_yield(node: ProcessNode, area_cm2: f64) -> f64 {
    (-node.defect_density_per_cm2() * area_cm2).exp()
}

/// Embodied carbon of one *good* die of `area_cm2` on `node`, in kgCO2e.
///
/// Printed-die intensity divided by yield: bigger dies on leading nodes pay
/// super-linearly, which is exactly why accelerator-heavy systems dominate
/// embodied carbon in the paper's Figure 3b.
pub fn die_embodied_kg(node: ProcessNode, area_cm2: f64) -> f64 {
    if area_cm2 <= 0.0 {
        return 0.0;
    }
    let yield_fraction = poisson_yield(node, area_cm2);
    area_cm2 * node.gross_intensity_kg_per_cm2() / yield_fraction
}

/// Packaging overhead per die (substrate, bumping, test), kgCO2e. Advanced
/// packaging (CoWoS-class, used for HBM parts) costs more.
pub fn packaging_kg(advanced: bool) -> f64 {
    if advanced {
        2.5
    } else {
        0.45
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newer_nodes_are_more_carbon_intensive() {
        use ProcessNode::*;
        let mut last = 0.0;
        for node in [N28, N16, N10, N7, N5, N3] {
            let v = node.gross_intensity_kg_per_cm2();
            assert!(v > last, "{node:?} should exceed previous node");
            last = v;
        }
    }

    #[test]
    fn yield_decreases_with_area() {
        let small = poisson_yield(ProcessNode::N5, 1.0);
        let large = poisson_yield(ProcessNode::N5, 8.0);
        assert!(small > large);
        assert!((0.0..=1.0).contains(&small));
        assert!((0.0..=1.0).contains(&large));
    }

    #[test]
    fn die_embodied_superlinear_in_area() {
        // Twice the area must cost more than twice the carbon (yield loss).
        let one = die_embodied_kg(ProcessNode::N7, 2.0);
        let two = die_embodied_kg(ProcessNode::N7, 4.0);
        assert!(two > 2.0 * one);
    }

    #[test]
    fn zero_area_is_zero() {
        assert_eq!(die_embodied_kg(ProcessNode::N5, 0.0), 0.0);
        assert_eq!(die_embodied_kg(ProcessNode::N5, -1.0), 0.0);
    }

    #[test]
    fn h100_class_die_in_plausible_range() {
        // H100: ~814 mm² on N5. Expect tens of kgCO2e for the die alone.
        let kg = die_embodied_kg(ProcessNode::N5, 8.14);
        assert!(kg > 20.0 && kg < 80.0, "got {kg}");
    }

    #[test]
    fn advanced_packaging_costs_more() {
        assert!(packaging_kg(true) > packaging_kg(false));
    }
}
