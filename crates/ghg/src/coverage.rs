//! GHG-protocol coverage over the Top 500 (the left bars of Figure 4).
//!
//! The protocol needs internal telemetry and bills of material; public data
//! can never satisfy the checklist. We map each [`SystemRecord`] to the
//! checklist metrics it could conceivably supply and count how many systems
//! clear the bar — reproducing the paper's finding: "few of the Top 500
//! systems report operational and NONE report embodied".

use crate::checklist::{EMBODIED_CHECKLIST, OPERATIONAL_CHECKLIST};
use top500::record::SystemRecord;

/// Can this system complete the operational checklist from its public
/// record? Only sites that disclose measured annual energy *and* have full
/// facility instrumentation (which we approximate as: utilisation also
/// public, a vanishingly rare disclosure) can.
pub(crate) fn operational_reportable(record: &SystemRecord) -> bool {
    // Metered facility energy is the irreplaceable item; the few systems
    // with both annual energy and utilisation disclosures are "open
    // science" sites with sustainability reports.
    record.annual_energy_mwh.is_some() && record.utilization.is_some()
}

/// Can this system complete the embodied checklist? The checklist needs
/// supplier factors, fab mixes and full BOMs, none of which are ever
/// public: the answer is always no.
pub(crate) fn embodied_reportable(_record: &SystemRecord) -> bool {
    // Supplier emission factors and fab-site mixes are contractual data.
    // No Top 500 system publishes them (paper §IV-A: "none of the systems
    // provided reporting under the GHG protocol").
    false
}

/// Coverage counts over a set of systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhgCoverage {
    /// Systems able to complete the operational checklist.
    pub operational: usize,
    /// Systems able to complete the embodied checklist.
    pub embodied: usize,
    /// Total systems examined.
    pub total: usize,
}

/// Computes GHG coverage over a list of records.
pub fn coverage(records: &[SystemRecord]) -> GhgCoverage {
    GhgCoverage {
        operational: records.iter().filter(|r| operational_reportable(r)).count(),
        embodied: records.iter().filter(|r| embodied_reportable(r)).count(),
        total: records.len(),
    }
}

/// Effort model: person-hours to complete one system's GHG inventory.
/// The paper estimates "perhaps weeks of effort"; we count one hour per
/// checklist metric plus a fixed audit overhead — landing at roughly two
/// working weeks.
pub fn effort_hours_per_system() -> f64 {
    (OPERATIONAL_CHECKLIST.len() + EMBODIED_CHECKLIST.len()) as f64 * 1.0 + 40.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

    #[test]
    fn bare_system_cannot_report() {
        let r = SystemRecord::bare(1, 100.0, 120.0);
        assert!(!operational_reportable(&r));
        assert!(!embodied_reportable(&r));
    }

    #[test]
    fn embodied_never_reportable() {
        let full = generate_full(&SyntheticConfig::default());
        let cov = coverage(full.systems());
        assert_eq!(cov.embodied, 0);
    }

    #[test]
    fn masked_list_has_near_zero_operational_coverage() {
        let full = generate_full(&SyntheticConfig::default());
        let baseline = mask_baseline(&full, &MaskRates::default(), 7);
        let cov = coverage(baseline.systems());
        // "few of the Top 500 systems report operational".
        assert!(cov.operational <= 5, "coverage {}", cov.operational);
        assert_eq!(cov.total, 500);
    }

    #[test]
    fn effort_is_weeks_not_hours() {
        let hours = effort_hours_per_system();
        assert!(hours > 80.0, "one working week is 40 h; got {hours}");
    }
}
