//! Coverage: which systems can EasyC estimate under a given data scenario?
//!
//! Coverage is defined *by construction*: a system is covered exactly when
//! the corresponding estimator returns `Ok`. That keeps the coverage
//! figures and the carbon figures consistent — there is no separate
//! predicate to drift out of sync with the model.

use crate::embodied;
use crate::metrics::SevenMetrics;
use crate::operational;
use top500::list::Top500List;
use top500::record::SystemRecord;

/// The data-input scenarios of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Only data available on top500.org.
    Baseline,
    /// top500.org plus other public information.
    BaselinePlusPublic,
}

impl Scenario {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Baseline => "EasyC (top500.org)",
            Scenario::BaselinePlusPublic => "EasyC (+ public info)",
        }
    }
}

/// True when the operational estimator succeeds on this record.
pub(crate) fn can_estimate_operational(record: &SystemRecord) -> bool {
    let metrics = SevenMetrics::extract(record);
    operational::estimate(record, &metrics).is_ok()
}

/// True when the embodied estimator succeeds on this record.
pub(crate) fn can_estimate_embodied(record: &SystemRecord) -> bool {
    let metrics = SevenMetrics::extract(record);
    embodied::estimate(record, &metrics).is_ok()
}

/// Coverage counts over a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageReport {
    /// Systems with an operational estimate.
    pub operational: usize,
    /// Systems with an embodied estimate.
    pub embodied: usize,
    /// Systems examined.
    pub total: usize,
}

impl CoverageReport {
    /// Coverage counts from already-computed footprints. Because coverage
    /// is defined as "the estimator returned `Ok`", counting footprints is
    /// exactly equivalent to re-running the estimators — and free.
    pub fn from_footprints(footprints: &[crate::estimator::SystemFootprint]) -> CoverageReport {
        CoverageReport {
            operational: footprints.iter().filter(|f| f.operational.is_ok()).count(),
            embodied: footprints.iter().filter(|f| f.embodied.is_ok()).count(),
            total: footprints.len(),
        }
    }

    /// Embodied coverage as a fraction.
    pub fn embodied_fraction(&self) -> f64 {
        self.embodied as f64 / self.total.max(1) as f64
    }
}

/// Computes coverage over a list.
pub fn coverage(list: &Top500List) -> CoverageReport {
    CoverageReport {
        operational: list
            .systems()
            .iter()
            .filter(|s| can_estimate_operational(s))
            .count(),
        embodied: list
            .systems()
            .iter()
            .filter(|s| can_estimate_embodied(s))
            .count(),
        total: list.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use top500::enrich::{enrich, RevealRates};
    use top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

    fn lists() -> (Top500List, Top500List, Top500List) {
        let full = generate_full(&SyntheticConfig::default());
        let baseline = mask_baseline(&full, &MaskRates::default(), 7);
        let enriched = enrich(&baseline, &full, &RevealRates::default(), 7);
        (full, baseline, enriched)
    }

    #[test]
    fn full_data_is_fully_covered() {
        let (full, _, _) = lists();
        let cov = coverage(&full);
        assert_eq!(cov.operational, 500);
        assert_eq!(cov.embodied, 500);
    }

    #[test]
    fn baseline_coverage_matches_paper_shape() {
        let (_, baseline, _) = lists();
        let cov = coverage(&baseline);
        // Paper: 391/500 operational (78 %), 283/500 embodied (56.6 %).
        // The synthetic calibration must land in the same regime.
        assert!(
            (0.68..=0.88).contains(&(cov.operational as f64 / cov.total as f64)),
            "operational {}",
            cov.operational
        );
        assert!(
            (0.45..=0.70).contains(&cov.embodied_fraction()),
            "embodied {}",
            cov.embodied
        );
        // Embodied is the harder problem, as in the paper.
        assert!(cov.embodied < cov.operational);
    }

    #[test]
    fn enrichment_improves_coverage() {
        let (_, baseline, enriched) = lists();
        let before = coverage(&baseline);
        let after = coverage(&enriched);
        assert!(after.operational > before.operational);
        assert!(after.embodied > before.embodied);
        // Paper: 98 % operational, 80.8 % embodied after enrichment.
        assert!(
            after.operational as f64 / after.total as f64 > 0.90,
            "op {}",
            after.operational
        );
        assert!(
            (0.70..=0.95).contains(&after.embodied_fraction()),
            "emb {}",
            after.embodied
        );
    }

    #[test]
    fn coverage_consistent_with_estimators() {
        let (_, baseline, _) = lists();
        let cov = coverage(&baseline);
        let manual_op = baseline
            .systems()
            .iter()
            .filter(|s| {
                let m = SevenMetrics::extract(s);
                operational::estimate(s, &m).is_ok()
            })
            .count();
        assert_eq!(cov.operational, manual_op);
    }

    #[test]
    fn scenario_labels() {
        assert!(Scenario::Baseline.label().contains("top500.org"));
        assert!(Scenario::BaselinePlusPublic.label().contains("public"));
    }
}
