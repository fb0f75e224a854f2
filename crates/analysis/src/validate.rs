//! Shape validation: does the synthetic pipeline produce a fleet whose
//! carbon *distribution* looks like the paper's?
//!
//! Absolute totals differ (our power priors vs the authors' scraped data);
//! what must match is the distributional shape — heavy-tailed, top-ranked
//! systems dominating, concentration similar. We compare in log space with
//! the Kolmogorov–Smirnov distance and the Gini coefficient.

use crate::pipeline::StudyPipeline;
use frame::stats::{gini, ks_statistic};

/// KS distance between the log-scaled, median-centred positive values of
/// two carbon series (so only the *shape* matters, not the scale), and the
/// absolute gap between their Gini coefficients.
fn compare_shapes(reference: &[f64], pipeline: &[f64]) -> (f64, f64) {
    let log_centered = |values: &[f64]| -> Vec<f64> {
        let logs: Vec<f64> = values
            .iter()
            .copied()
            .filter(|v| *v > 0.0)
            .map(f64::ln)
            .collect();
        let median = frame::stats::median(&logs).unwrap();
        logs.iter().map(|v| v - median).collect()
    };
    let ks = ks_statistic(&log_centered(reference), &log_centered(pipeline)).unwrap();
    let gini_gap = (gini(reference).unwrap() - gini(pipeline).unwrap()).abs();
    (ks, gini_gap)
}

fn reference_operational() -> Vec<f64> {
    top500::appendix::load()
        .iter()
        .filter_map(|r| r.operational.interpolated)
        .collect()
}

fn reference_embodied() -> Vec<f64> {
    top500::appendix::load()
        .iter()
        .filter_map(|r| r.embodied.interpolated)
        .collect()
}

#[test]
fn pipeline_operational_shape_close_to_paper() {
    let out = StudyPipeline::new(500, 0x5EED_CAFE).run();
    let (ks, gini_gap) = compare_shapes(&reference_operational(), &out.operational_interpolated);
    // Same heavy-tail family: KS below 0.45 in log space, concentration
    // within 0.25. (Identical data would be 0; unrelated distributions
    // typically exceed 0.6.)
    assert!(ks < 0.45, "KS {ks}");
    assert!(gini_gap < 0.25, "gini gap {gini_gap}");
}

#[test]
fn pipeline_embodied_shape_close_to_paper() {
    let out = StudyPipeline::new(500, 0x5EED_CAFE).run();
    let (ks, gini_gap) = compare_shapes(&reference_embodied(), &out.embodied_interpolated);
    assert!(ks < 0.5, "KS {ks}");
    assert!(gini_gap < 0.3, "gini gap {gini_gap}");
}

#[test]
fn reference_is_heavy_tailed() {
    // The paper's fleet concentrates carbon in few systems.
    let g = gini(&reference_operational()).unwrap();
    assert!(g > 0.4, "reference gini {g}");
}
