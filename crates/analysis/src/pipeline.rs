//! End-to-end study pipeline over the synthetic Top 500.
//!
//! Mirrors the paper's §IV workflow: generate the list → apply top500.org
//! missingness → run EasyC (Baseline) → add public info → run EasyC again
//! (+PublicInfo) → interpolate the remainder → aggregate.
//!
//! Both scenario runs go through the unified [`easyc::Assessment`] session;
//! coverage and totals are read off the session output instead of
//! re-running every estimator a second time.

use crate::aggregate::Aggregate;
use crate::fleet::summarize;
use crate::interpolate::{interpolate_with_summary, InterpolationSummary};
use easyc::{Assessment, CoverageReport, DataScenario, Scenario, SystemFootprint};
use top500::enrich::{enrich, RevealRates};
use top500::list::Top500List;
use top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StudyPipeline {
    /// Synthetic list parameters.
    pub synthetic: SyntheticConfig,
}

/// One data scenario's results.
#[derive(Debug, Clone)]
pub struct ScenarioResults {
    /// Per-system footprints (rank order).
    pub footprints: Vec<SystemFootprint>,
    /// Coverage counts.
    pub coverage: CoverageReport,
    /// Operational aggregate over covered systems.
    pub operational: Aggregate,
    /// Embodied aggregate over covered systems.
    pub embodied: Aggregate,
}

/// Everything the study computes.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Ground-truth list (no missingness).
    pub full: Top500List,
    /// Baseline (top500.org) list.
    pub baseline: Top500List,
    /// Enriched (+public info) list.
    pub enriched: Top500List,
    /// Results under the baseline scenario.
    pub baseline_results: ScenarioResults,
    /// Results under the enriched scenario.
    pub enriched_results: ScenarioResults,
    /// Interpolated full operational series, MT CO2e (rank order).
    pub operational_interpolated: Vec<f64>,
    /// Interpolated full embodied series, MT CO2e.
    pub embodied_interpolated: Vec<f64>,
    /// Operational interpolation summary.
    pub operational_summary: InterpolationSummary,
    /// Embodied interpolation summary.
    pub embodied_summary: InterpolationSummary,
}

impl StudyPipeline {
    /// Pipeline over `n` synthetic systems with the given seed.
    pub fn new(n: u32, seed: u64) -> StudyPipeline {
        StudyPipeline {
            synthetic: SyntheticConfig {
                n,
                seed,
                ..SyntheticConfig::default()
            },
        }
    }

    /// Runs the full study.
    pub fn run(&self) -> PipelineOutput {
        let full = generate_full(&self.synthetic);
        let baseline = mask_baseline(&full, &MaskRates::default(), self.synthetic.seed);
        let enriched = enrich(
            &baseline,
            &full,
            &RevealRates::default(),
            self.synthetic.seed,
        );

        let baseline_results = assess_scenario(&baseline, Scenario::Baseline.label());
        let enriched_results = assess_scenario(&enriched, Scenario::BaselinePlusPublic.label());

        let op_series: Vec<Option<f64>> = enriched_results
            .footprints
            .iter()
            .map(SystemFootprint::operational_mt)
            .collect();
        let emb_series: Vec<Option<f64>> = enriched_results
            .footprints
            .iter()
            .map(SystemFootprint::embodied_mt)
            .collect();
        let (operational_interpolated, operational_summary) =
            interpolate_with_summary(&op_series, 5).expect("some systems covered");
        let (embodied_interpolated, embodied_summary) =
            interpolate_with_summary(&emb_series, 5).expect("some systems covered");

        PipelineOutput {
            full,
            baseline,
            enriched,
            baseline_results,
            enriched_results,
            operational_interpolated,
            embodied_interpolated,
            operational_summary,
            embodied_summary,
        }
    }
}

fn assess_scenario(list: &Top500List, label: &str) -> ScenarioResults {
    let output = Assessment::of(list)
        .scenario(DataScenario::full(label))
        .run();
    // Coverage and totals are the engine's fold of these footprints — read
    // them off the output instead of running every estimator a second time.
    let summary = &summarize(&output)[0];
    ScenarioResults {
        coverage: summary.coverage,
        operational: summary.operational,
        embodied: summary.embodied,
        footprints: output.into_footprints(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> PipelineOutput {
        StudyPipeline::new(500, 0x5EED_CAFE).run()
    }

    #[test]
    fn pipeline_reproduces_paper_shape() {
        let out = output();
        // Coverage ordering: GHG (≈0) < baseline < enriched < full.
        assert!(
            out.baseline_results.coverage.operational < out.enriched_results.coverage.operational
        );
        assert!(out.baseline_results.coverage.embodied < out.enriched_results.coverage.embodied);
        // Interpolated total exceeds the covered total (gaps are filled).
        assert!(out.operational_summary.full_total > out.operational_summary.covered_total);
        assert!(out.embodied_summary.full_total > out.embodied_summary.covered_total);
    }

    #[test]
    fn embodied_interpolation_adds_more_than_operational() {
        // Paper: +1.74 % operational vs +23.18 % embodied — embodied has
        // far more gaps to fill.
        let out = output();
        let increase = |s: &InterpolationSummary| s.full_total / s.covered_total - 1.0;
        assert!(increase(&out.embodied_summary) > increase(&out.operational_summary));
    }

    #[test]
    fn totals_in_paper_magnitude() {
        // The synthetic fleet should land within ~3x of the paper's
        // 1.39 M MT operational / 1.88 M MT embodied totals — same order,
        // not a calibration fit.
        let out = output();
        let op = out.operational_summary.full_total;
        let emb = out.embodied_summary.full_total;
        assert!(op > 0.4e6 && op < 4.5e6, "operational total {op}");
        assert!(emb > 0.4e6 && emb < 6.0e6, "embodied total {emb}");
    }

    #[test]
    fn top_systems_dominate() {
        // Figure 3/8 shape: the head of the list carries most of the carbon.
        let out = output();
        let head: f64 = out.operational_interpolated[..50].iter().sum();
        let tail: f64 = out.operational_interpolated[450..].iter().sum();
        assert!(head > tail * 3.0, "head {head} tail {tail}");
    }

    #[test]
    fn deterministic() {
        let a = output();
        let b = output();
        assert_eq!(a.operational_interpolated, b.operational_interpolated);
        assert_eq!(
            a.baseline_results.coverage.operational,
            b.baseline_results.coverage.operational
        );
    }

    #[test]
    fn small_lists_work() {
        let out = StudyPipeline::new(20, 1).run();
        assert_eq!(out.operational_interpolated.len(), 20);
        assert_eq!(out.full.len(), 20);
    }
}
