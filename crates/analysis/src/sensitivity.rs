//! Sensitivity of the footprint to adding public information (Figure 9).
//!
//! For every system with estimates under both scenarios the per-rank
//! difference is reported; the aggregate deltas reproduce the paper's
//! headline findings: operational changes only +2.85 % (≈38 kMT) in total,
//! while embodied grows by ≈670 kMT (+78 %), dominated by systems that had
//! no estimate at all under the baseline.

use top500::appendix::AppendixRow;

/// Per-rank difference between scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankDiff {
    /// Top 500 rank.
    pub rank: u32,
    /// `+public − top500`, MT CO2e; `None` when either side is missing.
    pub diff_mt: Option<f64>,
}

/// The full sensitivity study for one output (operational or embodied).
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityReport {
    /// Per-rank diffs (both-scenario systems only carry values).
    pub diffs: Vec<RankDiff>,
    /// Total under the baseline scenario, MT.
    pub baseline_total_mt: f64,
    /// Total under the enriched scenario, MT.
    pub enriched_total_mt: f64,
    /// Systems estimable only after enrichment.
    pub newly_covered: usize,
    /// Largest single-system increase, MT.
    pub max_increase_mt: f64,
    /// Largest single-system decrease, MT (negative or zero).
    pub max_decrease_mt: f64,
    /// Paired-difference interval on the fleet-total change, MT — filled
    /// by [`between`] when the session ran with uncertainty draws (common
    /// random numbers pair the scenarios' draws, so this band is far
    /// tighter than differencing two independent per-scenario intervals).
    /// `None` for point-estimate-only sources (appendix rows, raw
    /// footprint slices, sessions without draws).
    pub delta_interval: Option<easyc::Interval>,
}

impl SensitivityReport {
    /// Net change from enrichment, MT CO2e.
    pub fn total_change_mt(&self) -> f64 {
        self.enriched_total_mt - self.baseline_total_mt
    }

    /// Net change relative to the baseline total.
    pub fn relative_change(&self) -> f64 {
        if self.baseline_total_mt == 0.0 {
            0.0
        } else {
            self.total_change_mt() / self.baseline_total_mt
        }
    }
}

/// Builds the report from appendix scenario pairs.
pub(crate) fn from_scenarios(pairs: &[(u32, Option<f64>, Option<f64>)]) -> SensitivityReport {
    let mut diffs = Vec::with_capacity(pairs.len());
    let mut baseline_total = 0.0;
    let mut enriched_total = 0.0;
    let mut newly_covered = 0;
    let mut max_increase = f64::NEG_INFINITY;
    let mut max_decrease = f64::INFINITY;
    for &(rank, baseline, enriched) in pairs {
        if let Some(b) = baseline {
            baseline_total += b;
        }
        if let Some(e) = enriched {
            enriched_total += e;
        }
        if baseline.is_none() && enriched.is_some() {
            newly_covered += 1;
        }
        let diff = match (baseline, enriched) {
            (Some(b), Some(e)) => {
                let d = e - b;
                max_increase = max_increase.max(d);
                max_decrease = max_decrease.min(d);
                Some(d)
            }
            _ => None,
        };
        diffs.push(RankDiff {
            rank,
            diff_mt: diff,
        });
    }
    SensitivityReport {
        diffs,
        baseline_total_mt: baseline_total,
        enriched_total_mt: enriched_total,
        newly_covered,
        max_increase_mt: if max_increase.is_finite() {
            max_increase
        } else {
            0.0
        },
        max_decrease_mt: if max_decrease.is_finite() {
            max_decrease
        } else {
            0.0
        },
        delta_interval: None,
    }
}

/// Builds a report from two batch-assessed footprint slices of the same
/// list (e.g. two [`easyc::ScenarioSlice`]s), so scenario sensitivity
/// studies run off ONE batch pass instead of bespoke re-runs. `embodied`
/// selects which output is compared.
pub(crate) fn from_footprints(
    baseline: &[easyc::SystemFootprint],
    enriched: &[easyc::SystemFootprint],
    embodied: bool,
) -> SensitivityReport {
    assert_eq!(
        baseline.len(),
        enriched.len(),
        "slices must cover the same list"
    );
    let pick = |fp: &easyc::SystemFootprint| -> Option<f64> {
        if embodied {
            fp.embodied_mt()
        } else {
            fp.operational_mt()
        }
    };
    let pairs: Vec<_> = baseline
        .iter()
        .zip(enriched)
        .map(|(b, e)| {
            debug_assert_eq!(b.rank, e.rank);
            (b.rank, pick(b), pick(e))
        })
        .collect();
    from_scenarios(&pairs)
}

/// Sensitivity between two named scenarios of one [`easyc::Assessment`]
/// session output: `variant − baseline` per rank, so what-if questions
/// ("what does losing measured power cost?") read straight off a single
/// session run. Returns `None` when either scenario is absent.
///
/// When the session ran with uncertainty draws, the report's
/// `delta_interval` carries the paired common-random-numbers interval on
/// the fleet-total change for the selected family (operational or
/// embodied) — the same band [`easyc::AssessmentOutput::compare`] reports.
pub fn between(
    output: &easyc::AssessmentOutput,
    baseline: &str,
    variant: &str,
    embodied: bool,
) -> Option<SensitivityReport> {
    let mut report = from_footprints(
        output.footprints(baseline)?,
        output.footprints(variant)?,
        embodied,
    );
    report.delta_interval = output.compare(baseline, variant).and_then(|delta| {
        if embodied {
            delta.embodied
        } else {
            delta.operational
        }
    });
    Some(report)
}

/// Operational sensitivity from appendix rows.
pub(crate) fn operational(rows: &[AppendixRow]) -> SensitivityReport {
    let pairs: Vec<_> = rows
        .iter()
        .map(|r| (r.rank, r.operational.top500, r.operational.public))
        .collect();
    from_scenarios(&pairs)
}

/// Embodied sensitivity from appendix rows.
pub(crate) fn embodied(rows: &[AppendixRow]) -> SensitivityReport {
    let pairs: Vec<_> = rows
        .iter()
        .map(|r| (r.rank, r.embodied.top500, r.embodied.public))
        .collect();
    from_scenarios(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operational_matches_paper_2_85_percent() {
        let rows = top500::appendix::load();
        let report = operational(&rows);
        // Paper: "the total change for the entire Top 500 is only 2.85 %
        // (38 thousand MT CO2e)".
        assert!(
            (report.relative_change() - 0.0285).abs() < 0.002,
            "relative {}",
            report.relative_change()
        );
        assert!(
            (report.total_change_mt() / 1000.0 - 38.0).abs() < 2.0,
            "total change {} kMT",
            report.total_change_mt() / 1000.0
        );
        assert_eq!(report.newly_covered, 490 - 391);
    }

    #[test]
    fn embodied_matches_paper_670_kmt() {
        let rows = top500::appendix::load();
        let report = embodied(&rows);
        // Paper: "an increase of 670.48 thousand MT CO2e, for an 78 % change".
        assert!(
            (report.total_change_mt() / 1000.0 - 670.48).abs() < 2.0,
            "total change {} kMT",
            report.total_change_mt() / 1000.0
        );
        assert!(
            (report.relative_change() - 0.78).abs() < 0.01,
            "relative {}",
            report.relative_change()
        );
        assert_eq!(report.newly_covered, 404 - 283);
    }

    #[test]
    fn aci_refinement_spread_within_77_5_percent_band() {
        // Paper: refinement to national ACI "can increase or decrease by as
        // much as 77.5 %". Check the per-system relative operational change
        // of both-covered systems stays within roughly that band.
        let rows = top500::appendix::load();
        let mut max_rel: f64 = 0.0;
        for r in &rows {
            if let (Some(b), Some(e)) = (r.operational.top500, r.operational.public) {
                if b > 100.0 {
                    max_rel = max_rel.max(((e - b) / b).abs());
                }
            }
        }
        assert!(max_rel <= 0.80, "max relative change {max_rel}");
        assert!(
            max_rel >= 0.5,
            "expected some large refinements, max {max_rel}"
        );
    }

    #[test]
    fn diffs_have_one_entry_per_rank() {
        let rows = top500::appendix::load();
        let report = operational(&rows);
        assert_eq!(report.diffs.len(), 500);
        assert_eq!(report.diffs[0].rank, 1);
    }

    #[test]
    fn embodied_changes_mostly_increase() {
        // Paper: "For embodied carbon, there are larger changes, mostly
        // increasing the carbon footprint".
        let rows = top500::appendix::load();
        let report = embodied(&rows);
        let increases = report
            .diffs
            .iter()
            .filter(|d| d.diff_mt.is_some_and(|v| v > 0.0))
            .count();
        let decreases = report
            .diffs
            .iter()
            .filter(|d| d.diff_mt.is_some_and(|v| v < 0.0))
            .count();
        assert!(
            increases > decreases,
            "increases {increases} vs decreases {decreases}"
        );
    }

    #[test]
    fn footprint_report_matches_scenario_slices() {
        use crate::pipeline::StudyPipeline;
        let out = StudyPipeline::new(100, 13).run();
        let report = from_footprints(
            &out.baseline_results.footprints,
            &out.enriched_results.footprints,
            false,
        );
        assert_eq!(report.diffs.len(), 100);
        let manual_newly = out
            .baseline_results
            .footprints
            .iter()
            .zip(&out.enriched_results.footprints)
            .filter(|(b, e)| b.operational_mt().is_none() && e.operational_mt().is_some())
            .count();
        assert_eq!(report.newly_covered, manual_newly);
        assert!(manual_newly > 0, "enrichment should cover new systems");
        assert!(report.enriched_total_mt >= report.baseline_total_mt);
    }

    #[test]
    fn between_reads_session_scenarios() {
        use easyc::{Assessment, DataScenario, MetricBit, MetricMask, ScenarioMatrix};
        use top500::synthetic::{generate_full, SyntheticConfig};
        let list = generate_full(&SyntheticConfig {
            n: 60,
            ..Default::default()
        });
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("full"))
                .with(DataScenario::masked(
                    "no-power",
                    MetricMask::ALL
                        .without(MetricBit::PowerKw)
                        .without(MetricBit::AnnualEnergy),
                ));
        let output = Assessment::of(&list).scenarios(&matrix).run();
        let report = between(&output, "full", "no-power", false).unwrap();
        assert_eq!(report.diffs.len(), 60);
        let manual = from_footprints(
            output.footprints("full").unwrap(),
            output.footprints("no-power").unwrap(),
            false,
        );
        assert_eq!(report, manual);
        assert!(between(&output, "full", "missing", false).is_none());
        // No uncertainty draws: no interval-backed delta.
        assert!(report.delta_interval.is_none());
    }

    #[test]
    fn between_carries_paired_delta_interval_when_session_has_draws() {
        use easyc::{Assessment, DataScenario, MetricBit, MetricMask, ScenarioMatrix};
        use top500::synthetic::{generate_full, SyntheticConfig};
        let list = generate_full(&SyntheticConfig {
            n: 80,
            ..Default::default()
        });
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("full"))
                .with(DataScenario::masked(
                    "no-power",
                    MetricMask::ALL
                        .without(MetricBit::PowerKw)
                        .without(MetricBit::AnnualEnergy),
                ));
        let output = Assessment::of(&list)
            .scenarios(&matrix)
            .uncertainty(150)
            .confidence(0.9)
            .seed(13)
            .run();
        let op = between(&output, "full", "no-power", false).unwrap();
        let delta = output.compare("full", "no-power").unwrap();
        assert_eq!(op.delta_interval, delta.operational);
        let iv = op.delta_interval.unwrap();
        // The interval brackets the point-estimate change of the report.
        assert!((iv.point - op.total_change_mt()).abs() < 1e-9 * iv.point.abs().max(1.0));
        assert!(iv.lo <= iv.point && iv.point <= iv.hi);
        let emb = between(&output, "full", "no-power", true).unwrap();
        assert_eq!(emb.delta_interval, delta.embodied);
    }

    #[test]
    fn synthetic_report_totals() {
        let pairs = vec![
            (1, Some(100.0), Some(110.0)),
            (2, None, Some(50.0)),
            (3, Some(20.0), Some(20.0)),
        ];
        let report = from_scenarios(&pairs);
        assert_eq!(report.baseline_total_mt, 120.0);
        assert_eq!(report.enriched_total_mt, 180.0);
        assert_eq!(report.newly_covered, 1);
        assert_eq!(report.max_increase_mt, 10.0);
        assert_eq!(report.max_decrease_mt, 0.0);
    }
}
