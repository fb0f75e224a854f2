//! Fleet analytics: where the Top 500's carbon actually sits.
//!
//! The paper aggregates to one number; a site operator or policy maker
//! wants the carbon cut by country, vendor and accelerator family. This
//! module builds those breakdowns from the pipeline output through the
//! `frame` group-by machinery (the study's dataframe substrate).

use crate::aggregate::Aggregate;
use easyc::{AssessmentOutput, CoverageReport, Interval, ScenarioDelta, SystemFootprint};
use frame::agg::{group_by, AggFn};
use frame::{Column, DataFrame};
use top500::list::Top500List;

/// One group's share of the fleet footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupShare {
    /// Group key ("United States", "HPE", "NVIDIA", ... or "(unknown)").
    pub key: String,
    /// Systems in the group.
    pub systems: usize,
    /// Operational carbon total, MT CO2e (covered systems only).
    pub operational_mt: f64,
    /// Embodied carbon total, MT CO2e.
    pub embodied_mt: f64,
}

/// Dimension to break the fleet down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dimension {
    /// Hosting country.
    Country,
    /// System vendor.
    Vendor,
    /// Accelerator description ("(cpu-only)" for unaccelerated systems).
    Accelerator,
}

impl Dimension {
    fn label(self) -> &'static str {
        match self {
            Dimension::Country => "country",
            Dimension::Vendor => "vendor",
            Dimension::Accelerator => "accelerator",
        }
    }

    fn key_of(self, sys: &top500::record::SystemRecord) -> Option<String> {
        match self {
            Dimension::Country => sys.country.clone(),
            Dimension::Vendor => sys.vendor.clone(),
            Dimension::Accelerator => Some(
                sys.accelerator
                    .clone()
                    .unwrap_or_else(|| "(cpu-only)".to_string()),
            ),
        }
    }
}

/// Builds a dataframe `(key, operational, embodied)` from a list and its
/// footprints, then reduces it with the frame group-by.
pub fn breakdown(
    list: &Top500List,
    footprints: &[SystemFootprint],
    dimension: Dimension,
) -> Vec<GroupShare> {
    assert_eq!(
        list.len(),
        footprints.len(),
        "footprints must match the list"
    );
    let keys: Vec<Option<String>> = list.systems().iter().map(|s| dimension.key_of(s)).collect();
    let op: Vec<Option<f64>> = footprints
        .iter()
        .map(SystemFootprint::operational_mt)
        .collect();
    let emb: Vec<Option<f64>> = footprints
        .iter()
        .map(SystemFootprint::embodied_mt)
        .collect();

    let df = DataFrame::new()
        .with_column(dimension.label(), Column::Str(keys))
        .expect("fresh frame")
        .with_column("op", Column::F64(op))
        .expect("equal length")
        .with_column("emb", Column::F64(emb))
        .expect("equal length");

    let grouped = group_by(
        &df,
        dimension.label(),
        &[
            ("op", AggFn::Sum),
            ("emb", AggFn::Sum),
            ("op", AggFn::Count),
        ],
    )
    .expect("columns exist");

    let mut shares: Vec<GroupShare> = (0..grouped.len())
        .map(|i| {
            let key = match grouped.value(dimension.label(), i).expect("in range") {
                frame::Value::Str(s) => s,
                _ => "(unknown)".to_string(),
            };
            let get = |col: &str| -> f64 {
                grouped
                    .value(col, i)
                    .expect("in range")
                    .as_f64()
                    .unwrap_or(0.0)
            };
            GroupShare {
                key,
                systems: df
                    .column(dimension.label())
                    .expect("key column")
                    .as_str()
                    .expect("string column")
                    .iter()
                    .filter(|k| {
                        k.as_deref().unwrap_or("(unknown)")
                            == grouped
                                .value(dimension.label(), i)
                                .ok()
                                .and_then(|v| v.as_str().map(str::to_string))
                                .as_deref()
                                .unwrap_or("(unknown)")
                    })
                    .count(),
                operational_mt: get("op_sum"),
                embodied_mt: get("emb_sum"),
            }
        })
        .collect();
    shares.sort_by(|a, b| {
        b.operational_mt
            .partial_cmp(&a.operational_mt)
            .expect("finite")
    });
    shares
}

/// One scenario's fleet-level summary from a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub name: String,
    /// Coverage counts under the scenario.
    pub coverage: CoverageReport,
    /// Operational aggregate over covered systems.
    pub operational: Aggregate,
    /// Embodied aggregate over covered systems.
    pub embodied: Aggregate,
}

/// Summarises an assessment's scenarios (no re-assessment), whatever its
/// source. Every slice carries its engine-folded coverage and totals —
/// exactly the sums `Aggregate::of` would compute over the footprints —
/// so a streamed run (which keeps no footprints) summarises bit-identically
/// to an in-memory run over the same systems.
pub fn summarize(output: &AssessmentOutput) -> Vec<ScenarioSummary> {
    output
        .slices()
        .iter()
        .map(|slice| ScenarioSummary {
            name: slice.scenario.name.clone(),
            coverage: slice.coverage,
            operational: Aggregate::from_sum(
                slice.coverage.operational,
                slice.operational_total_mt,
            ),
            embodied: Aggregate::from_sum(slice.coverage.embodied, slice.embodied_total_mt),
        })
        .collect()
}

/// Renders a sweep as an aligned text table.
pub fn render_sweep(summaries: &[ScenarioSummary]) -> String {
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{}/{}", s.coverage.operational, s.coverage.total),
                format!("{}/{}", s.coverage.embodied, s.coverage.total),
                format!("{:.0}", s.operational.total_mt),
                format!("{:.0}", s.embodied.total_mt),
            ]
        })
        .collect();
    crate::render::text_table(
        &[
            "Scenario",
            "Op coverage",
            "Emb coverage",
            "Op total (MT)",
            "Emb total (MT)",
        ],
        &rows,
    )
}

/// CSV rendering of a sweep.
pub(crate) fn sweep_to_csv(summaries: &[ScenarioSummary]) -> String {
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.coverage.operational.to_string(),
                s.coverage.embodied.to_string(),
                s.coverage.total.to_string(),
                format!("{:.1}", s.operational.total_mt),
                format!("{:.1}", s.embodied.total_mt),
            ]
        })
        .collect();
    crate::render::csv_table(
        &[
            "scenario",
            "op_covered",
            "emb_covered",
            "total",
            "op_total_mt",
            "emb_total_mt",
        ],
        &rows,
    )
}

/// Paired-difference deltas of every other scenario against `baseline`,
/// matrix order — one [`AssessmentOutput::compare`] per variant. Empty
/// when the baseline is absent or the session ran without uncertainty
/// draws.
pub fn compare_to_baseline(output: &AssessmentOutput, baseline: &str) -> Vec<ScenarioDelta> {
    output
        .slices()
        .iter()
        .filter(|slice| slice.scenario.name != baseline)
        .filter_map(|slice| output.compare(baseline, &slice.scenario.name))
        .collect()
}

fn render_delta_interval(iv: &Option<Interval>) -> String {
    match iv {
        Some(iv) => format!("{:+.0} [{:+.0}, {:+.0}]", iv.point, iv.lo, iv.hi),
        None => "—".to_string(),
    }
}

/// Renders paired scenario deltas as an aligned text table — the panel
/// behind `sweep --compare` and the study's delta artifact. Each row is
/// `variant − baseline` with the CRN-paired interval per family.
pub fn render_deltas(deltas: &[ScenarioDelta]) -> String {
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .map(|d| {
            vec![
                format!("{} − {}", d.variant, d.baseline),
                render_delta_interval(&d.operational),
                render_delta_interval(&d.embodied),
                render_delta_interval(&d.total),
            ]
        })
        .collect();
    crate::render::text_table(
        &[
            "Delta (variant − baseline)",
            "Op Δ (MT)",
            "Emb Δ (MT)",
            "Total Δ (MT)",
        ],
        &rows,
    )
}

/// CSV rendering of paired scenario deltas.
pub(crate) fn deltas_to_csv(deltas: &[ScenarioDelta]) -> String {
    let cell = |iv: &Option<Interval>, pick: fn(&Interval) -> f64| -> String {
        iv.map(|iv| format!("{:.3}", pick(&iv))).unwrap_or_default()
    };
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .map(|d| {
            vec![
                d.baseline.clone(),
                d.variant.clone(),
                cell(&d.operational, |iv| iv.point),
                cell(&d.operational, |iv| iv.lo),
                cell(&d.operational, |iv| iv.hi),
                cell(&d.embodied, |iv| iv.point),
                cell(&d.embodied, |iv| iv.lo),
                cell(&d.embodied, |iv| iv.hi),
                cell(&d.total, |iv| iv.point),
                cell(&d.total, |iv| iv.lo),
                cell(&d.total, |iv| iv.hi),
            ]
        })
        .collect();
    crate::render::csv_table(
        &[
            "baseline",
            "variant",
            "op_delta_mt",
            "op_lo",
            "op_hi",
            "emb_delta_mt",
            "emb_lo",
            "emb_hi",
            "total_delta_mt",
            "total_lo",
            "total_hi",
        ],
        &rows,
    )
}

/// Concentration: fraction of the fleet's operational carbon carried by
/// the top `k` groups.
pub fn concentration(shares: &[GroupShare], k: usize) -> f64 {
    let total: f64 = shares.iter().map(|s| s.operational_mt).sum();
    if total == 0.0 {
        return 0.0;
    }
    shares.iter().take(k).map(|s| s.operational_mt).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StudyPipeline;
    use easyc::{Assessment, ScenarioMatrix};

    fn setup() -> (Top500List, Vec<SystemFootprint>) {
        let out = StudyPipeline::new(500, 7).run();
        let footprints = Assessment::of(&out.full).run().into_footprints();
        (out.full, footprints)
    }

    #[test]
    fn country_breakdown_covers_fleet_total() {
        let (list, footprints) = setup();
        let shares = breakdown(&list, &footprints, Dimension::Country);
        let total: f64 = shares.iter().map(|s| s.operational_mt).sum();
        let direct: f64 = footprints
            .iter()
            .filter_map(SystemFootprint::operational_mt)
            .sum();
        assert!((total - direct).abs() < 1e-6 * direct.max(1.0));
        let systems: usize = shares.iter().map(|s| s.systems).sum();
        assert_eq!(systems, 500);
    }

    #[test]
    fn shares_sorted_descending() {
        let (list, footprints) = setup();
        let shares = breakdown(&list, &footprints, Dimension::Vendor);
        for pair in shares.windows(2) {
            assert!(pair[0].operational_mt >= pair[1].operational_mt);
        }
    }

    #[test]
    fn accelerator_dimension_has_cpu_only_group() {
        let (list, footprints) = setup();
        let shares = breakdown(&list, &footprints, Dimension::Accelerator);
        assert!(shares.iter().any(|s| s.key == "(cpu-only)"));
    }

    #[test]
    fn concentration_monotone_in_k() {
        let (list, footprints) = setup();
        let shares = breakdown(&list, &footprints, Dimension::Country);
        let c1 = concentration(&shares, 1);
        let c3 = concentration(&shares, 3);
        let call = concentration(&shares, shares.len());
        assert!(c1 <= c3 + 1e-12);
        assert!((call - 1.0).abs() < 1e-9);
        // The US share dominates in the calibrated mix.
        assert!(c1 > 0.15, "largest group share {c1}");
    }

    #[test]
    fn scenario_sweep_one_pass_matches_separate_runs() {
        use easyc::{DataScenario, MetricBit, MetricMask};
        let out = StudyPipeline::new(120, 11).run();
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("full"))
                .with(DataScenario::masked(
                    "no-power",
                    MetricMask::ALL
                        .without(MetricBit::PowerKw)
                        .without(MetricBit::AnnualEnergy),
                ));
        let summaries = summarize(&Assessment::of(&out.baseline).scenarios(&matrix).run());
        assert_eq!(summaries.len(), 2);
        // The "full" slice must agree with a direct assessment.
        let direct = Assessment::of(&out.baseline).run().into_footprints();
        let direct_total: f64 = direct
            .iter()
            .filter_map(SystemFootprint::operational_mt)
            .sum();
        assert_eq!(summaries[0].operational.total_mt, direct_total);
        assert_eq!(
            summaries[0].coverage,
            easyc::CoverageReport::from_footprints(&direct)
        );
        // Hiding power can only reduce operational coverage.
        assert!(summaries[1].coverage.operational <= summaries[0].coverage.operational);
        let text = render_sweep(&summaries);
        assert!(text.contains("no-power"));
        let csv = sweep_to_csv(&summaries);
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn streamed_sweep_bit_identical_to_in_memory_sweep() {
        use easyc::{DataScenario, MetricBit, MetricMask};
        use top500::stream::InMemoryChunks;
        let out = StudyPipeline::new(150, 5).run();
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("full"))
                .with(DataScenario::masked(
                    "no-power",
                    MetricMask::ALL
                        .without(MetricBit::PowerKw)
                        .without(MetricBit::AnnualEnergy),
                ));
        let in_memory = summarize(&Assessment::of(&out.baseline).scenarios(&matrix).run());
        for rows in [1usize, 16, 150, 1000] {
            let streamed = summarize(
                &Assessment::stream(InMemoryChunks::new(&out.baseline, rows))
                    .scenarios(&matrix)
                    .run()
                    .unwrap(),
            );
            assert_eq!(streamed, in_memory, "rows {rows}");
        }
    }

    #[test]
    fn delta_panel_renders_compare_output() {
        use easyc::{DataScenario, MetricBit, MetricMask};
        let out = StudyPipeline::new(90, 3).run();
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked(
                "no-power",
                MetricMask::ALL
                    .without(MetricBit::PowerKw)
                    .without(MetricBit::AnnualEnergy),
            ))
            .with(
                DataScenario::full("clean-grid").with_overrides(easyc::OverrideSet {
                    aci_g_per_kwh: Some(50.0),
                    ..easyc::OverrideSet::NONE
                }),
            );
        let output = Assessment::of(&out.full)
            .scenarios(&matrix)
            .uncertainty(100)
            .seed(5)
            .run();
        let deltas = compare_to_baseline(&output, "full");
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].variant, "no-power");
        assert_eq!(deltas[1].variant, "clean-grid");
        // Cleaner grid strictly lowers the operational total.
        let clean = deltas[1].operational.unwrap();
        assert!(clean.point < 0.0 && clean.hi < 0.0, "{clean:?}");
        let text = render_deltas(&deltas);
        assert!(text.contains("no-power − full"));
        assert!(text.contains("clean-grid − full"));
        let csv = deltas_to_csv(&deltas);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("baseline,variant,op_delta_mt"));
        // Without draws there is nothing to pair.
        let no_draws = Assessment::of(&out.full).scenarios(&matrix).run();
        assert!(compare_to_baseline(&no_draws, "full").is_empty());
    }

    #[test]
    fn mismatched_lengths_panic() {
        let (list, footprints) = setup();
        let result =
            std::panic::catch_unwind(|| breakdown(&list, &footprints[..10], Dimension::Country));
        assert!(result.is_err());
    }
}
