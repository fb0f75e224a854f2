//! One generator per paper table and figure.
//!
//! Reference figures (3, 7, 8, 9, Table II) are recomputed from the
//! embedded appendix; coverage figures (2, 4, 5, 6, Table I) additionally
//! have pipeline editions computed from the synthetic list. Each generator
//! returns typed rows/series plus `render()` (aligned text) and `to_csv()`.

use crate::aggregate::Aggregate;
use crate::pipeline::PipelineOutput;
use crate::projection::{self, PerfPerCarbon, Projection};
use crate::render::{csv_table, opt, pct, text_table};
use crate::sensitivity::{self, SensitivityReport};
use top500::appendix::AppendixRow;
use top500::list::{RankRange, Top500List, RANK_RANGES};
use top500::record::DataItem;

/// Sum of Rmax over the November 2024 list, PFlop/s (top500.org headline:
/// ≈11.7 EFlop/s). Used as the Figure 11 performance base.
pub(crate) const TOTAL_RMAX_PFLOPS_NOV2024: f64 = 11_724.0;

// ---------------------------------------------------------------- Figure 2

/// Figure 2: number of systems missing k data items (k = 1..19, plus
/// "None" for complete records).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// `(label, systems)` bars: "1".."19" then "None".
    pub bars: Vec<(String, usize)>,
}

impl Fig2 {
    /// Builds the histogram from a (masked) list.
    pub fn from_list(list: &Top500List) -> Fig2 {
        let max_items = DataItem::ALL.len();
        let mut counts = vec![0usize; max_items + 1];
        for sys in list.systems() {
            counts[sys.missing_count()] += 1;
        }
        let mut bars: Vec<(String, usize)> = (1..=max_items)
            .map(|k| (k.to_string(), counts[k]))
            .collect();
        bars.push(("None".to_string(), counts[0]));
        Fig2 { bars }
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .bars
            .iter()
            .map(|(l, c)| vec![l.clone(), c.to_string()])
            .collect();
        text_table(&["Data Items Missing", "# of Systems"], &rows)
    }

    /// CSV rendering.
    pub(crate) fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .bars
            .iter()
            .map(|(l, c)| vec![l.clone(), c.to_string()])
            .collect();
        csv_table(&["missing_items", "systems"], &rows)
    }
}

// ----------------------------------------------------------------- Table I

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Metric name (paper wording).
    pub metric: &'static str,
    /// Systems incomplete with top500.org data.
    pub incomplete_top500: usize,
    /// Systems incomplete with other public data added.
    pub incomplete_public: usize,
}

/// Table I: per-metric incompleteness under both scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Builds the table from the baseline and enriched lists.
    pub fn from_lists(baseline: &Top500List, enriched: &Top500List) -> Table1 {
        let count_missing = |list: &Top500List, item: DataItem| {
            list.systems().iter().filter(|s| !s.has_item(item)).count()
        };
        let rows = vec![
            ("Operation Year", DataItem::OperationYear),
            ("# of Compute Nodes", DataItem::NodeCount),
            ("# of GPUs", DataItem::AcceleratorCount),
            ("# of CPUs", DataItem::CpuCount),
            ("Memory Capacity", DataItem::MemoryCapacity),
            ("Memory Type", DataItem::MemoryType),
            ("SSD Capacity", DataItem::SsdCapacity),
            ("System Util (opt.)", DataItem::Utilization),
        ]
        .into_iter()
        .map(|(metric, item)| Table1Row {
            metric,
            incomplete_top500: count_missing(baseline, item),
            incomplete_public: count_missing(enriched, item),
        })
        .collect();
        Table1 { rows }
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.metric.to_string(),
                    r.incomplete_top500.to_string(),
                    r.incomplete_public.to_string(),
                ]
            })
            .collect();
        text_table(
            &[
                "Type",
                "# Incomplete [Top500.org]",
                "# Incomplete [Other Public]",
            ],
            &rows,
        )
    }

    /// CSV rendering.
    pub(crate) fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.metric.to_string(),
                    r.incomplete_top500.to_string(),
                    r.incomplete_public.to_string(),
                ]
            })
            .collect();
        csv_table(&["metric", "incomplete_top500", "incomplete_public"], &rows)
    }
}

// ---------------------------------------------------------- Figures 3 & 8

/// A carbon-versus-rank scatter (Figures 3 and 8).
#[derive(Debug, Clone, PartialEq)]
pub struct CarbonByRank {
    /// Figure label.
    pub label: String,
    /// `(rank, operational MT, embodied MT)` — `None` = no estimate.
    pub points: Vec<(u32, Option<f64>, Option<f64>)>,
}

impl CarbonByRank {
    /// Figure 3: appendix values under the top500.org-only scenario.
    pub fn fig3(rows: &[AppendixRow]) -> CarbonByRank {
        CarbonByRank {
            label: "Fig 3: Top500.org data only".to_string(),
            points: rows
                .iter()
                .map(|r| (r.rank, r.operational.top500, r.embodied.top500))
                .collect(),
        }
    }

    /// Figure 8: appendix values under the full interpolated scenario.
    pub fn fig8(rows: &[AppendixRow]) -> CarbonByRank {
        CarbonByRank {
            label: "Fig 8: full assessment (interpolated)".to_string(),
            points: rows
                .iter()
                .map(|r| (r.rank, r.operational.interpolated, r.embodied.interpolated))
                .collect(),
        }
    }

    /// CSV rendering.
    pub(crate) fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|&(rank, op, emb)| vec![rank.to_string(), opt(op), opt(emb)])
            .collect();
        csv_table(&["rank", "operational_mt", "embodied_mt"], &rows)
    }
}

// ---------------------------------------------------------------- Figure 4

/// Figure 4: reporting coverage under the three methods.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// `(method, operational count, embodied count)` out of `total`.
    pub methods: Vec<(String, usize, usize)>,
    /// List size.
    pub total: usize,
}

impl Fig4 {
    /// Reference edition from appendix coverage counts (GHG from the
    /// paper's observation: none report under the protocol).
    pub fn reference(rows: &[AppendixRow]) -> Fig4 {
        let op_t = rows
            .iter()
            .filter(|r| r.operational.top500.is_some())
            .count();
        let op_p = rows
            .iter()
            .filter(|r| r.operational.public.is_some())
            .count();
        let emb_t = rows.iter().filter(|r| r.embodied.top500.is_some()).count();
        let emb_p = rows.iter().filter(|r| r.embodied.public.is_some()).count();
        Fig4 {
            methods: vec![
                ("GHG protocol".to_string(), 0, 0),
                ("EasyC (top500.org)".to_string(), op_t, emb_t),
                ("EasyC (+ public info)".to_string(), op_p, emb_p),
            ],
            total: rows.len(),
        }
    }

    /// Pipeline edition from the synthetic study.
    pub fn pipeline(out: &PipelineOutput) -> Fig4 {
        let ghg = ghg::coverage::coverage(out.baseline.systems());
        Fig4 {
            methods: vec![
                ("GHG protocol".to_string(), ghg.operational, ghg.embodied),
                (
                    "EasyC (top500.org)".to_string(),
                    out.baseline_results.coverage.operational,
                    out.baseline_results.coverage.embodied,
                ),
                (
                    "EasyC (+ public info)".to_string(),
                    out.enriched_results.coverage.operational,
                    out.enriched_results.coverage.embodied,
                ),
            ],
            total: out.baseline.len(),
        }
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .methods
            .iter()
            .map(|(m, op, emb)| {
                vec![
                    m.clone(),
                    format!("{op}/{}", self.total),
                    format!("{emb}/{}", self.total),
                ]
            })
            .collect();
        text_table(&["Method", "Operational", "Embodied"], &rows)
    }

    /// CSV rendering.
    pub(crate) fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .methods
            .iter()
            .map(|(m, op, emb)| vec![m.clone(), op.to_string(), emb.to_string()])
            .collect();
        csv_table(&["method", "operational", "embodied"], &rows)
    }
}

// ----------------------------------------------------------- Figures 5 & 6

/// Coverage by rank range, one panel (column) per scenario. The paper's
/// fixed two-scenario editions (Figure 5 = operational, Figure 6 =
/// embodied) are the `baseline`/`public` instantiations; arbitrary
/// [`ScenarioMatrix`](easyc::ScenarioMatrix) sweeps render one
/// coverage-by-rank panel per scenario through `from_slices`.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageByRange {
    /// Output ("Operational" / "Embodied").
    pub output: String,
    /// Panel (scenario) labels, column order.
    pub scenarios: Vec<String>,
    /// `(range, covered fraction per scenario)`, one fraction per panel.
    pub rows: Vec<(RankRange, Vec<f64>)>,
}

/// Coverage fractions per rank range from per-range covered-predicate
/// columns: `panels[p]` yields `(rank, covered)` pairs for panel `p`.
fn coverage_rows(panels: &[Vec<(u32, bool)>]) -> Vec<(RankRange, Vec<f64>)> {
    RANK_RANGES
        .iter()
        .map(|&range| {
            let fractions = panels
                .iter()
                .map(|panel| {
                    let in_range: Vec<bool> = panel
                        .iter()
                        .filter(|(rank, _)| range.contains(*rank))
                        .map(|&(_, covered)| covered)
                        .collect();
                    let total = in_range.len().max(1) as f64;
                    in_range.iter().filter(|&&c| c).count() as f64 / total
                })
                .collect();
            (range, fractions)
        })
        .collect()
}

fn output_label(embodied: bool) -> String {
    if embodied { "Embodied" } else { "Operational" }.to_string()
}

fn footprint_panel(footprints: &[easyc::SystemFootprint], embodied: bool) -> Vec<(u32, bool)> {
    footprints
        .iter()
        .map(|fp| {
            let covered = if embodied {
                fp.embodied_mt().is_some()
            } else {
                fp.operational_mt().is_some()
            };
            (fp.rank, covered)
        })
        .collect()
}

impl CoverageByRange {
    /// Builds from appendix presence columns. `embodied` selects Figure 6.
    pub fn from_appendix(rows: &[AppendixRow], embodied: bool) -> CoverageByRange {
        let panel = |public: bool| -> Vec<(u32, bool)> {
            rows.iter()
                .map(|row| {
                    let sv = if embodied {
                        &row.embodied
                    } else {
                        &row.operational
                    };
                    let covered = if public {
                        sv.public.is_some()
                    } else {
                        sv.top500.is_some()
                    };
                    (row.rank, covered)
                })
                .collect()
        };
        CoverageByRange {
            output: output_label(embodied),
            scenarios: vec!["baseline".to_string(), "public".to_string()],
            rows: coverage_rows(&[panel(false), panel(true)]),
        }
    }

    /// Builds from pipeline footprints. `embodied` selects the output.
    pub fn from_pipeline(out: &PipelineOutput, embodied: bool) -> CoverageByRange {
        CoverageByRange {
            output: output_label(embodied),
            scenarios: vec!["baseline".to_string(), "public".to_string()],
            rows: coverage_rows(&[
                footprint_panel(&out.baseline_results.footprints, embodied),
                footprint_panel(&out.enriched_results.footprints, embodied),
            ]),
        }
    }

    /// Builds one panel per scenario from the footprints of sweep slices
    /// (a list or state [`easyc::AssessmentOutput`]; a streamed run keeps
    /// none).
    pub(crate) fn from_slices(slices: &[easyc::ScenarioSlice], embodied: bool) -> CoverageByRange {
        CoverageByRange {
            output: output_label(embodied),
            scenarios: slices.iter().map(|s| s.scenario.name.clone()).collect(),
            rows: coverage_rows(
                &slices
                    .iter()
                    .map(|s| footprint_panel(&s.footprints, embodied))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// Coverage fraction of the full-list bucket for panel `scenario`;
    /// `None` when no such panel exists.
    pub(crate) fn overall_of(&self, scenario: usize) -> Option<f64> {
        self.rows
            .last()
            .expect("1-500 bucket present")
            .1
            .get(scenario)
            .copied()
    }

    /// Coverage fraction of the full-list bucket under the given scenario.
    /// Only meaningful for the fixed two-panel editions
    /// ([`CoverageByRange::from_appendix`] / [`CoverageByRange::from_pipeline`]:
    /// `false` = baseline, `true` = +public); panics on any other panel
    /// layout — use `CoverageByRange::overall_of` for arbitrary matrices.
    pub fn overall(&self, public: bool) -> f64 {
        assert_eq!(
            self.scenarios.len(),
            2,
            "overall(bool) addresses the two-panel baseline/public editions; \
             this figure has panels {:?} — use overall_of(index)",
            self.scenarios
        );
        self.overall_of(usize::from(public))
            .expect("two-panel figure")
    }

    /// Text rendering: one coverage column per scenario panel.
    pub fn render(&self) -> String {
        let headers: Vec<String> = std::iter::once("Rank Range".to_string())
            .chain(self.scenarios.iter().map(|s| format!("Coverage ({s})")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(range, fractions)| {
                std::iter::once(range.label())
                    .chain(fractions.iter().map(|&f| pct(f)))
                    .collect()
            })
            .collect();
        text_table(&header_refs, &rows)
    }

    /// CSV rendering: `rank_range` plus one `coverage_<scenario>` column
    /// per panel.
    pub(crate) fn to_csv(&self) -> String {
        let headers: Vec<String> = std::iter::once("rank_range".to_string())
            .chain(self.scenarios.iter().map(|s| format!("coverage_{s}")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(range, fractions)| {
                std::iter::once(range.label())
                    .chain(fractions.iter().map(|f| format!("{f:.4}")))
                    .collect()
            })
            .collect();
        csv_table(&header_refs, &rows)
    }
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7: totals and averages, covered set versus interpolated 500.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7 {
    /// Operational aggregate over the covered (+public) set.
    pub op_covered: Aggregate,
    /// Embodied aggregate over the covered (+public) set.
    pub emb_covered: Aggregate,
    /// Operational aggregate over the interpolated 500.
    pub op_interpolated: Aggregate,
    /// Embodied aggregate over the interpolated 500.
    pub emb_interpolated: Aggregate,
}

impl Fig7 {
    /// Builds from appendix rows.
    pub fn from_appendix(rows: &[AppendixRow]) -> Fig7 {
        let op_p: Vec<Option<f64>> = rows.iter().map(|r| r.operational.public).collect();
        let op_i: Vec<Option<f64>> = rows.iter().map(|r| r.operational.interpolated).collect();
        let emb_p: Vec<Option<f64>> = rows.iter().map(|r| r.embodied.public).collect();
        let emb_i: Vec<Option<f64>> = rows.iter().map(|r| r.embodied.interpolated).collect();
        Fig7 {
            op_covered: Aggregate::of(&op_p),
            emb_covered: Aggregate::of(&emb_p),
            op_interpolated: Aggregate::of(&op_i),
            emb_interpolated: Aggregate::of(&emb_i),
        }
    }

    /// Text rendering (totals panel + averages panel).
    pub fn render(&self) -> String {
        let rows = vec![
            vec![
                format!(
                    "{},{} (Total)",
                    self.op_covered.count, self.emb_covered.count
                ),
                format!("{:.0}", self.op_covered.total_mt / 1000.0),
                format!("{:.0}", self.emb_covered.total_mt / 1000.0),
            ],
            vec![
                "500 (Total Interpolated)".to_string(),
                format!("{:.0}", self.op_interpolated.total_mt / 1000.0),
                format!("{:.0}", self.emb_interpolated.total_mt / 1000.0),
            ],
            vec![
                format!("{},{} (Avg)", self.op_covered.count, self.emb_covered.count),
                format!("{:.2}", self.op_covered.mean_mt / 1000.0),
                format!("{:.2}", self.emb_covered.mean_mt / 1000.0),
            ],
            vec![
                "500 (Avg Interpolated)".to_string(),
                format!("{:.2}", self.op_interpolated.mean_mt / 1000.0),
                format!("{:.2}", self.emb_interpolated.mean_mt / 1000.0),
            ],
        ];
        text_table(
            &["Set", "Operational (kMT CO2e)", "Embodied (kMT CO2e)"],
            &rows,
        )
    }
}

// ------------------------------------------------------- Figures 9, 10, 11

/// Figure 9 bundle (operational + embodied sensitivity).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// Operational panel.
    pub operational: SensitivityReport,
    /// Embodied panel.
    pub embodied: SensitivityReport,
}

impl Fig9 {
    /// Builds from appendix rows.
    pub fn from_appendix(rows: &[AppendixRow]) -> Fig9 {
        Fig9 {
            operational: sensitivity::operational(rows),
            embodied: sensitivity::embodied(rows),
        }
    }

    /// CSV of per-rank diffs.
    pub(crate) fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .operational
            .diffs
            .iter()
            .zip(&self.embodied.diffs)
            .map(|(op, emb)| vec![op.rank.to_string(), opt(op.diff_mt), opt(emb.diff_mt)])
            .collect();
        csv_table(&["rank", "op_diff_mt", "emb_diff_mt"], &rows)
    }
}

/// Figure 10 from appendix totals.
pub fn fig10(rows: &[AppendixRow]) -> Projection {
    let op: f64 = rows.iter().filter_map(|r| r.operational.interpolated).sum();
    let emb: f64 = rows.iter().filter_map(|r| r.embodied.interpolated).sum();
    projection::figure10(op, emb)
}

/// Figure 11 panels (operational, embodied) from appendix totals.
pub fn fig11(rows: &[AppendixRow]) -> (PerfPerCarbon, PerfPerCarbon) {
    let op_kmt: f64 = rows
        .iter()
        .filter_map(|r| r.operational.interpolated)
        .sum::<f64>()
        / 1000.0;
    let emb_kmt: f64 = rows
        .iter()
        .filter_map(|r| r.embodied.interpolated)
        .sum::<f64>()
        / 1000.0;
    (
        projection::figure11(TOTAL_RMAX_PFLOPS_NOV2024, op_kmt),
        projection::figure11(TOTAL_RMAX_PFLOPS_NOV2024, emb_kmt),
    )
}

// ---------------------------------------------------------------- Table II

/// Renders the full per-system Table II from appendix rows.
pub fn table2_render(rows: &[AppendixRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.rank.to_string(),
                r.name.clone().unwrap_or_default(),
                opt(r.operational.top500),
                opt(r.operational.public),
                opt(r.operational.interpolated),
                opt(r.embodied.top500),
                opt(r.embodied.public),
                opt(r.embodied.interpolated),
            ]
        })
        .collect();
    text_table(
        &[
            "Rank",
            "System Name",
            "Op[t500]",
            "Op[+pub]",
            "Op[+interp]",
            "Emb[t500]",
            "Emb[+pub]",
            "Emb[+interp]",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StudyPipeline;

    fn rows() -> Vec<AppendixRow> {
        top500::appendix::load()
    }

    /// Points with an operational value and points with an embodied value.
    fn counts(fig: &CarbonByRank) -> (usize, usize) {
        let op = fig.points.iter().filter(|(_, op, _)| op.is_some()).count();
        let emb = fig
            .points
            .iter()
            .filter(|(_, _, emb)| emb.is_some())
            .count();
        (op, emb)
    }

    #[test]
    fn fig2_bars_cover_all_systems() {
        let out = StudyPipeline::new(500, 7).run();
        let fig = Fig2::from_list(&out.baseline);
        let total: usize = fig.bars.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 500);
        assert_eq!(fig.bars.len(), 20); // 1..19 + None
                                        // Nothing is complete under top500.org data (Table I: memory/SSD
                                        // always missing) → the None bar is empty.
        assert_eq!(fig.bars.last().unwrap().1, 0);
    }

    #[test]
    fn table1_monotone_and_calibrated() {
        let out = StudyPipeline::new(500, 7).run();
        let t = Table1::from_lists(&out.baseline, &out.enriched);
        for row in &t.rows {
            assert!(
                row.incomplete_public <= row.incomplete_top500,
                "{} got worse",
                row.metric
            );
        }
        let nodes = t
            .rows
            .iter()
            .find(|r| r.metric == "# of Compute Nodes")
            .unwrap();
        assert!(
            (170..=250).contains(&nodes.incomplete_top500),
            "{}",
            nodes.incomplete_top500
        );
        assert!(
            (55..=125).contains(&nodes.incomplete_public),
            "{}",
            nodes.incomplete_public
        );
        let year = t
            .rows
            .iter()
            .find(|r| r.metric == "Operation Year")
            .unwrap();
        assert_eq!(year.incomplete_top500, 0); // Table I: 0
    }

    #[test]
    fn fig3_counts_match_coverage() {
        let fig = CarbonByRank::fig3(&rows());
        assert_eq!(counts(&fig), (391, 283));
    }

    #[test]
    fn fig8_is_complete() {
        let fig = CarbonByRank::fig8(&rows());
        assert_eq!(counts(&fig), (500, 500));
    }

    #[test]
    fn fig4_reference_counts() {
        let fig = Fig4::reference(&rows());
        assert_eq!(fig.methods[0], ("GHG protocol".to_string(), 0, 0));
        assert_eq!(fig.methods[1].1, 391);
        assert_eq!(fig.methods[2].1, 490);
        assert_eq!(fig.methods[1].2, 283);
        assert_eq!(fig.methods[2].2, 404);
    }

    #[test]
    fn fig4_pipeline_ordering() {
        let out = StudyPipeline::new(500, 7).run();
        let fig = Fig4::pipeline(&out);
        // GHG ≤ EasyC(baseline) ≤ EasyC(+public) for both outputs.
        assert!(fig.methods[0].1 <= fig.methods[1].1);
        assert!(fig.methods[1].1 <= fig.methods[2].1);
        assert!(fig.methods[0].2 <= fig.methods[1].2);
        assert!(fig.methods[1].2 <= fig.methods[2].2);
    }

    #[test]
    fn fig5_gap_in_26_to_100_band_fills_with_public_data() {
        let fig = CoverageByRange::from_appendix(&rows(), false);
        // Paper: gaps emerge "surprisingly high in the rankings 26-50,
        // 51-75, 76-100" and public info renders nearly full coverage.
        for (range, fractions) in &fig.rows {
            let (base, publ) = (fractions[0], fractions[1]);
            if range.lo == 26 || range.lo == 51 || range.lo == 76 {
                assert!(base < 0.9, "range {} base {base}", range.label());
                assert!(publ > base, "range {} did not improve", range.label());
            }
        }
        assert!((fig.overall(false) - 391.0 / 500.0).abs() < 1e-9);
        assert!((fig.overall(true) - 0.98).abs() < 1e-9);
    }

    #[test]
    fn fig6_embodied_worse_in_top150() {
        let fig = CoverageByRange::from_appendix(&rows(), true);
        // Paper: "For many systems in the Top 150, there was insufficient
        // data" — top-range embodied coverage below the tail's.
        let top = fig.rows.iter().find(|(r, _)| r.lo == 26).unwrap();
        let tail = fig.rows.iter().find(|(r, _)| r.lo == 301).unwrap();
        assert!(top.1[0] < tail.1[0], "top {} tail {}", top.1[0], tail.1[0]);
        assert!((fig.overall(true) - 0.808).abs() < 0.001);
    }

    #[test]
    fn fig5_pipeline_same_shape() {
        let out = StudyPipeline::new(500, 7).run();
        let fig = CoverageByRange::from_pipeline(&out, false);
        assert_eq!(fig.rows.len(), 14);
        assert_eq!(fig.scenarios, vec!["baseline", "public"]);
        // Public info never reduces coverage in any band.
        for (_, fractions) in &fig.rows {
            assert!(fractions[1] >= fractions[0] - 1e-9);
        }
    }

    #[test]
    fn coverage_panels_per_scenario_from_matrix() {
        use easyc::{DataScenario, MetricBit, MetricMask, ScenarioMatrix};
        let out = StudyPipeline::new(200, 7).run();
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked(
                "no-structure",
                MetricMask::ALL
                    .without(MetricBit::Nodes)
                    .without(MetricBit::Gpus)
                    .without(MetricBit::Cpus),
            ))
            .with(DataScenario::masked(
                "no-power",
                MetricMask::ALL
                    .without(MetricBit::PowerKw)
                    .without(MetricBit::AnnualEnergy),
            ));
        let session = easyc::Assessment::of(&out.enriched)
            .scenarios(&matrix)
            .run();
        let fig = CoverageByRange::from_slices(session.slices(), true);
        assert_eq!(fig.scenarios, vec!["full", "no-structure", "no-power"]);
        assert_eq!(fig.rows.len(), 14);
        // Hiding structure can only hurt embodied coverage, in every band.
        for (range, fractions) in &fig.rows {
            assert!(
                fractions[1] <= fractions[0] + 1e-9,
                "range {}",
                range.label()
            );
        }
        // Panels must agree with the session's slice coverage.
        assert!(
            (fig.overall_of(0).unwrap()
                - session.slice("full").unwrap().coverage.embodied_fraction())
            .abs()
                < 1e-9
        );
        // CSV carries one column per scenario.
        let csv = fig.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .contains("coverage_no-structure"));
    }

    #[test]
    fn fig7_totals_match_paper() {
        let fig = Fig7::from_appendix(&rows());
        assert!((fig.op_interpolated.total_mt / 1.39e6 - 1.0).abs() < 0.01);
        assert!((fig.emb_interpolated.total_mt / 1.88e6 - 1.0).abs() < 0.01);
        assert!((fig.op_covered.total_mt / 1.37e6 - 1.0).abs() < 0.01);
        assert!((fig.emb_covered.total_mt / 1.53e6 - 1.0).abs() < 0.01);
        assert!(fig.render().contains("500 (Total Interpolated)"));
    }

    #[test]
    fn fig9_headline_deltas() {
        let fig = Fig9::from_appendix(&rows());
        assert!((fig.operational.relative_change() - 0.0285).abs() < 0.002);
        assert!((fig.embodied.total_change_mt() / 1000.0 - 670.48).abs() < 2.0);
        assert!(fig.to_csv().lines().count() == 501);
    }

    #[test]
    fn fig10_from_appendix_grows() {
        let p = fig10(&rows());
        assert!((p.operational.overall_growth() - 1.8).abs() < 0.05);
        assert!(p.embodied.overall_growth() < 1.2);
    }

    #[test]
    fn fig11_bases_in_plausible_ratio() {
        let (op_panel, emb_panel) = fig11(&rows());
        // ~11724 PF / ~1394 kMT ≈ 8.4 PFlops per kMT CO2e.
        let base = op_panel.projected.points[0].value;
        assert!((base - 8.4).abs() < 0.2, "base {base}");
        assert!(emb_panel.projected.points[0].value < base);
    }

    #[test]
    fn table2_renders_all_rows() {
        let text = table2_render(&rows());
        assert_eq!(text.lines().count(), 502); // header + rule + 500 rows
        assert!(text.contains("El Capitan"));
        assert!(text.contains("Marlyn"));
    }

    #[test]
    fn renders_are_nonempty() {
        let out = StudyPipeline::new(100, 7).run();
        assert!(!Fig2::from_list(&out.baseline).render().is_empty());
        assert!(!Table1::from_lists(&out.baseline, &out.enriched)
            .render()
            .is_empty());
        assert!(!Fig4::pipeline(&out).render().is_empty());
        assert!(!CoverageByRange::from_pipeline(&out, true)
            .to_csv()
            .is_empty());
        assert!(!CarbonByRank::fig3(&rows()).to_csv().is_empty());
    }
}
