//! Per-record assessment entry points and the columnar result layout.
//!
//! Two things live here, both shared by every path through the model:
//!
//! - the per-record code path. The serial facade
//!   ([`crate::estimator::EasyC::assess`]) runs `assess_view` over a
//!   zero-copy [`SystemView`] lens, and the session engine
//!   ([`crate::session::Assessment`]) runs `assess_columns` over the
//!   columnar kernels, which are pinned bit-identical to `assess_view`. No
//!   record is cloned under any scenario mask.
//! - the `scenario, rank, operational_mt, …, note` frame layout behind
//!   [`AssessmentOutput::to_frame`](crate::session::AssessmentOutput::to_frame)
//!   and the streamed row sink's [`footprints_frame`], built through one
//!   column accumulator so both produce byte-identical CSV.

use crate::columns::FleetColumns;
use crate::estimator::SystemFootprint;
use crate::metrics::SevenMetrics;
use crate::scenario::{DataScenario, OverrideSet};
use crate::session::ScenarioSlice;
use crate::view::{FleetView, SystemView};
use crate::{embodied, operational};
use frame::{Column, DataFrame};
use top500::record::SystemRecord;

/// Assesses one system through a scenario lens ([`SystemView`]) — the
/// row-at-a-time reference the columnar kernels are pinned against.
pub(crate) fn assess_view(view: &SystemView<'_>, overrides: &OverrideSet) -> SystemFootprint {
    SystemFootprint {
        rank: view.rank(),
        operational: operational::estimate_view(view, overrides),
        embodied: embodied::estimate_view(view),
    }
}

/// Assesses a contiguous block through the columnar kernels, writing one
/// footprint per row of `range` into `out`. Bit-identical to calling
/// [`assess_view`] row by row (the kernels pin that invariant); this is the
/// (scenario × sub-range) work-item body of the session engine and of the
/// resident state's cache maintenance.
pub(crate) fn assess_columns(
    columns: &FleetColumns,
    view: &FleetView<'_>,
    range: std::ops::Range<usize>,
    out: &mut [Option<SystemFootprint>],
) {
    debug_assert_eq!(out.len(), range.len());
    let start = range.start;
    let op = operational::estimate_columns(columns, view, range.clone());
    let emb = embodied::estimate_columns(columns, view, range);
    for (k, (operational, embodied)) in op.into_iter().zip(emb).enumerate() {
        out[k] = Some(SystemFootprint {
            rank: columns.rank[start + k],
            operational,
            embodied,
        });
    }
}

/// Assesses one system under one scenario (the serial facade's entry into
/// the shared code path).
pub(crate) fn assess_one(
    record: &SystemRecord,
    metrics: &SevenMetrics,
    scenario: &DataScenario,
) -> SystemFootprint {
    assess_view(
        &SystemView::new(record, metrics, scenario.mask),
        &scenario.overrides,
    )
}

/// Column accumulator behind the columnar result layout — one instance per
/// frame, fed scenario-by-scenario so the in-memory
/// [`AssessmentOutput::to_frame`](crate::session::AssessmentOutput::to_frame)
/// and the chunk-at-a-time streaming artifact build byte-identical rows
/// through one code path.
struct ResultColumns {
    scenario: Vec<Option<String>>,
    rank: Vec<Option<i64>>,
    op_mt: Vec<Option<f64>>,
    emb_mt: Vec<Option<f64>>,
    power: Vec<Option<f64>>,
    pue: Vec<Option<f64>>,
    util: Vec<Option<f64>>,
    path: Vec<Option<String>>,
    note: Vec<Option<String>>,
}

impl ResultColumns {
    fn with_capacity(rows: usize) -> ResultColumns {
        ResultColumns {
            scenario: Vec::with_capacity(rows),
            rank: Vec::with_capacity(rows),
            op_mt: Vec::with_capacity(rows),
            emb_mt: Vec::with_capacity(rows),
            power: Vec::with_capacity(rows),
            pue: Vec::with_capacity(rows),
            util: Vec::with_capacity(rows),
            path: Vec::with_capacity(rows),
            note: Vec::with_capacity(rows),
        }
    }

    fn push(&mut self, scenario_name: &str, footprints: &[SystemFootprint]) {
        for fp in footprints {
            self.scenario.push(Some(scenario_name.to_string()));
            self.rank.push(Some(i64::from(fp.rank)));
            self.op_mt.push(fp.operational_mt());
            self.emb_mt.push(fp.embodied_mt());
            let op = fp.operational.as_ref().ok();
            self.power.push(op.map(|e| e.power_kw));
            self.pue.push(op.map(|e| e.pue));
            self.util.push(op.map(|e| e.utilization));
            self.path.push(op.map(|e| e.path.label().to_string()));
            self.note.push(match (&fp.operational, &fp.embodied) {
                (Ok(_), Ok(_)) => None,
                (Err(e), _) | (_, Err(e)) => Some(e.to_string()),
            });
        }
    }

    fn into_frame(self) -> DataFrame {
        DataFrame::new()
            .with_column("scenario", Column::Str(self.scenario))
            .and_then(|df| df.with_column("rank", Column::I64(self.rank)))
            .and_then(|df| df.with_column("operational_mt", Column::F64(self.op_mt)))
            .and_then(|df| df.with_column("embodied_mt", Column::F64(self.emb_mt)))
            .and_then(|df| df.with_column("power_kw", Column::F64(self.power)))
            .and_then(|df| df.with_column("pue", Column::F64(self.pue)))
            .and_then(|df| df.with_column("utilization", Column::F64(self.util)))
            .and_then(|df| df.with_column("power_path", Column::Str(self.path)))
            .and_then(|df| df.with_column("note", Column::Str(self.note)))
            .expect("fresh frame with equal-length columns")
    }
}

/// Columnar layout of every kept (scenario, system) result:
/// `scenario, rank, operational_mt, embodied_mt, power_kw, pue,
/// utilization, power_path, note` (nulls where not estimable). Backs
/// [`AssessmentOutput::to_frame`](crate::session::AssessmentOutput::to_frame).
pub(crate) fn slices_to_frame(slices: &[ScenarioSlice]) -> DataFrame {
    let rows: usize = slices.iter().map(|s| s.footprints.len()).sum();
    let mut cols = ResultColumns::with_capacity(rows);
    for slice in slices {
        cols.push(&slice.scenario.name, &slice.footprints);
    }
    cols.into_frame()
}

/// Columnar layout of one scenario-chunk of footprints — the same
/// `scenario, rank, …, note` schema as
/// [`AssessmentOutput::to_frame`](crate::session::AssessmentOutput::to_frame),
/// built through the same column accumulator, so serialising successive
/// chunks (in scenario-major order) reproduces the whole-output frame byte
/// for byte. This is the building block of the streaming artifact sink: a
/// streamed run hands each (scenario × chunk) block of footprints to a
/// sink, which renders it with this function and appends the rows.
pub fn footprints_frame(scenario_name: &str, footprints: &[SystemFootprint]) -> DataFrame {
    let mut cols = ResultColumns::with_capacity(footprints.len());
    cols.push(scenario_name, footprints);
    cols.into_frame()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageReport;
    use crate::scenario::{MetricBit, MetricMask, ScenarioMatrix};
    use crate::session::Assessment;
    use top500::list::Top500List;
    use top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

    fn list() -> Top500List {
        generate_full(&SyntheticConfig {
            n: 80,
            ..Default::default()
        })
    }

    #[test]
    fn matrix_shares_context_and_reports_coverage() {
        let full = list();
        let masked = mask_baseline(&full, &MaskRates::default(), 3);
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("full"))
                .with(DataScenario::masked(
                    "no-structure",
                    MetricMask::ALL
                        .without(MetricBit::Nodes)
                        .without(MetricBit::Gpus)
                        .without(MetricBit::Cpus),
                ));
        let out = Assessment::of(&masked).scenarios(&matrix).run();
        assert_eq!(out.slices().len(), 2);
        let full_slice = out.slice("full").unwrap();
        let degraded = out.slice("no-structure").unwrap();
        assert_eq!(full_slice.coverage.total, masked.len());
        // Hiding the structural metrics can only reduce coverage.
        assert!(degraded.coverage.embodied <= full_slice.coverage.embodied);
        assert!(degraded.coverage.operational <= full_slice.coverage.operational);
        // And it must reduce embodied coverage on a realistic list.
        assert!(degraded.coverage.embodied < full_slice.coverage.embodied);
    }

    #[test]
    fn override_scenario_scales_inside_stages() {
        let list = list();
        let base = Assessment::of(&list)
            .scenario(DataScenario::full("base"))
            .run()
            .into_footprints();
        let double_pue = DataScenario::full("pue2").with_overrides(OverrideSet {
            pue: Some(2.6),
            ..OverrideSet::NONE
        });
        let overridden = Assessment::of(&list)
            .scenario(double_pue)
            .run()
            .into_footprints();
        for (b, o) in base.iter().zip(&overridden) {
            if let (Ok(b), Ok(o)) = (&b.operational, &o.operational) {
                assert_eq!(o.pue, 2.6);
                let expected = b.mt_co2e / b.pue * 2.6;
                assert!((o.mt_co2e - expected).abs() < 1e-9 * expected.abs().max(1.0));
            }
        }
    }

    #[test]
    fn frame_layout_covers_every_scenario_row() {
        let list = list();
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("a"))
            .with(DataScenario::full("b"));
        let out = Assessment::of(&list).scenarios(&matrix).run();
        let df = out.to_frame();
        assert_eq!(df.len(), 2 * list.len());
        assert_eq!(df.width(), 9);
        let op = df.numeric("operational_mt").unwrap();
        let covered = op.iter().filter(|v| v.is_some()).count();
        assert_eq!(
            covered,
            out.slices()
                .iter()
                .map(|s| s.coverage.operational)
                .sum::<usize>()
        );
    }

    #[test]
    fn coverage_from_footprints_matches_estimator_construction() {
        let full = list();
        let masked = mask_baseline(&full, &MaskRates::default(), 5);
        let footprints = Assessment::of(&masked).run().into_footprints();
        let cov = CoverageReport::from_footprints(&footprints);
        assert_eq!(cov, crate::coverage::coverage(&masked));
    }
}
