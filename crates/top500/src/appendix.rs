//! The paper's appendix Table II, embedded as the reference dataset.
//!
//! Each row carries the operational and embodied carbon of one Top 500
//! system under the three data scenarios of the study. The transcription is
//! validated in tests against every aggregate the paper reports: scenario
//! coverage counts, totals, and the interpolation deltas.

use frame::csv;
use frame::DataFrame;

/// Raw CSV of Table II (see `data/table2.csv`). Columns:
/// `rank,name,op_t,op_p,op_i,emb_t,emb_p,emb_i` — operational/embodied MT
/// CO2e under top500.org-only, +public-info, and +interpolated scenarios.
pub(crate) const TABLE2_CSV: &str = include_str!("../data/table2.csv");

/// Carbon value of one system under the three data scenarios (MT CO2e).
///
/// Availability is monotone: `top500 ⊆ public ⊆ interpolated`, and the
/// interpolated scenario covers every system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScenarioValues {
    /// Estimate from top500.org data alone (Baseline).
    pub top500: Option<f64>,
    /// Estimate after adding other public information.
    pub public: Option<f64>,
    /// Full-coverage value after peer interpolation.
    pub interpolated: Option<f64>,
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendixRow {
    /// Top 500 rank.
    pub rank: u32,
    /// System name (a few systems are listed anonymously).
    pub name: Option<String>,
    /// Operational carbon (1 year), MT CO2e, per scenario.
    pub operational: ScenarioValues,
    /// Embodied carbon, MT CO2e, per scenario.
    pub embodied: ScenarioValues,
}

/// Parses the embedded Table II into typed rows (always 500, rank-ordered).
pub fn load() -> Vec<AppendixRow> {
    let df = csv::parse(TABLE2_CSV).expect("embedded table2.csv parses");
    frame_to_rows(&df)
}

/// Parses an arbitrary frame with the Table II schema.
pub(crate) fn frame_to_rows(df: &DataFrame) -> Vec<AppendixRow> {
    let rank = df.numeric("rank").expect("rank column");
    let op_t = df.numeric("op_t").expect("op_t column");
    let op_p = df.numeric("op_p").expect("op_p column");
    let op_i = df.numeric("op_i").expect("op_i column");
    let emb_t = df.numeric("emb_t").expect("emb_t column");
    let emb_p = df.numeric("emb_p").expect("emb_p column");
    let emb_i = df.numeric("emb_i").expect("emb_i column");
    let name_col = df.column("name").expect("name column");
    (0..df.len())
        .map(|i| AppendixRow {
            rank: rank[i].expect("rank present") as u32,
            name: match name_col.value(i) {
                frame::Value::Str(s) => Some(s),
                frame::Value::I64(v) => Some(v.to_string()),
                frame::Value::F64(v) => Some(v.to_string()),
                _ => None,
            },
            operational: ScenarioValues {
                top500: op_t[i],
                public: op_p[i],
                interpolated: op_i[i],
            },
            embodied: ScenarioValues {
                top500: emb_t[i],
                public: emb_p[i],
                interpolated: emb_i[i],
            },
        })
        .collect()
}

/// Paper-reported headline constants used for validation and EXPERIMENTS.md.
pub mod paper {
    /// Systems with operational estimates from top500.org data only.
    pub const OP_COVERAGE_TOP500: usize = 391;
    /// Systems with operational estimates after adding public info (98 %).
    pub const OP_COVERAGE_PUBLIC: usize = 490;
    /// Systems with embodied estimates from top500.org data only.
    pub const EMB_COVERAGE_TOP500: usize = 283;
    /// Systems with embodied estimates after adding public info (80.8 %).
    pub const EMB_COVERAGE_PUBLIC: usize = 404;
    /// Total operational carbon of the full interpolated list, MT CO2e.
    pub const OP_TOTAL_INTERPOLATED_MT: f64 = 1.39e6;
    /// Total embodied carbon of the full interpolated list, MT CO2e.
    pub const EMB_TOTAL_INTERPOLATED_MT: f64 = 1.88e6;
    /// Total operational carbon over the 490 covered systems, MT CO2e.
    pub const OP_TOTAL_COVERED_MT: f64 = 1.37e6;
    /// Total embodied carbon over the 404 covered systems, MT CO2e.
    pub const EMB_TOTAL_COVERED_MT: f64 = 1.53e6;
    /// Operational increase from interpolating the 10 missing systems.
    pub const OP_INTERPOLATION_DELTA: f64 = 0.0174;
    /// Embodied increase from interpolating the 96 missing systems.
    pub const EMB_INTERPOLATION_DELTA: f64 = 0.2318;
    /// Net operational change from adding public info (Fig 9), fraction.
    pub const OP_SENSITIVITY_DELTA: f64 = 0.0285;
    /// Net embodied change from adding public info, thousand MT CO2e.
    pub const EMB_SENSITIVITY_DELTA_KMT: f64 = 670.48;
    /// Annual operational growth rate used in the 2030 projection.
    pub const OP_GROWTH_PER_YEAR: f64 = 0.103;
    /// Annual embodied growth rate used in the 2030 projection.
    pub const EMB_GROWTH_PER_YEAR: f64 = 0.02;
    /// Gasoline vehicles equivalent to the operational total.
    pub const OP_VEHICLES_EQUIV: f64 = 325_000.0;
    /// Gasoline vehicles equivalent to the embodied total.
    pub const EMB_VEHICLES_EQUIV: f64 = 439_000.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count<F: Fn(&AppendixRow) -> Option<f64>>(rows: &[AppendixRow], f: F) -> usize {
        rows.iter().filter(|r| f(r).is_some()).count()
    }

    fn total<F: Fn(&AppendixRow) -> Option<f64>>(rows: &[AppendixRow], f: F) -> f64 {
        rows.iter().filter_map(f).sum()
    }

    #[test]
    fn five_hundred_rows_rank_ordered() {
        let rows = load();
        assert_eq!(rows.len(), 500);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.rank as usize, i + 1);
        }
    }

    #[test]
    fn coverage_counts_match_paper() {
        let rows = load();
        assert_eq!(
            count(&rows, |r| r.operational.top500),
            paper::OP_COVERAGE_TOP500
        );
        assert_eq!(count(&rows, |r| r.operational.interpolated), 500);
        assert_eq!(
            count(&rows, |r| r.embodied.top500),
            paper::EMB_COVERAGE_TOP500
        );
        assert_eq!(count(&rows, |r| r.embodied.interpolated), 500);
    }

    #[test]
    fn totals_match_paper_headlines() {
        let rows = load();
        let op_i = total(&rows, |r| r.operational.interpolated);
        let emb_i = total(&rows, |r| r.embodied.interpolated);
        // Paper rounds to 3 significant figures; allow 1 %.
        assert!(
            (op_i / paper::OP_TOTAL_INTERPOLATED_MT - 1.0).abs() < 0.01,
            "op_i={op_i}"
        );
        assert!(
            (emb_i / paper::EMB_TOTAL_INTERPOLATED_MT - 1.0).abs() < 0.01,
            "emb_i={emb_i}"
        );
    }

    #[test]
    fn interpolation_deltas_match_paper() {
        let rows = load();
        let op_p = total(&rows, |r| r.operational.public);
        let op_i = total(&rows, |r| r.operational.interpolated);
        let emb_p = total(&rows, |r| r.embodied.public);
        let emb_i = total(&rows, |r| r.embodied.interpolated);
        let op_delta = op_i / op_p - 1.0;
        let emb_delta = emb_i / emb_p - 1.0;
        assert!(
            (op_delta - paper::OP_INTERPOLATION_DELTA).abs() < 0.001,
            "op {op_delta}"
        );
        assert!(
            (emb_delta - paper::EMB_INTERPOLATION_DELTA).abs() < 0.001,
            "emb {emb_delta}"
        );
    }

    #[test]
    fn availability_is_monotone() {
        for row in load() {
            for sv in [&row.operational, &row.embodied] {
                if sv.top500.is_some() {
                    assert!(sv.public.is_some(), "rank {} lost public value", row.rank);
                }
                if sv.public.is_some() {
                    assert!(
                        sv.interpolated.is_some(),
                        "rank {} lost interp value",
                        row.rank
                    );
                    assert_eq!(sv.public, sv.interpolated, "rank {}", row.rank);
                }
            }
        }
    }

    #[test]
    fn interpolated_only_counts() {
        let rows = load();
        let interpolated_only =
            |sv: &ScenarioValues| sv.public.or(sv.top500).is_none() && sv.interpolated.is_some();
        let op_only = rows
            .iter()
            .filter(|r| interpolated_only(&r.operational))
            .count();
        let emb_only = rows
            .iter()
            .filter(|r| interpolated_only(&r.embodied))
            .count();
        assert_eq!(op_only, 10); // "adding the missing 10 systems"
        assert_eq!(emb_only, 96); // "adding the missing 96 systems"
    }

    #[test]
    fn named_examples_present() {
        let rows = load();
        let frontier = rows
            .iter()
            .find(|r| r.name.as_deref() == Some("Frontier"))
            .unwrap();
        assert_eq!(frontier.rank, 2);
        assert_eq!(frontier.embodied.public, Some(133225.0));
        let lumi = rows
            .iter()
            .find(|r| r.name.as_deref() == Some("LUMI"))
            .unwrap();
        let leonardo = rows
            .iter()
            .find(|r| r.name.as_deref() == Some("Leonardo"))
            .unwrap();
        // Paper: 4.3x operational difference between LUMI and Leonardo.
        let ratio = leonardo.operational.public.unwrap() / lumi.operational.public.unwrap();
        assert!((ratio - 4.3).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn frontier_vs_el_capitan_embodied_ratio() {
        // Paper: Frontier embodied 2.6x higher than El Capitan.
        let rows = load();
        let frontier = rows
            .iter()
            .find(|r| r.name.as_deref() == Some("Frontier"))
            .unwrap();
        let el_capitan = rows
            .iter()
            .find(|r| r.name.as_deref() == Some("El Capitan"))
            .unwrap();
        let ratio = frontier.embodied.public.unwrap() / el_capitan.embodied.public.unwrap();
        assert!((ratio - 2.6).abs() < 0.1, "ratio {ratio}");
    }
}
