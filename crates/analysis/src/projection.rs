//! Projections of the Top 500 footprint through 2030 (Figures 10 and 11).
//!
//! The paper derives growth from list turnover: "An average of 48 systems
//! was added to each new list in each cycle, over the past two years. With
//! this turnover comes a 5 % increase in operational carbon, and 1 %
//! increase in embodied. Annualized, this is 10.3 % growth in operational
//! and 2 % growth in embodied carbon." (Two lists per year.)

/// Lists published per year.
pub(crate) const CYCLES_PER_YEAR: f64 = 2.0;

/// Systems replaced per cycle (paper's observed turnover).
pub const SYSTEMS_ADDED_PER_CYCLE: f64 = 48.0;

/// Operational carbon growth per cycle.
pub const OP_GROWTH_PER_CYCLE: f64 = 0.05;

/// Embodied carbon growth per cycle.
pub const EMB_GROWTH_PER_CYCLE: f64 = 0.01;

/// Base year of the projection.
pub(crate) const BASE_YEAR: u32 = 2024;

/// Final projected year.
pub(crate) const END_YEAR: u32 = 2030;

/// Annualises a per-cycle growth rate: `(1+r)^cycles − 1`.
pub fn annualized(cycle_growth: f64) -> f64 {
    (1.0 + cycle_growth).powf(CYCLES_PER_YEAR) - 1.0
}

/// One projected year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedYear {
    /// Calendar year.
    pub year: u32,
    /// Projected value (MT CO2e for carbon; PFlops/kMT for ratios).
    pub value: f64,
}

/// A named projection series.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionSeries {
    /// Series label.
    pub label: String,
    /// Year/value points, base year first.
    pub points: Vec<ProjectedYear>,
}

impl ProjectionSeries {
    /// Ratio of the final to the first value.
    pub fn overall_growth(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) if first.value != 0.0 => last.value / first.value,
            _ => f64::NAN,
        }
    }
}

/// Geometric projection from `base` at `annual_rate` over the study years.
pub(crate) fn project(label: &str, base: f64, annual_rate: f64) -> ProjectionSeries {
    let points = (BASE_YEAR..=END_YEAR)
        .map(|year| ProjectedYear {
            year,
            value: base * (1.0 + annual_rate).powi((year - BASE_YEAR) as i32),
        })
        .collect();
    ProjectionSeries {
        label: label.to_string(),
        points,
    }
}

/// The full Figure 10 projection pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// Operational carbon series (Figure 10a), MT CO2e.
    pub operational: ProjectionSeries,
    /// Embodied carbon series (Figure 10b), MT CO2e.
    pub embodied: ProjectionSeries,
}

/// Builds Figure 10 from base-year totals using the turnover-derived rates.
pub(crate) fn figure10(op_total_2024_mt: f64, emb_total_2024_mt: f64) -> Projection {
    Projection {
        operational: project(
            "Operational Carbon (projected)",
            op_total_2024_mt,
            annualized(OP_GROWTH_PER_CYCLE),
        ),
        embodied: project(
            "Embodied Carbon (projected)",
            emb_total_2024_mt,
            annualized(EMB_GROWTH_PER_CYCLE),
        ),
    }
}

/// Figure 11: performance-to-carbon ratio, projected and ideal.
///
/// The paper reports the projected ratio improving at ≈0.2 PFlop/s per
/// thousand MT CO2e per year — dramatically slower than the Dennard-era
/// ideal of 2× every 18 months (plotted for comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPerCarbon {
    /// Projected ratio series, PFlops per kMT CO2e.
    pub projected: ProjectionSeries,
    /// Ideal Dennard-scaling series from the same base.
    pub ideal: ProjectionSeries,
}

/// Annual linear improvement of the projected ratio (paper §IV-C).
pub(crate) const RATIO_LINEAR_GROWTH_PER_YEAR: f64 = 0.2;

/// Builds one panel of Figure 11 from the 2024 list performance and carbon.
pub(crate) fn figure11(total_pflops_2024: f64, carbon_kmt_2024: f64) -> PerfPerCarbon {
    let base_ratio = total_pflops_2024 / carbon_kmt_2024;
    let projected = ProjectionSeries {
        label: "Projected".to_string(),
        points: (BASE_YEAR..=END_YEAR)
            .map(|year| ProjectedYear {
                year,
                value: base_ratio + RATIO_LINEAR_GROWTH_PER_YEAR * f64::from(year - BASE_YEAR),
            })
            .collect(),
    };
    let ideal = ProjectionSeries {
        label: "Ideal".to_string(),
        points: (BASE_YEAR..=END_YEAR)
            .map(|year| ProjectedYear {
                year,
                value: base_ratio * 2.0_f64.powf(f64::from(year - BASE_YEAR) / 1.5),
            })
            .collect(),
    };
    PerfPerCarbon { projected, ideal }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annualized_matches_paper_rates() {
        // 5 %/cycle → 10.25 % ≈ paper's 10.3 %/yr.
        assert!((annualized(OP_GROWTH_PER_CYCLE) - 0.103).abs() < 0.001);
        // 1 %/cycle → 2.01 % ≈ paper's 2 %/yr.
        assert!((annualized(EMB_GROWTH_PER_CYCLE) - 0.0201).abs() < 0.001);
    }

    #[test]
    fn operational_nearly_doubles_by_2030() {
        // Paper: "By 2030, Top 500's operational carbon is nearly double
        // that of 2024" (1.8×).
        let p = figure10(1.39e6, 1.88e6);
        let growth = p.operational.overall_growth();
        assert!((growth - 1.8).abs() < 0.05, "growth {growth}");
    }

    #[test]
    fn embodied_reaches_1_1x() {
        let p = figure10(1.39e6, 1.88e6);
        let growth = p.embodied.overall_growth();
        assert!((growth - 1.13).abs() < 0.03, "growth {growth}");
    }

    #[test]
    fn seven_points_2024_to_2030() {
        let p = figure10(1.0, 1.0);
        assert_eq!(p.operational.points.len(), 7);
        assert_eq!(p.operational.points[0].year, 2024);
        assert_eq!(p.operational.points[6].year, 2030);
    }

    #[test]
    fn ideal_dwarfs_projected_by_2030() {
        // The gap between Dennard-ideal and reality is the figure's point:
        // ideal is 2^(6/1.5) = 16x by 2030; projected is only slightly up.
        let panel = figure11(11_700.0, 1393.7);
        let base = panel.projected.points[0].value;
        let ideal_2030 = panel.ideal.points[6].value;
        let proj_2030 = panel.projected.points[6].value;
        assert!((ideal_2030 / base - 16.0).abs() < 0.01);
        assert!(proj_2030 < base * 1.3);
        assert!(ideal_2030 > proj_2030 * 10.0);
    }

    #[test]
    fn projected_ratio_grows_linearly() {
        let panel = figure11(11_700.0, 1393.7);
        let base = panel.projected.points[0].value;
        let next = panel.projected.points[1].value;
        assert!((next - base - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ratio_growth_cannot_offset_total_growth() {
        // Paper: "the current increase in performance / unit carbon is not
        // sufficient to compensate for the rapid growth in the use of
        // computing" — total carbon still rises 10.3 %/yr.
        let p = figure10(1.39e6, 1.88e6);
        for pair in p.operational.points.windows(2) {
            assert!(pair[1].value > pair[0].value);
        }
    }
}
