//! Totals, averages and real-world equivalences (paper §IV-B).

/// Annual emissions of one gasoline passenger vehicle, MT CO2e. Calibrated
/// to the paper's own equivalences: 1.39 M MT ↔ 325 k vehicles and
/// 1.88 M MT ↔ 439 k vehicles both give ≈ 4.28 MT/vehicle (≈ 400 g/mile ×
/// 10,700 miles).
pub(crate) const VEHICLE_MT_PER_YEAR: f64 = 4.28;

/// Grams CO2e per vehicle mile (EPA passenger-fleet average).
pub(crate) const GRAMS_PER_VEHICLE_MILE: f64 = 400.0;

/// Annual electricity emissions of a typical home, MT CO2e.
pub(crate) const HOME_MT_PER_YEAR: f64 = 4.0;

/// Empty (and vectorised) float reductions can legally yield `-0.0` — the
/// additive identity LLVM uses for fadd reductions — which then renders as
/// `-0` in reports. Collapse it to positive zero.
fn normalize_zero(total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        total
    }
}

/// Totals over a carbon series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Number of systems contributing.
    pub count: usize,
    /// Total, MT CO2e.
    pub total_mt: f64,
    /// Mean per system, MT CO2e.
    pub mean_mt: f64,
}

impl Aggregate {
    /// Aggregates the present values of a series.
    pub(crate) fn of(values: &[Option<f64>]) -> Aggregate {
        let present: Vec<f64> = values.iter().flatten().copied().collect();
        let total = normalize_zero(present.iter().sum());
        Aggregate {
            count: present.len(),
            total_mt: total,
            mean_mt: if present.is_empty() {
                0.0
            } else {
                total / present.len() as f64
            },
        }
    }

    /// Builds an aggregate from an already-folded `(count, total)` pair —
    /// the entry point for streamed sessions, whose running totals repeat
    /// the exact sum [`Aggregate::of`] would compute. Applies the same
    /// zero normalisation and empty-mean policy as the series
    /// constructors, so the two paths share one policy.
    pub(crate) fn from_sum(count: usize, total: f64) -> Aggregate {
        let total = normalize_zero(total);
        Aggregate {
            count,
            total_mt: total,
            mean_mt: if count == 0 {
                0.0
            } else {
                total / count as f64
            },
        }
    }

    /// Real-world equivalences for the total.
    pub fn equivalences(&self) -> Equivalences {
        Equivalences::of_mt(self.total_mt)
    }
}

/// Real-world framing of a carbon quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Equivalences {
    /// Gasoline vehicles driven for one year.
    pub vehicles: f64,
    /// Vehicle miles driven.
    pub vehicle_miles: f64,
    /// Homes' annual electricity use.
    pub homes: f64,
}

impl Equivalences {
    /// Equivalences of `mt` MT CO2e.
    pub fn of_mt(mt: f64) -> Equivalences {
        Equivalences {
            vehicles: mt / VEHICLE_MT_PER_YEAR,
            vehicle_miles: mt * 1.0e6 / GRAMS_PER_VEHICLE_MILE,
            homes: mt / HOME_MT_PER_YEAR,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_skips_missing() {
        let agg = Aggregate::of(&[Some(10.0), None, Some(30.0)]);
        assert_eq!(agg.count, 2);
        assert_eq!(agg.total_mt, 40.0);
        assert_eq!(agg.mean_mt, 20.0);
    }

    #[test]
    fn empty_aggregate() {
        let agg = Aggregate::of(&[None, None]);
        assert_eq!(agg.count, 0);
        assert_eq!(agg.mean_mt, 0.0);
    }

    #[test]
    fn paper_operational_vehicle_equivalence() {
        // 1.39 M MT CO2e ↔ ≈ 325 k vehicles (paper abstract).
        let eq = Equivalences::of_mt(1.39e6);
        assert!(
            (eq.vehicles / 325_000.0 - 1.0).abs() < 0.01,
            "{}",
            eq.vehicles
        );
        // and ≈ 3.5 billion vehicle miles.
        assert!(
            (eq.vehicle_miles / 3.5e9 - 1.0).abs() < 0.01,
            "{}",
            eq.vehicle_miles
        );
    }

    #[test]
    fn paper_embodied_vehicle_equivalence() {
        // 1.88 M MT CO2e ↔ ≈ 439 k vehicles and ≈ 4.8 G passenger miles.
        let eq = Equivalences::of_mt(1.88e6);
        assert!(
            (eq.vehicles / 439_000.0 - 1.0).abs() < 0.01,
            "{}",
            eq.vehicles
        );
        assert!(
            (eq.vehicle_miles / 4.8e9 - 1.0).abs() < 0.03,
            "{}",
            eq.vehicle_miles
        );
    }

    #[test]
    fn average_system_is_thousands_of_homes_scale() {
        // Fig 8b caption: each system averages thousands of MT CO2e,
        // "comparable to that of thousands of homes".
        let rows = top500::appendix::load();
        let op: Vec<Option<f64>> = rows.iter().map(|r| r.operational.interpolated).collect();
        let agg = Aggregate::of(&op);
        let homes_per_system = Equivalences::of_mt(agg.mean_mt).homes;
        assert!(
            homes_per_system > 300.0 && homes_per_system < 3000.0,
            "{homes_per_system}"
        );
    }

    #[test]
    fn appendix_totals_and_averages_fig7() {
        // Fig 7: totals 1.37 M (covered) → 1.39 M (interpolated) operational;
        // 1.53 M → 1.88 M embodied. Averages in the low thousands.
        let rows = top500::appendix::load();
        let op_p: Vec<Option<f64>> = rows.iter().map(|r| r.operational.public).collect();
        let op_i: Vec<Option<f64>> = rows.iter().map(|r| r.operational.interpolated).collect();
        let emb_p: Vec<Option<f64>> = rows.iter().map(|r| r.embodied.public).collect();
        let emb_i: Vec<Option<f64>> = rows.iter().map(|r| r.embodied.interpolated).collect();
        let (a, b, c, d) = (
            Aggregate::of(&op_p),
            Aggregate::of(&op_i),
            Aggregate::of(&emb_p),
            Aggregate::of(&emb_i),
        );
        assert_eq!((a.count, b.count, c.count, d.count), (490, 500, 404, 500));
        assert!(b.total_mt > a.total_mt);
        assert!(d.total_mt > c.total_mt);
        assert!((b.mean_mt - 2787.0).abs() < 10.0, "{}", b.mean_mt);
        assert!((d.mean_mt - 3764.0).abs() < 10.0, "{}", d.mean_mt);
    }
}
