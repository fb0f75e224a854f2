//! The fail-closed GHG Protocol accounting computation.

use crate::checklist::{RequiredMetric, OPERATIONAL_CHECKLIST};
use std::collections::HashMap;

/// Supplied metric values, keyed by checklist id. Values are in the natural
/// unit of each metric; the toy tabulation below only needs a consistent
/// subset, but *presence* of every required id is what the protocol checks.
#[derive(Debug, Clone, Default)]
pub struct GhgInputs {
    values: HashMap<&'static str, f64>,
}

impl GhgInputs {
    /// Empty input set.
    pub fn new() -> GhgInputs {
        GhgInputs::default()
    }

    /// Gets a metric value.
    pub(crate) fn get(&self, id: &str) -> Option<f64> {
        self.values.get(id).copied()
    }

    /// Ids from `checklist` that are not supplied.
    pub(crate) fn missing<'a>(&self, checklist: &'a [RequiredMetric]) -> Vec<&'a RequiredMetric> {
        checklist
            .iter()
            .filter(|m| !self.values.contains_key(m.id))
            .collect()
    }
}

/// Error type: the protocol refuses to estimate with gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingMetrics {
    /// Ids of the absent metrics.
    pub ids: Vec<&'static str>,
}

impl std::fmt::Display for MissingMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GHG protocol computation blocked; {} metrics missing: {}",
            self.ids.len(),
            self.ids.join(", ")
        )
    }
}

impl std::error::Error for MissingMetrics {}

/// Runs the operational (scope 1+2) tabulation. Fails closed when any
/// checklist metric is absent.
pub fn operational(inputs: &GhgInputs) -> Result<f64, MissingMetrics> {
    let missing = inputs.missing(OPERATIONAL_CHECKLIST);
    if !missing.is_empty() {
        return Err(MissingMetrics {
            ids: missing.iter().map(|m| m.id).collect(),
        });
    }
    // Simplified tabulation once everything is present: facility energy ×
    // supplier factor, minus renewable instruments, plus direct sources.
    let energy_kwh = inputs.get("metered_facility_energy_kwh_monthly").unwrap() * 12.0;
    let factor = inputs.get("grid_supplier_emission_factor_monthly").unwrap(); // kg/kWh
    let losses = 1.0 + inputs.get("grid_transmission_losses").unwrap();
    let recs_kwh = inputs.get("rec_purchases_mwh").unwrap() * 1000.0;
    let diesel_litres = inputs.get("diesel_fuel_litres").unwrap();
    let refrigerant_kg = inputs.get("refrigerant_leakage_kg").unwrap();
    let scope2 = ((energy_kwh - recs_kwh).max(0.0) * factor * losses) / 1000.0;
    let scope1 = (diesel_litres * 2.68 + refrigerant_kg * 1430.0) / 1000.0;
    Ok(scope1 + scope2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every operational metric filled with a plausible value for a site
    /// that *does* have full internal telemetry: the method works when (and
    /// only when) everything is known.
    fn fully_instrumented_example() -> GhgInputs {
        let mut inputs = GhgInputs::new();
        for m in OPERATIONAL_CHECKLIST {
            // Representative magnitudes for a mid-size (~2 MW) HPC site.
            let value = match m.id {
                "metered_it_energy_kwh_monthly" => 1.3e6,
                "metered_facility_energy_kwh_monthly" => 1.5e6,
                "grid_supplier_emission_factor_monthly" => 0.38,
                "grid_transmission_losses" => 0.05,
                "rec_purchases_mwh" => 2000.0,
                "diesel_fuel_litres" => 4000.0,
                "refrigerant_leakage_kg" => 12.0,
                _ => 1.0,
            };
            inputs.values.insert(m.id, value);
        }
        inputs
    }

    #[test]
    fn empty_inputs_fail_closed() {
        let err = operational(&GhgInputs::new()).unwrap_err();
        assert_eq!(err.ids.len(), OPERATIONAL_CHECKLIST.len());
    }

    #[test]
    fn one_missing_metric_still_fails() {
        let mut partial = fully_instrumented_example();
        partial.values.remove("refrigerant_leakage_kg");
        let err = operational(&partial).unwrap_err();
        assert_eq!(err.ids, vec!["refrigerant_leakage_kg"]);
    }

    #[test]
    fn fully_instrumented_site_gets_inventory() {
        let operational_mt = operational(&fully_instrumented_example()).unwrap();
        // Sanity: a ~2 MW site lands in the thousands of MT CO2e.
        assert!(operational_mt > 1000.0 && operational_mt < 20_000.0);
    }

    #[test]
    fn recs_reduce_scope2() {
        let base = fully_instrumented_example();
        let mut more_recs = base.clone();
        more_recs.values.insert("rec_purchases_mwh", 10_000.0);
        let a = operational(&base).unwrap();
        let b = operational(&more_recs).unwrap();
        assert!(b < a);
    }

    #[test]
    fn error_display_lists_ids() {
        let err = operational(&GhgInputs::new()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("blocked"));
        assert!(text.contains("metered_it_energy_kwh_monthly"));
    }
}
