//! The required-metric checklists of a diligent GHG Protocol computation
//! for one computer system.
//!
//! The paper: "This differs from the widely used GHG Protocol that can
//! require hundreds of metrics." We enumerate a representative (still
//! abridged!) checklist; what matters for the coverage study is its sheer
//! length and the fail-closed rule in [`crate::account`].

use crate::scopes::Scope;

/// One metric the protocol requires before an estimate can be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequiredMetric {
    /// Stable identifier.
    pub id: &'static str,
    /// Scope the metric feeds.
    pub scope: Scope,
    /// Whether any public data source ever provides it for Top500 systems.
    pub publicly_available: bool,
}

macro_rules! metric {
    ($id:literal, $scope:expr, $avail:literal) => {
        RequiredMetric {
            id: $id,
            scope: $scope,
            publicly_available: $avail,
        }
    };
}

/// Metrics required for the operational (scope 1+2) computation.
pub const OPERATIONAL_CHECKLIST: &[RequiredMetric] = &[
    metric!("metered_it_energy_kwh_monthly", Scope::Scope2, false),
    metric!("metered_facility_energy_kwh_monthly", Scope::Scope2, false),
    metric!("cooling_plant_energy_kwh", Scope::Scope2, false),
    metric!("ups_losses_kwh", Scope::Scope2, false),
    metric!("grid_supplier_emission_factor_monthly", Scope::Scope2, true),
    metric!("grid_transmission_losses", Scope::Scope2, true),
    metric!("ppa_contract_coverage", Scope::Scope2, false),
    metric!("rec_purchases_mwh", Scope::Scope2, false),
    metric!("onsite_generation_kwh", Scope::Scope1, false),
    metric!("onsite_generation_fuel_mix", Scope::Scope1, false),
    metric!("diesel_generator_runtime_hours", Scope::Scope1, false),
    metric!("diesel_fuel_litres", Scope::Scope1, false),
    metric!("refrigerant_type", Scope::Scope1, false),
    metric!("refrigerant_leakage_kg", Scope::Scope1, false),
    metric!("water_treatment_energy_kwh", Scope::Scope2, false),
    metric!("heat_reuse_credit_kwh", Scope::Scope2, false),
    metric!("workload_utilization_profile", Scope::Scope2, false),
    metric!("idle_power_fraction", Scope::Scope2, false),
    metric!("pue_measured_monthly", Scope::Scope2, false),
    metric!("maintenance_window_hours", Scope::Scope2, false),
];

/// Metrics required for the embodied (scope 3) computation.
pub const EMBODIED_CHECKLIST: &[RequiredMetric] = &[
    metric!("bom_cpu_model_counts", Scope::Scope3, true),
    metric!("bom_gpu_model_counts", Scope::Scope3, true),
    metric!("bom_dimm_inventory", Scope::Scope3, false),
    metric!("dram_fab_site_mix", Scope::Scope3, false),
    metric!("dram_fab_energy_per_gb", Scope::Scope3, false),
    metric!("nand_fab_site_mix", Scope::Scope3, false),
    metric!("cpu_die_area_per_model", Scope::Scope3, true),
    metric!("cpu_fab_process_node", Scope::Scope3, true),
    metric!("cpu_fab_yield", Scope::Scope3, false),
    metric!("cpu_fab_energy_mix", Scope::Scope3, false),
    metric!("gpu_die_area_per_model", Scope::Scope3, true),
    metric!("gpu_hbm_stack_inventory", Scope::Scope3, false),
    metric!("advanced_packaging_footprint", Scope::Scope3, false),
    metric!("pcb_layer_counts", Scope::Scope3, false),
    metric!("chassis_steel_aluminium_kg", Scope::Scope3, false),
    metric!("interconnect_switch_bom", Scope::Scope3, false),
    metric!("optical_transceiver_counts", Scope::Scope3, false),
    metric!("cable_plant_inventory", Scope::Scope3, false),
    metric!("storage_enclosure_bom", Scope::Scope3, false),
    metric!("hdd_ssd_mix_by_capacity", Scope::Scope3, false),
    metric!("supplier_emission_factors", Scope::Scope3, false),
    metric!("upstream_transport_tonne_km", Scope::Scope3, false),
    metric!("installation_site_works", Scope::Scope3, false),
    metric!("end_of_life_recycling_rates", Scope::Scope3, false),
    metric!("spares_inventory_fraction", Scope::Scope3, false),
    metric!("firmware_update_logistics", Scope::Scope3, false),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checklists_are_long() {
        // The point of the baseline: far more metrics than EasyC's 7.
        assert!(OPERATIONAL_CHECKLIST.len() + EMBODIED_CHECKLIST.len() > 40);
    }

    #[test]
    fn most_metrics_not_public() {
        let public = OPERATIONAL_CHECKLIST
            .iter()
            .chain(EMBODIED_CHECKLIST)
            .filter(|m| m.publicly_available)
            .count();
        assert!(
            public * 4 < OPERATIONAL_CHECKLIST.len() + EMBODIED_CHECKLIST.len(),
            "only a small fraction is public"
        );
    }

    #[test]
    fn ids_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in OPERATIONAL_CHECKLIST.iter().chain(EMBODIED_CHECKLIST) {
            assert!(seen.insert(m.id), "duplicate {}", m.id);
        }
    }

    #[test]
    fn scopes_consistent() {
        for m in OPERATIONAL_CHECKLIST {
            assert_ne!(m.scope, Scope::Scope3, "{} misfiled", m.id);
        }
        for m in EMBODIED_CHECKLIST {
            assert_eq!(m.scope, Scope::Scope3, "{} misfiled", m.id);
        }
    }
}
