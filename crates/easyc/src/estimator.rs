//! The public EasyC facade: estimate one system or a whole list.
//!
//! Single-system assessment and the session engine share one code path
//! (`crate::batch::assess_one`): configuration overrides are applied
//! *inside* the estimators, never by rescaling finished estimates.

use crate::batch::assess_one;
use crate::embodied::EmbodiedEstimate;
use crate::error::Result;
use crate::metrics::SevenMetrics;
use crate::operational::OperationalEstimate;
use crate::scenario::{DataScenario, OverrideSet};
use top500::record::SystemRecord;

/// Tool configuration.
#[derive(Debug, Clone, Copy)]
pub struct EasyCConfig {
    /// Override the PUE prior for every site (e.g. a site that knows its
    /// own PUE — the "gentle slope" extra metric).
    pub pue_override: Option<f64>,
    /// Override the utilisation prior.
    pub utilization_override: Option<f64>,
    /// System lifetime for annualising embodied carbon, years.
    pub lifetime_years: f64,
    /// Worker threads used by the [`crate::session::Assessment`] session.
    pub workers: usize,
}

impl Default for EasyCConfig {
    fn default() -> EasyCConfig {
        EasyCConfig {
            pue_override: None,
            utilization_override: None,
            lifetime_years: 5.0,
            workers: parallel::default_workers(),
        }
    }
}

impl EasyCConfig {
    /// The configuration's overrides as a scenario [`OverrideSet`].
    pub(crate) fn overrides(&self) -> OverrideSet {
        OverrideSet {
            pue: self.pue_override,
            utilization: self.utilization_override,
            aci_g_per_kwh: None,
        }
    }
}

/// Both footprints of one system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemFootprint {
    /// Rank of the assessed system.
    pub rank: u32,
    /// Operational result (Err = not coverable under this data).
    pub operational: Result<OperationalEstimate>,
    /// Embodied result.
    pub embodied: Result<EmbodiedEstimate>,
}

impl SystemFootprint {
    /// Operational MT CO2e when estimable.
    pub fn operational_mt(&self) -> Option<f64> {
        self.operational.as_ref().ok().map(|e| e.mt_co2e)
    }

    /// Embodied MT CO2e when estimable.
    pub fn embodied_mt(&self) -> Option<f64> {
        self.embodied.as_ref().ok().map(|e| e.mt_co2e)
    }
}

/// The EasyC tool.
#[derive(Debug, Clone, Default)]
pub struct EasyC {
    config: EasyCConfig,
}

impl EasyC {
    /// Tool with default priors.
    pub fn new() -> EasyC {
        EasyC::default()
    }

    /// Tool with custom configuration.
    pub fn with_config(config: EasyCConfig) -> EasyC {
        EasyC { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EasyCConfig {
        &self.config
    }

    /// The scenario implied by this configuration (full data visibility,
    /// with the configured PUE/utilisation overrides).
    fn default_scenario(&self) -> DataScenario {
        DataScenario::full("default").with_overrides(self.config.overrides())
    }

    /// Assesses one system. Configuration overrides are applied inside the
    /// estimators — in particular the utilisation override now applies even
    /// when the estimated utilisation is exactly 1.0 (the seed's rescaling
    /// hack silently skipped that case).
    pub fn assess(&self, record: &SystemRecord) -> SystemFootprint {
        self.assess_scenario(record, &self.default_scenario())
    }

    /// Assesses one system under an explicit data scenario. Scenario
    /// overrides take precedence over configuration overrides.
    pub fn assess_scenario(
        &self,
        record: &SystemRecord,
        scenario: &DataScenario,
    ) -> SystemFootprint {
        let metrics = SevenMetrics::extract(record);
        let effective = DataScenario {
            name: scenario.name.clone(),
            mask: scenario.mask,
            overrides: scenario.overrides.or(self.config.overrides()),
        };
        assess_one(record, &metrics, &effective)
    }

    /// Annualised embodied carbon of a footprint, MT CO2e/yr.
    pub fn annualized_embodied_mt(&self, footprint: &SystemFootprint) -> Option<f64> {
        footprint
            .embodied_mt()
            .map(|mt| mt / self.config.lifetime_years)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use top500::synthetic::{generate_full, SyntheticConfig};

    #[test]
    fn session_list_assessment_matches_serial() {
        let list = generate_full(&SyntheticConfig {
            n: 64,
            ..Default::default()
        });
        let tool = EasyC::new();
        let par = crate::session::Assessment::of(&list)
            .config(*tool.config())
            .run()
            .into_footprints();
        let ser: Vec<_> = list.systems().iter().map(|s| tool.assess(s)).collect();
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.operational_mt(), s.operational_mt());
            assert_eq!(p.embodied_mt(), s.embodied_mt());
        }
    }

    #[test]
    fn pue_override_scales_operational() {
        let list = generate_full(&SyntheticConfig {
            n: 4,
            ..Default::default()
        });
        let sys = &list.systems()[0];
        let base = EasyC::new().assess(sys).operational_mt().unwrap();
        let tool = EasyC::with_config(EasyCConfig {
            pue_override: Some(2.0),
            ..Default::default()
        });
        let doubled = tool.assess(sys).operational_mt().unwrap();
        assert!(doubled > base);
    }

    #[test]
    fn annualized_embodied_divides_by_lifetime() {
        let list = generate_full(&SyntheticConfig {
            n: 1,
            ..Default::default()
        });
        let tool = EasyC::new();
        let fp = tool.assess(&list.systems()[0]);
        let total = fp.embodied_mt().unwrap();
        let annual = tool.annualized_embodied_mt(&fp).unwrap();
        assert!((annual - total / 5.0).abs() < 1e-9);
    }

    #[test]
    fn footprint_accessors() {
        let list = generate_full(&SyntheticConfig {
            n: 1,
            ..Default::default()
        });
        let fp = EasyC::new().assess(&list.systems()[0]);
        assert_eq!(fp.rank, 1);
        assert!(fp.operational_mt().unwrap() > 0.0);
        assert!(fp.embodied_mt().unwrap() > 0.0);
    }
}
