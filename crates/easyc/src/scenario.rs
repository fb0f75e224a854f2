//! Composable data-availability scenarios.
//!
//! The study's original `Scenario` enum hard-codes two data situations
//! (top500.org only, + public info). Real assessment questions are richer:
//! *what if nobody reports measured power?* *what if a site knows its PUE?*
//! *what if the grid intensity is contracted renewable?* This module
//! generalises the enum into data:
//!
//! - [`MetricMask`]: a bitmask over the assessment inputs (the seven
//!   metrics, the optional refinements, measured power and site location).
//!   Masked inputs are treated as unreported.
//! - [`OverrideSet`]: values substituted *inside* the estimators (PUE,
//!   utilisation, grid intensity) — replacing the seed's post-hoc rescaling
//!   hack.
//! - [`DataScenario`]: a named `(mask, overrides)` pair.
//! - [`ScenarioMatrix`]: an ordered collection of scenarios, assessable in
//!   one interleaved pass by [`crate::session::Assessment`], loadable from
//!   CSV for the `sweep` CLI command.

use crate::metrics::SevenMetrics;
use frame::{csv, FrameError};
use std::collections::HashSet;
use top500::record::SystemRecord;

/// The scenario matrix CSV's columns, in the order
/// [`ScenarioMatrix::from_csv`] reads them.
const MATRIX_COLUMNS: [&str; 5] = [
    "name",
    "mask",
    "pue_override",
    "utilization_override",
    "aci_override",
];

/// One assessment input that a scenario can mask out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricBit {
    /// Year the system entered operation.
    OperationYear,
    /// Number of compute nodes.
    Nodes,
    /// Number of accelerator devices.
    Gpus,
    /// Number of CPU sockets (including the derived count).
    Cpus,
    /// Memory capacity.
    MemoryGb,
    /// Memory technology string.
    MemoryType,
    /// SSD capacity.
    SsdGb,
    /// Measured annual energy (optional refinement).
    AnnualEnergy,
    /// Average utilisation (optional refinement).
    Utilization,
    /// Measured LINPACK power.
    PowerKw,
    /// Site location (country and region; grid falls to the world prior).
    Location,
}

impl MetricBit {
    /// All maskable inputs, in bit order.
    pub(crate) const ALL: [MetricBit; 11] = [
        MetricBit::OperationYear,
        MetricBit::Nodes,
        MetricBit::Gpus,
        MetricBit::Cpus,
        MetricBit::MemoryGb,
        MetricBit::MemoryType,
        MetricBit::SsdGb,
        MetricBit::AnnualEnergy,
        MetricBit::Utilization,
        MetricBit::PowerKw,
        MetricBit::Location,
    ];

    /// Spec-string token (used by [`MetricMask::parse`]).
    pub(crate) fn token(self) -> &'static str {
        match self {
            MetricBit::OperationYear => "year",
            MetricBit::Nodes => "nodes",
            MetricBit::Gpus => "gpus",
            MetricBit::Cpus => "cpus",
            MetricBit::MemoryGb => "memory",
            MetricBit::MemoryType => "memtype",
            MetricBit::SsdGb => "ssd",
            MetricBit::AnnualEnergy => "energy",
            MetricBit::Utilization => "util",
            MetricBit::PowerKw => "power",
            MetricBit::Location => "location",
        }
    }

    fn from_token(token: &str) -> Option<MetricBit> {
        MetricBit::ALL.iter().copied().find(|b| b.token() == token)
    }

    const fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// Which assessment inputs a scenario can see. A set bit means *visible*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricMask(u16);

impl Default for MetricMask {
    fn default() -> MetricMask {
        MetricMask::ALL
    }
}

impl MetricMask {
    /// Every input visible (the ground-truth scenario).
    pub const ALL: MetricMask = MetricMask((1 << MetricBit::ALL.len()) - 1);

    /// No input visible.
    pub const NONE: MetricMask = MetricMask(0);

    /// Mask from raw bits (extra bits are discarded).
    pub fn from_bits(bits: u16) -> MetricMask {
        MetricMask(bits & MetricMask::ALL.0)
    }

    /// True when `bit`'s input is visible.
    pub(crate) fn contains(self, bit: MetricBit) -> bool {
        self.0 & bit.bit() != 0
    }

    /// Copy with `bit` visible.
    pub(crate) fn with(self, bit: MetricBit) -> MetricMask {
        MetricMask(self.0 | bit.bit())
    }

    /// Copy with `bit` hidden.
    pub fn without(self, bit: MetricBit) -> MetricMask {
        MetricMask(self.0 & !bit.bit())
    }

    /// Inputs visible in either mask.
    pub fn union(self, other: MetricMask) -> MetricMask {
        MetricMask(self.0 | other.0)
    }

    /// Inputs visible in both masks.
    pub fn intersect(self, other: MetricMask) -> MetricMask {
        MetricMask(self.0 & other.0)
    }

    /// Inputs hidden by this mask.
    pub fn complement(self) -> MetricMask {
        MetricMask(!self.0 & MetricMask::ALL.0)
    }

    /// Parses a spec string: whitespace-separated tokens starting from
    /// `all` or `none`, with `-token` hiding and `+token`/`token` showing
    /// an input, e.g. `"all -power -energy"` or `"none +nodes +gpus"`.
    pub fn parse(spec: &str) -> Result<MetricMask, String> {
        let mut tokens = spec.split_whitespace();
        let mut mask = match tokens.next() {
            Some("all") | None => MetricMask::ALL,
            Some("none") => MetricMask::NONE,
            Some(other) => {
                // Allow starting directly with +/- tokens (implies `all`).
                let mut m = MetricMask::ALL;
                m = apply_token(m, other)?;
                m
            }
        };
        for token in tokens {
            mask = apply_token(mask, token)?;
        }
        Ok(mask)
    }

    /// Canonical spec string; `parse` round-trips it.
    pub fn to_spec(self) -> String {
        let hidden: Vec<&str> = MetricBit::ALL
            .iter()
            .filter(|b| !self.contains(**b))
            .map(|b| b.token())
            .collect();
        if hidden.is_empty() {
            return "all".to_string();
        }
        if hidden.len() == MetricBit::ALL.len() {
            return "none".to_string();
        }
        if hidden.len() > MetricBit::ALL.len() / 2 {
            let visible: Vec<String> = MetricBit::ALL
                .iter()
                .filter(|b| self.contains(**b))
                .map(|b| format!("+{}", b.token()))
                .collect();
            format!("none {}", visible.join(" "))
        } else {
            let hidden: Vec<String> = hidden.iter().map(|t| format!("-{t}")).collect();
            format!("all {}", hidden.join(" "))
        }
    }

    /// The masked view of a record's extracted metrics.
    pub fn apply_metrics(self, record: &SystemRecord, metrics: &SevenMetrics) -> SevenMetrics {
        let mut out = metrics.clone();
        if !self.contains(MetricBit::OperationYear) {
            out.operation_year = None;
        }
        if !self.contains(MetricBit::Nodes) {
            out.nodes = None;
        }
        if !self.contains(MetricBit::Gpus) {
            // Hiding the device count leaves CPU-only systems trivially
            // known (zero accelerators), matching `SevenMetrics::extract`.
            out.gpus = if record.has_accelerator() {
                None
            } else {
                Some(0)
            };
        }
        if !self.contains(MetricBit::Cpus) {
            out.cpus = None;
        }
        if !self.contains(MetricBit::MemoryGb) {
            out.memory_gb = None;
        }
        if !self.contains(MetricBit::MemoryType) {
            out.memory_type = None;
        }
        if !self.contains(MetricBit::SsdGb) {
            out.ssd_gb = None;
        }
        if !self.contains(MetricBit::AnnualEnergy) {
            out.annual_energy_mwh = None;
        }
        if !self.contains(MetricBit::Utilization) {
            out.utilization = None;
        }
        out
    }

    /// The masked view of the non-metric record inputs (measured power and
    /// location). Metric fields are untouched — estimators read them
    /// through [`MetricMask::apply_metrics`].
    pub fn apply_record(self, record: &SystemRecord) -> SystemRecord {
        let mut out = record.clone();
        if !self.contains(MetricBit::PowerKw) {
            out.power_kw = None;
        }
        if !self.contains(MetricBit::Location) {
            out.country = None;
            out.region = None;
        }
        out
    }
}

fn apply_token(mask: MetricMask, token: &str) -> Result<MetricMask, String> {
    let (hide, name) = match token.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, token.strip_prefix('+').unwrap_or(token)),
    };
    let bit = MetricBit::from_token(name)
        .ok_or_else(|| format!("unknown metric token `{name}` in mask spec"))?;
    Ok(if hide {
        mask.without(bit)
    } else {
        mask.with(bit)
    })
}

/// Values substituted inside the estimators, replacing priors (and, for
/// utilisation and PUE, any record-reported value). These apply *during*
/// estimation — there is no post-hoc rescaling.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverrideSet {
    /// Force this PUE for every site.
    pub pue: Option<f64>,
    /// Force this utilisation wherever a utilisation factor applies
    /// (never on the measured-energy path, which already includes load).
    pub utilization: Option<f64>,
    /// Force this grid carbon intensity, gCO2e/kWh (e.g. a contracted
    /// renewable supply).
    pub aci_g_per_kwh: Option<f64>,
}

impl OverrideSet {
    /// No overrides: priors and record data apply.
    pub const NONE: OverrideSet = OverrideSet {
        pue: None,
        utilization: None,
        aci_g_per_kwh: None,
    };

    /// This set, with unset fields filled from `fallback`.
    pub(crate) fn or(self, fallback: OverrideSet) -> OverrideSet {
        OverrideSet {
            pue: self.pue.or(fallback.pue),
            utilization: self.utilization.or(fallback.utilization),
            aci_g_per_kwh: self.aci_g_per_kwh.or(fallback.aci_g_per_kwh),
        }
    }
}

/// A named data scenario: which inputs are visible and which priors are
/// overridden.
#[derive(Debug, Clone, PartialEq)]
pub struct DataScenario {
    /// Display name.
    pub name: String,
    /// Input visibility.
    pub mask: MetricMask,
    /// Prior substitutions.
    pub overrides: OverrideSet,
}

impl DataScenario {
    /// Scenario with everything visible and no overrides.
    pub fn full(name: impl Into<String>) -> DataScenario {
        DataScenario {
            name: name.into(),
            mask: MetricMask::ALL,
            overrides: OverrideSet::NONE,
        }
    }

    /// Scenario with a custom mask and no overrides.
    pub fn masked(name: impl Into<String>, mask: MetricMask) -> DataScenario {
        DataScenario {
            name: name.into(),
            mask,
            overrides: OverrideSet::NONE,
        }
    }

    /// Builder: sets the override set.
    pub fn with_overrides(mut self, overrides: OverrideSet) -> DataScenario {
        self.overrides = overrides;
        self
    }
}

/// An ordered set of scenarios to assess in one batch pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioMatrix {
    scenarios: Vec<DataScenario>,
}

impl ScenarioMatrix {
    /// Empty matrix.
    pub fn new() -> ScenarioMatrix {
        ScenarioMatrix::default()
    }

    /// Matrix holding the given scenarios.
    pub(crate) fn from_scenarios(scenarios: Vec<DataScenario>) -> ScenarioMatrix {
        ScenarioMatrix { scenarios }
    }

    /// Appends a scenario (builder style).
    pub fn with(mut self, scenario: DataScenario) -> ScenarioMatrix {
        self.scenarios.push(scenario);
        self
    }

    /// Appends a scenario.
    pub fn push(&mut self, scenario: DataScenario) {
        self.scenarios.push(scenario);
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when the matrix has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The scenarios, in assessment order.
    pub fn scenarios(&self) -> &[DataScenario] {
        &self.scenarios
    }

    /// Parses a scenario matrix from CSV text with columns
    /// `name,mask[,pue_override][,utilization_override][,aci_override]`
    /// (other columns are ignored; a repeated one is an error). Names are
    /// taken verbatim, and a repeated name is an error naming it (a lookup
    /// by name would see only the first). `mask` uses the
    /// [`MetricMask::parse`] spec syntax
    /// (empty means `all`); an empty override cell leaves the prior in
    /// place, and any other cell that is not a finite number (`NaN`, `inf`,
    /// a literal that overflows `f64`, a word) is an error naming the
    /// scenario and the column.
    pub fn from_csv(text: &str) -> Result<ScenarioMatrix, String> {
        let mut records = csv::Tokenizer::new(text.as_bytes());
        let Some(first) = records.next_record().map_err(|e| e.to_string())? else {
            return Err(FrameError::UnknownColumn("name".into()).to_string());
        };
        let header = csv::Header::map(&first, &MATRIX_COLUMNS).map_err(|e| e.to_string())?;
        for required in ["name", "mask"] {
            if !header.has(required) {
                return Err(FrameError::UnknownColumn(required.into()).to_string());
            }
        }
        let mut scenarios = Vec::new();
        let mut names = HashSet::new();
        while let Some(record) = records.next_record().map_err(|e| e.to_string())? {
            let [name, mask, pue, utilization, aci] =
                header.cells(&record).map_err(|e| e.to_string())?;
            if !names.insert(name.to_string()) {
                return Err(format!("scenario `{name}` is repeated"));
            }
            let mask = MetricMask::parse(mask).map_err(|e| format!("scenario `{name}`: {e}"))?;
            let value = |column: &str, cell: &str| {
                if cell.is_empty() {
                    return Ok(None);
                }
                csv::number(cell).map(Some).ok_or_else(|| {
                    format!("scenario `{name}`: {column} `{cell}` is not a finite number")
                })
            };
            let overrides = OverrideSet {
                pue: value("pue_override", pue)?,
                utilization: value("utilization_override", utilization)?,
                aci_g_per_kwh: value("aci_override", aci)?,
            };
            scenarios.push(DataScenario {
                name: name.to_string(),
                mask,
                overrides,
            });
        }
        Ok(ScenarioMatrix { scenarios })
    }

    /// CSV template for the `sweep` command.
    pub fn csv_template() -> String {
        "name,mask,pue_override,utilization_override,aci_override\n\
         full,all,,,\n\
         no-power,all -power -energy,,,\n\
         no-structure,all -nodes -gpus -cpus,,,\n\
         site-pue,all,1.1,,\n\
         clean-grid,all,,,50\n"
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accelerated() -> SystemRecord {
        let mut r = SystemRecord::bare(7, 90_000.0, 120_000.0);
        r.country = Some("United States".into());
        r.processor = Some("AMD EPYC 7763 64C 2.45GHz".into());
        r.accelerator = Some("NVIDIA A100 SXM4 80GB".into());
        r.accelerator_count = Some(4000);
        r.node_count = Some(1000);
        r.total_cores = Some(128_000);
        r.power_kw = Some(5_000.0);
        r.memory_gb = Some(512_000.0);
        r.utilization = Some(0.8);
        r
    }

    #[test]
    fn mask_bit_algebra() {
        let m = MetricMask::ALL.without(MetricBit::PowerKw);
        assert!(!m.contains(MetricBit::PowerKw));
        assert!(m.contains(MetricBit::Nodes));
        assert_eq!(m.with(MetricBit::PowerKw), MetricMask::ALL);
        assert_eq!(m.union(m.complement()), MetricMask::ALL);
        assert_eq!(m.intersect(m.complement()), MetricMask::NONE);
    }

    #[test]
    fn parse_specs() {
        assert_eq!(MetricMask::parse("all").unwrap(), MetricMask::ALL);
        assert_eq!(MetricMask::parse("none").unwrap(), MetricMask::NONE);
        let m = MetricMask::parse("all -power -energy").unwrap();
        assert!(!m.contains(MetricBit::PowerKw));
        assert!(!m.contains(MetricBit::AnnualEnergy));
        assert!(m.contains(MetricBit::Nodes));
        let n = MetricMask::parse("none +nodes +gpus").unwrap();
        assert_eq!(
            n,
            MetricMask::NONE
                .with(MetricBit::Nodes)
                .with(MetricBit::Gpus)
        );
        assert!(MetricMask::parse("all -warp").is_err());
    }

    #[test]
    fn spec_roundtrip() {
        for bits in 0..=MetricMask::ALL.0 {
            let mask = MetricMask::from_bits(bits);
            assert_eq!(
                MetricMask::parse(&mask.to_spec()).unwrap(),
                mask,
                "{}",
                mask.to_spec()
            );
        }
    }

    #[test]
    fn apply_metrics_hides_fields() {
        let r = accelerated();
        let m = SevenMetrics::extract(&r);
        let masked = MetricMask::ALL
            .without(MetricBit::Gpus)
            .without(MetricBit::MemoryGb)
            .without(MetricBit::Utilization)
            .apply_metrics(&r, &m);
        assert_eq!(masked.gpus, None);
        assert_eq!(masked.memory_gb, None);
        assert_eq!(masked.utilization, None);
        assert_eq!(masked.nodes, m.nodes);
    }

    #[test]
    fn gpu_mask_keeps_cpu_only_trivial() {
        let mut r = accelerated();
        r.accelerator = None;
        r.accelerator_count = None;
        let m = SevenMetrics::extract(&r);
        let masked = MetricMask::ALL
            .without(MetricBit::Gpus)
            .apply_metrics(&r, &m);
        assert_eq!(masked.gpus, Some(0));
    }

    #[test]
    fn apply_record_hides_power_and_location() {
        let r = accelerated();
        let masked = MetricMask::ALL
            .without(MetricBit::PowerKw)
            .without(MetricBit::Location)
            .apply_record(&r);
        assert_eq!(masked.power_kw, None);
        assert_eq!(masked.country, None);
        assert_eq!(masked.region, None);
        assert_eq!(masked.accelerator, r.accelerator);
    }

    #[test]
    fn override_set_merge() {
        let a = OverrideSet {
            pue: Some(1.2),
            ..OverrideSet::NONE
        };
        let b = OverrideSet {
            pue: Some(1.5),
            utilization: Some(0.7),
            ..OverrideSet::NONE
        };
        let merged = a.or(b);
        assert_eq!(merged.pue, Some(1.2));
        assert_eq!(merged.utilization, Some(0.7));
    }

    #[test]
    fn matrix_from_csv_roundtrip() {
        let matrix = ScenarioMatrix::from_csv(&ScenarioMatrix::csv_template()).unwrap();
        let by_name = |name: &str| matrix.scenarios().iter().find(|s| s.name == name).unwrap();
        assert_eq!(matrix.len(), 5);
        assert_eq!(*by_name("full"), DataScenario::full("full"));
        let no_power = by_name("no-power");
        assert!(!no_power.mask.contains(MetricBit::PowerKw));
        assert!(!no_power.mask.contains(MetricBit::AnnualEnergy));
        assert_eq!(by_name("site-pue").overrides.pue, Some(1.1));
        assert_eq!(by_name("clean-grid").overrides.aci_g_per_kwh, Some(50.0));
    }

    #[test]
    fn matrix_from_csv_keeps_numeric_names_textual() {
        // Names that look like numbers or booleans are taken verbatim, and
        // every override keeps the bits of `frame::csv::number`.
        let matrix = ScenarioMatrix::from_csv("name,mask\n2024,all\n1,all -power\n").unwrap();
        assert_eq!(matrix.scenarios()[0], DataScenario::full("2024"));
        assert_eq!(matrix.scenarios()[1].name, "1");
        assert!(!matrix.scenarios()[1].mask.contains(MetricBit::PowerKw));

        let matrix = ScenarioMatrix::from_csv(
            "name,mask,pue_override,utilization_override,aci_override\n\
             007,all,1,,\n\
             1.50,all -power,-0,,\n\
             True,,,-0.0,\n\
             1e3,all,,,1e2\n\
             -0,none,,,\n",
        )
        .unwrap();
        let names: Vec<&str> = matrix.scenarios().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["007", "1.50", "True", "1e3", "-0"]);
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        let [a, b, c, d, e] = matrix.scenarios() else {
            panic!("five scenarios");
        };
        assert_eq!(bits(a.overrides.pue), Some(1.0f64.to_bits()));
        assert_eq!(bits(b.overrides.pue), Some(0.0f64.to_bits()));
        assert!(!b.mask.contains(MetricBit::PowerKw));
        assert_eq!(c.mask, MetricMask::ALL);
        assert_eq!(bits(c.overrides.utilization), Some((-0.0f64).to_bits()));
        assert_eq!(bits(d.overrides.aci_g_per_kwh), Some(100.0f64.to_bits()));
        assert_eq!(e.mask, MetricMask::NONE);
        assert_eq!(e.overrides, OverrideSet::NONE);
    }

    #[test]
    fn matrix_from_csv_rejects_malformed_matrices() {
        let header = "name,mask,pue_override,utilization_override,aci_override\n";
        for text in [
            String::new(),
            "mask\nall\n".to_string(),
            "name\nfull\n".to_string(),
            "name,mask,name\nfull,all,x\n".to_string(),
            format!("{header}full,all\n"),
            format!("{header}full,all,,,,\n"),
            format!("{header}\"full,all,,,\n"),
            format!("{header}bad,all,fast,,\n"),
            format!("{header}bad,all,,1.5.1,\n"),
            format!("{header}full,all,,,\nfull,all -power -energy,,,\n"),
        ] {
            assert!(ScenarioMatrix::from_csv(&text).is_err(), "{text:?}");
        }
        let err = ScenarioMatrix::from_csv("name,mask\nfull,all\nx,all\nfull,none\n").unwrap_err();
        assert!(err.contains("`full`") && err.contains("repeated"), "{err}");
        let err =
            ScenarioMatrix::from_csv(&format!("{header}ok,all,,,\nbad,all,fast,,\n")).unwrap_err();
        assert!(
            err.contains("`bad`") && err.contains("pue_override"),
            "{err}"
        );
    }

    #[test]
    fn matrix_from_csv_rejects_bad_mask() {
        let err = ScenarioMatrix::from_csv("name,mask\nbroken,all -nope\n").unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn matrix_from_csv_rejects_non_finite_overrides() {
        for (col, cell) in [
            ("pue_override", "NaN"),
            ("utilization_override", "inf"),
            ("aci_override", "-inf"),
            ("aci_override", "1e999"),
        ] {
            let text = format!("name,mask,{col}\nok,all,\nbad,all,{cell}\n");
            let err = ScenarioMatrix::from_csv(&text).unwrap_err();
            assert!(err.contains("`bad`") && err.contains(col), "{err}");
        }
    }
}
