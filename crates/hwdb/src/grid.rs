//! Grid average carbon intensity (ACI) of electricity by country.
//!
//! Values are annual consumption-based averages in gCO2e/kWh (Ember /
//! IEA-class 2023–2024 figures). The paper's sensitivity study notes that
//! refining from a regional prior to a national value can move a system's
//! operational carbon by as much as ±77.5 % — the spread between e.g. Sweden
//! (~25) and India (~710) shows why.

/// Coarse world regions used when only a region (or nothing) is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// North America.
    NorthAmerica,
    /// Europe (EU + UK + EFTA).
    Europe,
    /// East Asia (China, Japan, Korea, Taiwan).
    EastAsia,
    /// Middle East.
    MiddleEast,
    /// South America.
    SouthAmerica,
    /// Oceania.
    Oceania,
    /// Rest of world / unknown.
    World,
}

impl Region {
    /// Stable name used in CSV serialisation.
    pub fn as_str(self) -> &'static str {
        match self {
            Region::NorthAmerica => "NorthAmerica",
            Region::Europe => "Europe",
            Region::EastAsia => "EastAsia",
            Region::MiddleEast => "MiddleEast",
            Region::SouthAmerica => "SouthAmerica",
            Region::Oceania => "Oceania",
            Region::World => "World",
        }
    }

    /// Parses the name written by [`Region::as_str`].
    pub fn parse(text: &str) -> Option<Region> {
        match text {
            "NorthAmerica" => Some(Region::NorthAmerica),
            "Europe" => Some(Region::Europe),
            "EastAsia" => Some(Region::EastAsia),
            "MiddleEast" => Some(Region::MiddleEast),
            "SouthAmerica" => Some(Region::SouthAmerica),
            "Oceania" => Some(Region::Oceania),
            "World" => Some(Region::World),
            _ => None,
        }
    }
}

/// `(country, gCO2e/kWh, region)` — national annual average carbon
/// intensity of consumed electricity.
pub(crate) const COUNTRY_ACI: &[(&str, f64, Region)] = &[
    ("United States", 369.0, Region::NorthAmerica),
    ("Canada", 126.0, Region::NorthAmerica),
    ("Mexico", 424.0, Region::NorthAmerica),
    ("Brazil", 98.0, Region::SouthAmerica),
    ("Germany", 381.0, Region::Europe),
    ("France", 56.0, Region::Europe),
    ("United Kingdom", 238.0, Region::Europe),
    ("Italy", 331.0, Region::Europe),
    ("Spain", 174.0, Region::Europe),
    ("Netherlands", 268.0, Region::Europe),
    ("Finland", 79.0, Region::Europe),
    ("Sweden", 25.0, Region::Europe),
    ("Norway", 30.0, Region::Europe),
    ("Switzerland", 46.0, Region::Europe),
    ("Poland", 662.0, Region::Europe),
    ("Czech Republic", 415.0, Region::Europe),
    ("Czechia", 415.0, Region::Europe),
    ("Austria", 158.0, Region::Europe),
    ("Belgium", 139.0, Region::Europe),
    ("Luxembourg", 162.0, Region::Europe),
    ("Ireland", 282.0, Region::Europe),
    ("Portugal", 150.0, Region::Europe),
    ("Slovenia", 231.0, Region::Europe),
    ("Bulgaria", 400.0, Region::Europe),
    ("Hungary", 204.0, Region::Europe),
    ("Denmark", 151.0, Region::Europe),
    ("Iceland", 28.0, Region::Europe),
    ("Russia", 441.0, Region::Europe),
    ("China", 582.0, Region::EastAsia),
    ("Japan", 485.0, Region::EastAsia),
    ("South Korea", 436.0, Region::EastAsia),
    ("Taiwan", 561.0, Region::EastAsia),
    ("Singapore", 471.0, Region::EastAsia),
    ("India", 713.0, Region::EastAsia),
    ("Thailand", 501.0, Region::EastAsia),
    ("Saudi Arabia", 557.0, Region::MiddleEast),
    ("United Arab Emirates", 408.0, Region::MiddleEast),
    ("Israel", 537.0, Region::MiddleEast),
    ("Morocco", 624.0, Region::MiddleEast),
    ("Australia", 549.0, Region::Oceania),
    ("New Zealand", 112.0, Region::Oceania),
    ("Slovakia", 121.0, Region::Europe),
    ("Croatia", 215.0, Region::Europe),
    ("Greece", 351.0, Region::Europe),
    ("Romania", 264.0, Region::Europe),
    ("Serbia", 582.0, Region::Europe),
    ("Turkey", 464.0, Region::MiddleEast),
    ("Egypt", 470.0, Region::MiddleEast),
    ("Qatar", 490.0, Region::MiddleEast),
    ("Kuwait", 574.0, Region::MiddleEast),
    ("South Africa", 708.0, Region::World),
    ("Indonesia", 676.0, Region::EastAsia),
    ("Malaysia", 605.0, Region::EastAsia),
    ("Vietnam", 472.0, Region::EastAsia),
    ("Hong Kong", 609.0, Region::EastAsia),
    ("Argentina", 354.0, Region::SouthAmerica),
    ("Chile", 291.0, Region::SouthAmerica),
    ("Colombia", 164.0, Region::SouthAmerica),
    ("Peru", 256.0, Region::SouthAmerica),
    ("Uruguay", 128.0, Region::SouthAmerica),
];

/// National ACI lookup (case-insensitive exact name match), gCO2e/kWh.
pub fn country_aci(country: &str) -> Option<f64> {
    COUNTRY_ACI
        .iter()
        .find(|(name, _, _)| name.eq_ignore_ascii_case(country))
        .map(|&(_, aci, _)| aci)
}

/// Region of a country, when known.
pub fn country_region(country: &str) -> Option<Region> {
    COUNTRY_ACI
        .iter()
        .find(|(name, _, _)| name.eq_ignore_ascii_case(country))
        .map(|&(_, _, region)| region)
}

/// Mean ACI over the countries of a region — the prior used when only the
/// region is known. [`Region::World`] averages the whole table.
pub fn regional_aci(region: Region) -> f64 {
    let values: Vec<f64> = COUNTRY_ACI
        .iter()
        .filter(|&&(_, _, r)| region == Region::World || r == region)
        .map(|&(_, aci, _)| aci)
        .collect();
    values.iter().sum::<f64>() / values.len() as f64
}

/// Relative half-width of the ACI uncertainty band when falling back from a
/// national value to a regional prior. Matches the paper's reported ±77.5 %
/// worst-case refinement.
pub const REGIONAL_ACI_RELATIVE_UNCERTAINTY: f64 = 0.775;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_countries() {
        assert_eq!(country_aci("France"), Some(56.0));
        assert_eq!(country_aci("china"), Some(582.0));
        assert_eq!(country_aci("Atlantis"), None);
    }

    #[test]
    fn regional_mean_is_between_extremes() {
        let europe = regional_aci(Region::Europe);
        assert!(europe > 25.0 && europe < 662.0);
    }

    #[test]
    fn world_mean_covers_all() {
        let world = regional_aci(Region::World);
        assert!(world > 100.0 && world < 600.0);
    }

    #[test]
    fn refinement_can_exceed_77_percent() {
        // Sweden vs the European prior: refinement decreases ACI by more
        // than the paper's 77.5 % bound — the bound is on carbon change,
        // and Sweden-scale outliers are exactly the drivers of it.
        let europe = regional_aci(Region::Europe);
        let sweden = country_aci("Sweden").unwrap();
        assert!((europe - sweden) / europe > 0.775);
    }

    #[test]
    fn region_lookup() {
        assert_eq!(country_region("Japan"), Some(Region::EastAsia));
        assert_eq!(country_region("nowhere"), None);
    }

    #[test]
    fn all_acis_positive_and_plausible() {
        for &(name, aci, _) in COUNTRY_ACI {
            assert!(aci > 0.0 && aci < 1000.0, "{name}: {aci}");
        }
    }
}
