//! Every headline number of the paper, verified against the embedded
//! appendix and the analysis pipelines. This is the EXPERIMENTS.md
//! evidence, executable.

use top500_carbon::analysis::figures::{self, CoverageByRange, Fig4, Fig7, Fig9};
use top500_carbon::analysis::projection;
use top500_carbon::top500::appendix::{self, paper};

#[test]
fn abstract_coverage_claims() {
    let rows = appendix::load();
    // "we were able to model the operational carbon of 391 HPC systems and
    // the embodied carbon of 283 HPC systems"
    assert_eq!(
        rows.iter()
            .filter(|r| r.operational.top500.is_some())
            .count(),
        paper::OP_COVERAGE_TOP500
    );
    assert_eq!(
        rows.iter().filter(|r| r.embodied.top500.is_some()).count(),
        paper::EMB_COVERAGE_TOP500
    );
    // "coverage can be increased to 98% ... and 80.8%"
    assert_eq!(
        rows.iter()
            .filter(|r| r.operational.public.is_some())
            .count(),
        paper::OP_COVERAGE_PUBLIC
    );
    assert_eq!(
        rows.iter().filter(|r| r.embodied.public.is_some()).count(),
        paper::EMB_COVERAGE_PUBLIC
    );
    let fig5 = CoverageByRange::from_appendix(&rows, false);
    let fig6 = CoverageByRange::from_appendix(&rows, true);
    assert!((fig5.overall(true) - 0.98).abs() < 1e-9);
    assert!((fig6.overall(true) - 0.808).abs() < 1e-9);
}

#[test]
fn abstract_totals() {
    // "1.4 million MT CO2e operational carbon (1 Year) and 1.9 million MT
    // CO2e embodied carbon"
    let rows = appendix::load();
    let fig7 = Fig7::from_appendix(&rows);
    assert!((fig7.op_interpolated.total_mt / paper::OP_TOTAL_INTERPOLATED_MT - 1.0).abs() < 0.01);
    assert!((fig7.emb_interpolated.total_mt / paper::EMB_TOTAL_INTERPOLATED_MT - 1.0).abs() < 0.01);
}

#[test]
fn abstract_56_6_percent_single_source_coverage() {
    // "the carbon footprint (operational and embodied) of 56.6% of the
    // Top 500 systems can be captured using only the data from Top500.org"
    // — i.e. both outputs simultaneously, which equals the embodied count.
    let rows = appendix::load();
    let both = rows
        .iter()
        .filter(|r| r.operational.top500.is_some() && r.embodied.top500.is_some())
        .count();
    assert_eq!(both, 283);
    assert!((both as f64 / 500.0 - 0.566).abs() < 0.001);
}

#[test]
fn section_iv_b_interpolation_deltas() {
    // "adding the missing 10 systems increased operational footprint by
    // only 1.74%" / "Adding the missing 96 systems increased embodied
    // carbon ... an increase of 23.18%"
    let rows = appendix::load();
    let op_p: f64 = rows.iter().filter_map(|r| r.operational.public).sum();
    let op_i: f64 = rows.iter().filter_map(|r| r.operational.interpolated).sum();
    let emb_p: f64 = rows.iter().filter_map(|r| r.embodied.public).sum();
    let emb_i: f64 = rows.iter().filter_map(|r| r.embodied.interpolated).sum();
    // The covered totals the deltas are taken from (3 significant figures).
    assert!((op_p / paper::OP_TOTAL_COVERED_MT - 1.0).abs() < 0.01);
    assert!((emb_p / paper::EMB_TOTAL_COVERED_MT - 1.0).abs() < 0.01);
    assert!((op_i / op_p - 1.0 - paper::OP_INTERPOLATION_DELTA).abs() < 0.001);
    assert!((emb_i / emb_p - 1.0 - paper::EMB_INTERPOLATION_DELTA).abs() < 0.001);
}

#[test]
fn figure_4_reference_bars() {
    let rows = appendix::load();
    let fig4 = Fig4::reference(&rows);
    assert_eq!(fig4.methods[0].1, 0); // GHG operational ≈ none
    assert_eq!(fig4.methods[1], ("EasyC (top500.org)".into(), 391, 283));
    assert_eq!(fig4.methods[2], ("EasyC (+ public info)".into(), 490, 404));
}

#[test]
fn figure_9_sensitivity_headlines() {
    let rows = appendix::load();
    let fig9 = Fig9::from_appendix(&rows);
    assert!((fig9.operational.relative_change() - paper::OP_SENSITIVITY_DELTA).abs() < 0.002);
    assert!(
        (fig9.embodied.total_change_mt() / 1000.0 - paper::EMB_SENSITIVITY_DELTA_KMT).abs() < 2.0
    );
}

#[test]
fn section_iv_c_projection_claims() {
    // "10.3% growth in operational and 2% growth in embodied carbon";
    // "By 2030 ... nearly double"; embodied "1.02x or 2% per year ... 1.1x".
    assert!((projection::annualized(0.05) - paper::OP_GROWTH_PER_YEAR).abs() < 0.001);
    assert!((projection::annualized(0.01) - paper::EMB_GROWTH_PER_YEAR).abs() < 0.001);
    let rows = appendix::load();
    let p = figures::fig10(&rows);
    assert!((p.operational.overall_growth() - 1.8).abs() < 0.05);
    assert!((p.embodied.overall_growth() - 1.13).abs() < 0.03);
}

#[test]
fn appendix_narrative_ratios() {
    // "a difference of 4.3x in the operational carbon emissions between
    // LUMI and Leonardo"; "embodied carbon emissions of Frontier are 2.6x
    // higher than those of El Capitan".
    let rows = appendix::load();
    let by_name = |n: &str| rows.iter().find(|r| r.name.as_deref() == Some(n)).unwrap();
    let lumi_vs_leonardo = by_name("Leonardo").operational.public.unwrap()
        / by_name("LUMI").operational.public.unwrap();
    assert!((lumi_vs_leonardo - 4.3).abs() < 0.1);
    let frontier_vs_el_capitan = by_name("Frontier").embodied.public.unwrap()
        / by_name("El Capitan").embodied.public.unwrap();
    assert!((frontier_vs_el_capitan - 2.6).abs() < 0.1);
}

#[test]
fn vehicle_equivalences() {
    // "equal to one year's emissions for 325,000 gasoline-powered
    // vehicles" / "439,000".
    let rows = appendix::load();
    let fig7 = Fig7::from_appendix(&rows);
    let op_vehicles = fig7.op_interpolated.equivalences().vehicles;
    let emb_vehicles = fig7.emb_interpolated.equivalences().vehicles;
    assert!(
        (op_vehicles / paper::OP_VEHICLES_EQUIV - 1.0).abs() < 0.02,
        "{op_vehicles}"
    );
    assert!(
        (emb_vehicles / paper::EMB_VEHICLES_EQUIV - 1.0).abs() < 0.02,
        "{emb_vehicles}"
    );
}
