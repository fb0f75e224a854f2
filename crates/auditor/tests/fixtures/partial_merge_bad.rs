// Ad-hoc running totals over footprint carbon: every one of these folds
// outside the PartialAssessment running fold, so its order is an accident
// of the loop rather than a contract.
fn totals(footprints: &[Footprint]) -> (f64, f64) {
    let mut op_total = 0.0;
    let mut emb_total = 0.0;
    for fp in footprints {
        op_total += fp.operational_mt().unwrap_or(0.0);
        emb_total += fp.embodied_mt().unwrap_or(0.0);
    }
    (op_total, emb_total)
}

fn slice_totals(slices: &[Slice]) -> f64 {
    let mut grand = 0.0;
    for slice in slices {
        grand += slice.operational_total_mt + slice.embodied_total_mt;
    }
    grand
}

fn estimate_total(estimates: &[Estimate]) -> f64 {
    let mut sum = 0.0;
    for e in estimates {
        sum += e.mt_co2e;
    }
    sum
}
