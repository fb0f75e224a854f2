// Clean accumulation: carbon goes through the running fold (or the ordered
// fold helpers); `+=` stays fine for integer bookkeeping and in test code.
fn fold_cleanly(footprints: &[easyc::SystemFootprint]) -> easyc::FleetTotals {
    let mut partial = easyc::PartialAssessment::identity(0);
    partial.absorb(0, footprints);
    partial.finish()
}

fn ordered_total(values: &[f64]) -> f64 {
    easyc::fold::sum_f64(values.iter().copied())
}

fn count_rows(chunks: &[usize]) -> usize {
    let mut rows = 0usize;
    for chunk in chunks {
        rows += chunk; // integer bookkeeping, not a carbon fold
    }
    rows
}

#[cfg(test)]
mod tests {
    // Serial reference folds in test code are exactly what the bit-identity
    // proptests compare the running fold against — they stay legal.
    fn reference(footprints: &[Footprint]) -> f64 {
        let mut total = 0.0;
        for fp in footprints {
            total += fp.operational_mt().unwrap_or(0.0);
        }
        total
    }
}
