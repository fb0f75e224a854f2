//! Nearest-peer interpolation (paper §IV-B).
//!
//! "To fill the gaps of 100's of systems, we interpolate the carbon
//! footprint for the systems missing data using the average of the nearest
//! 10 peers (5 lower and 5 higher) in the Top 500. If the peers are also
//! incomplete, we use the next closest peers."

/// Fills the `None` entries of a rank-ordered series with the mean of the
/// nearest `peers_per_side` present values below and above, scanning
/// outward past other missing entries. At the list edges fewer peers may
/// exist; whatever is found is averaged. Returns `None` when the input has
/// no present values at all.
pub fn nearest_peer_interpolation(
    values: &[Option<f64>],
    peers_per_side: usize,
) -> Option<Vec<f64>> {
    if values.iter().all(Option::is_none) {
        return if values.is_empty() {
            Some(Vec::new())
        } else {
            None
        };
    }
    let out = values
        .iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| interpolate_at(values, i, peers_per_side)))
        .collect();
    Some(out)
}

/// Mean of the nearest present peers around index `i` (which is missing).
fn interpolate_at(values: &[Option<f64>], i: usize, peers_per_side: usize) -> f64 {
    let mut peers = Vec::with_capacity(peers_per_side * 2);
    // Scan downward (better-ranked side).
    let mut found = 0;
    for j in (0..i).rev() {
        if let Some(v) = values[j] {
            peers.push(v);
            found += 1;
            if found == peers_per_side {
                break;
            }
        }
    }
    // Scan upward.
    found = 0;
    for v in values[i + 1..].iter().flatten() {
        peers.push(*v);
        found += 1;
        if found == peers_per_side {
            break;
        }
    }
    debug_assert!(
        !peers.is_empty(),
        "caller guarantees at least one present value"
    );
    peers.iter().sum::<f64>() / peers.len() as f64
}

/// Interpolation summary: how much the fill added.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterpolationSummary {
    /// Present values before interpolation.
    pub covered: usize,
    /// Values created by interpolation.
    pub interpolated: usize,
    /// Total before (present values only).
    pub covered_total: f64,
    /// Total after interpolation (all values).
    pub full_total: f64,
}

/// Runs the interpolation and reports the before/after totals.
pub fn interpolate_with_summary(
    values: &[Option<f64>],
    peers_per_side: usize,
) -> Option<(Vec<f64>, InterpolationSummary)> {
    let filled = nearest_peer_interpolation(values, peers_per_side)?;
    let covered = values.iter().filter(|v| v.is_some()).count();
    let covered_total: f64 = values.iter().flatten().sum();
    let full_total: f64 = filled.iter().sum();
    Some((
        filled,
        InterpolationSummary {
            covered,
            interpolated: values.len() - covered,
            covered_total,
            full_total,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_input_unchanged() {
        let input = vec![Some(1.0), Some(2.0), Some(3.0)];
        let out = nearest_peer_interpolation(&input, 5).unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn single_gap_uses_neighbours() {
        let input = vec![Some(10.0), None, Some(20.0)];
        let out = nearest_peer_interpolation(&input, 5).unwrap();
        assert_eq!(out[1], 15.0);
    }

    #[test]
    fn five_per_side_window() {
        // 12 present values around one gap; only 5 each side count.
        let mut input: Vec<Option<f64>> = (0..13).map(|i| Some(i as f64)).collect();
        input[6] = None;
        let out = nearest_peer_interpolation(&input, 5).unwrap();
        // Peers: 1..=5 and 7..=11 → mean 6.
        assert_eq!(out[6], 6.0);
    }

    #[test]
    fn skips_missing_peers() {
        // Paper footnote: incomplete peers are skipped for the next closest.
        let input = vec![Some(1.0), None, None, None, Some(9.0)];
        let out = nearest_peer_interpolation(&input, 1).unwrap();
        assert_eq!(out[1], 5.0); // peers: 1.0 (below), 9.0 (first present above)
        assert_eq!(out[2], 5.0);
        assert_eq!(out[3], 5.0);
    }

    #[test]
    fn edge_gap_uses_one_side() {
        let input = vec![None, Some(4.0), Some(8.0)];
        let out = nearest_peer_interpolation(&input, 5).unwrap();
        assert_eq!(out[0], 6.0); // only upward peers exist
    }

    #[test]
    fn all_missing_is_none() {
        assert_eq!(nearest_peer_interpolation(&[None, None], 5), None);
    }

    #[test]
    fn empty_is_empty() {
        assert_eq!(nearest_peer_interpolation(&[], 5), Some(vec![]));
    }

    #[test]
    fn interpolated_values_within_present_bounds() {
        let input = vec![Some(5.0), None, Some(1.0), None, Some(3.0), None];
        let out = nearest_peer_interpolation(&input, 5).unwrap();
        for v in out {
            assert!((1.0..=5.0).contains(&v));
        }
    }

    #[test]
    fn summary_matches_paper_semantics() {
        let input = vec![Some(100.0), Some(200.0), None, Some(300.0)];
        let (filled, summary) = interpolate_with_summary(&input, 5).unwrap();
        assert_eq!(summary.covered, 3);
        assert_eq!(summary.interpolated, 1);
        assert_eq!(summary.covered_total, 600.0);
        assert_eq!(summary.full_total, filled.iter().sum::<f64>());
        assert!(summary.full_total > summary.covered_total);
    }

    #[test]
    fn reproduces_appendix_interpolated_totals() {
        // Run OUR interpolator on the appendix "+public" column and compare
        // with the AUTHORS' interpolated column: totals must agree closely
        // (they used the same nearest-10 rule; small differences come from
        // tie-breaking at edges).
        let rows = top500::appendix::load();
        let op_public: Vec<Option<f64>> = rows.iter().map(|r| r.operational.public).collect();
        let (ours, summary) = interpolate_with_summary(&op_public, 5).unwrap();
        let theirs: f64 = rows.iter().filter_map(|r| r.operational.interpolated).sum();
        let our_total: f64 = ours.iter().sum();
        assert!(
            (our_total / theirs - 1.0).abs() < 0.02,
            "ours {our_total} vs paper {theirs}"
        );
        assert_eq!(summary.interpolated, 10);

        let emb_public: Vec<Option<f64>> = rows.iter().map(|r| r.embodied.public).collect();
        let (ours_emb, summary_emb) = interpolate_with_summary(&emb_public, 5).unwrap();
        let theirs_emb: f64 = rows.iter().filter_map(|r| r.embodied.interpolated).sum();
        let our_emb_total: f64 = ours_emb.iter().sum();
        assert!(
            (our_emb_total / theirs_emb - 1.0).abs() < 0.05,
            "ours {our_emb_total} vs paper {theirs_emb}"
        );
        assert_eq!(summary_emb.interpolated, 96);
    }
}
