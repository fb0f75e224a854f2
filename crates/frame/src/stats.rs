//! Descriptive statistics with explicit empty-input semantics.
//!
//! Conventions: functions that can be meaningless on empty input return
//! `Option`; `sum` returns 0.0 on empty input (the additive identity).
//! All functions take slices of already-present (non-null) values; callers
//! drop nulls first.

/// Kahan-compensated sum. For 500-element carbon totals plain summation is
/// already fine, but the benches sweep to millions of synthetic rows where
/// compensation keeps totals stable across chunkings (important because the
/// parallel reduction reassociates).
pub fn sum(values: &[f64]) -> f64 {
    let mut s = 0.0f64;
    let mut c = 0.0f64;
    for &v in values {
        let y = v - c;
        let t = s + y;
        c = (t - s) - y;
        s = t;
    }
    s
}

/// Arithmetic mean; `None` on empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(sum(values) / values.len() as f64)
    }
}

/// Linear-interpolated quantile (the "type 7" estimator used by numpy's
/// default). `q` is clamped to `[0, 1]`. `None` on empty input.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_of_sorted(&sorted, q)
}

/// [`quantile`] over an **already-sorted** (ascending) slice — the shared
/// interpolation kernel, exposed so callers needing several quantiles of
/// one vector (e.g. both interval tails) can sort once instead of paying
/// a clone-and-sort per call.
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Two-sample Kolmogorov–Smirnov statistic: the maximum distance between
/// the empirical CDFs. `None` when either sample is empty. Used to compare
/// the *shape* of the synthetic fleet's carbon distribution against the
/// paper's appendix distribution.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS input"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS input"));
    let (mut i, mut j) = (0usize, 0usize);
    let mut d_max = 0.0f64;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / sa.len() as f64;
        let fb = j as f64 / sb.len() as f64;
        d_max = d_max.max((fa - fb).abs());
    }
    Some(d_max)
}

/// Gini coefficient of a non-negative sample — concentration of the fleet's
/// carbon across systems (0 = perfectly even, →1 = one system carries all).
pub fn gini(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v < 0.0) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in gini input"));
    let n = sorted.len() as f64;
    let total = sum(&sorted);
    if total == 0.0 {
        return Some(0.0);
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (2.0 * (i as f64 + 1.0) - n - 1.0) * v)
        .sum();
    Some(weighted / (n * total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_empty_is_zero() {
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn kahan_sum_is_stable() {
        // 1e16 + many tiny values: naive summation loses them entirely.
        let mut v = vec![1e16];
        v.extend(std::iter::repeat_n(1.0, 1000));
        assert_eq!(sum(&v), 1e16 + 1000.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quantile_endpoints() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(3.0));
        assert_eq!(quantile(&v, 0.5), Some(2.0));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(quantile(&v, 0.25), Some(2.5));
    }

    #[test]
    fn quantile_clamps_q() {
        let v = [1.0, 2.0];
        assert_eq!(quantile(&v, -3.0), Some(1.0));
        assert_eq!(quantile(&v, 7.0), Some(2.0));
    }

    #[test]
    fn ks_identical_samples_is_zero() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_statistic(&v, &v), Some(0.0));
    }

    #[test]
    fn ks_disjoint_samples_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0];
        assert_eq!(ks_statistic(&a, &b), Some(1.0));
    }

    #[test]
    fn ks_partial_overlap_in_between() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [3.0, 4.0, 5.0, 6.0];
        let d = ks_statistic(&a, &b).unwrap();
        assert!(d > 0.0 && d < 1.0, "{d}");
    }

    #[test]
    fn ks_empty_is_none() {
        assert_eq!(ks_statistic(&[], &[1.0]), None);
    }

    #[test]
    fn gini_uniform_is_zero() {
        let g = gini(&[5.0, 5.0, 5.0, 5.0]).unwrap();
        assert!(g.abs() < 1e-12);
    }

    #[test]
    fn gini_concentrated_near_one() {
        let mut v = vec![0.0; 99];
        v.push(100.0);
        let g = gini(&v).unwrap();
        assert!(g > 0.95, "{g}");
    }

    #[test]
    fn gini_rejects_negatives() {
        assert_eq!(gini(&[1.0, -1.0]), None);
    }
}
