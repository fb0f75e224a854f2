//! Ordered floating-point reductions.
//!
//! The determinism rules (docs/ARCHITECTURE.md "Enforced invariants",
//! machine-checked by the `auditor` crate's `float-sum` rule) require every
//! floating-point reduction on a result path to be an *explicit* left fold
//! in a pinned order, never an anonymous `.sum::<f64>()`. The two are
//! bit-identical today — `Iterator::sum` is itself a left fold — but the
//! named helper makes the ordering a visible contract at the call site, so
//! a future parallel, blocked, or tree-shaped reduction cannot replace it
//! without either going through the pinned running fold
//! ([`crate::partial`]) or tripping the audit.

/// Strict left-fold sum in iteration order: `((0 + x₀) + x₁) + …`.
///
/// Bit-identical to `Iterator::sum::<f64>()` over the same iterator; use
/// this in result paths so the fold order is explicit.
pub(crate) fn sum_f64(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |acc, v| acc + v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_iterator_sum_bitwise() {
        // Include values spanning magnitudes so reordering would actually
        // change the result — the equality below is therefore meaningful.
        let xs = [1e16, 3.25, -1e16, 2.75, 1e-9, 42.0];
        let folded = sum_f64(xs.iter().copied());
        let summed: f64 = xs.iter().copied().sum();
        assert_eq!(folded.to_bits(), summed.to_bits());
    }

    #[test]
    fn empty_is_exact_zero() {
        assert_eq!(sum_f64(std::iter::empty()).to_bits(), 0f64.to_bits());
    }
}
