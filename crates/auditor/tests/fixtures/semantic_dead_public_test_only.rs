//! A pub fn whose only caller is its own file's test module: the test is
//! not a consumer, so the fn is flagged (demote it or delete it).

/// Share of a fleet with a reported value.
pub fn reported_share(reported: usize, total: usize) -> f64 {
    reported as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_reported() {
        assert_eq!(reported_share(1, 2), 0.5);
    }
}
