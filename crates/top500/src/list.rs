//! Top 500 list container and the rank-range buckets of Figures 5 and 6.

use crate::record::SystemRecord;

/// The rank buckets used by the paper's coverage-by-rank figures, plus the
/// full-list bucket.
pub const RANK_RANGES: [RankRange; 14] = [
    RankRange { lo: 1, hi: 10 },
    RankRange { lo: 11, hi: 25 },
    RankRange { lo: 26, hi: 50 },
    RankRange { lo: 51, hi: 75 },
    RankRange { lo: 76, hi: 100 },
    RankRange { lo: 101, hi: 150 },
    RankRange { lo: 151, hi: 200 },
    RankRange { lo: 201, hi: 250 },
    RankRange { lo: 251, hi: 300 },
    RankRange { lo: 301, hi: 350 },
    RankRange { lo: 351, hi: 400 },
    RankRange { lo: 401, hi: 450 },
    RankRange { lo: 451, hi: 500 },
    RankRange { lo: 1, hi: 500 },
];

/// An inclusive rank range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankRange {
    /// Lowest rank in the bucket (inclusive).
    pub lo: u32,
    /// Highest rank in the bucket (inclusive).
    pub hi: u32,
}

impl RankRange {
    /// True when `rank` falls inside the bucket.
    pub fn contains(&self, rank: u32) -> bool {
        (self.lo..=self.hi).contains(&rank)
    }

    /// Axis label, e.g. "26-50" or "1-500".
    pub fn label(&self) -> String {
        format!("{}-{}", self.lo, self.hi)
    }
}

/// An ordered collection of system records (rank 1 first).
#[derive(Debug, Clone, Default)]
pub struct Top500List {
    systems: Vec<SystemRecord>,
}

impl Top500List {
    /// Wraps records, sorting by rank. The sort is stable, so records of
    /// equal rank (an imported file may repeat one) keep their order.
    pub fn new(mut systems: Vec<SystemRecord>) -> Top500List {
        systems.sort_by_key(|s| s.rank);
        Top500List { systems }
    }

    /// Number of systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// All systems, rank order.
    pub fn systems(&self) -> &[SystemRecord] {
        &self.systems
    }

    /// Mutable access (used by the enrichment pass).
    pub fn systems_mut(&mut self) -> &mut [SystemRecord] {
        &mut self.systems
    }

    /// System by rank, if present.
    pub(crate) fn by_rank(&self, rank: u32) -> Option<&SystemRecord> {
        self.systems
            .binary_search_by_key(&rank, |s| s.rank)
            .ok()
            .map(|i| &self.systems[i])
    }

    /// Sum of Rmax over the list, TFlop/s.
    pub fn total_rmax_tflops(&self) -> f64 {
        self.systems.iter().map(|s| s.rmax_tflops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_one_to_five_hundred() {
        // All buckets except the final 1-500 summary partition 1..=500.
        let buckets = &RANK_RANGES[..13];
        for rank in 1..=500u32 {
            let hits = buckets.iter().filter(|b| b.contains(rank)).count();
            assert_eq!(hits, 1, "rank {rank} in {hits} buckets");
        }
        assert_eq!(buckets.iter().map(|b| b.hi - b.lo + 1).sum::<u32>(), 500);
    }

    #[test]
    fn summary_bucket_covers_everything() {
        let all = RANK_RANGES[13];
        assert!(all.contains(1) && all.contains(500));
        assert_eq!(all.label(), "1-500");
    }

    #[test]
    fn list_sorts_and_looks_up() {
        let list = Top500List::new(vec![
            SystemRecord::bare(3, 10.0, 12.0),
            SystemRecord::bare(1, 100.0, 120.0),
            SystemRecord::bare(2, 50.0, 60.0),
        ]);
        assert_eq!(list.len(), 3);
        assert_eq!(list.systems()[0].rank, 1);
        assert_eq!(list.by_rank(2).unwrap().rmax_tflops, 50.0);
        assert!(list.by_rank(9).is_none());
        assert_eq!(list.total_rmax_tflops(), 160.0);
    }
}
