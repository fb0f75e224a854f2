//! Order statistics, the tail-percentile rule, a streaming digest for
//! exact output comparison, and the seeded generator behind every
//! workload's choices.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A tail latency reported under the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported: 99 once there are at least 1,000
    /// samples, lower for fewer, never below the median.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The tail of `values` by nearest rank: p99 capped so that at least
/// [`TAIL_BEYOND`] samples lie beyond it — the highest percentile with ten
/// samples beyond it: p99 from 1,000 samples, at least p90 from 100, and
/// the median from 20 down. Below 20 samples no percentile above the
/// median has ten beyond it, so the nearest-rank median is reported.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            percentile: 0.0,
            value: 0.0,
            beyond: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p99_rank = (n * 99).div_ceil(100);
    let rank = p99_rank
        .min(n.saturating_sub(TAIL_BEYOND))
        .max(n.div_ceil(2));
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

/// A fast streaming 64-bit digest of a byte stream. Feeding the same bytes
/// in any split gives the same value, so outputs rendered block by block
/// compare exactly against a reference rendered with other block sizes.
/// Not cryptographic: it detects accidental differences.
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
    pending: [u8; 8],
    pending_len: usize,
    len: u64,
}

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            state: 0xCBF2_9CE4_8422_2325,
            pending: [0; 8],
            pending_len: 0,
            len: 0,
        }
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.state = (self.state ^ w).wrapping_mul(MIX).rotate_left(29);
    }

    /// Appends bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Appends one 64-bit value (e.g. the bits of a float).
    pub fn u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest of everything appended so far.
    pub fn finish(&self) -> u64 {
        let mut last = [0u8; 8];
        last[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
        let mut d = self.clone();
        d.word(u64::from_le_bytes(last));
        d.word(self.len);
        d.state ^ (d.state >> 31)
    }
}

/// SplitMix64: the benchmark's own seeded generator for workload choices
/// (request mixes, edit positions, seed derivation).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator keyed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(MIX);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_from_1000_samples() {
        let t = tail(&ramp(1000));
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        let t = tail(&ramp(5000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 4950.0, 50));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_below_1000() {
        for n in [100usize, 101, 200, 999] {
            let t = tail(&ramp(n));
            assert_eq!(t.beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.value, (n - TAIL_BEYOND) as f64, "n = {n}");
            assert!(t.percentile < 99.0 && t.percentile >= 90.0, "n = {n}");
        }
        // Order of the input does not matter.
        let mut shuffled = ramp(200);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), tail(&ramp(200)));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_down_to_the_median() {
        for n in [20usize, 21, 30, 99] {
            let t = tail(&ramp(n));
            assert_eq!(t.beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.value, (n - TAIL_BEYOND) as f64, "n = {n}");
        }
        assert_eq!(tail(&ramp(20)).percentile, 50.0);
        // Below 20 samples the nearest-rank median is the highest
        // percentile left.
        for n in 1..20usize {
            let t = tail(&ramp(n));
            assert_eq!(t.value, n.div_ceil(2) as f64, "n = {n}");
            assert_eq!(t.beyond, n - n.div_ceil(2), "n = {n}");
        }
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_independent_of_block_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut whole = Digest::default();
        whole.update(&data);
        for split in [1usize, 3, 7, 8, 9, 64, 333] {
            let mut parts = Digest::default();
            for block in data.chunks(split) {
                parts.update(block);
            }
            assert_eq!(parts.finish(), whole.finish(), "split {split}");
        }
        let mut other = Digest::default();
        other.update(&data[..999]);
        assert_ne!(other.finish(), whole.finish());
    }
}
