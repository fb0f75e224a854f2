//! Reproducible RNG streams for parallel Monte-Carlo.
//!
//! Each logical task gets its own counter-seeded SplitMix64 generator, so a
//! simulation's output depends only on `(seed, task_index)` — never on thread
//! count or interleaving. SplitMix64 is tiny, passes BigCrush for this use,
//! and needs no external dependencies at all.

/// SplitMix64 PRNG (Steele, Lea, Flood 2014). One 64-bit state word; each
/// [`SplitMix64::next`] advances by the golden-gamma constant and mixes.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output. (Not `Iterator::next` — generators are
    /// infinite streams and an `Option` wrapper would just be noise.)
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's method). `bound` must be
    /// non-zero.
    #[inline]
    pub fn next_bounded(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        ((self.next() as u128 * bound as u128) >> 64) as usize
    }

    /// Standard normal via Box–Muller (one value per call; the pair's twin is
    /// discarded — simplicity over throughput here).
    pub fn next_normal(&mut self) -> f64 {
        // Avoid ln(0) by offsetting u1 away from zero.
        let u1 = (self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal sample with the given underlying normal `mu`/`sigma`.
    pub fn next_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.next_normal()).exp()
    }
}

/// A factory of independent RNG streams derived from one master seed.
///
/// Stream `i` is seeded with `mix(seed, i)`, so any task can deterministically
/// reconstruct its generator regardless of which worker runs it.
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    seed: u64,
}

impl RngStreams {
    /// Creates a stream factory from a master seed.
    pub fn new(seed: u64) -> RngStreams {
        RngStreams { seed }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deterministic generator for stream `index`.
    pub fn stream(&self, index: u64) -> SplitMix64 {
        // Feed the index through one SplitMix64 step so neighbouring indices
        // decorrelate before seeding the task generator.
        let mut mixer = SplitMix64::new(self.seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        SplitMix64::new(mixer.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(rng.next_bounded(13) < 13);
        }
    }

    #[test]
    fn bounded_hits_all_residues() {
        let mut rng = SplitMix64::new(3);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.next_bounded(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut rng = SplitMix64::new(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!(rng.next_lognormal(0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn streams_are_independent_of_order() {
        let streams = RngStreams::new(123);
        let mut s5_first = streams.stream(5);
        let a = s5_first.next();
        let _ = streams.stream(9).next();
        let mut s5_again = streams.stream(5);
        assert_eq!(a, s5_again.next());
    }

    #[test]
    fn neighbouring_streams_decorrelate() {
        let streams = RngStreams::new(0);
        let a = streams.stream(0).next();
        let b = streams.stream(1).next();
        assert_ne!(a, b);
        // Hamming distance should be substantial, not a single-bit change.
        assert!((a ^ b).count_ones() > 10);
    }
}
