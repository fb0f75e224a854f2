//! Reproducible RNG streams for parallel Monte-Carlo.
//!
//! Each logical task gets its own counter-seeded SplitMix64 generator, so a
//! simulation's output depends only on `(seed, task_index)` — never on thread
//! count or interleaving. SplitMix64 is tiny, passes BigCrush for this use,
//! and needs no external dependencies at all.
//!
//! The one normal generator, [`SplitMix64::next_normal`], inverts the normal
//! CDF (Wichura's AS241, *Applied Statistics* 37(3), 1988) at one 53-bit
//! draw `k`, on the grid `u = (k + ½)·2^−53`:
//!
//! - `q = u − ½ = (k − 2^52 + ½)·2^−53` is exact, so `u` lies strictly in
//!   (0, 1) and `z(2^53 − 1 − k) = −z(k)` bit for bit;
//! - for |q| ≤ 0.425 (85% of draws) `z` is a degree-7 rational in q² built
//!   from `+ − × ÷` alone, so every IEEE-754 platform gives the same bits;
//! - the tails take `r = ½ − |q|` (exact, by Sterbenz's lemma) through
//!   `sqrt(−ln r)`, which rests on the host's `ln`.
//!
//! Each normal takes one draw, and the map is monotone in that shared
//! uniform: the textbook coupling for common random numbers.

/// SplitMix64 PRNG (Steele, Lea, Flood 2014). One 64-bit state word; each
/// `SplitMix64::next` advances by the golden-gamma constant and mixes.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output. (Not `Iterator::next` — generators are
    /// infinite streams and an `Option` wrapper would just be noise.)
    #[inline]
    pub(crate) fn next(&mut self) -> u64 {
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

    /// Standard normal `Φ⁻¹(u)` of one draw, by AS241 on the grid
    /// `u = (k + ½)·2^−53` of the draw's top 53 bits `k` (see the module
    /// docs). Inlined with its central branch, so a caller's fill loop
    /// keeps 85% of its draws free of calls; the tails run out of line.
    #[inline]
    pub fn next_normal(&mut self) -> f64 {
        normal_of(self.next() >> 11)
    }

    /// Log-normal sample with the given underlying normal `mu`/`sigma`.
    #[inline]
    pub fn next_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.next_normal()).exp()
    }
}

// AS241's coefficients, constant term first. Wichura prints each to 20
// digits; each literal here is the shortest decimal that rounds to the same
// `f64`.

/// The central branch, |q| ≤ 0.425: `q · NUM(r) / DEN(r)` with
/// `r = 0.180625 − q²`.
const CENTRAL_NUM: [f64; 8] = [
    3.3871328727963665,
    133.14166789178438,
    1971.5909503065513,
    13731.69376550946,
    45921.95393154987,
    67265.7709270087,
    33430.57558358813,
    2509.0809287301227,
];
const CENTRAL_DEN: [f64; 8] = [
    1.0,
    42.31333070160091,
    687.1870074920579,
    5394.196021424751,
    21213.794301586597,
    39307.89580009271,
    28729.085735721943,
    5226.495278852854,
];
/// The near tail, `r = sqrt(−ln(½ − |q|)) ≤ 5`: `NUM(r − 1.6) / DEN(r − 1.6)`.
const NEAR_NUM: [f64; 8] = [
    1.4234371107496835,
    4.630337846156546,
    5.769497221460691,
    3.6478483247632045,
    1.2704582524523684,
    0.2417807251774506,
    0.022723844989269184,
    0.0007745450142783414,
];
const NEAR_DEN: [f64; 8] = [
    1.0,
    2.053191626637759,
    1.6763848301838038,
    0.6897673349851,
    0.14810397642748008,
    0.015198666563616457,
    0.0005475938084995345,
    1.0507500716444169e-9,
];
/// The far tail, `r > 5`: `NUM(r − 5) / DEN(r − 5)`.
const FAR_NUM: [f64; 8] = [
    6.657904643501103,
    5.463784911164114,
    1.7848265399172913,
    0.29656057182850487,
    0.026532189526576124,
    0.0012426609473880784,
    2.7115555687434876e-5,
    2.0103343992922881e-7,
];
const FAR_DEN: [f64; 8] = [
    1.0,
    0.599832206555888,
    0.1369298809227358,
    0.014875361290850615,
    0.0007868691311456133,
    1.8463183175100548e-5,
    1.421511758316446e-7,
    2.0442631033899397e-15,
];

/// `c[0] + c[1]·x + … + c[7]·x⁷`, by Horner's rule from `c[7]`.
#[inline]
fn horner(c: &[f64; 8], x: f64) -> f64 {
    c[..7].iter().rev().fold(c[7], |acc, &ci| acc * x + ci)
}

/// The standard normal quantile of a 53-bit draw `k`: AS241 at
/// `u = (k + ½)·2^−53`. The integer `k − 2^52` converts exactly and adding
/// ½ and scaling by 2^−53 round nothing, so `q = u − ½` is exact and odd
/// in `k ↦ 2^53 − 1 − k`; both branches read only `q²` or `|q|` before the
/// sign, so the map is odd bit for bit.
#[inline]
fn normal_of(k: u64) -> f64 {
    let q = ((k as i64 - (1 << 52)) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
    if q.abs() <= 0.425 {
        let r = 0.180_625 - q * q;
        q * horner(&CENTRAL_NUM, r) / horner(&CENTRAL_DEN, r)
    } else {
        normal_tail(q)
    }
}

/// The tails of [`normal_of`], |q| > 0.425 (15% of draws). Out of line, so
/// that the central branch stays small enough to inline into a fill loop.
#[inline(never)]
fn normal_tail(q: f64) -> f64 {
    // ½ − |q| is exact (Sterbenz's lemma: ¼ ≤ |q| ≤ 1).
    let r = (-(0.5 - q.abs()).ln()).sqrt();
    let x = if r <= 5.0 {
        let r = r - 1.6;
        horner(&NEAR_NUM, r) / horner(&NEAR_DEN, r)
    } else {
        let r = r - 5.0;
        horner(&FAR_NUM, r) / horner(&FAR_DEN, r)
    };
    if q < 0.0 {
        -x
    } else {
        x
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
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                // One draw per normal: the AS241 quantile of its top 53 bits.
                let mut twin = rng.clone();
                let z = rng.next_normal();
                assert_eq!(z.to_bits(), normal_of(twin.next() >> 11).to_bits());
                assert_eq!(rng.state, twin.state);
                z
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let moment = |p: i32| samples.iter().map(|v| (v - mean).powi(p)).sum::<f64>() / n as f64;
        let var = moment(2);
        let skew = moment(3) / var.powf(1.5);
        let kurtosis = moment(4) / (var * var) - 3.0; // excess
                                                      // 4σ bands: σ = sqrt(1/n), sqrt(2/n), sqrt(6/n) and sqrt(24/n).
        assert!(mean.abs() < 0.013, "mean {mean}");
        assert!((var - 1.0).abs() < 0.018, "var {var}");
        assert!(skew.abs() < 0.031, "skew {skew}");
        assert!(kurtosis.abs() < 0.062, "excess kurtosis {kurtosis}");
    }

    /// The largest 53-bit draw.
    const TOP: u64 = (1 << 53) - 1;
    /// The last draw of the central branch: `q = 0.425` in `f64`, where the
    /// next draw's `q` is the first above it. Its mirror `TOP − CENTRAL_LAST`
    /// is the first central draw above the lower tail.
    const CENTRAL_LAST: u64 = 8_331_659_310_635_417;
    /// The first draw of the lower tail whose `r = sqrt(−ln(½ − |q|))` is
    /// at most 5 (`r` 4.99999998 here, 5.0000008 one draw below).
    const NEAR_FIRST: u64 = 125_091;

    /// `q = u − ½` of draw `k`, as [`normal_of`] computes it.
    fn q_of(k: u64) -> f64 {
        ((k as i64 - (1 << 52)) as f64 + 0.5) / (1u64 << 53) as f64
    }

    #[test]
    fn normal_branches_switch_where_as241_says() {
        assert!(q_of(CENTRAL_LAST) <= 0.425 && q_of(CENTRAL_LAST + 1) > 0.425);
        let first = TOP - CENTRAL_LAST;
        assert_eq!(q_of(first), -q_of(CENTRAL_LAST));
        assert!(q_of(first - 1) < -0.425);
        let r = |k: u64| (-(0.5 - q_of(k).abs()).ln()).sqrt();
        assert!(r(NEAR_FIRST - 1) > 5.0 && r(NEAR_FIRST) <= 5.0);
        assert!(r(TOP - NEAR_FIRST + 1) > 5.0 && r(TOP - NEAR_FIRST) <= 5.0);
    }

    #[test]
    fn normal_is_odd_bit_for_bit() {
        let mut rng = SplitMix64::new(13);
        // Edges and their mirrors: the ends, both branch switches and the
        // two draws either side of the centre.
        let edges = [0, 1, NEAR_FIRST, CENTRAL_LAST, CENTRAL_LAST + 1, 1 << 52];
        let random = (0..2_000).map(|_| rng.next() >> 11);
        for k in edges.into_iter().chain(random) {
            let (z, mirror) = (normal_of(k), normal_of(TOP - k));
            assert_eq!(mirror.to_bits(), (-z).to_bits(), "k {k}: {z} vs {mirror}");
        }
    }

    #[test]
    fn normal_never_steps_down_by_more_than_one_ulp() {
        // Windows of 4,096 draws at both ends, across both branch switches
        // on both sides, and across the centre.
        let ends = [0, TOP - 4_096];
        let mids = [
            NEAR_FIRST,
            TOP - CENTRAL_LAST,
            1 << 52,
            CENTRAL_LAST,
            TOP - NEAR_FIRST,
        ];
        for start in ends.into_iter().chain(mids.map(|k| k - 2_048)) {
            let mut prev = normal_of(start);
            for k in start + 1..=start + 4_096 {
                let z = normal_of(k);
                assert!(z >= prev.next_down(), "k {k}: {prev} then {z}");
                prev = z;
            }
        }
    }

    /// `(k, Φ⁻¹(u))` at `u = (k + ½)·2^−53`, computed at 40 digits and
    /// rounded to `f64` by mpmath 1.3.0:
    ///
    /// ```text
    /// python3 -c "import mpmath; mpmath.mp.dps = 40; k = 0; \
    ///   u = (mpmath.mpf(k) + 0.5) / 2**53; \
    ///   print(repr(float(mpmath.sqrt(2) * mpmath.erfinv(2*u - 1))))"
    /// ```
    const QUANTILES: [(u64, f64); 15] = [
        (0, -8.292361075813595),
        (1, -8.160707840858583),
        (1_000, -7.3347380140439435),
        (NEAR_FIRST - 1, -6.657905792482562),
        (NEAR_FIRST, -6.657904617210832),
        (1 << 40, -3.6683292851212066),
        (TOP - CENTRAL_LAST - 1, -1.4395314709384566),
        (TOP - CENTRAL_LAST, -1.439531470938456),
        (2_803_141_221_216_571, -0.4924201111074364),
        ((1 << 52) - 1, -1.3914582123358836e-16),
        (1 << 52, 1.3914582123358836e-16),
        (3 << 51, 0.6744897501960819),
        (CENTRAL_LAST, 1.439531470938456),
        (CENTRAL_LAST + 1, 1.4395314709384566),
        (TOP, 8.292361075813595),
    ];

    #[test]
    fn normal_is_within_six_ulps_of_the_true_quantile() {
        // Over 2,884 draws (uniform, log-spaced into the lower tail, and
        // around both switches) the largest error was 4.8 ulps, at the
        // central draw 2_803_141_221_216_571 listed here.
        for (k, quantile) in QUANTILES {
            let ulp = quantile.abs().next_up() - quantile.abs();
            let z = normal_of(k);
            assert!((z - quantile).abs() <= 6.0 * ulp, "k {k}: {z}");
        }
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
