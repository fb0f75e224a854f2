//! Fixed-length bitsets for columnar presence masks.
//!
//! The columnar assessment kernels (`easyc::columns`) store one presence bit
//! per (system, metric) instead of per-row `Option`s, so applying a scenario
//! `MetricMask` is a word-wide AND against a broadcast bit rather than a
//! per-row branch. The bitset is deliberately minimal: fixed length at
//! construction, 64-bit words exposed directly so kernels can classify 64
//! rows per word operation.

/// A fixed-length bitset backed by `u64` words (LSB-first within a word).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// All-zero bitset of `len` bits.
    pub fn new(len: usize) -> Bitset {
        Bitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Sets bit `i` to `value`. Panics when `i` is out of range.
    pub fn assign(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Sets bit `i`. Panics when `i` is out of range.
    pub fn set(&mut self, i: usize) {
        self.assign(i, true);
    }

    /// Reads bit `i`. Panics when `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The backing words, LSB-first; bits past `len` in the last word are 0.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Word `w` (bits `64 * w ..`), or 0 past the end — callers iterating a
    /// sub-range in word blocks don't need a bounds branch for the tail.
    pub fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Word `w` when `visible` is true, 0 otherwise — the branchless
    /// "presence AND scenario-mask bit" combination used by the kernels.
    pub fn masked_word(&self, w: usize, visible: bool) -> u64 {
        // `visible` is scenario-constant; `as u64` turns it into a broadcast
        // multiplier instead of a per-word branch.
        self.word(w) * visible as u64
    }
}

/// Iterates the indices of set bits in `word`, offset by `base`.
pub fn for_each_set_bit(mut word: u64, base: usize, mut f: impl FnMut(usize)) {
    while word != 0 {
        let bit = word.trailing_zeros() as usize;
        f(base + bit);
        word &= word - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitset::new(130);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        for i in 0..130 {
            assert_eq!(b.get(i), matches!(i, 0 | 63 | 64 | 129), "bit {i}");
        }
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn assign_clears() {
        let mut b = Bitset::new(10);
        b.set(3);
        b.assign(3, false);
        assert!(!b.get(3));
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn words_and_tail() {
        let mut b = Bitset::new(70);
        b.set(65);
        assert_eq!(b.words().len(), 2);
        assert_eq!(b.word(1), 0b10);
        assert_eq!(b.word(5), 0, "past-the-end words read as zero");
    }

    #[test]
    fn masked_word_is_presence_and_mask() {
        let mut b = Bitset::new(64);
        b.set(7);
        assert_eq!(b.masked_word(0, true), 1 << 7);
        assert_eq!(b.masked_word(0, false), 0);
    }

    #[test]
    fn for_each_set_bit_visits_in_order() {
        let mut seen = Vec::new();
        for_each_set_bit(0b1010_0001, 100, |i| seen.push(i));
        assert_eq!(seen, vec![100, 105, 107]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        Bitset::new(8).get(8);
    }

    #[test]
    fn empty_bitset() {
        let b = Bitset::new(0);
        assert_eq!(b.words().len(), 0);
        assert_eq!(b.word(0), 0);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.masked_word(0, true), 0);
        let mut visited = Vec::new();
        for_each_set_bit(b.word(0), 0, |i| visited.push(i));
        assert!(visited.is_empty(), "empty set visits nothing");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_past_len_panics() {
        Bitset::new(70).set(70);
    }

    #[test]
    fn trailing_partial_word_stays_masked() {
        // 70 bits = one full word + a 6-bit tail; the invariant `words()`
        // documents is that bits past `len` in the last word are 0.
        let mut b = Bitset::new(70);
        for i in 0..70 {
            b.set(i);
        }
        assert_eq!(b.words()[0], u64::MAX);
        assert_eq!(b.words()[1], (1 << 6) - 1, "tail bits beyond len stay 0");
        assert_eq!(b.count_ones(), 70);
        // Clearing and re-setting at the word boundary and at the last
        // valid index never disturbs the tail.
        for i in [0usize, 63, 64, 69] {
            b.assign(i, false);
            b.assign(i, true);
        }
        assert_eq!(b.words()[1] >> 6, 0);
        assert_eq!(b.count_ones(), 70);
        // A 64-aligned length has no tail word at all.
        let mut full = Bitset::new(128);
        full.set(127);
        assert_eq!(full.words().len(), 2);
        assert_eq!(full.word(2), 0);
    }

    #[test]
    fn word_iteration_covers_exactly_the_set_bits_in_order() {
        let mut b = Bitset::new(130);
        let set = [0usize, 1, 62, 63, 64, 100, 128, 129];
        for &i in &set {
            b.set(i);
        }
        let mut visited = Vec::new();
        for w in 0..b.words().len() {
            for_each_set_bit(b.word(w), w * 64, |i| visited.push(i));
        }
        assert_eq!(visited, set);
    }
}
