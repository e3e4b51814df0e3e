//! Deterministic pseudo-random number generation.
//!
//! The simulator must be exactly reproducible: the same seed must produce
//! the same trace, the same victim choices (SHARP's random fallback), and
//! the same statistics on every platform. We therefore implement a small,
//! well-known generator — xoshiro256** seeded via SplitMix64 — rather than
//! depending on an external crate whose output could change across
//! versions.

/// A deterministic xoshiro256** generator.
///
/// # Examples
///
/// ```
/// use ziv_common::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step, used for seeding.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator; used to give each core,
    /// bank, and workload stream its own stream without correlation.
    pub fn fork(&mut self, salt: u64) -> Self {
        let mixed = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(mixed)
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Lemire's unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `0..bound`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns a uniform value in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range() requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick() requires a non-empty slice");
        &items[self.below_usize(items.len())]
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }
}

/// A (truncated) geometric distribution: returns `k` with probability
/// proportional to `p * (1-p)^k`, capped at `max`. The workload
/// generators draw every record's instruction gap from one.
///
/// A draw inverts one uniform variate `u` in `[0, 1)`, clamped up to
/// `f64::MIN_POSITIVE`: `k = ln(u) / ln(1 - p)`, rounded down.
/// `ln(1 - p)` is taken once, at construction. Both logarithms are negative, so the quotient is
/// non-negative and the truncating `as u64` cast rounds it down, as
/// `floor` would; in the degenerate case where `1 - p` rounds to 1 the
/// quotient is negative and both cast to 0. Draws are therefore
/// bit-identical to evaluating `(ln(u) / ln(1 - p)).floor()` per call.
///
/// # Examples
///
/// ```
/// use ziv_common::rng::{Geometric, SimRng};
///
/// let gap = Geometric::new(0.25, 255);
/// let mut rng = SimRng::seed_from_u64(42);
/// assert!(gap.sample(&mut rng) <= 255);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    ln_q: f64,
    max: u64,
}

impl Geometric {
    /// The distribution with success probability `p`, capped at `max`.
    pub fn new(p: f64, max: u64) -> Self {
        debug_assert!(p > 0.0 && p <= 1.0);
        Geometric {
            ln_q: (1.0 - p).max(f64::MIN_POSITIVE).ln(),
            max,
        }
    }

    /// Draws one value, consuming one [`SimRng::next_f64`].
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        self.invert(rng.next_f64())
    }

    /// The value uniform variate `u` in `[0, 1)` maps to.
    #[inline]
    fn invert(&self, u: f64) -> u64 {
        let k = (u.max(f64::MIN_POSITIVE).ln() / self.ln_q) as u64;
        k.min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_all_values() {
        let mut r = SimRng::seed_from_u64(4);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        SimRng::seed_from_u64(0).below(0);
    }

    #[test]
    fn range_within_bounds() {
        let mut r = SimRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(6);
        for _ in 0..1_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn forked_rngs_are_independent() {
        let mut parent = SimRng::seed_from_u64(8);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chance_rates_are_plausible() {
        let mut r = SimRng::seed_from_u64(10);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn geometric_is_capped() {
        let mut r = SimRng::seed_from_u64(11);
        let g = Geometric::new(0.1, 50);
        for _ in 0..1_000 {
            assert!(g.sample(&mut r) <= 50);
        }
    }

    /// The per-call formula [`Geometric`] replaced, kept as its
    /// reference: it takes `ln(1 - p)` on every draw and rounds with
    /// `floor`.
    fn floor_formula(p: f64, max: u64, u: f64) -> u64 {
        let u = u.max(f64::MIN_POSITIVE);
        let k = (u.ln() / (1.0 - p).max(f64::MIN_POSITIVE).ln()).floor() as u64;
        k.min(max)
    }

    #[test]
    fn geometric_draws_equal_the_floor_formula() {
        // Every `p` the workload generators use (`1 / (1 + gap_mean)`
        // for gap means 2..=5, and the multithreaded generators' 0.25,
        // 0.33 and 0.2), certainty, a tiny `p`, and one so small that
        // `1 - p` rounds to 1.
        let ps = [
            1.0 / 3.0,
            1.0 / 4.0,
            1.0 / 5.0,
            1.0 / 6.0,
            0.33,
            0.5,
            0.1,
            1.0,
            1e-12,
            1e-17,
        ];
        // The clamp at `MIN_POSITIVE`, the smallest and largest values
        // `next_f64` returns, and values landing on integer quotients.
        let just_below_one = 1.0 - f64::EPSILON / 2.0;
        let edges = [
            0.0,
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0 / (1u64 << 53) as f64,
            0.25,
            0.5,
            0.75,
            2.0 / 3.0,
            4.0 / 9.0,
            just_below_one,
        ];
        let mut r = SimRng::seed_from_u64(13);
        for p in ps {
            for max in [255, 50, 0, u64::MAX] {
                let g = Geometric::new(p, max);
                for u in edges {
                    assert_eq!(
                        g.invert(u),
                        floor_formula(p, max, u),
                        "p {p} max {max} u {u}"
                    );
                }
                for _ in 0..20_000 {
                    let u = r.next_f64();
                    assert_eq!(
                        g.invert(u),
                        floor_formula(p, max, u),
                        "p {p} max {max} u {u}"
                    );
                }
            }
        }
        // Through the generator too: the same stream, value for value.
        let (mut a, mut b) = (SimRng::seed_from_u64(14), SimRng::seed_from_u64(14));
        let g = Geometric::new(0.25, 255);
        for _ in 0..10_000 {
            assert_eq!(g.sample(&mut a), floor_formula(0.25, 255, b.next_f64()));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn geometric_mean_is_plausible() {
        let mut r = SimRng::seed_from_u64(12);
        let n = 200_000;
        let g = Geometric::new(0.5, 1_000);
        let sum: u64 = (0..n).map(|_| g.sample(&mut r)).sum();
        let mean = sum as f64 / n as f64;
        // E[geometric(p=0.5)] = (1-p)/p = 1.0
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }
}
