//! Deterministic pseudo-random number generation for trace synthesis.
//!
//! Trace generation must be bit-reproducible across runs, platforms, and
//! dependency upgrades, because every experiment in the paper reproduction
//! is keyed off the generated instruction stream. We therefore implement a
//! small, well-known generator (xoshiro256++ seeded via SplitMix64) locally
//! instead of depending on an external crate whose stream might change
//! between versions.

/// A xoshiro256++ pseudo-random number generator.
///
/// Not cryptographically secure — and deliberately so: it is fast, has a
/// 2²⁵⁶−1 period, and its output stream is fixed forever by this
/// implementation.
///
/// # Examples
///
/// ```
/// use ramp_trace::Rng;
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64
    /// as recommended by the xoshiro authors.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng { s }
    }

    /// Returns the next 64 random bits.
    // ramp-lint: hot
    pub fn next_u64(&mut self) -> u64 {
        let [mut s0, mut s1, mut s2, mut s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiplicative rejection-free mapping (Lemire); the tiny bias is
        // irrelevant for workload synthesis.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples a geometric-like distance with the given mean (≥ 1), via
    /// inversion of the exponential distribution, rounded up.
    ///
    /// Used for register dependency distances: a mean of 1 produces tight
    /// serial chains, large means produce abundant ILP.
    pub fn geometric(&mut self, mean: f64) -> u64 {
        debug_assert!(mean >= 1.0, "geometric mean must be >= 1");
        if mean <= 1.0 {
            return 1;
        }
        let u = self.next_f64().max(1e-300);
        let sample = (-u.ln() * (mean - 1.0)).round();
        1 + sample.min(1e9) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from(3);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::seed_from(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::seed_from(5);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = Rng::seed_from(6);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn geometric_mean_tracks_parameter() {
        let mut r = Rng::seed_from(8);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.geometric(6.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 6.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn geometric_minimum_is_one() {
        let mut r = Rng::seed_from(9);
        for _ in 0..10_000 {
            assert!(r.geometric(1.0) == 1);
            assert!(r.geometric(3.0) >= 1);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from(10);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}
