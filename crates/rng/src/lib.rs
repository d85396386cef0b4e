//! Seeded xorshift64* generator: deterministic, dependency-light, and
//! adequate for straggler injection, fault injection, and synthetic
//! dataset generation.
//!
//! The workspace deliberately carries **no crates.io dependencies** so
//! tier-1 verification works on an air-gapped machine; this crate is the
//! shared randomness primitive that replaces `rand` everywhere. Every
//! consumer seeds its own generator (often salted per link, per worker,
//! or per dataset) so streams are independent and runs are replayable.

#![forbid(unsafe_code)]

/// A seeded xorshift64* generator.
///
/// Statistical quality is adequate for simulation and test-input
/// generation; it is **not** a cryptographic generator.
#[derive(Debug, Clone)]
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    /// A generator seeded by `seed`. Distinct seeds produce independent
    /// streams; the same seed always reproduces the same stream.
    pub fn new(seed: u64) -> Self {
        Xorshift {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    /// A generator whose stream is independent per `(seed, salt)` pair —
    /// the idiom for per-link or per-worker substreams.
    pub fn with_salt(seed: u64, salt: u64) -> Self {
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0x2545_F491_4F6C_DD1D))
            ^ salt.rotate_left(17);
        Xorshift {
            state: mixed.max(1),
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift bounded sampling (Lemire); the modulo bias of the
        // fallback would be invisible at simulation scales anyway.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform integer in `[0, bound)` as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && (hi - lo).is_finite(), "bad range {lo}..{hi}");
        lo + self.unit() * (hi - lo)
    }

    /// A Bernoulli trial: `true` with probability `p`.
    ///
    /// `p <= 0` never fires and `p >= 1` always fires, without consuming
    /// randomness in the degenerate `p <= 0` case only when exactly zero.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// Exponentially distributed with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Xorshift::new(7);
        let mut b = Xorshift::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn salted_streams_differ() {
        let mut a = Xorshift::with_salt(7, 1);
        let mut b = Xorshift::with_salt(7, 2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn unit_is_in_range_and_varied() {
        let mut rng = Xorshift::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn below_respects_bound_and_covers() {
        let mut rng = Xorshift::new(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            let v = rng.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues reachable");
    }

    #[test]
    fn range_f64_stays_inside() {
        let mut rng = Xorshift::new(13);
        for _ in 0..1_000 {
            let v = rng.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut rng = Xorshift::new(17);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn exponential_has_requested_mean() {
        let mut rng = Xorshift::new(5);
        let mean = (0..20_000).map(|_| rng.exponential(2.0)).sum::<f64>() / 20_000.0;
        assert!((1.9..2.1).contains(&mean), "mean {mean}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Xorshift::new(23);
        let mut v: Vec<u32> = (0..32).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 32-element shuffle is almost surely nontrivial"
        );
    }
}
