//! A small, portable, seedable PRNG (xoshiro256++).
//!
//! The engine carries its own generator so that simulation traces are
//! bit-identical across machines and dependency upgrades. The generator is
//! xoshiro256++ seeded through SplitMix64, the construction recommended by
//! the xoshiro authors.

/// A deterministic pseudo-random number generator (xoshiro256++).
///
/// Not cryptographically secure; intended only for workload jitter and
/// randomized placement inside the simulator.
///
/// # Example
///
/// ```
/// use sdnbuf_sim::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Any seed (including zero) is
    /// valid; the internal state is expanded through SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Returns the next 64 uniformly distributed random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Widening-multiply rejection sampling (Lemire 2019): unbiased.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples an exponentially distributed value with the given mean.
    ///
    /// Used for Poisson inter-arrival jitter in workloads. Returns `0.0` when
    /// `mean <= 0`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; 1 - u avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// repetition of an experiment its own stream from one master seed.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SimRng::seed_from(0);
        // Must not be stuck at zero.
        assert!((0..8).any(|_| r.next_u64() != 0));
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = SimRng::seed_from(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut r = SimRng::seed_from(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.gen_range(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gen_range_zero_panics() {
        SimRng::seed_from(1).gen_range(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SimRng::seed_from(5);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::seed_from(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn exp_nonpositive_mean_is_zero() {
        let mut r = SimRng::seed_from(1);
        assert_eq!(r.exp(0.0), 0.0);
        assert_eq!(r.exp(-1.0), 0.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from(13);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut master = SimRng::seed_from(21);
        let mut c1 = master.fork();
        let mut c2 = master.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
