//! Deterministic, splittable random-number generation.
//!
//! Reproducibility is a requirement of the benchmark harness: every table in
//! the paper must regenerate identically from a seed. [`DetRng`] is a
//! self-contained xoshiro256++ implementation with no external dependencies,
//! so results cannot drift with third-party RNG internals across versions
//! (and the workspace builds in fully offline environments).
//!
//! Independent simulation components get *streams* derived from a root seed
//! ([`DetRng::stream`]), so adding a random draw to one component never
//! perturbs another — the standard trick for variance-controlled simulation
//! experiments.

/// SplitMix64 step, used to expand seeds and derive stream keys.
///
/// This is the seed-expansion function recommended by the xoshiro authors.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ PRNG with named substreams.
///
/// # Examples
///
/// ```
/// use netbatch_sim_engine::rng::DetRng;
///
/// let root = DetRng::from_seed_u64(42);
/// let mut arrivals = root.stream("arrivals");
/// let x = arrivals.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64.
    pub fn from_seed_u64(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent substream keyed by `label`.
    ///
    /// Streams with different labels (or derived from different parents) are
    /// statistically independent; deriving the same label twice from the
    /// same parent state yields identical streams. This method does **not**
    /// advance `self`.
    pub fn stream(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut sm = h ^ self.s[0] ^ self.s[2].rotate_left(32);
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent substream keyed by an integer index, e.g. one
    /// stream per pool or per job class.
    pub fn stream_indexed(&self, label: &str, index: u64) -> DetRng {
        let mut derived = self.stream(label);
        let mut sm = derived.next_u64_inner() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        derived.s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        derived
    }

    /// Advances the generator and returns the next 64 random bits
    /// (xoshiro256++ core step).
    pub fn next_u64_inner(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64_inner() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Widening-multiply rejection sampling (unbiased).
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64_inner();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::from_seed_u64(7);
        let mut b = DetRng::from_seed_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_inner(), b.next_u64_inner());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::from_seed_u64(1);
        let mut b = DetRng::from_seed_u64(2);
        let same = (0..100)
            .filter(|_| a.next_u64_inner() == b.next_u64_inner())
            .count();
        assert!(same < 5, "seeds 1 and 2 should produce distinct streams");
    }

    #[test]
    fn streams_are_stable_and_independent() {
        let root = DetRng::from_seed_u64(99);
        let mut s1 = root.stream("arrivals");
        let mut s1_again = root.stream("arrivals");
        let mut s2 = root.stream("durations");
        assert_eq!(s1.next_u64_inner(), s1_again.next_u64_inner());
        let mut collisions = 0;
        for _ in 0..100 {
            if s1.next_u64_inner() == s2.next_u64_inner() {
                collisions += 1;
            }
        }
        assert!(collisions < 5);
    }

    #[test]
    fn indexed_streams_differ_per_index() {
        let root = DetRng::from_seed_u64(5);
        let mut a = root.stream_indexed("pool", 0);
        let mut b = root.stream_indexed("pool", 1);
        assert_ne!(a.next_u64_inner(), b.next_u64_inner());
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = DetRng::from_seed_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = DetRng::from_seed_u64(11);
        for bound in [1u64, 2, 3, 7, 20, 1000] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = DetRng::from_seed_u64(13);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.next_below(5) as usize] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} skewed");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        DetRng::from_seed_u64(0).next_below(0);
    }

    #[test]
    fn bounded_draws_compose_with_streams() {
        let mut rng = DetRng::from_seed_u64(17).stream("combinators");
        let v = rng.next_below(10);
        assert!(v < 10);
    }

    proptest! {
        #[test]
        fn prop_next_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut rng = DetRng::from_seed_u64(seed);
            for _ in 0..50 {
                prop_assert!(rng.next_below(bound) < bound);
            }
        }

        #[test]
        fn prop_f64_in_unit(seed in any::<u64>()) {
            let mut rng = DetRng::from_seed_u64(seed);
            for _ in 0..50 {
                let x = rng.next_f64();
                prop_assert!((0.0..1.0).contains(&x));
            }
        }
    }
}
