//! Random-variate samplers for workload synthesis.
//!
//! The NetBatch trace is proprietary, so we synthesize workloads from
//! distributions whose aggregate behaviour matches what the paper reports:
//! heavy-tailed runtimes (long-tailed completion/suspension distributions,
//! jobs needing >100k minutes exist), bursty high-priority arrivals, and a
//! ~40% mean utilization. Implemented here rather than pulling `rand_distr`
//! to stay within the approved dependency set (see DESIGN.md §7).

use netbatch_sim_engine::rng::DetRng;

/// A distribution over non-negative `f64` values.
///
/// `sample` takes `&self`; samplers are stateless value types so streams
/// stay reproducible and shareable across generator components.
pub trait Distribution: std::fmt::Debug {
    /// Draws one variate using the provided RNG.
    fn sample(&self, rng: &mut DetRng) -> f64;

    /// The distribution's mean, used for workload calibration (estimating
    /// offered load before running the simulator).
    fn mean(&self) -> f64;
}

/// Always returns the same value. Useful in tests and as a degenerate
/// runtime distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut DetRng) -> f64 {
        self.0
    }

    fn mean(&self) -> f64 {
        self.0
    }
}

/// Exponential distribution with the given mean (minutes between arrivals,
/// for Poisson processes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0`.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        Exponential { mean }
    }

    /// Creates an exponential distribution with the given rate (events per
    /// minute).
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0`.
    pub fn with_rate(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Exponential { mean: 1.0 / rate }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        // Inverse CDF; 1 - u avoids ln(0).
        -self.mean * (1.0 - rng.next_f64()).ln()
    }

    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `mu`/`sigma` — the standard body model for batch-job runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma > 0` and both are finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma > 0.0,
            "invalid log-normal parameters"
        );
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal with a target *median* and sigma. The median of
    /// a log-normal is `exp(mu)`, which makes calibration against the
    /// paper's published medians direct.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// One standard-normal variate via Box–Muller (the cosine branch only,
    /// so the sampler stays stateless).
    fn standard_normal(rng: &mut DetRng) -> f64 {
        let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// Pareto (power-law) distribution: the tail model for the >100k-minute
/// jobs the paper observes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto with minimum value `scale` and shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless both are positive and finite.
    pub fn new(scale: f64, alpha: f64) -> Self {
        assert!(
            scale > 0.0 && alpha > 0.0 && scale.is_finite() && alpha.is_finite(),
            "invalid Pareto parameters"
        );
        Pareto { scale, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        self.scale / u.powf(1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.scale / (self.alpha - 1.0)
        }
    }
}

/// A two-component mixture: with probability `tail_weight` sample the tail,
/// otherwise the body. Log-normal body + Pareto tail is our runtime model.
#[derive(Debug, Clone)]
pub struct Mixture<B, T> {
    body: B,
    tail: T,
    tail_weight: f64,
}

impl<B: Distribution, T: Distribution> Mixture<B, T> {
    /// Creates a mixture.
    ///
    /// # Panics
    ///
    /// Panics unless `tail_weight ∈ [0, 1]`.
    pub fn new(body: B, tail: T, tail_weight: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tail_weight),
            "tail weight must be a probability"
        );
        Mixture {
            body,
            tail,
            tail_weight,
        }
    }
}

impl<B: Distribution, T: Distribution> Distribution for Mixture<B, T> {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        if rng.next_f64() < self.tail_weight {
            self.tail.sample(rng)
        } else {
            self.body.sample(rng)
        }
    }

    fn mean(&self) -> f64 {
        self.tail_weight * self.tail.mean() + (1.0 - self.tail_weight) * self.body.mean()
    }
}

/// Weighted choice over a small discrete set (core counts, memory sizes).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedChoice {
    values: Vec<f64>,
    cumulative: Vec<f64>,
}

impl WeightedChoice {
    /// Creates a weighted choice from `(value, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty, or any weight is negative, or all weights are zero.
    pub fn new(pairs: &[(f64, f64)]) -> Self {
        assert!(
            !pairs.is_empty(),
            "weighted choice needs at least one value"
        );
        assert!(
            pairs.iter().all(|&(_, w)| w >= 0.0 && w.is_finite()),
            "weights must be non-negative"
        );
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(total > 0.0, "at least one weight must be positive");
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for &(_, w) in pairs {
            acc += w / total;
            cumulative.push(acc);
        }
        WeightedChoice {
            values: pairs.iter().map(|&(v, _)| v).collect(),
            cumulative,
        }
    }
}

impl Distribution for WeightedChoice {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        let u = rng.next_f64();
        let idx = self.cumulative.partition_point(|&c| c < u);
        self.values[idx.min(self.values.len() - 1)]
    }

    fn mean(&self) -> f64 {
        let mut prev = 0.0;
        self.values
            .iter()
            .zip(&self.cumulative)
            .map(|(&v, &c)| {
                let p = c - prev;
                prev = c;
                v * p
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn empirical_mean(d: &impl Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = DetRng::from_seed_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant(7.5);
        let mut rng = DetRng::from_seed_u64(0);
        assert_eq!(d.sample(&mut rng), 7.5);
        assert_eq!(d.mean(), 7.5);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(20.0);
        let m = empirical_mean(&d, 200_000, 1);
        assert!((m - 20.0).abs() < 0.5, "empirical mean {m}");
        let r = Exponential::with_rate(0.25);
        assert!((r.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::with_median(100.0, 1.0);
        let mut rng = DetRng::from_seed_u64(2);
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[50_000];
        assert!((median / 100.0 - 1.0).abs() < 0.05, "median {median}");
        let m = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((m / d.mean() - 1.0).abs() < 0.1, "mean {m} vs {}", d.mean());
    }

    #[test]
    fn pareto_tail_is_heavy() {
        let d = Pareto::new(10.0, 1.5);
        let mut rng = DetRng::from_seed_u64(3);
        let n = 100_000;
        let big = (0..n).filter(|_| d.sample(&mut rng) > 1000.0).count();
        // P(X > 1000) = (10/1000)^1.5 ≈ 0.001.
        assert!(big > 40 && big < 250, "tail count {big}");
        assert!((d.mean() - 30.0).abs() < 1e-12);
        assert_eq!(Pareto::new(1.0, 0.9).mean(), f64::INFINITY);
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let m = Mixture::new(Constant(10.0), Constant(1000.0), 0.01);
        assert!((m.mean() - 19.9).abs() < 1e-9);
        let em = empirical_mean(&m, 100_000, 4);
        assert!((em / m.mean() - 1.0).abs() < 0.1, "empirical {em}");
    }

    #[test]
    fn weighted_choice_frequencies() {
        let d = WeightedChoice::new(&[(1.0, 0.5), (2.0, 0.25), (4.0, 0.25)]);
        let mut rng = DetRng::from_seed_u64(6);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(d.sample(&mut rng) as u64).or_insert(0u32) += 1;
        }
        assert!((f64::from(counts[&1]) / 100_000.0 - 0.5).abs() < 0.02);
        assert!((f64::from(counts[&2]) / 100_000.0 - 0.25).abs() < 0.02);
        assert!((d.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn exponential_rejects_bad_mean() {
        Exponential::with_mean(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn weighted_choice_rejects_zero_weights() {
        WeightedChoice::new(&[(1.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "tail weight")]
    fn mixture_rejects_bad_weight() {
        Mixture::new(Constant(1.0), Constant(2.0), 1.5);
    }

    proptest! {
        /// All samplers produce non-negative, finite values for valid
        /// parameter ranges.
        #[test]
        fn prop_samples_are_finite(seed in any::<u64>(),
                                   mean in 0.1f64..1e4,
                                   sigma in 0.1f64..3.0,
                                   alpha in 1.1f64..4.0) {
            let mut rng = DetRng::from_seed_u64(seed);
            let e = Exponential::with_mean(mean);
            let l = LogNormal::with_median(mean, sigma);
            let p = Pareto::new(mean, alpha);
            for _ in 0..20 {
                for v in [e.sample(&mut rng), l.sample(&mut rng), p.sample(&mut rng)] {
                    prop_assert!(v.is_finite() && v >= 0.0);
                }
            }
        }

        /// Pareto samples never fall below the scale parameter.
        #[test]
        fn prop_pareto_lower_bound(seed in any::<u64>(), scale in 0.5f64..100.0) {
            let d = Pareto::new(scale, 2.0);
            let mut rng = DetRng::from_seed_u64(seed);
            for _ in 0..50 {
                prop_assert!(d.sample(&mut rng) >= scale);
            }
        }
    }
}
