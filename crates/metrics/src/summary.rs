//! Streaming and stored summary statistics.

use std::fmt;

/// Numerically stable streaming statistics (Welford's algorithm) for when
/// samples need not be retained.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation, `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2}",
            self.count,
            self.mean(),
            self.stddev()
        )
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// A retained sample set supporting percentiles and medians (needed for the
/// paper's suspension-time distribution analysis).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    values: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN — NaNs would poison ordering.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample rejected");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean; 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaNs by construction"));
            self.sorted = true;
        }
    }

    /// The `p`-quantile (0 ≤ p ≤ 1) by nearest-rank; `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile p must be in [0, 1]");
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.values.len();
        // The small epsilon compensates for f64 roundoff so that
        // quantile(k/n) lands exactly on the k-th order statistic.
        let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
        Some(self.values[rank - 1])
    }

    /// The median; `None` if empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Read-only access to the (possibly unsorted) samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Extend<f64> for SampleSet {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for SampleSet {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = SampleSet::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn online_mean_and_variance() {
        let mut s = OnlineStats::new();
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn online_empty_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn online_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut all = OnlineStats::new();
        all.extend(data.iter().copied());
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        a.extend(data[..30].iter().copied());
        b.extend(data[30..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), 3.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s: SampleSet = (1..=10).map(f64::from).collect();
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.median(), Some(5.0));
        assert_eq!(s.quantile(0.9), Some(9.0));
        assert_eq!(s.quantile(1.0), Some(10.0));
    }

    #[test]
    fn empty_sample_set() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), None);
    }

    #[test]
    #[should_panic(expected = "NaN sample rejected")]
    fn nan_rejected() {
        SampleSet::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn quantile_out_of_range() {
        let mut s: SampleSet = [1.0].into_iter().collect();
        s.quantile(1.5);
    }

    proptest! {
        /// Online mean equals naive mean.
        #[test]
        fn prop_online_mean(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = OnlineStats::new();
            s.extend(data.iter().copied());
            let naive = data.iter().sum::<f64>() / data.len() as f64;
            prop_assert!((s.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        }

        /// Quantile is monotone in p.
        #[test]
        fn prop_quantile_monotone(data in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let mut s: SampleSet = data.into_iter().collect();
            let mut last = f64::NEG_INFINITY;
            for i in 0..=10 {
                let q = s.quantile(i as f64 / 10.0).unwrap();
                prop_assert!(q >= last);
                last = q;
            }
        }
    }
}
