//! Empirical cumulative distribution functions.
//!
//! Figure 2 of the paper plots the CDF of job suspension time on a
//! log-scaled x axis; [`Cdf`] produces exactly that kind of series, plus the
//! summary points the paper quotes (median 437 min, mean 905 min, 20% above
//! 1100 min).

use std::fmt;

/// An empirical CDF over `f64` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from observations.
    ///
    /// # Panics
    ///
    /// Panics if any observation is NaN.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "NaN observation in CDF input"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Cdf { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x): fraction of observations ≤ `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF by nearest rank; `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile p must be in [0, 1]");
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        // The small epsilon compensates for f64 roundoff so that
        // quantile(k/n) lands exactly on the k-th order statistic.
        let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Evaluates the CDF at logarithmically spaced x positions between the
    /// smallest positive observation and the maximum — the series behind a
    /// log-x CDF plot like Figure 2. Returns `(x, percent ≤ x)` pairs.
    pub fn log_series(&self, points_per_decade: usize) -> Vec<(f64, f64)> {
        assert!(points_per_decade > 0, "need at least one point per decade");
        let Some(&max) = self.sorted.last() else {
            return Vec::new();
        };
        let min_pos = self
            .sorted
            .iter()
            .copied()
            .find(|&v| v > 0.0)
            .unwrap_or(1.0);
        if max <= min_pos {
            return vec![(max, 100.0)];
        }
        let lo = min_pos.log10().floor();
        let hi = max.log10().ceil();
        let steps = ((hi - lo) * points_per_decade as f64).ceil() as usize;
        (0..=steps)
            .map(|i| {
                let x = 10f64.powf(lo + i as f64 / points_per_decade as f64);
                (x, self.at(x) * 100.0)
            })
            .collect()
    }

    /// The observations in ascending order.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cdf(n={}, median={:.1}, mean={:.1})",
            self.len(),
            self.median().unwrap_or(0.0),
            self.mean()
        )
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Cdf::from_samples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_evaluation() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.at(0.5), 0.0);
        assert_eq!(cdf.at(1.0), 0.25);
        assert_eq!(cdf.at(2.5), 0.5);
        assert_eq!(cdf.at(100.0), 1.0);
    }

    #[test]
    fn quantiles_and_median() {
        let cdf: Cdf = (1..=100).map(f64::from).collect();
        assert_eq!(cdf.median(), Some(50.0));
        assert_eq!(cdf.quantile(0.8), Some(80.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert!((cdf.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf() {
        let cdf = Cdf::from_samples(std::iter::empty());
        assert!(cdf.is_empty());
        assert_eq!(cdf.at(1.0), 0.0);
        assert_eq!(cdf.median(), None);
        assert!(cdf.log_series(10).is_empty());
    }

    #[test]
    fn empty_cdf_quantiles_at_extremes() {
        let cdf = Cdf::from_samples(std::iter::empty());
        // Every probability, including the boundary ranks, is None — not
        // a panic and not a sentinel value.
        for p in [0.0, 0.25, 0.5, 0.999, 1.0] {
            assert_eq!(cdf.quantile(p), None);
        }
        assert_eq!(cdf.mean(), 0.0);
        assert_eq!(cdf.sorted_values(), &[] as &[f64]);
    }

    #[test]
    fn single_sample_quantiles_all_collapse() {
        let cdf = Cdf::from_samples([437.0]);
        // Nearest-rank on n=1: every p maps to the only observation.
        for p in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(cdf.quantile(p), Some(437.0));
        }
        assert_eq!(cdf.median(), Some(437.0));
        assert_eq!(cdf.mean(), 437.0);
        assert_eq!(cdf.at(436.9), 0.0);
        assert_eq!(cdf.at(437.0), 1.0);
        let series = cdf.log_series(4);
        assert!((series.last().unwrap().1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn single_zero_sample_has_no_positive_support() {
        // All mass at zero: log_series has no positive observation to
        // anchor its decade range, so it degenerates to one point.
        let cdf = Cdf::from_samples([0.0]);
        assert_eq!(cdf.quantile(0.5), Some(0.0));
        assert_eq!(cdf.log_series(10), vec![(0.0, 100.0)]);
    }

    #[test]
    #[should_panic(expected = "quantile p must be in [0, 1]")]
    fn out_of_range_probability_rejected() {
        Cdf::from_samples([1.0]).quantile(1.5);
    }

    #[test]
    fn log_series_monotone_and_spans_range() {
        let cdf: Cdf = (1..=1000).map(f64::from).collect();
        let series = cdf.log_series(10);
        assert!(series.len() >= 30);
        assert!(series.first().unwrap().0 <= 1.0);
        assert!(series.last().unwrap().0 >= 1000.0);
        let mut last = -1.0;
        for &(_, p) in &series {
            assert!(p >= last);
            last = p;
        }
        assert!((series.last().unwrap().1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn log_series_single_value() {
        let cdf = Cdf::from_samples([5.0]);
        let series = cdf.log_series(4);
        assert!((series.last().unwrap().1 - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_rejected() {
        Cdf::from_samples([f64::NAN]);
    }

    /// A shrunk proptest case (29 zeros, then six large values), pinned
    /// as a named test: `prop_quantile_inverse`'s inverse bound and
    /// `prop_cdf_monotone`'s monotonicity and range hold on it.
    #[test]
    fn regression_zero_heavy_samples_invert_and_stay_monotone() {
        let mut data = vec![0.0; 29];
        data.extend([
            550282.3154337547,
            508917.58280983043,
            210199.15380756455,
            940274.4718611027,
            775214.8692890264,
            440042.61028524797,
        ]);
        let cdf = Cdf::from_samples(data.clone());
        for &x in &data {
            let q = cdf.quantile(cdf.at(x)).unwrap();
            assert!(q <= x + 1e-9, "quantile(at({x})) = {q}");
        }
        let mut probes = data;
        probes.push(1e6);
        probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = -1.0;
        for p in probes {
            let v = cdf.at(p);
            assert!(v >= last, "at({p}) = {v} fell below {last}");
            assert!((0.0..=1.0).contains(&v));
            last = v;
        }
    }

    proptest! {
        /// at() is monotone non-decreasing.
        #[test]
        fn prop_cdf_monotone(data in proptest::collection::vec(0f64..1e6, 1..100),
                             probes in proptest::collection::vec(0f64..1e6, 2..20)) {
            let cdf = Cdf::from_samples(data);
            let mut probes = probes;
            probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last = -1.0;
            for p in probes {
                let v = cdf.at(p);
                prop_assert!(v >= last);
                prop_assert!((0.0..=1.0).contains(&v));
                last = v;
            }
        }

        /// quantile(at(x)) ≤ x for x at observations.
        #[test]
        fn prop_quantile_inverse(data in proptest::collection::vec(0f64..1e6, 1..100)) {
            let cdf = Cdf::from_samples(data.clone());
            for &x in &data {
                let q = cdf.quantile(cdf.at(x)).unwrap();
                prop_assert!(q <= x + 1e-9);
            }
        }
    }
}
