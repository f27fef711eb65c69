//! Sampled time series with interval aggregation.
//!
//! The paper's Figure 4 samples suspension count and utilization every
//! minute, then aggregates to 100-minute averages. [`TimeSeries`] stores the
//! per-minute samples; [`TimeSeries::aggregate`] produces the 100-minute
//! series.
//!
//! Observers that only ever read a series' reductions keep no samples:
//! [`SeriesStats`] folds a series into its last value, mean,
//! time-weighted mean and maximum as samples arrive, and [`BucketMeans`]
//! folds `N` series sampled at the same instants into their bucket means.
//! Both do the same arithmetic in the same order as the [`TimeSeries`]
//! methods, so their results are bit-equal; their memory does not grow
//! with the number of samples (one entry per non-empty bucket for
//! [`BucketMeans`]).

use netbatch_sim_engine::time::{SimDuration, SimTime};

/// A time-ordered sequence of `(instant, value)` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the previous sample (series must be
    /// recorded in time order) or `value` is NaN.
    pub fn push(&mut self, at: SimTime, value: f64) {
        assert!(!value.is_nan(), "NaN sample rejected");
        if let Some(&(last, _)) = self.samples.last() {
            assert!(at >= last, "samples must be time-ordered: {at} < {last}");
        }
        self.samples.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Mean of all sample values; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64
    }

    /// Maximum sample value, `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .max_by(|a, b| a.partial_cmp(b).expect("no NaNs"))
    }

    /// Averages samples into fixed-width buckets: returns one
    /// `(bucket_start, mean)` pair per non-empty bucket, in time order.
    /// With `bucket = 100` minutes this reproduces Figure 4's aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn aggregate(&self, bucket: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        let width = bucket.as_minutes();
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut cur_bucket: Option<(u64, f64, u64)> = None; // (index, sum, n)
        for &(t, v) in &self.samples {
            let idx = t.as_minutes() / width;
            match cur_bucket {
                Some((b, sum, n)) if b == idx => cur_bucket = Some((b, sum + v, n + 1)),
                Some((b, sum, n)) => {
                    out.push((SimTime::from_minutes(b * width), sum / n as f64));
                    cur_bucket = Some((idx, v, 1));
                    debug_assert!(idx > b);
                }
                None => cur_bucket = Some((idx, v, 1)),
            }
        }
        if let Some((b, sum, n)) = cur_bucket {
            out.push((SimTime::from_minutes(b * width), sum / n as f64));
        }
        out
    }

    /// Time-weighted mean between consecutive samples over the sampled span
    /// (each value holds until the next sample). Falls back to the plain
    /// mean when fewer than two samples exist.
    pub fn time_weighted_mean(&self) -> f64 {
        if self.samples.len() < 2 {
            return self.mean();
        }
        let mut weighted = 0.0;
        let mut span = 0u64;
        for pair in self.samples.windows(2) {
            let dt = pair[1].0.since(pair[0].0).as_minutes();
            weighted += pair[0].1 * dt as f64;
            span += dt;
        }
        if span == 0 {
            self.mean()
        } else {
            weighted / span as f64
        }
    }
}

/// The online reductions of one time-ordered series: what
/// [`TimeSeries::samples`]`().last()`, [`TimeSeries::mean`],
/// [`TimeSeries::time_weighted_mean`] and [`TimeSeries::max`] return for
/// the same pushes, without keeping the samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    len: u64,
    last: Option<(SimTime, f64)>,
    // Sample values summed in push order from -0.0, the neutral element
    // `f64: Sum` folds from, so `mean` matches `TimeSeries::mean` bit for bit.
    sum: f64,
    // Σ value × minutes it held, and Σ minutes, over consecutive pairs.
    weighted: f64,
    span: u64,
    max: Option<f64>,
}

impl Default for SeriesStats {
    fn default() -> Self {
        SeriesStats::new()
    }
}

impl SeriesStats {
    /// Reductions of an empty series.
    pub const fn new() -> Self {
        SeriesStats {
            len: 0,
            last: None,
            sum: -0.0,
            weighted: 0.0,
            span: 0,
            max: None,
        }
    }

    /// Folds in one sample.
    ///
    /// # Panics
    ///
    /// As [`TimeSeries::push`]: if `at` is earlier than the previous
    /// sample or `value` is NaN.
    pub fn push(&mut self, at: SimTime, value: f64) {
        assert!(!value.is_nan(), "NaN sample rejected");
        if let Some((last_at, last_value)) = self.last {
            assert!(
                at >= last_at,
                "samples must be time-ordered: {at} < {last_at}"
            );
            let dt = at.since(last_at).as_minutes();
            self.weighted += last_value * dt as f64;
            self.span += dt;
        }
        self.len += 1;
        self.sum += value;
        // `Iterator::max_by` keeps the later of two equal elements.
        if self.max.is_none_or(|max| value >= max) {
            self.max = Some(value);
        }
        self.last = Some((at, value));
    }

    /// Number of samples folded in.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if no sample was folded in.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The latest sample.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.last
    }

    /// Mean of all sample values; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.sum / self.len as f64
    }

    /// Maximum sample value, `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// As [`TimeSeries::time_weighted_mean`]: each value holds until the
    /// next sample; the plain mean with fewer than two samples or a zero
    /// sampled span.
    pub fn time_weighted_mean(&self) -> f64 {
        if self.len < 2 || self.span == 0 {
            return self.mean();
        }
        self.weighted / self.span as f64
    }
}

/// Fixed-width bucket means of `N` series sampled at the same instants,
/// folded as samples arrive: lane `i` of [`BucketMeans::means`] equals
/// [`TimeSeries::aggregate`] over the lane-`i` values, bit for bit. Keeps
/// one `(bucket_start, means)` entry per non-empty bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketMeans<const N: usize> {
    width: u64,
    closed: Vec<(SimTime, [f64; N])>,
    // (bucket index, per-lane sum, samples) of the bucket being filled.
    open: Option<(u64, [f64; N], u64)>,
    last: Option<SimTime>,
}

impl<const N: usize> BucketMeans<N> {
    /// Empty buckets of width `bucket`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        BucketMeans {
            width: bucket.as_minutes(),
            closed: Vec::new(),
            open: None,
            last: None,
        }
    }

    /// Folds in one sample of every lane.
    ///
    /// # Panics
    ///
    /// As [`TimeSeries::push`]: if `at` is earlier than the previous
    /// sample or any value is NaN.
    pub fn push(&mut self, at: SimTime, values: [f64; N]) {
        assert!(!values.iter().any(|v| v.is_nan()), "NaN sample rejected");
        if let Some(last) = self.last {
            assert!(at >= last, "samples must be time-ordered: {at} < {last}");
        }
        self.last = Some(at);
        let idx = at.as_minutes() / self.width;
        match &mut self.open {
            Some((b, sums, n)) if *b == idx => {
                for (sum, v) in sums.iter_mut().zip(values) {
                    *sum += v;
                }
                *n += 1;
            }
            open => {
                if let Some((b, sums, n)) = open.take() {
                    self.closed.push(Self::bucket_mean(self.width, b, sums, n));
                }
                *open = Some((idx, values, 1));
            }
        }
    }

    fn bucket_mean(width: u64, b: u64, sums: [f64; N], n: u64) -> (SimTime, [f64; N]) {
        (
            SimTime::from_minutes(b * width),
            sums.map(|sum| sum / n as f64),
        )
    }

    /// True if no sample was folded in.
    pub fn is_empty(&self) -> bool {
        self.open.is_none()
    }

    /// `(bucket_start, per-lane mean)` per non-empty bucket, in time order.
    pub fn means(&self) -> impl Iterator<Item = (SimTime, [f64; N])> + '_ {
        let open = self
            .open
            .map(|(b, sums, n)| Self::bucket_mean(self.width, b, sums, n));
        self.closed.iter().copied().chain(open)
    }
}

impl Extend<(SimTime, f64)> for TimeSeries {
    fn extend<T: IntoIterator<Item = (SimTime, f64)>>(&mut self, iter: T) {
        for (t, v) in iter {
            self.push(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(m: u64) -> SimTime {
        SimTime::from_minutes(m)
    }

    #[test]
    fn aggregation_averages_buckets() {
        let mut s = TimeSeries::new();
        for m in 0..200 {
            s.push(t(m), if m < 100 { 10.0 } else { 30.0 });
        }
        let agg = s.aggregate(SimDuration::from_minutes(100));
        assert_eq!(agg, vec![(t(0), 10.0), (t(100), 30.0)]);
    }

    #[test]
    fn aggregation_skips_empty_buckets() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(950), 5.0);
        let agg = s.aggregate(SimDuration::from_minutes(100));
        assert_eq!(agg, vec![(t(0), 1.0), (t(900), 5.0)]);
    }

    #[test]
    fn mean_and_max() {
        let mut s = TimeSeries::new();
        s.extend([(t(0), 1.0), (t(1), 2.0), (t(2), 6.0)]);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.max(), Some(6.0));
    }

    #[test]
    fn time_weighted_mean_accounts_for_gaps() {
        let mut s = TimeSeries::new();
        // value 0 for 90 minutes, then 10 for 10 minutes.
        s.push(t(0), 0.0);
        s.push(t(90), 10.0);
        s.push(t(100), 10.0);
        assert!((s.time_weighted_mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_defaults() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), None);
        assert!(s.aggregate(SimDuration::HOUR).is_empty());
    }

    #[test]
    fn zero_duration_run_sampling() {
        // A run that starts and drains in the same minute: every sample
        // lands at the same instant. Equal timestamps are in order (the
        // simulator can emit several transitions at one tick), and all
        // derived views stay well-defined.
        let mut s = TimeSeries::new();
        s.push(t(0), 3.0);
        s.push(t(0), 5.0);
        assert_eq!(s.len(), 2);
        let agg = s.aggregate(SimDuration::from_minutes(100));
        assert_eq!(agg, vec![(t(0), 4.0)]);
        // Zero elapsed span: time weighting degenerates to the plain mean
        // rather than dividing by zero.
        assert!((s.time_weighted_mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_series() {
        let mut s = TimeSeries::new();
        s.push(t(7), 2.5);
        assert_eq!(s.aggregate(SimDuration::MINUTE), vec![(t(7), 2.5)]);
        assert_eq!(s.time_weighted_mean(), 2.5);
        assert_eq!(s.max(), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut s = TimeSeries::new();
        s.push(t(5), 1.0);
        s.push(t(4), 1.0);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_rejected() {
        TimeSeries::new().aggregate(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn online_stats_reject_out_of_order() {
        let mut s = SeriesStats::new();
        s.push(t(5), 1.0);
        s.push(t(4), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn online_stats_reject_nan() {
        SeriesStats::new().push(t(0), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn bucket_means_reject_out_of_order() {
        let mut b = BucketMeans::<1>::new(SimDuration::from_minutes(100));
        b.push(t(5), [1.0]);
        b.push(t(4), [1.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn bucket_means_reject_nan() {
        BucketMeans::<2>::new(SimDuration::MINUTE).push(t(0), [0.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_width_bucket_means_rejected() {
        BucketMeans::<1>::new(SimDuration::ZERO);
    }

    #[test]
    fn empty_online_reductions_match_the_empty_series() {
        let s = SeriesStats::new();
        assert!(s.is_empty());
        assert_eq!((s.last(), s.max()), (None, None));
        assert_eq!(s.mean().to_bits(), TimeSeries::new().mean().to_bits());
        assert_eq!(s.time_weighted_mean().to_bits(), 0f64.to_bits());
        let b = BucketMeans::<3>::new(SimDuration::from_minutes(100));
        assert!(b.is_empty());
        assert_eq!(b.means().count(), 0);
    }

    #[test]
    fn single_negative_zero_sample_keeps_its_sign() {
        // `f64: Sum` folds from -0.0, so the mean of [-0.0] is -0.0.
        let mut series = TimeSeries::new();
        let mut s = SeriesStats::new();
        series.push(t(3), -0.0);
        s.push(t(3), -0.0);
        assert_eq!(s.mean().to_bits(), series.mean().to_bits());
        assert_eq!(
            s.time_weighted_mean().to_bits(),
            series.time_weighted_mean().to_bits()
        );
    }

    /// One generated sample: the gap since the previous sample (zero
    /// repeats a timestamp) and two lane values, drawn partly from a few
    /// fixed values (signed zeros included) so that maxima tie.
    fn sample() -> impl proptest::strategy::Strategy<Value = (u64, f64, f64)> {
        use proptest::strategy::Strategy;
        (0usize..8, 0usize..8, -1e4f64..1e4).prop_map(|(gap, pick, x)| {
            const GAPS: [u64; 8] = [0, 0, 1, 1, 2, 7, 60, 250];
            const FIXED: [f64; 4] = [0.0, -0.0, 2.5, 100.0];
            let v = if pick < 4 { FIXED[pick] } else { x };
            (GAPS[gap], v, if pick % 2 == 0 { x } else { v })
        })
    }

    fn bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    proptest::proptest! {
        /// The online reductions are bit-equal to the retained series'
        /// methods, and the online buckets to `aggregate`, over random
        /// time-ordered samples with repeated timestamps, tied maxima and
        /// series of zero or one sample.
        #[test]
        fn prop_online_reductions_equal_the_series(
            start in 0u64..500,
            width in 1u64..300,
            samples in proptest::collection::vec(sample(), 0..300),
        ) {
            let mut at = start;
            let (mut a, mut b) = (TimeSeries::new(), TimeSeries::new());
            let mut stats = SeriesStats::new();
            let mut timeline = BucketMeans::<2>::new(SimDuration::from_minutes(100));
            let mut other = BucketMeans::<2>::new(SimDuration::from_minutes(width));
            for (gap, x, y) in samples {
                at += gap;
                a.push(t(at), x);
                b.push(t(at), y);
                stats.push(t(at), x);
                timeline.push(t(at), [x, y]);
                other.push(t(at), [x, y]);
            }
            proptest::prop_assert_eq!(stats.len(), a.len() as u64);
            proptest::prop_assert_eq!(
                stats.last().map(|(t, v)| (t, v.to_bits())),
                a.samples().last().map(|&(t, v)| (t, v.to_bits()))
            );
            proptest::prop_assert_eq!(stats.mean().to_bits(), a.mean().to_bits());
            proptest::prop_assert_eq!(bits(stats.max()), bits(a.max()));
            proptest::prop_assert_eq!(
                stats.time_weighted_mean().to_bits(),
                a.time_weighted_mean().to_bits()
            );
            for (means, bucket) in [(&timeline, 100), (&other, width)] {
                let bucket = SimDuration::from_minutes(bucket);
                let online: Vec<(SimTime, [u64; 2])> = means
                    .means()
                    .map(|(t, m)| (t, m.map(f64::to_bits)))
                    .collect();
                let want: Vec<(SimTime, [u64; 2])> = a
                    .aggregate(bucket)
                    .into_iter()
                    .zip(b.aggregate(bucket))
                    .map(|((t, x), (u, y))| {
                        assert_eq!(t, u);
                        (t, [x.to_bits(), y.to_bits()])
                    })
                    .collect();
                proptest::prop_assert_eq!(online, want);
            }
        }
    }
}
