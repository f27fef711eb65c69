//! Logarithmic histograms for heavy-tailed durations.
//!
//! NetBatch suspension and completion times span five orders of magnitude
//! (minutes to >100k minutes, Figure 2), so fixed-width bins are useless.
//! [`LogHistogram`] bins by powers of a configurable base.

use std::fmt;

/// A histogram with logarithmically sized bins.
///
/// Bin `i` covers `[base^i, base^(i+1))`; values below 1 land in a dedicated
/// underflow bin, and values at or above `base^MAX_BINS` in a dedicated
/// overflow bin (so a pathological observation can never force an
/// unbounded bin allocation).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    base: f64,
    underflow: u64,
    overflow: u64,
    bins: Vec<u64>,
    count: u64,
    sum: f64,
}

impl LogHistogram {
    /// Largest addressable log bin; observations beyond `base^MAX_BINS`
    /// land in the overflow bin. 256 decades covers every finite `f64`
    /// duration that could plausibly be a number of minutes.
    pub const MAX_BINS: usize = 256;

    /// Creates a histogram with the given base (> 1).
    ///
    /// # Panics
    ///
    /// Panics if `base ≤ 1`.
    pub fn new(base: f64) -> Self {
        assert!(base > 1.0, "histogram base must exceed 1");
        LogHistogram {
            base,
            underflow: 0,
            overflow: 0,
            bins: Vec::new(),
            count: 0,
            sum: 0.0,
        }
    }

    /// Decade bins (base 10) — matches Figure 2's axis.
    pub fn decades() -> Self {
        LogHistogram::new(10.0)
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN, infinite or negative values (durations are finite
    /// and non-negative).
    pub fn record(&mut self, x: f64) {
        assert!(
            x.is_finite() && x >= 0.0,
            "invalid histogram observation {x}"
        );
        self.count += 1;
        self.sum += x;
        if x < 1.0 {
            self.underflow += 1;
            return;
        }
        // `log` can land a hair below an exact power (`1000f64.log(10.0)`
        // is 2.9999999999999996), so the floor is only an estimate:
        // correct it against the bin bounds `iter_bins` reports. An
        // estimate past `MAX_BINS + 1` overflows even if one too high.
        let estimate = x.log(self.base).floor();
        if estimate > Self::MAX_BINS as f64 {
            self.overflow += 1;
            return;
        }
        let mut bin = estimate as i32;
        if self.base.powi(bin + 1) <= x {
            bin += 1;
        } else if self.base.powi(bin) > x {
            bin -= 1;
        }
        let bin = bin as usize;
        if bin >= Self::MAX_BINS {
            self.overflow += 1;
            return;
        }
        if bin >= self.bins.len() {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Observations below 1.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `base^MAX_BINS`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterates `(bin_low, bin_high, count)` for non-empty log bins.
    pub fn iter_bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (self.base.powi(i as i32), self.base.powi(i as i32 + 1), c))
    }

    /// Renders a compact ASCII bar chart, for harness output.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        if self.underflow > 0 {
            out.push_str(&format!("{:>12} | {}\n", "<1", self.underflow));
        }
        for (lo, hi, c) in self.iter_bins() {
            let bar_len = ((c as f64 / max as f64) * width as f64).round() as usize;
            out.push_str(&format!(
                "{:>5}-{:<6} | {:<width$} {}\n",
                lo as u64,
                hi as u64,
                "#".repeat(bar_len),
                c,
                width = width
            ));
        }
        out
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::decades()
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "log-histogram(base={}, n={}, mean={:.1})",
            self.base,
            self.count,
            self.mean()
        )
    }
}

impl Extend<f64> for LogHistogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_by_decade() {
        let mut h = LogHistogram::decades();
        // 1000 and 1e6 are exact decades whose base-10 log rounds below
        // the integer: they still open their own bins.
        h.extend([0.5, 1.0, 5.0, 10.0, 99.0, 100.0, 5000.0, 1000.0, 1e6]);
        assert_eq!(h.underflow(), 1);
        let bins: Vec<(f64, f64, u64)> = h.iter_bins().collect();
        assert_eq!(bins[0], (1.0, 10.0, 2));
        assert_eq!(bins[1], (10.0, 100.0, 2));
        assert_eq!(bins[2], (100.0, 1000.0, 1));
        assert_eq!(bins[3], (1000.0, 10000.0, 2));
        assert_eq!(bins[4], (1e6, 1e7, 1));
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn every_value_lands_inside_its_reported_bin() {
        // Exact powers, their floating-point neighbours and values in
        // between, for a few bases: each lands in the bin whose
        // `iter_bins` bounds contain it.
        for base in [2.0, 3.0, 10.0, 1.5] {
            let mut probes = Vec::new();
            for i in 0..60 {
                let p: f64 = f64::powi(base, i);
                probes.extend([p, p.next_down(), p.next_up(), p * 1.5]);
            }
            for x in probes.into_iter().filter(|&x| x >= 1.0) {
                let mut h = LogHistogram::new(base);
                h.record(x);
                let (lo, hi, n) = h.iter_bins().next().expect("one bin");
                assert_eq!(n, 1);
                assert!(lo <= x && x < hi, "base {base}: {x} outside [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn mean_tracks_all_samples() {
        let mut h = LogHistogram::decades();
        h.extend([1.0, 3.0]);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_rendering_is_nonempty() {
        let mut h = LogHistogram::decades();
        h.extend([0.1, 2.0, 20.0, 20.0]);
        let s = h.render_ascii(20);
        assert!(s.contains("<1"));
        assert!(s.contains('#'));
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.iter_bins().count(), 0);
        assert!(!h.to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "base must exceed 1")]
    fn bad_base_rejected() {
        LogHistogram::new(1.0);
    }

    #[test]
    #[should_panic(expected = "invalid histogram observation")]
    fn negative_rejected() {
        LogHistogram::decades().record(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid histogram observation")]
    fn infinite_rejected() {
        LogHistogram::decades().record(f64::INFINITY);
    }

    #[test]
    fn overflow_bin_catches_huge_finite_values() {
        let mut h = LogHistogram::decades();
        // f64::MAX is ~1.8e308, far past base^MAX_BINS = 1e256: it must
        // land in the overflow bin rather than forcing a 308-entry bin
        // allocation (or, with a small base, an unbounded one).
        h.record(f64::MAX);
        h.record(2.0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
        // The overflow observation is excluded from the log bins but still
        // part of count/sum.
        assert_eq!(h.iter_bins().map(|(_, _, c)| c).sum::<u64>(), 1);
        assert_eq!(h.sum(), f64::MAX + 2.0);
        // A base barely above 1 maps modest values to astronomical bin
        // indexes; the cap keeps memory bounded.
        let mut tight = LogHistogram::new(1.0 + 1e-9);
        tight.record(1e6);
        assert_eq!(tight.overflow(), 1);
    }

    #[test]
    fn underflow_boundary_is_exclusive_at_one() {
        let mut h = LogHistogram::decades();
        h.extend([0.0, 0.999, 1.0]);
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.iter_bins().next(), Some((1.0, 10.0, 1)));
    }
}
