//! Offline trace analysis, independent of any simulation run.
//!
//! Mirrors the "trace-driven analysis" half of the paper: given a trace
//! (synthetic or imported), report its composition, arrival dynamics and
//! offered load — the sanity checks used to validate the synthetic
//! workloads against the published aggregates before simulating.

use netbatch_metrics::summary::SampleSet;
use netbatch_metrics::timeseries::TimeSeries;
use netbatch_sim_engine::time::{SimDuration, SimTime};

use crate::trace::Trace;

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Total jobs.
    pub jobs: usize,
    /// Jobs in the high class (priority ≥ 10).
    pub high_jobs: usize,
    /// Jobs carrying a pool-affinity restriction.
    pub restricted_jobs: usize,
    /// Mean runtime in minutes.
    pub mean_runtime: f64,
    /// Median runtime in minutes.
    pub median_runtime: f64,
    /// 99th-percentile runtime in minutes.
    pub p99_runtime: f64,
    /// Maximum runtime in minutes.
    pub max_runtime: f64,
    /// Mean cores per job.
    pub mean_cores: f64,
    /// Total offered demand in core-minutes.
    pub total_core_minutes: u64,
    /// Trace span (first to last submission), minutes.
    pub span_minutes: u64,
}

impl TraceAnalysis {
    /// Analyzes a trace.
    pub fn of(trace: &Trace) -> Self {
        let mut runtimes = SampleSet::new();
        let mut cores = 0u64;
        let mut high = 0usize;
        let mut restricted = 0usize;
        for r in trace {
            runtimes.push(r.runtime_minutes as f64);
            cores += u64::from(r.cores);
            if r.priority >= 10 {
                high += 1;
            }
            if !r.affinity.pools().is_empty() {
                restricted += 1;
            }
        }
        let span = match (trace.start_minute(), trace.end_minute()) {
            (Some(s), Some(e)) => e - s,
            _ => 0,
        };
        TraceAnalysis {
            jobs: trace.len(),
            high_jobs: high,
            restricted_jobs: restricted,
            mean_runtime: runtimes.mean(),
            median_runtime: runtimes.median().unwrap_or(0.0),
            p99_runtime: runtimes.quantile(0.99).unwrap_or(0.0),
            max_runtime: runtimes.quantile(1.0).unwrap_or(0.0),
            mean_cores: if trace.is_empty() {
                0.0
            } else {
                cores as f64 / trace.len() as f64
            },
            total_core_minutes: trace.total_core_minutes(),
            span_minutes: span,
        }
    }

    /// Offered utilization against a site with `capacity_cores` cores:
    /// total demand spread over the trace span.
    pub fn offered_utilization(&self, capacity_cores: u32) -> f64 {
        if self.span_minutes == 0 || capacity_cores == 0 {
            return 0.0;
        }
        self.total_core_minutes as f64 / (self.span_minutes as f64 * f64::from(capacity_cores))
    }

    /// Fraction of jobs in the high class.
    pub fn high_fraction(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.high_jobs as f64 / self.jobs as f64
        }
    }
}

/// Per-interval submission counts — the arrival burstiness view.
///
/// Returns a [`TimeSeries`] with one point per `bucket`-minute interval
/// counting submissions in that interval (empty intervals included as
/// zeros, so burst spikes stand out against quiet floors).
pub fn arrival_series(trace: &Trace, bucket: SimDuration) -> TimeSeries {
    assert!(!bucket.is_zero(), "bucket width must be positive");
    let mut series = TimeSeries::new();
    let Some(end) = trace.end_minute() else {
        return series;
    };
    let width = bucket.as_minutes();
    let buckets = end / width + 1;
    let mut counts = vec![0f64; buckets as usize];
    for r in trace {
        counts[(r.submit_minute / width) as usize] += 1.0;
    }
    for (i, c) in counts.into_iter().enumerate() {
        series.push(SimTime::from_minutes(i as u64 * width), c);
    }
    series
}

/// Burstiness index: the coefficient of variation of per-interval arrival
/// counts. A Poisson stream at any rate has CV ≈ 1/√mean; MMPP bursts push
/// it far higher.
pub fn burstiness(trace: &Trace, bucket: SimDuration) -> f64 {
    let series = arrival_series(trace, bucket);
    if series.is_empty() {
        return 0.0;
    }
    let mean = series.mean();
    if mean == 0.0 {
        return 0.0;
    }
    let var = series
        .samples()
        .iter()
        .map(|&(_, v)| (v - mean).powi(2))
        .sum::<f64>()
        / series.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::ScenarioParams;
    use crate::trace::TraceRecord;
    use netbatch_cluster::job::PoolAffinity;

    fn rec(submit: u64, runtime: u64, cores: u32, priority: u8) -> TraceRecord {
        TraceRecord {
            submit_minute: submit,
            runtime_minutes: runtime,
            cores,
            memory_mb: 1024,
            priority,
            affinity: if priority >= 10 {
                PoolAffinity::from_ids(&[0, 1])
            } else {
                PoolAffinity::Any
            },
            task: None,
        }
    }

    #[test]
    fn analysis_computes_composition() {
        let t = Trace::from_records(vec![
            rec(0, 100, 1, 0),
            rec(10, 300, 2, 0),
            rec(20, 50, 1, 10),
        ]);
        let a = TraceAnalysis::of(&t);
        assert_eq!(a.jobs, 3);
        assert_eq!(a.high_jobs, 1);
        assert_eq!(a.restricted_jobs, 1);
        assert!((a.mean_runtime - 150.0).abs() < 1e-9);
        assert_eq!(a.median_runtime, 100.0);
        assert_eq!(a.max_runtime, 300.0);
        assert!((a.mean_cores - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(a.total_core_minutes, 100 + 600 + 50);
        assert_eq!(a.span_minutes, 20);
        assert!((a.high_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn offered_utilization_math() {
        let t = Trace::from_records(vec![rec(0, 100, 4, 0), rec(100, 100, 4, 0)]);
        let a = TraceAnalysis::of(&t);
        // 800 core-minutes over a 100-minute span on 16 cores = 50%.
        assert!((a.offered_utilization(16) - 0.5).abs() < 1e-9);
        assert_eq!(a.offered_utilization(0), 0.0);
    }

    #[test]
    fn empty_trace_analysis() {
        let a = TraceAnalysis::of(&Trace::new());
        assert_eq!(a.jobs, 0);
        assert_eq!(a.mean_runtime, 0.0);
        assert_eq!(a.high_fraction(), 0.0);
        assert_eq!(a.offered_utilization(100), 0.0);
    }

    #[test]
    fn arrival_series_includes_empty_buckets() {
        let t = Trace::from_records(vec![rec(0, 1, 1, 0), rec(250, 1, 1, 0)]);
        let s = arrival_series(&t, SimDuration::from_minutes(100));
        let values: Vec<f64> = s.samples().iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn synthetic_high_streams_are_burstier_than_background() {
        let trace = ScenarioParams::normal_week(0.05).generate_trace();
        let (mut low, mut high) = (Vec::new(), Vec::new());
        for r in &trace {
            if r.priority >= 10 {
                high.push(r.clone());
            } else {
                low.push(r.clone());
            }
        }
        let b_low = burstiness(&Trace::from_records(low), SimDuration::from_minutes(60));
        let b_high = burstiness(&Trace::from_records(high), SimDuration::from_minutes(60));
        assert!(
            b_high > 1.5 * b_low,
            "high-priority CV {b_high:.2} should exceed background CV {b_low:.2}"
        );
    }

    #[test]
    fn burstiness_of_empty_trace_is_zero() {
        assert_eq!(burstiness(&Trace::new(), SimDuration::HOUR), 0.0);
    }
}
