//! Experiment runner and the paper's evaluation metrics (§3.1).
//!
//! An [`Experiment`] bundles a site, a trace and a simulator configuration;
//! running it produces an [`ExperimentResult`] carrying exactly the columns
//! of the paper's Tables 1–5 (Suspend rate, AvgCT over suspended/all jobs,
//! AvgST, AvgWCT) plus the series behind Figures 2–4.

use netbatch_cluster::ids::JobId;
use netbatch_cluster::job::JobRecord;
use netbatch_metrics::cdf::Cdf;
use netbatch_metrics::table::{fmt_minutes, fmt_percent, Table};
use netbatch_metrics::timeseries::TimeSeries;
use netbatch_metrics::waste::WasteBreakdown;
use netbatch_sim_engine::time::{SimDuration, SimTime};
use netbatch_workload::scenarios::SiteSpec;
use netbatch_workload::trace::Trace;

use crate::policy::initial::InitialKind;
use crate::policy::resched::StrategyKind;
use crate::simulator::{RunCounters, SimConfig, SimOutput, Simulator};

/// A complete experiment description.
#[derive(Debug)]
pub struct Experiment {
    /// The site topology.
    pub site: SiteSpec,
    /// The submitted jobs.
    pub trace: Trace,
    /// Simulator/policy configuration.
    pub config: SimConfig,
}

impl Experiment {
    /// Creates an experiment.
    pub fn new(site: SiteSpec, trace: Trace, config: SimConfig) -> Self {
        Experiment {
            site,
            trace,
            config,
        }
    }

    /// Runs the trace to completion and computes the paper's metrics.
    pub fn run(&self) -> ExperimentResult {
        let sim = Simulator::new(&self.site, self.trace.to_specs(), self.config.clone());
        let output = sim.run_to_completion();
        ExperimentResult::from_output(self.config.initial, self.config.strategy, output)
    }
}

/// Exact whole-minute totals over a run's submitted jobs: what every
/// Table metric is computed from. Each job is folded in once, when its
/// record leaves the kernel's job table; duplicate (shadow) copies are
/// never folded. Totals merge by addition, so shards of a streaming run
/// add up to the same totals in any order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobTotals {
    /// Jobs folded, whether or not they completed.
    pub jobs: u64,
    /// Jobs that completed: the population of the averages.
    pub completed: u64,
    /// Σ completion time over completed jobs, minutes.
    pub ct: u64,
    /// Σ wait time over completed jobs, minutes.
    pub wait: u64,
    /// Σ suspend time over completed jobs, minutes.
    pub suspend: u64,
    /// Σ rescheduling waste over completed jobs, minutes.
    pub resched: u64,
    /// Completed jobs suspended at least once.
    pub suspended: u64,
    /// Σ completion time over the suspended jobs, minutes.
    pub ct_suspended: u64,
    /// Σ suspend time over the suspended jobs, minutes.
    pub st_suspended: u64,
    /// Each suspended job's suspend time in minutes, in job-id order
    /// once the run has finished.
    pub suspend_times: Vec<(JobId, u64)>,
}

impl JobTotals {
    /// Folds one job's final record in. A job that never completed counts
    /// towards `jobs` only.
    pub fn add(&mut self, job: &JobRecord) {
        self.jobs += 1;
        let Some(ct) = job.completion_time() else {
            return;
        };
        let (ct, st) = (ct.as_minutes(), job.suspend_time().as_minutes());
        self.completed += 1;
        self.ct += ct;
        self.wait += job.wait_time().as_minutes();
        self.suspend += st;
        self.resched += job.resched_waste().as_minutes();
        if job.was_suspended() {
            self.suspended += 1;
            self.ct_suspended += ct;
            self.st_suspended += st;
            self.suspend_times.push((job.id(), st));
        }
    }

    /// Adds another part of the same run's totals (a streaming shard's).
    pub fn merge(&mut self, other: JobTotals) {
        self.jobs += other.jobs;
        self.completed += other.completed;
        self.ct += other.ct;
        self.wait += other.wait;
        self.suspend += other.suspend;
        self.resched += other.resched;
        self.suspended += other.suspended;
        self.ct_suspended += other.ct_suspended;
        self.st_suspended += other.st_suspended;
        self.suspend_times.extend(other.suspend_times);
    }
}

/// The paper's metrics for one (initial scheduler, strategy) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Initial scheduler used.
    pub initial: InitialKind,
    /// Rescheduling strategy used.
    pub strategy: StrategyKind,
    /// Total jobs in the trace.
    pub total_jobs: u64,
    /// The Suspend Rate: fraction of all jobs suspended at least once.
    pub suspend_rate: f64,
    /// AvgCT over jobs that were suspended at least once (minutes).
    pub avg_ct_suspended: f64,
    /// AvgCT over all jobs (minutes).
    pub avg_ct_all: f64,
    /// AvgST: average total suspend time over suspended jobs (minutes).
    pub avg_st: f64,
    /// The AvgWCT decomposition over all jobs.
    pub waste: WasteBreakdown,
    /// Average wait time over all jobs (minutes) — the paper's observation
    /// input for the 30-minute threshold.
    pub avg_wait_all: f64,
    /// Suspension-time samples of suspended jobs (Figure 2's population).
    pub suspension_times: Vec<f64>,
    /// Aggregate counters from the run.
    pub counters: RunCounters,
    /// When the last job completed.
    pub end_time: SimTime,
    /// Suspended-job count samples (enabled runs only).
    pub suspended_series: TimeSeries,
    /// Utilization percentage samples.
    pub utilization_series: TimeSeries,
    /// Waiting-job count samples.
    pub waiting_series: TimeSeries,
    /// Cumulative per-pool statistics.
    pub pool_stats: Vec<(
        netbatch_cluster::ids::PoolId,
        netbatch_cluster::pool::PoolStats,
    )>,
}

impl ExperimentResult {
    /// Computes the metrics from a finished run's [`JobTotals`]. Means
    /// are taken here, as exact sums over counts.
    pub fn from_output(initial: InitialKind, strategy: StrategyKind, output: SimOutput) -> Self {
        let t = &output.totals;
        let mean = |sum: u64, count: u64| {
            if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            }
        };
        let minutes = SimDuration::from_minutes;
        ExperimentResult {
            initial,
            strategy,
            total_jobs: t.jobs,
            suspend_rate: mean(t.suspended, t.jobs),
            avg_ct_suspended: mean(t.ct_suspended, t.suspended),
            avg_ct_all: mean(t.ct, t.completed),
            avg_st: mean(t.st_suspended, t.suspended),
            waste: WasteBreakdown {
                wait: minutes(t.wait),
                suspend: minutes(t.suspend),
                resched: minutes(t.resched),
                jobs: t.completed,
            },
            avg_wait_all: mean(t.wait, t.completed),
            suspension_times: t.suspend_times.iter().map(|&(_, m)| m as f64).collect(),
            counters: output.counters,
            end_time: output.end_time,
            suspended_series: output.suspended_series,
            utilization_series: output.utilization_series,
            waiting_series: output.waiting_series,
            pool_stats: output.pool_stats,
        }
    }

    /// The pools with the most preemption activity, descending.
    pub fn hottest_pools(
        &self,
        n: usize,
    ) -> Vec<(
        netbatch_cluster::ids::PoolId,
        netbatch_cluster::pool::PoolStats,
    )> {
        let mut pools = self.pool_stats.clone();
        pools.sort_by(|a, b| b.1.suspensions.cmp(&a.1.suspensions).then(a.0.cmp(&b.0)));
        pools.truncate(n);
        pools
    }

    /// AvgWCT: average wasted completion time over all jobs (minutes).
    pub fn avg_wct(&self) -> f64 {
        self.waste.avg_total()
    }

    /// Number of jobs suspended at least once.
    pub fn suspended_jobs(&self) -> u64 {
        self.suspension_times.len() as u64
    }

    /// Jobs proactively evacuated off draining machines during the run.
    pub fn evacuations(&self) -> u64 {
        self.counters.evacuations
    }

    /// The suspension-time CDF (Figure 2).
    pub fn suspension_cdf(&self) -> Cdf {
        self.suspension_times.iter().copied().collect()
    }

    /// This result as one row of the paper's table layout:
    /// `[strategy, suspend rate, AvgCT suspend, AvgCT all, AvgST, AvgWCT]`.
    pub fn paper_row(&self) -> [String; 6] {
        [
            self.strategy.name().to_string(),
            fmt_percent(self.suspend_rate),
            fmt_minutes(self.avg_ct_suspended),
            fmt_minutes(self.avg_ct_all),
            fmt_minutes(self.avg_st),
            fmt_minutes(self.avg_wct()),
        ]
    }
}

/// The header matching [`ExperimentResult::paper_row`].
pub const PAPER_TABLE_HEADER: [&str; 6] = [
    "strategy",
    "Suspend rate",
    "AvgCT (susp)",
    "AvgCT (all)",
    "AvgST",
    "AvgWCT",
];

/// Renders a set of results as the paper's table layout.
pub fn render_results_table(results: &[ExperimentResult]) -> Table {
    let mut table = Table::new(PAPER_TABLE_HEADER);
    for r in results {
        table.row(r.paper_row());
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::ids::PoolId;
    use netbatch_cluster::job::PoolAffinity;
    use netbatch_cluster::pool::PoolConfig;
    use netbatch_workload::trace::TraceRecord;

    fn tiny_site() -> SiteSpec {
        SiteSpec {
            pools: (0..2)
                .map(|p| PoolConfig::uniform(PoolId(p), 1, 1, 16_384))
                .collect(),
        }
    }

    fn rec(submit: u64, runtime: u64, priority: u8, affinity: Vec<u16>) -> TraceRecord {
        TraceRecord {
            submit_minute: submit,
            runtime_minutes: runtime,
            cores: 1,
            memory_mb: 1024,
            priority,
            affinity: PoolAffinity::from_ids(&affinity),
            task: None,
        }
    }

    #[test]
    fn experiment_computes_paper_metrics() {
        // Pool 0: long low job; high job preempts it at t=40 for 20 min.
        let trace = Trace::from_records(vec![rec(0, 100, 0, vec![0]), rec(40, 20, 10, vec![0])]);
        let exp = Experiment::new(tiny_site(), trace, SimConfig::default());
        let r = exp.run();
        assert_eq!(r.total_jobs, 2);
        assert!((r.suspend_rate - 0.5).abs() < 1e-12);
        assert_eq!(r.suspended_jobs(), 1);
        // Low job: CT = 120 (runs 0..40, susp 40..60, runs 60..120).
        assert!((r.avg_ct_suspended - 120.0).abs() < 1e-9);
        assert!((r.avg_st - 20.0).abs() < 1e-9);
        // All jobs: (120 + 20) / 2.
        assert!((r.avg_ct_all - 70.0).abs() < 1e-9);
        // Waste: low contributes 20 suspend minutes; high none.
        assert!((r.avg_wct() - 10.0).abs() < 1e-9);
        assert!((r.waste.avg_suspend() - 10.0).abs() < 1e-9);
        assert_eq!(r.waste.avg_resched(), 0.0);
    }

    #[test]
    fn paper_row_formats_numbers() {
        let trace = Trace::from_records(vec![rec(0, 10, 0, vec![])]);
        let r = Experiment::new(tiny_site(), trace, SimConfig::default()).run();
        let row = r.paper_row();
        assert_eq!(row[0], "NoRes");
        assert_eq!(row[1], "0.00%");
        assert_eq!(row[3], "10.0");
    }

    #[test]
    fn results_table_renders_all_rows() {
        let trace = Trace::from_records(vec![rec(0, 10, 0, vec![])]);
        let r = Experiment::new(tiny_site(), trace, SimConfig::default()).run();
        let table = render_results_table(&[r.clone(), r]);
        let text = table.render();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("Suspend rate"));
    }

    #[test]
    fn suspension_cdf_matches_samples() {
        let trace = Trace::from_records(vec![rec(0, 100, 0, vec![0]), rec(40, 20, 10, vec![0])]);
        let r = Experiment::new(tiny_site(), trace, SimConfig::default()).run();
        let cdf = r.suspension_cdf();
        assert_eq!(cdf.len(), 1);
        assert_eq!(cdf.median(), Some(20.0));
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let r = Experiment::new(tiny_site(), Trace::new(), SimConfig::default()).run();
        assert_eq!(r.total_jobs, 0);
        assert_eq!(r.suspend_rate, 0.0);
        assert_eq!(r.avg_ct_all, 0.0);
        assert_eq!(r.avg_wct(), 0.0);
    }
}
