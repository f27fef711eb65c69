//! Live run telemetry: a metrics registry, job-lifecycle spans, per-pool
//! time series and Prometheus-style exposition.
//!
//! The paper's entire argument rests on time-resolved observability —
//! Figure 2's suspension CDF, Figure 4's suspension/utilization timeline
//! and the Tables are all *measurements of a running cluster*. This
//! module turns the [`SimObserver`] seam into that measurement plane:
//! [`Telemetry`] is an observer that, riding the same event stream the
//! trace recorder and invariant checker consume, maintains
//!
//! * **event counters** per transition kind (deterministic, sim-domain);
//! * **job-lifecycle spans** — queued→dispatched, suspended→resumed,
//!   submitted→completed intervals matched in O(1) against per-job state
//!   and aggregated into per-phase [`SpanCollector`] latency histograms
//!   (time-in-queue, time-suspended, restart-wasted-work), both globally
//!   and per pool;
//! * a **per-pool time-series sampler** (utilization, queue depth, down
//!   machines, suspended jobs) fed by the [`ObsEvent::PoolSample`]s of
//!   each per-minute sample tick. Nothing renders a single sample, so
//!   each series is folded online into the reductions the renderers
//!   read ([`SeriesStats`]), and the four site series into the Figure 4
//!   timeline's [`TIMELINE_BUCKET`] means ([`BucketMeans`]): memory is
//!   O(pools + horizon / bucket), not O(samples × pools);
//! * a **Table-1-shape summary** (suspend rate, AvgCT, AvgST, AvgWCT)
//!   accumulated online at job completion, so the paper's headline
//!   numbers come straight from telemetry without re-scanning traces.
//!
//! Everything renders three ways: [`Telemetry::render_prom`] writes the
//! Prometheus text exposition (`netbatch simulate --metrics-out`),
//! [`Telemetry::render_markdown`] the single-run report behind
//! `netbatch report`, and the `*_csv` methods the plottable series
//! (Figure 2 CDF, Figure 4 timeline, per-pool stats).
//!
//! Like every observer, telemetry costs nothing when not attached: the
//! simulator's emit path returns before building the event when the
//! observer list is empty. It reads nothing but the events (shadow
//! copies come from `DuplicateLaunched`, pool state from `PoolSample`),
//! so the serial kernel runs it on its helper thread. [`Registry`]
//! additionally supports an explicit disabled mode for embedding in code
//! that cannot rely on that seam.
//!
//! Determinism: all state is sim-domain (counts, sim-minutes, series);
//! no wall clock is read anywhere in this module, so the `Debug`
//! rendering — and the full exposition — is byte-identical across
//! same-seed runs.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use netbatch_cluster::ids::{JobId, PoolId};
use netbatch_metrics::cdf::Cdf;
use netbatch_metrics::export::{MetricKind, PromWriter};
use netbatch_metrics::histogram::LogHistogram;
use netbatch_metrics::spans::SpanCollector;
use netbatch_metrics::summary::OnlineStats;
use netbatch_metrics::table::{fmt_minutes, fmt_percent, Table};
use netbatch_metrics::timeseries::{BucketMeans, SeriesStats};
use netbatch_sim_engine::hash::IntSet;
use netbatch_sim_engine::time::{SimDuration, SimTime};

use crate::observer::{ObsCtx, ObsEvent, PhaseTag, ReschedKind, SimObserver};

/// Span phase: time spent in a pool wait queue.
pub const PHASE_QUEUE_WAIT: &str = "queue_wait";
/// Span phase: time spent suspended on a machine.
pub const PHASE_SUSPENDED: &str = "suspended";
/// Span phase: submission-to-completion latency.
pub const PHASE_COMPLETION: &str = "completion";
/// Span phase: execution progress discarded by a restart.
pub const PHASE_RESTART_WASTE: &str = "restart_waste";
/// Span phase: booked failure-retry backoff delays.
pub const PHASE_RETRY_BACKOFF: &str = "retry_backoff";

/// Figure 4 aggregates the per-minute samples into 100-minute buckets.
pub const TIMELINE_BUCKET: SimDuration = SimDuration::from_minutes(100);

/// Labels of the counted event kinds, in [`event_index`] order. Kernel
/// and batch markers and pool samples are filtered out before counting.
const EVENT_KINDS: [&str; 26] = [
    "submit",
    "pool_chosen",
    "unrunnable",
    "dispatch",
    "enqueue",
    "suspend",
    "resume",
    "restart_from_suspend",
    "restart_from_wait",
    "migrate",
    "failure_evict",
    "wait_timeout",
    "duplicate",
    "proxy_finish",
    "complete",
    "machine_down",
    "machine_up",
    "retry_backoff",
    "blacklist",
    "sample",
    "machine_draining",
    "machine_undrained",
    "evacuation",
    "policy_audit",
    "evac_audit",
    "fault_audit",
];

/// The [`EVENT_KINDS`] slot for a counted event. Counting through a
/// fixed array instead of a label-keyed map keeps the per-event cost to
/// one indexed add — this runs on every observed transition.
fn event_index(event: &ObsEvent) -> usize {
    match event {
        ObsEvent::Submit { .. } => 0,
        ObsEvent::PoolChosen { .. } => 1,
        ObsEvent::Unrunnable { .. } => 2,
        ObsEvent::Dispatch { .. } => 3,
        ObsEvent::Enqueue { .. } => 4,
        ObsEvent::Suspend { .. } => 5,
        ObsEvent::Resume { .. } => 6,
        ObsEvent::Reschedule { kind, .. } => match kind {
            ReschedKind::RestartFromSuspend => 7,
            ReschedKind::RestartFromWait => 8,
            ReschedKind::Migrate => 9,
            ReschedKind::FailureEvict => 10,
            ReschedKind::Evacuation => 22,
        },
        ObsEvent::WaitTimeout { .. } => 11,
        ObsEvent::DuplicateLaunched { .. } => 12,
        ObsEvent::ProxyFinish { .. } => 13,
        ObsEvent::Complete { .. } => 14,
        ObsEvent::MachineDown { .. } => 15,
        ObsEvent::MachineUp { .. } => 16,
        ObsEvent::RetryScheduled { .. } => 17,
        ObsEvent::PoolBlacklisted { .. } => 18,
        ObsEvent::Sample => 19,
        ObsEvent::MachineDraining { .. } => 20,
        ObsEvent::MachineUndrained { .. } => 21,
        ObsEvent::PolicyAudit { .. } => 23,
        ObsEvent::EvacAudit { .. } => 24,
        ObsEvent::FaultAudit { .. } => 25,
        ObsEvent::Kernel { .. } | ObsEvent::BatchStart { .. } | ObsEvent::PoolSample { .. } => {
            unreachable!("markers and pool samples are filtered before counting")
        }
    }
}

type LabelSet = Vec<(String, String)>;

/// A general-purpose metrics registry: counters, gauges and
/// [`LogHistogram`]-backed histograms, keyed by metric name and label
/// set, with deterministic (BTreeMap-ordered) rendering to the
/// Prometheus text format.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    families: BTreeMap<&'static str, (&'static str, MetricKind)>,
    counters: BTreeMap<(&'static str, LabelSet), u64>,
    gauges: BTreeMap<(&'static str, LabelSet), f64>,
    histograms: BTreeMap<(&'static str, LabelSet), LogHistogram>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            families: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Declares a metric family's help text and type. Recording methods
    /// auto-declare undocumented families, so this is optional but makes
    /// the exposition self-describing.
    pub fn declare(&mut self, name: &'static str, help: &'static str, kind: MetricKind) {
        self.families.entry(name).or_insert((help, kind));
    }

    fn key(name: &'static str, labels: &[(&str, &str)]) -> (&'static str, LabelSet) {
        (
            name,
            labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    /// Adds `by` to a counter.
    pub fn inc(&mut self, name: &'static str, labels: &[(&str, &str)], by: u64) {
        self.declare(name, "(undocumented)", MetricKind::Counter);
        *self.counters.entry(Self::key(name, labels)).or_insert(0) += by;
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn gauge(&mut self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        self.declare(name, "(undocumented)", MetricKind::Gauge);
        self.gauges.insert(Self::key(name, labels), value);
    }

    /// Records one observation into a decade histogram.
    pub fn observe(&mut self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        self.declare(name, "(undocumented)", MetricKind::Histogram);
        self.histograms
            .entry(Self::key(name, labels))
            .or_insert_with(LogHistogram::decades)
            .record(value);
    }

    /// Installs a pre-aggregated histogram under `name{labels}` (for
    /// layers that maintain their own [`LogHistogram`]s and render
    /// through the registry).
    pub fn insert_histogram(
        &mut self,
        name: &'static str,
        labels: &[(&str, &str)],
        hist: LogHistogram,
    ) {
        self.declare(name, "(undocumented)", MetricKind::Histogram);
        self.histograms.insert(Self::key(name, labels), hist);
    }

    /// A counter's current value (0 if never incremented).
    pub fn counter_value(&self, name: &'static str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&Self::key(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// A gauge's current value, if set.
    pub fn gauge_value(&self, name: &'static str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&Self::key(name, labels)).copied()
    }

    /// Renders the full exposition, families in name order and samples in
    /// label order within each family — byte-deterministic.
    pub fn render(&self) -> String {
        let mut w = PromWriter::new();
        for (&name, &(help, kind)) in &self.families {
            w.family(name, help, kind);
            for ((n, labels), v) in &self.counters {
                if *n == name {
                    w.sample(name, &borrow_labels(labels), *v as f64);
                }
            }
            for ((n, labels), v) in &self.gauges {
                if *n == name {
                    w.sample(name, &borrow_labels(labels), *v);
                }
            }
            for ((n, labels), h) in &self.histograms {
                if *n == name {
                    w.histogram(name, &borrow_labels(labels), h);
                }
            }
        }
        w.finish()
    }
}

fn borrow_labels(labels: &LabelSet) -> Vec<(&str, &str)> {
    labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

/// Per-job lifecycle accounting, updated from the event stream only.
///
/// Open span starts live here rather than in a keyed map: job ids are
/// dense, so begin/end matching is one `Vec` index instead of an
/// ordered-map operation per transition — the difference between fitting
/// the 1.2x overhead budget and not.
#[derive(Debug, Clone, Copy, Default)]
struct JobTrack {
    life: Life,
    queue_since: Option<SimTime>,
    susp_since: Option<SimTime>,
    wait_min: u64,
    susp_min: u64,
    waste_min: u64,
}

/// Where a job is in its completion span: not yet submitted, submitted
/// (the span is open), or finished. The suspended-ever flag shares the
/// state's tag word, so a `JobTrack` is 72 bytes rather than 80; on
/// glibc that size moves perfbench's `observed_normal` setup time
/// (EXPERIMENTS.md §Performance, ROADMAP item 5).
#[derive(Debug, Clone, Copy)]
enum Life {
    Unseen {
        suspended_ever: bool,
    },
    Open {
        since: SimTime,
        suspended_ever: bool,
    },
    Done,
}

impl Default for Life {
    fn default() -> Self {
        Life::Unseen {
            suspended_ever: false,
        }
    }
}

impl Life {
    /// Opens the completion span at `now`; a finished job stays finished.
    fn open(&mut self, now: SimTime) {
        match *self {
            Life::Unseen { suspended_ever } | Life::Open { suspended_ever, .. } => {
                *self = Life::Open {
                    since: now,
                    suspended_ever,
                }
            }
            Life::Done => {}
        }
    }

    fn mark_suspended(&mut self) {
        match self {
            Life::Unseen { suspended_ever } | Life::Open { suspended_ever, .. } => {
                *suspended_ever = true
            }
            Life::Done => {}
        }
    }
}

/// Per-pool sampled series (one point per sample tick), each reduced
/// online to what the renderers read.
#[derive(Debug, Clone, Default)]
struct PoolSeries {
    utilization_pct: SeriesStats,
    queue_depth: SeriesStats,
    suspended: SeriesStats,
    down_machines: SeriesStats,
    draining_machines: SeriesStats,
    health: SeriesStats,
    machines: u64,
}

/// Lanes of [`Telemetry`]'s site timeline: suspended jobs, utilization
/// percent, waiting jobs and down machines, summed over the pools.
const TIMELINE_LANES: usize = 4;

/// The site totals of the sample tick in progress, summed over its
/// [`ObsEvent::PoolSample`]s until the [`ObsEvent::Sample`] that closes
/// the tick.
#[derive(Debug, Clone, Copy, Default)]
struct SiteTick {
    busy: u64,
    total: u64,
    suspended: u64,
    waiting: u64,
    down: u64,
}

/// The Table-1-shape numbers telemetry accumulates online.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySummary {
    /// Jobs that reached a terminal state (completed + unrunnable),
    /// shadow duplicates excluded.
    pub total_jobs: u64,
    /// Completed jobs that were suspended at least once.
    pub suspended_jobs: u64,
    /// `suspended_jobs / total_jobs` (0 when empty).
    pub suspend_rate: f64,
    /// Mean completion time over all completed jobs, minutes.
    pub avg_ct_all: f64,
    /// Mean completion time over suspended jobs, minutes.
    pub avg_ct_suspended: f64,
    /// Mean total suspension time over suspended jobs, minutes.
    pub avg_st: f64,
    /// Mean wasted completion time (wait + suspend + discarded progress)
    /// over all completed jobs, minutes.
    pub avg_wct: f64,
    /// When the run drained, minutes.
    pub end_minutes: u64,
}

/// The live-telemetry observer. See the module docs for what it records.
///
/// Attach via [`SimConfig::telemetry`](crate::simulator::SimConfig) (the
/// simulator then constructs one with the config's strategy labels) or
/// manually through
/// [`Simulator::attach_observer`](crate::simulator::Simulator::attach_observer),
/// and retrieve from the finished run with
/// [`SimOutput::observer::<Telemetry>()`](crate::simulator::SimOutput::observer).
#[derive(Clone)]
pub struct Telemetry {
    strategy: &'static str,
    initial: &'static str,
    events: [u64; EVENT_KINDS.len()],
    spans: SpanCollector,
    jobs: Vec<JobTrack>,
    queue_wait_by_pool: Vec<LogHistogram>,
    suspended_by_pool: Vec<LogHistogram>,
    pools: Vec<PoolSeries>,
    tick: SiteTick,
    // The site series of every sample, bucketed for Figure 4.
    timeline: BucketMeans<TIMELINE_LANES>,
    // Duplicate (shadow) copies, learned from `DuplicateLaunched`.
    shadows: IntSet<JobId>,
    ct_all: OnlineStats,
    ct_susp: OnlineStats,
    st: OnlineStats,
    wait_all: OnlineStats,
    susp_all: OnlineStats,
    waste_all: OnlineStats,
    susp_totals: Vec<f64>,
    evacuations: u64,
    evac_discarded: LogHistogram,
    unrunnable: u64,
    unmatched_ends: u64,
    samples: u64,
    end_time: SimTime,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Everything here is sim-domain and deterministic; kept compact
        // because SimOutput's debug rendering rides the determinism suite.
        f.debug_struct("Telemetry")
            .field("strategy", &self.strategy)
            .field("initial", &self.initial)
            .field("events", &self.events.iter().sum::<u64>())
            .field("samples", &self.samples)
            .field("completed", &self.ct_all.count())
            .field("open_spans", &self.open_spans())
            .finish()
    }
}

impl Telemetry {
    /// A fresh telemetry observer, labelled with the run's policy axes.
    pub fn new(strategy: &'static str, initial: &'static str) -> Self {
        Telemetry {
            strategy,
            initial,
            events: [0; EVENT_KINDS.len()],
            spans: SpanCollector::new(),
            jobs: Vec::new(),
            queue_wait_by_pool: Vec::new(),
            suspended_by_pool: Vec::new(),
            pools: Vec::new(),
            tick: SiteTick::default(),
            timeline: BucketMeans::new(TIMELINE_BUCKET),
            shadows: IntSet::default(),
            ct_all: OnlineStats::new(),
            ct_susp: OnlineStats::new(),
            st: OnlineStats::new(),
            wait_all: OnlineStats::new(),
            susp_all: OnlineStats::new(),
            waste_all: OnlineStats::new(),
            susp_totals: Vec::new(),
            evacuations: 0,
            evac_discarded: LogHistogram::decades(),
            unrunnable: 0,
            unmatched_ends: 0,
            samples: 0,
            end_time: SimTime::ZERO,
        }
    }

    // ---- accessors ----

    /// Event counts per transition kind seen at least once (markers
    /// excluded), in label order.
    pub fn event_counts(&self) -> BTreeMap<&'static str, u64> {
        EVENT_KINDS
            .iter()
            .zip(self.events)
            .filter(|&(_, n)| n > 0)
            .map(|(&kind, n)| (kind, n))
            .collect()
    }

    /// The lifecycle span collector (per-phase latency histograms).
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// Per-job total suspension times (suspended completed jobs only) as
    /// the Figure 2 CDF.
    pub fn suspension_cdf(&self) -> Cdf {
        self.susp_totals.iter().copied().collect()
    }

    /// Sample ticks observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Proactive evacuations off draining machines observed.
    pub fn evacuations(&self) -> u64 {
        self.evacuations
    }

    /// Lifecycle spans still open — jobs still queued, suspended, or
    /// submitted but not finished. Zero after a drained run.
    pub fn open_spans(&self) -> u64 {
        self.jobs
            .iter()
            .map(|t| {
                u64::from(t.queue_since.is_some())
                    + u64::from(t.susp_since.is_some())
                    + u64::from(matches!(t.life, Life::Open { .. }))
            })
            .sum()
    }

    /// Span-close transitions that arrived with no matching open span.
    /// Zero in a well-formed event stream.
    pub fn unmatched_ends(&self) -> u64 {
        self.unmatched_ends
    }

    /// The Table-1-shape summary accumulated online at job completion.
    pub fn summary(&self) -> TelemetrySummary {
        let total = self.ct_all.count() + self.unrunnable;
        TelemetrySummary {
            total_jobs: total,
            suspended_jobs: self.st.count(),
            suspend_rate: if total == 0 {
                0.0
            } else {
                self.st.count() as f64 / total as f64
            },
            avg_ct_all: self.ct_all.mean(),
            avg_ct_suspended: self.ct_susp.mean(),
            avg_st: self.st.mean(),
            avg_wct: self.wait_all.mean() + self.susp_all.mean() + self.waste_all.mean(),
            end_minutes: self.end_time.as_minutes(),
        }
    }

    // ---- event plumbing ----

    fn track(&mut self, job: JobId) -> &mut JobTrack {
        let i = job.as_usize();
        if i >= self.jobs.len() {
            self.jobs.resize(i + 1, JobTrack::default());
        }
        &mut self.jobs[i]
    }

    fn end_queue_span(&mut self, job: JobId, pool: PoolId, now: SimTime) {
        let Some(opened) = self.track(job).queue_since.take() else {
            self.unmatched_ends += 1;
            return;
        };
        let len = now.since(opened);
        self.spans.observe(PHASE_QUEUE_WAIT, len);
        pool_hist(&mut self.queue_wait_by_pool, pool).record(len.as_minutes() as f64);
        self.jobs[job.as_usize()].wait_min += len.as_minutes();
    }

    fn end_suspend_span(&mut self, job: JobId, pool: PoolId, now: SimTime) {
        let Some(opened) = self.track(job).susp_since.take() else {
            self.unmatched_ends += 1;
            return;
        };
        let len = now.since(opened);
        self.spans.observe(PHASE_SUSPENDED, len);
        pool_hist(&mut self.suspended_by_pool, pool).record(len.as_minutes() as f64);
        self.jobs[job.as_usize()].susp_min += len.as_minutes();
    }

    fn finish_job(&mut self, job: JobId, now: SimTime) {
        let shadow = self.shadows.contains(&job);
        let t = self.track(job);
        let (ct, suspended) = match std::mem::replace(&mut t.life, Life::Done) {
            Life::Done => return,
            Life::Unseen { suspended_ever } => (None, suspended_ever),
            Life::Open {
                since,
                suspended_ever,
            } => (Some(now.since(since)), suspended_ever),
        };
        let (wait, susp, waste) = (t.wait_min, t.susp_min, t.waste_min);
        match ct {
            Some(len) => self.spans.observe(PHASE_COMPLETION, len),
            None => self.unmatched_ends += 1,
        }
        if shadow {
            // Shadow duplicates are mechanism bookkeeping, not submitted
            // jobs: their spans feed the phase histograms (above) but not
            // the reported population.
            return;
        }
        let ct_min = ct.map(|d| d.as_minutes() as f64).unwrap_or(0.0);
        self.ct_all.push(ct_min);
        self.wait_all.push(wait as f64);
        self.susp_all.push(susp as f64);
        self.waste_all.push(waste as f64);
        if suspended {
            self.ct_susp.push(ct_min);
            self.st.push(susp as f64);
            self.susp_totals.push(susp as f64);
        }
    }

    /// Folds one pool's reading of the current sample tick into its
    /// series and the tick's site totals.
    fn pool_sample(&mut self, now: SimTime, sample: &ObsEvent) {
        let ObsEvent::PoolSample {
            pool,
            busy_cores,
            total_cores,
            waiting,
            suspended,
            machines,
            down_machines,
            draining_machines,
            health_bits,
        } = *sample
        else {
            unreachable!("called with pool samples only");
        };
        let i = pool.as_usize();
        if i >= self.pools.len() {
            self.pools.resize(i + 1, PoolSeries::default());
        }
        // `PoolSnapshot::utilization`, from the same two readings.
        let utilization = if total_cores == 0 {
            0.0
        } else {
            f64::from(busy_cores) / f64::from(total_cores)
        };
        let series = &mut self.pools[i];
        series.utilization_pct.push(now, utilization * 100.0);
        series.queue_depth.push(now, f64::from(waiting));
        series.suspended.push(now, f64::from(suspended));
        series.down_machines.push(now, f64::from(down_machines));
        series
            .draining_machines
            .push(now, f64::from(draining_machines));
        series.health.push(now, f64::from_bits(health_bits));
        series.machines = u64::from(machines);
        let tick = &mut self.tick;
        tick.busy += u64::from(busy_cores);
        tick.total += u64::from(total_cores);
        tick.suspended += u64::from(suspended);
        tick.waiting += u64::from(waiting);
        tick.down += u64::from(down_machines);
    }

    /// Closes a sample tick: its site totals become one timeline point.
    fn sample(&mut self, now: SimTime) {
        self.samples += 1;
        let SiteTick {
            busy,
            total,
            suspended,
            waiting,
            down,
        } = std::mem::take(&mut self.tick);
        let util_pct = if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64 * 100.0
        };
        self.timeline.push(
            now,
            [suspended as f64, util_pct, waiting as f64, down as f64],
        );
    }

    // ---- rendering ----

    /// Renders the Prometheus text exposition of the whole run. The
    /// output is deterministic and always passes
    /// [`validate_prom`].
    pub fn render_prom(&self) -> String {
        let mut reg = Registry::new();
        reg.declare(
            "netbatch_run_info",
            "Run metadata carried as labels; value is always 1.",
            MetricKind::Gauge,
        );
        reg.gauge(
            "netbatch_run_info",
            &[("strategy", self.strategy), ("initial", self.initial)],
            1.0,
        );
        reg.declare(
            "netbatch_run_end_minutes",
            "Sim-time instant the run drained.",
            MetricKind::Gauge,
        );
        reg.gauge(
            "netbatch_run_end_minutes",
            &[],
            self.end_time.as_minutes() as f64,
        );
        reg.declare(
            "netbatch_samples_total",
            "Per-minute sample ticks observed.",
            MetricKind::Counter,
        );
        reg.inc("netbatch_samples_total", &[], self.samples);
        reg.declare(
            "netbatch_events_total",
            "Observed lifecycle transitions by kind.",
            MetricKind::Counter,
        );
        for (kind, n) in self.event_counts() {
            reg.inc("netbatch_events_total", &[("kind", kind)], n);
        }
        let summary = self.summary();
        reg.declare(
            "netbatch_jobs_total",
            "Jobs that reached a terminal state (shadow duplicates excluded).",
            MetricKind::Gauge,
        );
        reg.gauge("netbatch_jobs_total", &[], summary.total_jobs as f64);
        reg.declare(
            "netbatch_jobs_suspended",
            "Completed jobs suspended at least once.",
            MetricKind::Gauge,
        );
        reg.gauge(
            "netbatch_jobs_suspended",
            &[],
            summary.suspended_jobs as f64,
        );
        reg.declare(
            "netbatch_suspend_rate",
            "Fraction of jobs suspended at least once.",
            MetricKind::Gauge,
        );
        reg.gauge("netbatch_suspend_rate", &[], summary.suspend_rate);
        reg.declare(
            "netbatch_avg_ct_minutes",
            "Mean completion time, by job scope.",
            MetricKind::Gauge,
        );
        reg.gauge(
            "netbatch_avg_ct_minutes",
            &[("scope", "all")],
            summary.avg_ct_all,
        );
        reg.gauge(
            "netbatch_avg_ct_minutes",
            &[("scope", "suspended")],
            summary.avg_ct_suspended,
        );
        reg.declare(
            "netbatch_avg_st_minutes",
            "Mean total suspension time over suspended jobs.",
            MetricKind::Gauge,
        );
        reg.gauge("netbatch_avg_st_minutes", &[], summary.avg_st);
        reg.declare(
            "netbatch_avg_wct_minutes",
            "Mean wasted completion time (wait + suspend + discarded progress).",
            MetricKind::Gauge,
        );
        reg.gauge("netbatch_avg_wct_minutes", &[], summary.avg_wct);
        reg.declare(
            "netbatch_phase_minutes",
            "Job-lifecycle span lengths by phase (shadow duplicates included).",
            MetricKind::Histogram,
        );
        for (&phase, hist) in self.spans.phases() {
            reg.insert_histogram("netbatch_phase_minutes", &[("phase", phase)], hist.clone());
        }
        reg.declare(
            "netbatch_pool_phase_minutes",
            "Queue-wait and suspension span lengths per pool.",
            MetricKind::Histogram,
        );
        for (phase, hists) in [
            (PHASE_QUEUE_WAIT, &self.queue_wait_by_pool),
            (PHASE_SUSPENDED, &self.suspended_by_pool),
        ] {
            for (i, h) in hists.iter().enumerate() {
                if h.count() > 0 {
                    reg.insert_histogram(
                        "netbatch_pool_phase_minutes",
                        &[("phase", phase), ("pool", &i.to_string())],
                        h.clone(),
                    );
                }
            }
        }
        reg.declare(
            "netbatch_span_open",
            "Lifecycle spans still open at run end (should be 0).",
            MetricKind::Gauge,
        );
        reg.gauge("netbatch_span_open", &[], self.open_spans() as f64);
        reg.declare(
            "netbatch_span_unmatched_total",
            "Span ends that arrived with no matching begin (should be 0).",
            MetricKind::Counter,
        );
        reg.inc("netbatch_span_unmatched_total", &[], self.unmatched_ends);
        reg.declare(
            "netbatch_evacuations_total",
            "Jobs proactively rescheduled off draining machines.",
            MetricKind::Counter,
        );
        reg.inc("netbatch_evacuations_total", &[], self.evacuations);
        if self.evac_discarded.count() > 0 {
            reg.declare(
                "netbatch_evacuation_discarded_minutes",
                "Execution progress discarded per evacuation.",
                MetricKind::Histogram,
            );
            reg.insert_histogram(
                "netbatch_evacuation_discarded_minutes",
                &[],
                self.evac_discarded.clone(),
            );
        }
        self.declare_pool_gauges(&mut reg);
        reg.render()
    }

    fn declare_pool_gauges(&self, reg: &mut Registry) {
        reg.declare(
            "netbatch_pool_machines",
            "Machines per pool (healthy or not) at the last sample.",
            MetricKind::Gauge,
        );
        reg.declare(
            "netbatch_pool_utilization_pct",
            "Core utilization per pool at the last sample, percent.",
            MetricKind::Gauge,
        );
        reg.declare(
            "netbatch_pool_utilization_mean_pct",
            "Time-weighted mean core utilization per pool, percent.",
            MetricKind::Gauge,
        );
        reg.declare(
            "netbatch_pool_queue_depth",
            "Wait-queue length per pool at the last sample.",
            MetricKind::Gauge,
        );
        reg.declare(
            "netbatch_pool_queue_depth_mean",
            "Time-weighted mean wait-queue length per pool.",
            MetricKind::Gauge,
        );
        reg.declare(
            "netbatch_pool_suspended_jobs",
            "Suspended jobs resident per pool at the last sample.",
            MetricKind::Gauge,
        );
        reg.declare(
            "netbatch_pool_down_machines",
            "Down machines per pool at the last sample.",
            MetricKind::Gauge,
        );
        reg.declare(
            "netbatch_pool_draining_machines",
            "Draining/cordoned machines per pool at the last sample.",
            MetricKind::Gauge,
        );
        reg.declare(
            "netbatch_pool_health",
            "Health-weighted effective capacity fraction per pool at the last sample.",
            MetricKind::Gauge,
        );
        for (i, series) in self.pools.iter().enumerate() {
            let pool = i.to_string();
            let labels: [(&str, &str); 1] = [("pool", &pool)];
            reg.gauge("netbatch_pool_machines", &labels, series.machines as f64);
            if let Some((_, last)) = series.utilization_pct.last() {
                reg.gauge("netbatch_pool_utilization_pct", &labels, last);
            }
            reg.gauge(
                "netbatch_pool_utilization_mean_pct",
                &labels,
                series.utilization_pct.time_weighted_mean(),
            );
            if let Some((_, last)) = series.queue_depth.last() {
                reg.gauge("netbatch_pool_queue_depth", &labels, last);
            }
            reg.gauge(
                "netbatch_pool_queue_depth_mean",
                &labels,
                series.queue_depth.time_weighted_mean(),
            );
            if let Some((_, last)) = series.suspended.last() {
                reg.gauge("netbatch_pool_suspended_jobs", &labels, last);
            }
            if let Some((_, last)) = series.down_machines.last() {
                reg.gauge("netbatch_pool_down_machines", &labels, last);
            }
            if let Some((_, last)) = series.draining_machines.last() {
                reg.gauge("netbatch_pool_draining_machines", &labels, last);
            }
            if let Some((_, last)) = series.health.last() {
                reg.gauge("netbatch_pool_health", &labels, last);
            }
        }
    }

    /// Renders the single-run markdown report: Table-1-shape summary,
    /// Figure 2 suspension CDF, Figure 4 site timeline and per-pool /
    /// per-phase breakdowns — all from telemetry state, no trace
    /// re-scanning.
    pub fn render_markdown(&self) -> String {
        let summary = self.summary();
        let mut out = String::new();
        let _ = writeln!(out, "## Summary (Table 1 shape)\n");
        let mut table = Table::new([
            "strategy",
            "Suspend rate",
            "AvgCT (susp)",
            "AvgCT (all)",
            "AvgST",
            "AvgWCT",
        ]);
        table.row([
            self.strategy.to_string(),
            fmt_percent(summary.suspend_rate),
            fmt_minutes(summary.avg_ct_suspended),
            fmt_minutes(summary.avg_ct_all),
            fmt_minutes(summary.avg_st),
            fmt_minutes(summary.avg_wct),
        ]);
        out.push_str(&table.render_markdown());
        let _ = writeln!(
            out,
            "\n{} jobs ({} suspended at least once), run drained at minute {}, \
             {} sample ticks, initial scheduler {}.\n",
            summary.total_jobs,
            summary.suspended_jobs,
            summary.end_minutes,
            self.samples,
            self.initial,
        );

        let cdf = self.suspension_cdf();
        let _ = writeln!(out, "## Suspension-time CDF (Figure 2)\n");
        if cdf.is_empty() {
            out.push_str("No job was suspended in this run.\n\n");
        } else {
            let _ = writeln!(
                out,
                "Median {} min, mean {} min, 20th-from-top percentile {} min \
                 (paper: median 437, mean 905, 20% above 1100).\n",
                fmt_minutes(cdf.median().unwrap_or(0.0)),
                fmt_minutes(cdf.mean()),
                fmt_minutes(cdf.quantile(0.8).unwrap_or(0.0)),
            );
            let mut table = Table::new(["suspension ≤ (min)", "% of suspended jobs"]);
            for (x, pct) in cdf.log_series(2) {
                table.row([format!("{x:.0}"), format!("{pct:.1}%")]);
            }
            out.push_str(&table.render_markdown());
            out.push('\n');
        }

        let _ = writeln!(out, "## Site timeline (Figure 4, 100-minute buckets)\n");
        if self.timeline.is_empty() {
            out.push_str(
                "No samples: run without `--sample` (the report subcommand enables it).\n\n",
            );
        } else {
            let mut table = Table::new([
                "minute",
                "suspended",
                "utilization %",
                "waiting",
                "down machines",
            ]);
            for (t, [s, u, w, d]) in self.timeline.means() {
                table.row([
                    t.as_minutes().to_string(),
                    format!("{s:.1}"),
                    format!("{u:.1}"),
                    format!("{w:.1}"),
                    format!("{d:.1}"),
                ]);
            }
            out.push_str(&table.render_markdown());
            out.push('\n');
        }

        let _ = writeln!(out, "## Per-pool\n");
        if self.pools.is_empty() {
            out.push_str("No per-pool samples recorded.\n\n");
        } else {
            let mut table = Table::new([
                "pool",
                "machines",
                "util % (tw mean)",
                "queue (tw mean)",
                "peak suspended",
                "queue-wait mean (min)",
                "suspension mean (min)",
            ]);
            for (i, series) in self.pools.iter().enumerate() {
                let qw = self
                    .queue_wait_by_pool
                    .get(i)
                    .filter(|h| h.count() > 0)
                    .map(|h| fmt_minutes(h.mean()))
                    .unwrap_or_else(|| "-".into());
                let sp = self
                    .suspended_by_pool
                    .get(i)
                    .filter(|h| h.count() > 0)
                    .map(|h| fmt_minutes(h.mean()))
                    .unwrap_or_else(|| "-".into());
                table.row([
                    i.to_string(),
                    series.machines.to_string(),
                    format!("{:.1}", series.utilization_pct.time_weighted_mean()),
                    format!("{:.1}", series.queue_depth.time_weighted_mean()),
                    format!("{:.0}", series.suspended.max().unwrap_or(0.0)),
                    qw,
                    sp,
                ]);
            }
            out.push_str(&table.render_markdown());
            out.push('\n');
        }

        let _ = writeln!(out, "## Phase latency histograms\n");
        let mut table = Table::new(["phase", "spans", "mean (min)", "< 1 min", "overflow"]);
        for (&phase, h) in self.spans.phases() {
            table.row([
                phase.to_string(),
                h.count().to_string(),
                fmt_minutes(h.mean()),
                h.underflow().to_string(),
                h.overflow().to_string(),
            ]);
        }
        out.push_str(&table.render_markdown());
        out.push('\n');
        out
    }

    /// The Figure 2 CDF as CSV (`minutes,pct_le` rows).
    pub fn cdf_csv(&self) -> String {
        let mut out = String::from("minutes,pct_le\n");
        for (x, pct) in self.suspension_cdf().log_series(4) {
            let _ = writeln!(out, "{x:.2},{pct:.3}");
        }
        out
    }

    /// The Figure 4 site timeline as CSV, aggregated into
    /// [`TIMELINE_BUCKET`]-wide buckets.
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from("minute,suspended,utilization_pct,waiting,down_machines\n");
        for (t, [s, u, w, d]) in self.timeline.means() {
            let _ = writeln!(out, "{},{s:.3},{u:.3},{w:.3},{d:.3}", t.as_minutes());
        }
        out
    }

    /// Per-pool aggregates as CSV.
    pub fn pools_csv(&self) -> String {
        let mut out = String::from(
            "pool,machines,utilization_mean_pct,queue_mean,suspended_mean,down_mean\n",
        );
        for (i, series) in self.pools.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i},{},{:.3},{:.3},{:.3},{:.3}",
                series.machines,
                series.utilization_pct.time_weighted_mean(),
                series.queue_depth.time_weighted_mean(),
                series.suspended.time_weighted_mean(),
                series.down_machines.time_weighted_mean(),
            );
        }
        out
    }
}

fn pool_hist(hists: &mut Vec<LogHistogram>, pool: PoolId) -> &mut LogHistogram {
    let i = pool.as_usize();
    if i >= hists.len() {
        hists.resize_with(i + 1, LogHistogram::decades);
    }
    &mut hists[i]
}

impl SimObserver for Telemetry {
    fn on_run_start(&mut self, _now: SimTime, ctx: &ObsCtx<'_>) {
        // Size the per-job and per-pool tables once: every job the run
        // submits already has a record in `ctx.jobs` (duplicate clones
        // append later and grow it), so growth by doubling would leave up
        // to half of it unused.
        self.jobs.reserve_exact(ctx.jobs.len());
        self.pools.reserve_exact(ctx.pools.len());
    }

    /// Telemetry reads only the event stream: shadow copies come from
    /// `DuplicateLaunched`, pool state from `PoolSample`.
    fn reads_state(&self) -> bool {
        false
    }

    fn on_event(&mut self, now: SimTime, event: &ObsEvent, _ctx: &ObsCtx<'_>) {
        match event {
            ObsEvent::Kernel { .. } | ObsEvent::BatchStart { .. } => return,
            ObsEvent::PoolSample { .. } => return self.pool_sample(now, event),
            _ => {}
        }
        let idx = event_index(event);
        debug_assert_eq!(EVENT_KINDS[idx], event.label());
        self.events[idx] += 1;
        match *event {
            ObsEvent::Submit { job } => {
                // Opens the implicit completion span (closed by finish_job).
                self.track(job).life.open(now);
            }
            ObsEvent::Unrunnable { job } => {
                // Gave up at the VPM: no completion latency to record, so
                // `Life::Done` closes the completion span without observing
                // it.
                let shadow = self.shadows.contains(&job);
                let t = self.track(job);
                if !matches!(t.life, Life::Done) {
                    t.life = Life::Done;
                    if !shadow {
                        self.unrunnable += 1;
                    }
                }
            }
            ObsEvent::Dispatch {
                job,
                pool,
                from_queue,
                ..
            } => {
                if from_queue {
                    self.end_queue_span(job, pool, now);
                }
            }
            ObsEvent::Enqueue { job, pool: _ } => {
                self.track(job).queue_since = Some(now);
            }
            ObsEvent::Suspend { job, pool: _, .. } => {
                let t = self.track(job);
                t.susp_since = Some(now);
                t.life.mark_suspended();
            }
            ObsEvent::Resume { job, pool, .. } => {
                self.end_suspend_span(job, pool, now);
            }
            ObsEvent::Reschedule {
                job,
                kind,
                from_pool,
                from_phase,
                discarded,
                ..
            } => {
                match from_phase {
                    PhaseTag::Suspended => self.end_suspend_span(job, from_pool, now),
                    PhaseTag::Waiting => self.end_queue_span(job, from_pool, now),
                    PhaseTag::Running | PhaseTag::AtVpm => {}
                }
                // Migrations keep their progress; every restart kind
                // discards it (possibly zero minutes of it).
                if kind != ReschedKind::Migrate {
                    self.spans.observe(PHASE_RESTART_WASTE, discarded);
                }
                if kind == ReschedKind::Evacuation {
                    self.evacuations += 1;
                    self.evac_discarded.record(discarded.as_minutes() as f64);
                }
                self.track(job).waste_min += discarded.as_minutes();
            }
            ObsEvent::DuplicateLaunched { clone, .. } => {
                // The shadow copy never gets its own Submit event.
                self.shadows.insert(clone);
                self.track(clone).life.open(now);
            }
            ObsEvent::ProxyFinish {
                job,
                from_phase,
                pool,
                ..
            } => {
                match (from_phase, pool) {
                    (PhaseTag::Suspended, Some(p)) => self.end_suspend_span(job, p, now),
                    (PhaseTag::Waiting, Some(p)) => self.end_queue_span(job, p, now),
                    _ => {}
                }
                self.finish_job(job, now);
            }
            ObsEvent::Complete { job, .. } => {
                self.finish_job(job, now);
            }
            ObsEvent::RetryScheduled { resume_at, .. } => {
                self.spans
                    .observe(PHASE_RETRY_BACKOFF, resume_at.since(now));
            }
            ObsEvent::Sample => self.sample(now),
            ObsEvent::PoolChosen { .. }
            | ObsEvent::WaitTimeout { .. }
            | ObsEvent::MachineDown { .. }
            | ObsEvent::MachineUp { .. }
            | ObsEvent::MachineDraining { .. }
            | ObsEvent::MachineUndrained { .. }
            | ObsEvent::PoolBlacklisted { .. }
            | ObsEvent::PolicyAudit { .. }
            | ObsEvent::EvacAudit { .. }
            | ObsEvent::FaultAudit { .. } => {}
            ObsEvent::Kernel { .. } | ObsEvent::BatchStart { .. } | ObsEvent::PoolSample { .. } => {
                unreachable!("handled above")
            }
        }
    }

    fn on_run_end(&mut self, now: SimTime, _ctx: &ObsCtx<'_>) {
        self.end_time = now;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// Re-exported for doc linkage; callers normally go through
// `netbatch_metrics` directly.
pub use netbatch_metrics::export::validate_exposition as validate_prom;

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::ids::MachineId;
    use netbatch_metrics::export::validate_exposition;

    fn ctx<'a>(shadows: &'a std::collections::HashSet<JobId>) -> ObsCtx<'a> {
        ObsCtx {
            pools: &[],
            jobs: &[],
            shadows,
        }
    }

    fn t(m: u64) -> SimTime {
        SimTime::from_minutes(m)
    }

    #[test]
    fn registry_renders_valid_exposition() {
        let mut reg = Registry::new();
        reg.declare("jobs_total", "Jobs.", MetricKind::Counter);
        reg.inc("jobs_total", &[("pool", "0")], 2);
        reg.inc("jobs_total", &[("pool", "1")], 3);
        reg.gauge("depth", &[], 4.5);
        reg.observe("lat_minutes", &[("phase", "wait")], 12.0);
        let text = reg.render();
        assert!(validate_exposition(&text).unwrap() >= 4);
        assert!(text.contains("jobs_total{pool=\"0\"} 2"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("lat_minutes_count{phase=\"wait\"} 1"));
        assert_eq!(reg.counter_value("jobs_total", &[("pool", "1")]), 3);
        assert_eq!(reg.gauge_value("depth", &[]), Some(4.5));
        // Rendering is a pure function of state.
        assert_eq!(text, reg.render());
    }

    #[test]
    fn lifecycle_spans_accumulate_per_phase_and_pool() {
        let shadows = Default::default();
        let c = ctx(&shadows);
        let mut tel = Telemetry::new("NoRes", "RoundRobin");
        let job = JobId(0);
        let pool = PoolId(2);
        let machine = MachineId(0);
        tel.on_event(t(0), &ObsEvent::Submit { job }, &c);
        tel.on_event(t(0), &ObsEvent::Enqueue { job, pool }, &c);
        tel.on_event(
            t(30),
            &ObsEvent::Dispatch {
                job,
                pool,
                machine,
                wall: SimDuration::from_minutes(100),
                from_queue: true,
            },
            &c,
        );
        tel.on_event(t(40), &ObsEvent::Suspend { job, pool, machine }, &c);
        tel.on_event(t(65), &ObsEvent::Resume { job, pool, machine }, &c);
        tel.on_event(t(155), &ObsEvent::Complete { job, pool, machine }, &c);
        tel.on_run_end(t(155), &c);

        assert_eq!(tel.event_counts()["enqueue"], 1);
        assert_eq!(tel.spans().phase(PHASE_QUEUE_WAIT).unwrap().count(), 1);
        assert_eq!(tel.spans().phase(PHASE_QUEUE_WAIT).unwrap().sum(), 30.0);
        assert_eq!(tel.spans().phase(PHASE_SUSPENDED).unwrap().sum(), 25.0);
        assert_eq!(tel.spans().phase(PHASE_COMPLETION).unwrap().sum(), 155.0);
        assert_eq!(tel.queue_wait_by_pool[pool.as_usize()].count(), 1);
        assert_eq!(tel.queue_wait_by_pool[0].count(), 0);
        assert_eq!(tel.open_spans(), 0);
        assert_eq!(tel.unmatched_ends(), 0);

        let s = tel.summary();
        assert_eq!(s.total_jobs, 1);
        assert_eq!(s.suspended_jobs, 1);
        assert_eq!(s.avg_ct_all, 155.0);
        assert_eq!(s.avg_st, 25.0);
        assert_eq!(s.avg_wct, 55.0); // 30 wait + 25 suspend + 0 discarded
        assert_eq!(tel.suspension_cdf().sorted_values(), &[25.0]);

        let prom = tel.render_prom();
        assert!(validate_exposition(&prom).unwrap() > 10);
        assert!(prom.contains("netbatch_run_info{strategy=\"NoRes\",initial=\"RoundRobin\"} 1"));
        assert!(prom.contains("netbatch_events_total{kind=\"complete\"} 1"));
        assert!(prom.contains("netbatch_span_open 0"));
        let md = tel.render_markdown();
        assert!(md.contains("## Summary (Table 1 shape)"));
        assert!(md.contains("NoRes"));
    }

    #[test]
    fn shadow_jobs_feed_histograms_but_not_the_summary() {
        // The context names no shadows: telemetry learns the clone from
        // its DuplicateLaunched event.
        let shadows = Default::default();
        let c = ctx(&shadows);
        let mut tel = Telemetry::new("DupSusUtil", "RoundRobin");
        let (orig, clone) = (JobId(0), JobId(1));
        let pool = PoolId(0);
        let machine = MachineId(0);
        tel.on_event(t(0), &ObsEvent::Submit { job: orig }, &c);
        tel.on_event(
            t(0),
            &ObsEvent::Suspend {
                job: orig,
                pool,
                machine,
            },
            &c,
        );
        tel.on_event(
            t(5),
            &ObsEvent::DuplicateLaunched {
                original: orig,
                clone,
                target: PoolId(1),
            },
            &c,
        );
        // The clone wins; the original is proxy-finished out of suspension.
        tel.on_event(
            t(50),
            &ObsEvent::Complete {
                job: clone,
                pool: PoolId(1),
                machine,
            },
            &c,
        );
        tel.on_event(
            t(50),
            &ObsEvent::ProxyFinish {
                job: orig,
                from_phase: PhaseTag::Suspended,
                pool: Some(pool),
                machine: Some(machine),
            },
            &c,
        );
        tel.on_run_end(t(50), &c);
        // Both completion spans closed (orig 50, clone 45)…
        assert_eq!(tel.spans().phase(PHASE_COMPLETION).unwrap().count(), 2);
        // …but only the original is population: one job, suspended, ct 50.
        let s = tel.summary();
        assert_eq!(s.total_jobs, 1);
        assert_eq!(s.avg_ct_all, 50.0);
        assert_eq!(s.avg_st, 50.0);
        assert_eq!(tel.open_spans(), 0);
    }

    #[test]
    fn restart_waste_and_backoff_are_observed_directly() {
        let shadows = Default::default();
        let c = ctx(&shadows);
        let mut tel = Telemetry::new("ResSusUtil", "RoundRobin");
        let job = JobId(0);
        tel.on_event(t(0), &ObsEvent::Submit { job }, &c);
        tel.on_event(
            t(10),
            &ObsEvent::Suspend {
                job,
                pool: PoolId(0),
                machine: MachineId(0),
            },
            &c,
        );
        tel.on_event(
            t(40),
            &ObsEvent::Reschedule {
                job,
                kind: ReschedKind::RestartFromSuspend,
                from_pool: PoolId(0),
                machine: Some(MachineId(0)),
                from_phase: PhaseTag::Suspended,
                to: Some(PoolId(1)),
                discarded: SimDuration::from_minutes(10),
            },
            &c,
        );
        tel.on_event(
            t(41),
            &ObsEvent::RetryScheduled {
                job,
                attempt: 1,
                resume_at: t(49),
            },
            &c,
        );
        assert_eq!(tel.spans().phase(PHASE_SUSPENDED).unwrap().sum(), 30.0);
        assert_eq!(tel.spans().phase(PHASE_RESTART_WASTE).unwrap().sum(), 10.0);
        assert_eq!(tel.spans().phase(PHASE_RETRY_BACKOFF).unwrap().sum(), 8.0);
        // Migrations record no restart waste.
        tel.on_event(
            t(60),
            &ObsEvent::Reschedule {
                job,
                kind: ReschedKind::Migrate,
                from_pool: PoolId(1),
                machine: Some(MachineId(0)),
                from_phase: PhaseTag::Running,
                to: Some(PoolId(2)),
                discarded: SimDuration::ZERO,
            },
            &c,
        );
        assert_eq!(tel.spans().phase(PHASE_RESTART_WASTE).unwrap().count(), 1);
    }

    #[test]
    fn debug_rendering_is_compact_and_sim_domain() {
        let tel = Telemetry::new("NoRes", "RoundRobin");
        let dbg = format!("{tel:?}");
        assert!(dbg.contains("Telemetry"));
        assert!(dbg.contains("NoRes"));
        // No Instant/SystemTime anywhere in this type: nothing to redact,
        // and the rendering is a pure function of observed events.
        assert_eq!(dbg, format!("{:?}", Telemetry::new("NoRes", "RoundRobin")));
    }
}
