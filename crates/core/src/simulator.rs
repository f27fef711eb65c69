//! The NetBatch simulator: the open equivalent of Intel's ASCA
//! ("Agent-based Simulator for Compute Allocation") that the paper's
//! evaluation runs on.
//!
//! It wires together the cluster model (pools, machines, preemption), a
//! virtual pool manager driven by an [`InitialScheduler`], a dynamic
//! [`ReschedPolicy`], and the discrete-event kernel. Like ASCA it can
//! sample the state of every component each minute for post-analysis
//! (Figure 4) and runs a submitted trace until every job completes (§3.1:
//! "we execute these jobs on the ASCA simulator until all 248000 jobs are
//! completed").

use std::panic::{self, AssertUnwindSafe};

use netbatch_cluster::ids::{JobId, MachineId, PoolId};
use netbatch_cluster::job::{JobPhase, JobRecord, JobSpec};
use netbatch_cluster::pool::{PhysicalPool, PoolAction, SubmitKind};
use netbatch_cluster::snapshot::ClusterSnapshot;
use netbatch_metrics::timeseries::TimeSeries;
use netbatch_sim_engine::executor::{Executor, Handler, Scheduler};
use netbatch_sim_engine::hash::{IntMap, IntSet};
use netbatch_sim_engine::observe::EventLabel;
use netbatch_sim_engine::queue::{EventId, EventQueue};
use netbatch_sim_engine::rng::DetRng;
use netbatch_sim_engine::sampler::PeriodicSampler;
use netbatch_sim_engine::time::{SimDuration, SimTime};
use netbatch_workload::scenarios::SiteSpec;

use crate::config::ConfigError;
use crate::experiment::JobTotals;
use crate::faults::{
    FaultModel, FaultPlan, LifecycleModel, LifecyclePlan, LifecycleWindow, MachineOutage,
    ResiliencePolicy,
};
use crate::job_table::JobTable;
use crate::observer::{
    AuditTrigger, AuditVerdict, InvariantChecker, ObsCtx, ObsEvent, PhaseTag, ReschedKind,
    SimObserver,
};
use crate::policy::initial::{InitialKind, InitialScheduler};
use crate::policy::resched::{Decision, ReschedPolicy, StrategyKind};
use crate::pool_step::{self, Evictees, MachineEvent, PoolHost, Suspended};
use crate::provenance::KernelProfile;

/// Simulator configuration: the experiment's policy axes plus extension
/// knobs (all defaults match the paper's setup).
///
/// The streaming kernel's barrier cadence ([`Simulator::run_streaming`])
/// has no knob here: it stops at every active minute exactly when an
/// observer is attached, the one case whose replay needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Virtual-pool-manager scheduler.
    pub initial: InitialKind,
    /// Dynamic rescheduling strategy.
    pub strategy: StrategyKind,
    /// Fixed per-restart cost (data/binary transfer), accounted as
    /// rescheduling waste. Zero in the paper's experiments; an ablation
    /// knob here (the paper's future-work "rescheduling associated
    /// overheads").
    pub restart_overhead: SimDuration,
    /// Per-minute state sampling for Figure 4-style series. `None`
    /// disables sampling (faster for table experiments).
    pub sample_interval: Option<SimDuration>,
    /// Maximum number of restarts per job; `None` = unbounded (the paper's
    /// setting). An ablation knob against restart churn.
    pub max_restarts: Option<u32>,
    /// Age of the load information policies see. Zero (the paper's
    /// idealized oracle) means decisions always see fresh utilization;
    /// larger values model WAN propagation latency, the practicality
    /// caveat of §3.2.2.
    pub view_staleness: SimDuration,
    /// Seed for policy randomness (`ResSusRand` et al.).
    pub seed: u64,
    /// Machine outages to inject (extension; DESIGN.md §8), the raw
    /// input of [`FaultPlan::new`]. Each outage evicts every resident job
    /// — evicted jobs restart from scratch through the virtual pool
    /// manager, their lost progress accounted as rescheduling waste.
    /// Normalized before seeding: overlapping outages of one machine are
    /// merged into non-overlapping intervals.
    pub failures: Vec<MachineOutage>,
    /// Stochastic fault model (extension). When set, an outage schedule is
    /// generated deterministically from `seed` and merged with `failures`.
    pub fault_model: Option<FaultModel>,
    /// Scheduler hardening against faults: retry budgets with exponential
    /// backoff after failure evictions, pool blacklisting, and graceful
    /// degradation when a whole pool is down. Disabled by default
    /// (bit-for-bit the unhardened behaviour).
    pub resilience: ResiliencePolicy,
    /// Scheduled machine-lifecycle model (extension): drains, cordons,
    /// maintenance windows, rolling-update waves and probe-derived
    /// per-machine health scores, generated deterministically from `seed`.
    /// `None` (the default) seeds no lifecycle events and leaves every
    /// machine fully healthy — bit-for-bit the current behaviour.
    pub lifecycle: Option<LifecycleModel>,
    /// Ad-hoc lifecycle windows (tests, replays), merged with the
    /// generated schedule exactly like `failures` merges with the fault
    /// model: overlapping windows for one machine collapse into a single
    /// drain/end pair.
    pub drains: Vec<LifecycleWindow>,
    /// Health-aware scheduling: initial routing and rescheduling target
    /// selection weight candidate pools by health (effective capacity
    /// excluding draining machines, weighted by probe scores), and the
    /// resilience policy's `evacuate_draining` switch governs proactive
    /// evacuation off draining machines. Off by default.
    pub health_aware: bool,
    /// Migration cost model, used by `MigrateSusUtil` (extension).
    pub migration: MigrationParams,
    /// Virtual-pool-manager topology (the paper's Figure 1: each site's
    /// VPM connects to a subset of the physical pools). `None` = a single
    /// VPM connected to every pool (the single-site evaluation setup).
    pub topology: Option<VpmTopology>,
    /// Attach an online [`InvariantChecker`] to the run, validating
    /// conservation, lifecycle and ordering invariants at every event
    /// (panics with replayable context on the first violation). Off by
    /// default; the observer layer costs nothing when no observer is
    /// attached.
    pub check_invariants: bool,
    /// Attach a [`Telemetry`](crate::telemetry::Telemetry) observer to
    /// the run: per-kind event
    /// counters, job-lifecycle latency spans, per-pool time series (with
    /// sampling on) and a Table-1-shape summary, renderable as a
    /// Prometheus exposition or a markdown report. Off by default; like
    /// every observer it costs nothing when not attached.
    pub telemetry: bool,
    /// Attach a [`SpanRecorder`](crate::provenance::SpanRecorder) to the
    /// run: per-job causal span trees (queue-wait → run → suspend →
    /// backoff → … segments, each with a typed cause) plus a decision
    /// audit log, renderable as spans JSONL or a Perfetto trace. Off by
    /// default; like every observer it costs nothing when not attached.
    pub spans: bool,
    /// Kernel self-profiling: attribute wall time per event kind (and per
    /// shard on the streaming backend), rendered as folded stacks for
    /// flamegraphs. Wall-clock readings are nondeterministic and never
    /// enter deterministic outputs. Off by default (one branch per event).
    pub profile: bool,
    /// Run on the reference binary-heap event queue instead of the
    /// hierarchical timer wheel. The two backends are contractually
    /// identical (differentially tested); this knob exists so end-to-end
    /// tests can assert golden traces are byte-identical on both.
    #[doc(hidden)]
    pub use_reference_queue: bool,
    /// How many shards a [`Simulator::run_streaming`] run uses.
    /// [`Simulator::run_to_completion`] always runs the serial executor
    /// and ignores it.
    pub backend: Backend,
}

/// The shard count of the streaming kernel ([`Simulator::run_streaming`]).
/// Materialized runs ([`Simulator::run_to_completion`]) always run the
/// single-threaded serial executor, whatever this says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One streaming shard, run on the calling thread.
    #[default]
    Serial,
    /// Pool-sharded streaming workers synchronized at the barriers the
    /// model needs (sample ticks, observer replay, the end). The calling
    /// thread runs shard 0 as well as the barrier merge; shards 1.. run
    /// under `std::thread::scope`.
    Sharded {
        /// Number of shards, and so of threads including the calling one
        /// (pools are assigned round-robin by pool id). Clamped to
        /// `1..=pool count`: output does not depend on it.
        shards: usize,
    },
}

/// A multi-VPM deployment: which pools each virtual pool manager serves
/// and whether rescheduling may cross VPM boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VpmTopology {
    /// Pool set per VPM. Jobs are assigned to VPMs round-robin by job id
    /// (stand-in for "submitted by users at that site").
    pub vpms: Vec<Vec<PoolId>>,
    /// If true, rescheduling may target any eligible pool site-wide
    /// (the paper's future-work "inter-site rescheduling"); if false,
    /// rescheduling stays within the job's home VPM's pools.
    pub inter_site_resched: bool,
    /// Extra restart overhead charged when a rescheduling move crosses
    /// VPM boundaries (WAN data/binary transfer).
    pub inter_site_overhead: SimDuration,
}

impl VpmTopology {
    /// Splits `pool_count` pools into `vpms` contiguous groups, as evenly
    /// as possible: the first `pool_count % vpms` groups hold one pool
    /// more than the others.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TopologyVpms`] unless `1 <= vpms <= pool_count`.
    pub fn contiguous(pool_count: u16, vpms: u16) -> Result<Self, ConfigError> {
        if vpms == 0 || vpms > pool_count {
            return Err(ConfigError::TopologyVpms {
                vpms,
                pools: pool_count,
            });
        }
        let (per, extra) = (pool_count / vpms, pool_count % vpms);
        let mut first = 0;
        let groups = (0..vpms)
            .map(|v| {
                let len = per + u16::from(v < extra);
                first += len;
                (first - len..first).map(PoolId).collect()
            })
            .collect();
        Ok(VpmTopology {
            vpms: groups,
            inter_site_resched: false,
            inter_site_overhead: SimDuration::ZERO,
        })
    }

    /// Enables inter-site rescheduling with the given per-move overhead.
    pub fn with_inter_site(mut self, overhead: SimDuration) -> Self {
        self.inter_site_resched = true;
        self.inter_site_overhead = overhead;
        self
    }

    /// The VPM a job with this id and affinity submits to: users submit
    /// to a site whose VPM actually serves pools their job can run in
    /// (round-robin by job id among those). Falls back to VPM 0 when no
    /// VPM serves the affinity (the job will be reported unrunnable).
    pub fn vpm_for(&self, job: JobId, affinity_pools: &[PoolId]) -> usize {
        let eligible: Vec<usize> = self
            .vpms
            .iter()
            .enumerate()
            .filter(|(_, pools)| affinity_pools.iter().any(|p| pools.contains(p)))
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            0
        } else {
            eligible[(job.as_u64() % eligible.len() as u64) as usize]
        }
    }
}

/// The cost of moving a job with its progress (checkpoint/VM migration),
/// per the paper's §2.3 discussion of virtualization overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationParams {
    /// Transfer delay before the job can resume at the target pool
    /// (checkpoint + data + binary movement).
    pub delay: SimDuration,
    /// Per-mille slowdown on the remaining work (1150 = the migrated copy
    /// needs 15% more wall time, mid-range of the paper's "performance
    /// overhead between 10% to 20%" for virtualized hosts).
    pub slowdown_milli: u32,
}

impl Default for MigrationParams {
    fn default() -> Self {
        MigrationParams {
            delay: SimDuration::from_minutes(30),
            slowdown_milli: 1150,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            initial: InitialKind::RoundRobin,
            strategy: StrategyKind::NoRes,
            restart_overhead: SimDuration::ZERO,
            sample_interval: None,
            max_restarts: None,
            view_staleness: SimDuration::ZERO,
            seed: 1,
            failures: Vec::new(),
            fault_model: None,
            resilience: ResiliencePolicy::disabled(),
            lifecycle: None,
            drains: Vec::new(),
            health_aware: false,
            migration: MigrationParams::default(),
            topology: None,
            check_invariants: false,
            telemetry: false,
            spans: false,
            profile: false,
            use_reference_queue: false,
            backend: Backend::Serial,
        }
    }
}

impl SimConfig {
    /// Config with the given policy axes and paper defaults elsewhere.
    pub fn new(initial: InitialKind, strategy: StrategyKind) -> Self {
        SimConfig {
            initial,
            strategy,
            ..SimConfig::default()
        }
    }

    /// Enables ASCA-style per-minute sampling.
    pub fn with_sampling(mut self) -> Self {
        self.sample_interval = Some(SimDuration::MINUTE);
        self
    }

    /// Attaches a [`Telemetry`](crate::telemetry::Telemetry) observer to
    /// the run.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
}

/// The simulation's event alphabet (public for the `Handler` impl; not
/// constructible outside this module in any useful way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A job's submission reaches the virtual pool manager.
    Submit(JobId),
    /// A running job finishes (cancelled and rescheduled on suspension).
    Complete(JobId),
    /// A waiting job's rescheduling timer fires.
    WaitCheck(JobId),
    /// Periodic state sampling.
    Sample,
    /// An injected machine failure fires.
    MachineDown(PoolId, MachineId),
    /// A failed machine comes back online.
    MachineUp(PoolId, MachineId),
    /// A migrating job arrives at its target pool.
    MigrateArrive(JobId, PoolId),
    /// A failure-evicted job's backoff delay expires; re-dispatch it.
    RetryDispatch(JobId),
    /// A lifecycle window opens: the machine stops accepting new work.
    /// Carries the kill deadline (`None` for cordons) so the proactive
    /// evacuation path knows what it is racing against.
    DrainStart(PoolId, MachineId, Option<SimTime>),
    /// A lifecycle window closes: the machine re-opens for placement.
    DrainEnd(PoolId, MachineId),
}

impl Ev {
    /// Dense index of the event's kind, matching
    /// [`KERNEL_EV_KINDS`](crate::provenance::KERNEL_EV_KINDS) — the
    /// kernel profiler's per-phase attribution key.
    pub fn kind_index(self) -> usize {
        match self {
            Ev::Submit(_) => 0,
            Ev::Complete(_) => 1,
            Ev::WaitCheck(_) => 2,
            Ev::Sample => 3,
            Ev::MachineDown(..) => 4,
            Ev::MachineUp(..) => 5,
            Ev::MigrateArrive(..) => 6,
            Ev::RetryDispatch(_) => 7,
            Ev::DrainStart(..) => 8,
            Ev::DrainEnd(..) => 9,
        }
    }
}

impl EventLabel for Ev {
    fn label(&self) -> &'static str {
        match self {
            Ev::Submit(_) => "submit",
            Ev::Complete(_) => "complete",
            Ev::WaitCheck(_) => "wait_check",
            Ev::Sample => "sample",
            Ev::MachineDown(..) => "machine_down",
            Ev::MachineUp(..) => "machine_up",
            Ev::MigrateArrive(..) => "migrate_arrive",
            Ev::RetryDispatch(_) => "retry_dispatch",
            Ev::DrainStart(..) => "drain_start",
            Ev::DrainEnd(..) => "drain_end",
        }
    }
}

/// Counters describing a finished run, beyond per-job records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs no pool could ever run (should be zero for generated traces).
    pub unrunnable: u64,
    /// Preemption (suspension) events.
    pub suspensions: u64,
    /// Restarts triggered from the suspended state.
    pub restarts_from_suspend: u64,
    /// Restarts triggered from wait queues.
    pub restarts_from_wait: u64,
    /// Jobs evicted by injected machine failures.
    pub failure_evictions: u64,
    /// Jobs proactively moved off a draining machine before its kill
    /// deadline (lifecycle runs with `evacuate_draining` on).
    pub evacuations: u64,
    /// Backoff retries scheduled after failure evictions (hardened runs).
    pub retries_scheduled: u64,
    /// Retries that found every capable pool fully down and parked the job
    /// at the VPM for another backoff interval (graceful degradation).
    pub vpm_requeues: u64,
    /// Migrations performed (progress kept).
    pub migrations: u64,
    /// Duplicate copies launched.
    pub duplicates_launched: u64,
    /// Races won by the duplicate copy rather than the original.
    pub duplicates_won: u64,
    /// Events processed by the kernel.
    pub events: u64,
}

/// Reusable buffers for the per-event hot path: in steady state every
/// event is handled without heap allocation — candidate lists, preference
/// orders, pool-action batches and cascade worklists all come from (and
/// return to) these free lists. Working copies of a job's spec need no
/// list: a spec shares its affinity set, so its clone never allocates.
///
/// Buffers that can be live at several nesting depths at once are pooled
/// as free lists rather than held as single fields: a rescheduling cascade
/// can re-enter `route_via_vpm` (and thus need a second preference order
/// and worklist) while an outer routing loop still holds its own. The one
/// buffer of a non-reentrant handler (machine events) is a plain field
/// taken with `std::mem::take` for the duration of the handler.
#[derive(Default)]
struct Scratch {
    /// Free list of pool-id buffers (affinity candidates, preference
    /// orders, capable/up filters).
    pool_lists: Vec<Vec<PoolId>>,
    /// Free list of pool-action batches.
    actions: Vec<Vec<PoolAction>>,
    /// Free list of suspended-cascade worklists.
    worklists: Vec<Suspended>,
    /// A machine event's evictees.
    evictees: Evictees,
}

impl Scratch {
    fn take_pool_list(&mut self) -> Vec<PoolId> {
        self.pool_lists.pop().unwrap_or_default()
    }

    fn put_pool_list(&mut self, mut list: Vec<PoolId>) {
        list.clear();
        self.pool_lists.push(list);
    }

    fn take_actions(&mut self) -> Vec<PoolAction> {
        self.actions.pop().unwrap_or_default()
    }

    fn put_actions(&mut self, mut batch: Vec<PoolAction>) {
        batch.clear();
        self.actions.push(batch);
    }

    fn take_worklist(&mut self) -> Suspended {
        self.worklists.pop().unwrap_or_default()
    }

    fn put_worklist(&mut self, mut list: Suspended) {
        list.clear();
        self.worklists.push(list);
    }
}

/// The simulator itself. Construct with [`Simulator::new`], run with
/// [`Simulator::run_to_completion`] or [`Simulator::run_streaming`], then
/// read results from the [`SimOutput`].
pub struct Simulator {
    pub(crate) pools: Vec<PhysicalPool>,
    // The caller's specs until the run starts, then the job records: all
    // of them by id when observed, only the in-flight ones otherwise.
    pub(crate) jobs: JobTable,
    // Exact totals of the jobs whose records have been retired.
    pub(crate) totals: JobTotals,
    // The id the next duplicate copy gets.
    next_id: u64,
    pub(crate) initial: Box<dyn InitialScheduler>,
    pub(crate) policy: Box<dyn ReschedPolicy>,
    policy_rng: DetRng,
    pub(crate) config: SimConfig,
    pub(crate) pool_count: u16,
    // The generated lifecycle schedule (empty when `config.lifecycle` is
    // `None`): drain/undrain events are seeded from it and its kill
    // intervals are merged into the fault plan.
    lifecycle_plan: LifecyclePlan,
    // Cached cluster view for policies, refreshed in place by
    // `refresh_view`; `view_at` is its last refresh instant, kept only
    // under a non-zero view_staleness.
    view_snap: ClusterSnapshot,
    view_at: Option<SimTime>,
    // Reusable hot-path buffers (see `Scratch`).
    scratch: Scratch,
    // The serial run's submission stream: job indices stably sorted by
    // submit time (empty when the ids already are in that order), and a
    // cursor into them. The executor merges it with its queue
    // (`Handler::peek_arrival`), so submissions are never queued.
    arrivals: Vec<u32>,
    next_arrival: usize,
    // Progress.
    pub(crate) total_jobs: u64,
    pub(crate) counters: RunCounters,
    // Failure-driven retry attempts per job (empty unless hardened).
    fault_retries: Vec<u32>,
    // Per-pool blacklisted-until instant (SimTime::ZERO = never failed).
    blacklist: Vec<SimTime>,
    // Jobs that exhausted their retry budget; kept so duplicate pairs are
    // settled exactly once.
    gave_up: IntSet<JobId>,
    // Remaining runtime a migrating job resubmits with, parked while the
    // transfer delay elapses.
    migrating: IntMap<JobId, SimDuration>,
    // Home VPM per job (empty when no topology is configured).
    vpm_assignment: Vec<usize>,
    // original -> duplicate and duplicate -> original links.
    dup_of: IntMap<JobId, JobId>,
    // Job ids that are duplicate (shadow) copies, excluded from metrics.
    pub(crate) shadows: std::collections::HashSet<JobId>,
    // Figure-4 series (populated when sampling is enabled).
    suspended_series: TimeSeries,
    utilization_series: TimeSeries,
    waiting_series: TimeSeries,
    // Attached observers; the emit path is a no-op while this is empty.
    pub(crate) observers: Vec<Box<dyn SimObserver>>,
    // Sampling cadence (mirrors `config.sample_interval`).
    sampler: Option<PeriodicSampler>,
    // The merged, normalized fault schedule (injected failures + generated
    // outages + lifecycle kills), stored at run start so fault audits
    // can name the outage id behind each `MachineDown`.
    fault_plan: FaultPlan,
    // Kernel self-profiler (`config.profile`); `None` costs one branch per
    // event. Wall-clock readings never enter deterministic outputs.
    pub(crate) profile: Option<Box<KernelProfile>>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("pools", &self.pools.len())
            .field("jobs", &self.total_jobs)
            .field("strategy", &self.policy.name())
            .field("initial", &self.initial.name())
            .field("completed", &self.counters.completed)
            .finish()
    }
}

impl Simulator {
    /// Builds a simulator over `site` with the given submitted jobs.
    ///
    /// # Panics
    ///
    /// Panics if job ids are not the dense sequence `0..n` in submission
    /// order (what [`netbatch_workload::Trace::to_specs`] produces).
    pub fn new(site: &SiteSpec, specs: Vec<JobSpec>, config: SimConfig) -> Self {
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.id.as_usize(), i, "job ids must be dense and ordered");
        }
        let mut pools: Vec<PhysicalPool> = site
            .pools
            .iter()
            .map(|p| PhysicalPool::new(p.clone()))
            .collect();
        let pool_count = pools.len() as u16;
        // Generate the lifecycle schedule up front: probe-derived health
        // scores apply from t=0 (they describe the machines, not an
        // event), while the windows are seeded as drain/undrain events.
        let mut lifecycle_plan = match config.lifecycle.as_ref() {
            Some(model) => {
                let shape: Vec<(PoolId, u32)> = pools
                    .iter()
                    .map(|p| (p.id(), p.machine_count() as u32))
                    .collect();
                model.generate(&shape, config.seed)
            }
            None => LifecyclePlan::default(),
        };
        if !config.drains.is_empty() {
            // Ad-hoc windows join the generated schedule through the same
            // normalization, so overlaps merge instead of double-draining.
            let mut raw = config.drains.clone();
            raw.extend_from_slice(lifecycle_plan.windows());
            lifecycle_plan = LifecyclePlan::new(raw, lifecycle_plan.health_scores().to_vec());
        }
        for &(pool, machine, health) in lifecycle_plan.health_scores() {
            if let Some(p) = pools.get_mut(pool.as_usize()) {
                p.set_machine_health(machine, health);
            }
        }
        let mut initial = config.initial.build();
        let mut policy = config.strategy.build();
        if config.health_aware {
            initial.set_health_aware(true);
            policy.set_health_aware(true);
        }
        let total_jobs = specs.len() as u64;
        let policy_rng = DetRng::from_seed_u64(config.seed).stream("policy");
        let fault_retries = if config.resilience.enabled {
            vec![0; specs.len()]
        } else {
            Vec::new()
        };
        let blacklist = vec![SimTime::ZERO; pools.len()];
        let vpm_assignment = match config.topology.as_ref() {
            Some(topo) => specs
                .iter()
                .map(|s| topo.vpm_for(s.id, &s.affinity.candidates(pool_count)))
                .collect(),
            None => Vec::new(),
        };
        let mut observers: Vec<Box<dyn SimObserver>> = Vec::new();
        if config.check_invariants {
            observers.push(Box::new(InvariantChecker::new()));
        }
        if config.telemetry {
            observers.push(Box::new(crate::telemetry::Telemetry::new(
                config.strategy.name(),
                config.initial.name(),
            )));
        }
        if config.spans {
            observers.push(Box::new(crate::provenance::SpanRecorder::new(
                config.strategy.name(),
                config.initial.name(),
            )));
        }
        let sampler = config
            .sample_interval
            .map(|interval| PeriodicSampler::new(SimTime::ZERO, interval));
        Simulator {
            pools,
            jobs: JobTable::new(specs),
            totals: JobTotals::default(),
            next_id: total_jobs,
            fault_retries,
            blacklist,
            gave_up: IntSet::default(),
            vpm_assignment,
            migrating: IntMap::default(),
            dup_of: IntMap::default(),
            shadows: std::collections::HashSet::new(),
            initial,
            policy,
            policy_rng,
            pool_count,
            lifecycle_plan,
            view_snap: ClusterSnapshot::default(),
            view_at: None,
            scratch: Scratch::default(),
            arrivals: Vec::new(),
            next_arrival: 0,
            total_jobs,
            counters: RunCounters::default(),
            suspended_series: TimeSeries::new(),
            utilization_series: TimeSeries::new(),
            waiting_series: TimeSeries::new(),
            observers,
            sampler,
            fault_plan: FaultPlan::default(),
            profile: config.profile.then(|| Box::new(KernelProfile::new())),
            config,
        }
    }

    /// Attaches an observer for the coming run. Observers see every
    /// lifecycle transition in deterministic order and ride out through
    /// [`SimOutput::observers`] when the run finishes.
    pub fn attach_observer(&mut self, observer: Box<dyn SimObserver>) {
        self.observers.push(observer);
    }

    /// Delivers one observable event to every attached observer. Returns
    /// immediately when none are attached, keeping the observer layer
    /// zero-cost for plain table experiments.
    fn emit(&mut self, now: SimTime, event: ObsEvent) {
        if self.observers.is_empty() {
            return;
        }
        let ctx = ObsCtx {
            pools: &self.pools,
            jobs: self.jobs.observed(),
            shadows: &self.shadows,
        };
        for obs in &mut self.observers {
            obs.on_event(now, &event, &ctx);
        }
    }

    /// Like [`Simulator::new`] but with an explicitly constructed
    /// rescheduling policy (for policies with non-default parameters, e.g.
    /// custom [`crate::policy::SmartWeights`]). `config.strategy` is kept
    /// for labeling only.
    pub fn with_policy(
        site: &SiteSpec,
        specs: Vec<JobSpec>,
        config: SimConfig,
        policy: Box<dyn ReschedPolicy>,
    ) -> Self {
        let mut sim = Simulator::new(site, specs, config);
        sim.policy = policy;
        if sim.config.health_aware {
            sim.policy.set_health_aware(true);
        }
        sim
    }

    /// Runs the whole trace on the serial executor until every job
    /// completes (the paper's run discipline).
    ///
    /// [`SimOutput::jobs`] holds every job's record only when an observer
    /// is attached: otherwise a record exists only while its job is in
    /// flight, and the Table metrics come from [`SimOutput::totals`].
    ///
    /// Observers whose [`SimObserver::reads_state`] is false receive
    /// their events on one helper thread while the kernel runs on
    /// (DESIGN.md §8).
    ///
    /// # Panics
    ///
    /// Re-raises an observer's panic, with its payload, wherever the
    /// observer ran.
    pub fn run_to_completion(mut self) -> SimOutput {
        // Submissions arrive from the jobs themselves, in submit-time
        // order; the stable sort keeps job-index order within a minute.
        // Generated traces already are in that order and need no index.
        let specs = self.jobs.specs();
        if !specs.is_sorted_by_key(|s| s.submit_time) {
            let n = u32::try_from(specs.len()).expect("fewer than 2^32 jobs");
            let mut arrivals: Vec<u32> = (0..n).collect();
            arrivals.sort_by_key(|&j| specs[j as usize].submit_time);
            self.arrivals = arrivals;
        }
        self.jobs.open(!self.observers.is_empty());
        self.fault_plan = self.build_fault_plan();
        // Pre-size the queue for what it holds at once: a completion per
        // busy core at most, plus the seeded plan events. The
        // reference-heap backend exists for differential tests only.
        let mut executor = if self.config.use_reference_queue {
            Executor::with_queue(EventQueue::with_reference_heap())
        } else {
            let cores: usize = self.pools.iter().map(|p| p.nominal_cores() as usize).sum();
            let plan = self.fault_plan.outages().len() + self.lifecycle_plan.windows().len();
            Executor::with_capacity(cores + 2 * plan + 64)
        };
        self.seed_initial_events(&mut executor);
        self.start_observers();
        if self.observers.iter().all(|o| o.reads_state()) {
            let stats = executor.run(&mut self);
            return self.finish_run(stats.end_time, stats.events_processed);
        }
        self.run_with_helper(&mut executor)
    }

    /// The serial run with the observers that read only events fed on one
    /// helper thread: a `Relay` attached as the last inline observer
    /// batches every event for the helper's `Feed`, the kernel thread
    /// keeps the observers that read state, and both groups see the same
    /// events in the same order. For an invariant checker on the helper,
    /// the relay also reads the state it compares, into the same batches.
    /// After the loop, or a panic on this thread, the relay hangs up and
    /// the helper is joined; a panic on either thread is then re-raised
    /// with its payload, the helper's first. Otherwise the relay's probe
    /// goes to the checkers, the observers go back in attach order and
    /// `finish_run` runs `on_run_end` for all of them on this thread.
    fn run_with_helper(mut self, executor: &mut Executor<Ev>) -> SimOutput {
        let on_helper: Vec<bool> = self.observers.iter().map(|o| !o.reads_state()).collect();
        let (mut inline, mut offloaded) = (Vec::new(), Vec::new());
        for (obs, &off) in std::mem::take(&mut self.observers)
            .into_iter()
            .zip(&on_helper)
        {
            if off {
                offloaded.push(obs);
            } else {
                inline.push(obs);
            }
        }
        std::thread::scope(|scope| {
            let (relay, feed) = crate::observer::relay(&offloaded);
            let helper = std::thread::Builder::new()
                .name("observers".into())
                .spawn_scoped(scope, move || feed.deliver(offloaded))
                .expect("spawn the observer thread");
            self.observers = inline;
            self.observers.push(Box::new(relay));
            // A panic on this thread (an invariant violation, or the relay
            // finding the helper gone) is caught so that the relay hangs
            // up before the join; the helper would wait for it otherwise.
            let run = panic::catch_unwind(AssertUnwindSafe(|| executor.run(&mut self)));
            // Hanging up ships the relay's last batch; its probe, if it
            // read state for a checker, goes back to the checker below.
            let probe = crate::observer::hang_up(self.observers.pop().expect("relay attached"));
            // The helper's panic goes first: the kernel's may be the relay
            // noticing it.
            let mut offloaded = helper
                .join()
                .unwrap_or_else(|payload| panic::resume_unwind(payload));
            let stats = run.unwrap_or_else(|payload| panic::resume_unwind(payload));
            if let Some(probe) = probe {
                crate::observer::hand_over(probe, &mut offloaded);
            }
            let mut inline = std::mem::take(&mut self.observers).into_iter();
            let mut offloaded = offloaded.into_iter();
            self.observers = on_helper
                .iter()
                .map(|&off| {
                    let next = if off { offloaded.next() } else { inline.next() };
                    next.expect("one observer per attach slot")
                })
                .collect();
            self.finish_run(stats.end_time, stats.events_processed)
        })
    }

    /// Runs every observer's `on_run_start` with the initial state.
    pub(crate) fn start_observers(&mut self) {
        let ctx = ObsCtx {
            pools: &self.pools,
            jobs: self.jobs.observed(),
            shadows: &self.shadows,
        };
        for obs in &mut self.observers {
            obs.on_run_start(SimTime::ZERO, &ctx);
        }
    }

    /// Runs a workload to completion with *streaming* generation: jobs
    /// are generated shard-locally minute by minute from `workload`'s RNG
    /// substreams (`seed` must be the trace seed a materialized run would
    /// use), so peak memory is proportional to the in-flight job count,
    /// not the trace length. The simulator must be constructed with an
    /// **empty** spec list; [`Backend::Serial`] runs one shard on the
    /// calling thread and spawns none, [`Backend::Sharded`] runs shard 0
    /// on the calling thread and one thread per further shard (at most
    /// one shard per pool), byte-identically.
    ///
    /// [`SimOutput::jobs`] is populated only when at least one observer
    /// is attached (retaining records would defeat flat memory);
    /// totals, counters, series and pool stats are always complete.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] text
    /// when [`Simulator::check_streaming`] rejects the configuration or
    /// `workload`; call it first to get the error instead.
    pub fn run_streaming(self, workload: &netbatch_workload::WorkloadSpec, seed: u64) -> SimOutput {
        let shards = match self.config.backend {
            Backend::Serial => 1,
            Backend::Sharded { shards } => shards.max(1),
        };
        crate::streaming::run_streaming(self, workload, seed, shards)
    }

    /// The run's merged fault schedule: the ad-hoc failure list, the
    /// generated outages and the lifecycle kills, normalized into one plan.
    fn build_fault_plan(&self) -> FaultPlan {
        // Normalize the explicit outage list and merge it with the generated
        // schedule: per-machine intervals are non-overlapping afterwards,
        // so no up-event can resurrect a machine inside a later outage.
        let mut plan = FaultPlan::new(self.config.failures.clone());
        if let Some(model) = self.config.fault_model.as_ref() {
            let shape: Vec<(PoolId, u32)> = self
                .pools
                .iter()
                .map(|p| (p.id(), p.machine_count() as u32))
                .collect();
            plan = plan
                .merge(model.generate(&shape, self.config.seed))
                .clamp_to(model.horizon);
        }
        // Lifecycle kills enter the same plan, so a stochastic outage
        // overlapping a maintenance window collapses into one down/up pair
        // (the invariant checker's alternation rule demands exactly that).
        if !self.lifecycle_plan.is_empty() {
            plan = plan.merge(FaultPlan::new(self.lifecycle_plan.kill_outages()));
        }
        plan
    }

    /// Seeds the run's initial events — the first sample tick, the fault
    /// schedule (`self.fault_plan`, whose outage ids fault audits cite),
    /// the drain windows — in canonical order (event ids are assigned
    /// sequentially, so seeding order is part of the determinism
    /// contract). Job submissions are not seeded: they stream in through
    /// `Handler::pop_arrival`, and an arrival goes before any queued event
    /// at its minute — the order submissions seeded ahead of every other
    /// event would get (DESIGN.md §11).
    fn seed_initial_events(&mut self, executor: &mut Executor<Ev>) {
        if let Some(sampler) = self.sampler.as_mut() {
            executor.seed_event(sampler.next_tick(), Ev::Sample);
        }
        for o in self.fault_plan.outages() {
            executor.seed_event(o.from, Ev::MachineDown(o.pool, o.machine));
            if let Some(until) = o.until {
                executor.seed_event(until, Ev::MachineUp(o.pool, o.machine));
            }
        }
        // Drain windows seed after the outage pairs, so at a shared
        // instant the machine is restored (still draining, no dispatch)
        // before the drain ends and re-opens it.
        for w in self.lifecycle_plan.windows() {
            executor.seed_event(w.drain_from, Ev::DrainStart(w.pool, w.machine, w.down_from));
            executor.seed_event(w.until, Ev::DrainEnd(w.pool, w.machine));
        }
    }

    /// Final bookkeeping shared by both kernels: records the event count,
    /// runs `on_run_end`, drains the job table into the totals (shadow
    /// copies are dropped, not folded) and assembles the [`SimOutput`].
    pub(crate) fn finish_run(mut self, end_time: SimTime, events_processed: u64) -> SimOutput {
        self.counters.events = events_processed;
        // Preemption is the pools' to count: every suspension either kernel
        // applies came out of one pool's action batch.
        self.counters.suspensions = self.pools.iter().map(|p| p.stats().suspensions).sum();
        debug_assert!(self.pools.iter().all(PhysicalPool::check_invariants));
        if !self.observers.is_empty() {
            let ctx = ObsCtx {
                pools: &self.pools,
                jobs: self.jobs.observed(),
                shadows: &self.shadows,
            };
            for obs in &mut self.observers {
                obs.on_run_end(end_time, &ctx);
            }
        }
        // Duplicate (shadow) copies are bookkeeping, not submitted jobs:
        // drop them from the reported population. Only duplicating runs
        // have any. Records still in the table never retired: a dense
        // table holds every job, an in-flight one the jobs that never
        // finished, which count as jobs but not in the averages.
        let dense = self.jobs.is_dense();
        let mut jobs = self.jobs.into_records();
        if !self.shadows.is_empty() {
            jobs.retain(|j| !self.shadows.contains(&j.id()));
        }
        for job in &jobs {
            self.totals.add(job);
        }
        if !dense {
            jobs = Vec::new();
        }
        self.totals
            .suspend_times
            .sort_unstable_by_key(|&(id, _)| id);
        let pool_stats = self.pools.iter().map(|p| (p.id(), p.stats())).collect();
        SimOutput {
            jobs,
            totals: self.totals,
            counters: self.counters,
            pool_stats,
            end_time,
            suspended_series: self.suspended_series,
            utilization_series: self.utilization_series,
            waiting_series: self.waiting_series,
            observers: self.observers,
            profile: self.profile.map(|p| *p),
        }
    }

    // ---- internals ----

    /// Brings the policy's cluster view up to date in place; after this
    /// call `self.view_snap` is what decisions at `now` should see. With
    /// zero `view_staleness` every read refreshes (the paper's oracle
    /// assumption), which recaptures only the pools mutated since the
    /// last read. Otherwise the view is refreshed at the first read more
    /// than `view_staleness` after the previous refresh, and reads in
    /// between see the aged view.
    fn refresh_view(&mut self, now: SimTime) {
        let staleness = self.config.view_staleness;
        if !staleness.is_zero() {
            if self.view_at.is_some_and(|at| now.since(at) <= staleness) {
                return;
            }
            self.view_at = Some(now);
        }
        self.view_snap.refresh(&self.pools);
    }

    /// Consults the rescheduling policy about `spec`'s job in `pool`, which
    /// `trigger` put in front of it; a wait timeout's answer is a restart
    /// elsewhere or a stay. With observers attached, a
    /// [`ObsEvent::PolicyAudit`] then carries the ranking inputs the policy
    /// just saw in the (still-fresh) cluster view, before the transition
    /// its verdict produces: the evidence `netbatch trace --why` replays.
    /// `NoRes` suspensions are not decisions (the streaming kernel never
    /// consults the policy at all) and go unaudited.
    fn consult(
        &mut self,
        spec: &JobSpec,
        pool: PoolId,
        trigger: AuditTrigger,
        now: SimTime,
    ) -> Decision {
        let mut candidates = self.scratch.take_pool_list();
        self.eligible_candidates_into(spec, now, &mut candidates);
        self.refresh_view(now);
        let (view, rng) = (&self.view_snap, &mut self.policy_rng);
        let decision = match trigger {
            AuditTrigger::Suspend => self.policy.on_suspended(spec, pool, &candidates, view, rng),
            AuditTrigger::WaitTimeout => {
                match self.policy.on_waiting(spec, pool, &candidates, view, rng) {
                    Some(target) if target != pool => Decision::Restart(target),
                    _ => Decision::Stay,
                }
            }
        };
        let candidate_count = candidates.len() as u16;
        self.scratch.put_pool_list(candidates);
        let audited = trigger == AuditTrigger::WaitTimeout || !self.policy.is_no_res();
        if audited && !self.observers.is_empty() {
            let (verdict, target) = match decision {
                Decision::Stay => (AuditVerdict::Stay, None),
                Decision::Restart(t) => (AuditVerdict::Restart, Some(t)),
                Decision::Migrate(t) => (AuditVerdict::Migrate, Some(t)),
                Decision::Duplicate(t) => (AuditVerdict::Duplicate, Some(t)),
            };
            let health = self.config.health_aware;
            let inputs = |p| crate::policy::resched::audit_inputs(&self.view_snap, p, health);
            let (cur_util_milli, cur_queue) = inputs(pool);
            let (tgt_util_milli, tgt_queue) = target.map_or((cur_util_milli, cur_queue), inputs);
            self.emit(
                now,
                ObsEvent::PolicyAudit {
                    job: spec.id,
                    pool,
                    trigger,
                    verdict,
                    target,
                    candidates: candidate_count,
                    cur_util_milli,
                    tgt_util_milli,
                    cur_queue,
                    tgt_queue,
                },
            );
        }
        decision
    }

    /// The pools this job may be rescheduled to: affinity candidates that
    /// also have at least one machine capable of running it, and — under a
    /// multi-VPM topology without inter-site rescheduling — belong to the
    /// job's home VPM. Hardened runs additionally exclude pools inside
    /// their blacklist cooldown after a machine failure.
    fn eligible_candidates_into(&self, spec: &JobSpec, now: SimTime, out: &mut Vec<PoolId>) {
        let home = self.home_pools(spec.id);
        let hardened = self.config.resilience.enabled;
        spec.affinity.candidates_into(self.pool_count, out);
        out.retain(|p| {
            home.is_none_or(|pools| pools.contains(p))
                && self.pools[p.as_usize()].is_eligible(spec.resources)
                && (!hardened || self.blacklist[p.as_usize()] <= now)
        });
    }

    /// The job's home VPM pool set, unless rescheduling is site-global.
    fn home_pools(&self, job: JobId) -> Option<&[PoolId]> {
        let topo = self.config.topology.as_ref()?;
        if topo.inter_site_resched {
            return None;
        }
        Some(&topo.vpms[self.vpm_assignment[job.as_usize()]])
    }

    /// Initial-routing candidates: affinity ∩ the home VPM's pools (a VPM
    /// only dispatches to pools it is connected to, Figure 1).
    fn initial_candidates_into(&self, spec: &JobSpec, out: &mut Vec<PoolId>) {
        spec.affinity.candidates_into(self.pool_count, out);
        if let Some(topo) = self.config.topology.as_ref() {
            let home = &topo.vpms[self.vpm_assignment[spec.id.as_usize()]];
            out.retain(|p| home.contains(p));
        }
    }

    /// Routes a job through the virtual pool manager to its initial
    /// candidates.
    fn route_via_vpm(&mut self, job: JobId, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let spec = self.jobs[job].spec().clone();
        let mut candidates = self.scratch.take_pool_list();
        self.initial_candidates_into(&spec, &mut candidates);
        self.route_in_order(&spec, &candidates, now, sched);
        self.scratch.put_pool_list(candidates);
    }

    /// Tries `candidates` in the initial scheduler's preference order,
    /// bouncing on ineligibility, until one dispatches or queues the job;
    /// a job no candidate can ever run is given up.
    fn route_in_order(
        &mut self,
        spec: &JobSpec,
        candidates: &[PoolId],
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        // Round-robin never reads the view; under a non-zero staleness the
        // refresh still sets the instant later reads age from.
        if !self.initial.is_round_robin() || !self.config.view_staleness.is_zero() {
            self.refresh_view(now);
        }
        let mut order = self.scratch.take_pool_list();
        self.initial
            .order_into(spec, candidates, &self.view_snap, &mut order);
        let mut suspended = self.scratch.take_worklist();
        let routed = order.iter().any(|&pool| {
            self.place(pool, spec, true, now, sched, &mut suspended) != SubmitKind::Ineligible
        });
        self.decide_all(suspended, now, sched);
        if !routed {
            self.give_up(spec.id, now);
        }
        self.scratch.put_pool_list(order);
    }

    /// The serial kernel's one placement call: submits `spec` into `pool`
    /// through the shared pool step and arms the wait timer if the job
    /// queued. A `routed` placement (the VPM's choice) bounces off an
    /// ineligible pool; a direct one (a restart, duplicate launch or
    /// migration arrival) there routes the job's full spec through the
    /// VPM instead, though policies only pick eligible targets.
    /// Preemptions the placement causes land on `suspended`.
    fn place(
        &mut self,
        pool: PoolId,
        spec: &JobSpec,
        routed: bool,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
        suspended: &mut Suspended,
    ) -> SubmitKind {
        let mut actions = self.scratch.take_actions();
        let host = &mut self.host(sched);
        let kind = pool_step::submit(host, pool, spec, routed, now, &mut actions, suspended);
        self.scratch.put_actions(actions);
        match kind {
            SubmitKind::Queued => {
                if let Some(threshold) = self.policy.wait_threshold() {
                    self.arm_wait_timer(spec.id, now + threshold, sched);
                }
            }
            SubmitKind::Ineligible if !routed => self.route_via_vpm(spec.id, now, sched),
            _ => {}
        }
        kind
    }

    /// The pool step's host over this simulator and the executor's
    /// scheduler.
    fn host<'s, 'q>(&'s mut self, sched: &'s mut Scheduler<'q, Ev>) -> SerialHost<'s, 'q> {
        SerialHost { sim: self, sched }
    }

    /// The most wait-check timer re-arms a job may consume per waiting
    /// stint — a backstop against livelock when a waiting job can never
    /// start (e.g. every capable machine failed permanently).
    const MAX_WAIT_CHECKS: u32 = 10_000;

    /// Books a waiting job's next wait check at `at`, unless its waiting
    /// stint has used up its re-arm budget.
    fn arm_wait_timer(&mut self, job: JobId, at: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let rec = &mut self.jobs[job];
        if rec.wait_checks < Self::MAX_WAIT_CHECKS {
            rec.wait_checks += 1;
            rec.wait_timer_event = Some(sched.schedule_at(at, Ev::WaitCheck(job)));
        }
    }

    /// Moves `spec`'s job out of its pool through the pool step (its freed
    /// capacity may start queued jobs there) to `target`, the policy's
    /// choice: restarted from scratch and placed there now, paying the
    /// move's overhead, or, migrating, landed there with its remaining work
    /// once the transfer delay has elapsed.
    fn move_to(
        &mut self,
        spec: &JobSpec,
        kind: ReschedKind,
        target: PoolId,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
        suspended: &mut Suspended,
    ) {
        let (job, migrate) = (spec.id, kind == ReschedKind::Migrate);
        let config = &self.config;
        let cost = match config.topology.as_ref() {
            _ if migrate => config.migration.delay,
            // A restart that leaves the home VPM pays the inter-site
            // surcharge on top of the base overhead.
            Some(topo) if !topo.vpms[self.vpm_assignment[job.as_usize()]].contains(&target) => {
                config.restart_overhead + topo.inter_site_overhead
            }
            _ => config.restart_overhead,
        };
        let exit = pool_step::Exit {
            kind,
            cost,
            to: Some(target),
        };
        let mut actions = self.scratch.take_actions();
        let host = &mut self.host(sched);
        pool_step::withdraw(host, job, now, &mut actions);
        let remaining = pool_step::restart(host, job, exit, &actions, now, suspended);
        self.scratch.put_actions(actions);
        if !migrate {
            self.place(target, spec, false, now, sched, suspended);
            return;
        }
        // The migrated copy runs `slowdown` slower (§2.3's 10-20%
        // virtualization overhead), minimum one minute.
        let slowed = (remaining.as_minutes() * u64::from(self.config.migration.slowdown_milli))
            .div_ceil(1000)
            .max(1);
        self.migrating
            .insert(job, SimDuration::from_minutes(slowed));
        let arrive = now + self.config.migration.delay;
        sched.schedule_at(arrive, Ev::MigrateArrive(job, target));
    }

    /// Decides every suspension on the worklist, then returns the list to
    /// the scratch pool. Rescheduling can cascade (a restarted job may
    /// preempt in its new pool); the worklist makes the cascade iterative
    /// and bounded.
    fn decide_all(
        &mut self,
        mut suspended: Suspended,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        while let Some((job, pool)) = suspended.pop_front() {
            self.decide_suspended(job, pool, now, sched, &mut suspended);
        }
        self.scratch.put_worklist(suspended);
    }

    /// Consults the rescheduling policy for one freshly suspended job and
    /// executes its decision.
    fn decide_suspended(
        &mut self,
        job: JobId,
        at_pool: PoolId,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
        suspended: &mut Suspended,
    ) {
        let rec = &self.jobs[job];
        // The job may already have been resumed (or even completed) by a
        // cascade that ran between its suspension and this decision.
        if !matches!(rec.phase(), JobPhase::Suspended { pool, .. } if pool == at_pool) {
            return;
        }
        if let Some(cap) = self.config.max_restarts {
            if rec.restarts_from_suspend() + rec.restarts_from_wait() >= cap {
                return;
            }
        }
        let mut spec = self.jobs[job].spec().clone();
        match self.consult(&spec, at_pool, AuditTrigger::Suspend, now) {
            Decision::Stay => {}
            Decision::Restart(target) => {
                let kind = ReschedKind::RestartFromSuspend;
                self.move_to(&spec, kind, target, now, sched, suspended);
                self.counters.restarts_from_suspend += 1;
            }
            Decision::Migrate(target) => {
                let kind = ReschedKind::Migrate;
                self.move_to(&spec, kind, target, now, sched, suspended);
                self.counters.migrations += 1;
            }
            Decision::Duplicate(target) => {
                // Only one live duplicate per original, and shadows never
                // spawn their own duplicates.
                if !self.dup_of.contains_key(&job) && !self.shadows.contains(&job) {
                    let clone_id = JobId(self.next_id);
                    self.next_id += 1;
                    spec.id = clone_id;
                    self.jobs.push(JobRecord::new(spec.clone()));
                    if self.config.resilience.enabled {
                        self.fault_retries.push(0);
                    }
                    if !self.vpm_assignment.is_empty() {
                        let home = self.vpm_assignment[job.as_usize()];
                        self.vpm_assignment.push(home);
                    }
                    self.shadows.insert(clone_id);
                    self.dup_of.insert(job, clone_id);
                    self.dup_of.insert(clone_id, job);
                    self.counters.duplicates_launched += 1;
                    self.jobs[clone_id].submit(now).expect("fresh clone");
                    self.emit(
                        now,
                        ObsEvent::DuplicateLaunched {
                            original: job,
                            clone: clone_id,
                            target,
                        },
                    );
                    self.place(target, &spec, false, now, sched, suspended);
                }
            }
        }
    }

    fn handle_complete(&mut self, job: JobId, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let mut actions = self.scratch.take_actions();
        let mut suspended = self.scratch.take_worklist();
        let host = &mut self.host(sched);
        pool_step::complete(host, job, now, &mut actions, &mut suspended);
        self.scratch.put_actions(actions);
        if !self.shadows.contains(&job) {
            self.counters.completed += 1;
        }
        self.decide_all(suspended, now, sched);
        if let Some(loser) = self.resolve_duplicate_race(job, now, sched) {
            self.retire(loser);
        }
        self.retire(job);
    }

    /// Retires a settled job: nothing can change its record any more,
    /// because it completed or was given up and it is not half of a
    /// duplicate pair whose race is still open. An unobserved run folds
    /// the record into the totals and frees its entry (a shadow copy is
    /// dropped, not folded); an observed run keeps every record in its
    /// dense table and folds them all when the run finishes.
    fn retire(&mut self, job: JobId) {
        if self.dup_of.contains_key(&job) {
            return;
        }
        let totals = (!self.shadows.contains(&job)).then_some(&mut self.totals);
        self.jobs.retire(job, totals);
    }

    /// If `finisher` is half of a duplicate pair, cancel the other copy
    /// and settle the accounting: the loser's execution was redundant and
    /// is charged to the original as rescheduling waste. Returns the
    /// loser, whose race is now settled.
    fn resolve_duplicate_race(
        &mut self,
        finisher: JobId,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) -> Option<JobId> {
        let loser = self.dup_of.remove(&finisher)?;
        self.dup_of.remove(&loser);
        let clone_won = self.shadows.contains(&finisher);
        // Cancel the loser's pending events and take it out of its pool,
        // noting where it was for the proxy-finish event emitted once the
        // record is settled.
        let rec = &mut self.jobs[loser];
        let booked = [rec.completion_event.take(), rec.wait_timer_event.take()];
        for ev in booked.into_iter().flatten() {
            sched.cancel(ev);
        }
        let mut actions = self.scratch.take_actions();
        let mut suspended = self.scratch.take_worklist();
        let host = &mut self.host(sched);
        let from = pool_step::withdraw(host, loser, now, &mut actions);
        if let Some(from) = from {
            pool_step::apply(host, from.pool, &actions, now, &mut suspended);
        }
        self.scratch.put_actions(actions);
        self.decide_all(suspended, now, sched);
        // Settle: the ORIGINAL record carries the metrics. Stamping the
        // loser completed closes its open run/suspend/wait segment; all it
        // executed produced nothing, so it is charged to the original as
        // waste (to itself when the clone won).
        let rec = &mut self.jobs[loser];
        let proxied = !rec.is_completed();
        if proxied {
            rec.finish_by_proxy(now).expect("the loser is active");
        }
        let wasted = rec.run_time();
        let original = if clone_won { loser } else { finisher };
        self.jobs[original].add_external_waste(wasted);
        if clone_won {
            self.counters.duplicates_won += 1;
            if proxied {
                self.counters.completed += 1;
            }
        }
        if proxied {
            self.emit(
                now,
                ObsEvent::ProxyFinish {
                    job: loser,
                    from_phase: from.map_or(PhaseTag::AtVpm, |p| p.phase),
                    pool: from.map(|p| p.pool),
                    machine: from.and_then(|p| p.machine),
                },
            );
        }
        Some(loser)
    }

    fn handle_wait_check(&mut self, job: JobId, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let rec = &self.jobs[job];
        let JobPhase::Waiting { pool } = rec.phase() else {
            return; // Started or moved in the meantime; timer is stale.
        };
        let Some(threshold) = self.policy.wait_threshold() else {
            return;
        };
        let waited = now.since(rec.phase_since());
        if waited < threshold {
            // Re-arm for the remainder (can happen after requeueing races).
            self.arm_wait_timer(job, rec.phase_since() + threshold, sched);
            return;
        }
        if let Some(cap) = self.config.max_restarts {
            if rec.restarts_from_suspend() + rec.restarts_from_wait() >= cap {
                return;
            }
        }
        let spec = self.jobs[job].spec().clone();
        self.emit(now, ObsEvent::WaitTimeout { job, pool });
        match self.consult(&spec, pool, AuditTrigger::WaitTimeout, now) {
            Decision::Restart(target) => {
                let mut suspended = self.scratch.take_worklist();
                let kind = ReschedKind::RestartFromWait;
                self.move_to(&spec, kind, target, now, sched, &mut suspended);
                self.counters.restarts_from_wait += 1;
                self.decide_all(suspended, now, sched);
            }
            // Stay put; check again one threshold later (bounded).
            _ => self.arm_wait_timer(job, now + threshold, sched),
        }
    }

    fn handle_migrate_arrive(
        &mut self,
        job: JobId,
        target: PoolId,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let Some(remaining) = self.migrating.remove(&job) else {
            return; // job was finished by other means in transit
        };
        if self.jobs[job].is_completed() {
            return;
        }
        // Submit a spec carrying only the remaining (slowed) work.
        let mut spec = self.jobs[job].spec().clone();
        spec.runtime = remaining;
        let mut suspended = self.scratch.take_worklist();
        self.place(target, &spec, false, now, sched, &mut suspended);
        self.decide_all(suspended, now, sched);
    }

    /// A machine event: the pool step changes the pool, announces it and
    /// applies freed capacity; the kernel's policy then takes over a
    /// failure's evictees and, when the resilience policy opts in, a kill
    /// deadline's at-risk residents.
    fn handle_machine(
        &mut self,
        pool: PoolId,
        machine: MachineId,
        event: MachineEvent,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let mut actions = self.scratch.take_actions();
        let mut suspended = self.scratch.take_worklist();
        let mut evictees = std::mem::take(&mut self.scratch.evictees);
        let host = &mut self.host(sched);
        let (a, s, e) = (&mut actions, &mut suspended, &mut evictees);
        let changed = pool_step::machine_event(host, pool, machine, event, now, a, s, e);
        self.scratch.put_actions(actions);
        self.decide_all(suspended, now, sched);
        match event {
            _ if !changed => {}
            // A failure: blacklist the pool when the scheduler is hardened,
            // audit the fault, then restart every evictee.
            MachineEvent::Down => {
                let mut blacklisted_until = None;
                if self.config.resilience.enabled {
                    // A pool that just lost a machine is unhealthy: exclude it
                    // from rescheduling targets for the cooldown window.
                    let until = now + self.config.resilience.blacklist_cooldown;
                    if self.blacklist[pool.as_usize()] < until {
                        self.blacklist[pool.as_usize()] = until;
                        self.emit(now, ObsEvent::PoolBlacklisted { pool, until });
                        blacklisted_until = Some(until);
                    }
                }
                if !self.observers.is_empty() {
                    // Fault audit: name the outage behind this failure so span
                    // causes and `trace --why` can cite it, before the per-job
                    // evictions it triggers.
                    let outage = self
                        .fault_plan
                        .outage_id(pool, machine, now)
                        .unwrap_or(u32::MAX);
                    self.emit(
                        now,
                        ObsEvent::FaultAudit {
                            pool,
                            machine,
                            outage,
                            blacklisted_until,
                        },
                    );
                }
                for job in evictees.iter() {
                    self.counters.failure_evictions += 1;
                    self.evict(job, ReschedKind::FailureEvict, &[], now, sched);
                }
            }
            MachineEvent::Drain(Some(deadline)) if self.config.resilience.evacuate_draining => {
                self.evacuate(pool, machine, deadline, &evictees, now, sched);
            }
            _ => {}
        }
        self.scratch.evictees = evictees;
    }

    /// Proactive evacuation: moves the residents a drain's kill `deadline`
    /// would catch off `machine` now, racing the drain instead of dying at
    /// the kill. `at_risk` is a stable copy of the resident lists:
    /// evacuating one job can resume another on this very machine.
    fn evacuate(
        &mut self,
        pool: PoolId,
        machine: MachineId,
        deadline: SimTime,
        at_risk: &Evictees,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        for job in at_risk.iter() {
            // Re-read the job's phase: an earlier evacuee's freed cores
            // may have resumed this one meanwhile (resuming on a draining
            // machine is legal — only *new* placements are barred).
            let remaining = match self.jobs[job].phase() {
                p if p == JobPhase::Running { pool, machine } => self.jobs[job].remaining_wall(),
                p if p == JobPhase::Suspended { pool, machine } => SimDuration::ZERO,
                _ => continue, // moved or completed by a cascade in between
            };
            self.counters.evacuations += 1;
            if !self.observers.is_empty() {
                // Evacuation audit: which lifecycle window forced the
                // move and what the job's remaining work was racing.
                let window = self
                    .lifecycle_plan
                    .window_id(pool, machine, now)
                    .unwrap_or(u32::MAX);
                self.emit(
                    now,
                    ObsEvent::EvacAudit {
                        job,
                        pool,
                        machine,
                        window,
                        remaining,
                        deadline,
                    },
                );
            }
            let mut actions = self.scratch.take_actions();
            pool_step::withdraw(&mut self.host(sched), job, now, &mut actions);
            self.evict(job, ReschedKind::Evacuation, &actions, now, sched);
            self.scratch.put_actions(actions);
        }
    }

    /// Restarts a job a failure or a drain took off its machine (`freed` is
    /// what its withdrawal freed), then routes it through the VPM, or into
    /// backoff when the scheduler is hardened.
    fn evict(
        &mut self,
        job: JobId,
        kind: ReschedKind,
        freed: &[PoolAction],
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let exit = pool_step::Exit {
            kind,
            cost: self.config.restart_overhead,
            to: None,
        };
        let mut suspended = self.scratch.take_worklist();
        pool_step::restart(&mut self.host(sched), job, exit, freed, now, &mut suspended);
        self.decide_all(suspended, now, sched);
        if self.config.resilience.enabled {
            self.schedule_retry(job, now, sched);
        } else {
            self.route_via_vpm(job, now, sched);
        }
    }

    /// Books one failure-driven re-dispatch for `job`: waits out the
    /// exponential backoff before trying again, or gives the job up once
    /// its retry budget is spent.
    fn schedule_retry(&mut self, job: JobId, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let attempt = self.fault_retries[job.as_usize()] + 1;
        if attempt > self.config.resilience.retry_budget {
            self.give_up(job, now);
            return;
        }
        self.fault_retries[job.as_usize()] = attempt;
        let resume_at = now + self.config.resilience.backoff_delay(attempt);
        self.counters.retries_scheduled += 1;
        self.emit(
            now,
            ObsEvent::RetryScheduled {
                job,
                attempt,
                resume_at,
            },
        );
        sched.schedule_at(resume_at, Ev::RetryDispatch(job));
    }

    /// A backoff delay expired: re-dispatch the job through the VPM,
    /// avoiding pools with every machine down. If every capable pool is
    /// fully down the job parks at the VPM for another backoff interval
    /// (graceful degradation) instead of queueing on a dead pool.
    fn handle_retry_dispatch(&mut self, job: JobId, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let Some(rec) = self.jobs.get(job) else {
            return; // retired: finished by a duplicate meanwhile
        };
        if rec.is_completed()
            || !matches!(rec.phase(), JobPhase::AtVpm)
            || self.gave_up.contains(&job)
        {
            return; // finished (possibly by a duplicate) or moved meanwhile
        }
        let spec = self.jobs[job].spec().clone();
        let mut capable = self.scratch.take_pool_list();
        self.initial_candidates_into(&spec, &mut capable);
        capable.retain(|p| self.pools[p.as_usize()].is_eligible(spec.resources));
        let mut up = self.scratch.take_pool_list();
        up.extend(
            capable
                .iter()
                .copied()
                .filter(|p| !self.pools[p.as_usize()].is_fully_down()),
        );
        if up.is_empty() {
            if capable.is_empty() {
                self.give_up(job, now);
            } else {
                self.counters.vpm_requeues += 1;
                self.schedule_retry(job, now, sched);
            }
        } else {
            self.route_in_order(&spec, &up, now, sched);
        }
        self.scratch.put_pool_list(up);
        self.scratch.put_pool_list(capable);
    }

    /// Terminal bookkeeping for a job no pool will run: count it
    /// unrunnable exactly once, settling duplicate pairs so a job is never
    /// both counted unrunnable and finished by proxy.
    fn give_up(&mut self, job: JobId, now: SimTime) {
        if !self.config.resilience.enabled {
            // Unhardened behaviour (unchanged from the seed): the caller
            // already established no pool can ever run the job.
            self.counters.unrunnable += 1;
            self.emit(now, ObsEvent::Unrunnable { job });
            self.retire(job);
            return;
        }
        if self.gave_up.contains(&job) {
            return;
        }
        if let Some(partner) = self.dup_of.get(&job).copied() {
            if !self.gave_up.contains(&partner) {
                // The other copy is still in flight; if it finishes it
                // proxy-completes the pair, so don't write the pair off.
                self.gave_up.insert(job);
                return;
            }
            // Both copies gave up: sever the pair and count the original.
            self.dup_of.remove(&job);
            self.dup_of.remove(&partner);
            self.gave_up.insert(job);
            let original = if self.shadows.contains(&job) {
                partner
            } else {
                job
            };
            self.counters.unrunnable += 1;
            self.emit(now, ObsEvent::Unrunnable { job: original });
            self.retire(job);
            self.retire(partner);
            return;
        }
        self.gave_up.insert(job);
        if !self.shadows.contains(&job) {
            self.counters.unrunnable += 1;
            self.emit(now, ObsEvent::Unrunnable { job });
        }
        self.retire(job);
    }

    fn handle_sample(&mut self, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        self.record_sample(now);
        let done = self.counters.completed + self.counters.unrunnable >= self.total_jobs;
        if !done {
            let next = self
                .sampler
                .as_mut()
                .expect("sampling event implies sampler")
                .next_tick();
            sched.schedule_at(next, Ev::Sample);
        }
    }

    /// The sampling body shared by the serial handler and the streaming
    /// coordinator: emits one pool sample per pool and the sample event,
    /// and records the Figure-4 series. Scheduling the next tick is the
    /// caller's concern.
    pub(crate) fn record_sample(&mut self, now: SimTime) {
        if !self.observers.is_empty() {
            for i in 0..self.pools.len() {
                let sample = ObsEvent::pool_sample(&self.pools[i]);
                self.emit(now, sample);
            }
        }
        self.emit(now, ObsEvent::Sample);
        let suspended: usize = self.pools.iter().map(PhysicalPool::suspended_count).sum();
        let waiting: usize = self.pools.iter().map(PhysicalPool::queue_len).sum();
        let busy: u64 = self.pools.iter().map(|p| u64::from(p.busy_cores())).sum();
        let total: u64 = self.pools.iter().map(|p| u64::from(p.total_cores())).sum();
        let util = if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        };
        self.suspended_series.push(now, suspended as f64);
        self.utilization_series.push(now, util * 100.0);
        self.waiting_series.push(now, waiting as f64);
    }

    /// The upcoming sample tick, if sampling is enabled (streaming
    /// coordinator; does not consume the tick).
    pub(crate) fn peek_sample_tick(&self) -> Option<SimTime> {
        self.sampler.as_ref().map(PeriodicSampler::peek_tick)
    }

    /// The next job to submit, if any: the cursor's position in the
    /// submission order.
    fn arrival(&self) -> Option<JobId> {
        let k = self.next_arrival;
        if k as u64 >= self.total_jobs {
            return None;
        }
        Some(JobId(match self.arrivals.get(k) {
            Some(&job) => u64::from(job),
            None => k as u64,
        }))
    }

    /// Consumes the pending sample tick (streaming coordinator).
    pub(crate) fn consume_sample_tick(&mut self) {
        if let Some(s) = self.sampler.as_mut() {
            s.next_tick();
        }
    }

    /// Run counters so far.
    pub fn counters(&self) -> RunCounters {
        self.counters
    }
}

/// The pool step's host on the serial kernel: the simulator's pools and
/// dense job records, with completions booked as [`Ev::Complete`] on the
/// executor's queue.
struct SerialHost<'s, 'q> {
    sim: &'s mut Simulator,
    sched: &'s mut Scheduler<'q, Ev>,
}

impl PoolHost for SerialHost<'_, '_> {
    fn pool(&mut self, id: PoolId) -> &mut PhysicalPool {
        &mut self.sim.pools[id.as_usize()]
    }

    fn job(&mut self, id: JobId) -> &mut JobRecord {
        &mut self.sim.jobs[id]
    }

    fn book(&mut self, at: SimTime, job: JobId) -> EventId {
        self.sched.schedule_at(at, Ev::Complete(job))
    }

    fn cancel(&mut self, id: EventId) {
        self.sched.cancel(id);
    }

    fn emit(&mut self, now: SimTime, event: ObsEvent) {
        self.sim.emit(now, event);
    }
}

impl Handler for Simulator {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let profile_start = self.profile.as_ref().map(|_| std::time::Instant::now());
        // Kernel marker: all state mutated by the previous event has
        // settled, which is where deferred invariant comparisons run.
        self.emit(
            now,
            ObsEvent::Kernel {
                kind: event.label(),
            },
        );
        match event {
            Ev::Submit(job) => {
                self.jobs
                    .admit(job)
                    .submit(now)
                    .expect("submit events fire once per job");
                self.emit(now, ObsEvent::Submit { job });
                self.route_via_vpm(job, now, sched);
            }
            Ev::Complete(job) => self.handle_complete(job, now, sched),
            Ev::WaitCheck(job) => {
                self.jobs[job].wait_timer_event = None;
                self.handle_wait_check(job, now, sched);
            }
            Ev::Sample => self.handle_sample(now, sched),
            Ev::MachineDown(p, m) => self.handle_machine(p, m, MachineEvent::Down, now, sched),
            Ev::MachineUp(p, m) => self.handle_machine(p, m, MachineEvent::Up, now, sched),
            Ev::MigrateArrive(job, pool) => self.handle_migrate_arrive(job, pool, now, sched),
            Ev::RetryDispatch(job) => self.handle_retry_dispatch(job, now, sched),
            Ev::DrainStart(p, m, d) => {
                self.handle_machine(p, m, MachineEvent::Drain(d), now, sched)
            }
            Ev::DrainEnd(p, m) => self.handle_machine(p, m, MachineEvent::Undrain, now, sched),
        }
        if let Some(start) = profile_start {
            let nanos = start.elapsed().as_nanos() as u64;
            if let Some(profile) = self.profile.as_mut() {
                profile.record(event.kind_index(), nanos);
            }
        }
    }

    fn peek_arrival(&self) -> Option<SimTime> {
        Some(self.jobs.submit_time(self.arrival()?))
    }

    fn pop_arrival(&mut self) -> Option<Ev> {
        let job = self.arrival()?;
        self.next_arrival += 1;
        Some(Ev::Submit(job))
    }
}

/// Everything a finished run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// Final per-job records by id, shadow copies excluded. Kept only
    /// when an observer rode the run; empty otherwise.
    pub jobs: Vec<JobRecord>,
    /// Exact totals over the submitted jobs, whatever was observed: what
    /// [`ExperimentResult`](crate::experiment::ExperimentResult) is
    /// computed from.
    pub totals: JobTotals,
    /// Aggregate counters.
    pub counters: RunCounters,
    /// Cumulative per-pool statistics (starts, suspensions, peaks).
    pub pool_stats: Vec<(PoolId, netbatch_cluster::pool::PoolStats)>,
    /// Virtual time when the last job completed.
    pub end_time: SimTime,
    /// Suspended-job count per sample (empty unless sampling enabled).
    pub suspended_series: TimeSeries,
    /// Utilization percentage per sample.
    pub utilization_series: TimeSeries,
    /// Waiting-job count per sample.
    pub waiting_series: TimeSeries,
    /// Observers that rode the run, in attach order (the configured
    /// invariant checker first, when enabled). Empty by default.
    pub observers: Vec<Box<dyn SimObserver>>,
    /// Kernel self-profile (`config.profile`); its `Debug` rendering
    /// redacts the nondeterministic wall-clock readings.
    pub profile: Option<KernelProfile>,
}

impl SimOutput {
    /// The first attached observer of concrete type `T`, if any.
    ///
    /// ```
    /// use netbatch_core::observer::TraceRecorder;
    /// # use netbatch_core::simulator::{SimConfig, Simulator};
    /// # use netbatch_workload::scenarios::ScenarioParams;
    /// # let params = ScenarioParams::normal_week(0.002);
    /// # let mut sim = Simulator::new(
    /// #     &params.build_site(),
    /// #     params.generate_trace().to_specs(),
    /// #     SimConfig::default(),
    /// # );
    /// sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    /// let out = sim.run_to_completion();
    /// let trace = out.observer::<TraceRecorder>().unwrap();
    /// assert!(trace.events() > 0);
    /// ```
    pub fn observer<T: SimObserver + 'static>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| o.as_any().downcast_ref::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::job::PoolAffinity;
    use netbatch_cluster::pool::PoolConfig;
    use netbatch_cluster::priority::Priority;

    fn tiny_site(pools: u16, machines: u32, cores: u32) -> SiteSpec {
        SiteSpec {
            pools: (0..pools)
                .map(|p| PoolConfig::uniform(PoolId(p), machines, cores, 16_384))
                .collect(),
        }
    }

    fn spec(id: u64, submit: u64, runtime: u64) -> JobSpec {
        JobSpec::new(
            JobId(id),
            SimTime::from_minutes(submit),
            SimDuration::from_minutes(runtime),
        )
    }

    /// Runs under the invariant checker, which, like any observer, also
    /// makes the run keep every job's record for the test to read.
    fn run(site: &SiteSpec, jobs: Vec<JobSpec>, mut config: SimConfig) -> SimOutput {
        config.check_invariants = true;
        Simulator::new(site, jobs, config).run_to_completion()
    }

    #[test]
    fn single_job_runs_to_completion() {
        let site = tiny_site(1, 1, 1);
        let out = run(&site, vec![spec(0, 5, 100)], SimConfig::default());
        assert_eq!(out.counters.completed, 1);
        assert_eq!(out.end_time, SimTime::from_minutes(105));
        let job = &out.jobs[0];
        assert!(job.is_completed());
        assert_eq!(job.completion_time().unwrap().as_minutes(), 100);
        assert_eq!(job.wait_time(), SimDuration::ZERO);
    }

    #[test]
    fn queued_job_waits_for_capacity() {
        let site = tiny_site(1, 1, 1);
        let jobs = vec![spec(0, 0, 60), spec(1, 10, 30)];
        let out = run(&site, jobs, SimConfig::default());
        assert_eq!(out.counters.completed, 2);
        // Job 1 waits 0..60 submit=10 → waits 50, runs 60..90.
        let j1 = &out.jobs[1];
        assert_eq!(j1.wait_time().as_minutes(), 50);
        assert_eq!(j1.completion_time().unwrap().as_minutes(), 80);
    }

    #[test]
    fn preemption_suspends_and_resumes_with_nores() {
        let site = tiny_site(1, 1, 1);
        let jobs = vec![
            spec(0, 0, 100),
            spec(1, 40, 20).with_priority(Priority::HIGH),
        ];
        let out = run(&site, jobs, SimConfig::default());
        let low = &out.jobs[0];
        assert!(low.was_suspended());
        assert_eq!(low.suspend_time().as_minutes(), 20);
        // Low: runs 0..40, suspended 40..60, runs 60..120.
        assert_eq!(low.completion_time().unwrap().as_minutes(), 120);
        assert_eq!(out.counters.suspensions, 1);
        assert_eq!(out.counters.restarts_from_suspend, 0);
        // High job was never delayed.
        assert_eq!(out.jobs[1].completion_time().unwrap().as_minutes(), 20);
    }

    #[test]
    fn res_sus_util_restarts_in_empty_pool() {
        // Pool 0 busy with a high job; pool 1 idle. The suspended low job
        // should restart in pool 1 and finish sooner than staying put.
        let site = tiny_site(2, 1, 1);
        let jobs = [
            spec(0, 0, 100),
            spec(1, 40, 500).with_priority(Priority::HIGH),
        ];
        // Round-robin sends job 0 to pool 0 and job 1 to ... pool 1! Make
        // job 1 affine to pool 0 to force the preemption.
        let jobs = vec![
            jobs[0].clone(),
            jobs[1].clone().with_affinity(PoolAffinity::from_ids(&[0])),
        ];
        let cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
        let out = run(&site, jobs, cfg);
        let low = &out.jobs[0];
        assert_eq!(out.counters.restarts_from_suspend, 1);
        // Restarted from scratch in pool 1 at t=40: completes at 140.
        assert_eq!(low.completed_at().unwrap().as_minutes(), 140);
        assert_eq!(low.resched_waste().as_minutes(), 40, "40 minutes discarded");
        assert_eq!(low.suspend_time(), SimDuration::ZERO);
    }

    #[test]
    fn res_sus_util_stays_when_alternatives_are_busier() {
        // Both pools single-core; pool 1 is fully busy with a long job, so
        // the suspended job must stay in pool 0 (NoRes-equivalent outcome).
        let site = tiny_site(2, 1, 1);
        let jobs = [
            spec(0, 0, 1000), // occupies pool 1 (RR starts at pool 0... order below)
            spec(1, 1, 100),
            spec(2, 40, 20).with_priority(Priority::HIGH),
        ];
        // RR: job0→pool0, job1→pool1, job2→pool0? cursor: job2 order starts
        // at pool0 again (third call → start index 2 % 2 = 0). To pin
        // behaviour, make job2 affine to the pool job1 runs in.
        let jobs = vec![
            jobs[0].clone().with_affinity(PoolAffinity::from_ids(&[1])),
            jobs[1].clone().with_affinity(PoolAffinity::from_ids(&[0])),
            jobs[2].clone().with_affinity(PoolAffinity::from_ids(&[0])),
        ];
        let cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
        let out = run(&site, jobs, cfg);
        let low = &out.jobs[1];
        assert!(low.was_suspended());
        assert_eq!(
            out.counters.restarts_from_suspend, 0,
            "no better pool exists"
        );
        assert_eq!(low.suspend_time().as_minutes(), 20);
    }

    #[test]
    fn wait_rescheduling_moves_stuck_job() {
        // Pool 1's single core is occupied for 1000 minutes; pool 0 is
        // idle. The round-robin cursor routes job 1 to pool 1 (its order
        // starts at index 1 on the second job), where it queues; after the
        // 30-minute threshold ResSusWaitUtil moves it to idle pool 0.
        let site = tiny_site(2, 1, 1);
        let jobs = vec![
            spec(0, 0, 1000).with_affinity(PoolAffinity::from_ids(&[1])),
            spec(1, 5, 50).with_affinity(PoolAffinity::from_ids(&[0, 1])),
        ];
        let cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
        let out = run(&site, jobs, cfg);
        let j = &out.jobs[1];
        assert_eq!(out.counters.restarts_from_wait, 1);
        assert_eq!(j.restarts_from_wait(), 1);
        // Queued at t=5, moved at t=35, runs 35..85.
        assert_eq!(j.wait_time().as_minutes(), 30);
        assert_eq!(j.completed_at().unwrap().as_minutes(), 85);
        assert_eq!(out.counters.completed, 2);
    }

    #[test]
    fn sampling_produces_series() {
        let site = tiny_site(1, 1, 1);
        let jobs = vec![spec(0, 0, 10)];
        let cfg = SimConfig::default().with_sampling();
        let out = Simulator::new(&site, jobs, cfg).run_to_completion();
        assert!(!out.utilization_series.is_empty());
        // Utilization is 100% while the job runs.
        assert!(out.utilization_series.max().unwrap() > 99.0);
        assert_eq!(out.suspended_series.max().unwrap(), 0.0);
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let site = tiny_site(3, 2, 2);
        let jobs: Vec<JobSpec> = (0..50)
            .map(|i| {
                let mut s = spec(i, i, 30 + (i * 7) % 200);
                if i % 5 == 0 {
                    s = s.with_priority(Priority::HIGH);
                }
                s
            })
            .collect();
        let cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitRand);
        let a = run(&site, jobs.clone(), cfg.clone());
        let b = run(&site, jobs, cfg);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.end_time, b.end_time);
        for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(ja.completed_at(), jb.completed_at());
            assert_eq!(ja.wasted_completion_time(), jb.wasted_completion_time());
        }
    }

    #[test]
    fn all_jobs_complete_under_every_strategy() {
        let site = tiny_site(3, 2, 2);
        let jobs: Vec<JobSpec> = (0..80)
            .map(|i| {
                let mut s = spec(i, i * 2, 20 + (i * 13) % 150);
                if i % 4 == 0 {
                    s = s
                        .with_priority(Priority::HIGH)
                        .with_affinity(PoolAffinity::from_ids(&[0]));
                }
                s
            })
            .collect();
        for strategy in [
            StrategyKind::NoRes,
            StrategyKind::ResSusUtil,
            StrategyKind::ResSusRand,
            StrategyKind::ResSusWaitUtil,
            StrategyKind::ResSusWaitRand,
            StrategyKind::ResSusQueue,
        ] {
            for initial in [InitialKind::RoundRobin, InitialKind::UtilizationBased] {
                let cfg = SimConfig::new(initial, strategy);
                let out = run(&site, jobs.clone(), cfg);
                assert_eq!(
                    out.counters.completed, 80,
                    "{strategy:?}/{initial:?} must complete all jobs"
                );
                assert!(out.jobs.iter().all(JobRecord::is_completed));
            }
        }
    }

    #[test]
    fn max_restarts_caps_rescheduling() {
        let site = tiny_site(2, 1, 1);
        let jobs = vec![
            spec(0, 0, 100),
            spec(1, 10, 500)
                .with_priority(Priority::HIGH)
                .with_affinity(PoolAffinity::from_ids(&[0])),
        ];
        let mut cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
        cfg.max_restarts = Some(0);
        let out = run(&site, jobs, cfg);
        assert_eq!(
            out.counters.restarts_from_suspend, 0,
            "cap of zero disables restarts"
        );
        assert!(out.jobs[0].was_suspended());
    }

    #[test]
    fn restart_overhead_is_accounted() {
        let site = tiny_site(2, 1, 1);
        let jobs = vec![
            spec(0, 0, 100),
            spec(1, 40, 500)
                .with_priority(Priority::HIGH)
                .with_affinity(PoolAffinity::from_ids(&[0])),
        ];
        let mut cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
        cfg.restart_overhead = SimDuration::from_minutes(15);
        let out = run(&site, jobs, cfg);
        let low = &out.jobs[0];
        assert_eq!(low.resched_waste().as_minutes(), 40 + 15);
    }

    #[test]
    fn machine_failure_evicts_and_restarts_jobs() {
        let site = tiny_site(2, 1, 1);
        let jobs = vec![spec(0, 0, 100)];
        let cfg = SimConfig {
            failures: vec![MachineOutage {
                pool: PoolId(0),
                machine: netbatch_cluster::ids::MachineId(0),
                from: SimTime::from_minutes(40),
                until: None,
            }],
            ..SimConfig::default()
        };
        let out = run(&site, jobs, cfg);
        assert_eq!(out.counters.failure_evictions, 1);
        assert_eq!(out.counters.completed, 1);
        let job = &out.jobs[0];
        // Ran 40 min on pool 0, evicted, restarted from scratch on pool 1.
        assert_eq!(job.resched_waste().as_minutes(), 40);
        assert_eq!(job.completed_at().unwrap().as_minutes(), 140);
    }

    #[test]
    fn machine_recovers_and_serves_queue() {
        // One pool, one machine. Failure at t=10 for 50 minutes; the job
        // is evicted, requeues in the same pool (only pool), and restarts
        // when the machine comes back.
        let site = tiny_site(1, 1, 1);
        let jobs = vec![spec(0, 0, 100)];
        let cfg = SimConfig {
            failures: vec![MachineOutage {
                pool: PoolId(0),
                machine: netbatch_cluster::ids::MachineId(0),
                from: SimTime::from_minutes(10),
                until: Some(SimTime::from_minutes(60)),
            }],
            ..SimConfig::default()
        };
        let out = run(&site, jobs, cfg);
        assert_eq!(out.counters.completed, 1);
        let job = &out.jobs[0];
        // Restarts at t=60 when the machine recovers; completes at 160.
        assert_eq!(job.completed_at().unwrap().as_minutes(), 160);
        assert_eq!(job.wait_time().as_minutes(), 50);
        assert_eq!(job.resched_waste().as_minutes(), 10);
    }

    #[test]
    fn permanent_failure_leaves_jobs_waiting_for_capability() {
        let site = tiny_site(1, 1, 1);
        let jobs = vec![spec(0, 0, 100), spec(1, 50, 10)];
        let cfg = SimConfig {
            failures: vec![MachineOutage {
                pool: PoolId(0),
                machine: netbatch_cluster::ids::MachineId(0),
                from: SimTime::from_minutes(10),
                until: None,
            }],
            ..SimConfig::default()
        };
        let out = run(&site, jobs, cfg);
        // A down machine is still *capable*, so the jobs queue for it
        // rather than being dropped; with no recovery they never finish.
        assert_eq!(out.counters.completed, 0);
        assert_eq!(out.counters.unrunnable, 0);
        assert!(out
            .jobs
            .iter()
            .all(|j| matches!(j.phase(), netbatch_cluster::job::JobPhase::Waiting { .. })));
    }

    #[test]
    fn migration_keeps_progress_across_pools() {
        // Pool 0: low job preempted at t=40 by a long high job. Pool 1 is
        // idle; migration moves the low job there with its progress, at a
        // 30-minute delay and 15% slowdown on the remaining work.
        let site = tiny_site(2, 1, 1);
        let jobs = vec![
            spec(0, 0, 100),
            spec(1, 40, 500)
                .with_priority(Priority::HIGH)
                .with_affinity(PoolAffinity::from_ids(&[0])),
        ];
        let cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::MigrateSusUtil);
        let out = run(&site, jobs, cfg);
        assert_eq!(out.counters.migrations, 1);
        let low = &out.jobs[0];
        // Ran 40 of 100; 60 remaining -> 69 slowed; arrives at t=70,
        // completes at 139.
        assert_eq!(low.completed_at().unwrap().as_minutes(), 139);
        assert_eq!(low.migrations(), 1);
        // Waste = the 30-minute transfer delay only (progress kept).
        assert_eq!(low.resched_waste().as_minutes(), 30);
        assert_eq!(low.run_time().as_minutes(), 40 + 69);
    }

    #[test]
    fn duplication_first_finisher_wins() {
        // Original suspended at t=40 under a 500-minute high job; the
        // duplicate starts fresh in idle pool 1 and wins easily.
        let site = tiny_site(2, 1, 1);
        let jobs = vec![
            spec(0, 0, 100),
            spec(1, 40, 500)
                .with_priority(Priority::HIGH)
                .with_affinity(PoolAffinity::from_ids(&[0])),
        ];
        let cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::DupSusUtil);
        let out = run(&site, jobs, cfg);
        assert_eq!(out.counters.duplicates_launched, 1);
        assert_eq!(out.counters.duplicates_won, 1);
        assert_eq!(out.counters.completed, 2);
        // Shadow copies are excluded from the reported population.
        assert_eq!(out.jobs.len(), 2);
        let low = &out.jobs[0];
        assert!(low.is_completed());
        // Duplicate launched at t=40 in pool 1, runs 100 -> done at 140.
        assert_eq!(low.completed_at().unwrap().as_minutes(), 140);
        // The original's 40 minutes of discarded work plus the winning
        // copy's redundant... no: the ORIGINAL never finished its attempt,
        // so waste = the duplicate's run time charged externally? The
        // winner ran usefully; the loser (original) ran 40 minutes that
        // produced nothing. Accounting: external waste = shadow run time
        // only when the shadow LOSES; here the original's 40 lost minutes
        // stay in its own run_total. CT is what the metric cares about.
        assert!(low.run_time().as_minutes() >= 40);
    }

    #[test]
    fn duplication_original_wins_cancels_clone() {
        // The high job is short, so the original resumes quickly and
        // finishes before the duplicate (which starts from scratch).
        let site = tiny_site(2, 1, 1);
        let jobs = vec![
            spec(0, 0, 100),
            spec(1, 90, 5)
                .with_priority(Priority::HIGH)
                .with_affinity(PoolAffinity::from_ids(&[0])),
        ];
        let cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::DupSusUtil);
        let out = run(&site, jobs, cfg);
        assert_eq!(out.counters.duplicates_launched, 1);
        assert_eq!(out.counters.duplicates_won, 0, "original resumes and wins");
        // Original: runs 0..90, suspended 90..95, resumes, done at 105.
        let low = &out.jobs[0];
        assert_eq!(low.completed_at().unwrap().as_minutes(), 105);
        // The cancelled clone's partial execution is charged as waste.
        assert!(low.resched_waste().as_minutes() > 0);
        assert_eq!(out.counters.completed, 2);
    }

    #[test]
    fn contiguous_topology_splits_evenly_and_rejects_empty_vpms() {
        use crate::simulator::VpmTopology;
        let sizes = |pools, vpms| -> Vec<usize> {
            let topo = VpmTopology::contiguous(pools, vpms).unwrap();
            let flat: Vec<PoolId> = topo.vpms.concat();
            assert_eq!(flat, (0..pools).map(PoolId).collect::<Vec<_>>());
            topo.vpms.iter().map(Vec::len).collect()
        };
        assert_eq!(sizes(9, 4), [3, 2, 2, 2]);
        assert_eq!(sizes(5, 2), [3, 2]);
        assert_eq!(sizes(20, 4), [5; 4]);
        assert_eq!(sizes(3, 3), [1; 3]);
        for vpms in [0, 5] {
            assert_eq!(
                VpmTopology::contiguous(4, vpms),
                Err(ConfigError::TopologyVpms { vpms, pools: 4 })
            );
        }
    }

    #[test]
    fn topology_confines_routing_and_rescheduling() {
        use crate::simulator::VpmTopology;
        // 4 pools, 2 VPMs: {0,1} and {2,3}. Job 0 belongs to VPM 0.
        let site = tiny_site(4, 1, 1);
        let topo = VpmTopology::contiguous(4, 2).unwrap();
        assert_eq!(topo.vpms.len(), 2);
        assert_eq!(topo.vpms[0], vec![PoolId(0), PoolId(1)]);
        // Job 0 (VPM 0) and a blocking high job pinned to pool 0: without
        // inter-site rescheduling the suspended job may only escape to
        // pool 1.
        let jobs = [
            spec(0, 0, 100).with_affinity(PoolAffinity::from_ids(&[0])),
            spec(1, 10, 500)
                .with_priority(Priority::HIGH)
                .with_affinity(PoolAffinity::from_ids(&[0])),
        ];
        // Job 1's affinity {0, 2} spans both VPMs; id 1 assigns it to the
        // second eligible VPM (VPM 1), whose only serving pool is 2 — so
        // it runs there and job 0 is never preempted.
        let jobs = vec![
            jobs[0].clone(),
            JobSpec::new(
                netbatch_cluster::ids::JobId(1),
                SimTime::from_minutes(10),
                SimDuration::from_minutes(500),
            )
            .with_priority(Priority::HIGH)
            .with_affinity(PoolAffinity::from_ids(&[0, 2])),
        ];
        let mut cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
        cfg.topology = Some(topo);
        let out = Simulator::new(&site, jobs, cfg).run_to_completion();
        assert_eq!(out.counters.completed, 2);
        assert_eq!(out.counters.unrunnable, 0);
        assert_eq!(out.counters.suspensions, 0);
    }

    #[test]
    fn inter_site_rescheduling_pays_the_surcharge() {
        use crate::simulator::VpmTopology;
        // 2 pools, 2 VPMs of one pool each. Low job 0 (VPM 0, pool 0)
        // gets preempted; without inter-site rescheduling it cannot move
        // (pool 0 is its entire home); with it, it restarts at pool 1 and
        // pays the WAN surcharge.
        let site = tiny_site(2, 1, 1);
        // Ids map to VPMs round-robin: job 0 -> VPM 0, job 1 -> VPM 1,
        // job 2 -> VPM 0. The preempting high job must live in VPM 0, so
        // it gets id 2; id 1 is a small filler job for VPM 1 that is done
        // long before the preemption.
        let jobs = vec![
            spec(0, 0, 100),
            spec(1, 0, 5).with_affinity(PoolAffinity::from_ids(&[1])),
            spec(2, 40, 500)
                .with_priority(Priority::HIGH)
                .with_affinity(PoolAffinity::from_ids(&[0])),
        ];
        let confined = {
            let mut cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
            cfg.topology = Some(VpmTopology::contiguous(2, 2).unwrap());
            run(&site, jobs.clone(), cfg)
        };
        assert_eq!(confined.counters.restarts_from_suspend, 0);
        assert!(confined.jobs[0].suspend_time().as_minutes() > 0);
        let wan = {
            let mut cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
            cfg.topology = Some(
                VpmTopology::contiguous(2, 2)
                    .unwrap()
                    .with_inter_site(SimDuration::from_minutes(45)),
            );
            run(&site, jobs, cfg)
        };
        assert_eq!(wan.counters.restarts_from_suspend, 1);
        // Waste = 40 minutes discarded + 45 minutes WAN surcharge.
        assert_eq!(wan.jobs[0].resched_waste().as_minutes(), 40 + 45);
        assert_eq!(wan.counters.completed, 3);
    }

    #[test]
    fn invariant_checker_rides_every_strategy() {
        let site = tiny_site(3, 2, 2);
        let jobs: Vec<JobSpec> = (0..80)
            .map(|i| {
                let mut s = spec(i, i * 2, 20 + (i * 13) % 150);
                if i % 4 == 0 {
                    s = s
                        .with_priority(Priority::HIGH)
                        .with_affinity(PoolAffinity::from_ids(&[0]));
                }
                s
            })
            .collect();
        for strategy in [
            StrategyKind::NoRes,
            StrategyKind::ResSusUtil,
            StrategyKind::ResSusRand,
            StrategyKind::ResSusWaitUtil,
            StrategyKind::ResSusWaitRand,
            StrategyKind::ResSusQueue,
            StrategyKind::ResSusWaitSmart,
            StrategyKind::MigrateSusUtil,
            StrategyKind::DupSusUtil,
        ] {
            let mut cfg = SimConfig::new(InitialKind::RoundRobin, strategy);
            cfg.check_invariants = true;
            cfg.sample_interval = Some(SimDuration::from_minutes(10));
            let out = Simulator::new(&site, jobs.clone(), cfg).run_to_completion();
            let checker = out
                .observer::<crate::observer::InvariantChecker>()
                .expect("configured checker rides out");
            assert!(checker.events_seen() > 0, "{strategy:?} emitted nothing");
        }
    }

    #[test]
    fn invariant_checker_survives_machine_failures() {
        let site = tiny_site(2, 2, 1);
        let jobs: Vec<JobSpec> = (0..30)
            .map(|i| spec(i, i * 3, 40 + (i * 11) % 90))
            .collect();
        let cfg = SimConfig {
            check_invariants: true,
            failures: vec![
                MachineOutage {
                    pool: PoolId(0),
                    machine: MachineId(0),
                    from: SimTime::from_minutes(50),
                    until: Some(SimTime::from_minutes(90)),
                },
                MachineOutage {
                    pool: PoolId(1),
                    machine: MachineId(1),
                    from: SimTime::from_minutes(80),
                    until: None,
                },
            ],
            ..SimConfig::new(InitialKind::UtilizationBased, StrategyKind::ResSusUtil)
        };
        let out = Simulator::new(&site, jobs, cfg).run_to_completion();
        assert!(out.counters.failure_evictions > 0, "failures must evict");
        assert!(out
            .observer::<crate::observer::InvariantChecker>()
            .is_some());
    }

    #[test]
    fn trace_counts_reconcile_with_counters() {
        use crate::observer::TraceRecorder;
        let site = tiny_site(3, 2, 2);
        let jobs: Vec<JobSpec> = (0..60)
            .map(|i| {
                let mut s = spec(i, i, 25 + (i * 17) % 120);
                if i % 3 == 0 {
                    s = s.with_priority(Priority::HIGH);
                }
                s
            })
            .collect();
        let mut cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
        cfg.check_invariants = true;
        let mut sim = Simulator::new(&site, jobs, cfg);
        sim.attach_observer(Box::new(TraceRecorder::in_memory()));
        let out = sim.run_to_completion();
        let trace = out.observer::<TraceRecorder>().unwrap();
        let count = |k: &str| trace.kind_counts().get(k).copied().unwrap_or(0);
        // A shadow's Complete doesn't increment the counter, but the
        // original's proxy-finish does — the two cancel, so completions
        // reconcile against `complete` events alone under every strategy.
        assert_eq!(count("complete"), out.counters.completed);
        assert_eq!(count("suspend"), out.counters.suspensions);
        assert_eq!(
            count("restart_from_suspend"),
            out.counters.restarts_from_suspend
        );
        assert_eq!(count("restart_from_wait"), out.counters.restarts_from_wait);
        assert_eq!(count("submit"), 60);
    }

    #[test]
    fn submissions_arrive_in_time_then_job_index_order() {
        use crate::observer::TraceRecorder;
        // Submit times out of index order, with ties at minutes 5 and 30;
        // job 3 (submitted at 0) completes at minute 5, tying the
        // submissions there.
        let times = [30, 5, 30, 0, 5, 30, 12, 5];
        let jobs: Vec<JobSpec> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| spec(i as u64, t, 5))
            .collect();
        for use_reference_queue in [false, true] {
            let mut cfg = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
            cfg.check_invariants = true;
            cfg.use_reference_queue = use_reference_queue;
            let mut sim = Simulator::new(&tiny_site(2, 2, 2), jobs.clone(), cfg);
            sim.attach_observer(Box::new(TraceRecorder::in_memory()));
            let out = sim.run_to_completion();
            let lines = out.observer::<TraceRecorder>().unwrap().lines();
            let field = |line: &str, key: &str| -> u64 {
                let rest = &line[line.find(key).expect("field present") + key.len()..];
                rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
            };
            let submits: Vec<(u64, u64)> = lines
                .lines()
                .filter(|l| l.contains(r#""ev":"submit""#))
                .map(|l| (field(l, r#""t":"#), field(l, r#""job":"#)))
                .collect();
            assert_eq!(
                submits,
                vec![
                    (0, 3),
                    (5, 1),
                    (5, 4),
                    (5, 7),
                    (12, 6),
                    (30, 0),
                    (30, 2),
                    (30, 5)
                ]
            );
            // At minute 5 every submission goes before job 3's completion.
            let at_five: Vec<&str> = lines
                .lines()
                .filter(|l| l.starts_with(r#"{"t":5,"#))
                .filter(|l| l.contains(r#""ev":"submit""#) || l.contains(r#""ev":"complete""#))
                .collect();
            assert_eq!(at_five.len(), 4, "{at_five:?}");
            assert!(
                at_five[3].contains(r#""ev":"complete","job":3"#),
                "{at_five:?}"
            );
            assert_eq!(out.counters.completed, times.len() as u64);
        }
    }

    #[test]
    fn unrunnable_jobs_are_counted_not_hung() {
        let site = tiny_site(1, 1, 1);
        let jobs = vec![spec(0, 0, 10).with_cores(64)];
        let out = Simulator::new(&site, jobs, SimConfig::default()).run_to_completion();
        assert_eq!(out.counters.unrunnable, 1);
        assert_eq!(out.counters.completed, 0);
    }
}
