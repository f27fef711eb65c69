//! Online observers for the simulator event loop.
//!
//! The paper's ASCA simulator exposes "per-minute states of all components
//! and jobs"; this module is the equivalent observable surface for our
//! simulator. A [`SimObserver`] receives a callback for every lifecycle
//! transition the simulator performs — submission, VPM pool choice,
//! dispatch, preemption, resumption, rescheduling (with the chosen pool
//! and the discarded progress), wait timeouts, completion, machine
//! failures and the per-minute sample tick — plus a kernel marker at the
//! start of each discrete event.
//!
//! The layer is zero-cost when unused: the simulator's emit path returns
//! immediately when no observer is attached, so table experiments pay
//! nothing for it.
//!
//! Where an observer runs is its own declaration: one whose
//! [`SimObserver::reads_state`] is false reads nothing but the events,
//! and the serial kernel ships its events in batches of [`RELAY_BATCH`]
//! to one helper thread that runs alongside the kernel thread. The
//! observers that compare live state keep running on the kernel thread,
//! except the invariant checker: the kernel thread only reads state for
//! it, and the readings ride to the helper thread with the events.
//!
//! Two observers are defined here (telemetry and span recording live in
//! their own modules):
//!
//! * [`InvariantChecker`] — validates conservation (busy cores vs pool
//!   accounting, per-machine resident memory), lifecycle tiling (wait +
//!   suspend + run segments tile each completed job's lifetime), queue
//!   order (priority then FIFO) and resume order (suspended jobs resume
//!   before queued jobs start, per machine) *online*, panicking with a
//!   replayable event context on the first violation. Its probe reads
//!   the touched pools and machines at every kernel boundary on the
//!   kernel thread; its shadow accounting and comparisons run on the
//!   helper thread;
//! * [`TraceRecorder`] — streams a deterministic JSONL event log
//!   (hand-written JSON; the workspace carries no serde) for golden-trace
//!   conformance tests and cross-run differential debugging. With a
//!   memory or file sink it runs on the helper thread, with a stdout
//!   sink on the kernel thread.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::mpsc;

use netbatch_cluster::ids::{JobId, MachineId, PoolId};
use netbatch_cluster::job::{JobPhase, JobRecord};
use netbatch_cluster::pool::PhysicalPool;
use netbatch_cluster::snapshot::PoolSnapshot;
use netbatch_sim_engine::time::{SimDuration, SimTime};

/// Why a job left its pool through the rescheduling path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReschedKind {
    /// Restarted from scratch out of the suspended state (the paper's
    /// core mechanism).
    RestartFromSuspend,
    /// Restarted out of a wait queue (the paper's §3.3 extension).
    RestartFromWait,
    /// Migrated with its progress (checkpoint/VM migration extension).
    Migrate,
    /// Evicted by a machine failure.
    FailureEvict,
    /// Proactively moved off a draining machine before its kill deadline
    /// (the lifecycle model's evacuation path).
    Evacuation,
}

impl ReschedKind {
    /// Stable label, used as the event kind in traces and counters.
    pub fn label(self) -> &'static str {
        match self {
            ReschedKind::RestartFromSuspend => "restart_from_suspend",
            ReschedKind::RestartFromWait => "restart_from_wait",
            ReschedKind::Migrate => "migrate",
            ReschedKind::FailureEvict => "failure_evict",
            ReschedKind::Evacuation => "evacuation",
        }
    }
}

/// The lifecycle phase a job occupied when an event captured it (a
/// payload-free mirror of [`netbatch_cluster::job::JobPhase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseTag {
    /// At the virtual pool manager (or in migration transit).
    AtVpm,
    /// Waiting in a pool queue.
    Waiting,
    /// Running on a machine.
    Running,
    /// Suspended on a machine.
    Suspended,
}

impl PhaseTag {
    /// Stable label for traces.
    pub fn label(self) -> &'static str {
        match self {
            PhaseTag::AtVpm => "at-vpm",
            PhaseTag::Waiting => "waiting",
            PhaseTag::Running => "running",
            PhaseTag::Suspended => "suspended",
        }
    }
}

/// What put a job in front of the rescheduling policy (the consultation a
/// [`ObsEvent::PolicyAudit`] records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditTrigger {
    /// The job was preempted and sits suspended on its machine.
    Suspend,
    /// The job's wait-queue threshold elapsed.
    WaitTimeout,
}

impl AuditTrigger {
    /// Stable label for traces and span causes.
    pub fn label(self) -> &'static str {
        match self {
            AuditTrigger::Suspend => "suspend",
            AuditTrigger::WaitTimeout => "wait_timeout",
        }
    }
}

/// The decision a consulted rescheduling policy returned (a payload-free
/// mirror of [`Decision`](crate::policy::Decision)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditVerdict {
    /// Leave the job where it is.
    Stay,
    /// Restart from scratch in the target pool.
    Restart,
    /// Migrate with progress to the target pool.
    Migrate,
    /// Launch a duplicate copy in the target pool.
    Duplicate,
}

impl AuditVerdict {
    /// Stable label for traces and span causes.
    pub fn label(self) -> &'static str {
        match self {
            AuditVerdict::Stay => "stay",
            AuditVerdict::Restart => "restart",
            AuditVerdict::Migrate => "migrate",
            AuditVerdict::Duplicate => "duplicate",
        }
    }
}

/// One observable simulator transition.
///
/// `Kernel` and `BatchStart` are structural markers (the former opens each
/// discrete event, the latter each pool action batch); everything else is
/// a job or machine lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A kernel event begins; all state mutated by the previous event has
    /// settled. `kind` is the kernel event's label.
    Kernel {
        /// The kernel event kind (e.g. `"submit"`, `"complete"`).
        kind: &'static str,
    },
    /// A batch of pool actions (one `submit`/`release`/`capacity_cycle`
    /// outcome) begins to replay onto the job records.
    BatchStart {
        /// The pool the batch belongs to.
        pool: PoolId,
    },
    /// A job's submission reached the virtual pool manager.
    Submit {
        /// The submitted job.
        job: JobId,
    },
    /// The VPM selected a pool for a job (it will dispatch or queue there).
    PoolChosen {
        /// The routed job.
        job: JobId,
        /// The chosen pool.
        pool: PoolId,
    },
    /// No pool can ever run the job; the VPM gave up on it.
    Unrunnable {
        /// The unroutable job.
        job: JobId,
    },
    /// A machine started executing a job.
    Dispatch {
        /// The started job.
        job: JobId,
        /// The hosting pool.
        pool: PoolId,
        /// The hosting machine.
        machine: MachineId,
        /// Wall-clock length of this attempt (runtime scaled by machine
        /// speed).
        wall: SimDuration,
        /// True when the job came from the pool's wait queue rather than
        /// straight from the VPM.
        from_queue: bool,
    },
    /// A pool queued a job it could not start immediately.
    Enqueue {
        /// The queued job.
        job: JobId,
        /// The queueing pool.
        pool: PoolId,
    },
    /// A higher-priority job preempted (suspended) a running job.
    Suspend {
        /// The suspended job.
        job: JobId,
        /// The hosting pool.
        pool: PoolId,
        /// The machine the job is suspended on.
        machine: MachineId,
    },
    /// A suspended job resumed on its machine.
    Resume {
        /// The resumed job.
        job: JobId,
        /// The hosting pool.
        pool: PoolId,
        /// The machine it resumed on.
        machine: MachineId,
    },
    /// A rescheduling decision moved a job out of its pool.
    Reschedule {
        /// The rescheduled job.
        job: JobId,
        /// The mechanism that moved it.
        kind: ReschedKind,
        /// The pool it left.
        from_pool: PoolId,
        /// The machine it occupied, when it was resident on one.
        machine: Option<MachineId>,
        /// The phase it was captured in.
        from_phase: PhaseTag,
        /// The chosen target pool; `None` for failure evictions, which
        /// re-route through the VPM.
        to: Option<PoolId>,
        /// Execution progress discarded by the move (zero for migrations,
        /// which keep progress).
        discarded: SimDuration,
    },
    /// A waiting job's rescheduling threshold elapsed and the policy was
    /// consulted.
    WaitTimeout {
        /// The waiting job.
        job: JobId,
        /// The pool whose queue holds it.
        pool: PoolId,
    },
    /// A duplicate copy of a suspended job was launched.
    DuplicateLaunched {
        /// The suspended original.
        original: JobId,
        /// The freshly created shadow copy.
        clone: JobId,
        /// The pool the copy was sent to.
        target: PoolId,
    },
    /// A job was finished by its duplicate completing elsewhere; the loser
    /// of the race was cancelled in place.
    ProxyFinish {
        /// The cancelled copy.
        job: JobId,
        /// The phase it was cancelled in.
        from_phase: PhaseTag,
        /// The pool it occupied, if resident or queued.
        pool: Option<PoolId>,
        /// The machine it occupied, if resident.
        machine: Option<MachineId>,
    },
    /// A running job finished.
    Complete {
        /// The finished job.
        job: JobId,
        /// The hosting pool.
        pool: PoolId,
        /// The hosting machine.
        machine: MachineId,
    },
    /// An injected machine failure fired; per-job evictions follow as
    /// [`ObsEvent::Reschedule`] events with [`ReschedKind::FailureEvict`].
    MachineDown {
        /// The pool containing the machine.
        pool: PoolId,
        /// The failed machine.
        machine: MachineId,
    },
    /// A failed machine came back online.
    MachineUp {
        /// The pool containing the machine.
        pool: PoolId,
        /// The restored machine.
        machine: MachineId,
    },
    /// A lifecycle window opened: the machine stopped accepting new work
    /// (residents stay and may still resume; proactive evacuations follow
    /// as [`ObsEvent::Reschedule`] events with [`ReschedKind::Evacuation`]).
    MachineDraining {
        /// The pool containing the machine.
        pool: PoolId,
        /// The draining machine.
        machine: MachineId,
        /// The kill deadline evacuation races against; `None` for cordons
        /// (the machine is never killed).
        deadline: Option<SimTime>,
    },
    /// A lifecycle window closed: the machine re-opened for placement.
    MachineUndrained {
        /// The pool containing the machine.
        pool: PoolId,
        /// The re-opened machine.
        machine: MachineId,
    },
    /// A hardened run booked a backoff retry for a failure-evicted job.
    RetryScheduled {
        /// The evicted job.
        job: JobId,
        /// Which failure-driven re-dispatch this is (1-based; monotonic
        /// per job).
        attempt: u32,
        /// When the backoff expires and the re-dispatch fires.
        resume_at: SimTime,
    },
    /// A pool entered (or extended) its blacklist cooldown after a
    /// machine failure; rescheduling avoids it until `until`.
    PoolBlacklisted {
        /// The unhealthy pool.
        pool: PoolId,
        /// When the cooldown expires.
        until: SimTime,
    },
    /// A rescheduling policy was consulted, with the ranking inputs it
    /// saw. Emitted immediately before the transition (if any) the
    /// verdict produces, so provenance consumers can attach the decision
    /// to the move it caused. Not rendered into JSONL traces (golden
    /// fixtures predate it); span recorders and counters observe it.
    PolicyAudit {
        /// The job the policy decided about.
        job: JobId,
        /// The pool the job occupied at decision time.
        pool: PoolId,
        /// What put the job in front of the policy.
        trigger: AuditTrigger,
        /// The decision returned.
        verdict: AuditVerdict,
        /// The chosen target pool, when the verdict names one.
        target: Option<PoolId>,
        /// How many candidate pools the policy ranked.
        candidates: u16,
        /// Effective utilization of the current pool, in thousandths
        /// (the `ResSus*Util` ranking input).
        cur_util_milli: u32,
        /// Effective utilization of the chosen target, in thousandths
        /// (equal to `cur_util_milli` for `Stay`).
        tgt_util_milli: u32,
        /// Wait-queue length of the current pool (the `ResSusQueue` /
        /// `ResSusWaitSmart` ranking input).
        cur_queue: u32,
        /// Wait-queue length of the chosen target.
        tgt_queue: u32,
    },
    /// A proactive evacuation was decided for one resident of a draining
    /// machine: the job cannot finish before the kill deadline (or is
    /// suspended with no guarantee of resuming). Emitted immediately
    /// before the corresponding [`ObsEvent::Reschedule`] with
    /// [`ReschedKind::Evacuation`]. Not rendered into JSONL traces.
    EvacAudit {
        /// The evacuated job.
        job: JobId,
        /// The pool containing the draining machine.
        pool: PoolId,
        /// The draining machine.
        machine: MachineId,
        /// The lifecycle window id that opened the drain (index into the
        /// run's normalized [`LifecyclePlan`](crate::faults::LifecyclePlan)).
        window: u32,
        /// Wall time the job still needed at decision time (zero for
        /// suspended residents, which are evacuated unconditionally).
        remaining: SimDuration,
        /// The kill deadline the evacuation raced against.
        deadline: SimTime,
    },
    /// A machine failure was attributed to its injected outage; emitted
    /// immediately after [`ObsEvent::MachineDown`], before the per-job
    /// evictions, so provenance consumers can tie every eviction (and a
    /// hardened run's blacklist booking) to the outage that caused it.
    /// Not rendered into JSONL traces.
    FaultAudit {
        /// The pool containing the failed machine.
        pool: PoolId,
        /// The failed machine.
        machine: MachineId,
        /// The outage id (index into the run's merged, normalized
        /// [`FaultPlan`](crate::faults::FaultPlan)).
        outage: u32,
        /// When the pool's blacklist cooldown expires, when this failure
        /// booked (or extended) one.
        blacklisted_until: Option<SimTime>,
    },
    /// One pool's load at a sample tick: emitted once per pool, in pool
    /// order, immediately before each [`ObsEvent::Sample`], so observers
    /// that read only the event stream can sample pool state. The fields
    /// are the [`PoolSnapshot`] readings telemetry keeps. Not rendered into JSONL traces and not
    /// counted as an event kind: it annotates the sample tick.
    PoolSample {
        /// The sampled pool.
        pool: PoolId,
        /// Cores running jobs.
        busy_cores: u32,
        /// Cores on machines that are up.
        total_cores: u32,
        /// Jobs in the wait queue.
        waiting: u32,
        /// Suspended jobs resident on machines.
        suspended: u32,
        /// Machines in the pool, healthy or not.
        machines: u32,
        /// Machines currently down.
        down_machines: u32,
        /// Machines currently draining or cordoned.
        draining_machines: u32,
        /// The pool's health in `[0, 1]` as `f64` bits (bits keep the
        /// event `Eq`; read it back with `f64::from_bits`).
        health_bits: u64,
    },
    /// The per-minute state sample tick (ASCA's sampling cadence).
    Sample,
}

impl ObsEvent {
    /// Stable per-kind label; [`ObsEvent::Reschedule`] is labelled by its
    /// [`ReschedKind`] so counters reconcile with [`RunCounters`]
    /// per-mechanism fields.
    ///
    /// [`RunCounters`]: crate::simulator::RunCounters
    pub fn label(&self) -> &'static str {
        match self {
            ObsEvent::Kernel { .. } => "kernel",
            ObsEvent::BatchStart { .. } => "batch",
            ObsEvent::Submit { .. } => "submit",
            ObsEvent::PoolChosen { .. } => "pool_chosen",
            ObsEvent::Unrunnable { .. } => "unrunnable",
            ObsEvent::Dispatch { .. } => "dispatch",
            ObsEvent::Enqueue { .. } => "enqueue",
            ObsEvent::Suspend { .. } => "suspend",
            ObsEvent::Resume { .. } => "resume",
            ObsEvent::Reschedule { kind, .. } => kind.label(),
            ObsEvent::WaitTimeout { .. } => "wait_timeout",
            ObsEvent::DuplicateLaunched { .. } => "duplicate",
            ObsEvent::ProxyFinish { .. } => "proxy_finish",
            ObsEvent::Complete { .. } => "complete",
            ObsEvent::MachineDown { .. } => "machine_down",
            ObsEvent::MachineUp { .. } => "machine_up",
            ObsEvent::MachineDraining { .. } => "machine_draining",
            ObsEvent::MachineUndrained { .. } => "machine_undrained",
            ObsEvent::RetryScheduled { .. } => "retry_backoff",
            ObsEvent::PoolBlacklisted { .. } => "blacklist",
            ObsEvent::PolicyAudit { .. } => "policy_audit",
            ObsEvent::EvacAudit { .. } => "evac_audit",
            ObsEvent::FaultAudit { .. } => "fault_audit",
            ObsEvent::PoolSample { .. } => "pool_sample",
            ObsEvent::Sample => "sample",
        }
    }

    /// The per-pool sample of `pool`'s current state (see
    /// [`ObsEvent::PoolSample`]).
    pub fn pool_sample(pool: &PhysicalPool) -> Self {
        let s = PoolSnapshot::capture(pool);
        let count = |n: usize| u32::try_from(n).expect("pool counts fit in u32");
        ObsEvent::PoolSample {
            pool: s.id,
            busy_cores: s.busy_cores,
            total_cores: s.total_cores,
            waiting: count(s.waiting),
            suspended: count(s.suspended),
            machines: count(s.machines),
            down_machines: count(s.down_machines),
            draining_machines: count(s.draining_machines),
            health_bits: s.health().to_bits(),
        }
    }
}

/// Read-only view of the simulator's state, handed to observers alongside
/// each event. Observers fed on the serial kernel's helper thread (see
/// [`SimObserver::reads_state`]) get an empty one with their events.
pub struct ObsCtx<'a> {
    /// The physical pools, in id order.
    pub pools: &'a [PhysicalPool],
    /// All job records (including shadow duplicates), indexed by job id.
    pub jobs: &'a [JobRecord],
    /// Ids of shadow (duplicate) copies, which are excluded from reported
    /// metrics.
    pub shadows: &'a std::collections::HashSet<JobId>,
}

/// An online observer of simulator transitions.
///
/// Implementations must keep their `Debug` output deterministic across
/// same-seed runs (no wall-clock times, no pointer values): observers ride
/// inside [`SimOutput`](crate::simulator::SimOutput), whose debug
/// rendering the determinism suite compares byte-for-byte.
///
/// Observers are `Send`: one whose [`SimObserver::reads_state`] is false
/// receives its events on a helper thread (DESIGN.md §8). They are also
/// `Any` (every boxed observer is `'static`), which lets the serial
/// kernel recognize an [`InvariantChecker`] among them.
pub trait SimObserver: std::fmt::Debug + Send + Any {
    /// Called once on the calling thread before the first event, with the
    /// initial state (every observer, wherever its events go): the place
    /// to size per-job or per-pool tables.
    fn on_run_start(&mut self, _now: SimTime, _ctx: &ObsCtx<'_>) {}

    /// Called for every observable transition, in deterministic order.
    fn on_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>);

    /// Called once after the event loop drains, with the final state, on
    /// the calling thread, in attach order.
    fn on_run_end(&mut self, _now: SimTime, _ctx: &ObsCtx<'_>) {}

    /// Whether [`SimObserver::on_event`] reads `ctx` (or needs to run on
    /// the calling thread for another reason). The serial kernel delivers
    /// the events of an observer that answers `false` in batches on one
    /// helper thread while the kernel runs on, with an empty `ctx`; its
    /// `on_run_start` and `on_run_end` still run on the calling thread
    /// with the real state. The default is `true`, so a wrapper that does
    /// not forward this method keeps its inner observer inline. The
    /// [`InvariantChecker`] answers `false` too, and gets the kernel
    /// thread's readings of the state in place of `ctx`.
    fn reads_state(&self) -> bool {
        true
    }

    /// Called instead of [`SimObserver::on_event`] when the streaming
    /// backend replays the events its workers buffered during one active
    /// minute (an observed run stops at every one). Semantically
    /// identical to `on_event` — same events, same deterministic order —
    /// but delivered *after* the minute's mutations
    /// have all been applied, so `ctx` reflects the post-barrier state
    /// rather than the state at the instant each event fired (and
    /// `ctx.jobs` stays empty until drain). Observers that only read the
    /// event itself keep the default.
    fn on_replayed_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        self.on_event(now, event, ctx);
    }

    /// Called by the streaming backend once per active minute, after every
    /// buffered event has been replayed and all barrier state is settled.
    fn on_settle(&mut self, _now: SimTime, _ctx: &ObsCtx<'_>) {}

    /// Upcast for downcasting out of
    /// [`SimOutput::observer`](crate::simulator::SimOutput::observer).
    fn as_any(&self) -> &dyn Any;
}

// ---------------------------------------------------------------------
// InvariantChecker
// ---------------------------------------------------------------------

/// The checker's independent model of where a job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SPhase {
    Unsubmitted,
    AtVpm,
    Waiting(PoolId),
    Running(PoolId, MachineId),
    Suspended(PoolId, MachineId),
    /// Migrating between pools (the record shows `AtVpm` during transit).
    InTransit,
    /// Parked at the VPM waiting out a failure-retry backoff that expires
    /// at the carried instant (the record shows `AtVpm`).
    Backoff(Expiry),
    Done,
}

/// A backoff's expiry in whole minutes: four bytes keep an [`SPhase`],
/// which the checker holds for every job, at eight. It prints as the
/// `SimTime` it stands for.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Expiry(u32);

impl Expiry {
    fn new(at: SimTime) -> Self {
        Expiry(u32::try_from(at.as_minutes()).expect("backoff expiries fit in u32 minutes"))
    }

    fn time(self) -> SimTime {
        SimTime::from_minutes(u64::from(self.0))
    }
}

impl std::fmt::Debug for Expiry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.time().fmt(f)
    }
}

/// The checker's shadow of one machine, driven by the events.
#[derive(Debug, Clone, Copy)]
struct MachineShadow {
    /// Resident memory, in MB.
    mem: u64,
    /// Kill deadline (minutes) while draining; `u64::MAX` = cordon or not
    /// draining. Evacuations must land at or before this instant.
    drain_deadline: u64,
    /// Down, by MachineDown/MachineUp.
    down: bool,
    /// Draining or cordoned, by MachineDraining/MachineUndrained.
    draining: bool,
}

impl Default for MachineShadow {
    fn default() -> Self {
        MachineShadow {
            mem: 0,
            drain_deadline: u64::MAX,
            down: false,
            draining: false,
        }
    }
}

/// How many events the replayable panic context retains.
const HISTORY: usize = 64;

/// Minimum number of observed events between deep sweeps (full pool
/// scans, queue order, phase cross-checks). A sweep costs O(jobs +
/// machines), so the effective interval is `max(DEEP_SWEEP_EVERY, jobs +
/// machines)`: total sweep work stays O(events) and the checker's
/// overhead a bounded fraction of the run, while small property-test
/// sites keep sweeping every 1024 events. O(touched) shadow-accounting
/// checks run at every kernel boundary regardless.
const DEEP_SWEEP_EVERY: u64 = 1024;

/// Validates simulator invariants online, at every event.
///
/// The checker maintains its own shadow accounting — per-pool busy cores,
/// per-machine resident memory, and a phase machine per job — updated only
/// from the event stream, and compares it against the pools' internal
/// accounting at every kernel boundary (pool state is fully settled
/// there). A mismatch means the simulator's incremental accounting and its
/// event stream disagree; the checker panics with the last `HISTORY`
/// events so the failure is replayable.
///
/// Checked invariants:
///
/// * **conservation** — shadow busy cores == pool busy cores ≤ total
///   cores; shadow resident memory == machine resident memory ≤ machine
///   capacity (suspension keeps memory, releases cores);
/// * **lifecycle** — every transition arrives in a legal phase, and at
///   completion `wait + suspend + run` tiles the job's submission-to-
///   completion span exactly;
/// * **queue order** — pool queues iterate priority-descending, FIFO
///   within a priority class (deep sweep);
/// * **resume order** — within one pool action batch, no machine resumes
///   a suspended job after starting a queued one (suspended-before-
///   waiting, per machine);
/// * **monotonic time** — observed event times never regress;
/// * **fault discipline** — down machines host nothing (no dispatch or
///   resume onto them, zero resident memory once their evictions settle,
///   no down/up event without the opposite transition first), backoff
///   retries keep strictly increasing attempt numbers with non-decreasing
///   delays and never re-dispatch before their booked instant, and no
///   rescheduling move targets a pool inside its blacklist cooldown.
///
/// The checker has two parts. A probe reads state and nothing else: at
/// each kernel marker the busy and total cores of the pools touched
/// since the previous marker and the resident memory of the touched
/// machines; the footprint of each job an event moves; each finished
/// record's lifecycle tiling (a check that reads only the record); and,
/// at the deep-sweep cadence, the pools' internal checks and queue order
/// with a copy of every record's phase and every pool's busy cores. The
/// shadow holds everything else — the phase machine, the busy, memory,
/// down, draining, backoff and blacklist shadows, the history — and
/// makes every comparison against those readings, in event order.
///
/// Attached plainly to a serial run, the checker answers
/// [`SimObserver::reads_state`] `false`: the kernel thread runs the probe
/// and ships its readings with the events, and the shadow runs on the
/// helper thread (DESIGN.md §8). Behind a wrapper that keeps
/// `reads_state() == true`, or fed by hand, the checker probes the live
/// [`ObsCtx`] it is given; both ways feed the same comparisons.
pub struct InvariantChecker {
    shadow: Shadow,
    /// The state reads when the checker is fed the live state; after a
    /// helper-thread run, the relay's probe, for `on_run_end`.
    probe: Probe,
    /// The inline probe's readings for the event in hand.
    readings: Readings,
}

/// The checker's model of the run, built from the events alone, and
/// the comparisons against the probe's readings.
struct Shadow {
    phases: Vec<SPhase>,
    busy: Vec<u64>,
    /// Shadow machines, pool-major: pool `p`'s are
    /// `machines[first_machine[p]..first_machine[p + 1]]`.
    machines: Vec<MachineShadow>,
    first_machine: Vec<usize>,
    /// Blacklisted-until (minutes) per pool; only ever set by observed
    /// `PoolBlacklisted` events, so unhardened runs check trivially.
    blacklist_until: Vec<u64>,
    /// Last observed (attempt, delay-minutes) per retried job.
    retry_state: BTreeMap<JobId, (u32, u64)>,
    queue_started: Vec<(usize, usize)>,
    history: VecDeque<(SimTime, ObsEvent)>,
    last_now: SimTime,
    events_seen: u64,
    initialized: bool,
}

impl Default for InvariantChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for InvariantChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvariantChecker")
            .field("events_seen", &self.shadow.events_seen)
            .finish()
    }
}

impl InvariantChecker {
    /// A fresh checker; sizes itself in `on_run_start` (or at the first
    /// kernel marker, when a wrapper does not forward that hook).
    pub fn new() -> Self {
        InvariantChecker {
            shadow: Shadow {
                phases: Vec::new(),
                busy: Vec::new(),
                machines: Vec::new(),
                first_machine: Vec::new(),
                blacklist_until: Vec::new(),
                retry_state: BTreeMap::new(),
                queue_started: Vec::new(),
                history: VecDeque::with_capacity(HISTORY),
                last_now: SimTime::ZERO,
                events_seen: 0,
                initialized: false,
            },
            probe: Probe::default(),
            readings: Readings::default(),
        }
    }

    /// Events observed so far (including markers).
    pub fn events_seen(&self) -> u64 {
        self.shadow.events_seen
    }

    /// Takes over the probe that read the state for this checker on the
    /// kernel thread, so that `on_run_end` compares what the run's last
    /// events touched.
    pub(crate) fn adopt_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Checks a batch of events against the readings the relay's probe
    /// took while they were emitted (the helper thread's delivery).
    pub(crate) fn replay(&mut self, events: &[(SimTime, ObsEvent)], readings: &Readings) {
        debug_assert!(self.shadow.initialized, "on_run_start sizes the checker");
        let mut cursor = readings.cursor();
        for (now, event) in events {
            self.shadow.check(*now, event, &mut cursor);
        }
        debug_assert!(cursor.list.next().is_none(), "readings left over");
    }
}

impl Shadow {
    fn ensure_init(&mut self, ctx: &ObsCtx<'_>) {
        if self.initialized {
            return;
        }
        self.busy = vec![0; ctx.pools.len()];
        self.first_machine = std::iter::once(0)
            .chain(ctx.pools.iter().scan(0, |n, p| {
                *n += p.machine_count();
                Some(*n)
            }))
            .collect();
        let machines = *self
            .first_machine
            .last()
            .expect("one entry per pool, plus one");
        self.machines = vec![MachineShadow::default(); machines];
        self.blacklist_until = vec![0; ctx.pools.len()];
        self.phases = vec![SPhase::Unsubmitted; ctx.jobs.len()];
        self.initialized = true;
    }

    fn phase(&mut self, job: JobId) -> SPhase {
        let i = job.as_usize();
        if i >= self.phases.len() {
            self.phases.resize(i + 1, SPhase::Unsubmitted);
        }
        self.phases[i]
    }

    fn set_phase(&mut self, job: JobId, phase: SPhase) {
        let i = job.as_usize();
        if i >= self.phases.len() {
            self.phases.resize(i + 1, SPhase::Unsubmitted);
        }
        self.phases[i] = phase;
    }

    #[cold]
    fn violation(&self, now: SimTime, msg: &str) -> ! {
        let mut dump = String::new();
        for (t, ev) in &self.history {
            let _ = writeln!(dump, "  {t} {ev:?}");
        }
        panic!(
            "invariant violated at {now}: {msg}\nlast {} observed events (oldest first):\n{dump}",
            self.history.len()
        );
    }

    fn expect_phase(&mut self, now: SimTime, job: JobId, want: SPhase, at: &str) {
        let got = self.phase(job);
        if got != want {
            self.violation(now, &format!("{at}: {job} is {got:?}, expected {want:?}"));
        }
    }

    /// The shadow of `pool`'s `machine`.
    fn machine(&self, pool: PoolId, machine: MachineId) -> &MachineShadow {
        &self.machines[self.slot(pool, machine)]
    }

    fn machine_mut(&mut self, pool: PoolId, machine: MachineId) -> &mut MachineShadow {
        let slot = self.slot(pool, machine);
        &mut self.machines[slot]
    }

    fn slot(&self, pool: PoolId, machine: MachineId) -> usize {
        let (p, m) = (pool.as_usize(), machine.as_usize());
        let first = self.first_machine[p];
        assert!(
            m < self.first_machine[p + 1] - first,
            "{pool} has no machine {machine}"
        );
        first + m
    }

    fn add_usage(&mut self, pool: PoolId, machine: MachineId, cores: u64, mem: u64) {
        self.busy[pool.as_usize()] += cores;
        self.machine_mut(pool, machine).mem += mem;
    }

    fn sub_usage(&mut self, now: SimTime, pool: PoolId, machine: MachineId, cores: u64, mem: u64) {
        let Some(b) = self.busy[pool.as_usize()].checked_sub(cores) else {
            self.violation(
                now,
                &format!("busy-core underflow in {pool} (releasing {cores})"),
            );
        };
        self.busy[pool.as_usize()] = b;
        let Some(m) = self.machine(pool, machine).mem.checked_sub(mem) else {
            self.violation(
                now,
                &format!("resident-memory underflow on {pool}/{machine} (releasing {mem} MB)"),
            );
        };
        self.machine_mut(pool, machine).mem = m;
    }

    /// The comparisons of one kernel boundary (state is settled there):
    /// the touched pools and machines, O(touched), then the deep sweep
    /// when the probe took one.
    fn check_marker(&self, now: SimTime, cursor: &mut Cursor<'_>) {
        let (touched, sweep) = match *cursor.next("kernel") {
            Reading::Kernel { touched, sweep } => (touched, sweep),
            ref other => out_of_step("kernel", other),
        };
        for _ in 0..touched {
            match *cursor.next("pool or machine") {
                Reading::Pool { pool, busy, total } => self.check_pool(now, pool, busy, total),
                Reading::Machine {
                    pool,
                    machine,
                    used,
                    capacity,
                } => self.check_machine(now, pool, machine, used, capacity),
                Reading::NoMachine { pool, machine } => self.violation(
                    now,
                    &format!("unknown machine m{} in {pool}", machine.as_usize()),
                ),
                ref other => out_of_step("pool or machine", other),
            }
        }
        if sweep {
            self.deep_sweep(now, cursor.sweep());
        }
    }

    fn check_pool(&self, now: SimTime, pool: PoolId, busy: u32, total: u32) {
        let shadow = self.busy[pool.as_usize()];
        let actual = u64::from(busy);
        if shadow != actual {
            self.violation(
                now,
                &format!(
                    "busy-core conservation broken in {pool}: events say {shadow}, pool says {actual}"
                ),
            );
        }
        let total = u64::from(total);
        if shadow > total {
            self.violation(
                now,
                &format!("{pool} runs {shadow} cores but only has {total}"),
            );
        }
    }

    fn check_machine(
        &self,
        now: SimTime,
        pool: PoolId,
        machine: MachineId,
        actual: u64,
        capacity: u64,
    ) {
        let MachineShadow {
            mem: shadow, down, ..
        } = *self.machine(pool, machine);
        let m = machine.as_usize();
        if shadow != actual {
            self.violation(
                now,
                &format!(
                    "memory accounting broken on {pool}/m{m}: events say {shadow} MB, machine says {actual} MB"
                ),
            );
        }
        if shadow > capacity {
            self.violation(
                now,
                &format!("{pool}/m{m} holds {shadow} MB resident but has {capacity} MB"),
            );
        }
        if down && shadow != 0 {
            self.violation(
                now,
                &format!("down machine {pool}/m{m} still hosts {shadow} MB resident"),
            );
        }
    }

    /// A job is leaving the VPM (pool choice, enqueue, fresh dispatch):
    /// legal from `AtVpm`/`InTransit`, or from `Backoff` once the booked
    /// backoff instant has passed.
    fn expect_dispatchable(&mut self, now: SimTime, job: JobId, at: &str) {
        match self.phase(job) {
            SPhase::AtVpm | SPhase::InTransit => {}
            SPhase::Backoff(expiry) => {
                let resume_at = expiry.time();
                if now < resume_at {
                    self.violation(
                        now,
                        &format!("{at}: {job} acted on before its backoff expires at {resume_at}"),
                    );
                }
            }
            got => self.violation(
                now,
                &format!("{at}: {job} is {got:?}, expected AtVpm/InTransit/Backoff"),
            ),
        }
    }

    /// No rescheduling decision may target a pool inside its blacklist
    /// cooldown (the map is only populated by observed `PoolBlacklisted`
    /// events, so unhardened runs pass trivially).
    fn check_not_blacklisted(&self, now: SimTime, target: PoolId, at: &str) {
        let until = self.blacklist_until[target.as_usize()];
        if now.as_minutes() < until {
            self.violation(
                now,
                &format!("{at}: targeted blacklisted {target} (cooldown until t+{until}m)"),
            );
        }
    }

    /// An evacuation reschedule is only legal off a machine that is
    /// currently draining, and must land at or before the drain's kill
    /// deadline — an evacuation after the kill would be racing a machine
    /// that is already down.
    fn check_evacuation_window(&self, now: SimTime, pool: PoolId, machine: MachineId) {
        let MachineShadow {
            draining,
            drain_deadline: deadline,
            ..
        } = *self.machine(pool, machine);
        if !draining {
            self.violation(
                now,
                &format!("evacuation off non-draining machine {pool}/{machine}"),
            );
        }
        if now.as_minutes() > deadline {
            self.violation(
                now,
                &format!(
                    "evacuation off {pool}/{machine} after its drain deadline (t+{deadline}m)"
                ),
            );
        }
    }

    /// Full-state sweep: every pool's busy cores, internal invariants and
    /// queue order, and the shadow phase machine against the job records.
    fn deep_sweep(&self, now: SimTime, sweep: &Sweep) {
        for (p, &(pool, busy)) in sweep.busy.iter().enumerate() {
            if self.busy[p] != u64::from(busy) {
                self.violation(
                    now,
                    &format!(
                        "busy-core conservation broken in {pool} (deep sweep): events say {}, pool says {busy}",
                        self.busy[p]
                    ),
                );
            }
            if let Some((_, msg)) = sweep.fault.as_ref().filter(|(at, _)| *at == p) {
                self.violation(now, msg);
            }
        }
        for (i, &record) in sweep.phases.iter().enumerate() {
            let id = JobId(i as u64);
            let shadow = self.phases.get(i).copied().unwrap_or(SPhase::Unsubmitted);
            if let SPhase::Running(p, m) | SPhase::Suspended(p, m) = shadow {
                if self.machine(p, m).down {
                    self.violation(
                        now,
                        &format!("{id} is {shadow:?} on down machine {p}/{m} (deep sweep)"),
                    );
                }
            }
            use netbatch_cluster::job::JobPhase as JP;
            let ok = match (shadow, record) {
                (SPhase::Unsubmitted, JP::Created) => true,
                (SPhase::AtVpm | SPhase::InTransit | SPhase::Backoff(_), JP::AtVpm) => true,
                (SPhase::Waiting(p), JP::Waiting { pool }) => p == pool,
                (SPhase::Running(p, m), JP::Running { pool, machine }) => p == pool && m == machine,
                (SPhase::Suspended(p, m), JP::Suspended { pool, machine }) => {
                    p == pool && m == machine
                }
                (SPhase::Done, JP::Completed) => true,
                _ => false,
            };
            if !ok {
                self.violation(
                    now,
                    &format!(
                        "phase cross-check failed for {id}: events imply {shadow:?}, record says {}",
                        record.name()
                    ),
                );
            }
        }
    }

    /// The lifecycle tiling the probe checked at a completion.
    fn check_tiling(&self, now: SimTime, cursor: &mut Cursor<'_>) {
        if let Some(broken) = cursor.tiling() {
            self.violation(now, broken);
        }
    }

    /// Checks one event against the shadow, taking the readings it needs
    /// from `cursor`, then applies it to the shadow.
    fn check(&mut self, now: SimTime, event: &ObsEvent, cursor: &mut Cursor<'_>) {
        if matches!(event, ObsEvent::PoolSample { .. }) {
            return; // a sample annotation: the checker reads the pools itself
        }
        if now < self.last_now {
            self.violation(now, &format!("time regressed from {}", self.last_now));
        }
        self.last_now = now;
        if self.history.len() == HISTORY {
            self.history.pop_front();
        }
        self.history.push_back((now, *event));
        self.events_seen += 1;

        match *event {
            ObsEvent::Kernel { .. } => {
                self.queue_started.clear();
                self.check_marker(now, cursor);
            }
            ObsEvent::BatchStart { .. } => self.queue_started.clear(),
            ObsEvent::Submit { job } => {
                self.expect_phase(now, job, SPhase::Unsubmitted, "submit");
                self.set_phase(job, SPhase::AtVpm);
            }
            // A migrating job can fall back through the VPM when its
            // target turned ineligible in transit; a failure-retried job
            // leaves Backoff here once its delay expired.
            ObsEvent::PoolChosen { job, .. } => self.expect_dispatchable(now, job, "pool_chosen"),
            ObsEvent::Unrunnable { job } => match self.phase(job) {
                // A give-up can land mid-backoff (budget exhausted while
                // parked), so no timing requirement here.
                SPhase::AtVpm | SPhase::InTransit | SPhase::Backoff(_) => {}
                got => self.violation(
                    now,
                    &format!("unrunnable: {job} is {got:?}, expected AtVpm/InTransit/Backoff"),
                ),
            },
            ObsEvent::Enqueue { job, pool } => {
                self.expect_dispatchable(now, job, "enqueue");
                self.set_phase(job, SPhase::Waiting(pool));
            }
            ObsEvent::Dispatch {
                job,
                pool,
                machine,
                wall,
                from_queue,
            } => {
                if from_queue {
                    self.expect_phase(now, job, SPhase::Waiting(pool), "dispatch(queue)");
                    self.queue_started
                        .push((pool.as_usize(), machine.as_usize()));
                } else {
                    self.expect_dispatchable(now, job, "dispatch");
                }
                if wall.is_zero() {
                    self.violation(now, &format!("dispatch: {job} started with zero wall time"));
                }
                if self.machine(pool, machine).down {
                    self.violation(
                        now,
                        &format!("dispatch: {job} placed on down machine {pool}/{machine}"),
                    );
                }
                if self.machine(pool, machine).draining {
                    self.violation(
                        now,
                        &format!("dispatch: {job} placed on draining machine {pool}/{machine}"),
                    );
                }
                let (cores, mem) = cursor.footprint();
                self.add_usage(pool, machine, cores, mem);
                self.set_phase(job, SPhase::Running(pool, machine));
            }
            ObsEvent::Suspend { job, pool, machine } => {
                self.expect_phase(now, job, SPhase::Running(pool, machine), "suspend");
                let (cores, _) = cursor.footprint();
                // Suspension releases cores but keeps resident memory.
                self.sub_usage(now, pool, machine, cores, 0);
                self.set_phase(job, SPhase::Suspended(pool, machine));
            }
            ObsEvent::Resume { job, pool, machine } => {
                self.expect_phase(now, job, SPhase::Suspended(pool, machine), "resume");
                if self.machine(pool, machine).down {
                    self.violation(
                        now,
                        &format!("resume: {job} resumed on down machine {pool}/{machine}"),
                    );
                }
                if self
                    .queue_started
                    .contains(&(pool.as_usize(), machine.as_usize()))
                {
                    self.violation(
                        now,
                        &format!(
                            "resume order broken on {pool}/{machine}: {job} resumed after a \
                             queued job started in the same batch"
                        ),
                    );
                }
                let (cores, _) = cursor.footprint();
                self.add_usage(pool, machine, cores, 0);
                self.set_phase(job, SPhase::Running(pool, machine));
            }
            ObsEvent::Complete { job, pool, machine } => {
                self.expect_phase(now, job, SPhase::Running(pool, machine), "complete");
                let (cores, mem) = cursor.footprint();
                self.sub_usage(now, pool, machine, cores, mem);
                self.set_phase(job, SPhase::Done);
                self.check_tiling(now, cursor);
            }
            ObsEvent::WaitTimeout { job, pool } => {
                self.expect_phase(now, job, SPhase::Waiting(pool), "wait_timeout");
            }
            ObsEvent::Reschedule {
                job,
                kind,
                from_pool,
                machine,
                from_phase,
                to,
                ..
            } => {
                if let Some(target) = to {
                    self.check_not_blacklisted(now, target, kind.label());
                }
                let (cores, mem) = cursor.footprint();
                match (kind, from_phase) {
                    (
                        ReschedKind::RestartFromSuspend | ReschedKind::Migrate,
                        PhaseTag::Suspended,
                    ) => {
                        let m = machine.unwrap_or_else(|| {
                            self.violation(now, &format!("{}: no machine for {job}", kind.label()))
                        });
                        self.expect_phase(now, job, SPhase::Suspended(from_pool, m), kind.label());
                        self.sub_usage(now, from_pool, m, 0, mem);
                        let next = if kind == ReschedKind::Migrate {
                            SPhase::InTransit
                        } else {
                            SPhase::AtVpm
                        };
                        self.set_phase(job, next);
                    }
                    (ReschedKind::RestartFromWait, PhaseTag::Waiting) => {
                        self.expect_phase(now, job, SPhase::Waiting(from_pool), kind.label());
                        self.set_phase(job, SPhase::AtVpm);
                    }
                    (ReschedKind::FailureEvict, PhaseTag::Running) => {
                        let m = machine.unwrap_or_else(|| {
                            self.violation(now, &format!("failure_evict: no machine for {job}"))
                        });
                        self.expect_phase(now, job, SPhase::Running(from_pool, m), kind.label());
                        self.sub_usage(now, from_pool, m, cores, mem);
                        self.set_phase(job, SPhase::AtVpm);
                    }
                    (ReschedKind::FailureEvict, PhaseTag::Suspended) => {
                        let m = machine.unwrap_or_else(|| {
                            self.violation(now, &format!("failure_evict: no machine for {job}"))
                        });
                        self.expect_phase(now, job, SPhase::Suspended(from_pool, m), kind.label());
                        self.sub_usage(now, from_pool, m, 0, mem);
                        self.set_phase(job, SPhase::AtVpm);
                    }
                    (ReschedKind::Evacuation, PhaseTag::Running) => {
                        let m = machine.unwrap_or_else(|| {
                            self.violation(now, &format!("evacuation: no machine for {job}"))
                        });
                        self.check_evacuation_window(now, from_pool, m);
                        self.expect_phase(now, job, SPhase::Running(from_pool, m), kind.label());
                        self.sub_usage(now, from_pool, m, cores, mem);
                        self.set_phase(job, SPhase::AtVpm);
                    }
                    (ReschedKind::Evacuation, PhaseTag::Suspended) => {
                        let m = machine.unwrap_or_else(|| {
                            self.violation(now, &format!("evacuation: no machine for {job}"))
                        });
                        self.check_evacuation_window(now, from_pool, m);
                        self.expect_phase(now, job, SPhase::Suspended(from_pool, m), kind.label());
                        self.sub_usage(now, from_pool, m, 0, mem);
                        self.set_phase(job, SPhase::AtVpm);
                    }
                    (kind, phase) => self.violation(
                        now,
                        &format!(
                            "illegal reschedule {}/{} for {job}",
                            kind.label(),
                            phase.label()
                        ),
                    ),
                }
            }
            ObsEvent::DuplicateLaunched {
                original,
                clone,
                target,
            } => {
                self.check_not_blacklisted(now, target, "duplicate");
                match self.phase(original) {
                    SPhase::Suspended(..) => {}
                    got => self.violation(
                        now,
                        &format!("duplicate: original {original} is {got:?}, expected Suspended"),
                    ),
                }
                self.expect_phase(now, clone, SPhase::Unsubmitted, "duplicate");
                self.set_phase(clone, SPhase::AtVpm);
            }
            ObsEvent::ProxyFinish {
                job,
                from_phase,
                pool,
                machine,
            } => {
                let (cores, mem) = cursor.footprint();
                match from_phase {
                    PhaseTag::Running => {
                        let (p, m) = (pool.unwrap(), machine.unwrap());
                        self.expect_phase(now, job, SPhase::Running(p, m), "proxy_finish");
                        self.sub_usage(now, p, m, cores, mem);
                    }
                    PhaseTag::Suspended => {
                        let (p, m) = (pool.unwrap(), machine.unwrap());
                        self.expect_phase(now, job, SPhase::Suspended(p, m), "proxy_finish");
                        self.sub_usage(now, p, m, 0, mem);
                    }
                    PhaseTag::Waiting => {
                        let p = pool.unwrap();
                        self.expect_phase(now, job, SPhase::Waiting(p), "proxy_finish");
                    }
                    PhaseTag::AtVpm => match self.phase(job) {
                        // A backoff-parked copy can lose the race too.
                        SPhase::AtVpm | SPhase::InTransit | SPhase::Backoff(_) => {}
                        got => self.violation(
                            now,
                            &format!(
                                "proxy_finish: {job} is {got:?}, expected AtVpm/InTransit/Backoff"
                            ),
                        ),
                    },
                }
                self.set_phase(job, SPhase::Done);
                self.check_tiling(now, cursor);
            }
            ObsEvent::MachineDown { pool, machine } => {
                // Evictions follow as failure_evict reschedules; once they
                // all land, the shadow reaches the drained machine state.
                if self.machine(pool, machine).down {
                    self.violation(
                        now,
                        &format!("machine_down: {pool}/{machine} failed while already down"),
                    );
                }
                self.machine_mut(pool, machine).down = true;
            }
            ObsEvent::MachineUp { pool, machine } => {
                if !self.machine(pool, machine).down {
                    self.violation(
                        now,
                        &format!("machine_up: {pool}/{machine} restored while not down"),
                    );
                }
                self.machine_mut(pool, machine).down = false;
            }
            ObsEvent::MachineDraining {
                pool,
                machine,
                deadline,
            } => {
                // Draining while down is legal (a merged window can open
                // during a stochastic outage); draining twice is not —
                // the plan normalization guarantees alternation.
                if self.machine(pool, machine).draining {
                    self.violation(
                        now,
                        &format!(
                            "machine_draining: {pool}/{machine} drained while already draining"
                        ),
                    );
                }
                if let Some(d) = deadline {
                    if d < now {
                        self.violation(
                            now,
                            &format!("machine_draining: {pool}/{machine} kill deadline {d} is in the past"),
                        );
                    }
                }
                let shadow = self.machine_mut(pool, machine);
                shadow.draining = true;
                shadow.drain_deadline = deadline.map_or(u64::MAX, |d| d.as_minutes());
            }
            ObsEvent::MachineUndrained { pool, machine } => {
                if !self.machine(pool, machine).draining {
                    self.violation(
                        now,
                        &format!(
                            "machine_undrained: {pool}/{machine} re-opened while not draining"
                        ),
                    );
                }
                let shadow = self.machine_mut(pool, machine);
                shadow.draining = false;
                shadow.drain_deadline = u64::MAX;
            }
            ObsEvent::RetryScheduled {
                job,
                attempt,
                resume_at,
            } => {
                match self.phase(job) {
                    // First retry leaves AtVpm (just evicted); graceful-
                    // degradation re-parks leave Backoff.
                    SPhase::AtVpm | SPhase::Backoff(_) => {}
                    got => self.violation(
                        now,
                        &format!("retry_backoff: {job} is {got:?}, expected AtVpm/Backoff"),
                    ),
                }
                if resume_at < now {
                    self.violation(
                        now,
                        &format!("retry_backoff: {job} booked in the past ({resume_at})"),
                    );
                }
                let delay = resume_at.since(now).as_minutes();
                if let Some(&(prev_attempt, prev_delay)) = self.retry_state.get(&job) {
                    if attempt != prev_attempt + 1 {
                        self.violation(
                            now,
                            &format!(
                                "retry_backoff: {job} attempt jumped {prev_attempt} -> {attempt}"
                            ),
                        );
                    }
                    if delay < prev_delay {
                        self.violation(
                            now,
                            &format!(
                                "backoff ordering broken for {job}: delay shrank {prev_delay}m -> {delay}m"
                            ),
                        );
                    }
                } else if attempt != 1 {
                    self.violation(
                        now,
                        &format!("retry_backoff: {job} first observed attempt is {attempt}"),
                    );
                }
                self.retry_state.insert(job, (attempt, delay));
                self.set_phase(job, SPhase::Backoff(Expiry::new(resume_at)));
            }
            ObsEvent::PoolBlacklisted { pool, until } => {
                let u = until.as_minutes();
                if u < now.as_minutes() {
                    self.violation(
                        now,
                        &format!("blacklist: {pool} cooldown already expired at booking time"),
                    );
                }
                let entry = &mut self.blacklist_until[pool.as_usize()];
                if *entry < u {
                    *entry = u;
                }
            }
            ObsEvent::PolicyAudit { target, .. } => {
                // The verdict's transition (if any) follows and is checked
                // there; here we only pin that the audited target is legal.
                if let Some(target) = target {
                    self.check_not_blacklisted(now, target, "policy_audit");
                }
            }
            // Pure provenance annotations: the transitions they explain
            // (evacuation reschedules, machine_down evictions) carry their
            // own invariants.
            ObsEvent::EvacAudit { .. } | ObsEvent::FaultAudit { .. } => {}
            ObsEvent::Sample | ObsEvent::PoolSample { .. } => {}
        }
    }
}

impl SimObserver for InvariantChecker {
    fn on_run_start(&mut self, _now: SimTime, ctx: &ObsCtx<'_>) {
        self.shadow.ensure_init(ctx);
    }

    /// `false`: a serial run reads the state for the checker on the
    /// kernel thread, where the relay runs its probe, and the checker
    /// makes its comparisons on the helper thread. It is the one observer
    /// that answers `false` and still gets readings of the state.
    fn reads_state(&self) -> bool {
        false
    }

    /// Probes `ctx` (the live state), then checks the event against
    /// those readings.
    fn on_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        if matches!(event, ObsEvent::Kernel { .. }) {
            // Every serial run opens with a kernel marker: this sizes
            // a checker whose wrapper did not forward `on_run_start`.
            self.shadow.ensure_init(ctx);
        }
        self.probe.observe(event, ctx, &mut self.readings);
        self.shadow.check(now, event, &mut self.readings.cursor());
        self.probe.reclaim(&mut self.readings);
    }

    fn on_run_end(&mut self, now: SimTime, ctx: &ObsCtx<'_>) {
        self.shadow.ensure_init(ctx);
        self.probe.read(ctx, true, &mut self.readings);
        self.shadow.check_marker(now, &mut self.readings.cursor());
        // The run is over: the buffers go.
        self.probe = Probe::default();
        self.readings = Readings::default();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One state read the checker's shadow compares against, taken on the
/// thread that owns the simulator's state.
#[derive(Debug, Clone, Copy)]
enum Reading {
    /// Opens a kernel boundary's readings: `touched` pool and machine
    /// readings follow, and a deep sweep when `sweep`.
    Kernel { touched: u32, sweep: bool },
    /// A pool touched since the previous boundary: busy and total cores.
    Pool { pool: PoolId, busy: u32, total: u32 },
    /// A machine touched since the previous boundary: resident and
    /// installed memory, in MB.
    Machine {
        pool: PoolId,
        machine: MachineId,
        used: u64,
        capacity: u64,
    },
    /// A touched machine id its pool does not have.
    NoMachine { pool: PoolId, machine: MachineId },
    /// The footprint of the job an event moves: cores and resident MB.
    Footprint { cores: u32, memory: u64 },
    /// Whether a finished job's lifecycle tiling holds (it does for a
    /// duplicate copy); when it does not, the broken rule's message is
    /// the next of the readings' `broken`.
    Tiling { holds: bool },
}

/// A deep sweep's readings.
#[derive(Debug, Default, Clone)]
struct Sweep {
    /// Every pool's id and busy cores, in pool order.
    busy: Vec<(PoolId, u32)>,
    /// The first pool (by index) failing its internal invariants or queue
    /// order, with the broken rule's message.
    fault: Option<(usize, String)>,
    /// Every record's phase, indexed by job id.
    phases: Vec<JobPhase>,
}

/// What a probe read over a run of events, in event order. Sweeps sit
/// apart, so that their buffers can be reused.
#[derive(Debug, Default)]
pub(crate) struct Readings {
    list: Vec<Reading>,
    sweeps: Vec<Sweep>,
    /// The messages of broken tilings, in order.
    broken: Vec<String>,
}

impl Readings {
    fn cursor(&self) -> Cursor<'_> {
        Cursor {
            list: self.list.iter(),
            sweeps: self.sweeps.iter(),
            broken: self.broken.iter(),
        }
    }
}

/// Reads a [`Readings`] back in the order the probe took them.
struct Cursor<'a> {
    list: std::slice::Iter<'a, Reading>,
    sweeps: std::slice::Iter<'a, Sweep>,
    broken: std::slice::Iter<'a, String>,
}

impl<'a> Cursor<'a> {
    fn next(&mut self, want: &str) -> &'a Reading {
        self.list
            .next()
            .unwrap_or_else(|| panic!("checker readings ran out before a {want} reading"))
    }

    fn footprint(&mut self) -> (u64, u64) {
        match *self.next("footprint") {
            Reading::Footprint { cores, memory } => (u64::from(cores), memory),
            ref other => out_of_step("footprint", other),
        }
    }

    fn tiling(&mut self) -> Option<&'a str> {
        match *self.next("tiling") {
            Reading::Tiling { holds: true } => None,
            Reading::Tiling { holds: false } => Some(
                self.broken
                    .next()
                    .expect("a message for each broken tiling"),
            ),
            ref other => out_of_step("tiling", other),
        }
    }

    fn sweep(&mut self) -> &'a Sweep {
        self.sweeps
            .next()
            .expect("a sweep for the kernel boundary that took one")
    }
}

#[cold]
fn out_of_step(want: &str, got: &Reading) -> ! {
    panic!("checker readings out of step with the events: expected a {want} reading, got {got:?}")
}

/// The checker's state reads (see [`InvariantChecker`]). It follows the
/// events to know which pools and machines they touch and when a deep
/// sweep is due, and reads what their rules need from the live state.
/// It runs on the thread that owns the state: inside a checker fed the
/// live [`ObsCtx`], or in the [`Relay`] for a checker on the helper
/// thread.
#[derive(Debug, Default, Clone)]
pub(crate) struct Probe {
    touched_pools: Vec<PoolId>,
    touched_machines: Vec<(PoolId, MachineId)>,
    events_seen: u64,
    last_sweep: u64,
    machine_total: Option<u64>,
    /// Sweeps already checked, reused for the next ones.
    spare: Vec<Sweep>,
}

impl Probe {
    /// Reads what the rules of `event` need from `ctx` into `out`.
    fn observe(&mut self, event: &ObsEvent, ctx: &ObsCtx<'_>, out: &mut Readings) {
        if matches!(event, ObsEvent::PoolSample { .. }) {
            return;
        }
        self.events_seen += 1;
        match *event {
            ObsEvent::Kernel { .. } => {
                assert!(
                    !ctx.pools.is_empty(),
                    "the invariant checker reads the simulator's state: \
                     a wrapper around it must keep reads_state() true"
                );
                let machines = *self.machine_total.get_or_insert_with(|| {
                    ctx.pools.iter().map(|p| p.machine_count() as u64).sum()
                });
                let interval = DEEP_SWEEP_EVERY.max(ctx.jobs.len() as u64 + machines);
                let sweep = self.events_seen - self.last_sweep >= interval;
                if sweep {
                    self.last_sweep = self.events_seen;
                }
                self.read(ctx, sweep, out);
            }
            ObsEvent::Dispatch {
                job, pool, machine, ..
            }
            | ObsEvent::Suspend { job, pool, machine }
            | ObsEvent::Resume { job, pool, machine } => {
                footprint(ctx, job, out);
                self.touch(pool, machine);
            }
            ObsEvent::Complete { job, pool, machine } => {
                footprint(ctx, job, out);
                self.touch(pool, machine);
                tiling(ctx, job, out);
            }
            ObsEvent::Reschedule {
                job,
                from_pool,
                machine,
                from_phase,
                ..
            } => {
                footprint(ctx, job, out);
                if let (Some(m), PhaseTag::Running | PhaseTag::Suspended) = (machine, from_phase) {
                    self.touch(from_pool, m);
                }
            }
            ObsEvent::ProxyFinish {
                job,
                from_phase,
                pool,
                machine,
            } => {
                footprint(ctx, job, out);
                if let (Some(p), Some(m), PhaseTag::Running | PhaseTag::Suspended) =
                    (pool, machine, from_phase)
                {
                    self.touch(p, m);
                }
                tiling(ctx, job, out);
            }
            ObsEvent::MachineDown { pool, machine } | ObsEvent::MachineUp { pool, machine } => {
                self.touch(pool, machine);
            }
            _ => {}
        }
    }

    fn touch(&mut self, pool: PoolId, machine: MachineId) {
        if !self.touched_pools.contains(&pool) {
            self.touched_pools.push(pool);
        }
        if !self.touched_machines.contains(&(pool, machine)) {
            self.touched_machines.push((pool, machine));
        }
    }

    /// Reads one kernel boundary: the pools and machines touched since
    /// the previous one and, when `sweep`, the whole state.
    fn read(&mut self, ctx: &ObsCtx<'_>, sweep: bool, out: &mut Readings) {
        let touched = self.touched_pools.len() + self.touched_machines.len();
        out.list.push(Reading::Kernel {
            touched: u32::try_from(touched).expect("touched counts fit in u32"),
            sweep,
        });
        while let Some(pool) = self.touched_pools.pop() {
            let p = &ctx.pools[pool.as_usize()];
            out.list.push(Reading::Pool {
                pool,
                busy: p.busy_cores(),
                total: p.total_cores(),
            });
        }
        while let Some((pool, machine)) = self.touched_machines.pop() {
            out.list
                .push(match ctx.pools[pool.as_usize()].machine(machine) {
                    Some(m) => Reading::Machine {
                        pool,
                        machine,
                        used: m.memory_used(),
                        capacity: m.config().memory_mb,
                    },
                    None => Reading::NoMachine { pool, machine },
                });
        }
        if sweep {
            let mut s = self.spare.pop().unwrap_or_default();
            s.busy.clear();
            s.busy
                .extend(ctx.pools.iter().map(|p| (p.id(), p.busy_cores())));
            s.fault = ctx
                .pools
                .iter()
                .enumerate()
                .find_map(|(p, pool)| pool_fault(pool).map(|msg| (p, msg)));
            s.phases.clear();
            s.phases.extend(ctx.jobs.iter().map(JobRecord::phase));
            out.sweeps.push(s);
        }
    }

    /// Empties checked readings, keeping their sweeps for reuse.
    fn reclaim(&mut self, readings: &mut Readings) {
        readings.list.clear();
        if !readings.sweeps.is_empty() {
            self.spare.append(&mut readings.sweeps);
        }
        readings.broken.clear();
    }
}

fn footprint(ctx: &ObsCtx<'_>, job: JobId, out: &mut Readings) {
    let res = ctx.jobs[job.as_usize()].spec().resources;
    out.list.push(Reading::Footprint {
        cores: res.cores,
        memory: res.memory_mb,
    });
}

/// wait + suspend + run must tile submission → completion exactly.
fn tiling(ctx: &ObsCtx<'_>, job: JobId, out: &mut Readings) {
    let broken = tiling_broken(ctx, job);
    out.list.push(Reading::Tiling {
        holds: broken.is_none(),
    });
    out.broken.extend(broken);
}

fn tiling_broken(ctx: &ObsCtx<'_>, job: JobId) -> Option<String> {
    if ctx.shadows.contains(&job) {
        // Duplicate clones inherit the original's submit stamp but only
        // come to life at launch time; their span is not tileable.
        return None;
    }
    let rec = &ctx.jobs[job.as_usize()];
    let Some(done) = rec.completed_at() else {
        return Some(format!("{job} reported complete without a timestamp"));
    };
    let span = done.since(rec.spec().submit_time);
    let tiled = rec.wait_time() + rec.suspend_time() + rec.run_time();
    (span != tiled).then(|| {
        format!(
            "lifecycle tiling broken for {job}: span {span} != wait {} + suspend {} + run {}",
            rec.wait_time(),
            rec.suspend_time(),
            rec.run_time()
        )
    })
}

/// The first pool-internal rule `pool` breaks: its own invariants, then
/// queue order (priority-descending, FIFO within a priority class).
fn pool_fault(pool: &PhysicalPool) -> Option<String> {
    if !pool.check_invariants() {
        return Some(format!("{} fails its internal invariants", pool.id()));
    }
    let mut prev: Option<(netbatch_cluster::priority::Priority, SimTime)> = None;
    for entry in pool.waiting_jobs() {
        if let Some((prio, at)) = prev {
            if entry.priority > prio {
                return Some(format!(
                    "queue order broken in {}: {:?} queued behind {:?}",
                    pool.id(),
                    entry.priority,
                    prio
                ));
            }
            if entry.priority == prio && entry.enqueued_at < at {
                return Some(format!(
                    "FIFO order broken in {} for priority {:?}: {} enqueued at {} sits behind {}",
                    pool.id(),
                    prio,
                    entry.job,
                    entry.enqueued_at,
                    at
                ));
            }
        }
        prev = Some((entry.priority, entry.enqueued_at));
    }
    None
}

// ---------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------

enum Sink {
    Memory(String),
    File(std::io::BufWriter<std::fs::File>),
    /// Buffered stdout, for `--trace-out -` pipeline use.
    Stdout(std::io::BufWriter<std::io::Stdout>),
    /// A stdout sink whose reader closed the pipe: the rest is dropped.
    Closed,
}

/// Streams every lifecycle event as one JSON object per line (JSONL).
///
/// The JSON is hand-written with a fixed field order per event kind (the
/// workspace carries no serde), so two same-seed runs produce
/// byte-identical logs — the property the golden-trace conformance suite
/// pins. Structural markers ([`ObsEvent::Kernel`],
/// [`ObsEvent::BatchStart`]) are not recorded.
pub struct TraceRecorder {
    sink: Sink,
    counts: BTreeMap<&'static str, u64>,
    events: u64,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("events", &self.events)
            .field("counts", &self.counts)
            .finish()
    }
}

impl TraceRecorder {
    /// Records into an in-memory buffer (read back with
    /// [`TraceRecorder::lines`]).
    pub fn in_memory() -> Self {
        TraceRecorder {
            sink: Sink::Memory(String::new()),
            counts: BTreeMap::new(),
            events: 0,
        }
    }

    /// Streams to a file through a buffered writer.
    pub fn to_file(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(TraceRecorder {
            sink: Sink::File(std::io::BufWriter::new(file)),
            counts: BTreeMap::new(),
            events: 0,
        })
    }

    /// Streams to stdout (the `--trace-out -` pipeline sink).
    pub fn to_stdout() -> Self {
        TraceRecorder {
            sink: Sink::Stdout(std::io::BufWriter::new(std::io::stdout())),
            counts: BTreeMap::new(),
            events: 0,
        }
    }

    /// The recorded JSONL document (empty for file- and stdout-backed
    /// recorders).
    pub fn lines(&self) -> &str {
        match &self.sink {
            Sink::Memory(buf) => buf,
            Sink::File(_) | Sink::Stdout(_) | Sink::Closed => "",
        }
    }

    /// Recorded events per kind label.
    pub fn kind_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Total recorded events (on a stdout sink whose reader closed the
    /// pipe, those rendered before it closed).
    pub fn events(&self) -> u64 {
        self.events
    }

    fn write_line(&mut self, line: &str) {
        match &mut self.sink {
            Sink::Memory(buf) => {
                buf.push_str(line);
                buf.push('\n');
            }
            Sink::File(w) => {
                writeln!(w, "{line}").expect("trace write failed");
            }
            Sink::Stdout(w) => {
                let written = writeln!(w, "{line}");
                self.stdout_written(written);
            }
            Sink::Closed => {}
        }
    }

    /// Takes the result of a write to the stdout sink. A closed pipe (the
    /// reader quit early, as in `--trace-out - | head`) drops the rest of
    /// the trace and lets the run finish, as the CLI's other stdout sinks
    /// do; any other error is fatal.
    fn stdout_written(&mut self, written: std::io::Result<()>) {
        match written {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => self.sink = Sink::Closed,
            written => written.expect("trace write failed"),
        }
    }

    fn render(now: SimTime, event: &ObsEvent) -> Option<String> {
        let t = now.as_minutes();
        let ev = event.label();
        let mut s = String::with_capacity(96);
        match *event {
            // Markers and decision audits are structural: audits carry the
            // provenance layer's causes and would perturb the pinned golden
            // JSONL fixtures, so they stay out of the event log (span
            // recorders consume them instead).
            ObsEvent::Kernel { .. }
            | ObsEvent::BatchStart { .. }
            | ObsEvent::PolicyAudit { .. }
            | ObsEvent::EvacAudit { .. }
            | ObsEvent::FaultAudit { .. }
            | ObsEvent::PoolSample { .. } => return None,
            ObsEvent::Submit { job } | ObsEvent::Unrunnable { job } => {
                let _ = write!(s, r#"{{"t":{t},"ev":"{ev}","job":{}}}"#, job.as_u64());
            }
            ObsEvent::PoolChosen { job, pool }
            | ObsEvent::Enqueue { job, pool }
            | ObsEvent::WaitTimeout { job, pool } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","job":{},"pool":{}}}"#,
                    job.as_u64(),
                    pool.as_u16()
                );
            }
            ObsEvent::Dispatch {
                job,
                pool,
                machine,
                wall,
                from_queue,
            } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","job":{},"pool":{},"machine":{},"wall":{},"from_queue":{from_queue}}}"#,
                    job.as_u64(),
                    pool.as_u16(),
                    machine.as_u32(),
                    wall.as_minutes()
                );
            }
            ObsEvent::Suspend { job, pool, machine }
            | ObsEvent::Resume { job, pool, machine }
            | ObsEvent::Complete { job, pool, machine } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","job":{},"pool":{},"machine":{}}}"#,
                    job.as_u64(),
                    pool.as_u16(),
                    machine.as_u32()
                );
            }
            ObsEvent::Reschedule {
                job,
                kind: _,
                from_pool,
                machine,
                from_phase,
                to,
                discarded,
            } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","job":{},"from_pool":{},"machine":{},"from_phase":"{}","to":{},"discarded":{}}}"#,
                    job.as_u64(),
                    from_pool.as_u16(),
                    opt_u64(machine.map(|m| u64::from(m.as_u32()))),
                    from_phase.label(),
                    opt_u64(to.map(|p| u64::from(p.as_u16()))),
                    discarded.as_minutes()
                );
            }
            ObsEvent::DuplicateLaunched {
                original,
                clone,
                target,
            } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","original":{},"clone":{},"target":{}}}"#,
                    original.as_u64(),
                    clone.as_u64(),
                    target.as_u16()
                );
            }
            ObsEvent::ProxyFinish {
                job,
                from_phase,
                pool,
                machine,
            } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","job":{},"from_phase":"{}","pool":{},"machine":{}}}"#,
                    job.as_u64(),
                    from_phase.label(),
                    opt_u64(pool.map(|p| u64::from(p.as_u16()))),
                    opt_u64(machine.map(|m| u64::from(m.as_u32())))
                );
            }
            ObsEvent::MachineDown { pool, machine }
            | ObsEvent::MachineUp { pool, machine }
            | ObsEvent::MachineUndrained { pool, machine } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","pool":{},"machine":{}}}"#,
                    pool.as_u16(),
                    machine.as_u32()
                );
            }
            ObsEvent::MachineDraining {
                pool,
                machine,
                deadline,
            } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","pool":{},"machine":{},"deadline":{}}}"#,
                    pool.as_u16(),
                    machine.as_u32(),
                    opt_u64(deadline.map(|d| d.as_minutes()))
                );
            }
            ObsEvent::RetryScheduled {
                job,
                attempt,
                resume_at,
            } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","job":{},"attempt":{attempt},"resume_at":{}}}"#,
                    job.as_u64(),
                    resume_at.as_minutes()
                );
            }
            ObsEvent::PoolBlacklisted { pool, until } => {
                let _ = write!(
                    s,
                    r#"{{"t":{t},"ev":"{ev}","pool":{},"until":{}}}"#,
                    pool.as_u16(),
                    until.as_minutes()
                );
            }
            ObsEvent::Sample => {
                let _ = write!(s, r#"{{"t":{t},"ev":"{ev}"}}"#);
            }
        }
        Some(s)
    }
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

impl SimObserver for TraceRecorder {
    /// A stdout sink stays on the calling thread: the CLI holds the
    /// stdout lock for the whole command, so a helper thread writing to
    /// stdout would wait on it forever.
    fn reads_state(&self) -> bool {
        matches!(self.sink, Sink::Stdout(_) | Sink::Closed)
    }

    fn on_event(&mut self, now: SimTime, event: &ObsEvent, _ctx: &ObsCtx<'_>) {
        if matches!(self.sink, Sink::Closed) {
            return; // the reader is gone: render nothing more
        }
        if let Some(line) = Self::render(now, event) {
            *self.counts.entry(event.label()).or_insert(0) += 1;
            self.events += 1;
            self.write_line(&line);
        }
    }

    fn on_run_end(&mut self, _now: SimTime, _ctx: &ObsCtx<'_>) {
        match &mut self.sink {
            Sink::File(w) => w.flush().expect("trace flush failed"),
            Sink::Stdout(w) => {
                let flushed = w.flush();
                self.stdout_written(flushed);
            }
            Sink::Memory(_) | Sink::Closed => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Helper-thread delivery
// ---------------------------------------------------------------------

/// Events per batch the serial kernel ships to the helper thread that
/// feeds the observers whose [`SimObserver::reads_state`] is false.
pub const RELAY_BATCH: usize = 2048;

/// Full batches the channel to the helper thread holds. With the batch
/// the kernel fills and the one the helper delivers, at most
/// `RELAY_DEPTH + 2` batch buffers ever exist (about 384 KiB of events,
/// plus the probe's readings when a checker rides along): a new one is
/// allocated only when no emptied buffer has come back.
const RELAY_DEPTH: usize = 2;

/// One shipment to the helper thread: a run of events, and what the
/// probe read while they were emitted (nothing unless an
/// [`InvariantChecker`] is on the helper thread).
#[derive(Default)]
struct Batch {
    events: Vec<(SimTime, ObsEvent)>,
    readings: Readings,
}

impl Batch {
    /// An empty batch; `probed` sizes it for the probe's readings too
    /// (a little over one per event).
    fn new(probed: bool) -> Self {
        Batch {
            events: Vec::with_capacity(RELAY_BATCH),
            readings: Readings {
                list: Vec::with_capacity(if probed { 2 * RELAY_BATCH } else { 0 }),
                ..Readings::default()
            },
        }
    }
}

/// The kernel-thread end of helper-thread delivery, attached as the last
/// inline observer: it copies every event into a batch and ships full
/// batches over a bounded channel, reusing the buffers the helper sends
/// back. For the invariant checkers on the helper thread it runs their
/// [`Probe`], whose readings ride in the same batches. Dropping it ships
/// the partial batch and hangs up, which ends the helper's
/// [`Feed::deliver`] loop. If the helper has gone (an observer
/// panicked), the next shipment stops the kernel with a [`HelperGone`]
/// panic.
pub(crate) struct Relay {
    batch: Batch,
    probe: Option<Probe>,
    full: mpsc::SyncSender<Batch>,
    empty: mpsc::Receiver<Batch>,
}

/// The helper-thread end of helper-thread delivery.
pub(crate) struct Feed {
    full: mpsc::Receiver<Batch>,
    empty: mpsc::Sender<Batch>,
}

/// A connected relay and feed for `offloaded`, the observers the helper
/// thread will feed; the relay probes the state when one of them is an
/// [`InvariantChecker`].
pub(crate) fn relay(offloaded: &[Box<dyn SimObserver>]) -> (Relay, Feed) {
    let (full_tx, full_rx) = mpsc::sync_channel(RELAY_DEPTH);
    let (empty_tx, empty_rx) = mpsc::channel();
    let checked = offloaded.iter().any(|o| as_checker(o.as_ref()).is_some());
    let relay = Relay {
        batch: Batch::new(checked),
        probe: checked.then(Probe::default),
        full: full_tx,
        empty: empty_rx,
    };
    let feed = Feed {
        full: full_rx,
        empty: empty_tx,
    };
    (relay, feed)
}

/// `obs` itself as an [`InvariantChecker`]; `None` for any other
/// observer, a wrapper around a checker included.
fn as_checker(obs: &dyn SimObserver) -> Option<&InvariantChecker> {
    (obs as &dyn Any).downcast_ref()
}

/// Hangs up `relay` (shipping its partial batch) and returns its probe,
/// if it ran one: the checkers it read for take it over for their
/// `on_run_end` through [`hand_over`].
pub(crate) fn hang_up(relay: Box<dyn SimObserver>) -> Option<Probe> {
    let relay: Box<dyn Any> = relay;
    let mut relay = relay.downcast::<Relay>().ok()?;
    relay.probe.take()
}

/// Hands `probe` to the [`InvariantChecker`]s among `observers` (a
/// copy to each after the first).
pub(crate) fn hand_over(probe: Probe, observers: &mut [Box<dyn SimObserver>]) {
    let mut checkers = observers
        .iter_mut()
        .filter_map(|o| (&mut **o as &mut dyn Any).downcast_mut::<InvariantChecker>());
    let Some(first) = checkers.next() else {
        return;
    };
    for other in checkers {
        other.adopt_probe(probe.clone());
    }
    first.adopt_probe(probe);
}

impl Relay {
    fn ship(&mut self) {
        let full = std::mem::take(&mut self.batch);
        self.batch = match self.full.send(full) {
            Ok(()) => match self.empty.try_recv() {
                Ok(mut batch) => {
                    if let Some(probe) = &mut self.probe {
                        probe.reclaim(&mut batch.readings);
                    }
                    batch
                }
                Err(_) => Batch::new(self.probe.is_some()),
            },
            // The helper hung up, which it does only by panicking: stop
            // the kernel, and the run's join re-raises the helper's panic.
            Err(_) => std::panic::resume_unwind(Box::new(HelperGone)),
        };
    }
}

/// The panic payload that stops the kernel once the helper thread is
/// gone; the run replaces it with the helper's own panic.
struct HelperGone;

impl Drop for Relay {
    fn drop(&mut self) {
        if !self.batch.events.is_empty() {
            // Fails only if the helper is gone, and then nothing reads it.
            let _ = self.full.send(std::mem::take(&mut self.batch));
        }
    }
}

impl std::fmt::Debug for Relay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relay")
            .field("pending", &self.batch.events.len())
            .finish()
    }
}

impl SimObserver for Relay {
    fn on_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        if let Some(probe) = &mut self.probe {
            probe.observe(event, ctx, &mut self.batch.readings);
        }
        self.batch.events.push((now, *event));
        if self.batch.events.len() == RELAY_BATCH {
            self.ship();
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Feed {
    /// Delivers every batch to `observers`, in order, until the relay
    /// hangs up; then hands the observers back. Each observer takes a
    /// whole batch in turn: an [`InvariantChecker`] with the batch's
    /// readings, every other observer with an empty [`ObsCtx`].
    pub(crate) fn deliver(
        self,
        mut observers: Vec<Box<dyn SimObserver>>,
    ) -> Vec<Box<dyn SimObserver>> {
        let Feed { full, empty } = self;
        let shadows = std::collections::HashSet::new();
        let ctx = ObsCtx {
            pools: &[],
            jobs: &[],
            shadows: &shadows,
        };
        for mut batch in full {
            for obs in &mut observers {
                let any: &mut dyn Any = &mut **obs;
                if let Some(checker) = any.downcast_mut::<InvariantChecker>() {
                    checker.replay(&batch.events, &batch.readings);
                } else {
                    for (now, event) in &batch.events {
                        obs.on_event(*now, event, &ctx);
                    }
                }
            }
            batch.events.clear();
            // The relay may be gone already (the run ended): that is fine.
            let _ = empty.send(batch);
        }
        observers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_per_reschedule_kind() {
        let ev = |kind| ObsEvent::Reschedule {
            job: JobId(0),
            kind,
            from_pool: PoolId(0),
            machine: None,
            from_phase: PhaseTag::Waiting,
            to: None,
            discarded: SimDuration::ZERO,
        };
        assert_eq!(
            ev(ReschedKind::RestartFromWait).label(),
            "restart_from_wait"
        );
        assert_eq!(ev(ReschedKind::Migrate).label(), "migrate");
        assert_ne!(
            ev(ReschedKind::RestartFromSuspend).label(),
            ev(ReschedKind::FailureEvict).label()
        );
    }

    /// Every event is copied into the helper thread's batches (and into
    /// the checker's history), so its size is part of the observer
    /// layer's cost.
    #[test]
    fn events_stay_at_most_40_bytes() {
        assert!(std::mem::size_of::<ObsEvent>() <= 40);
    }

    /// The checker holds one phase per job; a backoff phase prints its
    /// expiry as the `SimTime` it once carried.
    #[test]
    fn shadow_phases_stay_at_8_bytes_and_print_as_before() {
        assert_eq!(std::mem::size_of::<SPhase>(), 8);
        let parked = SPhase::Backoff(Expiry::new(SimTime::from_minutes(7)));
        assert_eq!(format!("{parked:?}"), "Backoff(SimTime(7))");
    }

    /// The probe's readings ride with the events in the same batches.
    #[test]
    fn readings_stay_at_most_24_bytes() {
        assert!(std::mem::size_of::<Reading>() <= 24);
    }

    // Rule parity: each rule the probe's readings feed, broken by a
    // stream that disagrees with the state, reports the same violation
    // whether the checker probes the live state itself (inline, as a
    // wrapper that keeps `reads_state() == true` feeds it) or the relay
    // probes for it and the feed replays the batch (the helper-thread
    // path, here run on one thread).

    const P0: PoolId = PoolId(0);
    const M0: MachineId = MachineId(0);
    const J0: JobId = JobId(0);

    /// One pool of two 4-core, 1024 MB machines, and one 1-core,
    /// 100 MB job submitted at t=0 that needs 10 minutes, whose record
    /// `record` prepares (the pool itself never hosts it).
    fn state(record: impl FnOnce(&mut JobRecord)) -> (Vec<PhysicalPool>, Vec<JobRecord>) {
        let pool = PhysicalPool::new(netbatch_cluster::pool::PoolConfig::uniform(P0, 2, 4, 1024));
        let spec =
            netbatch_cluster::job::JobSpec::new(J0, SimTime::ZERO, SimDuration::from_minutes(10))
                .with_cores(1)
                .with_memory_mb(100);
        let mut job = JobRecord::new(spec);
        record(&mut job);
        (vec![pool], vec![job])
    }

    fn at(minute: u64, event: ObsEvent) -> (SimTime, ObsEvent) {
        (SimTime::from_minutes(minute), event)
    }

    /// Submit, pool choice and a fresh dispatch of the job onto m0.
    fn dispatched(minute: u64) -> Vec<(SimTime, ObsEvent)> {
        vec![
            at(minute, ObsEvent::Kernel { kind: "submit" }),
            at(minute, ObsEvent::Submit { job: J0 }),
            at(minute, ObsEvent::PoolChosen { job: J0, pool: P0 }),
            at(
                minute,
                ObsEvent::Dispatch {
                    job: J0,
                    pool: P0,
                    machine: M0,
                    wall: SimDuration::from_minutes(10),
                    from_queue: false,
                },
            ),
        ]
    }

    /// Checks `events` against the fixed `state` to the end of the run,
    /// probing inline or through a relay and feed, and returns the
    /// violation's panic message.
    fn violation(
        events: &[(SimTime, ObsEvent)],
        (pools, jobs): &(Vec<PhysicalPool>, Vec<JobRecord>),
        helper: bool,
    ) -> String {
        let shadows = std::collections::HashSet::new();
        let ctx = ObsCtx {
            pools,
            jobs,
            shadows: &shadows,
        };
        let end = events.last().map_or(SimTime::ZERO, |&(t, _)| t);
        let mut checker: Box<dyn SimObserver> = Box::new(InvariantChecker::new());
        checker.on_run_start(SimTime::ZERO, &ctx);
        let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            if helper {
                let mut observers = vec![checker];
                let (mut relay, feed) = relay(&observers);
                for (now, event) in events {
                    relay.on_event(*now, event, &ctx);
                }
                // The stream fits one batch, so the channel holds it
                // until the feed below runs on this same thread.
                assert!(events.len() < RELAY_BATCH);
                let probe = hang_up(Box::new(relay)).expect("the relay probes for a checker");
                observers = feed.deliver(observers);
                hand_over(probe, &mut observers);
                observers[0].on_run_end(end, &ctx);
            } else {
                for (now, event) in events {
                    checker.on_event(*now, event, &ctx);
                }
                checker.on_run_end(end, &ctx);
            }
        }));
        let payload = ended.expect_err("the stream breaks a rule");
        payload
            .downcast_ref::<String>()
            .expect("the checker panics with a formatted message")
            .clone()
    }

    /// The violation `events` raise, the same on either path.
    fn same_violation(
        events: &[(SimTime, ObsEvent)],
        state: &(Vec<PhysicalPool>, Vec<JobRecord>),
    ) -> String {
        let inline = violation(events, state, false);
        let helper = violation(events, state, true);
        assert_eq!(inline, helper, "the two paths report differently");
        inline
    }

    #[test]
    fn busy_core_conservation_reads_the_same_on_either_path() {
        let mut events = dispatched(0);
        events.push(at(1, ObsEvent::Kernel { kind: "sample" }));
        let msg = same_violation(&events, &state(|_| {}));
        assert!(
            msg.starts_with(
                "invariant violated at t+1m: busy-core conservation broken in pool0: \
                 events say 1, pool says 0\nlast 5 observed events"
            ),
            "{msg}"
        );
    }

    #[test]
    fn resident_memory_reads_the_same_on_either_path() {
        // Suspension releases the core, so the pool's count agrees, but
        // the shadow keeps the job's memory on m0, which holds none.
        let mut events = dispatched(0);
        events.push(at(
            2,
            ObsEvent::Suspend {
                job: J0,
                pool: P0,
                machine: M0,
            },
        ));
        events.push(at(2, ObsEvent::Kernel { kind: "submit" }));
        let msg = same_violation(&events, &state(|_| {}));
        assert!(
            msg.starts_with(
                "invariant violated at t+2m: memory accounting broken on pool0/m0: \
                 events say 100 MB, machine says 0 MB\n"
            ),
            "{msg}"
        );
    }

    #[test]
    fn lifecycle_tiling_reads_the_same_on_either_path() {
        // The record was submitted five minutes after its spec says, so
        // its wait and run miss five minutes of the span.
        let state = state(|job| {
            let t = SimTime::from_minutes;
            job.submit(t(5)).unwrap();
            job.start(t(5), P0, M0, SimDuration::from_minutes(10))
                .unwrap();
            job.complete(t(15)).unwrap();
        });
        let mut events = dispatched(5);
        events.push(at(
            15,
            ObsEvent::Complete {
                job: J0,
                pool: P0,
                machine: M0,
            },
        ));
        let msg = same_violation(&events, &state);
        assert!(
            msg.starts_with(
                "invariant violated at t+15m: lifecycle tiling broken for job0: \
                 span 15m != wait 0m + suspend 0m + run 10m\n"
            ),
            "{msg}"
        );
    }

    #[test]
    fn the_sweeps_phase_cross_check_reads_the_same_on_either_path() {
        // The job is submitted by the events but its record was never
        // touched; the first deep sweep, DEEP_SWEEP_EVERY events in,
        // finds it still created.
        let mut events = vec![
            at(0, ObsEvent::Kernel { kind: "submit" }),
            at(0, ObsEvent::Submit { job: J0 }),
        ];
        for minute in 1..=DEEP_SWEEP_EVERY + 8 {
            events.push(at(minute, ObsEvent::Kernel { kind: "sample" }));
        }
        let msg = same_violation(&events, &state(|_| {}));
        // The marker at minute m is event m + 2.
        let swept = DEEP_SWEEP_EVERY - 2;
        assert!(
            msg.starts_with(&format!(
                "invariant violated at t+{swept}m: phase cross-check failed for job0: \
                 events imply AtVpm, record says created\n"
            )),
            "{msg}"
        );
    }

    #[test]
    fn pool_samples_carry_the_snapshot_readings() {
        let pool = PhysicalPool::new(netbatch_cluster::pool::PoolConfig::uniform(
            PoolId(3),
            2,
            4,
            1024,
        ));
        let s = PoolSnapshot::capture(&pool);
        let ObsEvent::PoolSample {
            pool: id,
            busy_cores,
            total_cores,
            machines,
            health_bits,
            ..
        } = ObsEvent::pool_sample(&pool)
        else {
            panic!("not a pool sample");
        };
        assert_eq!((id, busy_cores, total_cores), (PoolId(3), 0, 8));
        assert_eq!(machines, 2);
        assert_eq!(f64::from_bits(health_bits), s.health());
    }

    #[test]
    fn trace_lines_are_valid_shape() {
        let line = TraceRecorder::render(
            SimTime::from_minutes(7),
            &ObsEvent::Dispatch {
                job: JobId(3),
                pool: PoolId(1),
                machine: MachineId(0),
                wall: SimDuration::from_minutes(50),
                from_queue: true,
            },
        )
        .unwrap();
        assert_eq!(
            line,
            r#"{"t":7,"ev":"dispatch","job":3,"pool":1,"machine":0,"wall":50,"from_queue":true}"#
        );
        // Markers and pool samples are never rendered.
        assert!(
            TraceRecorder::render(SimTime::ZERO, &ObsEvent::Kernel { kind: "submit" }).is_none()
        );
        let pool = PhysicalPool::new(netbatch_cluster::pool::PoolConfig::uniform(
            PoolId(0),
            2,
            4,
            1024,
        ));
        assert!(TraceRecorder::render(SimTime::ZERO, &ObsEvent::pool_sample(&pool)).is_none());
        // Option fields render as JSON null.
        let resched = TraceRecorder::render(
            SimTime::ZERO,
            &ObsEvent::Reschedule {
                job: JobId(1),
                kind: ReschedKind::FailureEvict,
                from_pool: PoolId(2),
                machine: Some(MachineId(4)),
                from_phase: PhaseTag::Running,
                to: None,
                discarded: SimDuration::from_minutes(12),
            },
        )
        .unwrap();
        assert!(resched.contains(r#""to":null"#));
        assert!(resched.contains(r#""ev":"failure_evict""#));
    }
}
