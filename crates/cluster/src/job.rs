//! Jobs: static specification, pool affinity, and the lifecycle state
//! machine with the accounting the paper's metrics are computed from.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use netbatch_sim_engine::queue::EventId;
use netbatch_sim_engine::time::{SimDuration, SimTime};

use crate::ids::{JobId, PoolId, TaskId};
use crate::priority::Priority;

/// Which physical pools a job is allowed to run in.
///
/// Latency-sensitive high-priority jobs at Intel are "configured to only run
/// in specific sets of physical pools" (§2.3) — the root cause of suspension
/// bursts at 40% global utilization. `Any` jobs may run everywhere.
///
/// A `Subset` is shared: every job of a class points at its class's one
/// set, so cloning an affinity (and with it a [`JobSpec`]) bumps a
/// reference count and never allocates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum PoolAffinity {
    /// Eligible for every pool at the site.
    #[default]
    Any,
    /// Eligible only for the listed pools.
    Subset(Arc<[PoolId]>),
}

impl PoolAffinity {
    /// The affinity of a pool-id list in the trace convention: an empty
    /// list means any pool. Allocates the shared set; clone the result to
    /// hand it to further jobs.
    pub fn from_ids(ids: &[u16]) -> Self {
        if ids.is_empty() {
            PoolAffinity::Any
        } else {
            PoolAffinity::Subset(ids.iter().copied().map(PoolId).collect())
        }
    }

    /// The listed pools; empty for `Any` (the trace convention).
    pub fn pools(&self) -> &[PoolId] {
        match self {
            PoolAffinity::Any => &[],
            PoolAffinity::Subset(pools) => pools,
        }
    }

    /// Returns true if the job may run in `pool`.
    pub fn allows(&self, pool: PoolId) -> bool {
        match self {
            PoolAffinity::Any => true,
            PoolAffinity::Subset(pools) => pools.contains(&pool),
        }
    }

    /// Enumerates the candidate pools given the site has `n_pools` pools.
    pub fn candidates(&self, n_pools: u16) -> Vec<PoolId> {
        let mut out = Vec::new();
        self.candidates_into(n_pools, &mut out);
        out
    }

    /// Writes the candidate pools into `out` (cleared first) — the
    /// allocation-free variant the dispatch hot path uses with a scratch
    /// buffer.
    pub fn candidates_into(&self, n_pools: u16, out: &mut Vec<PoolId>) {
        out.clear();
        match self {
            PoolAffinity::Any => out.extend((0..n_pools).map(PoolId)),
            PoolAffinity::Subset(pools) => {
                out.extend(pools.iter().copied().filter(|p| p.as_u16() < n_pools))
            }
        }
    }
}

/// The resource footprint a job occupies while running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resources {
    /// Cores occupied while running (released while suspended).
    pub cores: u32,
    /// Resident memory in MB (retained while suspended — NetBatch suspension
    /// is SIGSTOP-style, the process stays on the host).
    pub memory_mb: u64,
}

impl Default for Resources {
    fn default() -> Self {
        Resources {
            cores: 1,
            memory_mb: 1024,
        }
    }
}

/// Immutable description of a job as submitted by a user.
///
/// Matches the fields the paper says the NetBatch trace carries: "computing
/// resource and memory requirements, submission time and priority".
///
/// # Examples
///
/// ```
/// use netbatch_cluster::job::JobSpec;
/// use netbatch_cluster::priority::Priority;
/// use netbatch_sim_engine::time::{SimDuration, SimTime};
///
/// let spec = JobSpec::new(7.into(), SimTime::ZERO, SimDuration::from_hours(3))
///     .with_priority(Priority::HIGH)
///     .with_cores(2);
/// assert_eq!(spec.resources.cores, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique job identifier.
    pub id: JobId,
    /// When the user submitted the job to the virtual pool manager.
    pub submit_time: SimTime,
    /// Pure compute time required on a reference (speed 1.0) machine.
    pub runtime: SimDuration,
    /// Core and memory footprint.
    pub resources: Resources,
    /// Scheduling priority (ownership class).
    pub priority: Priority,
    /// Pools this job may execute in.
    pub affinity: PoolAffinity,
    /// Optional task grouping (§2.2: a task's result needs all its jobs).
    pub task: Option<TaskId>,
}

impl JobSpec {
    /// Creates a spec with default footprint (1 core, 1 GB), low priority
    /// and no affinity restriction.
    pub fn new(id: JobId, submit_time: SimTime, runtime: SimDuration) -> Self {
        JobSpec {
            id,
            submit_time,
            runtime,
            resources: Resources::default(),
            priority: Priority::LOW,
            affinity: PoolAffinity::Any,
            task: None,
        }
    }

    /// Sets the priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the core requirement.
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.resources.cores = cores;
        self
    }

    /// Sets the memory requirement in MB.
    pub fn with_memory_mb(mut self, memory_mb: u64) -> Self {
        self.resources.memory_mb = memory_mb;
        self
    }

    /// Restricts the job to a set of pools.
    pub fn with_affinity(mut self, affinity: PoolAffinity) -> Self {
        self.affinity = affinity;
        self
    }

    /// Assigns the job to a task group.
    pub fn with_task(mut self, task: TaskId) -> Self {
        self.task = Some(task);
        self
    }
}

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobPhase {
    /// Known to the simulator but not yet submitted.
    Created,
    /// At the virtual pool manager, being routed (also the transient state
    /// between a rescheduling decision and re-submission).
    AtVpm,
    /// Waiting in a physical pool's queue.
    Waiting {
        /// The pool whose queue holds the job.
        pool: PoolId,
    },
    /// Executing on a machine.
    Running {
        /// The hosting pool.
        pool: PoolId,
        /// The hosting machine (pool-local id).
        machine: crate::ids::MachineId,
    },
    /// Preempted by a higher-priority job; resident but stopped.
    Suspended {
        /// The hosting pool.
        pool: PoolId,
        /// The machine the job is suspended on.
        machine: crate::ids::MachineId,
    },
    /// Finished successfully.
    Completed,
}

impl JobPhase {
    /// Short human-readable name, used in logs and error messages.
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Created => "created",
            JobPhase::AtVpm => "at-vpm",
            JobPhase::Waiting { .. } => "waiting",
            JobPhase::Running { .. } => "running",
            JobPhase::Suspended { .. } => "suspended",
            JobPhase::Completed => "completed",
        }
    }
}

/// Error returned when a lifecycle method is called in the wrong phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseError {
    /// The job in question.
    pub job: JobId,
    /// The operation that was attempted.
    pub operation: &'static str,
    /// The phase the job was actually in.
    pub actual: &'static str,
}

impl fmt::Display for PhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid lifecycle operation `{}` on {} in phase `{}`",
            self.operation, self.job, self.actual
        )
    }
}

impl Error for PhaseError {}

/// A job's dynamic state: phase plus the time accounting that the paper's
/// metrics (AvgCT, AvgST, AvgWCT and its three components) are built from.
///
/// The record is a strict state machine; every transition method validates
/// the current phase and returns a [`PhaseError`] on misuse, which keeps
/// accounting bugs loud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    spec: JobSpec,
    phase: JobPhase,
    /// When the job entered its current phase.
    phase_since: SimTime,
    /// Wall-clock minutes of execution left in the *current attempt* on the
    /// current machine (scaled by machine speed at start).
    remaining_wall: SimDuration,
    /// Wall-clock length of the current attempt as started (for computing
    /// discarded progress on restart).
    attempt_wall: SimDuration,
    // ---- accounting ----
    wait_total: SimDuration,
    suspend_total: SimDuration,
    run_total: SimDuration,
    /// Execution progress thrown away by restarts, plus any restart overhead.
    resched_waste: SimDuration,
    suspensions: u32,
    restarts_from_suspend: u32,
    restarts_from_wait: u32,
    migrations: u32,
    first_started_at: Option<SimTime>,
    completed_at: Option<SimTime>,
    /// Pending completion event in the simulator's queue, if running.
    pub completion_event: Option<EventId>,
    /// Pending wait-threshold timer, if any.
    pub wait_timer_event: Option<EventId>,
    /// Wait-threshold timers armed in the current waiting stint (a
    /// livelock guard; reset when the job starts).
    pub wait_checks: u32,
}

impl JobRecord {
    /// Creates a record in the `Created` phase.
    pub fn new(spec: JobSpec) -> Self {
        JobRecord {
            phase: JobPhase::Created,
            phase_since: spec.submit_time,
            remaining_wall: SimDuration::ZERO,
            attempt_wall: SimDuration::ZERO,
            wait_total: SimDuration::ZERO,
            suspend_total: SimDuration::ZERO,
            run_total: SimDuration::ZERO,
            resched_waste: SimDuration::ZERO,
            suspensions: 0,
            restarts_from_suspend: 0,
            restarts_from_wait: 0,
            migrations: 0,
            first_started_at: None,
            completed_at: None,
            completion_event: None,
            wait_timer_event: None,
            wait_checks: 0,
            spec,
        }
    }

    /// The immutable spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The job id.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// Current phase.
    pub fn phase(&self) -> JobPhase {
        self.phase
    }

    /// When the job entered its current phase.
    pub fn phase_since(&self) -> SimTime {
        self.phase_since
    }

    /// Wall time left in the current attempt (meaningful when running or
    /// suspended).
    pub fn remaining_wall(&self) -> SimDuration {
        self.remaining_wall
    }

    /// Wall-clock progress accrued in the current attempt as of the last
    /// accounting update — the amount a restart from the suspended state
    /// would discard. For a running job this excludes the time since the
    /// last suspend/resume boundary (callers add `now - phase_since()`).
    pub fn attempt_progress(&self) -> SimDuration {
        self.attempt_wall - self.remaining_wall
    }

    fn err(&self, operation: &'static str) -> PhaseError {
        PhaseError {
            job: self.spec.id,
            operation,
            actual: self.phase.name(),
        }
    }

    /// Created → AtVpm: the user's submission reaches the virtual pool
    /// manager.
    pub fn submit(&mut self, now: SimTime) -> Result<(), PhaseError> {
        if self.phase != JobPhase::Created {
            return Err(self.err("submit"));
        }
        self.phase = JobPhase::AtVpm;
        self.phase_since = now;
        Ok(())
    }

    /// AtVpm → Waiting: the physical pool queued the job.
    pub fn enqueue(&mut self, now: SimTime, pool: PoolId) -> Result<(), PhaseError> {
        if self.phase != JobPhase::AtVpm {
            return Err(self.err("enqueue"));
        }
        self.wait_total += now.since(self.phase_since);
        self.phase = JobPhase::Waiting { pool };
        self.phase_since = now;
        Ok(())
    }

    /// AtVpm/Waiting → Running: a machine started the job. `wall` is the
    /// attempt's wall-clock length on that machine (runtime scaled by the
    /// machine's speed).
    pub fn start(
        &mut self,
        now: SimTime,
        pool: PoolId,
        machine: crate::ids::MachineId,
        wall: SimDuration,
    ) -> Result<(), PhaseError> {
        match self.phase {
            JobPhase::AtVpm | JobPhase::Waiting { .. } => {
                self.wait_total += now.since(self.phase_since);
                self.phase = JobPhase::Running { pool, machine };
                self.phase_since = now;
                self.remaining_wall = wall;
                self.attempt_wall = wall;
                self.first_started_at.get_or_insert(now);
                Ok(())
            }
            _ => Err(self.err("start")),
        }
    }

    /// Running → Suspended: preempted by a higher-priority job.
    pub fn suspend(&mut self, now: SimTime) -> Result<(), PhaseError> {
        let JobPhase::Running { pool, machine } = self.phase else {
            return Err(self.err("suspend"));
        };
        let elapsed = now.since(self.phase_since);
        self.run_total += elapsed;
        self.remaining_wall = self.remaining_wall.saturating_sub(elapsed);
        self.suspensions += 1;
        self.phase = JobPhase::Suspended { pool, machine };
        self.phase_since = now;
        Ok(())
    }

    /// Suspended → Running: capacity freed on the hosting machine and the
    /// job continues where it stopped.
    pub fn resume(&mut self, now: SimTime) -> Result<(), PhaseError> {
        let JobPhase::Suspended { pool, machine } = self.phase else {
            return Err(self.err("resume"));
        };
        self.suspend_total += now.since(self.phase_since);
        self.phase = JobPhase::Running { pool, machine };
        self.phase_since = now;
        Ok(())
    }

    /// Running → Completed.
    pub fn complete(&mut self, now: SimTime) -> Result<(), PhaseError> {
        let JobPhase::Running { .. } = self.phase else {
            return Err(self.err("complete"));
        };
        let elapsed = now.since(self.phase_since);
        self.run_total += elapsed;
        self.remaining_wall = self.remaining_wall.saturating_sub(elapsed);
        debug_assert!(
            self.remaining_wall.is_zero(),
            "{} completed with {} wall time left",
            self.spec.id,
            self.remaining_wall
        );
        self.phase = JobPhase::Completed;
        self.phase_since = now;
        self.completed_at = Some(now);
        Ok(())
    }

    /// Suspended/Waiting/Running → AtVpm: the job is pulled out of its pool
    /// to restart elsewhere — a rescheduling decision (Suspended/Waiting)
    /// or a machine failure (Running). Progress from the current attempt is
    /// discarded and accounted as rescheduling waste, plus
    /// `restart_overhead` (data/binary transfer cost — zero in the paper's
    /// experiments, exposed as an extension knob).
    pub fn abort_for_restart(
        &mut self,
        now: SimTime,
        restart_overhead: SimDuration,
    ) -> Result<(), PhaseError> {
        match self.phase {
            JobPhase::Suspended { .. } => {
                self.suspend_total += now.since(self.phase_since);
                let progress = self.attempt_wall - self.remaining_wall;
                self.resched_waste += progress + restart_overhead;
                self.restarts_from_suspend += 1;
            }
            JobPhase::Waiting { .. } => {
                self.wait_total += now.since(self.phase_since);
                self.resched_waste += restart_overhead;
                self.restarts_from_wait += 1;
            }
            JobPhase::Running { .. } => {
                let elapsed = now.since(self.phase_since);
                self.run_total += elapsed;
                self.remaining_wall = self.remaining_wall.saturating_sub(elapsed);
                let progress = self.attempt_wall - self.remaining_wall;
                self.resched_waste += progress + restart_overhead;
            }
            _ => return Err(self.err("abort_for_restart")),
        }
        self.remaining_wall = SimDuration::ZERO;
        self.attempt_wall = SimDuration::ZERO;
        self.phase = JobPhase::AtVpm;
        self.phase_since = now;
        Ok(())
    }

    /// Suspended → AtVpm, *keeping progress*: a migration decision. The
    /// transfer `delay` is accounted as rescheduling waste (time the job
    /// exists without progressing). Returns the remaining wall time the
    /// caller must resubmit with.
    pub fn migrate_out(
        &mut self,
        now: SimTime,
        delay: SimDuration,
    ) -> Result<SimDuration, PhaseError> {
        let JobPhase::Suspended { .. } = self.phase else {
            return Err(self.err("migrate_out"));
        };
        self.suspend_total += now.since(self.phase_since);
        self.resched_waste += delay;
        self.migrations += 1;
        let remaining = self.remaining_wall;
        self.remaining_wall = SimDuration::ZERO;
        self.attempt_wall = SimDuration::ZERO;
        self.phase = JobPhase::AtVpm;
        self.phase_since = now;
        Ok(remaining)
    }

    /// Any active phase → Completed, because an equivalent copy of the job
    /// finished elsewhere (job duplication). Closes the current accounting
    /// segment and stamps the completion time.
    pub fn finish_by_proxy(&mut self, now: SimTime) -> Result<(), PhaseError> {
        if matches!(self.phase, JobPhase::Created | JobPhase::Completed) {
            return Err(self.err("finish_by_proxy"));
        }
        let elapsed = now.since(self.phase_since);
        match self.phase {
            JobPhase::Running { .. } => self.run_total += elapsed,
            JobPhase::Suspended { .. } => self.suspend_total += elapsed,
            JobPhase::Waiting { .. } | JobPhase::AtVpm => self.wait_total += elapsed,
            JobPhase::Created | JobPhase::Completed => unreachable!("checked above"),
        }
        self.remaining_wall = SimDuration::ZERO;
        self.attempt_wall = SimDuration::ZERO;
        self.phase = JobPhase::Completed;
        self.phase_since = now;
        self.completed_at = Some(now);
        Ok(())
    }

    /// Charges waste incurred on the job's behalf elsewhere (e.g. the
    /// discarded work of a cancelled duplicate copy).
    pub fn add_external_waste(&mut self, waste: SimDuration) {
        self.resched_waste += waste;
    }

    /// Number of times the job migrated between pools with its progress.
    pub fn migrations(&self) -> u32 {
        self.migrations
    }

    // ---- metric accessors ----

    /// True once the job has completed.
    pub fn is_completed(&self) -> bool {
        self.phase == JobPhase::Completed
    }

    /// True if the job was preempted at least once (the paper's "suspended
    /// jobs" population).
    pub fn was_suspended(&self) -> bool {
        self.suspensions > 0
    }

    /// Number of times the job was preempted.
    pub fn suspensions(&self) -> u32 {
        self.suspensions
    }

    /// Number of restarts triggered while suspended.
    pub fn restarts_from_suspend(&self) -> u32 {
        self.restarts_from_suspend
    }

    /// Number of restarts triggered while waiting in a queue.
    pub fn restarts_from_wait(&self) -> u32 {
        self.restarts_from_wait
    }

    /// Completion time (submission → completion), the paper's CT.
    /// `None` until completed.
    pub fn completion_time(&self) -> Option<SimDuration> {
        self.completed_at.map(|t| t.since(self.spec.submit_time))
    }

    /// Total time spent waiting (virtual or physical pool level) — waste
    /// component (c1).
    pub fn wait_time(&self) -> SimDuration {
        self.wait_total
    }

    /// Total time spent suspended — waste component (c2).
    pub fn suspend_time(&self) -> SimDuration {
        self.suspend_total
    }

    /// Completion time wasted by restarts — waste component (c3).
    pub fn resched_waste(&self) -> SimDuration {
        self.resched_waste
    }

    /// Total productive execution time across all attempts.
    pub fn run_time(&self) -> SimDuration {
        self.run_total
    }

    /// Wasted completion time: the duration the job existed in NetBatch
    /// without making progress towards completion (c1 + c2 + c3).
    pub fn wasted_completion_time(&self) -> SimDuration {
        self.wait_total + self.suspend_total + self.resched_waste
    }

    /// When the job first started executing, if ever.
    pub fn first_started_at(&self) -> Option<SimTime> {
        self.first_started_at
    }

    /// When the job completed, if it has.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MachineId;

    fn spec(runtime_min: u64) -> JobSpec {
        JobSpec::new(
            JobId(1),
            SimTime::from_minutes(10),
            SimDuration::from_minutes(runtime_min),
        )
    }

    fn t(m: u64) -> SimTime {
        SimTime::from_minutes(m)
    }

    fn d(m: u64) -> SimDuration {
        SimDuration::from_minutes(m)
    }

    #[test]
    fn happy_path_accounting() {
        let mut r = JobRecord::new(spec(100));
        r.submit(t(10)).unwrap();
        r.enqueue(t(10), PoolId(0)).unwrap();
        r.start(t(30), PoolId(0), MachineId(2), d(100)).unwrap();
        r.complete(t(130)).unwrap();
        assert_eq!(r.wait_time(), d(20));
        assert_eq!(r.run_time(), d(100));
        assert_eq!(r.suspend_time(), SimDuration::ZERO);
        assert_eq!(r.completion_time(), Some(d(120)));
        assert_eq!(r.wasted_completion_time(), d(20));
        assert!(!r.was_suspended());
    }

    #[test]
    fn suspension_and_resume_accounting() {
        let mut r = JobRecord::new(spec(100));
        r.submit(t(10)).unwrap();
        r.start(t(10), PoolId(0), MachineId(0), d(100)).unwrap();
        r.suspend(t(40)).unwrap(); // ran 30, 70 left
        assert_eq!(r.remaining_wall(), d(70));
        r.resume(t(100)).unwrap(); // suspended 60
        r.complete(t(170)).unwrap();
        assert_eq!(r.suspend_time(), d(60));
        assert_eq!(r.run_time(), d(100));
        assert_eq!(r.suspensions(), 1);
        assert!(r.was_suspended());
        assert_eq!(r.completion_time(), Some(d(160)));
        assert_eq!(r.wasted_completion_time(), d(60));
    }

    #[test]
    fn restart_from_suspension_discards_progress() {
        let mut r = JobRecord::new(spec(100));
        r.submit(t(10)).unwrap();
        r.start(t(10), PoolId(0), MachineId(0), d(100)).unwrap();
        r.suspend(t(40)).unwrap(); // 30 min of progress
        r.abort_for_restart(t(50), SimDuration::ZERO).unwrap(); // 10 min suspended
        assert_eq!(r.suspend_time(), d(10));
        assert_eq!(r.resched_waste(), d(30));
        assert_eq!(r.restarts_from_suspend(), 1);
        // Restart in another pool from scratch.
        r.start(t(55), PoolId(1), MachineId(7), d(100)).unwrap();
        r.complete(t(155)).unwrap();
        assert_eq!(r.run_time(), d(130)); // 30 wasted + 100 useful
        assert_eq!(r.wait_time(), d(5)); // AtVpm 50→55
        assert_eq!(r.wasted_completion_time(), d(10) + d(30) + d(5));
    }

    #[test]
    fn restart_overhead_is_counted_as_waste() {
        let mut r = JobRecord::new(spec(100));
        r.submit(t(10)).unwrap();
        r.enqueue(t(10), PoolId(0)).unwrap();
        r.abort_for_restart(t(60), d(15)).unwrap();
        assert_eq!(r.wait_time(), d(50));
        assert_eq!(r.resched_waste(), d(15));
        assert_eq!(r.restarts_from_wait(), 1);
    }

    #[test]
    fn multiple_suspensions_accumulate() {
        let mut r = JobRecord::new(spec(60));
        r.submit(t(0)).unwrap();
        r.start(t(0), PoolId(0), MachineId(0), d(60)).unwrap();
        r.suspend(t(10)).unwrap();
        r.resume(t(20)).unwrap();
        r.suspend(t(30)).unwrap();
        r.resume(t(50)).unwrap();
        r.complete(t(90)).unwrap();
        assert_eq!(r.suspensions(), 2);
        assert_eq!(r.suspend_time(), d(30));
        assert_eq!(r.run_time(), d(60));
        // Lifecycle from the spec's submit_time (t=10) to completion (t=90):
        // run 60 + suspend 30 tiles the 0..90 wall window.
        assert_eq!(r.completion_time(), Some(d(80)));
    }

    #[test]
    fn abort_from_running_accounts_failure_waste() {
        let mut r = JobRecord::new(spec(100));
        r.submit(t(10)).unwrap();
        r.start(t(10), PoolId(0), MachineId(0), d(100)).unwrap();
        // Machine dies 30 minutes in.
        r.abort_for_restart(t(40), SimDuration::ZERO).unwrap();
        assert_eq!(r.run_time(), d(30));
        assert_eq!(r.resched_waste(), d(30));
        assert_eq!(r.restarts_from_suspend(), 0);
        // Restart from scratch elsewhere.
        r.start(t(45), PoolId(1), MachineId(0), d(100)).unwrap();
        r.complete(t(145)).unwrap();
        assert_eq!(r.run_time(), d(130));
        assert_eq!(r.completion_time(), Some(d(135)));
    }

    #[test]
    fn migration_keeps_progress_and_charges_delay() {
        let mut r = JobRecord::new(spec(100));
        r.submit(t(10)).unwrap();
        r.start(t(10), PoolId(0), MachineId(0), d(100)).unwrap();
        r.suspend(t(40)).unwrap(); // 60 left
        let remaining = r.migrate_out(t(50), d(15)).unwrap();
        assert_eq!(remaining, d(70));
        assert_eq!(r.suspend_time(), d(10));
        assert_eq!(r.resched_waste(), d(15), "only the transfer delay is waste");
        assert_eq!(r.migrations(), 1);
        // Resume elsewhere with the remaining work.
        r.start(t(65), PoolId(1), MachineId(0), d(70)).unwrap();
        r.complete(t(135)).unwrap();
        assert_eq!(r.run_time(), d(100), "no progress lost");
    }

    #[test]
    fn finish_by_proxy_closes_any_active_phase() {
        // Suspended original finished by its duplicate.
        let mut r = JobRecord::new(spec(100));
        r.submit(t(0)).unwrap();
        r.start(t(0), PoolId(0), MachineId(0), d(100)).unwrap();
        r.suspend(t(30)).unwrap();
        r.finish_by_proxy(t(80)).unwrap();
        assert!(r.is_completed());
        assert_eq!(r.suspend_time(), d(50));
        // The spec helper submits at t=10, so CT = 80 - 10.
        assert_eq!(r.completion_time(), Some(d(70)));
        // Waiting original finished by its duplicate.
        let mut w = JobRecord::new(spec(100));
        w.submit(t(0)).unwrap();
        w.enqueue(t(0), PoolId(0)).unwrap();
        w.finish_by_proxy(t(40)).unwrap();
        assert_eq!(w.wait_time(), d(40));
        // Completed jobs cannot be proxy-finished again.
        assert!(w.finish_by_proxy(t(50)).is_err());
    }

    #[test]
    fn external_waste_is_added() {
        let mut r = JobRecord::new(spec(10));
        r.add_external_waste(d(25));
        assert_eq!(r.resched_waste(), d(25));
    }

    #[test]
    fn invalid_transitions_error() {
        let mut r = JobRecord::new(spec(10));
        assert!(r.enqueue(t(0), PoolId(0)).is_err());
        assert!(r.suspend(t(0)).is_err());
        assert!(r.resume(t(0)).is_err());
        assert!(r.complete(t(0)).is_err());
        assert!(r.abort_for_restart(t(0), SimDuration::ZERO).is_err());
        r.submit(t(10)).unwrap();
        assert!(r.submit(t(11)).is_err());
        let err = r.complete(t(12)).unwrap_err();
        assert_eq!(err.actual, "at-vpm");
        assert!(err.to_string().contains("complete"));
    }

    #[test]
    fn phase_names_cover_all_variants() {
        assert_eq!(JobPhase::Created.name(), "created");
        assert_eq!(JobPhase::Completed.name(), "completed");
        assert_eq!(
            JobPhase::Running {
                pool: PoolId(0),
                machine: MachineId(0)
            }
            .name(),
            "running"
        );
    }

    #[test]
    fn affinity_allows_and_candidates() {
        let any = PoolAffinity::Any;
        assert!(any.allows(PoolId(7)));
        assert_eq!(any.candidates(20).len(), 20);
        assert!(any.pools().is_empty());
        // Two jobs of one class share the set; both read it alike.
        let subset = PoolAffinity::from_ids(&[1, 3, 99]);
        let shared = subset.clone();
        let (PoolAffinity::Subset(a), PoolAffinity::Subset(b)) = (&subset, &shared) else {
            panic!("a non-empty id list is a subset")
        };
        assert!(Arc::ptr_eq(a, b), "cloning shares the set");
        for affinity in [&subset, &shared] {
            assert!(affinity.allows(PoolId(3)));
            assert!(!affinity.allows(PoolId(2)));
            // Out-of-range pools are filtered out of the candidate set.
            let mut out = vec![PoolId(5)];
            affinity.candidates_into(20, &mut out);
            assert_eq!(out, vec![PoolId(1), PoolId(3)]);
            assert_eq!(affinity.pools(), &[PoolId(1), PoolId(3), PoolId(99)]);
        }
        assert_eq!(PoolAffinity::from_ids(&[]), PoolAffinity::Any);
    }

    #[test]
    fn shared_affinity_keeps_spec_and_record_small() {
        // One fat pointer: the empty variant lives in its null niche.
        assert_eq!(std::mem::size_of::<PoolAffinity>(), 16);
        let set = PoolAffinity::from_ids(&[0]);
        let spec = spec(1).with_affinity(set.clone());
        let record = JobRecord::new(spec.clone());
        let (PoolAffinity::Subset(a), PoolAffinity::Subset(b)) = (&set, &record.spec().affinity)
        else {
            panic!("subset affinity")
        };
        assert!(
            Arc::ptr_eq(a, b),
            "spec and record point at the class's set"
        );
        assert_eq!(Arc::strong_count(a), 3);
    }

    #[test]
    fn spec_builder_methods() {
        let s = spec(5)
            .with_priority(Priority::HIGH)
            .with_cores(4)
            .with_memory_mb(8192)
            .with_task(TaskId(3))
            .with_affinity(PoolAffinity::from_ids(&[0]));
        assert_eq!(s.priority, Priority::HIGH);
        assert_eq!(s.resources.cores, 4);
        assert_eq!(s.resources.memory_mb, 8192);
        assert_eq!(s.task, Some(TaskId(3)));
        assert!(!s.affinity.allows(PoolId(1)));
    }
}
