//! A single multi-core compute machine: capacity tracking, residency, and
//! host-level preemption planning.
//!
//! Semantics pinned here (documented in DESIGN.md §3): a **running** job
//! holds cores and memory; a **suspended** job releases its cores but stays
//! resident in memory (NetBatch suspension is SIGSTOP-style — the process
//! remains on the host and resumes there when capacity frees up).

use std::fmt;

use netbatch_sim_engine::time::{SimDuration, SimTime};

use crate::ids::{JobId, MachineId};
use crate::job::Resources;
use crate::priority::Priority;

/// Static description of a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Pool-local identifier.
    pub id: MachineId,
    /// Number of cores.
    pub cores: u32,
    /// Physical memory in MB.
    pub memory_mb: u64,
    /// CPU speed as a per-mille factor relative to the reference machine
    /// (1000 = 1.0×). A job with base runtime `r` takes `ceil(r / speed)`
    /// wall minutes here. NetBatch pools contain machines "with varying CPU
    /// speed and memory" (§3.1).
    pub speed_milli: u32,
}

impl MachineConfig {
    /// A reference-speed machine.
    pub fn new(id: MachineId, cores: u32, memory_mb: u64) -> Self {
        MachineConfig {
            id,
            cores,
            memory_mb,
            speed_milli: 1000,
        }
    }

    /// Sets the speed factor in per-mille (500 = half speed, 2000 = double).
    ///
    /// # Panics
    ///
    /// Panics if `speed_milli` is zero.
    pub fn with_speed_milli(mut self, speed_milli: u32) -> Self {
        assert!(speed_milli > 0, "machine speed must be positive");
        self.speed_milli = speed_milli;
        self
    }

    /// Wall-clock duration of a job with the given base runtime on this
    /// machine (rounded up to whole minutes, minimum 1 minute).
    pub fn scaled_wall(&self, runtime: SimDuration) -> SimDuration {
        let base = runtime.as_minutes();
        let scaled = (base * 1000).div_ceil(u64::from(self.speed_milli));
        SimDuration::from_minutes(scaled.max(1))
    }
}

/// Reusable sort-key buffer for preemption planning and resume ordering:
/// `(priority, since, list position, job, cores)` per resident. The pool
/// owns one and threads it through [`Machine::preemption_plan_into`] /
/// [`Machine::resumable_into`] so the dispatch hot path never allocates.
/// The list position makes the key a total order, letting an in-place
/// unstable sort reproduce exactly what a stable sort over the resident
/// list would produce.
pub type ResidentKeys = Vec<(Priority, SimTime, u32, JobId, u32)>;

/// A job resident on a machine (running or suspended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resident {
    /// The resident job.
    pub job: JobId,
    /// Its resource footprint.
    pub resources: Resources,
    /// Its priority (used for preemption planning).
    pub priority: Priority,
    /// When it entered its current residency state (start or suspension
    /// instant).
    pub since: SimTime,
}

/// Dynamic machine state.
pub struct Machine {
    config: MachineConfig,
    running: Vec<Resident>,
    suspended: Vec<Resident>,
    cores_used: u32,
    memory_used: u64,
    down: bool,
    /// Draining (or cordoned): the machine accepts no new work, but
    /// resident jobs keep running (and may resume) until they finish or
    /// the drain deadline kills the host.
    draining: bool,
    /// Probe-derived health score in per-mille (1000 = perfectly healthy).
    /// Static per run; only weights pool-level effective capacity, never
    /// gates placement feasibility.
    health_milli: u32,
    /// Cached minimum over `running[..].priority`, kept current on every
    /// start/suspend/release/resume/fail so the pool's preemption planner
    /// can skip machines (and whole pools) with nothing preemptible in
    /// O(1) instead of walking residents.
    min_running_prio: Option<Priority>,
}

impl Machine {
    /// Creates an idle machine.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            config,
            running: Vec::new(),
            suspended: Vec::new(),
            cores_used: 0,
            memory_used: 0,
            down: false,
            draining: false,
            health_milli: 1000,
            min_running_prio: None,
        }
    }

    /// True if the machine is failed/offline.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// True if the machine is draining or cordoned (no new placements;
    /// residents may keep running and resuming).
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Starts draining (or cordons) the machine: no new work lands here,
    /// residents stay.
    pub fn start_drain(&mut self) {
        self.draining = true;
    }

    /// Ends a drain/cordon without a restart (the machine never went
    /// down); new work may land again.
    pub fn end_drain(&mut self) {
        self.draining = false;
    }

    /// Probe-derived health score in per-mille (1000 = healthy).
    pub fn health_milli(&self) -> u32 {
        self.health_milli
    }

    /// Sets the per-run health score (clamped to 0..=1000).
    pub fn set_health_milli(&mut self, health_milli: u32) {
        self.health_milli = health_milli.min(1000);
    }

    /// Fails the machine: every resident job (running or suspended) is
    /// evicted, so read [`Machine::running`] and [`Machine::suspended`]
    /// first; the machine accepts no work until [`Machine::restore`].
    pub fn fail(&mut self) {
        self.down = true;
        self.cores_used = 0;
        self.memory_used = 0;
        self.min_running_prio = None;
        self.running.clear();
        self.suspended.clear();
    }

    /// Brings a failed machine back online, empty. Any drain/cordon in
    /// force stays in force: lifecycle plans end drains with an explicit
    /// drain-end, so a fault restore inside a cordon window cannot
    /// silently reopen the machine.
    pub fn restore(&mut self) {
        self.down = false;
    }

    /// The static configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Machine id.
    pub fn id(&self) -> MachineId {
        self.config.id
    }

    /// Cores currently occupied by running jobs.
    pub fn cores_used(&self) -> u32 {
        self.cores_used
    }

    /// Cores currently free.
    pub fn cores_free(&self) -> u32 {
        self.config.cores - self.cores_used
    }

    /// Memory currently occupied (running **and** suspended residents).
    pub fn memory_used(&self) -> u64 {
        self.memory_used
    }

    /// Memory currently free.
    pub fn memory_free(&self) -> u64 {
        self.config.memory_mb - self.memory_used
    }

    /// Jobs currently running here.
    pub fn running(&self) -> &[Resident] {
        &self.running
    }

    /// Jobs currently suspended here.
    pub fn suspended(&self) -> &[Resident] {
        &self.suspended
    }

    /// The lowest priority among jobs currently running here (`None` when
    /// idle). Cached, so O(1) — the pool's preemption short-circuit reads
    /// this for every eligible machine.
    pub fn min_running_priority(&self) -> Option<Priority> {
        self.min_running_prio
    }

    /// Recomputes the cached running-priority minimum after a resident
    /// carrying the current minimum leaves the running set.
    fn refresh_min_running(&mut self, departed: Priority) {
        if self.min_running_prio == Some(departed) {
            self.min_running_prio = self.running.iter().map(|r| r.priority).min();
        }
    }

    /// True if the machine could run the footprint when completely idle —
    /// the *eligibility* test (job requirements vs machine capability).
    /// Deliberately ignores downtime: a failed machine is still *capable*,
    /// so jobs queue for it rather than bouncing as unrunnable.
    pub fn can_ever_run(&self, res: Resources) -> bool {
        res.cores <= self.config.cores && res.memory_mb <= self.config.memory_mb
    }

    /// True if the footprint fits right now without preemption — the
    /// *availability* test.
    pub fn can_run_now(&self, res: Resources) -> bool {
        !self.down
            && !self.draining
            && res.cores <= self.cores_free()
            && res.memory_mb <= self.memory_free()
    }

    /// Plans a preemption: which running jobs must be suspended so that a
    /// job with footprint `res` and priority `priority` fits. Writes the
    /// victim list (possibly empty if the job already fits) into `victims`
    /// and returns whether a feasible plan exists. `keys` is a reusable
    /// sort buffer owned by the caller; both buffers are cleared first.
    ///
    /// Only **strictly lower-priority** jobs are candidates. Victims are
    /// chosen lowest-priority-first, most-recently-started-first (minimizing
    /// discarded progress), original list position as the final
    /// tie-break. Suspension frees cores but *not* memory, so if free
    /// memory is insufficient the plan fails regardless of victims.
    pub fn preemption_plan_into(
        &self,
        res: Resources,
        priority: Priority,
        keys: &mut ResidentKeys,
        victims: &mut Vec<JobId>,
    ) -> bool {
        victims.clear();
        if self.down
            || self.draining
            || !self.can_ever_run(res)
            || res.memory_mb > self.memory_free()
        {
            return false;
        }
        if res.cores <= self.cores_free() {
            return true;
        }
        let needed = res.cores - self.cores_free();
        // Every candidate suspended still frees too few cores: no plan,
        // and no need to build and sort the keys to find that out.
        let preemptible: u32 = self
            .running
            .iter()
            .filter(|r| priority.can_preempt(r.priority))
            .map(|r| r.resources.cores)
            .sum();
        if preemptible < needed {
            return false;
        }
        keys.clear();
        keys.extend(
            self.running
                .iter()
                .enumerate()
                .filter(|(_, r)| priority.can_preempt(r.priority))
                .map(|(i, r)| (r.priority, r.since, i as u32, r.job, r.resources.cores)),
        );
        // Lowest priority first; among equals, most recently started first.
        keys.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        let mut freed = 0u32;
        for &(_, _, _, job, cores) in keys.iter() {
            if freed >= needed {
                break;
            }
            freed += cores;
            victims.push(job);
        }
        debug_assert!(freed >= needed, "the candidates cover the need");
        true
    }

    /// Starts a job on this machine.
    ///
    /// # Panics
    ///
    /// Panics if the footprint does not currently fit — callers must check
    /// [`Machine::can_run_now`] (or execute a preemption plan) first.
    pub fn start(&mut self, now: SimTime, job: JobId, res: Resources, priority: Priority) {
        assert!(
            self.can_run_now(res),
            "start called without capacity on {} for {}",
            self.config.id,
            job
        );
        self.cores_used += res.cores;
        self.memory_used += res.memory_mb;
        self.min_running_prio = Some(self.min_running_prio.map_or(priority, |m| m.min(priority)));
        self.running.push(Resident {
            job,
            resources: res,
            priority,
            since: now,
        });
    }

    /// Suspends a running job in place: cores are freed, memory stays
    /// resident.
    ///
    /// Returns the resident entry, or `None` if the job is not running here.
    pub fn suspend(&mut self, now: SimTime, job: JobId) -> Option<Resident> {
        let idx = self.running.iter().position(|r| r.job == job)?;
        let mut r = self.running.swap_remove(idx);
        self.cores_used -= r.resources.cores;
        self.refresh_min_running(r.priority);
        r.since = now;
        self.suspended.push(r);
        Some(r)
    }

    /// Resumes a suspended job (cores are re-acquired).
    ///
    /// Returns `None` (leaving state untouched) if the job is not suspended
    /// here or its cores no longer fit.
    pub fn resume(&mut self, now: SimTime, job: JobId) -> Option<Resident> {
        let idx = self.suspended.iter().position(|r| r.job == job)?;
        if self.suspended[idx].resources.cores > self.cores_free() {
            return None;
        }
        let mut r = self.suspended.swap_remove(idx);
        self.cores_used += r.resources.cores;
        self.min_running_prio = Some(
            self.min_running_prio
                .map_or(r.priority, |m| m.min(r.priority)),
        );
        r.since = now;
        self.running.push(r);
        Some(r)
    }

    /// The suspended jobs that could be resumed with current free cores,
    /// written into `out` in resume order: highest priority first,
    /// earliest-suspended first, original list position as the tie-break.
    /// `keys` is the caller's reusable sort buffer; both are cleared first.
    pub fn resumable_into(&self, keys: &mut ResidentKeys, out: &mut Vec<JobId>) {
        out.clear();
        keys.clear();
        keys.extend(
            self.suspended
                .iter()
                .enumerate()
                .map(|(i, r)| (r.priority, r.since, i as u32, r.job, r.resources.cores)),
        );
        keys.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut free = self.cores_free();
        for &(_, _, _, job, cores) in keys.iter() {
            if cores <= free {
                free -= cores;
                out.push(job);
            }
        }
    }

    /// Removes a running job (completion): frees cores and memory.
    ///
    /// Returns the resident entry, or `None` if the job is not running here.
    pub fn release(&mut self, job: JobId) -> Option<Resident> {
        let idx = self.running.iter().position(|r| r.job == job)?;
        let r = self.running.swap_remove(idx);
        self.cores_used -= r.resources.cores;
        self.memory_used -= r.resources.memory_mb;
        self.refresh_min_running(r.priority);
        Some(r)
    }

    /// Removes a suspended job (rescheduled away): frees its memory.
    ///
    /// Returns the resident entry, or `None` if the job is not suspended
    /// here.
    pub fn remove_suspended(&mut self, job: JobId) -> Option<Resident> {
        let idx = self.suspended.iter().position(|r| r.job == job)?;
        let r = self.suspended.swap_remove(idx);
        self.memory_used -= r.resources.memory_mb;
        Some(r)
    }

    /// Internal consistency check, used by tests and debug assertions.
    pub fn check_invariants(&self) -> bool {
        let cores: u32 = self.running.iter().map(|r| r.resources.cores).sum();
        let mem: u64 = self
            .running
            .iter()
            .chain(self.suspended.iter())
            .map(|r| r.resources.memory_mb)
            .sum();
        cores == self.cores_used
            && mem == self.memory_used
            && self.cores_used <= self.config.cores
            && self.memory_used <= self.config.memory_mb
            && self.min_running_prio == self.running.iter().map(|r| r.priority).min()
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("id", &self.config.id)
            .field(
                "cores",
                &format_args!("{}/{}", self.cores_used, self.config.cores),
            )
            .field(
                "memory_mb",
                &format_args!("{}/{}", self.memory_used, self.config.memory_mb),
            )
            .field("running", &self.running.len())
            .field("suspended", &self.suspended.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(cores: u32, mem: u64) -> Machine {
        Machine::new(MachineConfig::new(MachineId(0), cores, mem))
    }

    fn res(cores: u32, mem: u64) -> Resources {
        Resources {
            cores,
            memory_mb: mem,
        }
    }

    fn t(m: u64) -> SimTime {
        SimTime::from_minutes(m)
    }

    /// `preemption_plan_into` with fresh buffers: the victims, or `None`
    /// when no plan exists.
    fn plan(m: &Machine, res: Resources, priority: Priority) -> Option<Vec<JobId>> {
        let mut victims = Vec::new();
        m.preemption_plan_into(res, priority, &mut ResidentKeys::new(), &mut victims)
            .then_some(victims)
    }

    /// `resumable_into` with fresh buffers.
    fn resumable(m: &Machine) -> Vec<JobId> {
        let mut out = Vec::new();
        m.resumable_into(&mut ResidentKeys::new(), &mut out);
        out
    }

    #[test]
    fn capacity_tracking() {
        let mut m = mk(4, 8000);
        assert!(m.can_run_now(res(4, 8000)));
        m.start(t(0), JobId(1), res(2, 3000), Priority::LOW);
        assert_eq!(m.cores_free(), 2);
        assert_eq!(m.memory_free(), 5000);
        assert!(m.can_run_now(res(2, 5000)));
        assert!(!m.can_run_now(res(3, 1000)));
        assert!(!m.can_run_now(res(1, 6000)));
        assert!(m.check_invariants());
    }

    #[test]
    fn eligibility_vs_availability() {
        let mut m = mk(2, 4000);
        m.start(t(0), JobId(1), res(2, 1000), Priority::LOW);
        assert!(m.can_ever_run(res(2, 4000)));
        assert!(!m.can_run_now(res(1, 1000)));
        assert!(!m.can_ever_run(res(3, 1000)));
        assert!(!m.can_ever_run(res(1, 5000)));
    }

    #[test]
    fn suspension_frees_cores_keeps_memory() {
        let mut m = mk(4, 8000);
        m.start(t(0), JobId(1), res(4, 4000), Priority::LOW);
        assert_eq!(m.cores_free(), 0);
        m.suspend(t(5), JobId(1)).expect("job running");
        assert_eq!(m.cores_free(), 4);
        assert_eq!(m.memory_free(), 4000); // memory still held
        assert_eq!(m.suspended().len(), 1);
        assert!(m.check_invariants());
    }

    #[test]
    fn resume_restores_cores() {
        let mut m = mk(4, 8000);
        m.start(t(0), JobId(1), res(2, 1000), Priority::LOW);
        m.suspend(t(1), JobId(1)).unwrap();
        let r = m.resume(t(9), JobId(1)).expect("resumable");
        assert_eq!(r.since, t(9));
        assert_eq!(m.cores_used(), 2);
        assert!(m.check_invariants());
    }

    #[test]
    fn resume_fails_without_cores() {
        let mut m = mk(4, 8000);
        m.start(t(0), JobId(1), res(3, 1000), Priority::LOW);
        m.suspend(t(1), JobId(1)).unwrap();
        m.start(t(1), JobId(2), res(3, 1000), Priority::HIGH);
        assert!(m.resume(t(2), JobId(1)).is_none());
        assert_eq!(
            m.suspended().len(),
            1,
            "failed resume must not lose the job"
        );
    }

    #[test]
    fn preemption_plan_picks_lowest_priority_most_recent() {
        let mut m = mk(4, 16_000);
        m.start(t(0), JobId(1), res(1, 100), Priority::new(2));
        m.start(t(5), JobId(2), res(1, 100), Priority::new(1));
        m.start(t(9), JobId(3), res(1, 100), Priority::new(1));
        m.start(t(2), JobId(4), res(1, 100), Priority::new(3));
        // Need 2 cores for a HIGH job: should pick the two priority-1 jobs,
        // most recent (job3) first.
        let victims = plan(&m, res(2, 100), Priority::HIGH).expect("feasible");
        assert_eq!(victims, vec![JobId(3), JobId(2)]);
    }

    #[test]
    fn preemption_plan_empty_when_fits() {
        let mut m = mk(4, 8000);
        m.start(t(0), JobId(1), res(1, 100), Priority::LOW);
        assert_eq!(plan(&m, res(1, 100), Priority::HIGH), Some(vec![]));
    }

    #[test]
    fn preemption_infeasible_against_equal_priority() {
        let mut m = mk(2, 8000);
        m.start(t(0), JobId(1), res(2, 100), Priority::HIGH);
        assert!(plan(&m, res(1, 100), Priority::HIGH).is_none());
        assert!(plan(&m, res(1, 100), Priority::LOW).is_none());
    }

    #[test]
    fn preemption_infeasible_when_memory_short() {
        let mut m = mk(4, 4000);
        m.start(t(0), JobId(1), res(4, 3500), Priority::LOW);
        // Suspending frees cores but not the 3500 MB, so a 1000 MB job
        // cannot be placed.
        assert!(plan(&m, res(1, 1000), Priority::HIGH).is_none());
        // A small-memory job can.
        assert!(plan(&m, res(1, 400), Priority::HIGH).is_some());
    }

    #[test]
    fn resumable_orders_by_priority_then_suspension_time() {
        let mut m = mk(8, 64_000);
        for (id, prio, start) in [
            (1u64, Priority::LOW, 0u64),
            (2, Priority::HIGH, 1),
            (3, Priority::LOW, 2),
        ] {
            m.start(t(start), JobId(id), res(2, 100), prio);
            m.suspend(t(start + 10), JobId(id)).unwrap();
        }
        assert_eq!(
            resumable(&m),
            vec![JobId(2), JobId(1), JobId(3)],
            "high priority first, then earliest suspended"
        );
    }

    #[test]
    fn resumable_respects_core_budget() {
        let mut m = mk(4, 64_000);
        m.start(t(0), JobId(1), res(3, 100), Priority::LOW);
        m.suspend(t(1), JobId(1)).unwrap();
        m.start(t(2), JobId(2), res(2, 100), Priority::LOW);
        m.suspend(t(3), JobId(2)).unwrap();
        m.start(t(4), JobId(3), res(2, 100), Priority::LOW);
        // 2 cores busy, 2 free: job1 (3 cores) does not fit, job2 (2) does.
        assert_eq!(resumable(&m), vec![JobId(2)]);
    }

    #[test]
    fn release_and_remove_suspended_free_resources() {
        let mut m = mk(4, 8000);
        m.start(t(0), JobId(1), res(2, 2000), Priority::LOW);
        m.start(t(0), JobId(2), res(2, 2000), Priority::LOW);
        m.suspend(t(1), JobId(2)).unwrap();
        m.release(JobId(1)).expect("running");
        assert_eq!(m.cores_used(), 0);
        assert_eq!(m.memory_used(), 2000);
        m.remove_suspended(JobId(2)).expect("suspended");
        assert_eq!(m.memory_used(), 0);
        assert!(m.check_invariants());
    }

    #[test]
    fn missing_jobs_return_none() {
        let mut m = mk(4, 8000);
        assert!(m.suspend(t(0), JobId(9)).is_none());
        assert!(m.resume(t(0), JobId(9)).is_none());
        assert!(m.release(JobId(9)).is_none());
        assert!(m.remove_suspended(JobId(9)).is_none());
    }

    #[test]
    fn scaled_wall_rounds_up_and_scales() {
        let cfg = MachineConfig::new(MachineId(0), 1, 1000).with_speed_milli(2000);
        assert_eq!(
            cfg.scaled_wall(SimDuration::from_minutes(100)).as_minutes(),
            50
        );
        let slow = MachineConfig::new(MachineId(0), 1, 1000).with_speed_milli(300);
        assert_eq!(
            slow.scaled_wall(SimDuration::from_minutes(10)).as_minutes(),
            34
        );
        // Minimum one minute even for zero-runtime jobs.
        assert_eq!(slow.scaled_wall(SimDuration::ZERO).as_minutes(), 1);
    }

    #[test]
    fn min_running_priority_tracks_residency_changes() {
        let mut m = mk(4, 16_000);
        assert_eq!(m.min_running_priority(), None);
        m.start(t(0), JobId(1), res(1, 100), Priority::new(5));
        m.start(t(1), JobId(2), res(1, 100), Priority::new(2));
        m.start(t(2), JobId(3), res(1, 100), Priority::new(8));
        assert_eq!(m.min_running_priority(), Some(Priority::new(2)));
        // Suspending the minimum re-derives from the remaining running set.
        m.suspend(t(3), JobId(2)).unwrap();
        assert_eq!(m.min_running_priority(), Some(Priority::new(5)));
        // Resuming it brings the minimum back down.
        m.resume(t(4), JobId(2)).unwrap();
        assert_eq!(m.min_running_priority(), Some(Priority::new(2)));
        m.release(JobId(2)).unwrap();
        m.release(JobId(1)).unwrap();
        assert_eq!(m.min_running_priority(), Some(Priority::new(8)));
        m.release(JobId(3)).unwrap();
        assert_eq!(m.min_running_priority(), None);
        assert!(m.check_invariants());
    }

    #[test]
    fn failure_evicts_everyone_and_blocks_work() {
        let mut m = mk(4, 8000);
        m.start(t(0), JobId(1), res(1, 1000), Priority::LOW);
        m.start(t(0), JobId(2), res(1, 1000), Priority::LOW);
        m.suspend(t(1), JobId(2)).unwrap();
        m.fail();
        assert!(m.running().is_empty() && m.suspended().is_empty());
        assert!(m.is_down());
        assert_eq!(m.cores_used(), 0);
        assert_eq!(m.memory_used(), 0);
        // Still *capable* (jobs may queue for it) but not *available*.
        assert!(m.can_ever_run(res(1, 1)));
        assert!(!m.can_run_now(res(1, 1)));
        assert!(plan(&m, res(1, 1), Priority::HIGH).is_none());
        assert!(m.check_invariants());
        m.restore();
        assert!(m.can_run_now(res(4, 8000)));
    }

    #[test]
    fn draining_blocks_new_work_but_keeps_residents() {
        let mut m = mk(4, 8000);
        m.start(t(0), JobId(1), res(1, 1000), Priority::LOW);
        m.start(t(0), JobId(2), res(1, 1000), Priority::LOW);
        m.suspend(t(1), JobId(2)).unwrap();
        m.start_drain();
        assert!(m.is_draining());
        // No new placements or preemption plans...
        assert!(!m.can_run_now(res(1, 1)));
        assert!(plan(&m, res(1, 1), Priority::HIGH).is_none());
        // ...but residents stay, may resume, and complete in place.
        assert_eq!(m.running().len(), 1);
        assert!(m.resume(t(2), JobId(2)).is_some());
        assert!(m.release(JobId(1)).is_some());
        assert!(m.check_invariants());
        m.end_drain();
        assert!(!m.is_draining());
        assert!(m.can_run_now(res(1, 1)));
    }

    #[test]
    fn health_is_clamped_to_millis() {
        let mut m = mk(1, 1000);
        assert_eq!(m.health_milli(), 1000);
        m.set_health_milli(250);
        assert_eq!(m.health_milli(), 250);
        m.set_health_milli(5000);
        assert_eq!(m.health_milli(), 1000);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Start { cores: u32, mem: u64, prio: u8 },
            Suspend(usize),
            Resume(usize),
            Release(usize),
            RemoveSuspended(usize),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (1u32..3, 64u64..2000, 0u8..12).prop_map(|(cores, mem, prio)| Op::Start {
                    cores,
                    mem,
                    prio
                }),
                (0usize..64).prop_map(Op::Suspend),
                (0usize..64).prop_map(Op::Resume),
                (0usize..64).prop_map(Op::Release),
                (0usize..64).prop_map(Op::RemoveSuspended),
            ]
        }

        proptest! {
            /// Machine counters stay consistent with residency under any
            /// valid operation sequence; capacity is never exceeded.
            #[test]
            fn prop_machine_invariants(ops in proptest::collection::vec(arb_op(), 1..100)) {
                let mut m = Machine::new(MachineConfig::new(MachineId(0), 4, 4096));
                let mut next = 0u64;
                let mut ids: Vec<JobId> = Vec::new();
                for (step, op) in ops.into_iter().enumerate() {
                    let t = SimTime::from_minutes(step as u64);
                    match op {
                        Op::Start { cores, mem, prio } => {
                            let res = Resources { cores, memory_mb: mem };
                            if m.can_run_now(res) {
                                let id = JobId(next);
                                next += 1;
                                m.start(t, id, res, Priority::new(prio));
                                ids.push(id);
                            }
                        }
                        Op::Suspend(i) => {
                            if let Some(&id) = ids.get(i % ids.len().max(1)) {
                                m.suspend(t, id);
                            }
                        }
                        Op::Resume(i) => {
                            if let Some(&id) = ids.get(i % ids.len().max(1)) {
                                m.resume(t, id);
                            }
                        }
                        Op::Release(i) => {
                            if let Some(&id) = ids.get(i % ids.len().max(1)) {
                                m.release(id);
                            }
                        }
                        Op::RemoveSuspended(i) => {
                            if let Some(&id) = ids.get(i % ids.len().max(1)) {
                                m.remove_suspended(id);
                            }
                        }
                    }
                    prop_assert!(m.check_invariants());
                    prop_assert!(m.cores_used() <= m.config().cores);
                    prop_assert!(m.memory_used() <= m.config().memory_mb);
                }
            }

            /// A plan exists exactly when the machine is up and not
            /// draining, the footprint fits its memory now and its cores
            /// once every strictly-lower-priority job is suspended — the
            /// fact the planner's early reject and the pool's failed-scan
            /// memo rest on.
            #[test]
            fn prop_plan_exists_iff_lower_priority_cores_cover_the_need(
                seeds in proptest::collection::vec((1u32..4, 0u8..5, 64u64..3000), 1..8),
                incoming in (0u32..9, 0u8..6, 0u64..5000),
                drained in any::<bool>(),
            ) {
                let mut m = Machine::new(MachineConfig::new(MachineId(0), 8, 8192));
                for (i, &(cores, prio, mem)) in seeds.iter().enumerate() {
                    let r = res(cores, mem);
                    if m.can_run_now(r) {
                        m.start(t(i as u64), JobId(i as u64), r, Priority::new(prio));
                    }
                }
                if drained {
                    m.start_drain();
                }
                let (cores, prio, mem) = incoming;
                let want = res(cores, mem);
                let priority = Priority::new(prio);
                let lower: u32 = m
                    .running()
                    .iter()
                    .filter(|r| priority.can_preempt(r.priority))
                    .map(|r| r.resources.cores)
                    .sum();
                let exists = !drained
                    && m.can_ever_run(want)
                    && mem <= m.memory_free()
                    && m.cores_free() + lower >= cores;
                prop_assert_eq!(plan(&m, want, priority).is_some(), exists);
            }

            /// A feasible preemption plan, when executed, always makes room
            /// for the incoming footprint.
            #[test]
            fn prop_preemption_plan_is_sufficient(
                seeds in proptest::collection::vec((1u32..3, 0u8..5), 1..8),
                incoming_cores in 1u32..5,
                incoming_prio in 4u8..15,
            ) {
                let mut m = Machine::new(MachineConfig::new(MachineId(0), 4, 65536));
                for (i, (cores, prio)) in seeds.iter().enumerate() {
                    let res = Resources { cores: *cores, memory_mb: 10 };
                    if m.can_run_now(res) {
                        m.start(SimTime::from_minutes(i as u64), JobId(i as u64), res, Priority::new(*prio));
                    }
                }
                let want = Resources { cores: incoming_cores, memory_mb: 10 };
                if let Some(victims) = plan(&m, want, Priority::new(incoming_prio)) {
                    for v in victims {
                        m.suspend(SimTime::from_minutes(100), v).expect("victim runs");
                    }
                    prop_assert!(m.can_run_now(want), "plan must free enough capacity");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "without capacity")]
    fn start_without_capacity_panics() {
        let mut m = mk(1, 1000);
        m.start(t(0), JobId(1), res(1, 1000), Priority::LOW);
        m.start(t(0), JobId(2), res(1, 1000), Priority::LOW);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        MachineConfig::new(MachineId(0), 1, 1).with_speed_milli(0);
    }
}
