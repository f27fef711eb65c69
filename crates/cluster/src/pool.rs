//! The physical pool manager: machine list, wait queue, dispatch,
//! host-level preemption and capacity-freeing cycles.
//!
//! Protocol reproduced from §2.1 of the paper: when a job is assigned to the
//! pool, the manager picks the first *eligible and available* machine and
//! starts the job there. If every eligible machine is busy and some eligible
//! machine runs a strictly lower-priority job, that job is suspended and the
//! new one takes its place; otherwise the new job queues. If **no** machine
//! in the pool is eligible at all, the job is bounced back to the virtual
//! pool manager ([`SubmitOutcome::Ineligible`]).
//!
//! The "first eligible and available machine" is resolved through the
//! incremental [`AvailabilityIndex`] rather than a linear scan — same
//! chosen machine (verified against the retained reference scan,
//! [`PhysicalPool::reference_first_fit`], in debug builds and property
//! tests), one max-tree descent instead of O(machines) per dispatch.

use std::fmt;

use netbatch_sim_engine::time::{SimDuration, SimTime};

use crate::ids::{JobId, MachineId, PoolId};
use crate::index::{AvailabilityIndex, MinMultiset};
use crate::job::{JobSpec, Resources};
use crate::machine::{Machine, MachineConfig};
use crate::priority::Priority;
use crate::wait_queue::WaitQueue;

/// Static description of a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// The pool's identifier.
    pub id: PoolId,
    /// Machines in the pool, in dispatch-scan order.
    pub machines: Vec<MachineConfig>,
}

impl PoolConfig {
    /// A pool of `n` identical machines.
    pub fn uniform(id: PoolId, n: u32, cores: u32, memory_mb: u64) -> Self {
        PoolConfig {
            id,
            machines: (0..n)
                .map(|i| MachineConfig::new(MachineId(i), cores, memory_mb))
                .collect(),
        }
    }

    /// Total core count.
    pub fn total_cores(&self) -> u32 {
        self.machines.iter().map(|m| m.cores).sum()
    }

    /// Returns a copy with every machine's core count halved (rounded up to
    /// at least 1) — the paper's **high load** scenario construction ("we
    /// reduce the number of compute cores available to each pool by half
    /// while keeping the submitted job trace unchanged").
    pub fn halved_cores(&self) -> PoolConfig {
        PoolConfig {
            id: self.id,
            machines: self
                .machines
                .iter()
                .map(|m| {
                    let mut c = m.clone();
                    c.cores = (m.cores / 2).max(1);
                    c
                })
                .collect(),
        }
    }
}

/// A job sitting in the pool's wait queue, with everything needed to start
/// it later without consulting external state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEntry {
    /// The waiting job.
    pub job: JobId,
    /// Its footprint.
    pub resources: Resources,
    /// Its priority.
    pub priority: Priority,
    /// Base runtime (unscaled).
    pub runtime: SimDuration,
    /// When it entered this queue.
    pub enqueued_at: SimTime,
}

/// Something the pool did that the simulator must react to (scheduling or
/// cancelling completion events, updating job records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolAction {
    /// A job began executing; its completion is `wall` from now.
    Started {
        /// The started job.
        job: JobId,
        /// Host machine.
        machine: MachineId,
        /// Wall-clock execution length on that machine.
        wall: SimDuration,
    },
    /// A running job was preempted and suspended in place.
    Suspended {
        /// The suspended job.
        job: JobId,
        /// Host machine.
        machine: MachineId,
    },
    /// A suspended job resumed on its machine; the simulator computes the
    /// new completion instant from the job's remaining wall time.
    Resumed {
        /// The resumed job.
        job: JobId,
        /// Host machine.
        machine: MachineId,
    },
}

/// Result of submitting a job to the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job was placed (possibly after preempting victims); the actions
    /// include one `Started` for the submitted job and a `Suspended` per
    /// victim, in execution order.
    Dispatched(Vec<PoolAction>),
    /// All eligible machines are saturated and non-preemptible; the job is
    /// in the wait queue.
    Queued,
    /// No machine in this pool can ever run the job; the virtual pool
    /// manager should try the next pool.
    Ineligible,
}

/// Outcome kind reported by [`PhysicalPool::submit_into`] — the
/// allocation-free submit appends its actions to the caller's buffer, so
/// the outcome itself carries no `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitKind {
    /// The job was placed; actions were appended to the caller's buffer.
    Dispatched,
    /// The job entered the wait queue; no actions.
    Queued,
    /// No machine here can ever run the job; no actions.
    Ineligible,
}

/// Cumulative per-pool statistics over a run — the operator's view of
/// where preemption storms and queue buildups happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Job starts (initial dispatches, queue starts, restarts).
    pub starts: u64,
    /// Preemption (suspension) events in this pool.
    pub suspensions: u64,
    /// Jobs that entered the wait queue.
    pub enqueues: u64,
    /// Largest wait-queue length observed.
    pub peak_queue: usize,
    /// Largest concurrent suspended-job count observed.
    pub peak_suspended: usize,
}

/// A physical pool: machines plus a priority wait queue.
pub struct PhysicalPool {
    id: PoolId,
    machines: Vec<Machine>,
    /// Waiting jobs: higher priority first, FIFO within a priority.
    queue: WaitQueue,
    /// Running and suspended jobs; where each one is, is its record's to say.
    running: usize,
    suspended: usize,
    total_cores: u32,
    /// Static core total across all machines, up or down — the health
    /// gauge's denominator (`total_cores` shrinks while machines are
    /// down).
    nominal_cores: u32,
    busy_cores: u32,
    /// Machines currently failed; maintained by `fail_machine_into` /
    /// `restore_machine_into` so health queries are O(1).
    down_machines: usize,
    /// Machines currently draining or cordoned; maintained by
    /// `drain_machine` / `undrain_machine_into`.
    draining_machines: usize,
    /// Health-weighted capacity of *available* (up, non-draining)
    /// machines, in core-millis: `Σ cores · health_milli`. Maintained
    /// incrementally on every fail/restore/drain/undrain/health change so
    /// per-decision snapshots stay O(1).
    eff_cores_milli: u64,
    stats: PoolStats,
    /// Free-capacity index over `machines`, re-synced after every machine
    /// mutation; answers first-fit and eligibility without scanning.
    index: AvailabilityIndex,
    /// Priorities of all running jobs in the pool. Its minimum tells
    /// `submit` in O(1) whether *any* preemption plan can exist.
    running_prios: MinMultiset<Priority>,
    /// Core footprints of all waiting jobs: `capacity_cycle` stops
    /// scanning the queue once the freed machine can't cover the minimum.
    queue_cores: MinMultiset<u32>,
    /// Memory footprints of all waiting jobs (same cutoff, memory axis).
    queue_mem: MinMultiset<u64>,
    // Scratch buffers reused across dispatch operations, so steady-state
    // submit/release/resume cycles allocate nothing.
    /// Trial victim plan for the machine currently being scanned.
    scratch_plan: Vec<JobId>,
    /// Best victim plan found so far (swapped with `scratch_plan`).
    scratch_best: Vec<JobId>,
    /// Resume order produced per capacity cycle.
    scratch_resume: Vec<JobId>,
    /// Sort-key buffer threaded through the machine-level planners.
    scratch_keys: crate::machine::ResidentKeys,
    /// Mutation counter: every public `&mut self` mutator bumps it once,
    /// so an unchanged generation means an unchanged [`PoolSnapshot`].
    ///
    /// [`PoolSnapshot`]: crate::snapshot::PoolSnapshot
    generation: u64,
}

impl PhysicalPool {
    /// Builds an idle pool from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if machine ids are not the dense sequence `0..n` in order —
    /// the pool uses machine ids as indices into its scan list.
    pub fn new(config: PoolConfig) -> Self {
        for (i, m) in config.machines.iter().enumerate() {
            assert_eq!(
                m.id.as_usize(),
                i,
                "machine ids must be dense and in order within a pool"
            );
        }
        let total_cores = config.total_cores();
        let machines: Vec<Machine> = config.machines.into_iter().map(Machine::new).collect();
        let index = AvailabilityIndex::new(&machines);
        PhysicalPool {
            id: config.id,
            machines,
            queue: WaitQueue::default(),
            running: 0,
            suspended: 0,
            total_cores,
            nominal_cores: total_cores,
            busy_cores: 0,
            down_machines: 0,
            draining_machines: 0,
            eff_cores_milli: u64::from(total_cores) * 1000,
            stats: PoolStats::default(),
            index,
            running_prios: MinMultiset::new(),
            queue_cores: MinMultiset::new(),
            queue_mem: MinMultiset::new(),
            scratch_plan: Vec::new(),
            scratch_best: Vec::new(),
            scratch_resume: Vec::new(),
            scratch_keys: Vec::new(),
            generation: 0,
        }
    }

    /// Re-syncs the availability index for machine `idx` after any state
    /// change. Every mutation path funnels through this, keeping index and
    /// machines in lock-step.
    fn sync_index(&mut self, idx: usize) {
        self.index.sync(idx, &self.machines[idx]);
    }

    /// How many mutator calls this pool has seen: two reads at the same
    /// generation observe the same pool state. Cached views compare it to
    /// skip re-capturing pools that did not change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative statistics since construction.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// The pool id.
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// Total cores across all machines.
    pub fn total_cores(&self) -> u32 {
        self.total_cores
    }

    /// Static core total across all machines, up or down.
    pub fn nominal_cores(&self) -> u32 {
        self.nominal_cores
    }

    /// Cores currently running jobs. Maintained incrementally, so this is
    /// `O(1)` — scheduling policies call it on every decision.
    pub fn busy_cores(&self) -> u32 {
        self.busy_cores
    }

    /// Core utilization in `[0, 1]` — the signal `ResSusUtil`-style policies
    /// select pools by.
    pub fn utilization(&self) -> f64 {
        if self.total_cores == 0 {
            return 0.0;
        }
        f64::from(self.busy_cores()) / f64::from(self.total_cores)
    }

    /// Number of jobs in the wait queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of suspended jobs across the pool's machines.
    pub fn suspended_count(&self) -> usize {
        self.suspended
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Number of machines currently down (failed and not yet restored).
    pub fn down_machine_count(&self) -> usize {
        self.down_machines
    }

    /// Number of machines currently draining or cordoned.
    pub fn draining_machine_count(&self) -> usize {
        self.draining_machines
    }

    /// Health-weighted capacity of available (up, non-draining) machines
    /// in core-millis (`Σ cores · health_milli`; 1000 per fully healthy
    /// core). The health-aware policies' effective-capacity signal, O(1).
    pub fn effective_cores_milli(&self) -> u64 {
        self.eff_cores_milli
    }

    /// True when every machine in the pool is down — e.g. the pool lost
    /// connectivity to the virtual pool manager. A hardened scheduler
    /// parks retried jobs at the VPM instead of queueing on such a pool.
    pub fn is_fully_down(&self) -> bool {
        !self.machines.is_empty() && self.down_machines == self.machines.len()
    }

    /// Read access to one machine, for observers that cross-check the
    /// pool's per-machine accounting (cores, resident memory) online.
    pub fn machine(&self, id: MachineId) -> Option<&Machine> {
        self.machines.get(id.as_usize())
    }

    /// Since when a job has been waiting in this pool's queue, if it is.
    pub fn waiting_since(&self, job: JobId) -> Option<SimTime> {
        self.queue.get(job).map(|e| e.enqueued_at)
    }

    /// Iterates the wait queue in dispatch order (priority desc, FIFO).
    pub fn waiting_jobs(&self) -> impl Iterator<Item = &WaitEntry> {
        self.queue.iter()
    }

    /// True if any machine could ever run the footprint (the pool-level
    /// eligibility test). O(classes): class membership is static, so the
    /// index answers without touching the machine list.
    pub fn is_eligible(&self, res: Resources) -> bool {
        let eligible = self.index.is_eligible(res);
        debug_assert_eq!(eligible, self.machines.iter().any(|m| m.can_ever_run(res)));
        eligible
    }

    /// The machine first-fit dispatch would choose right now, resolved
    /// through the availability index. Exposed (with
    /// [`PhysicalPool::reference_first_fit`]) for differential testing.
    pub fn indexed_first_fit(&self, res: Resources) -> Option<MachineId> {
        self.index.first_fit(res).map(|i| self.machines[i].id())
    }

    /// The seed's original linear first-fit scan, retained as the reference
    /// the index is differentially checked against: the first machine in id
    /// order that is both eligible and available.
    pub fn reference_first_fit(&self, res: Resources) -> Option<MachineId> {
        self.machines
            .iter()
            .position(|m| m.can_ever_run(res) && m.can_run_now(res))
            .map(|i| self.machines[i].id())
    }

    /// The lowest priority among running jobs anywhere in the pool, O(1).
    /// `None` means the pool runs nothing — and, either way, a submit with
    /// priority ≤ this value cannot trigger a preemption.
    pub fn lowest_running_priority(&self) -> Option<Priority> {
        self.running_prios.min()
    }

    /// Submits a job to this pool (paper §2.1 dispatch protocol).
    pub fn submit(&mut self, now: SimTime, spec: &JobSpec) -> SubmitOutcome {
        let mut actions = Vec::new();
        match self.submit_into(now, spec, &mut actions) {
            SubmitKind::Dispatched => SubmitOutcome::Dispatched(actions),
            SubmitKind::Queued => SubmitOutcome::Queued,
            SubmitKind::Ineligible => SubmitOutcome::Ineligible,
        }
    }

    /// Allocation-free submit: identical protocol and action order to
    /// [`PhysicalPool::submit`], but any resulting actions are appended to
    /// the caller's reusable buffer and the outcome carries no `Vec`.
    pub fn submit_into(
        &mut self,
        now: SimTime,
        spec: &JobSpec,
        actions: &mut Vec<PoolAction>,
    ) -> SubmitKind {
        self.generation += 1;
        let res = spec.resources;
        if !self.is_eligible(res) {
            return SubmitKind::Ineligible;
        }
        // 1. First eligible machine with free capacity — indexed query,
        // cross-checked against the reference linear scan in debug builds.
        let first_fit = self.index.first_fit(res);
        debug_assert_eq!(
            first_fit.map(|i| self.machines[i].id()),
            self.reference_first_fit(res),
            "availability index diverged from the reference scan"
        );
        if let Some(idx) = first_fit {
            let wall = self.machines[idx].config().scaled_wall(spec.runtime);
            let mid = self.machines[idx].id();
            self.machines[idx].start(now, spec.id, res, spec.priority);
            self.sync_index(idx);
            self.running += 1;
            self.running_prios.insert(spec.priority);
            self.busy_cores += res.cores;
            self.stats.starts += 1;
            debug_assert!(self.machines[idx].check_invariants());
            actions.push(PoolAction::Started {
                job: spec.id,
                machine: mid,
                wall,
            });
            return SubmitKind::Dispatched;
        }
        // 2. Preemption: among eligible machines with a feasible plan, pick
        // the one whose victims lose the least progress (most recently
        // started). Suspending the freshest jobs minimizes the work a
        // rescheduling restart will discard.
        //
        // Short-circuit: step 1 failed, so any feasible plan has at least
        // one victim, which must run at strictly lower priority. If no job
        // in the pool does (O(1) via the running-priority minimum), no plan
        // exists anywhere — skip straight to the queue.
        if !self
            .running_prios
            .min()
            .is_some_and(|lowest| spec.priority.can_preempt(lowest))
        {
            self.enqueue(now, spec);
            return SubmitKind::Queued;
        }
        // The plan buffers are taken out of `self` for the scan so machine
        // mutations below don't fight the borrow checker; put back at the
        // end to keep their capacity for the next submit.
        let mut trial = std::mem::take(&mut self.scratch_plan);
        let mut best_plan = std::mem::take(&mut self.scratch_best);
        let mut keys = std::mem::take(&mut self.scratch_keys);
        best_plan.clear();
        let mut best: Option<(usize, SimTime)> = None;
        for idx in 0..self.machines.len() {
            if !self.machines[idx].can_ever_run(res) {
                continue;
            }
            // Same argument per machine: no strictly-lower-priority job
            // running here means no feasible plan here (cached, O(1)).
            if !self.machines[idx]
                .min_running_priority()
                .is_some_and(|lowest| spec.priority.can_preempt(lowest))
            {
                continue;
            }
            if !self.machines[idx].preemption_plan_into(res, spec.priority, &mut keys, &mut trial) {
                continue;
            }
            debug_assert!(!trial.is_empty(), "empty plan implies can_run_now");
            // Freshest plan = latest earliest-start among its victims.
            let earliest_start = trial
                .iter()
                .filter_map(|v| {
                    self.machines[idx]
                        .running()
                        .iter()
                        .find(|r| r.job == *v)
                        .map(|r| r.since)
                })
                .min()
                .unwrap_or(SimTime::ZERO);
            let better = match &best {
                Some((_, best_start)) => earliest_start > *best_start,
                None => true,
            };
            if better {
                best = Some((idx, earliest_start));
                std::mem::swap(&mut best_plan, &mut trial);
            }
        }
        let kind = if let Some((idx, _)) = best {
            let mid = self.machines[idx].id();
            actions.reserve(best_plan.len() + 1);
            for &victim in &best_plan {
                let r = self.machines[idx]
                    .suspend(now, victim)
                    .expect("planned victim is running");
                self.busy_cores -= r.resources.cores;
                self.running -= 1;
                self.running_prios.remove(r.priority);
                self.suspended += 1;
                self.stats.suspensions += 1;
                self.stats.peak_suspended = self.stats.peak_suspended.max(self.suspended);
                actions.push(PoolAction::Suspended {
                    job: victim,
                    machine: mid,
                });
            }
            let wall = self.machines[idx].config().scaled_wall(spec.runtime);
            self.machines[idx].start(now, spec.id, res, spec.priority);
            self.sync_index(idx);
            self.running += 1;
            self.running_prios.insert(spec.priority);
            self.busy_cores += res.cores;
            self.stats.starts += 1;
            actions.push(PoolAction::Started {
                job: spec.id,
                machine: mid,
                wall,
            });
            debug_assert!(self.machines[idx].check_invariants());
            SubmitKind::Dispatched
        } else {
            // 3. Queue.
            self.enqueue(now, spec);
            SubmitKind::Queued
        };
        self.scratch_plan = trial;
        self.scratch_best = best_plan;
        self.scratch_keys = keys;
        kind
    }

    fn enqueue(&mut self, now: SimTime, spec: &JobSpec) {
        self.queue.push(WaitEntry {
            job: spec.id,
            resources: spec.resources,
            priority: spec.priority,
            runtime: spec.runtime,
            enqueued_at: now,
        });
        self.queue_cores.insert(spec.resources.cores);
        self.queue_mem.insert(spec.resources.memory_mb);
        self.stats.enqueues += 1;
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
    }

    /// A running job completed: frees its resources, then resumes suspended
    /// jobs on that machine and dispatches waiting jobs onto the freed
    /// capacity, appending those actions (`Resumed` / `Started`) to
    /// `actions`. `machine` is where the caller's record says the job runs:
    /// the pool keeps no job-to-machine index. Returns whether the job ran
    /// there; nothing changes when it did not.
    pub fn release_into(
        &mut self,
        now: SimTime,
        job: JobId,
        machine: MachineId,
        actions: &mut Vec<PoolAction>,
    ) -> bool {
        self.generation += 1;
        let idx = machine.as_usize();
        let Some(r) = self.machines.get_mut(idx).and_then(|m| m.release(job)) else {
            return false;
        };
        self.running -= 1;
        self.busy_cores -= r.resources.cores;
        self.running_prios.remove(r.priority);
        self.capacity_cycle_into(now, idx, actions);
        true
    }

    /// Removes a waiting job from the queue (a wait-rescheduling decision).
    ///
    /// Returns the entry, or `None` if the job is not waiting here.
    pub fn remove_waiting(&mut self, job: JobId) -> Option<WaitEntry> {
        self.generation += 1;
        let entry = self.queue.remove(job)?;
        self.queue_cores.remove(entry.resources.cores);
        self.queue_mem.remove(entry.resources.memory_mb);
        Some(entry)
    }

    /// Removes a suspended job from its machine (a suspend-rescheduling
    /// decision): frees its resident memory, which may admit queued jobs,
    /// appending what it starts to `actions`. `machine` is where the
    /// caller's record says the job is suspended. Returns whether it was
    /// suspended there; nothing changes when it was not.
    pub fn remove_suspended_into(
        &mut self,
        now: SimTime,
        job: JobId,
        machine: MachineId,
        actions: &mut Vec<PoolAction>,
    ) -> bool {
        self.generation += 1;
        let idx = machine.as_usize();
        let Some(_) = self
            .machines
            .get_mut(idx)
            .and_then(|m| m.remove_suspended(job))
        else {
            return false;
        };
        self.suspended -= 1;
        self.capacity_cycle_into(now, idx, actions);
        true
    }

    /// After capacity freed on machine `idx`: resume suspended residents
    /// (highest priority, earliest suspended first), then start queued jobs
    /// that now fit, repeating until nothing changes.
    ///
    /// Design choice (DESIGN.md §3): suspended residents take freed capacity
    /// before the wait queue — they already hold memory on the host and
    /// suspension is meant to be temporary.
    fn capacity_cycle_into(&mut self, now: SimTime, idx: usize, actions: &mut Vec<PoolAction>) {
        let mid = self.machines[idx].id();
        // 1. Resume. The resume list is taken out of `self` so the machine
        // mutations inside the loop don't conflict with its borrow.
        let mut resumable = std::mem::take(&mut self.scratch_resume);
        let mut keys = std::mem::take(&mut self.scratch_keys);
        self.machines[idx].resumable_into(&mut keys, &mut resumable);
        for &job in &resumable {
            let r = self.machines[idx].resume(now, job).expect("resumable fits");
            self.busy_cores += r.resources.cores;
            self.suspended -= 1;
            self.running += 1;
            self.running_prios.insert(r.priority);
            actions.push(PoolAction::Resumed { job, machine: mid });
        }
        self.scratch_resume = resumable;
        self.scratch_keys = keys;
        // 2. Dispatch queue onto this machine while anything fits. The
        // queue's min-footprint summary bounds the scan: once the machine
        // can't cover even the smallest waiting core or memory ask,
        // nothing in the queue fits and the O(queue) scan is skipped.
        loop {
            let machine = &self.machines[idx];
            let can_fit_something = !machine.is_down()
                && !machine.is_draining()
                && self
                    .queue_cores
                    .min()
                    .is_some_and(|c| c <= machine.cores_free())
                && self
                    .queue_mem
                    .min()
                    .is_some_and(|m| m <= machine.memory_free());
            if !can_fit_something {
                debug_assert!(
                    !self.queue.iter().any(|e| machine.can_run_now(e.resources)),
                    "min-footprint cutoff skipped a dispatchable entry"
                );
                break;
            }
            let Some(entry) = self.queue.take_first(|e| machine.can_run_now(e.resources)) else {
                break;
            };
            self.queue_cores.remove(entry.resources.cores);
            self.queue_mem.remove(entry.resources.memory_mb);
            let wall = self.machines[idx].config().scaled_wall(entry.runtime);
            self.machines[idx].start(now, entry.job, entry.resources, entry.priority);
            self.running += 1;
            self.running_prios.insert(entry.priority);
            self.busy_cores += entry.resources.cores;
            self.stats.starts += 1;
            actions.push(PoolAction::Started {
                job: entry.job,
                machine: mid,
                wall,
            });
        }
        self.sync_index(idx);
        debug_assert!(self.machines[idx].check_invariants());
    }

    /// Fails a machine: every resident job is evicted (the caller must
    /// resubmit them — host-level state is lost, so they restart from
    /// scratch). Appends the evicted running and suspended job ids to the
    /// caller's buffers and returns whether the machine was up (nothing is
    /// appended when it was down or out of range).
    pub fn fail_machine_into(
        &mut self,
        machine: MachineId,
        running: &mut Vec<JobId>,
        suspended: &mut Vec<JobId>,
    ) -> bool {
        self.generation += 1;
        let idx = machine.as_usize();
        if idx >= self.machines.len() || self.machines[idx].is_down() {
            return false;
        }
        if !self.machines[idx].is_draining() {
            self.eff_cores_milli -= u64::from(self.machines[idx].config().cores)
                * u64::from(self.machines[idx].health_milli());
        }
        let m = &self.machines[idx];
        for r in m.running() {
            self.busy_cores -= r.resources.cores;
            self.running_prios.remove(r.priority);
            running.push(r.job);
        }
        suspended.extend(m.suspended().iter().map(|r| r.job));
        self.running -= m.running().len();
        self.suspended -= m.suspended().len();
        self.machines[idx].fail();
        self.sync_index(idx);
        self.total_cores -= self.machines[idx].config().cores;
        self.down_machines += 1;
        true
    }

    /// Restores a failed machine and immediately dispatches queued work
    /// onto it. Appends the follow-on actions to `actions` and returns
    /// whether the machine was down.
    pub fn restore_machine_into(
        &mut self,
        now: SimTime,
        machine: MachineId,
        actions: &mut Vec<PoolAction>,
    ) -> bool {
        self.generation += 1;
        let idx = machine.as_usize();
        if idx >= self.machines.len() || !self.machines[idx].is_down() {
            return false;
        }
        self.machines[idx].restore();
        if !self.machines[idx].is_draining() {
            self.eff_cores_milli += u64::from(self.machines[idx].config().cores)
                * u64::from(self.machines[idx].health_milli());
        }
        self.total_cores += self.machines[idx].config().cores;
        self.down_machines -= 1;
        self.capacity_cycle_into(now, idx, actions);
        true
    }

    /// Starts draining (or cordons) a machine: it leaves the availability
    /// index, accepting no new work, while residents keep running (and
    /// resuming). Returns whether the machine was not already draining.
    pub fn drain_machine(&mut self, machine: MachineId) -> bool {
        self.generation += 1;
        let idx = machine.as_usize();
        if idx >= self.machines.len() || self.machines[idx].is_draining() {
            return false;
        }
        if !self.machines[idx].is_down() {
            self.eff_cores_milli -= u64::from(self.machines[idx].config().cores)
                * u64::from(self.machines[idx].health_milli());
        }
        self.machines[idx].start_drain();
        self.sync_index(idx);
        self.draining_machines += 1;
        true
    }

    /// Ends a machine's drain/cordon and immediately dispatches queued
    /// work onto it. Appends the follow-on actions to `actions` and
    /// returns whether the machine was draining.
    pub fn undrain_machine_into(
        &mut self,
        now: SimTime,
        machine: MachineId,
        actions: &mut Vec<PoolAction>,
    ) -> bool {
        self.generation += 1;
        let idx = machine.as_usize();
        if idx >= self.machines.len() || !self.machines[idx].is_draining() {
            return false;
        }
        self.machines[idx].end_drain();
        if !self.machines[idx].is_down() {
            self.eff_cores_milli += u64::from(self.machines[idx].config().cores)
                * u64::from(self.machines[idx].health_milli());
        }
        self.draining_machines -= 1;
        self.capacity_cycle_into(now, idx, actions);
        true
    }

    /// Lists the jobs resident on `machine` — running and suspended, in
    /// resident-list order — without disturbing them. The proactive
    /// evacuation planner's read-only view: unlike
    /// [`PhysicalPool::fail_machine_into`] the machine keeps its state.
    pub fn residents_into(
        &self,
        machine: MachineId,
        running: &mut Vec<JobId>,
        suspended: &mut Vec<JobId>,
    ) {
        if let Some(m) = self.machines.get(machine.as_usize()) {
            running.extend(m.running().iter().map(|r| r.job));
            suspended.extend(m.suspended().iter().map(|r| r.job));
        }
    }

    /// Sets a machine's per-run health score (clamped to 0..=1000),
    /// keeping the effective-capacity sum consistent.
    pub fn set_machine_health(&mut self, machine: MachineId, health_milli: u32) {
        self.generation += 1;
        let idx = machine.as_usize();
        if idx >= self.machines.len() {
            return;
        }
        let cores = u64::from(self.machines[idx].config().cores);
        let old = u64::from(self.machines[idx].health_milli());
        self.machines[idx].set_health_milli(health_milli);
        let new = u64::from(self.machines[idx].health_milli());
        if !self.machines[idx].is_down() && !self.machines[idx].is_draining() {
            self.eff_cores_milli = self.eff_cores_milli - cores * old + cores * new;
        }
    }

    /// Pool-level invariant check used by tests: index maps agree with
    /// machine residency, capacity counters are consistent, the wait
    /// queue's lanes are in level order with consistent links, and the
    /// incremental availability index and min-summaries match a rebuild
    /// from scratch.
    pub fn check_invariants(&self) -> bool {
        let machines_ok = self.machines.iter().all(Machine::check_invariants);
        let running: usize = self.machines.iter().map(|m| m.running().len()).sum();
        let suspended: usize = self.machines.iter().map(|m| m.suspended().len()).sum();
        let busy: u32 = self.machines.iter().map(Machine::cores_used).sum();
        let prios_ok = self.running_prios.len() == self.running
            && self.running_prios.min()
                == self
                    .machines
                    .iter()
                    .filter_map(Machine::min_running_priority)
                    .min();
        let queue_summary_ok = self.queue_cores.len() == self.queue.len()
            && self.queue_mem.len() == self.queue.len()
            && self.queue_cores.min() == self.queue.iter().map(|e| e.resources.cores).min()
            && self.queue_mem.min() == self.queue.iter().map(|e| e.resources.memory_mb).min();
        let down = self.machines.iter().filter(|m| m.is_down()).count();
        let draining = self.machines.iter().filter(|m| m.is_draining()).count();
        let eff: u64 = self
            .machines
            .iter()
            .filter(|m| !m.is_down() && !m.is_draining())
            .map(|m| u64::from(m.config().cores) * u64::from(m.health_milli()))
            .sum();
        machines_ok
            && running == self.running
            && suspended == self.suspended
            && self.queue.check_consistency()
            && busy == self.busy_cores
            && down == self.down_machines
            && draining == self.draining_machines
            && eff == self.eff_cores_milli
            && self.index.check_consistency(&self.machines)
            && prios_ok
            && queue_summary_ok
    }
}

impl fmt::Debug for PhysicalPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalPool")
            .field("id", &self.id)
            .field("machines", &self.machines.len())
            .field("busy_cores", &self.busy_cores())
            .field("total_cores", &self.total_cores)
            .field("waiting", &self.queue.len())
            .field("suspended", &self.suspended)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::Priority;

    fn t(m: u64) -> SimTime {
        SimTime::from_minutes(m)
    }

    fn d(m: u64) -> SimDuration {
        SimDuration::from_minutes(m)
    }

    fn spec(id: u64, prio: Priority, runtime: u64) -> JobSpec {
        JobSpec::new(JobId(id), t(0), d(runtime)).with_priority(prio)
    }

    fn small_pool() -> PhysicalPool {
        // 2 machines × 2 cores × 4 GB.
        PhysicalPool::new(PoolConfig::uniform(PoolId(0), 2, 2, 4096))
    }

    /// `release_into` with a fresh action buffer: the follow-on actions,
    /// or `None` when `machine` does not run the job.
    fn release(
        p: &mut PhysicalPool,
        now: SimTime,
        job: JobId,
        machine: MachineId,
    ) -> Option<Vec<PoolAction>> {
        let mut actions = Vec::new();
        p.release_into(now, job, machine, &mut actions)
            .then_some(actions)
    }

    /// `remove_suspended_into` with a fresh action buffer.
    fn remove_suspended(
        p: &mut PhysicalPool,
        now: SimTime,
        job: JobId,
        machine: MachineId,
    ) -> Option<Vec<PoolAction>> {
        let mut actions = Vec::new();
        p.remove_suspended_into(now, job, machine, &mut actions)
            .then_some(actions)
    }

    /// Whether `job` runs on `machine`, read off the machine's own list.
    fn runs_on(p: &PhysicalPool, job: JobId, machine: MachineId) -> bool {
        p.machine(machine)
            .is_some_and(|m| m.running().iter().any(|r| r.job == job))
    }

    #[test]
    fn dispatch_to_first_available_machine() {
        let mut p = small_pool();
        let out = p.submit(t(0), &spec(1, Priority::LOW, 100));
        let SubmitOutcome::Dispatched(actions) = out else {
            panic!("expected dispatch, got {out:?}")
        };
        assert_eq!(
            actions,
            vec![PoolAction::Started {
                job: JobId(1),
                machine: MachineId(0),
                wall: d(100)
            }]
        );
        assert_eq!(p.busy_cores(), 1);
        assert!(p.check_invariants());
    }

    #[test]
    fn fills_machines_in_scan_order() {
        let mut p = small_pool();
        for id in 1..=4 {
            assert!(matches!(
                p.submit(t(0), &spec(id, Priority::LOW, 10)),
                SubmitOutcome::Dispatched(_)
            ));
        }
        assert_eq!(p.busy_cores(), 4);
        assert_eq!(p.utilization(), 1.0);
        // Fifth job queues.
        assert_eq!(
            p.submit(t(1), &spec(5, Priority::LOW, 10)),
            SubmitOutcome::Queued
        );
        assert_eq!(p.queue_len(), 1);
        assert_eq!(p.waiting_since(JobId(5)), Some(t(1)));
    }

    #[test]
    fn high_priority_preempts_low() {
        let mut p = small_pool();
        for id in 1..=4 {
            p.submit(t(0), &spec(id, Priority::LOW, 100));
        }
        let out = p.submit(t(5), &spec(9, Priority::HIGH, 50));
        let SubmitOutcome::Dispatched(actions) = out else {
            panic!("expected preemption dispatch")
        };
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            actions[0],
            PoolAction::Suspended {
                machine: MachineId(0),
                ..
            }
        ));
        assert!(matches!(
            actions[1],
            PoolAction::Started {
                job: JobId(9),
                machine: MachineId(0),
                ..
            }
        ));
        assert_eq!(p.suspended_count(), 1);
        assert!(p.check_invariants());
    }

    #[test]
    fn equal_priority_queues_instead_of_preempting() {
        let mut p = small_pool();
        for id in 1..=4 {
            p.submit(t(0), &spec(id, Priority::HIGH, 100));
        }
        assert_eq!(
            p.submit(t(5), &spec(9, Priority::HIGH, 50)),
            SubmitOutcome::Queued
        );
        assert_eq!(p.suspended_count(), 0);
    }

    #[test]
    fn ineligible_when_no_machine_big_enough() {
        let mut p = small_pool();
        let big = JobSpec::new(JobId(1), t(0), d(10)).with_cores(8);
        assert_eq!(p.submit(t(0), &big), SubmitOutcome::Ineligible);
        let fat = JobSpec::new(JobId(2), t(0), d(10)).with_memory_mb(1 << 20);
        assert_eq!(p.submit(t(0), &fat), SubmitOutcome::Ineligible);
    }

    #[test]
    fn completion_resumes_suspended_before_queue() {
        let mut p = small_pool();
        // Fill machine 0 with two low jobs, machine 1 with two low jobs.
        for id in 1..=4 {
            p.submit(t(0), &spec(id, Priority::LOW, 100));
        }
        // Preempt on machine 0 with a 2-core high job (suspends jobs 1+2).
        let high = JobSpec::new(JobId(9), t(1), d(30))
            .with_priority(Priority::HIGH)
            .with_cores(2);
        let SubmitOutcome::Dispatched(a) = p.submit(t(1), &high) else {
            panic!()
        };
        assert_eq!(
            a.iter()
                .filter(|x| matches!(x, PoolAction::Suspended { .. }))
                .count(),
            2
        );
        let Some(&PoolAction::Started { machine, .. }) = a.last() else {
            panic!("the high job starts last")
        };
        // Queue a low job as well.
        p.submit(t(2), &spec(20, Priority::LOW, 10));
        assert_eq!(p.queue_len(), 1);
        // High job completes: suspended jobs resume first and fill the
        // machine; queued job stays.
        let actions = release(&mut p, t(31), JobId(9), machine).expect("running");
        let resumed: Vec<_> = actions
            .iter()
            .filter(|x| matches!(x, PoolAction::Resumed { .. }))
            .collect();
        assert_eq!(resumed.len(), 2);
        assert_eq!(p.queue_len(), 1, "no room left for the queued job");
        assert!(p.check_invariants());
    }

    #[test]
    fn completion_starts_queued_in_priority_then_fifo_order() {
        let mut p = PhysicalPool::new(PoolConfig::uniform(PoolId(0), 1, 1, 4096));
        p.submit(t(0), &spec(1, Priority::HIGH, 50)); // occupies the core
        p.submit(t(1), &spec(2, Priority::LOW, 10));
        p.submit(t(2), &spec(3, Priority::HIGH, 10)); // equal prio: queues
        p.submit(t(3), &spec(4, Priority::LOW, 10));
        assert_eq!(p.queue_len(), 3);
        let actions = release(&mut p, t(50), JobId(1), MachineId(0)).expect("running");
        // Highest-priority waiter (job 3) starts on the freed core.
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            PoolAction::Started { job: JobId(3), .. }
        ));
        assert_eq!(p.queue_len(), 2);
    }

    #[test]
    fn preemption_then_completion_resume_cycle() {
        let mut p = PhysicalPool::new(PoolConfig::uniform(PoolId(0), 1, 1, 4096));
        p.submit(t(0), &spec(1, Priority::LOW, 50));
        let out = p.submit(t(10), &spec(2, Priority::HIGH, 20));
        assert!(matches!(out, SubmitOutcome::Dispatched(_)));
        assert_eq!(p.suspended_count(), 1);
        let actions = release(&mut p, t(30), JobId(2), MachineId(0)).expect("high job running");
        assert_eq!(
            actions,
            vec![PoolAction::Resumed {
                job: JobId(1),
                machine: MachineId(0)
            }]
        );
        assert_eq!(p.suspended_count(), 0);
        assert!(runs_on(&p, JobId(1), MachineId(0)));
    }

    #[test]
    fn remove_waiting_for_rescheduling() {
        let mut p = PhysicalPool::new(PoolConfig::uniform(PoolId(0), 1, 1, 4096));
        p.submit(t(0), &spec(1, Priority::LOW, 50));
        p.submit(t(1), &spec(2, Priority::LOW, 10));
        let entry = p.remove_waiting(JobId(2)).expect("waiting");
        assert_eq!(entry.enqueued_at, t(1));
        assert_eq!(p.queue_len(), 0);
        assert!(p.remove_waiting(JobId(2)).is_none());
        assert!(p.check_invariants());
    }

    #[test]
    fn remove_suspended_frees_memory_and_dispatches() {
        // One machine: 2 cores, 4096 MB. Suspended job holds 3000 MB.
        let mut p = PhysicalPool::new(PoolConfig::uniform(PoolId(0), 1, 2, 4096));
        let fat_low = JobSpec::new(JobId(1), t(0), d(100))
            .with_priority(Priority::LOW)
            .with_cores(2)
            .with_memory_mb(3000);
        p.submit(t(0), &fat_low);
        let high = JobSpec::new(JobId(2), t(1), d(50))
            .with_priority(Priority::HIGH)
            .with_cores(1)
            .with_memory_mb(1000);
        assert!(matches!(
            p.submit(t(1), &high),
            SubmitOutcome::Dispatched(_)
        ));
        // A queued job needing 2000 MB cannot start while job 1 sits
        // suspended holding 3000 MB.
        let waiter = JobSpec::new(JobId(3), t(2), d(10))
            .with_priority(Priority::LOW)
            .with_cores(1)
            .with_memory_mb(2000);
        assert_eq!(p.submit(t(2), &waiter), SubmitOutcome::Queued);
        // Reschedule job 1 away: its memory frees, job 3 starts.
        let actions = remove_suspended(&mut p, t(3), JobId(1), MachineId(0)).expect("suspended");
        assert!(actions
            .iter()
            .any(|a| matches!(a, PoolAction::Started { job: JobId(3), .. })));
        assert_eq!(p.queue_len(), 0);
        assert!(p.check_invariants());
    }

    #[test]
    fn release_unknown_job_is_none() {
        let mut p = small_pool();
        assert!(release(&mut p, t(0), JobId(77), MachineId(0)).is_none());
        assert!(remove_suspended(&mut p, t(0), JobId(77), MachineId(0)).is_none());
    }

    #[test]
    fn release_and_remove_on_the_wrong_machine_change_nothing() {
        // Four low jobs fill both machines and a high one suspends one of
        // them. Every call below names a machine that does not host the
        // job in that state, or no machine at all.
        let mut p = small_pool();
        for id in 1..=4 {
            p.submit(t(0), &spec(id, Priority::LOW, 100));
        }
        let SubmitOutcome::Dispatched(a) = p.submit(t(1), &spec(9, Priority::HIGH, 50)) else {
            panic!("the high job preempts")
        };
        let Some(&PoolAction::Suspended {
            job: victim,
            machine,
        }) = a.first()
        else {
            panic!("a low job is suspended first")
        };
        let other = MachineId(1 - machine.0);
        let snapshot = |p: &PhysicalPool| {
            let residents = |m: u32| {
                let m = p.machine(MachineId(m)).unwrap();
                let jobs =
                    |rs: &[crate::machine::Resident]| rs.iter().map(|r| r.job).collect::<Vec<_>>();
                (jobs(m.running()), jobs(m.suspended()))
            };
            (
                p.running_count(),
                p.suspended_count(),
                p.busy_cores(),
                p.lowest_running_priority(),
                p.indexed_first_fit(Resources {
                    cores: 1,
                    memory_mb: 1,
                }),
                residents(0),
                residents(1),
            )
        };
        let before = snapshot(&p);
        let mut actions = Vec::new();
        let running_here = p.machine(machine).unwrap().running()[0].job;
        assert!(!p.release_into(t(2), running_here, other, &mut actions));
        assert!(!p.release_into(t(2), running_here, MachineId(7), &mut actions));
        assert!(!p.release_into(t(2), victim, machine, &mut actions));
        assert!(!p.remove_suspended_into(t(2), victim, other, &mut actions));
        assert!(!p.remove_suspended_into(t(2), victim, MachineId(7), &mut actions));
        assert!(!p.remove_suspended_into(t(2), running_here, machine, &mut actions));
        assert!(actions.is_empty());
        assert_eq!(snapshot(&p), before);
        assert!(p.check_invariants());
        // Named correctly, both succeed.
        assert!(p.remove_suspended_into(t(3), victim, machine, &mut actions));
        assert!(p.release_into(t(3), running_here, machine, &mut actions));
        assert!(p.check_invariants());
    }

    #[test]
    fn utilization_tracks_busy_cores() {
        let mut p = small_pool();
        assert_eq!(p.utilization(), 0.0);
        p.submit(t(0), &spec(1, Priority::LOW, 10));
        assert!((p.utilization() - 0.25).abs() < 1e-9);
        let two_core = JobSpec::new(JobId(2), t(0), d(10)).with_cores(2);
        p.submit(t(0), &two_core);
        assert!((p.utilization() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn halved_cores_scenario_transform() {
        let cfg = PoolConfig::uniform(PoolId(0), 3, 4, 1024);
        let halved = cfg.halved_cores();
        assert_eq!(halved.total_cores(), 6);
        let single = PoolConfig::uniform(PoolId(0), 1, 1, 1024).halved_cores();
        assert_eq!(single.total_cores(), 1, "cores never drop below 1");
    }

    #[test]
    fn pool_stats_accumulate() {
        let mut p = PhysicalPool::new(PoolConfig::uniform(PoolId(0), 1, 1, 4096));
        p.submit(t(0), &spec(1, Priority::LOW, 50));
        p.submit(t(1), &spec(2, Priority::LOW, 10)); // queues
        p.submit(t(2), &spec(3, Priority::HIGH, 10)); // preempts job 1
        let s = p.stats();
        assert_eq!(s.starts, 2);
        assert_eq!(s.suspensions, 1);
        assert_eq!(s.enqueues, 1);
        assert_eq!(s.peak_queue, 1);
        assert_eq!(s.peak_suspended, 1);
        // High job completes: the suspended job resumes first (no new
        // start); when it finishes, the queued job finally starts.
        release(&mut p, t(12), JobId(3), MachineId(0));
        assert_eq!(p.stats().starts, 2);
        release(&mut p, t(62), JobId(1), MachineId(0));
        assert_eq!(p.stats().starts, 3);
    }

    mod prop {
        use super::*;
        use crate::snapshot::ClusterSnapshot;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// One random pool operation.
        #[derive(Debug, Clone)]
        enum Op {
            Submit {
                prio: u8,
                cores: u32,
                mem: u64,
                runtime: u64,
            },
            Release(usize),
            RemoveWaiting(usize),
            RemoveSuspended(usize),
            FailMachine(u32),
            RestoreMachine(u32),
            DrainMachine(u32),
            UndrainMachine(u32),
            SetHealth(u32, u32),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u8..12, 1u32..3, 64u64..3000, 1u64..300).prop_map(
                    |(prio, cores, mem, runtime)| Op::Submit {
                        prio,
                        cores,
                        mem,
                        runtime
                    }
                ),
                (0usize..200).prop_map(Op::Release),
                (0usize..200).prop_map(Op::RemoveWaiting),
                (0usize..200).prop_map(Op::RemoveSuspended),
                (0u32..4).prop_map(Op::FailMachine),
                (0u32..4).prop_map(Op::RestoreMachine),
                (0u32..4).prop_map(Op::DrainMachine),
                (0u32..4).prop_map(Op::UndrainMachine),
                (0u32..5, 0u32..1200).prop_map(|(m, health)| Op::SetHealth(m, health)),
            ]
        }

        /// The test's own job-to-machine index, built only from what the
        /// pool reports (its actions and its evictions): the pool keeps no
        /// such index, so the proptests hold it for the caller.
        #[derive(Debug, Default)]
        struct Placement {
            running: HashMap<JobId, MachineId>,
            suspended: HashMap<JobId, MachineId>,
        }

        impl Placement {
            fn note(&mut self, actions: &[PoolAction]) {
                for &action in actions {
                    match action {
                        PoolAction::Started { job, machine, .. } => {
                            assert!(self.running.insert(job, machine).is_none());
                        }
                        PoolAction::Suspended { job, machine } => {
                            assert_eq!(self.running.remove(&job), Some(machine));
                            self.suspended.insert(job, machine);
                        }
                        PoolAction::Resumed { job, machine } => {
                            assert_eq!(self.suspended.remove(&job), Some(machine));
                            self.running.insert(job, machine);
                        }
                    }
                }
            }

            /// Where the caller would say `job` sits: its tracked machine,
            /// or `fallback` (possibly out of range) when it is on none.
            fn machine_of(&self, job: JobId, fallback: u32) -> MachineId {
                self.running
                    .get(&job)
                    .or_else(|| self.suspended.get(&job))
                    .copied()
                    .unwrap_or(MachineId(fallback))
            }

            /// The index agrees with every machine's resident lists.
            fn matches(&self, pool: &PhysicalPool) -> bool {
                let on = |m: MachineId, job: JobId, running: bool| {
                    pool.machine(m).is_some_and(|m| {
                        let list = if running { m.running() } else { m.suspended() };
                        list.iter().any(|r| r.job == job)
                    })
                };
                self.running.len() == pool.running_count()
                    && self.suspended.len() == pool.suspended_count()
                    && self.running.iter().all(|(&j, &m)| on(m, j, true))
                    && self.suspended.iter().all(|(&j, &m)| on(m, j, false))
            }
        }

        /// Applies `op` to `pool` at `t`: exactly one mutator call. Submits
        /// take fresh ids from `next_id`; jobs the pool accepted join
        /// `known`, which the job-targeted ops pick from (an id the pool
        /// never saw while `known` is empty). A release or removal passes
        /// the job's tracked machine, or an arbitrary one (possibly out of
        /// range) for a job on none, and must succeed exactly when the job
        /// runs, or is suspended, there.
        fn apply(
            pool: &mut PhysicalPool,
            op: &Op,
            t: SimTime,
            next_id: &mut u64,
            known: &mut Vec<JobId>,
            placed: &mut Placement,
        ) {
            let pick = |i: usize| {
                known
                    .get(i % known.len().max(1))
                    .copied()
                    .unwrap_or(JobId(u64::MAX))
            };
            let mut actions = Vec::new();
            match *op {
                Op::Submit {
                    prio,
                    cores,
                    mem,
                    runtime,
                } => {
                    let spec = JobSpec::new(JobId(*next_id), t, SimDuration::from_minutes(runtime))
                        .with_priority(Priority::new(prio))
                        .with_cores(cores)
                        .with_memory_mb(mem);
                    *next_id += 1;
                    let kind = pool.submit_into(t, &spec, &mut actions);
                    let started = actions
                        .iter()
                        .any(|a| matches!(a, PoolAction::Started { job, .. } if *job == spec.id));
                    assert_eq!(started, kind == SubmitKind::Dispatched);
                    if kind != SubmitKind::Ineligible {
                        known.push(spec.id);
                    }
                }
                Op::Release(i) => {
                    let job = pick(i);
                    let machine = placed.machine_of(job, i as u32 % 6);
                    let hosted = placed.running.get(&job) == Some(&machine);
                    assert_eq!(pool.release_into(t, job, machine, &mut actions), hosted);
                    if hosted {
                        placed.running.remove(&job);
                    }
                }
                Op::RemoveWaiting(i) => {
                    pool.remove_waiting(pick(i));
                }
                Op::RemoveSuspended(i) => {
                    let job = pick(i);
                    let machine = placed.machine_of(job, i as u32 % 6);
                    let hosted = placed.suspended.get(&job) == Some(&machine);
                    assert_eq!(
                        pool.remove_suspended_into(t, job, machine, &mut actions),
                        hosted
                    );
                    if hosted {
                        placed.suspended.remove(&job);
                    }
                }
                Op::FailMachine(m) => {
                    let (mut running, mut suspended) = (Vec::new(), Vec::new());
                    pool.fail_machine_into(MachineId(m), &mut running, &mut suspended);
                    for job in running {
                        assert_eq!(placed.running.remove(&job), Some(MachineId(m)));
                    }
                    for job in suspended {
                        assert_eq!(placed.suspended.remove(&job), Some(MachineId(m)));
                    }
                }
                Op::RestoreMachine(m) => {
                    pool.restore_machine_into(t, MachineId(m), &mut actions);
                }
                Op::DrainMachine(m) => {
                    pool.drain_machine(MachineId(m));
                }
                Op::UndrainMachine(m) => {
                    pool.undrain_machine_into(t, MachineId(m), &mut actions);
                }
                Op::SetHealth(m, health) => pool.set_machine_health(MachineId(m), health),
            }
            placed.note(&actions);
        }

        /// A pool mixing three machine configurations, five machines (not
        /// a power of two, so the index tree has padding leaves).
        fn heterogeneous_pool() -> PhysicalPool {
            let machines = [(2u32, 4096u64), (4, 8192), (2, 4096), (1, 2048), (4, 8192)]
                .into_iter()
                .enumerate()
                .map(|(i, (c, m))| MachineConfig::new(MachineId(i as u32), c, m))
                .collect();
            PhysicalPool::new(PoolConfig {
                id: PoolId(0),
                machines,
            })
        }

        proptest! {
            /// Differential check for the tentpole index: under arbitrary
            /// submit/release/suspend/fail/restore sequences on a
            /// heterogeneous pool, the indexed first-fit query picks
            /// exactly the machine the seed's reference linear scan picks,
            /// for a sweep of probe footprints after every operation.
            #[test]
            fn prop_indexed_dispatch_matches_reference_scan(
                ops in proptest::collection::vec(arb_op(), 1..120),
            ) {
                let mut pool = heterogeneous_pool();
                let mut next_id = 0u64;
                let mut known: Vec<JobId> = Vec::new();
                let mut placed = Placement::default();
                let mut now = 0u64;
                let probes = [
                    (1u32, 64u64), (1, 1500), (1, 3000), (1, 6000),
                    (2, 64), (2, 2500), (3, 4000), (4, 8192), (5, 64),
                ];
                for op in ops {
                    now += 1;
                    apply(&mut pool, &op, SimTime::from_minutes(now), &mut next_id, &mut known, &mut placed);
                    prop_assert!(placed.matches(&pool), "placement diverged after {op:?}");
                    for (cores, mem) in probes {
                        let res = Resources { cores, memory_mb: mem };
                        prop_assert_eq!(
                            pool.indexed_first_fit(res),
                            pool.reference_first_fit(res),
                            "index diverged for probe ({}, {}) after {:?}",
                            cores, mem, op
                        );
                    }
                    prop_assert!(pool.check_invariants(), "invariants violated after {op:?}");
                }
            }

            /// The pool's internal indexes and counters stay consistent
            /// under arbitrary operation sequences, and every action it
            /// reports references a job it actually knows about.
            #[test]
            fn prop_pool_invariants_under_random_ops(
                ops in proptest::collection::vec(arb_op(), 1..120),
            ) {
                let mut pool = PhysicalPool::new(PoolConfig::uniform(PoolId(0), 4, 2, 4096));
                let mut next_id = 0u64;
                let mut known: Vec<JobId> = Vec::new();
                let mut placed = Placement::default();
                for (now, op) in (1u64..).zip(ops) {
                    apply(&mut pool, &op, SimTime::from_minutes(now), &mut next_id, &mut known, &mut placed);
                    prop_assert!(placed.matches(&pool), "placement diverged after {op:?}");
                    prop_assert!(pool.check_invariants(), "invariants violated after {op:?}");
                    prop_assert!(pool.busy_cores() <= pool.total_cores());
                    prop_assert!(pool.utilization() <= 1.0 + 1e-12);
                }
            }

            /// Differential check for the generation-stamped view: under
            /// arbitrary sequences of every mutator across two pools, each
            /// call bumps exactly its own pool's generation, and the
            /// incrementally refreshed snapshot equals a full capture.
            #[test]
            fn prop_incremental_snapshot_matches_full_capture(
                steps in proptest::collection::vec((0usize..2, arb_op()), 1..120),
            ) {
                let mut pools = [
                    heterogeneous_pool(),
                    PhysicalPool::new(PoolConfig::uniform(PoolId(1), 4, 2, 4096)),
                ];
                let mut known: [Vec<JobId>; 2] = Default::default();
                let mut placed: [Placement; 2] = Default::default();
                let mut next_id = 0u64;
                let mut view = ClusterSnapshot::default();
                view.refresh(&pools);
                for (now, (k, op)) in (1u64..).zip(steps) {
                    let before = pools.each_ref().map(PhysicalPool::generation);
                    apply(&mut pools[k], &op, SimTime::from_minutes(now), &mut next_id, &mut known[k], &mut placed[k]);
                    for (i, pool) in pools.iter().enumerate() {
                        let bumps = u64::from(i == k);
                        prop_assert_eq!(pool.generation(), before[i] + bumps, "pool {} after {:?}", i, op);
                    }
                    view.refresh(&pools);
                    prop_assert_eq!(&view, &ClusterSnapshot::capture(&pools), "after {:?}", op);
                }
            }
        }
    }

    #[test]
    fn every_mutator_bumps_generation_once() {
        fn bumps(p: &mut PhysicalPool, what: &str, f: impl FnOnce(&mut PhysicalPool)) {
            let before = p.generation();
            f(p);
            assert_eq!(
                p.generation(),
                before + 1,
                "{what} must bump the generation once"
            );
        }
        let mut p = small_pool();
        let mut actions = Vec::new();
        let (mut running, mut suspended) = (Vec::new(), Vec::new());
        bumps(&mut p, "submit_into", |p| {
            p.submit_into(t(0), &spec(1, Priority::LOW, 10), &mut actions);
        });
        bumps(&mut p, "submit", |p| {
            p.submit(t(0), &spec(2, Priority::LOW, 10));
        });
        bumps(&mut p, "release_into", |p| {
            p.release_into(t(1), JobId(1), MachineId(0), &mut actions);
        });
        for id in 3..7 {
            p.submit(t(2), &spec(id, Priority::LOW, 10));
        }
        // Four low jobs fill the pool; a high one suspends one of them.
        let victim = |out: SubmitOutcome| match out {
            SubmitOutcome::Dispatched(a) => match a[0] {
                PoolAction::Suspended { job, machine } => (job, machine),
                other => panic!("expected a suspension, got {other:?}"),
            },
            other => panic!("expected a preemption, got {other:?}"),
        };
        let (job, machine) = victim(p.submit(t(3), &spec(7, Priority::HIGH, 10)));
        bumps(&mut p, "remove_suspended_into", |p| {
            p.remove_suspended_into(t(4), job, machine, &mut actions);
        });
        p.submit(t(5), &spec(9, Priority::LOW, 10));
        assert!(p.waiting_since(JobId(9)).is_some());
        bumps(&mut p, "remove_waiting", |p| {
            p.remove_waiting(JobId(9));
        });
        bumps(&mut p, "fail_machine_into", |p| {
            p.fail_machine_into(MachineId(0), &mut running, &mut suspended);
        });
        bumps(&mut p, "restore_machine_into", |p| {
            p.restore_machine_into(t(6), MachineId(0), &mut actions);
        });
        bumps(&mut p, "drain_machine", |p| {
            p.drain_machine(MachineId(0));
        });
        bumps(&mut p, "undrain_machine_into", |p| {
            p.undrain_machine_into(t(8), MachineId(0), &mut actions);
        });
        bumps(&mut p, "set_machine_health", |p| {
            p.set_machine_health(MachineId(1), 500);
        });
        assert!(p.check_invariants());
    }

    #[test]
    fn draining_machine_takes_no_new_work_but_residents_finish() {
        let mut p = small_pool();
        p.submit(t(0), &spec(1, Priority::LOW, 100)); // lands on machine 0
        assert!(p.drain_machine(MachineId(0)));
        assert_eq!(p.draining_machine_count(), 1);
        // Fresh submits skip the draining machine.
        let SubmitOutcome::Dispatched(a) = p.submit(t(1), &spec(2, Priority::LOW, 10)) else {
            panic!("machine 1 is free")
        };
        assert!(matches!(
            a[0],
            PoolAction::Started {
                machine: MachineId(1),
                ..
            }
        ));
        // The resident keeps running and completes in place.
        assert!(runs_on(&p, JobId(1), MachineId(0)));
        release(&mut p, t(100), JobId(1), MachineId(0)).expect("still running");
        // Effective capacity excludes the drained machine (2 of 4 cores).
        assert_eq!(p.effective_cores_milli(), 2 * 1000);
        assert!(p.check_invariants());
        // Undrain re-admits work.
        assert!(p.undrain_machine_into(t(101), MachineId(0), &mut Vec::new()));
        assert_eq!(p.effective_cores_milli(), 4 * 1000);
        assert_eq!(p.draining_machine_count(), 0);
        assert!(p.check_invariants());
    }

    #[test]
    fn undrain_dispatches_queued_work() {
        let mut p = PhysicalPool::new(PoolConfig::uniform(PoolId(0), 1, 1, 4096));
        assert!(p.drain_machine(MachineId(0)));
        assert_eq!(
            p.submit(t(0), &spec(1, Priority::LOW, 10)),
            SubmitOutcome::Queued,
            "draining pool queues instead of dispatching"
        );
        let mut actions = Vec::new();
        assert!(p.undrain_machine_into(t(5), MachineId(0), &mut actions));
        assert!(matches!(
            actions[0],
            PoolAction::Started { job: JobId(1), .. }
        ));
        assert!(p.check_invariants());
    }

    #[test]
    fn health_weights_effective_capacity() {
        let mut p = small_pool();
        assert_eq!(p.effective_cores_milli(), 4 * 1000);
        p.set_machine_health(MachineId(0), 500);
        assert_eq!(p.effective_cores_milli(), 2 * 500 + 2 * 1000);
        // Failing the unhealthy machine removes its weighted share.
        assert!(p.fail_machine_into(MachineId(0), &mut Vec::new(), &mut Vec::new()));
        assert_eq!(p.effective_cores_milli(), 2 * 1000);
        assert!(p.restore_machine_into(t(1), MachineId(0), &mut Vec::new()));
        assert_eq!(p.effective_cores_milli(), 2 * 500 + 2 * 1000);
        assert!(p.check_invariants());
    }

    #[test]
    fn drain_survives_fail_restore_cycle() {
        let mut p = small_pool();
        assert!(p.drain_machine(MachineId(0)));
        assert!(p.fail_machine_into(MachineId(0), &mut Vec::new(), &mut Vec::new()));
        assert!(p.restore_machine_into(t(1), MachineId(0), &mut Vec::new()));
        assert_eq!(
            p.draining_machine_count(),
            1,
            "a fault restore must not end a cordon"
        );
        assert_eq!(p.effective_cores_milli(), 2 * 1000);
        assert!(p.check_invariants());
        assert!(p.undrain_machine_into(t(2), MachineId(0), &mut Vec::new()));
        assert_eq!(p.effective_cores_milli(), 4 * 1000);
        assert!(p.check_invariants());
    }

    #[test]
    fn wait_queue_orders_priority_then_fifo() {
        let mut p = PhysicalPool::new(PoolConfig::uniform(PoolId(0), 1, 1, 1024));
        p.submit(t(0), &spec(1, Priority::HIGH, 1000)); // occupies the core
        p.submit(t(1), &spec(2, Priority::LOW, 10));
        p.submit(t(2), &spec(3, Priority::HIGH, 10));
        p.submit(t(3), &spec(4, Priority::LOW, 10));
        p.submit(t(4), &spec(5, Priority::HIGH, 10));
        let order: Vec<JobId> = p.waiting_jobs().map(|e| e.job).collect();
        assert_eq!(order, vec![JobId(3), JobId(5), JobId(2), JobId(4)]);
    }
}
