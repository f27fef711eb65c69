//! The streaming simulation backend: shard-local lazy workload
//! generation under minute-epoch barriers, with coordinator offload and
//! epoch pipelining.
//!
//! # Why a second kernel
//!
//! The serial executor materializes every [`netbatch_cluster::job::JobSpec`]
//! before t=0, so a year-scale 200-pool run holds tens of millions of
//! specs and records in memory, and generation itself is serial work
//! ahead of the run. Here each worker owns a [`TraceStream`] filtered to
//! its own pools' streams and pulls arrivals epoch by epoch, so:
//!
//! * peak memory is O(in-flight jobs): a job exists from the epoch it is
//!   generated (two minutes of lookahead) until its completion is
//!   processed, after which its record is dropped — unless observers are
//!   attached, in which case records are retained for [`SimOutput::jobs`];
//! * generation runs inside the workers' parallel section, leaving the
//!   coordinator a pure merge loop;
//! * the coordinator owns no event queue at all — each worker runs a
//!   per-pool [`EventQueue`] for completion bookings, so queue effects
//!   apply immediately and never cross a shard.
//!
//! # The epoch protocol
//!
//! Workers report, per epoch, the minutes their lookahead buffers hold
//! (`(pool, minute, record-count)`) and the earliest booking in their
//! local queues. The coordinator's entire serial section is: pick the
//! lowest known minute, hand out dense job-id bases for every pool
//! submitting at that minute (ascending pool order, so ids match the
//! materialized trace exactly — see
//! [`WorkloadSpec::validate_pool_major`]), broadcast the epoch to every
//! worker, and fold the results back in. With no observers attached the
//! coordinator may keep up to two epochs in flight (the barrier is
//! double-buffered): epoch `N+1` is pre-dispatched while `N`'s results
//! are still outstanding whenever `N+1` is the next known minute and no
//! sample tick lands at or before it. Pre-dispatch is sound because the
//! two-minute-deep lookahead means every submission minute is known one
//! epoch early, completions need no coordinator data at all, and every
//! worker receives every epoch.
//!
//! # Canonical order
//!
//! The streaming backend defines its own canonical within-minute order —
//! sample tick first (pools quiescent), then per pool ascending: buffered
//! submissions, then due completions in booking order. This order is
//! *shard-count independent* (per-pool queues and per-pool emission
//! merging make the merged sequence identical for 1 or N workers, wheel
//! or reference heap, pipelining on or off — the conformance suite
//! asserts golden traces byte-identical across all of them). It is *not*
//! the serial backend's global event-id order: cross-pool completion
//! interleaving within a minute differs. Per-pool event sequences are
//! identical, so job records and run counters match a materialized serial
//! run exactly when sampling is off; with sampling on, series values at
//! minutes where a tick coincides with events may differ (the serial
//! sampler pops mid-minute).
//!
//! # Supported configuration
//!
//! The fast class, enforced rather than degraded (the one configuration
//! space where submissions and completions are provably pool-confined):
//! `NoRes` + round-robin + zero staleness + no topology, faults,
//! lifecycle or resilience — plus the streaming-specific contract that
//! every stream is pinned to one pool in non-decreasing order. Observers
//! must not index `ctx.jobs` (the run keeps it empty until drain);
//! [`TraceRecorder`](crate::observer::TraceRecorder) qualifies; the invariant
//! checker, telemetry and span observers do not and their config switches
//! are rejected.

use std::collections::VecDeque;
use std::sync::mpsc;

use netbatch_cluster::ids::{JobId, PoolId};
use netbatch_cluster::job::{JobPhase, JobRecord};
use netbatch_cluster::pool::{PhysicalPool, PoolAction, SubmitKind};
use netbatch_sim_engine::epoch::merge_sorted_runs;
use netbatch_sim_engine::hash::IntMap;
use netbatch_sim_engine::queue::{EventId, EventQueue};
use netbatch_sim_engine::time::{SimDuration, SimTime};
use netbatch_workload::trace::TraceRecord;
use netbatch_workload::{TraceStream, WorkloadSpec};

use crate::observer::{ObsCtx, ObsEvent};
use crate::provenance::{COORD_MERGE, PHASE_COMPLETE, PHASE_GENERATE, PHASE_SUBMIT};
use crate::simulator::{SimOutput, Simulator};

/// Lookahead depth in generated-but-unsubmitted minutes per pool. Two is
/// the minimum that lets the coordinator pre-dispatch epoch `N+1` before
/// `N`'s results return: consuming a minute refills the buffer in the
/// same epoch, so every submission minute is reported at least one epoch
/// before it is due.
const LOOKAHEAD: usize = 2;

/// Maximum epochs in flight when pipelining (no observers attached).
const PIPELINE_DEPTH: usize = 2;

/// Raw view into the simulator's pool storage, shipped to workers for
/// the duration of the in-flight epochs.
///
/// # Safety
///
/// Shared mutable access is sound because accesses are disjoint and the
/// coordinator is quiescent (workers own their jobs outright, so only
/// pools are shared): pools are partitioned by `pool_id % shards`, a
/// worker only touches pools it owns, the coordinator touches
/// `sim.pools` only while no epoch is in flight (sampling and observer
/// replay both require a quiescent barrier), and workers derive only
/// short-lived per-element references, never whole-slice `&mut` views.
#[derive(Clone, Copy)]
struct PoolArena {
    pools: *mut PhysicalPool,
    len: usize,
}

// SAFETY: see the struct-level contract — disjoint pool ownership,
// quiescent coordinator, per-element reference derivation.
unsafe impl Send for PoolArena {}

impl PoolArena {
    fn of(sim: &mut Simulator) -> Self {
        PoolArena {
            pools: sim.pools.as_mut_ptr(),
            len: sim.pools.len(),
        }
    }

    /// # Safety
    /// Caller must own `id` under the shard partition and hold no other
    /// live reference to this pool.
    #[allow(clippy::mut_from_ref)]
    unsafe fn pool(&self, id: PoolId) -> &mut PhysicalPool {
        debug_assert!(id.as_usize() < self.len);
        &mut *self.pools.add(id.as_usize())
    }
}

/// One epoch's work order, broadcast to every worker.
struct FlushMsg {
    epoch: SimTime,
    /// Dense job-id base per pool submitting this epoch, ascending pool
    /// order. Pools absent from the list have no buffered minute due.
    bases: Vec<(u16, u64)>,
    arena: PoolArena,
}

/// What a worker hands back after each epoch (and once at priming).
struct EpochResult {
    shard: usize,
    /// `None` for the priming report sent before any epoch runs.
    epoch: Option<SimTime>,
    /// Buffered observer events keyed by pool id (ascending within the
    /// run; pools are worker-disjoint, so a k-way merge by pool restores
    /// the canonical order).
    emissions: Vec<(u32, ObsEvent)>,
    completed: u64,
    suspensions: u64,
    unrunnable: u64,
    /// Events executed this epoch (submissions incl. unrunnable ones,
    /// plus delivered completions).
    executed: u64,
    /// Post-epoch lookahead state: every buffered `(pool, minute,
    /// record-count)`, the coordinator's source of job-id bases.
    pending: Vec<(u16, SimTime, u32)>,
    /// Earliest completion booking across this worker's pool queues.
    next_local: Option<SimTime>,
    /// Per-phase `(items, nanos)` self-profile (submit/complete/generate);
    /// zeros when profiling is off.
    profile: [(u64, u64); 3],
}

/// One pool's streaming state inside a worker.
struct PoolLane<'a> {
    pool: PoolId,
    stream: TraceStream<'a>,
    /// Generated-but-unsubmitted minutes, oldest first, at most
    /// [`LOOKAHEAD`] deep.
    ahead: VecDeque<(u64, Vec<TraceRecord>)>,
    /// Completion bookings for jobs running in this pool. Per-pool (not
    /// per-shard) so delivery order is independent of the shard count.
    queue: EventQueue<JobId>,
}

/// Per-thread streaming executor: generates its pools' arrivals, runs
/// the serial executor's fast-class transitions (same record
/// transitions, same pool calls, same emission order), and applies
/// queue effects immediately against its own per-pool queues.
struct StreamWorker<'a> {
    shard: usize,
    lanes: Vec<PoolLane<'a>>,
    /// Jobs currently in flight (submitted and not yet completed); the
    /// O(in-flight) working set that replaces the dense `sim.jobs` vec.
    jobs: IntMap<JobId, JobRecord>,
    /// Completed (and unrunnable) records, kept only when `retain`.
    finished: Vec<JobRecord>,
    retain: bool,
    collect: bool,
    profile: bool,
    actions: Vec<PoolAction>,
    emissions: Vec<(u32, ObsEvent)>,
    completed: u64,
    suspensions: u64,
    unrunnable: u64,
    executed: u64,
    profile_nanos: [(u64, u64); 3],
    /// Emission key of the pool currently being processed.
    cur_pool: u32,
}

impl<'a> StreamWorker<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shard: usize,
        shards: usize,
        spec: &'a WorkloadSpec,
        seed: u64,
        pinned: &[u16],
        pool_count: u16,
        reference_queue: bool,
        retain: bool,
        collect: bool,
        profile: bool,
    ) -> Self {
        let lanes = (shard..pool_count as usize)
            .step_by(shards)
            .map(|p| PoolLane {
                pool: PoolId(p as u16),
                stream: TraceStream::filtered(spec, seed, |i| pinned[i] as usize == p),
                ahead: VecDeque::new(),
                queue: if reference_queue {
                    EventQueue::with_reference_heap()
                } else {
                    EventQueue::new()
                },
            })
            .collect();
        StreamWorker {
            shard,
            lanes,
            jobs: IntMap::default(),
            finished: Vec::new(),
            retain,
            collect,
            profile,
            actions: Vec::new(),
            emissions: Vec::new(),
            completed: 0,
            suspensions: 0,
            unrunnable: 0,
            executed: 0,
            profile_nanos: [(0, 0); 3],
            cur_pool: 0,
        }
    }

    fn emit(&mut self, event: ObsEvent) {
        if self.collect {
            self.emissions.push((self.cur_pool, event));
        }
    }

    /// Tops up one lane's lookahead to [`LOOKAHEAD`] minutes. This is
    /// where generation cost is paid — inside the worker's epoch, off the
    /// coordinator's serial section.
    fn refill(&mut self, li: usize) {
        let t0 = self.profile.then(std::time::Instant::now);
        let mut generated = 0u64;
        let lane = &mut self.lanes[li];
        while lane.ahead.len() < LOOKAHEAD {
            let Some(m) = lane.stream.peek_minute() else {
                break;
            };
            let mut records = Vec::new();
            generated += lane.stream.drain_minute(m, &mut records) as u64;
            lane.ahead.push_back((m, records));
        }
        if let Some(t0) = t0 {
            let cell = &mut self.profile_nanos[PHASE_GENERATE];
            cell.0 += generated;
            cell.1 += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Fills every lane's lookahead before the first epoch, so the
    /// priming report carries the workload's first minutes.
    fn prime(&mut self) {
        for li in 0..self.lanes.len() {
            self.refill(li);
        }
    }

    /// Executes one epoch: per owned pool ascending, deliver buffered
    /// submissions, then pop due completions, then refill the lookahead.
    fn run_epoch(&mut self, epoch: SimTime, bases: &[(u16, u64)], arena: &PoolArena) {
        let minute = epoch.as_minutes();
        for li in 0..self.lanes.len() {
            let pool = self.lanes[li].pool;
            self.cur_pool = pool.as_usize() as u32;
            if self.lanes[li].ahead.front().map(|&(m, _)| m) == Some(minute) {
                let (_, records) = self.lanes[li].ahead.pop_front().expect("front checked");
                let base = bases
                    .iter()
                    .find(|&&(p, _)| p as usize == pool.as_usize())
                    .map(|&(_, b)| b)
                    .expect("coordinator assigns a base to every reported minute");
                let t0 = self.profile.then(std::time::Instant::now);
                let n = records.len() as u64;
                for (k, record) in records.into_iter().enumerate() {
                    self.run_submit(li, JobId(base + k as u64), record, epoch, arena);
                }
                if let Some(t0) = t0 {
                    let cell = &mut self.profile_nanos[PHASE_SUBMIT];
                    cell.0 += n;
                    cell.1 += t0.elapsed().as_nanos() as u64;
                }
                self.refill(li);
            }
            let t0 = self.profile.then(std::time::Instant::now);
            let mut popped = 0u64;
            while self.lanes[li].queue.peek_time() == Some(epoch) {
                let (_, id, job) = self.lanes[li].queue.pop_with_id().expect("time peeked");
                self.run_complete(li, job, id, epoch, arena);
                popped += 1;
            }
            if let Some(t0) = t0 {
                let cell = &mut self.profile_nanos[PHASE_COMPLETE];
                cell.0 += popped;
                cell.1 += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Mirror of the serial `Ev::Submit` arm under the fast class: the
    /// target pool is the job's pinned pool, and topology and wait timers
    /// do not exist. The record is instantiated here (the spec never
    /// existed before this call) and ineligibility is handled in place of
    /// the serial give-up.
    fn run_submit(
        &mut self,
        li: usize,
        id: JobId,
        record: TraceRecord,
        now: SimTime,
        arena: &PoolArena,
    ) {
        self.executed += 1;
        self.emit(ObsEvent::Kernel { kind: "submit" });
        let mut job = JobRecord::new(record.to_spec(id));
        job.submit(now).expect("streamed submissions fire once");
        self.emit(ObsEvent::Submit { job: id });
        let pool = self.lanes[li].pool;
        let resources = job.spec().resources;
        // SAFETY: `pool` is owned by this worker (PoolArena contract).
        let pool_ref = unsafe { arena.pool(pool) };
        if !pool_ref.is_eligible(resources) {
            // The serial give-up (unhardened): the job's only candidate
            // pool can never run it. The record parks in Submitted phase.
            self.unrunnable += 1;
            self.emit(ObsEvent::Unrunnable { job: id });
            if self.retain {
                self.finished.push(job);
            }
            return;
        }
        let outcome = pool_ref.submit_into(now, job.spec(), &mut self.actions);
        match outcome {
            SubmitKind::Dispatched => {
                self.emit(ObsEvent::PoolChosen { job: id, pool });
                self.jobs.insert(id, job);
                self.apply_batch(li, pool, now);
            }
            SubmitKind::Queued => {
                self.emit(ObsEvent::PoolChosen { job: id, pool });
                job.enqueue(now, pool).expect("job routed while at VPM");
                self.emit(ObsEvent::Enqueue { job: id, pool });
                self.jobs.insert(id, job);
            }
            SubmitKind::Ineligible => unreachable!("eligibility pre-checked"),
        }
        self.actions.clear();
    }

    /// Mirror of the serial `Ev::Complete` arm under the fast class
    /// (shadow copies and duplicate races need the Duplicate decision,
    /// which `NoRes` never makes). No staleness check is needed:
    /// suspensions cancel their booking in the same call, so a superseded
    /// completion never survives in the queue to be delivered.
    fn run_complete(
        &mut self,
        li: usize,
        job: JobId,
        delivered: EventId,
        now: SimTime,
        arena: &PoolArena,
    ) {
        self.executed += 1;
        self.emit(ObsEvent::Kernel { kind: "complete" });
        let rec = self
            .jobs
            .get_mut(&job)
            .expect("delivered completion for a tracked job");
        debug_assert_eq!(
            rec.completion_event,
            Some(delivered),
            "immediate cancellation leaves no stale deliveries"
        );
        let JobPhase::Running { pool, machine } = rec.phase() else {
            unreachable!("live completion for non-running job");
        };
        rec.completion_event = None;
        rec.complete(now).expect("phase checked running");
        self.completed += 1;
        self.emit(ObsEvent::Complete { job, pool, machine });
        debug_assert_eq!(
            pool, self.lanes[li].pool,
            "jobs never leave their pinned pool"
        );
        // SAFETY: `pool` is owned by this worker.
        let was_running = unsafe { arena.pool(pool) }.release_into(now, job, &mut self.actions);
        assert!(was_running, "running job releases");
        let done = self.jobs.remove(&job).expect("presence checked");
        if self.retain {
            self.finished.push(done);
        }
        self.apply_batch(li, pool, now);
    }

    /// Mirror of the serial `apply_batch` drain, with queue effects
    /// applied immediately against the lane's own queue. The policy
    /// consultation vanishes: `NoRes` always answers `Stay`, reads no
    /// randomness and leaves no side effect, so suspended jobs stay put.
    fn apply_batch(&mut self, li: usize, pool: PoolId, now: SimTime) {
        if !self.actions.is_empty() {
            self.emit(ObsEvent::BatchStart { pool });
        }
        let actions = std::mem::take(&mut self.actions);
        for &action in &actions {
            match action {
                PoolAction::Started { job, machine, wall } => {
                    let ev = self.lanes[li].queue.schedule(now + wall, job);
                    let rec = self.jobs.get_mut(&job).expect("pool starts tracked jobs");
                    let from_queue = matches!(rec.phase(), JobPhase::Waiting { .. });
                    rec.start(now, pool, machine, wall)
                        .expect("pool starts only routed jobs");
                    rec.completion_event = Some(ev);
                    self.emit(ObsEvent::Dispatch {
                        job,
                        pool,
                        machine,
                        wall,
                        from_queue,
                    });
                }
                PoolAction::Suspended { job, machine } => {
                    let ev = self
                        .jobs
                        .get_mut(&job)
                        .expect("pool suspends tracked jobs")
                        .completion_event
                        .take()
                        .expect("running job has a booked completion");
                    let live = self.lanes[li].queue.cancel(ev);
                    assert!(live, "completion bookings lie strictly ahead of the epoch");
                    self.jobs
                        .get_mut(&job)
                        .expect("presence checked")
                        .suspend(now)
                        .expect("pool suspends only running jobs");
                    self.suspensions += 1;
                    self.emit(ObsEvent::Suspend { job, pool, machine });
                }
                PoolAction::Resumed { job, machine } => {
                    let rec = self.jobs.get_mut(&job).expect("pool resumes tracked jobs");
                    rec.resume(now).expect("pool resumes only suspended jobs");
                    let wall = rec.remaining_wall();
                    let ev = self.lanes[li].queue.schedule(now + wall, job);
                    self.jobs
                        .get_mut(&job)
                        .expect("presence checked")
                        .completion_event = Some(ev);
                    self.emit(ObsEvent::Resume { job, pool, machine });
                }
            }
        }
        self.actions = actions;
        self.actions.clear();
    }

    /// Packages the epoch's buffered progress plus the post-epoch
    /// lookahead/queue summary the coordinator schedules from.
    fn epoch_result(&mut self, epoch: Option<SimTime>) -> EpochResult {
        let mut pending = Vec::new();
        let mut next_local: Option<SimTime> = None;
        for lane in &mut self.lanes {
            for (m, records) in &lane.ahead {
                pending.push((
                    lane.pool.as_usize() as u16,
                    SimTime::from_minutes(*m),
                    records.len() as u32,
                ));
            }
            if let Some(t) = lane.queue.peek_time() {
                next_local = Some(next_local.map_or(t, |n| n.min(t)));
            }
        }
        EpochResult {
            shard: self.shard,
            epoch,
            emissions: std::mem::take(&mut self.emissions),
            completed: std::mem::take(&mut self.completed),
            suspensions: std::mem::take(&mut self.suspensions),
            unrunnable: std::mem::take(&mut self.unrunnable),
            executed: std::mem::take(&mut self.executed),
            pending,
            next_local,
            profile: std::mem::take(&mut self.profile_nanos),
        }
    }
}

/// Rejects every configuration the streaming kernel does not model.
/// Panics (rather than silently falling back to the serial executor) so
/// a run outside the fast class is never mistaken for a streaming one.
fn validate(sim: &Simulator, workload: &WorkloadSpec) {
    assert!(
        sim.jobs.is_empty(),
        "streaming runs generate their own jobs; construct the Simulator with an empty spec list"
    );
    assert!(
        sim.policy.is_no_res(),
        "streaming backend supports only the NoRes fast class"
    );
    assert!(
        sim.initial.is_round_robin(),
        "streaming backend requires round-robin initial scheduling"
    );
    assert!(
        sim.config.view_staleness.is_zero(),
        "streaming backend requires zero view staleness"
    );
    assert!(
        sim.config.topology.is_none(),
        "streaming backend does not model VPM topologies"
    );
    assert!(
        sim.config.failures.is_empty() && sim.config.fault_model.is_none(),
        "streaming backend does not model machine faults"
    );
    assert!(
        sim.config.lifecycle.is_none() && sim.config.drains.is_empty(),
        "streaming backend does not model machine lifecycle"
    );
    assert!(
        !sim.config.resilience.enabled,
        "streaming backend does not model scheduler resilience"
    );
    assert!(
        !sim.config.check_invariants && !sim.config.telemetry && !sim.config.spans,
        "built-in dense-id observers cannot run on the streaming backend \
         (ctx.jobs stays empty until drain)"
    );
    if let Err(err) = workload.validate_pool_major(sim.pool_count) {
        panic!("streaming workload contract violated: {err}");
    }
}

/// Entry point from [`Simulator::run_streaming`].
pub(crate) fn run_streaming(
    mut sim: Simulator,
    workload: &WorkloadSpec,
    seed: u64,
    shards: usize,
) -> SimOutput {
    validate(&sim, workload);
    let pool_count = sim.pool_count as usize;
    // Shards past the pool count would own no pools; output does not
    // depend on the shard count, so spawn no idle workers.
    let shards = shards.min(pool_count).max(1);
    let pinned: Vec<u16> = workload
        .streams
        .iter()
        .map(|s| s.pinned_pool().expect("validated pool-major"))
        .collect();
    // Finished records are retained only for observer runs; benchmark
    // runs drop them at completion, which is what keeps memory flat.
    let retain = !sim.observers.is_empty();
    let collect = retain;
    // Observer replay reads pool state at the barrier, so pipelining
    // (workers mutating pools while the coordinator replays) is only
    // sound without observers.
    let pipeline = sim.config.stream_pipeline && !collect;
    let profile_on = sim.profile.is_some();
    if let Some(profile) = sim.profile.as_mut() {
        profile.init_shards(shards);
    }
    let reference_queue = sim.config.use_reference_queue;
    let spec_ref = workload;
    let pinned_ref = &pinned;

    std::thread::scope(|scope| {
        let (result_tx, result_rx) = mpsc::channel::<EpochResult>();
        let mut work_txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel::<FlushMsg>();
            work_txs.push(tx);
            let results = result_tx.clone();
            handles.push(scope.spawn(move || {
                let mut worker = StreamWorker::new(
                    shard,
                    shards,
                    spec_ref,
                    seed,
                    pinned_ref,
                    pool_count as u16,
                    reference_queue,
                    retain,
                    collect,
                    profile_on,
                );
                worker.prime();
                let primed = worker.epoch_result(None);
                if results.send(primed).is_err() {
                    return (worker.jobs, worker.finished);
                }
                while let Ok(msg) = rx.recv() {
                    worker.run_epoch(msg.epoch, &msg.bases, &msg.arena);
                    let result = worker.epoch_result(Some(msg.epoch));
                    if results.send(result).is_err() {
                        break;
                    }
                }
                (worker.jobs, worker.finished)
            }));
        }
        drop(result_tx);

        // Scheduling state: per-pool pending minutes (each ≤ LOOKAHEAD
        // deep), per-shard earliest local booking, both wholesale-replaced
        // from each report after filtering out minutes already dispatched
        // (a pre-dispatched epoch's own minute would otherwise re-trigger
        // it and stall the pipeline).
        let mut pend: Vec<VecDeque<(SimTime, u32)>> = vec![VecDeque::new(); pool_count];
        let mut next_local: Vec<Option<SimTime>> = vec![None; shards];
        let mut inflight: VecDeque<SimTime> = VecDeque::new();
        let mut stash: Vec<EpochResult> = Vec::new();
        let mut last_dispatched: Option<SimTime> = None;
        let mut next_job_id: u64 = 0;
        let mut events: u64 = 0;
        let mut end_time = SimTime::ZERO;
        let mut bases: Vec<(u16, u64)> = Vec::new();

        macro_rules! apply_report {
            ($r:expr) => {{
                let r = $r;
                sim.counters.completed += r.completed;
                sim.counters.suspensions += r.suspensions;
                sim.counters.unrunnable += r.unrunnable;
                for p in (r.shard..pool_count).step_by(shards) {
                    pend[p].clear();
                }
                for &(p, m, n) in &r.pending {
                    if last_dispatched.map_or(true, |l| m > l) {
                        pend[p as usize].push_back((m, n));
                    }
                }
                next_local[r.shard] = r
                    .next_local
                    .filter(|&m| last_dispatched.map_or(true, |l| m > l));
                if let Some(profile) = sim.profile.as_mut() {
                    for (phase, &(items, nanos)) in r.profile.iter().enumerate() {
                        profile.record_shard(r.shard, phase, nanos, items);
                    }
                }
                r
            }};
        }

        macro_rules! dispatch {
            ($e:expr) => {{
                let e: SimTime = $e;
                bases.clear();
                for p in 0..pool_count {
                    if pend[p].front().map(|&(m, _)| m) == Some(e) {
                        let (_, n) = pend[p].pop_front().expect("front checked");
                        bases.push((p as u16, next_job_id));
                        next_job_id += u64::from(n);
                    }
                }
                let arena = PoolArena::of(&mut sim);
                for tx in &work_txs {
                    tx.send(FlushMsg {
                        epoch: e,
                        bases: bases.clone(),
                        arena,
                    })
                    .expect("worker alive while coordinator runs");
                }
                inflight.push_back(e);
                last_dispatched = Some(e);
                // The dispatched minute is now the workers' problem; a
                // next_local entry at it must not re-trigger dispatch.
                for nl in next_local.iter_mut() {
                    if *nl == Some(e) {
                        *nl = None;
                    }
                }
            }};
        }

        for _ in 0..shards {
            let r = result_rx.recv().expect("worker panicked while priming");
            debug_assert!(r.epoch.is_none(), "first report is the priming one");
            apply_report!(&r);
        }

        loop {
            let next_known: Option<SimTime> = pend
                .iter()
                .filter_map(|d| d.front().map(|&(m, _)| m))
                .chain(next_local.iter().flatten().copied())
                .min();
            let next_sample = sim.peek_sample_tick();
            if inflight.is_empty() {
                let Some(e) = next_known else {
                    // Drained. Mirror the serial run's trailing tick: the
                    // first tick at which the sampler observes completion.
                    if let Some(t) = next_sample {
                        sim.record_sample(t);
                        sim.consume_sample_tick();
                        events += 1;
                        end_time = end_time.max(t);
                    }
                    break;
                };
                if let Some(s) = next_sample {
                    if s <= e {
                        // Quiescent barrier: safe to read pool state.
                        sim.record_sample(s);
                        sim.consume_sample_tick();
                        events += 1;
                        end_time = s;
                        continue;
                    }
                }
                dispatch!(e);
            } else {
                let succ =
                    last_dispatched.expect("inflight implies a dispatch") + SimDuration::MINUTE;
                let may_pipeline = pipeline
                    && inflight.len() < PIPELINE_DEPTH
                    && next_known == Some(succ)
                    && next_sample.is_none_or(|s| s > succ);
                if may_pipeline {
                    dispatch!(succ);
                    continue;
                }
                // Barrier: fold in the oldest in-flight epoch.
                let e = inflight.pop_front().expect("nonempty checked");
                let mut results: Vec<EpochResult> = Vec::with_capacity(shards);
                let mut i = 0;
                while i < stash.len() {
                    if stash[i].epoch == Some(e) {
                        results.push(stash.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                while results.len() < shards {
                    let r = result_rx.recv().expect("worker panicked during epoch");
                    if r.epoch == Some(e) {
                        results.push(r);
                    } else {
                        stash.push(r);
                    }
                }
                let t0 = profile_on.then(std::time::Instant::now);
                results.sort_by_key(|r| r.shard);
                let mut executed = 0u64;
                let mut emission_runs: Vec<Vec<(u32, ObsEvent)>> = Vec::new();
                for r in results {
                    let r = apply_report!(r);
                    executed += r.executed;
                    if collect {
                        emission_runs.push(r.emissions);
                    }
                }
                events += executed;
                if executed > 0 {
                    // A dispatched epoch can come up empty when the
                    // booking that announced it was cancelled since; the
                    // serial clock would not have moved either.
                    end_time = e;
                }
                if collect {
                    debug_assert!(inflight.is_empty(), "replay requires quiescent workers");
                    let emissions = merge_sorted_runs(emission_runs, |run| run.0);
                    let ctx = ObsCtx {
                        pools: &sim.pools,
                        jobs: &sim.jobs,
                        shadows: &sim.shadows,
                    };
                    for obs in &mut sim.observers {
                        for (_, event) in &emissions {
                            obs.on_replayed_event(e, event, &ctx);
                        }
                        obs.on_settle(e, &ctx);
                    }
                }
                if let Some(t0) = t0 {
                    let nanos = t0.elapsed().as_nanos() as u64;
                    if let Some(profile) = sim.profile.as_mut() {
                        profile.record_coord_phase(COORD_MERGE, nanos, 1);
                    }
                }
            }
        }

        drop(work_txs);
        let mut finished: Vec<JobRecord> = Vec::new();
        for handle in handles {
            let (jobs, mut fin) = handle.join().expect("worker thread panicked");
            assert!(jobs.is_empty(), "a drained run leaves no in-flight jobs");
            finished.append(&mut fin);
        }
        if retain {
            finished.sort_by_key(JobRecord::id);
            debug_assert_eq!(
                finished.len() as u64,
                next_job_id,
                "observer runs retain every generated job"
            );
            sim.jobs = finished;
        }
        sim.total_jobs = next_job_id;
        sim.finish_run(end_time, events)
    })
}
