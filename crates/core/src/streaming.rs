//! The streaming simulation backend: shard-local lazy workload
//! generation, workers that number their own jobs, and barriers only
//! where the model reads quiescent pools.
//!
//! # Why a second kernel
//!
//! The serial executor materializes every [`netbatch_cluster::job::JobSpec`]
//! before t=0, so a year-scale 200-pool run holds tens of millions of
//! specs and records in memory, and generation itself is serial work
//! ahead of the run. Here each worker owns a [`TraceStream`] per pool,
//! filtered to that pool's streams, and draws a minute's records when it
//! submits them, so:
//!
//! * peak memory is O(in-flight jobs): a job exists from its submission
//!   until its completion is processed. Its record lives in the shard's
//!   [`JobTable`], the serial kernel's slab of in-flight records, and
//!   retiring it folds it into the shard's [`JobTotals`] and frees its
//!   entry — unless observers are attached, in which case the table
//!   keeps it for [`SimOutput::jobs`] and it is folded when the run
//!   finishes (the serial kernel's keep rule); shards' totals merge by
//!   addition;
//! * generation runs inside each shard's part of a dispatch, so the
//!   shards generate in parallel;
//! * each shard's worker runs one [`EventQueue`] of `(lane, job)`
//!   completion bookings for all of its pools, so queue effects apply
//!   immediately and never cross a shard; the coordinator's own
//!   scheduling state holds no event queue.
//!
//! Within a pool a worker runs the serial kernel's own protocol code,
//! the shared step in `pool_step`, through a [`StreamHost`]; what is
//! particular to this kernel is generation, lanes and barriers.
//!
//! # Threads
//!
//! A run on N shards uses N threads. The coordinator thread drives shard
//! 0's worker itself; shards 1.. run on scoped threads. Each dispatch
//! goes to the spawned shards first, then the coordinator runs shard 0's
//! part inline. A barrier thus waits on N − 1 cross-thread reports, and
//! a 1-shard run spawns no thread and sends no message. The channels are
//! locals of the scope closure: if shard 0 panics on the coordinator
//! thread, unwinding closes them and the spawned workers exit.
//!
//! # Job ids
//!
//! A job's id is its record's position in the materialized trace, and
//! each worker numbers its own jobs. Its [`IdClock`] walks every stream's
//! arrival substream, minutes only, and at each of the worker's
//! submission minutes yields the id of each stream's first record there:
//! the records of all earlier minutes plus those at this minute on lower
//! streams. A pool's streams are consecutive
//! ([`WorkloadSpec::validate_pool_major`]), so the pool's records at a
//! minute take consecutive ids from its first stream's. Ids thus match
//! [`WorkloadSpec::generate`]'s exactly, and none crosses a thread.
//!
//! # Barrier duties
//!
//! With local ids, and jobs that never leave their pool, the workers
//! stop only where the model reads pools that no worker is changing:
//!
//! * at each sample tick, where the coordinator records the sample;
//! * at each active minute of an observed run, where it replays the
//!   minute's emissions and calls
//!   [`SimObserver::on_settle`](crate::observer::SimObserver::on_settle);
//! * at the end, where it folds the workers' counters and tables.
//!
//! Every report carries the worker's next active minute: its earliest
//! submission minute or booking. The coordinator takes the earliest,
//! `e`, over the workers, records the sample ticks at or before `e`, and
//! sends every worker the bound of the next duty: `e + 1` in an observed
//! run, else the next sample tick, else none. A worker runs each of its
//! own active minutes before the bound and reports. An unsampled,
//! unobserved run is therefore one dispatch per worker, and the barrier
//! count follows the model's cadence, never the workload's.
//!
//! A minute visits only its active lanes: the lanes submitting at it and
//! the lanes with a booking due.
//!
//! # Canonical order
//!
//! The streaming backend defines its own canonical within-minute order —
//! sample tick first (pools quiescent), then per pool ascending:
//! submissions, then due completions in booking order. One queue per
//! worker keeps this order: at minute `e` the worker pops every booking
//! due at `e` and stable-sorts the batch by lane. Same-minute bookings
//! pop in booking order (the queue is FIFO within a minute), so the sort
//! keeps each pool's booking order, which is exactly what a per-pool
//! queue would deliver. A booking the lane makes for `e` itself while
//! running `e` (a job resumed with no wall time left) is drained right
//! after that lane's batch, behind the earlier ones, again as a per-pool
//! queue would. Since the order is per pool, it is *shard-count
//! independent*: the merged sequence is identical for 1 or N workers,
//! wheel or reference heap, with a barrier at every minute or only at
//! the duties (the conformance suite asserts golden traces
//! byte-identical across all of them). It is *not* the serial backend's
//! global event-id order: cross-pool completion interleaving within a
//! minute differs. Per-pool event sequences are identical, so job
//! records and run counters match a materialized serial run exactly when
//! sampling is off; with sampling on, series values at minutes where a
//! tick coincides with events may differ (the serial sampler pops
//! mid-minute).
//!
//! # Staleness skip
//!
//! Popping the due batch first means a booking can leave the queue
//! before the submissions of the same minute run. If one of those
//! submissions preempts the booked job, the suspension's `cancel` finds
//! the booking already gone and returns `false`; the batch entry is then
//! skipped at delivery because the job's
//! [`JobRecord::completion_event`] no longer names it (the suspension
//! cleared it, and a resume books a new handle).
//!
//! # Supported configuration
//!
//! The fast class, enforced rather than degraded (the one configuration
//! space where submissions and completions are provably pool-confined):
//! `NoRes` + round-robin + zero staleness + no topology, restart knobs,
//! health awareness, faults, lifecycle or resilience — plus the
//! streaming-specific contract that every stream is pinned to one pool in
//! non-decreasing order. Observers must not index `ctx.jobs` (the run
//! keeps it empty until drain);
//! [`TraceRecorder`](crate::observer::TraceRecorder) qualifies; the invariant
//! checker, telemetry and span observers do not, and are rejected whether
//! attached directly or through their config switches. The rules live in
//! one gate, [`Simulator::check_streaming`], which the run asserts.
//!
//! Generation is the same code as a materialized run's: a lane's
//! [`TraceStream`] is the workload's one generator, filtered to the
//! lane's pool, and [`WorkloadSpec::generate`] drains the unfiltered
//! stream.

use std::mem::take;
use std::sync::mpsc;
use std::time::Instant;

use netbatch_cluster::ids::{JobId, PoolId};
use netbatch_cluster::job::{JobRecord, JobSpec, PoolAffinity};
use netbatch_cluster::pool::{PhysicalPool, PoolAction, SubmitKind};
use netbatch_sim_engine::epoch::merge_sorted_runs;
use netbatch_sim_engine::queue::{EventId, EventQueue};
use netbatch_sim_engine::time::{SimDuration, SimTime};
use netbatch_workload::trace::TraceRecord;
use netbatch_workload::{IdClock, TraceStream, WorkloadSpec};

use crate::experiment::JobTotals;
use crate::job_table::JobTable;
use crate::observer::{ObsCtx, ObsEvent};
use crate::pool_step::{self, PoolHost, Suspended};
use crate::provenance::{COORD_MERGE, PHASE_COMPLETE, PHASE_GENERATE, PHASE_SUBMIT};
use crate::simulator::{SimOutput, Simulator};

/// Raw view into the simulator's pool storage, shipped to workers for
/// the duration of a dispatch.
///
/// # Safety
///
/// Shared mutable access is sound because accesses are disjoint (workers
/// own their jobs outright, so only pools are shared): pools are
/// partitioned by `pool_id % shards`, and a worker only touches pools it
/// owns. Shard 0's worker runs on the coordinator thread, so the
/// coordinator does mutate its own shard's pools while other shards'
/// dispatches run, but only through the arena, like any worker. Beyond
/// that the coordinator forms no reference into `sim.pools` while a
/// dispatch runs (sampling and observer replay both happen at a
/// quiescent barrier), and workers derive only short-lived per-element
/// references, never whole-slice `&mut` views.
#[derive(Clone, Copy)]
struct PoolArena {
    pools: *mut PhysicalPool,
    len: usize,
}

// SAFETY: see the struct-level contract — disjoint pool ownership,
// coordinator reads of `sim.pools` only at quiescent barriers,
// per-element reference derivation.
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

/// One dispatch's work order, broadcast to every worker.
struct Dispatch {
    /// Exclusive bound: the next barrier duty. The worker runs each of
    /// its own active minutes before it.
    bound: SimTime,
    arena: PoolArena,
    /// An emptied emission buffer of a folded report, handed back so the
    /// worker refills it instead of growing a fresh one.
    emissions: Vec<(u32, ObsEvent)>,
}

/// What a worker hands back once it is built and after each dispatch.
struct Report {
    shard: usize,
    /// Buffered observer events keyed by pool id (ascending within the
    /// run; pools are worker-disjoint, so a k-way merge by pool restores
    /// the canonical order).
    emissions: Vec<(u32, ObsEvent)>,
    /// Jobs submitted (records drawn).
    submitted: u64,
    completed: u64,
    unrunnable: u64,
    /// Events executed (submissions incl. unrunnable ones, plus delivered
    /// completions).
    executed: u64,
    /// Latest minute at which an event executed.
    last_active: Option<SimTime>,
    /// The worker's next active minute: its earliest submission minute
    /// or booking, at or past the dispatch's bound.
    next: Option<SimTime>,
    /// Per-phase `(items, nanos)` self-profile (submit/complete/generate);
    /// zeros when profiling is off.
    profile: [(u64, u64); 3],
}

/// One pool's streaming state inside a worker.
struct PoolLane<'a> {
    pool: PoolId,
    /// The pool's streams; a minute's records are drawn when they are
    /// submitted.
    stream: TraceStream<'a>,
    /// The pool's first stream: the pool's records at a minute take
    /// consecutive ids from that stream's first id there.
    first_stream: usize,
}

/// Per-thread streaming executor: generates its pools' arrivals, numbers
/// them, feeds them and its due completions through the pool step both
/// kernels share (so record transitions, pool calls and emission order
/// are the serial kernel's), and keeps its pools' completion bookings in
/// its own queue.
struct StreamWorker<'a> {
    shard: usize,
    /// Owned pools, ascending: lane `li` is pool `shard + li * shards`.
    lanes: Vec<PoolLane<'a>>,
    /// Trace ids of every stream's records, walked to this worker's
    /// submission minutes.
    clock: IdClock,
    /// The earliest minute any lane submits at, if any.
    next_submit: Option<u64>,
    /// Completion bookings of every owned pool, as `(lane, job)`.
    queue: EventQueue<(u32, JobId)>,
    /// The current minute's due bookings `(lane, handle, job)`; reused.
    due: Vec<(u32, EventId, JobId)>,
    /// `(lane, job-id base)` of the lanes submitting at the current
    /// minute, ascending; reused.
    subs: Vec<(u32, u64)>,
    /// The submitting lane's records; reused.
    records: Vec<TraceRecord>,
    /// Records of the jobs in flight (submitted and not yet completed),
    /// the O(in-flight) working set, reached through a map from id to
    /// slab entry: a per-id slot vector would grow with the horizon. An
    /// observed run's table also keeps every retired record.
    jobs: JobTable,
    /// Totals of the retired jobs whose records were not kept.
    totals: JobTotals,
    /// Observers are attached: buffer emissions for replay.
    observed: bool,
    profile: bool,
    /// The pool step's scratch batch and suspension worklist; reused.
    actions: Vec<PoolAction>,
    suspended: Suspended,
    emissions: Vec<(u32, ObsEvent)>,
    submitted: u64,
    completed: u64,
    unrunnable: u64,
    executed: u64,
    last_active: Option<SimTime>,
    profile_nanos: [(u64, u64); 3],
    /// Emission key of the pool currently being processed.
    cur_pool: u32,
}

/// The earlier of two optional minutes.
fn earliest<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
    a.into_iter().chain(b).min()
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
        observed: bool,
        profile: bool,
    ) -> Self {
        let t0 = profile.then(Instant::now);
        let lanes: Vec<PoolLane<'a>> = (shard..pool_count as usize)
            .step_by(shards)
            .map(|p| PoolLane {
                pool: PoolId(p as u16),
                stream: TraceStream::filtered(spec, seed, |i| pinned[i] as usize == p),
                first_stream: pinned.partition_point(|&q| (q as usize) < p),
            })
            .collect();
        let next_submit = lanes.iter().filter_map(|l| l.stream.peek_minute()).min();
        let mut worker = StreamWorker {
            shard,
            lanes,
            clock: IdClock::new(spec, seed),
            next_submit,
            queue: if reference_queue {
                EventQueue::with_reference_heap()
            } else {
                EventQueue::new()
            },
            due: Vec::new(),
            subs: Vec::new(),
            records: Vec::new(),
            jobs: JobTable::streaming(observed),
            totals: JobTotals::default(),
            observed,
            profile,
            actions: Vec::new(),
            suspended: Suspended::new(),
            emissions: Vec::new(),
            submitted: 0,
            completed: 0,
            unrunnable: 0,
            executed: 0,
            last_active: None,
            profile_nanos: [(0, 0); 3],
            cur_pool: 0,
        };
        worker.charge(PHASE_GENERATE, 0, t0);
        worker
    }

    fn emit(&mut self, event: ObsEvent) {
        if self.observed {
            self.emissions.push((self.cur_pool, event));
        }
    }

    /// Books the time since `t0` (none when profiling is off) and `items`
    /// under a worker phase.
    fn charge(&mut self, phase: usize, items: u64, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let cell = &mut self.profile_nanos[phase];
            cell.0 += items;
            cell.1 += t0.elapsed().as_nanos() as u64;
        }
    }

    /// The worker's next active minute: its earliest submission minute
    /// or booking.
    fn next_active(&mut self) -> Option<SimTime> {
        earliest(
            self.next_submit.map(SimTime::from_minutes),
            self.queue.peek_time(),
        )
    }

    /// Executes one dispatch: every active minute of this worker's before
    /// the bound.
    fn run_dispatch(&mut self, msg: Dispatch) {
        // The last report took the worker's buffer; fill the one the
        // coordinator handed back.
        debug_assert!(self.emissions.is_empty() && msg.emissions.is_empty());
        self.emissions = msg.emissions;
        while let Some(now) = self.next_active().filter(|&t| t < msg.bound) {
            self.run_minute(now, &msg.arena);
        }
    }

    /// Lists the lanes submitting at `minute`, ascending, with the id
    /// base of each, and moves `next_submit` to the earliest later minute
    /// of the other lanes; each submitting lane folds in its own once its
    /// records are drawn. The clock's walk is booked as generation.
    fn plan_submissions(&mut self, minute: u64) {
        let t0 = self.profile.then(Instant::now);
        let ids = self.clock.seek(minute);
        self.next_submit = None;
        for (li, lane) in self.lanes.iter().enumerate() {
            match lane.stream.peek_minute() {
                Some(m) if m == minute => self.subs.push((li as u32, ids[lane.first_stream])),
                later => self.next_submit = earliest(self.next_submit, later),
            }
        }
        self.charge(PHASE_GENERATE, 0, t0);
    }

    /// Executes one minute over its active lanes, ascending: per lane,
    /// submit the minute's records, then deliver the lane's due
    /// completions in booking order.
    fn run_minute(&mut self, now: SimTime, arena: &PoolArena) {
        let executed_before = self.executed;
        if self.next_submit == Some(now.as_minutes()) {
            self.plan_submissions(now.as_minutes());
        }
        let mut subs = take(&mut self.subs);
        let mut due = take(&mut self.due);
        while self.queue.peek_time() == Some(now) {
            let (_, id, (lane, job)) = self.queue.pop_with_id().expect("time peeked");
            due.push((lane, id, job));
        }
        // Stable: the queue pops same-minute bookings in booking order,
        // so each lane keeps its own booking order.
        due.sort_by_key(|&(lane, _, _)| lane);
        let (mut si, mut di) = (0, 0);
        loop {
            let lane = match (subs.get(si), due.get(di)) {
                (None, None) => break,
                (Some(&(s, _)), None) => s,
                (None, Some(&(d, _, _))) => d,
                (Some(&(s, _)), Some(&(d, _, _))) => s.min(d),
            };
            let li = lane as usize;
            self.cur_pool = self.lanes[li].pool.as_usize() as u32;
            if let Some(&(_, base)) = subs.get(si).filter(|s| s.0 == lane) {
                self.submit_minute(li, base, now, arena);
                si += 1;
            }
            let t0 = self.profile.then(Instant::now);
            let first = di;
            while let Some(&(_, id, job)) = due.get(di).filter(|d| d.0 == lane) {
                self.deliver(li, id, job, now, arena);
                di += 1;
            }
            let mut popped = (di - first) as u64;
            // Bookings this lane made for `now` itself; earlier lanes
            // drained theirs, so every one left is this lane's.
            while self.queue.peek_time() == Some(now) {
                let (_, id, (l, job)) = self.queue.pop_with_id().expect("time peeked");
                debug_assert_eq!(l, lane, "same-minute bookings come from the active lane");
                self.deliver(li, id, job, now, arena);
                popped += 1;
            }
            self.charge(PHASE_COMPLETE, popped, t0);
        }
        due.clear();
        self.due = due;
        subs.clear();
        self.subs = subs;
        if self.executed > executed_before {
            self.last_active = Some(now);
        }
    }

    /// Draws a lane's records at `now` and submits them under ids from
    /// `base` on. Each record becomes a job here (its spec never existed
    /// before) and goes through the pool step to the lane's pool, its
    /// only candidate.
    fn submit_minute(&mut self, li: usize, base: u64, now: SimTime, arena: &PoolArena) {
        let t0 = self.profile.then(Instant::now);
        let mut records = take(&mut self.records);
        let lane = &mut self.lanes[li];
        let n = lane.stream.drain_minute(now.as_minutes(), &mut records) as u64;
        self.next_submit = earliest(self.next_submit, lane.stream.peek_minute());
        let pool = lane.pool;
        self.charge(PHASE_GENERATE, n, t0);
        let t0 = self.profile.then(Instant::now);
        self.submitted += n;
        for (k, record) in records.drain(..).enumerate() {
            let id = JobId(base + k as u64);
            self.executed += 1;
            self.emit(ObsEvent::Kernel { kind: "submit" });
            let job = self.jobs.push(JobRecord::new(record.to_spec(id)));
            job.submit(now).expect("streamed submissions fire once");
            // The pool reads no affinity (routing is the VPM's), so this
            // copy without the pool list submits exactly like the record.
            let spec = JobSpec {
                affinity: PoolAffinity::Any,
                ..*job.spec()
            };
            self.emit(ObsEvent::Submit { job: id });
            let kind = self.step(li, arena, |host, actions, suspended| {
                pool_step::submit(host, pool, &spec, true, now, actions, suspended)
            });
            if kind == SubmitKind::Ineligible {
                // The serial give-up (unhardened): the job's only
                // candidate pool can never run it. The record parks at
                // the VPM.
                self.unrunnable += 1;
                self.emit(ObsEvent::Unrunnable { job: id });
                self.jobs.retire(id, Some(&mut self.totals));
            }
        }
        self.records = records;
        self.charge(PHASE_SUBMIT, n, t0);
    }

    /// Delivers a popped booking unless it went stale: a same-minute
    /// suspension that ran after the booking left the queue clears the
    /// job's `completion_event` (and a resume books a new handle), so a
    /// booking no longer named by its job is skipped. Completed jobs
    /// retire.
    fn deliver(&mut self, li: usize, id: EventId, job: JobId, now: SimTime, arena: &PoolArena) {
        let live = self
            .jobs
            .get(job)
            .is_some_and(|rec| rec.completion_event == Some(id));
        if !live {
            return;
        }
        self.executed += 1;
        self.emit(ObsEvent::Kernel { kind: "complete" });
        self.step(li, arena, |host, actions, suspended| {
            pool_step::complete(host, job, now, actions, suspended);
        });
        self.completed += 1;
        self.jobs.retire(job, Some(&mut self.totals));
    }

    /// Runs one pool step on lane `li` with the worker's scratch batch and
    /// worklist. `NoRes` leaves every suspended job in place, so the
    /// worklist is dropped.
    fn step<R>(
        &mut self,
        li: usize,
        arena: &PoolArena,
        run: impl FnOnce(&mut StreamHost<'_, 'a>, &mut Vec<PoolAction>, &mut Suspended) -> R,
    ) -> R {
        let (mut actions, mut suspended) = (take(&mut self.actions), take(&mut self.suspended));
        let host = &mut StreamHost {
            worker: self,
            arena,
            lane: li,
        };
        let out = run(host, &mut actions, &mut suspended);
        suspended.clear();
        (self.actions, self.suspended) = (actions, suspended);
        out
    }

    /// Packages the progress since the last report and the worker's next
    /// active minute, which the coordinator schedules from.
    fn report(&mut self) -> Report {
        Report {
            shard: self.shard,
            emissions: take(&mut self.emissions),
            submitted: take(&mut self.submitted),
            completed: take(&mut self.completed),
            unrunnable: take(&mut self.unrunnable),
            executed: take(&mut self.executed),
            last_active: self.last_active.take(),
            next: self.next_active(),
            profile: take(&mut self.profile_nanos),
        }
    }
}

/// The pool step's host on the streaming kernel: one lane of a worker,
/// with completions booked as `(lane, job)` on the worker's queue and
/// emissions buffered under the lane's pool for barrier replay.
struct StreamHost<'w, 'a> {
    worker: &'w mut StreamWorker<'a>,
    arena: &'w PoolArena,
    lane: usize,
}

impl PoolHost for StreamHost<'_, '_> {
    fn pool(&mut self, id: PoolId) -> &mut PhysicalPool {
        assert_eq!(
            id, self.worker.lanes[self.lane].pool,
            "jobs never leave their pinned pool"
        );
        // SAFETY: the lane's pool is owned by this worker under the shard
        // partition (PoolArena contract), and the returned borrow holds
        // `self` mutably, so no other reference to the pool is live.
        unsafe { self.arena.pool(id) }
    }

    fn job(&mut self, id: JobId) -> &mut JobRecord {
        &mut self.worker.jobs[id]
    }

    fn book(&mut self, at: SimTime, job: JobId) -> EventId {
        self.worker.queue.schedule(at, (self.lane as u32, job))
    }

    fn cancel(&mut self, id: EventId) {
        // `false` when the booking is due now and already sits in the
        // minute's due batch; delivery then skips it as stale.
        self.worker.queue.cancel(id);
    }

    fn emit(&mut self, _now: SimTime, event: ObsEvent) {
        self.worker.emit(event);
    }
}

/// Entry point from [`Simulator::run_streaming`].
pub(crate) fn run_streaming(
    mut sim: Simulator,
    workload: &WorkloadSpec,
    seed: u64,
    shards: usize,
) -> SimOutput {
    // A run outside the fast class panics rather than silently falling
    // back to the serial executor, so it is never mistaken for a
    // streaming one.
    if let Err(err) = sim.check_streaming(workload) {
        panic!("{err}");
    }
    let pool_count = sim.pool_count as usize;
    // Shards past the pool count would own no pools; output does not
    // depend on the shard count, so spawn no idle workers.
    let shards = shards.min(pool_count).max(1);
    let pinned: Vec<u16> = workload
        .streams
        .iter()
        .map(|s| s.pinned_pool().expect("validated pool-major"))
        .collect();
    // Observer runs retain finished records and replay emissions at a
    // barrier after every active minute; benchmark runs drop records at
    // completion, which is what keeps memory flat.
    let observed = !sim.observers.is_empty();
    sim.start_observers();
    let profile_on = sim.profile.is_some();
    if let Some(profile) = sim.profile.as_mut() {
        profile.init_shards(shards);
    }
    let reference_queue = sim.config.use_reference_queue;

    let build = |shard: usize| {
        StreamWorker::new(
            shard,
            shards,
            workload,
            seed,
            &pinned,
            pool_count as u16,
            reference_queue,
            observed,
            profile_on,
        )
    };

    std::thread::scope(|scope| {
        // Shards 1.. run on their own threads. The channels stay locals of
        // this closure: if shard 0 panics on this thread, unwinding drops
        // them and the spawned workers exit instead of waiting forever.
        // They are bounded, so their buffers are allocated once here
        // rather than block by block as messages flow. A worker holds at
        // most one dispatch and one report, so neither bound ever makes a
        // send wait.
        let (report_tx, report_rx) = mpsc::sync_channel::<Report>(shards);
        let mut work_txs = Vec::with_capacity(shards - 1);
        let mut handles = Vec::with_capacity(shards - 1);
        for shard in 1..shards {
            let (tx, rx) = mpsc::sync_channel::<Dispatch>(1);
            work_txs.push(tx);
            let reports = report_tx.clone();
            handles.push(scope.spawn(move || {
                let mut worker = build(shard);
                while reports.send(worker.report()).is_ok() {
                    let Ok(msg) = rx.recv() else { break };
                    worker.run_dispatch(msg);
                }
                (worker.jobs, worker.totals)
            }));
        }
        drop(report_tx);
        // Shard 0 runs inline: this thread executes its part of every
        // dispatch between sending the others theirs and the barrier.
        let mut worker0 = build(0);

        // Per shard, its next active minute, from its latest report.
        let mut next: Vec<Option<SimTime>> = vec![None; shards];
        // Emission buffers of folded reports, emptied and ready to go back
        // to the workers with the next dispatch.
        let mut spare_emissions: Vec<Vec<(u32, ObsEvent)>> = Vec::new();
        // Observer runs: one barrier's emission runs and their merge.
        let mut emission_runs: Vec<Vec<(u32, ObsEvent)>> = Vec::with_capacity(shards);
        let mut merged: Vec<(u32, ObsEvent)> = Vec::new();
        let mut reports: Vec<Report> = Vec::with_capacity(shards);
        let mut jobs: u64 = 0;
        let mut events: u64 = 0;
        let mut end_time = SimTime::ZERO;
        // The first active minute of the dispatch being folded; `None` at
        // the first barrier, which folds the reports the workers send
        // once built.
        let mut dispatched: Option<SimTime> = None;
        reports.push(worker0.report());

        loop {
            // Barrier: every worker has reported.
            while reports.len() < shards {
                reports.push(report_rx.recv().expect("worker panicked"));
            }
            let t0 = (profile_on && dispatched.is_some()).then(Instant::now);
            reports.sort_by_key(|r| r.shard);
            for r in reports.drain(..) {
                sim.counters.completed += r.completed;
                sim.counters.unrunnable += r.unrunnable;
                jobs += r.submitted;
                events += r.executed;
                next[r.shard] = r.next;
                end_time = end_time.max(r.last_active.unwrap_or(SimTime::ZERO));
                if let Some(profile) = sim.profile.as_mut() {
                    for (phase, &(items, nanos)) in r.profile.iter().enumerate() {
                        profile.record_shard(r.shard, phase, nanos, items);
                    }
                }
                emission_runs.push(r.emissions);
            }
            if let Some(e) = dispatched.filter(|_| observed) {
                merge_sorted_runs(&mut emission_runs, |run| run.0, &mut merged);
                let ctx = ObsCtx {
                    pools: &sim.pools,
                    jobs: sim.jobs.observed(),
                    shadows: &sim.shadows,
                };
                for obs in &mut sim.observers {
                    for (_, event) in &merged {
                        obs.on_replayed_event(e, event, &ctx);
                    }
                    obs.on_settle(e, &ctx);
                }
                merged.clear();
            }
            spare_emissions.append(&mut emission_runs);
            if let Some(t0) = t0 {
                let nanos = t0.elapsed().as_nanos() as u64;
                if let Some(profile) = sim.profile.as_mut() {
                    profile.record_coord_phase(COORD_MERGE, nanos, 1);
                }
            }

            // Quiescent pools: record the sample ticks up to the next
            // active minute. Once the run is drained, record the first
            // tick left, as the serial run's trailing tick observes the
            // drained state.
            let next_active = next.iter().flatten().min().copied();
            while let Some(s) = sim
                .peek_sample_tick()
                .filter(|&s| next_active.is_none_or(|e| s <= e))
            {
                sim.record_sample(s);
                sim.consume_sample_tick();
                events += 1;
                end_time = end_time.max(s);
                if next_active.is_none() {
                    break;
                }
            }
            let Some(e) = next_active else {
                break;
            };
            // Run up to the next barrier duty.
            let bound = if observed {
                e + SimDuration::MINUTE
            } else {
                sim.peek_sample_tick().unwrap_or(SimTime::MAX)
            };
            debug_assert!(bound > e, "a dispatch covers its first minute");
            let arena = PoolArena::of(&mut sim);
            let mut order = || Dispatch {
                bound,
                arena,
                emissions: spare_emissions.pop().unwrap_or_default(),
            };
            for tx in &work_txs {
                tx.send(order())
                    .expect("worker alive while coordinator runs");
            }
            worker0.run_dispatch(order());
            reports.push(worker0.report());
            dispatched = Some(e);
        }

        drop(work_txs);
        assert_eq!(
            sim.counters.completed + sim.counters.unrunnable,
            jobs,
            "a drained run leaves no in-flight jobs"
        );
        // What the workers' tables still hold: nothing when unobserved,
        // every job (each in exactly one shard) when observed.
        let mut kept = worker0.jobs.into_records();
        sim.totals.merge(worker0.totals);
        for handle in handles {
            let (jobs, totals) = handle.join().expect("worker thread panicked");
            kept.append(&mut jobs.into_records());
            sim.totals.merge(totals);
        }
        if observed {
            assert_eq!(
                kept.len() as u64,
                jobs,
                "observer runs keep every generated job"
            );
            kept.sort_by_key(JobRecord::id);
            sim.jobs = JobTable::dense(kept);
        } else {
            assert!(kept.is_empty(), "a drained run leaves no in-flight jobs");
        }
        sim.total_jobs = jobs;
        sim.finish_run(end_time, events)
    })
}

#[cfg(test)]
mod tests {
    use std::any::Any;
    use std::collections::BTreeSet;

    use netbatch_workload::scenarios::PerPoolParams;

    use super::*;
    use crate::observer::SimObserver;
    use crate::policy::{InitialKind, StrategyKind};
    use crate::simulator::{Backend, SimConfig};

    /// The minutes at which events happened.
    #[derive(Debug, Default)]
    struct ActiveMinutes(BTreeSet<u64>);

    impl SimObserver for ActiveMinutes {
        fn on_event(&mut self, now: SimTime, _event: &ObsEvent, _ctx: &ObsCtx<'_>) {
            self.0.insert(now.as_minutes());
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// A profiled run of the conformance suite's 8-pool workload, sampled
    /// every `sample` minutes if given, with [`ActiveMinutes`] attached if
    /// `observed`. Returns the run and its coordinator folds.
    fn run(shards: usize, sample: Option<u64>, observed: bool) -> (SimOutput, u64) {
        let p = PerPoolParams::new(8, 0.3, 2_000).with_high_bursts();
        let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
        config.backend = Backend::Sharded { shards };
        config.profile = true;
        config.sample_interval = sample.map(SimDuration::from_minutes);
        let mut sim = Simulator::new(&p.build_site(), Vec::new(), config);
        if observed {
            sim.attach_observer(Box::new(ActiveMinutes::default()));
        }
        let out = sim.run_streaming(&p.build_workload(), p.seed);
        let folds = out.profile.as_ref().expect("profiled").merges();
        (out, folds)
    }

    /// Barriers follow the model's duties, not the workload's minutes:
    /// an unsampled, unobserved run folds once, at the end; a sampled one
    /// once per sample interval holding an active minute (each dispatch
    /// runs from its first active minute to the next tick, so its fold is
    /// that tick's, and the last one is the final fold); an observed one
    /// once per active minute.
    #[test]
    fn barriers_follow_the_duties() {
        for shards in [1, 2, 3] {
            let (out, observed_folds) = run(shards, None, true);
            let active = &out.observer::<ActiveMinutes>().expect("attached").0;
            assert!(active.len() > 500, "the workload is active most minutes");
            assert_eq!(
                observed_folds,
                active.len() as u64,
                "shards={shards}: observed"
            );
            assert_eq!(run(shards, None, false).1, 1, "shards={shards}: unsampled");
            let intervals: BTreeSet<u64> = active.iter().map(|m| m / 10).collect();
            assert!(intervals.len() < active.len());
            assert_eq!(
                run(shards, Some(10), false).1,
                intervals.len() as u64,
                "shards={shards}: sampled"
            );
        }
    }
}
