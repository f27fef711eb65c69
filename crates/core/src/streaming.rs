//! The streaming simulation backend: shard-local lazy workload
//! generation under minute-epoch barriers, with coordinator offload,
//! run-ahead and epoch pipelining.
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
//! * generation runs inside each shard's part of an epoch, so the shards
//!   generate in parallel;
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
//! part inline and stashes its report, which the barrier fold picks up
//! like any other. A barrier thus waits on N − 1 cross-thread reports,
//! and a 1-shard run spawns no thread and sends no message. The channels
//! are locals of the scope closure: if shard 0 panics on the coordinator
//! thread, unwinding closes them and the spawned workers exit.
//!
//! # The epoch protocol
//!
//! The coordinator tracks, per pool, the submission minutes the pool's
//! lookahead holds (`(minute, record-count)`, at most [`LOOKAHEAD`]
//! deep) and whether its stream has run dry, plus, per worker, the
//! earliest booking left in the worker's queue. Each dispatch names the
//! lowest known minute `e`, the dense job-id bases of every pool
//! submitting at `e` (ascending pool order, so ids match the materialized
//! trace exactly — see [`WorkloadSpec::validate_pool_major`]) and an
//! exclusive bound. A worker runs `e`, then keeps delivering its own
//! bookings due before the bound without another round trip, and
//! reports back.
//!
//! An epoch visits only its active lanes: the lanes submitting at `e`
//! and the lanes with a booking due at `e`. A report carries only the
//! lanes whose lookahead changed (the submitting ones, re-filled in the
//! same epoch), and the coordinator updates only those pools.
//!
//! # Barrier duties
//!
//! The coordinator has two duties that need the workers stopped: handing
//! out job-id bases at a submission minute (the bases depend on every
//! pool's record count at that minute) and reading pool state at a
//! sample tick (the pools must be quiescent). A dispatch's bound is
//! therefore the earliest known next submission minute over all pools,
//! capped at the next sample tick. A pool that is not dry but whose next
//! minute is not yet reported (its report is still in flight) pins the
//! bound to `e+1`. Between two duties the workers drain their completion
//! minutes on their own, so the barrier count follows the submission
//! minutes and sample ticks, not the completion minutes; after the last
//! submission of an unsampled run the whole tail drains in one dispatch.
//!
//! Observer runs keep one barrier per active minute (bound `e+1`):
//! replay and [`SimObserver::on_settle`](crate::observer::SimObserver::on_settle)
//! read the pools at barrier time. Every observer-less run pipelines;
//! there is no switch, because having no observer attached is the one
//! condition under which pipelining is sound. The coordinator then keeps
//! up to two dispatches in flight: the next one goes out early when its
//! minute is the current bound (it is then the next minute whatever the
//! pending reports say) and no sample tick lands at or before it.
//! The two-minute lookahead makes that sound: consuming a minute refills
//! the buffer in the same epoch, so a pool's next submission minute is
//! known one dispatch early.
//!
//! # Canonical order
//!
//! The streaming backend defines its own canonical within-minute order —
//! sample tick first (pools quiescent), then per pool ascending: buffered
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
//! wheel or reference heap, with or without run-ahead and pipelining (the
//! conformance suite asserts golden traces byte-identical across all of
//! them). It is *not* the serial backend's global event-id order:
//! cross-pool completion interleaving within a minute differs. Per-pool
//! event sequences are identical, so job records and run counters match
//! a materialized serial run exactly when sampling is off; with sampling
//! on, series values at minutes where a tick coincides with events may
//! differ (the serial sampler pops mid-minute).
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
//! `NoRes` + round-robin + zero staleness + no topology, faults,
//! lifecycle or resilience — plus the streaming-specific contract that
//! every stream is pinned to one pool in non-decreasing order. Observers
//! must not index `ctx.jobs` (the run keeps it empty until drain);
//! [`TraceRecorder`](crate::observer::TraceRecorder) qualifies; the invariant
//! checker, telemetry and span observers do not, and are rejected whether
//! attached directly or through their config switches.
//!
//! Generation is the same code as a materialized run's: a shard's
//! [`TraceStream`] is the workload's one generator, filtered to the
//! shard's pools, and [`WorkloadSpec::generate`] drains the unfiltered
//! stream.

use std::collections::VecDeque;
use std::mem::take;
use std::sync::{mpsc, Arc};

use netbatch_cluster::ids::{JobId, PoolId};
use netbatch_cluster::job::{JobRecord, JobSpec, PoolAffinity};
use netbatch_cluster::pool::{PhysicalPool, PoolAction, SubmitKind};
use netbatch_sim_engine::epoch::merge_sorted_runs;
use netbatch_sim_engine::hash::IntMap;
use netbatch_sim_engine::queue::{EventId, EventQueue};
use netbatch_sim_engine::time::{SimDuration, SimTime};
use netbatch_workload::trace::TraceRecord;
use netbatch_workload::{TraceStream, WorkloadSpec};

use crate::observer::{InvariantChecker, ObsCtx, ObsEvent};
use crate::pool_step::{self, PoolHost, Suspended};
use crate::provenance::{SpanRecorder, COORD_MERGE, PHASE_COMPLETE, PHASE_GENERATE, PHASE_SUBMIT};
use crate::simulator::{SimOutput, Simulator};
use crate::telemetry::Telemetry;

/// Lookahead depth in generated-but-unsubmitted minutes per pool. Two is
/// the minimum that lets the coordinator pre-dispatch the next epoch
/// before the current one's results return: consuming a minute refills
/// the buffer in the same epoch, so every submission minute is reported
/// at least one epoch before it is due.
const LOOKAHEAD: usize = 2;

/// Maximum dispatches in flight when pipelining (no observers attached).
const PIPELINE_DEPTH: usize = 2;

/// Raw view into the simulator's pool storage, shipped to workers for
/// the duration of the in-flight epochs.
///
/// # Safety
///
/// Shared mutable access is sound because accesses are disjoint (workers
/// own their jobs outright, so only pools are shared): pools are
/// partitioned by `pool_id % shards`, and a worker only touches pools it
/// owns. Shard 0's worker runs on the coordinator thread, so the
/// coordinator does mutate its own shard's pools while other shards'
/// epochs are in flight, but only through the arena, like any worker.
/// Beyond that the coordinator forms no reference into `sim.pools` while
/// an epoch is in flight (sampling and observer replay both require a
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

/// Dense job-id base per pool submitting at a dispatched minute,
/// ascending pool order; one buffer shared by every worker.
type Bases = Arc<Vec<(u16, u64)>>;

/// One dispatch's work order, broadcast to every worker.
struct FlushMsg {
    /// The dispatched minute: the earliest known submission or booking.
    epoch: SimTime,
    /// Exclusive run-ahead bound: after `epoch` the worker keeps
    /// delivering its own bookings due before it. No submission minute
    /// and no sample tick lies in `(epoch, bound)`.
    bound: SimTime,
    /// Pools absent from the list have no buffered minute due.
    bases: Bases,
    arena: PoolArena,
    /// Emptied report buffers of a folded epoch, handed back so the
    /// worker refills them instead of growing fresh ones.
    lanes: Vec<LaneAhead>,
    emissions: Vec<(u32, ObsEvent)>,
}

/// A lane's lookahead after it changed: what the coordinator plans
/// job-id bases and run-ahead bounds from.
#[derive(Clone, Copy)]
struct LaneAhead {
    pool: u16,
    /// Buffered `(minute, record-count)`, oldest first.
    minutes: [Option<(SimTime, u32)>; LOOKAHEAD],
    /// The stream holds no minute beyond `minutes`.
    exhausted: bool,
}

/// What a worker hands back after each dispatch (and once at priming).
struct EpochResult {
    shard: usize,
    /// The dispatched minute; `None` for the priming report sent before
    /// any epoch runs.
    epoch: Option<SimTime>,
    /// Buffered observer events keyed by pool id (ascending within the
    /// run; pools are worker-disjoint, so a k-way merge by pool restores
    /// the canonical order).
    emissions: Vec<(u32, ObsEvent)>,
    completed: u64,
    unrunnable: u64,
    /// Events executed (submissions incl. unrunnable ones, plus delivered
    /// completions).
    executed: u64,
    /// Latest minute at which an event executed.
    last_active: Option<SimTime>,
    /// Lookahead of every lane that consumed a minute (every lane in the
    /// priming report).
    lanes: Vec<LaneAhead>,
    /// Earliest booking left in the worker's queue (at or past the
    /// dispatch's bound).
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
}

/// Per-thread streaming executor: generates its pools' arrivals, feeds
/// them and its due completions through the pool step both kernels share
/// (so record transitions, pool calls and emission order are the serial
/// kernel's), and keeps its pools' completion bookings in its own queue.
struct StreamWorker<'a> {
    shard: usize,
    shards: usize,
    /// Owned pools, ascending: lane `li` is pool `shard + li * shards`.
    lanes: Vec<PoolLane<'a>>,
    /// Completion bookings of every owned pool, as `(lane, job)`.
    queue: EventQueue<(u32, JobId)>,
    /// The current minute's due bookings `(lane, handle, job)`; reused.
    due: Vec<(u32, EventId, JobId)>,
    /// `(lane, job-id base)` of the owned pools submitting at the
    /// dispatched minute; reused.
    subs: Vec<(u32, u64)>,
    /// Lanes whose lookahead changed since the last report.
    changed: Vec<LaneAhead>,
    /// Emptied minute buffers, reused by [`StreamWorker::refill`].
    spare: Vec<Vec<TraceRecord>>,
    /// Jobs currently in flight (submitted and not yet completed); the
    /// O(in-flight) working set that replaces the dense `sim.jobs` vec.
    jobs: IntMap<JobId, JobRecord>,
    /// Completed (and unrunnable) records, kept only when `observed`.
    finished: Vec<JobRecord>,
    /// Observers are attached: keep finished records and buffer
    /// emissions for replay.
    observed: bool,
    profile: bool,
    /// The pool step's scratch batch and suspension worklist; reused.
    actions: Vec<PoolAction>,
    suspended: Suspended,
    emissions: Vec<(u32, ObsEvent)>,
    completed: u64,
    unrunnable: u64,
    executed: u64,
    last_active: Option<SimTime>,
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
        observed: bool,
        profile: bool,
    ) -> Self {
        let lanes = (shard..pool_count as usize)
            .step_by(shards)
            .map(|p| PoolLane {
                pool: PoolId(p as u16),
                stream: TraceStream::filtered(spec, seed, |i| pinned[i] as usize == p),
                ahead: VecDeque::new(),
            })
            .collect();
        StreamWorker {
            shard,
            shards,
            lanes,
            queue: if reference_queue {
                EventQueue::with_reference_heap()
            } else {
                EventQueue::new()
            },
            due: Vec::new(),
            subs: Vec::new(),
            changed: Vec::new(),
            spare: Vec::new(),
            jobs: IntMap::default(),
            finished: Vec::new(),
            observed,
            profile,
            actions: Vec::new(),
            suspended: Suspended::new(),
            emissions: Vec::new(),
            completed: 0,
            unrunnable: 0,
            executed: 0,
            last_active: None,
            profile_nanos: [(0, 0); 3],
            cur_pool: 0,
        }
    }

    fn emit(&mut self, event: ObsEvent) {
        if self.observed {
            self.emissions.push((self.cur_pool, event));
        }
    }

    /// Tops up one lane's lookahead to [`LOOKAHEAD`] minutes, in buffers
    /// recycled from consumed minutes, and queues the lane's new
    /// lookahead for the next report. This is where generation cost is
    /// paid — inside the shard's part of the epoch, in parallel with the
    /// other shards, off the coordinator's merge.
    fn refill(&mut self, li: usize) {
        let t0 = self.profile.then(std::time::Instant::now);
        let mut generated = 0u64;
        let lane = &mut self.lanes[li];
        while lane.ahead.len() < LOOKAHEAD {
            let Some(m) = lane.stream.peek_minute() else {
                break;
            };
            let mut records = self.spare.pop().unwrap_or_default();
            generated += lane.stream.drain_minute(m, &mut records) as u64;
            lane.ahead.push_back((m, records));
        }
        if let Some(t0) = t0 {
            let cell = &mut self.profile_nanos[PHASE_GENERATE];
            cell.0 += generated;
            cell.1 += t0.elapsed().as_nanos() as u64;
        }
        // The refill stops short of LOOKAHEAD only on a dry stream.
        let lane = &self.lanes[li];
        let mut minutes = [None; LOOKAHEAD];
        for (slot, (m, records)) in minutes.iter_mut().zip(&lane.ahead) {
            *slot = Some((SimTime::from_minutes(*m), records.len() as u32));
        }
        self.changed.push(LaneAhead {
            pool: lane.pool.as_usize() as u16,
            minutes,
            exhausted: lane.ahead.len() < LOOKAHEAD,
        });
    }

    /// Fills every lane's lookahead before the first epoch, so the
    /// priming report carries the workload's first minutes.
    fn prime(&mut self) {
        for li in 0..self.lanes.len() {
            self.refill(li);
        }
    }

    /// Executes one dispatch: the dispatched minute, then every minute
    /// of this worker's own bookings due before the bound. Consuming the
    /// message releases its shared bases before the worker reports: once
    /// every report of an epoch is in, the coordinator holds the only
    /// handle and reuses the buffer.
    fn run_dispatch(&mut self, msg: FlushMsg) {
        debug_assert!(
            !self.observed || msg.bound == msg.epoch + SimDuration::MINUTE,
            "observer runs barrier every minute"
        );
        debug_assert!(
            self.queue.peek_time().is_none_or(|t| t >= msg.epoch),
            "no booking lies before the dispatched minute"
        );
        // The last report took the worker's buffers; fill the ones the
        // coordinator handed back.
        debug_assert!(self.changed.is_empty() && self.emissions.is_empty());
        debug_assert!(msg.lanes.is_empty() && msg.emissions.is_empty());
        self.changed = msg.lanes;
        self.emissions = msg.emissions;
        let mut subs = std::mem::take(&mut self.subs);
        subs.extend(
            msg.bases
                .iter()
                .filter(|&&(p, _)| p as usize % self.shards == self.shard)
                .map(|&(p, base)| ((p as usize / self.shards) as u32, base)),
        );
        self.run_minute(msg.epoch, &subs, &msg.arena);
        subs.clear();
        self.subs = subs;
        while let Some(t) = self.queue.peek_time().filter(|&t| t < msg.bound) {
            self.run_minute(t, &[], &msg.arena);
        }
    }

    /// Executes one minute over its active lanes, ascending: per lane,
    /// deliver the buffered submissions (`subs`, ascending by lane), then
    /// the lane's due completions in booking order.
    fn run_minute(&mut self, now: SimTime, subs: &[(u32, u64)], arena: &PoolArena) {
        let executed_before = self.executed;
        let mut due = std::mem::take(&mut self.due);
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
            let t0 = self.profile.then(std::time::Instant::now);
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
            if let Some(t0) = t0 {
                let cell = &mut self.profile_nanos[PHASE_COMPLETE];
                cell.0 += popped;
                cell.1 += t0.elapsed().as_nanos() as u64;
            }
        }
        due.clear();
        self.due = due;
        if self.executed > executed_before {
            self.last_active = Some(now);
        }
    }

    /// Submits a lane's buffered minute under the coordinator's job-id
    /// base, then refills the lookahead with the emptied buffer. Each
    /// record becomes a job here (its spec never existed before) and goes
    /// through the pool step to the lane's pool, its only candidate.
    fn submit_minute(&mut self, li: usize, base: u64, now: SimTime, arena: &PoolArena) {
        let (m, mut records) = self.lanes[li]
            .ahead
            .pop_front()
            .expect("coordinator assigns bases only to reported minutes");
        debug_assert_eq!(m, now.as_minutes(), "bases name the lane's oldest minute");
        let t0 = self.profile.then(std::time::Instant::now);
        let n = records.len() as u64;
        let pool = self.lanes[li].pool;
        for (k, record) in records.drain(..).enumerate() {
            let id = JobId(base + k as u64);
            self.executed += 1;
            self.emit(ObsEvent::Kernel { kind: "submit" });
            let mut job = JobRecord::new(record.to_spec(id));
            job.submit(now).expect("streamed submissions fire once");
            self.emit(ObsEvent::Submit { job: id });
            // The pool reads no affinity (routing is the VPM's), so this
            // copy without the pool list submits exactly like the record.
            let spec = JobSpec {
                affinity: PoolAffinity::Any,
                ..*job.spec()
            };
            self.jobs.insert(id, job);
            let kind = self.step(li, arena, |host, actions, suspended| {
                pool_step::submit(host, pool, &spec, true, now, actions, suspended)
            });
            if kind == SubmitKind::Ineligible {
                // The serial give-up (unhardened): the job's only
                // candidate pool can never run it. The record parks at
                // the VPM.
                let job = self.jobs.remove(&id).expect("inserted above");
                self.unrunnable += 1;
                self.emit(ObsEvent::Unrunnable { job: id });
                if self.observed {
                    self.finished.push(job);
                }
            }
        }
        if let Some(t0) = t0 {
            let cell = &mut self.profile_nanos[PHASE_SUBMIT];
            cell.0 += n;
            cell.1 += t0.elapsed().as_nanos() as u64;
        }
        self.spare.push(records);
        self.refill(li);
    }

    /// Delivers a popped booking unless it went stale: a same-minute
    /// suspension that ran after the booking left the queue clears the
    /// job's `completion_event` (and a resume books a new handle), so a
    /// booking no longer named by its job is skipped. Completed records
    /// leave the in-flight set.
    fn deliver(&mut self, li: usize, id: EventId, job: JobId, now: SimTime, arena: &PoolArena) {
        let live = self
            .jobs
            .get(&job)
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
        let done = self.jobs.remove(&job).expect("completed job is tracked");
        if self.observed {
            self.finished.push(done);
        }
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

    /// Packages the buffered progress since the last report plus the
    /// changed lanes' lookahead and the queue's earliest booking, which
    /// the coordinator schedules from.
    fn report(&mut self, epoch: Option<SimTime>) -> EpochResult {
        EpochResult {
            shard: self.shard,
            epoch,
            emissions: std::mem::take(&mut self.emissions),
            completed: std::mem::take(&mut self.completed),
            unrunnable: std::mem::take(&mut self.unrunnable),
            executed: std::mem::take(&mut self.executed),
            last_active: self.last_active.take(),
            lanes: std::mem::take(&mut self.changed),
            next_local: self.queue.peek_time(),
            profile: std::mem::take(&mut self.profile_nanos),
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
        self.worker
            .jobs
            .get_mut(&id)
            .expect("the pool acts only on tracked jobs")
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
    // The config switches attach these same types in `Simulator::new`,
    // so checking what is attached covers both routes.
    assert!(
        !sim.observers.iter().any(|o| {
            let any = o.as_any();
            any.is::<InvariantChecker>() || any.is::<Telemetry>() || any.is::<SpanRecorder>()
        }),
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
    // Observer runs retain finished records and replay emissions at the
    // barrier; benchmark runs drop records at completion, which is what
    // keeps memory flat. Replay reads pool state at the barrier, so
    // pipelining (workers mutating pools while the coordinator replays)
    // is on exactly when no observer is attached.
    let observed = !sim.observers.is_empty();
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
        // most PIPELINE_DEPTH unfolded dispatches, so neither bound ever
        // makes a send wait.
        let (result_tx, result_rx) = mpsc::sync_channel::<EpochResult>(PIPELINE_DEPTH * shards);
        let mut work_txs = Vec::with_capacity(shards - 1);
        let mut handles = Vec::with_capacity(shards - 1);
        for shard in 1..shards {
            let (tx, rx) = mpsc::sync_channel::<FlushMsg>(PIPELINE_DEPTH);
            work_txs.push(tx);
            let results = result_tx.clone();
            handles.push(scope.spawn(move || {
                let mut worker = build(shard);
                worker.prime();
                if results.send(worker.report(None)).is_err() {
                    return (worker.jobs, worker.finished);
                }
                while let Ok(msg) = rx.recv() {
                    let epoch = msg.epoch;
                    worker.run_dispatch(msg);
                    if results.send(worker.report(Some(epoch))).is_err() {
                        break;
                    }
                }
                (worker.jobs, worker.finished)
            }));
        }
        drop(result_tx);
        // Shard 0 runs inline: this thread executes its part of every
        // dispatch between sending the others theirs and the barrier.
        let mut worker0 = build(0);
        worker0.prime();

        // Scheduling state: per-pool pending minutes (each ≤ LOOKAHEAD
        // deep) and dryness, replaced for the lanes a report names; per
        // shard the earliest local booking. Reported minutes and bookings
        // below the frontier (the exclusive bound of the last dispatch)
        // are already covered by a dispatch in flight and are dropped, so
        // a pre-dispatched minute cannot re-trigger itself.
        let mut pend: Vec<VecDeque<(SimTime, u32)>> = vec![VecDeque::new(); pool_count];
        let mut exhausted = vec![false; pool_count];
        let mut next_local: Vec<Option<SimTime>> = vec![None; shards];
        let mut frontier = SimTime::ZERO;
        let mut inflight: VecDeque<(SimTime, Bases)> = VecDeque::new();
        // Buffers of folded epochs, emptied and ready for reuse: bases
        // (unshared again) and the report buffers that go back to the
        // workers with the next dispatches.
        let mut spare_bases: Vec<Bases> = Vec::new();
        let mut spare_lanes: Vec<Vec<LaneAhead>> = Vec::new();
        let mut spare_emissions: Vec<Vec<(u32, ObsEvent)>> = Vec::new();
        // Observer runs: one barrier's emission runs and their merge.
        let mut emission_runs: Vec<Vec<(u32, ObsEvent)>> = Vec::new();
        let mut merged: Vec<(u32, ObsEvent)> = Vec::new();
        let mut stash: Vec<EpochResult> = Vec::new();
        let mut results: Vec<EpochResult> = Vec::with_capacity(shards);
        let mut next_job_id: u64 = 0;
        let mut events: u64 = 0;
        let mut end_time = SimTime::ZERO;

        macro_rules! apply_report {
            ($r:expr) => {{
                let mut r: EpochResult = $r;
                sim.counters.completed += r.completed;
                sim.counters.unrunnable += r.unrunnable;
                for lane in &r.lanes {
                    let p = lane.pool as usize;
                    pend[p].clear();
                    pend[p].extend(
                        lane.minutes
                            .iter()
                            .flatten()
                            .filter(|&&(m, _)| m >= frontier),
                    );
                    exhausted[p] = lane.exhausted;
                }
                r.lanes.clear();
                spare_lanes.push(take(&mut r.lanes));
                next_local[r.shard] = r.next_local.filter(|&m| m >= frontier);
                end_time = end_time.max(r.last_active.unwrap_or(SimTime::ZERO));
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
                let mut shared = spare_bases.pop().unwrap_or_default();
                let bases = Arc::get_mut(&mut shared).expect("a folded epoch's bases are unshared");
                bases.clear();
                // Run ahead to the next barrier duty: the earliest next
                // submission, a pool whose next minute is unreported, or
                // the next sample tick. Observer runs stop every minute.
                let mut bound = if observed {
                    e + SimDuration::MINUTE
                } else {
                    sim.peek_sample_tick().unwrap_or(SimTime::MAX)
                };
                for (p, q) in pend.iter_mut().enumerate() {
                    if q.front().map(|&(m, _)| m) == Some(e) {
                        let (_, n) = q.pop_front().expect("front checked");
                        bases.push((p as u16, next_job_id));
                        next_job_id += u64::from(n);
                    }
                    match q.front() {
                        Some(&(m, _)) => bound = bound.min(m),
                        None if !exhausted[p] => bound = bound.min(e + SimDuration::MINUTE),
                        None => {}
                    }
                }
                debug_assert!(bound > e, "a dispatch covers its own minute");
                frontier = bound;
                let arena = PoolArena::of(&mut sim);
                let mut order = || FlushMsg {
                    epoch: e,
                    bound,
                    bases: Arc::clone(&shared),
                    arena,
                    lanes: spare_lanes.pop().unwrap_or_default(),
                    emissions: spare_emissions.pop().unwrap_or_default(),
                };
                for tx in &work_txs {
                    tx.send(order())
                        .expect("worker alive while coordinator runs");
                }
                // Shard 0's report waits in the stash for the barrier fold,
                // like a spawned worker's report that arrived early.
                worker0.run_dispatch(order());
                stash.push(worker0.report(Some(e)));
                inflight.push_back((e, shared));
                // Bookings below the bound are now the workers' problem;
                // a next_local entry there must not re-trigger dispatch.
                for nl in next_local.iter_mut() {
                    if nl.is_some_and(|m| m < frontier) {
                        *nl = None;
                    }
                }
            }};
        }

        apply_report!(worker0.report(None));
        for _ in 1..shards {
            let r = result_rx.recv().expect("worker panicked while priming");
            debug_assert!(r.epoch.is_none(), "first report is the priming one");
            apply_report!(r);
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
                        end_time = end_time.max(s);
                        continue;
                    }
                }
                dispatch!(e);
            } else {
                // The frontier is the next minute whatever the pending
                // reports say once something is known to happen there.
                let may_pipeline = !observed
                    && inflight.len() < PIPELINE_DEPTH
                    && next_known == Some(frontier)
                    && next_sample.is_none_or(|s| s > frontier);
                if may_pipeline {
                    dispatch!(frontier);
                    continue;
                }
                // Barrier: fold in the oldest in-flight dispatch.
                let (e, shared) = inflight.pop_front().expect("nonempty checked");
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
                // Every worker dropped its handle before reporting.
                spare_bases.push(shared);
                let t0 = profile_on.then(std::time::Instant::now);
                results.sort_by_key(|r| r.shard);
                let mut executed = 0u64;
                for r in results.drain(..) {
                    let r = apply_report!(r);
                    executed += r.executed;
                    if observed {
                        emission_runs.push(r.emissions);
                    }
                }
                events += executed;
                if observed {
                    debug_assert!(inflight.is_empty(), "replay requires quiescent workers");
                    merge_sorted_runs(&mut emission_runs, |run| run.0, &mut merged);
                    spare_emissions.append(&mut emission_runs);
                    let ctx = ObsCtx {
                        pools: &sim.pools,
                        jobs: &sim.jobs,
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
                if let Some(t0) = t0 {
                    let nanos = t0.elapsed().as_nanos() as u64;
                    if let Some(profile) = sim.profile.as_mut() {
                        profile.record_coord_phase(COORD_MERGE, nanos, 1);
                    }
                }
            }
        }

        drop(work_txs);
        assert!(
            worker0.jobs.is_empty(),
            "a drained run leaves no in-flight jobs"
        );
        let mut finished = worker0.finished;
        for handle in handles {
            let (jobs, mut fin) = handle.join().expect("worker thread panicked");
            assert!(jobs.is_empty(), "a drained run leaves no in-flight jobs");
            finished.append(&mut fin);
        }
        if observed {
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
