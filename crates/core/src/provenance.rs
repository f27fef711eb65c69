//! Causal provenance: per-job span trees with typed causes, a decision
//! audit log, queries over the rendered spans JSONL ([`SpansFile`]),
//! Chrome `trace_event` (Perfetto) export and a kernel self-profiler.
//!
//! The paper's evaluation reports aggregates (Table 1, Figure 4); this
//! layer answers the per-job question those aggregates hide — *why* did
//! job J get suspended, evacuated or bounced, and what chain of faults,
//! drains and policy decisions led there. A [`SpanRecorder`] observer
//! folds the observer event stream into one segment tree per job
//! (queue-wait → run → suspend → backoff → … segments), where every
//! segment records the typed [`Cause`] that started it: the fault outage
//! id, the lifecycle window id, the policy decision with the ranking
//! inputs that chose the target pool, or the retry attempt number.
//!
//! Determinism: the recorder consumes only `(time, event)` — never the
//! mid-stream [`ObsCtx`] — so its span trees are a pure function of the
//! event stream: byte-identical on both event-queue backends
//! (`tests/provenance.rs`), and free to run on the serial kernel's helper
//! thread.

use std::fmt::{self, Write as _};

use netbatch_cluster::ids::{JobId, MachineId, PoolId};
use netbatch_metrics::json::{self, Value};
use netbatch_sim_engine::hash::IntMap;
use netbatch_sim_engine::time::SimTime;

use crate::observer::{AuditTrigger, AuditVerdict, ObsCtx, ObsEvent, ReschedKind, SimObserver};

/// Span phase: the job sits in a pool's wait queue.
pub const SPAN_QUEUE_WAIT: &str = "queue_wait";
/// Span phase: the job runs on a machine.
pub const SPAN_RUNNING: &str = "running";
/// Span phase: the job is preempted and parked on its machine.
pub const SPAN_SUSPENDED: &str = "suspended";
/// Span phase: the job waits out a failure-driven backoff at the VPM.
pub const SPAN_BACKOFF: &str = "backoff";
/// Span phase: the job's checkpoint is in transit to another pool.
pub const SPAN_MIGRATING: &str = "migrating";

/// Every span phase, in rendering order. The schema guard asserts these
/// never collide with (or get reused as) event labels.
pub const SPAN_PHASES: [&str; 5] = [
    SPAN_QUEUE_WAIT,
    SPAN_RUNNING,
    SPAN_SUSPENDED,
    SPAN_BACKOFF,
    SPAN_MIGRATING,
];

/// Why a span segment started: the typed edge of the causal chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cause {
    /// First entry into the system (VPM routing at submit time).
    Submitted,
    /// A pool started the job off its queue (or immediately on submit).
    Dispatched {
        /// True when the job waited in the pool's queue first.
        from_queue: bool,
    },
    /// A higher-priority job preempted this one.
    Preempted,
    /// The pool resumed the suspended job in place.
    Resumed,
    /// A rescheduling-policy decision, with the ranking inputs it saw.
    Policy {
        /// What put the job in front of the policy.
        trigger: AuditTrigger,
        /// The decision returned.
        verdict: AuditVerdict,
        /// The chosen target pool, when the verdict names one.
        target: Option<PoolId>,
        /// How many candidate pools the policy ranked.
        candidates: u16,
        /// Current pool's utilization in per-mille, as the policy saw it.
        cur_util_milli: u32,
        /// Target pool's utilization in per-mille.
        tgt_util_milli: u32,
        /// Current pool's wait-queue length.
        cur_queue: u32,
        /// Target pool's wait-queue length.
        tgt_queue: u32,
    },
    /// A machine failure evicted the job.
    Fault {
        /// Outage id: index into the run's merged [`crate::faults::FaultPlan`].
        outage: u32,
        /// Blacklist cooldown booked by this failure, if any.
        blacklisted_until: Option<SimTime>,
    },
    /// Proactive evacuation off a draining machine.
    Evacuation {
        /// Window id: index into the run's [`crate::faults::LifecyclePlan`].
        window: u32,
        /// The kill deadline the evacuation raced.
        deadline: SimTime,
    },
    /// A failure-driven retry re-dispatched the job.
    Retry {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The segment belongs to a duplicate copy racing its original.
    DuplicateRace,
}

impl Cause {
    /// Stable type tag used in the JSONL rendering and `trace --cause`
    /// queries.
    pub fn label(&self) -> &'static str {
        match self {
            Cause::Submitted => "submitted",
            Cause::Dispatched { .. } => "dispatched",
            Cause::Preempted => "preempted",
            Cause::Resumed => "resumed",
            Cause::Policy { .. } => "policy",
            Cause::Fault { .. } => "fault",
            Cause::Evacuation { .. } => "evacuation",
            Cause::Retry { .. } => "retry",
            Cause::DuplicateRace => "duplicate_race",
        }
    }

    fn render(&self, out: &mut impl Sink) {
        match *self {
            Cause::Submitted | Cause::Preempted | Cause::Resumed | Cause::DuplicateRace => {
                out.text("{\"type\":\"");
                out.text(self.label());
                out.text("\"}");
            }
            Cause::Dispatched { from_queue } => {
                out.text("{\"type\":\"dispatched\",\"from_queue\":");
                out.text(if from_queue { "true" } else { "false" });
                out.text("}");
            }
            Cause::Policy {
                trigger,
                verdict,
                target,
                candidates,
                cur_util_milli,
                tgt_util_milli,
                cur_queue,
                tgt_queue,
            } => {
                out.text("{\"type\":\"policy\",\"trigger\":\"");
                out.text(trigger.label());
                out.text("\",\"verdict\":\"");
                out.text(verdict.label());
                out.text("\",\"target\":");
                out.opt(target.map(|p| u64::from(p.as_u16())));
                out.text(",\"candidates\":");
                out.uint(u64::from(candidates));
                out.text(",\"cur_util_milli\":");
                out.uint(u64::from(cur_util_milli));
                out.text(",\"tgt_util_milli\":");
                out.uint(u64::from(tgt_util_milli));
                out.text(",\"cur_queue\":");
                out.uint(u64::from(cur_queue));
                out.text(",\"tgt_queue\":");
                out.uint(u64::from(tgt_queue));
                out.text("}");
            }
            Cause::Fault {
                outage,
                blacklisted_until,
            } => {
                out.text("{\"type\":\"fault\",\"outage\":");
                out.uint(u64::from(outage));
                out.text(",\"blacklisted_until\":");
                out.opt(blacklisted_until.map(|t| t.as_minutes()));
                out.text("}");
            }
            Cause::Evacuation { window, deadline } => {
                out.text("{\"type\":\"evacuation\",\"window\":");
                out.uint(u64::from(window));
                out.text(",\"deadline\":");
                out.uint(deadline.as_minutes());
                out.text("}");
            }
            Cause::Retry { attempt } => {
                out.text("{\"type\":\"retry\",\"attempt\":");
                out.uint(u64::from(attempt));
                out.text("}");
            }
        }
    }
}

/// One segment of a job's span tree: a phase the job occupied, where, and
/// the [`Cause`] that put it there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Which phase (one of [`SPAN_PHASES`]).
    pub phase: &'static str,
    /// When the segment opened.
    pub start: SimTime,
    /// When it closed; `None` if still open at run end.
    pub end: Option<SimTime>,
    /// The pool the segment played out in, when pool-resident.
    pub pool: Option<PoolId>,
    /// The machine, when machine-resident.
    pub machine: Option<MachineId>,
    /// Why the segment started.
    pub cause: Cause,
}

// Per-job cursor into the flat segment arena. Keeping the segments
// themselves out of this struct matters for overhead: one shared arena
// grows amortized instead of one tiny heap allocation (plus reallocs)
// per job, which is what dominates recording cost at scale. The struct
// is 12 bytes: the cause stashed for a job's next segment lives only
// between an audit and the transition it explains, so it sits in the
// recorder's `pending` map rather than in every job's state.
#[derive(Default, Clone, Copy)]
struct JobState {
    open: Option<u32>,
    count: u32,
}

/// Observer that folds the event stream into per-job span trees plus a
/// flat, time-ordered decision-audit log. Attach via
/// [`SimConfig::spans`](crate::simulator::SimConfig::spans) or
/// [`Simulator::attach_observer`](crate::simulator::Simulator::attach_observer);
/// downcast out of the output with
/// [`SimOutput::observer`](crate::simulator::SimOutput::observer).
pub struct SpanRecorder {
    strategy: &'static str,
    initial: &'static str,
    jobs: Vec<JobState>,
    // Flat arena of every segment, tagged (job, seq), in open order.
    segments: Vec<(u32, u32, Segment)>,
    // The cause stashed for each job's next segment: set by an audit (or
    // a fault eviction, retry or duplicate launch), taken by the
    // transition it explains, cleared when the job finishes.
    pending: IntMap<JobId, Cause>,
    decisions: Vec<(SimTime, ObsEvent)>,
    // The most recent machine-failure audit; consumed (shared, not
    // cleared) by the failure evictions that follow it.
    last_fault: Option<(PoolId, MachineId, Cause)>,
}

impl SpanRecorder {
    /// A recorder labeled with the run's policy axes (mirrors
    /// [`Telemetry::new`](crate::telemetry::Telemetry::new)).
    pub fn new(strategy: &'static str, initial: &'static str) -> Self {
        SpanRecorder {
            strategy,
            initial,
            jobs: Vec::new(),
            segments: Vec::new(),
            pending: IntMap::default(),
            decisions: Vec::new(),
            last_fault: None,
        }
    }

    fn job_mut(&mut self, job: JobId) -> &mut JobState {
        let idx = job.as_usize();
        if idx >= self.jobs.len() {
            self.jobs.resize(idx + 1, JobState::default());
        }
        &mut self.jobs[idx]
    }

    fn close_open(&mut self, job: JobId, now: SimTime) {
        let open = self.job_mut(job).open.take();
        if let Some(i) = open {
            self.segments[i as usize].2.end = Some(now);
        }
    }

    fn open(
        &mut self,
        job: JobId,
        phase: &'static str,
        now: SimTime,
        pool: Option<PoolId>,
        machine: Option<MachineId>,
        cause: Cause,
    ) {
        let arena_idx = self.segments.len() as u32;
        let js = self.job_mut(job);
        debug_assert!(js.open.is_none(), "segment opened over an open segment");
        js.open = Some(arena_idx);
        let seq = js.count;
        js.count += 1;
        self.segments.push((
            job.as_u64() as u32,
            seq,
            Segment {
                phase,
                start: now,
                end: None,
                pool,
                machine,
                cause,
            },
        ));
    }

    // Both touch the job table first: the header's `jobs` count is the
    // highest job id any event touched, plus one, segment or not.
    fn take_pending(&mut self, job: JobId) -> Option<Cause> {
        self.job_mut(job);
        self.pending.remove(&job)
    }

    fn stash(&mut self, job: JobId, cause: Cause) {
        self.job_mut(job);
        self.pending.insert(job, cause);
    }

    /// Number of jobs with at least one recorded segment or submission.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The job's segments in causal order (empty if unknown).
    pub fn segments(&self, job: JobId) -> Vec<Segment> {
        let jid = job.as_u64() as u32;
        self.segments
            .iter()
            .filter(|(j, _, _)| *j == jid)
            .map(|&(_, _, s)| s)
            .collect()
    }

    /// Every decision-audit event, in emission (time) order.
    pub fn decisions(&self) -> &[(SimTime, ObsEvent)] {
        &self.decisions
    }

    /// Total segments across all jobs.
    pub fn span_count(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Segments still open (no end); zero once every job completed.
    pub fn open_count(&self) -> u64 {
        self.jobs.iter().filter(|j| j.open.is_some()).count() as u64
    }

    /// Number of closed segments in `phase`.
    pub fn segment_count(&self, phase: &str) -> u64 {
        self.segments
            .iter()
            .filter(|(_, _, s)| s.phase == phase && s.end.is_some())
            .count() as u64
    }

    /// Total minutes spent in `phase` across all closed segments.
    pub fn phase_minutes(&self, phase: &str) -> u64 {
        self.segments
            .iter()
            .map(|(_, _, s)| s)
            .filter(|s| s.phase == phase)
            .filter_map(|s| s.end.map(|e| e.since(s.start).as_minutes()))
            .sum()
    }

    /// Renders the run as spans JSONL: one header object, then every
    /// decision in time order, then every segment grouped by job id. All
    /// hand-written JSON — byte-identical across runs, backends and shard
    /// counts.
    ///
    /// Linear in the output: segments are grouped by job through a prefix
    /// sum over the per-job segment counts, not a sort, and a counting pass
    /// sizes the buffer exactly before the writing pass fills it.
    pub fn render_jsonl(&self) -> String {
        let order = self.render_order();
        let mut len = ByteCount(0);
        self.write_jsonl(&order, &mut len);
        let mut out = String::with_capacity(len.0);
        self.write_jsonl(&order, &mut out);
        debug_assert_eq!(out.len(), len.0, "the counting pass sized the buffer");
        out
    }

    // Arena indices in rendering order, (job, seq) ascending. Job `j`'s
    // segments occupy slots `start[j] .. start[j] + count[j]`, and segment
    // `seq` of job `j` goes to slot `start[j] + seq`.
    fn render_order(&self) -> Vec<u32> {
        let mut start = Vec::with_capacity(self.jobs.len());
        let mut next = 0u32;
        for js in &self.jobs {
            start.push(next);
            next += js.count;
        }
        debug_assert_eq!(next as usize, self.segments.len());
        let mut order = vec![0u32; self.segments.len()];
        for (i, &(job, seq, _)) in self.segments.iter().enumerate() {
            order[(start[job as usize] + seq) as usize] = i as u32;
        }
        order
    }

    fn write_jsonl(&self, order: &[u32], out: &mut impl Sink) {
        out.text("{\"schema\":\"netbatch-spans/1\",\"strategy\":\"");
        out.text(self.strategy);
        out.text("\",\"initial\":\"");
        out.text(self.initial);
        out.text("\",\"jobs\":");
        out.uint(self.jobs.len() as u64);
        out.text(",\"spans\":");
        out.uint(self.span_count());
        out.text(",\"decisions\":");
        out.uint(self.decisions.len() as u64);
        out.text("}\n");
        for (t, ev) in &self.decisions {
            render_decision(out, *t, ev);
        }
        for &i in order {
            let (job, seq, seg) = self.segments[i as usize];
            out.text("{\"kind\":\"span\",\"job\":");
            out.uint(u64::from(job));
            out.text(",\"seq\":");
            out.uint(u64::from(seq));
            out.text(",\"phase\":\"");
            out.text(seg.phase);
            out.text("\",\"start\":");
            out.uint(seg.start.as_minutes());
            out.text(",\"end\":");
            out.opt(seg.end.map(|t| t.as_minutes()));
            out.text(",\"pool\":");
            out.opt(seg.pool.map(|p| u64::from(p.as_u16())));
            out.text(",\"machine\":");
            out.opt(seg.machine.map(|m| u64::from(m.as_u32())));
            out.text(",\"cause\":");
            seg.cause.render(out);
            out.text("}\n");
        }
    }
}

/// Where the span JSONL renderer writes: the output buffer, or a byte
/// counter that sizes the buffer beforehand. One renderer drives both, so
/// the count cannot drift from what is written.
trait Sink {
    /// Appends literal text.
    fn text(&mut self, s: &str);
    /// Appends an unsigned integer in decimal.
    fn uint(&mut self, v: u64);
    /// Appends an optional integer, `null` when absent.
    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => self.uint(v),
            None => self.text("null"),
        }
    }
}

impl Sink for String {
    fn text(&mut self, s: &str) {
        self.push_str(s);
    }

    fn uint(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
    }
}

/// Counts the bytes a render would write.
struct ByteCount(usize);

impl Sink for ByteCount {
    fn text(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn uint(&mut self, v: u64) {
        self.0 += v.checked_ilog10().map_or(1, |d| d as usize + 1);
    }
}

fn render_decision(out: &mut impl Sink, t: SimTime, ev: &ObsEvent) {
    match *ev {
        ObsEvent::PolicyAudit {
            job,
            pool,
            trigger,
            verdict,
            target,
            candidates,
            cur_util_milli,
            tgt_util_milli,
            cur_queue,
            tgt_queue,
        } => {
            out.text("{\"kind\":\"decision\",\"type\":\"policy\",\"t\":");
            out.uint(t.as_minutes());
            out.text(",\"job\":");
            out.uint(job.as_u64());
            out.text(",\"pool\":");
            out.uint(u64::from(pool.as_u16()));
            out.text(",\"trigger\":\"");
            out.text(trigger.label());
            out.text("\",\"verdict\":\"");
            out.text(verdict.label());
            out.text("\",\"target\":");
            out.opt(target.map(|p| u64::from(p.as_u16())));
            out.text(",\"candidates\":");
            out.uint(u64::from(candidates));
            out.text(",\"cur_util_milli\":");
            out.uint(u64::from(cur_util_milli));
            out.text(",\"tgt_util_milli\":");
            out.uint(u64::from(tgt_util_milli));
            out.text(",\"cur_queue\":");
            out.uint(u64::from(cur_queue));
            out.text(",\"tgt_queue\":");
            out.uint(u64::from(tgt_queue));
            out.text("}\n");
        }
        ObsEvent::EvacAudit {
            job,
            pool,
            machine,
            window,
            remaining,
            deadline,
        } => {
            out.text("{\"kind\":\"decision\",\"type\":\"evac\",\"t\":");
            out.uint(t.as_minutes());
            out.text(",\"job\":");
            out.uint(job.as_u64());
            out.text(",\"pool\":");
            out.uint(u64::from(pool.as_u16()));
            out.text(",\"machine\":");
            out.uint(u64::from(machine.as_u32()));
            out.text(",\"window\":");
            out.uint(u64::from(window));
            out.text(",\"remaining\":");
            out.uint(remaining.as_minutes());
            out.text(",\"deadline\":");
            out.uint(deadline.as_minutes());
            out.text("}\n");
        }
        ObsEvent::FaultAudit {
            pool,
            machine,
            outage,
            blacklisted_until,
        } => {
            out.text("{\"kind\":\"decision\",\"type\":\"fault\",\"t\":");
            out.uint(t.as_minutes());
            out.text(",\"pool\":");
            out.uint(u64::from(pool.as_u16()));
            out.text(",\"machine\":");
            out.uint(u64::from(machine.as_u32()));
            out.text(",\"outage\":");
            out.uint(u64::from(outage));
            out.text(",\"blacklisted_until\":");
            out.opt(blacklisted_until.map(|t| t.as_minutes()));
            out.text("}\n");
        }
        _ => unreachable!("only audit events are recorded as decisions"),
    }
}

impl fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Everything here is deterministic: the determinism suite compares
        // this output byte-for-byte across runs, backends and shard counts.
        f.debug_struct("SpanRecorder")
            .field("strategy", &self.strategy)
            .field("initial", &self.initial)
            .field("jobs", &self.jobs.len())
            .field("spans", &self.span_count())
            .field("open", &self.open_count())
            .field("decisions", &self.decisions.len())
            .finish()
    }
}

impl SimObserver for SpanRecorder {
    fn reads_state(&self) -> bool {
        false
    }

    fn on_event(&mut self, now: SimTime, event: &ObsEvent, _ctx: &ObsCtx<'_>) {
        match *event {
            ObsEvent::Submit { job } => {
                // No segment yet, but the job counts in the header.
                self.job_mut(job);
            }
            ObsEvent::Enqueue { job, pool } => {
                let cause = self.take_pending(job).unwrap_or(Cause::Submitted);
                self.close_open(job, now);
                self.open(job, SPAN_QUEUE_WAIT, now, Some(pool), None, cause);
            }
            ObsEvent::Dispatch {
                job,
                pool,
                machine,
                from_queue,
                ..
            } => {
                let cause = self
                    .take_pending(job)
                    .unwrap_or(Cause::Dispatched { from_queue });
                self.close_open(job, now);
                self.open(job, SPAN_RUNNING, now, Some(pool), Some(machine), cause);
            }
            ObsEvent::Suspend { job, pool, machine } => {
                self.close_open(job, now);
                self.open(
                    job,
                    SPAN_SUSPENDED,
                    now,
                    Some(pool),
                    Some(machine),
                    Cause::Preempted,
                );
            }
            ObsEvent::Resume { job, pool, machine } => {
                self.close_open(job, now);
                self.open(
                    job,
                    SPAN_RUNNING,
                    now,
                    Some(pool),
                    Some(machine),
                    Cause::Resumed,
                );
            }
            ObsEvent::Complete { job, .. }
            | ObsEvent::ProxyFinish { job, .. }
            | ObsEvent::Unrunnable { job } => {
                self.close_open(job, now);
                self.pending.remove(&job);
            }
            ObsEvent::Reschedule {
                job,
                kind,
                from_pool,
                machine,
                to,
                ..
            } => {
                self.close_open(job, now);
                match kind {
                    // The policy audit emitted just before already stashed
                    // the cause; the next Enqueue/Dispatch consumes it.
                    ReschedKind::RestartFromSuspend | ReschedKind::RestartFromWait => {}
                    ReschedKind::Migrate => {
                        let cause = self
                            .take_pending(job)
                            .unwrap_or(Cause::Dispatched { from_queue: false });
                        self.open(job, SPAN_MIGRATING, now, to, None, cause);
                    }
                    ReschedKind::FailureEvict => {
                        if let Some((p, m, cause)) = self.last_fault {
                            if p == from_pool && machine == Some(m) {
                                self.stash(job, cause);
                            }
                        }
                    }
                    // The evac audit emitted just before stashed the cause.
                    ReschedKind::Evacuation => {}
                }
            }
            ObsEvent::RetryScheduled { job, attempt, .. } => {
                // The backoff segment inherits the fault/evacuation cause;
                // the dispatch that ends it carries the attempt number.
                let cause = self.take_pending(job).unwrap_or(Cause::Retry { attempt });
                self.close_open(job, now);
                self.open(job, SPAN_BACKOFF, now, None, None, cause);
                self.stash(job, Cause::Retry { attempt });
            }
            ObsEvent::DuplicateLaunched {
                original, clone, ..
            } => {
                // The policy decision that launched the copy moves to the
                // clone: the original never transitions.
                let cause = self.take_pending(original).unwrap_or(Cause::DuplicateRace);
                self.stash(clone, cause);
            }
            ObsEvent::PolicyAudit { job, verdict, .. } => {
                self.decisions.push((now, *event));
                if verdict != AuditVerdict::Stay {
                    if let ObsEvent::PolicyAudit {
                        trigger,
                        verdict,
                        target,
                        candidates,
                        cur_util_milli,
                        tgt_util_milli,
                        cur_queue,
                        tgt_queue,
                        ..
                    } = *event
                    {
                        self.stash(
                            job,
                            Cause::Policy {
                                trigger,
                                verdict,
                                target,
                                candidates,
                                cur_util_milli,
                                tgt_util_milli,
                                cur_queue,
                                tgt_queue,
                            },
                        );
                    }
                }
            }
            ObsEvent::EvacAudit {
                job,
                window,
                deadline,
                ..
            } => {
                self.decisions.push((now, *event));
                self.stash(job, Cause::Evacuation { window, deadline });
            }
            ObsEvent::FaultAudit {
                pool,
                machine,
                outage,
                blacklisted_until,
            } => {
                self.decisions.push((now, *event));
                self.last_fault = Some((
                    pool,
                    machine,
                    Cause::Fault {
                        outage,
                        blacklisted_until,
                    },
                ));
            }
            ObsEvent::PoolChosen { .. }
            | ObsEvent::WaitTimeout { .. }
            | ObsEvent::MachineDown { .. }
            | ObsEvent::MachineUp { .. }
            | ObsEvent::MachineDraining { .. }
            | ObsEvent::MachineUndrained { .. }
            | ObsEvent::PoolBlacklisted { .. }
            | ObsEvent::Sample
            | ObsEvent::PoolSample { .. }
            | ObsEvent::Kernel { .. }
            | ObsEvent::BatchStart { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------
// Perfetto export
// ---------------------------------------------------------------------

/// Converts spans JSONL (as written by [`SpanRecorder::render_jsonl`])
/// into Chrome `trace_event` JSON loadable by Perfetto / `chrome://tracing`:
/// pools render as process groups (pid = pool + 1; pid 0 holds off-pool
/// phases like backoff), jobs as threads, segments as complete (`"X"`)
/// events carrying their cause in `args`. Timestamps are minutes rendered
/// as microseconds. Open segments (no `end`) are rendered with zero
/// duration.
///
/// Hostile input gives an error, never a panic or invalid JSON: a span
/// whose `job` or `start` is not a non-negative integer, whose `end` is
/// neither that nor null, or whose `pool` is neither null nor a pool id
/// (`0..=65535`) is rejected, and strings are escaped on the way out.
pub fn perfetto_from_jsonl(input: &str) -> Result<String, String> {
    use netbatch_metrics::json::render_string;
    let mut events = String::new();
    let mut tracks: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
    let mut n = 0u64;
    for (lineno, line) in input.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if v.get("kind").and_then(Value::as_str) != Some("span") {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {}: span missing \"{k}\"", lineno + 1))
        };
        // Absent or null is `None`; anything else must be a u64.
        let optional = |k: &str| match v.get(k) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => x.as_u64().map(Some).ok_or_else(|| {
                format!(
                    "line {}: span \"{k}\" is not a non-negative integer",
                    lineno + 1
                )
            }),
        };
        let job = field("job")?;
        let start = field("start")?;
        let end = optional("end")?.unwrap_or(start);
        let phase = v
            .get("phase")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: span missing \"phase\"", lineno + 1))?;
        // pid 0 = off-pool (VPM/backoff); pools shift up by one.
        let pid = match optional("pool")? {
            None => 0,
            Some(p) => u16::try_from(p)
                .map(|p| u64::from(p) + 1)
                .map_err(|_| format!("line {}: span pool {p} is not a pool id", lineno + 1))?,
        };
        tracks.insert((pid, job));
        let cause = v
            .get("cause")
            .map_or_else(|| "null".to_string(), Value::render);
        if n > 0 {
            events.push(',');
        }
        events.push_str("{\"name\":");
        render_string(phase, &mut events);
        let _ = write!(
            events,
            ",\"ph\":\"X\",\"pid\":{pid},\"tid\":{job},\"ts\":{start},\"dur\":{},\
             \"args\":{{\"cause\":{cause}}}}}",
            end.saturating_sub(start),
        );
        n += 1;
    }
    let mut meta = String::new();
    let mut pids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for &(pid, _) in &tracks {
        pids.insert(pid);
    }
    for pid in pids {
        if !meta.is_empty() {
            meta.push(',');
        }
        let name = if pid == 0 {
            "vpm".to_string()
        } else {
            format!("pool {}", pid - 1)
        };
        let _ = write!(
            meta,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for (pid, job) in tracks {
        meta.push(',');
        let _ = write!(
            meta,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{job},\
             \"args\":{{\"name\":\"job {job}\"}}}}"
        );
    }
    let sep = if meta.is_empty() || events.is_empty() {
        ""
    } else {
        ","
    };
    Ok(format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{meta}{sep}{events}]}}"
    ))
}

// ---------------------------------------------------------------------
// Spans JSONL queries (`netbatch trace`)
// ---------------------------------------------------------------------

/// One parsed spans JSONL file (the [`SpanRecorder::render_jsonl`]
/// format): the header, then the decision-audit and span lines in file
/// order.
#[derive(Debug)]
pub struct SpansFile {
    /// The `netbatch-spans/1` header line.
    pub header: Value,
    /// Decision-audit lines (`"kind":"decision"`).
    pub decisions: Vec<Value>,
    /// Span lines (`"kind":"span"`).
    pub spans: Vec<Value>,
}

/// Which spans `netbatch trace` shows: every filter that is set must
/// match.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanQuery {
    /// Only this job's spans.
    pub job: Option<u64>,
    /// Only spans in this pool.
    pub pool: Option<u64>,
    /// Only spans whose cause has this type (`policy`, `fault`, ...).
    pub cause: Option<String>,
    /// This job's spans plus its decision audit; overrides `job`.
    pub why: Option<u64>,
}

impl SpanQuery {
    /// True when the query selects nothing beyond the whole file.
    pub fn is_empty(&self) -> bool {
        self == &SpanQuery::default()
    }
}

impl SpansFile {
    /// Parses a spans file; `name` labels errors (`name:line: ...`).
    /// Hostile input gives an error, never a panic.
    pub fn parse(name: &str, text: &str) -> Result<SpansFile, String> {
        let mut header = None;
        let mut decisions = Vec::new();
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("{name}:{}: {e}", i + 1))?;
            match v.get("kind").and_then(Value::as_str) {
                Some("span") => spans.push(v),
                Some("decision") => decisions.push(v),
                _ if header.is_none() && v.get("schema").is_some() => header = Some(v),
                _ => return Err(format!("{name}:{}: unrecognized line", i + 1)),
            }
        }
        let header = header.ok_or_else(|| format!("{name}: missing netbatch-spans header line"))?;
        let schema = header.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != "netbatch-spans/1" {
            return Err(format!(
                "{name}: unsupported schema `{schema}` (expected netbatch-spans/1)"
            ));
        }
        Ok(SpansFile {
            header,
            decisions,
            spans,
        })
    }

    /// The spans `query` selects, in file order.
    pub fn select(&self, query: &SpanQuery) -> Vec<&Value> {
        let job = query.why.or(query.job);
        self.spans
            .iter()
            .filter(|s| job.is_none_or(|j| field_u64(s, "job") == Some(j)))
            .filter(|s| query.pool.is_none_or(|p| field_u64(s, "pool") == Some(p)))
            .filter(|s| {
                query.cause.as_deref().is_none_or(|c| {
                    s.get("cause")
                        .and_then(|v| v.get("type"))
                        .and_then(Value::as_str)
                        == Some(c)
                })
            })
            .collect()
    }

    /// The decision audit of `job`: every policy or evacuation decision
    /// about it, plus the fault outages that `selected` (its spans) cite.
    pub fn decisions_behind(&self, job: u64, selected: &[&Value]) -> Vec<&Value> {
        let outages: Vec<u64> = selected
            .iter()
            .filter_map(|s| s.get("cause"))
            .filter(|c| c.get("type").and_then(Value::as_str) == Some("fault"))
            .filter_map(|c| field_u64(c, "outage"))
            .collect();
        self.decisions
            .iter()
            .filter(|d| match d.get("type").and_then(Value::as_str) {
                Some("fault") => field_u64(d, "outage").is_some_and(|o| outages.contains(&o)),
                _ => field_u64(d, "job") == Some(job),
            })
            .collect()
    }

    /// The answer to `query` as `netbatch trace` prints it: a summary of
    /// the header, each selected job's causal chain and, for `why`, the
    /// decision audit with the exact inputs behind each decision.
    pub fn render(&self, query: &SpanQuery) -> String {
        let header = &self.header;
        let text = |k: &str| header.get(k).and_then(Value::as_str).unwrap_or("?");
        let count = |k: &str| field_u64(header, k).unwrap_or(0);
        let mut out = format!(
            "{} | {} | {} initial | {} jobs, {} spans, {} decisions\n",
            text("schema"),
            text("strategy"),
            text("initial"),
            count("jobs"),
            count("spans"),
            count("decisions"),
        );
        let selected = self.select(query);
        if selected.is_empty() {
            out.push_str("no spans match the query\n");
            return out;
        }
        let mut current_job = None;
        for span in &selected {
            let id = field_u64(span, "job");
            if current_job != id {
                current_job = id;
                let _ = writeln!(out, "job {}:", id.unwrap_or(0));
            }
            let _ = writeln!(out, "{}", format_span(span));
        }
        if let Some(j) = query.why {
            let _ = writeln!(out, "why job {j}:");
            let relevant = self.decisions_behind(j, &selected);
            if relevant.is_empty() {
                out.push_str("  no recorded decisions — every transition was mechanical\n");
            }
            for d in relevant {
                let _ = writeln!(out, "{}", format_decision(d));
            }
        }
        out
    }
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

/// Renders a span's cause object as a one-line human-readable clause.
pub fn describe_cause(c: &Value) -> String {
    let kind = c.get("type").and_then(Value::as_str).unwrap_or("?");
    match kind {
        "dispatched" => match c.get("from_queue").and_then(Value::as_bool) {
            Some(true) => "dispatched from queue".into(),
            _ => "dispatched on submit".into(),
        },
        "policy" => {
            let trigger = c.get("trigger").and_then(Value::as_str).unwrap_or("?");
            let verdict = c.get("verdict").and_then(Value::as_str).unwrap_or("?");
            let target = match field_u64(c, "target") {
                Some(p) => format!(" to pool {p}"),
                None => String::new(),
            };
            format!(
                "policy {trigger} -> {verdict}{target} ({} candidates, util {:.1}% -> {:.1}%, \
                 queue {} -> {})",
                field_u64(c, "candidates").unwrap_or(0),
                field_u64(c, "cur_util_milli").unwrap_or(0) as f64 / 10.0,
                field_u64(c, "tgt_util_milli").unwrap_or(0) as f64 / 10.0,
                field_u64(c, "cur_queue").unwrap_or(0),
                field_u64(c, "tgt_queue").unwrap_or(0),
            )
        }
        "fault" => {
            let blacklist = match field_u64(c, "blacklisted_until") {
                Some(t) => format!(", pool blacklisted until t={t}"),
                None => String::new(),
            };
            format!(
                "fault outage #{}{blacklist}",
                field_u64(c, "outage").unwrap_or(0)
            )
        }
        "evacuation" => format!(
            "evacuation window #{}, kill deadline t={}",
            field_u64(c, "window").unwrap_or(0),
            field_u64(c, "deadline").unwrap_or(0),
        ),
        "retry" => format!("retry attempt {}", field_u64(c, "attempt").unwrap_or(0)),
        other => other.into(),
    }
}

/// Renders one span line of a causal chain.
pub fn format_span(v: &Value) -> String {
    let end = match field_u64(v, "end") {
        Some(t) => t.to_string(),
        None => "open".into(),
    };
    let mut location = match field_u64(v, "pool") {
        Some(p) => format!("pool {p}"),
        None => String::new(),
    };
    if let Some(m) = field_u64(v, "machine") {
        location = format!("{location} machine {m}");
    }
    let cause = v
        .get("cause")
        .map(describe_cause)
        .unwrap_or_else(|| "?".into());
    format!(
        "  [{:>6} .. {end:>6}] {:<10} {location:<20} <- {cause}",
        field_u64(v, "start").unwrap_or(0),
        v.get("phase").and_then(Value::as_str).unwrap_or("?"),
    )
}

/// Renders one decision-audit line for `netbatch trace --why`.
pub fn format_decision(v: &Value) -> String {
    let t = field_u64(v, "t").unwrap_or(0);
    match v.get("type").and_then(Value::as_str).unwrap_or("?") {
        "policy" => format!(
            "  t={t} {}",
            describe_cause(v) // policy decisions carry the same fields as policy causes
        ),
        "evac" => format!(
            "  t={t} evacuation of job {} off pool {} machine {}: window #{}, {} min \
             remaining, kill deadline t={}",
            field_u64(v, "job").unwrap_or(0),
            field_u64(v, "pool").unwrap_or(0),
            field_u64(v, "machine").unwrap_or(0),
            field_u64(v, "window").unwrap_or(0),
            field_u64(v, "remaining").unwrap_or(0),
            field_u64(v, "deadline").unwrap_or(0),
        ),
        "fault" => {
            let blacklist = match field_u64(v, "blacklisted_until") {
                Some(until) => format!(", pool blacklisted until t={until}"),
                None => String::new(),
            };
            format!(
                "  t={t} fault outage #{} downed pool {} machine {}{blacklist}",
                field_u64(v, "outage").unwrap_or(0),
                field_u64(v, "pool").unwrap_or(0),
                field_u64(v, "machine").unwrap_or(0),
            )
        }
        other => format!("  t={t} {other}"),
    }
}

// ---------------------------------------------------------------------
// Kernel self-profiler
// ---------------------------------------------------------------------

/// Kernel event-kind labels, indexed by
/// [`Ev::kind_index`](crate::simulator::Ev); must stay in sync with
/// [`EventLabel`](netbatch_sim_engine::observe::EventLabel) for
/// [`Ev`](crate::simulator::Ev).
pub const KERNEL_EV_KINDS: [&str; 10] = [
    "submit",
    "complete",
    "wait_check",
    "sample",
    "machine_down",
    "machine_up",
    "migrate_arrive",
    "retry_dispatch",
    "drain_start",
    "drain_end",
];

/// Labels for the worker-side phases the streaming backend attributes:
/// epoch submits, epoch completions and lazy shard-local trace
/// generation.
const SHARD_PHASES: [&str; 3] = ["submit", "complete", "generate"];

/// Worker phase indices for [`KernelProfile::record_shard`].
pub(crate) const PHASE_SUBMIT: usize = 0;
/// See [`PHASE_SUBMIT`].
pub(crate) const PHASE_COMPLETE: usize = 1;
/// See [`PHASE_SUBMIT`].
pub(crate) const PHASE_GENERATE: usize = 2;

/// Coordinator barrier phases beyond the per-event kinds: `merge` is the
/// serial report-fold + emission-reduce section at each epoch barrier —
/// the Amdahl-relevant serial fraction, readable straight from the folded
/// stacks as `netbatch;coordinator;merge` vs the `netbatch;shardN;*` lanes.
const COORD_PHASES: [&str; 1] = ["merge"];

/// Coordinator phase index for [`KernelProfile::record_coord_phase`].
pub(crate) const COORD_MERGE: usize = 0;

/// Wall-time attribution per kernel phase × per shard. Enabled via
/// [`SimConfig::profile`](crate::simulator::SimConfig::profile); costs one
/// branch per event when off. The nanosecond readings are wall-clock and
/// therefore nondeterministic — they never appear in deterministic
/// outputs, and the `Debug` rendering redacts them (counts only), exactly
/// like the streaming backend's busy-nanos counter.
#[derive(Clone, Default)]
pub struct KernelProfile {
    // (nanos, events) per Ev kind, accumulated on the serial executor.
    coordinator: [(u64, u64); KERNEL_EV_KINDS.len()],
    // (nanos, barriers) per coordinator barrier phase ([merge]).
    coord_phases: [(u64, u64); COORD_PHASES.len()],
    // (nanos, items) per shard for [submit, complete, generate] work.
    shards: Vec<[(u64, u64); SHARD_PHASES.len()]>,
}

impl KernelProfile {
    /// An empty profile (no shard lanes until the streaming backend
    /// sizes them).
    pub fn new() -> Self {
        KernelProfile::default()
    }

    /// Sizes the per-shard lanes (streaming backend only).
    pub(crate) fn init_shards(&mut self, shards: usize) {
        self.shards = vec![[(0, 0); SHARD_PHASES.len()]; shards];
    }

    /// Records one handled event on the serial/coordinator lane.
    pub(crate) fn record(&mut self, kind: usize, nanos: u64) {
        let cell = &mut self.coordinator[kind];
        cell.0 += nanos;
        cell.1 += 1;
    }

    /// Folds one shard's epoch work into its lane.
    pub(crate) fn record_shard(&mut self, shard: usize, phase: usize, nanos: u64, items: u64) {
        let cell = &mut self.shards[shard][phase];
        cell.0 += nanos;
        cell.1 += items;
    }

    /// Records one coordinator barrier phase (the serial merge section).
    pub(crate) fn record_coord_phase(&mut self, phase: usize, nanos: u64, items: u64) {
        let cell = &mut self.coord_phases[phase];
        cell.0 += nanos;
        cell.1 += items;
    }

    /// Number of execution lanes: 1 (serial or coordinator) plus one per
    /// shard.
    pub fn lane_count(&self) -> usize {
        1 + self.shards.len()
    }

    /// Total events/items attributed (deterministic, unlike the nanos).
    /// Barrier-merge phases count barriers, not events, and are excluded.
    pub fn total_events(&self) -> u64 {
        let coord: u64 = self.coordinator.iter().map(|c| c.1).sum();
        let shard: u64 = self.shards.iter().flatten().map(|c| c.1).sum();
        coord + shard
    }

    /// Folded-stack (flamegraph-ready) rendering: one
    /// `netbatch;<lane>;<phase> <microseconds>` line per non-empty cell.
    /// The main lane is `serial` for serial runs and `coordinator` when
    /// shard lanes exist.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        let lane = if self.shards.is_empty() {
            "serial"
        } else {
            "coordinator"
        };
        for (kind, &(nanos, events)) in KERNEL_EV_KINDS.iter().zip(&self.coordinator) {
            if events > 0 {
                let _ = writeln!(out, "netbatch;{lane};{kind} {}", nanos / 1_000);
            }
        }
        for (phase, &(nanos, barriers)) in COORD_PHASES.iter().zip(&self.coord_phases) {
            if barriers > 0 {
                let _ = writeln!(out, "netbatch;{lane};{phase} {}", nanos / 1_000);
            }
        }
        for (shard, lanes) in self.shards.iter().enumerate() {
            for (phase, &(nanos, items)) in SHARD_PHASES.iter().zip(lanes) {
                if items > 0 {
                    let _ = writeln!(out, "netbatch;shard{shard};{phase} {}", nanos / 1_000);
                }
            }
        }
        out
    }
}

impl fmt::Debug for KernelProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Redact the wall-clock nanos: Debug output must stay
        // deterministic so profiles can ride `SimOutput` without breaking
        // byte-identical-output contracts.
        f.debug_struct("KernelProfile")
            .field("events", &self.total_events())
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span JSONL renderer as it was before the linear-time one:
    /// arena indices sorted by (job, seq), every line written with
    /// `write!`. The oracle of the differential tests.
    mod by_sorting {
        use std::fmt::{self, Write as _};

        use netbatch_sim_engine::time::SimTime;

        use crate::observer::ObsEvent;
        use crate::provenance::{Cause, SpanRecorder};

        pub(super) fn render_jsonl(this: &SpanRecorder) -> String {
            let mut out = String::with_capacity(4096);
            let _ = writeln!(
                out,
                "{{\"schema\":\"netbatch-spans/1\",\"strategy\":\"{}\",\"initial\":\"{}\",\
             \"jobs\":{},\"spans\":{},\"decisions\":{}}}",
                this.strategy,
                this.initial,
                this.jobs.len(),
                this.span_count(),
                this.decisions.len(),
            );
            for (t, ev) in &this.decisions {
                render_decision(&mut out, *t, ev);
            }
            // The arena holds segments in open order; group them by job for
            // rendering (within one job the arena order already is seq order,
            // so the sort only interleaves jobs, deterministically).
            let mut order: Vec<u32> = (0..this.segments.len() as u32).collect();
            order.sort_unstable_by_key(|&i| {
                let (job, seq, _) = this.segments[i as usize];
                (job, seq)
            });
            for i in order {
                let (idx, seq, seg) = this.segments[i as usize];
                let _ = write!(
                    out,
                    "{{\"kind\":\"span\",\"job\":{idx},\"seq\":{seq},\"phase\":\"{}\",\
                 \"start\":{},\"end\":{},\"pool\":{},\"machine\":{},\"cause\":",
                    seg.phase,
                    seg.start.as_minutes(),
                    OptU64(seg.end.map(|t| t.as_minutes())),
                    OptU64(seg.pool.map(|p| u64::from(p.as_u16()))),
                    OptU64(seg.machine.map(|m| u64::from(m.as_u32()))),
                );
                render_cause(&seg.cause, &mut out);
                out.push_str("}\n");
            }
            out
        }

        fn render_cause(this: &Cause, out: &mut String) {
            match *this {
                Cause::Submitted | Cause::Preempted | Cause::Resumed | Cause::DuplicateRace => {
                    let _ = write!(out, "{{\"type\":\"{}\"}}", this.label());
                }
                Cause::Dispatched { from_queue } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"dispatched\",\"from_queue\":{from_queue}}}"
                    );
                }
                Cause::Policy {
                    trigger,
                    verdict,
                    target,
                    candidates,
                    cur_util_milli,
                    tgt_util_milli,
                    cur_queue,
                    tgt_queue,
                } => {
                    let _ = write!(
                    out,
                    "{{\"type\":\"policy\",\"trigger\":\"{}\",\"verdict\":\"{}\",\"target\":{},\
                     \"candidates\":{candidates},\"cur_util_milli\":{cur_util_milli},\
                     \"tgt_util_milli\":{tgt_util_milli},\"cur_queue\":{cur_queue},\
                     \"tgt_queue\":{tgt_queue}}}",
                    trigger.label(),
                    verdict.label(),
                    OptU64(target.map(|p| u64::from(p.as_u16()))),
                );
                }
                Cause::Fault {
                    outage,
                    blacklisted_until,
                } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"fault\",\"outage\":{outage},\"blacklisted_until\":{}}}",
                        OptU64(blacklisted_until.map(|t| t.as_minutes())),
                    );
                }
                Cause::Evacuation { window, deadline } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"evacuation\",\"window\":{window},\"deadline\":{}}}",
                        deadline.as_minutes()
                    );
                }
                Cause::Retry { attempt } => {
                    let _ = write!(out, "{{\"type\":\"retry\",\"attempt\":{attempt}}}");
                }
            }
        }

        /// An optional JSON number, `null` when absent; formats straight into
        /// the output buffer.
        struct OptU64(Option<u64>);

        impl fmt::Display for OptU64 {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Some(v) => write!(f, "{v}"),
                    None => f.write_str("null"),
                }
            }
        }

        fn render_decision(out: &mut String, t: SimTime, ev: &ObsEvent) {
            match *ev {
                ObsEvent::PolicyAudit {
                    job,
                    pool,
                    trigger,
                    verdict,
                    target,
                    candidates,
                    cur_util_milli,
                    tgt_util_milli,
                    cur_queue,
                    tgt_queue,
                } => {
                    let _ = writeln!(
                out,
                "{{\"kind\":\"decision\",\"type\":\"policy\",\"t\":{},\"job\":{},\"pool\":{},\
                 \"trigger\":\"{}\",\"verdict\":\"{}\",\"target\":{},\"candidates\":{candidates},\
                 \"cur_util_milli\":{cur_util_milli},\"tgt_util_milli\":{tgt_util_milli},\
                 \"cur_queue\":{cur_queue},\"tgt_queue\":{tgt_queue}}}",
                t.as_minutes(),
                job.as_u64(),
                pool.as_u16(),
                trigger.label(),
                verdict.label(),
                OptU64(target.map(|p| u64::from(p.as_u16()))),
            );
                }
                ObsEvent::EvacAudit {
                    job,
                    pool,
                    machine,
                    window,
                    remaining,
                    deadline,
                } => {
                    let _ = writeln!(
                out,
                "{{\"kind\":\"decision\",\"type\":\"evac\",\"t\":{},\"job\":{},\"pool\":{},\
                 \"machine\":{},\"window\":{window},\"remaining\":{},\"deadline\":{}}}",
                t.as_minutes(),
                job.as_u64(),
                pool.as_u16(),
                machine.as_u32(),
                remaining.as_minutes(),
                deadline.as_minutes(),
            );
                }
                ObsEvent::FaultAudit {
                    pool,
                    machine,
                    outage,
                    blacklisted_until,
                } => {
                    let _ = writeln!(
                out,
                "{{\"kind\":\"decision\",\"type\":\"fault\",\"t\":{},\"pool\":{},\"machine\":{},\
                 \"outage\":{outage},\"blacklisted_until\":{}}}",
                t.as_minutes(),
                pool.as_u16(),
                machine.as_u32(),
                OptU64(blacklisted_until.map(|t| t.as_minutes())),
            );
                }
                _ => unreachable!("only audit events are recorded as decisions"),
            }
        }
    }
    use netbatch_sim_engine::observe::EventLabel;
    use netbatch_sim_engine::time::SimDuration;

    fn t(m: u64) -> SimTime {
        SimTime::from_minutes(m)
    }

    fn ctx<'a>(shadows: &'a std::collections::HashSet<JobId>) -> ObsCtx<'a> {
        ObsCtx {
            pools: &[],
            jobs: &[],
            shadows,
        }
    }

    #[test]
    fn span_tree_records_queue_run_suspend_chain() {
        let shadows = std::collections::HashSet::new();
        let c = ctx(&shadows);
        let mut rec = SpanRecorder::new("nores", "round_robin");
        let job = JobId(0);
        let pool = PoolId(1);
        let m = MachineId(2);
        rec.on_event(t(0), &ObsEvent::Submit { job }, &c);
        rec.on_event(t(0), &ObsEvent::Enqueue { job, pool }, &c);
        rec.on_event(
            t(5),
            &ObsEvent::Dispatch {
                job,
                pool,
                machine: m,
                wall: SimDuration::from_minutes(30),
                from_queue: true,
            },
            &c,
        );
        rec.on_event(
            t(10),
            &ObsEvent::Suspend {
                job,
                pool,
                machine: m,
            },
            &c,
        );
        rec.on_event(
            t(20),
            &ObsEvent::Resume {
                job,
                pool,
                machine: m,
            },
            &c,
        );
        rec.on_event(
            t(45),
            &ObsEvent::Complete {
                job,
                pool,
                machine: m,
            },
            &c,
        );
        let segs = rec.segments(job);
        assert_eq!(
            segs.iter().map(|s| s.phase).collect::<Vec<_>>(),
            vec![SPAN_QUEUE_WAIT, SPAN_RUNNING, SPAN_SUSPENDED, SPAN_RUNNING]
        );
        assert_eq!(segs[0].end, Some(t(5)));
        assert_eq!(segs[1].cause, Cause::Dispatched { from_queue: true });
        assert_eq!(segs[2].cause, Cause::Preempted);
        assert_eq!(segs[3].cause, Cause::Resumed);
        assert_eq!(rec.open_count(), 0);
        assert_eq!(rec.phase_minutes(SPAN_SUSPENDED), 10);
        assert_eq!(rec.phase_minutes(SPAN_QUEUE_WAIT), 5);
        assert_eq!(rec.phase_minutes(SPAN_RUNNING), 5 + 25);
    }

    #[test]
    fn policy_audit_cause_attaches_to_restarted_segment() {
        let shadows = std::collections::HashSet::new();
        let c = ctx(&shadows);
        let mut rec = SpanRecorder::new("res_sus_util", "round_robin");
        let job = JobId(0);
        let (p0, p1) = (PoolId(0), PoolId(1));
        let m = MachineId(0);
        rec.on_event(t(0), &ObsEvent::Submit { job }, &c);
        rec.on_event(
            t(0),
            &ObsEvent::Dispatch {
                job,
                pool: p0,
                machine: m,
                wall: SimDuration::from_minutes(100),
                from_queue: false,
            },
            &c,
        );
        rec.on_event(
            t(40),
            &ObsEvent::Suspend {
                job,
                pool: p0,
                machine: m,
            },
            &c,
        );
        let audit = ObsEvent::PolicyAudit {
            job,
            pool: p0,
            trigger: AuditTrigger::Suspend,
            verdict: AuditVerdict::Restart,
            target: Some(p1),
            candidates: 2,
            cur_util_milli: 1000,
            tgt_util_milli: 0,
            cur_queue: 0,
            tgt_queue: 0,
        };
        rec.on_event(t(40), &audit, &c);
        rec.on_event(
            t(40),
            &ObsEvent::Reschedule {
                job,
                kind: ReschedKind::RestartFromSuspend,
                from_pool: p0,
                machine: Some(m),
                from_phase: crate::observer::PhaseTag::Suspended,
                to: Some(p1),
                discarded: SimDuration::from_minutes(40),
            },
            &c,
        );
        rec.on_event(
            t(40),
            &ObsEvent::Dispatch {
                job,
                pool: p1,
                machine: m,
                wall: SimDuration::from_minutes(100),
                from_queue: false,
            },
            &c,
        );
        let segs = rec.segments(job);
        assert_eq!(segs.len(), 3);
        assert!(matches!(
            segs[2].cause,
            Cause::Policy {
                verdict: AuditVerdict::Restart,
                target: Some(p),
                ..
            } if p == p1
        ));
        assert_eq!(rec.decisions().len(), 1);
        let jsonl = rec.render_jsonl();
        assert!(jsonl.contains("\"type\":\"policy\""));
        assert!(jsonl.contains("\"verdict\":\"restart\""));
    }

    #[test]
    fn fault_cause_flows_through_backoff_to_retry() {
        let shadows = std::collections::HashSet::new();
        let c = ctx(&shadows);
        let mut rec = SpanRecorder::new("nores", "round_robin");
        let job = JobId(0);
        let pool = PoolId(0);
        let m = MachineId(0);
        rec.on_event(t(0), &ObsEvent::Submit { job }, &c);
        rec.on_event(
            t(0),
            &ObsEvent::Dispatch {
                job,
                pool,
                machine: m,
                wall: SimDuration::from_minutes(100),
                from_queue: false,
            },
            &c,
        );
        rec.on_event(t(10), &ObsEvent::MachineDown { pool, machine: m }, &c);
        rec.on_event(
            t(10),
            &ObsEvent::FaultAudit {
                pool,
                machine: m,
                outage: 3,
                blacklisted_until: Some(t(70)),
            },
            &c,
        );
        rec.on_event(
            t(10),
            &ObsEvent::Reschedule {
                job,
                kind: ReschedKind::FailureEvict,
                from_pool: pool,
                machine: Some(m),
                from_phase: crate::observer::PhaseTag::Running,
                to: None,
                discarded: SimDuration::from_minutes(10),
            },
            &c,
        );
        rec.on_event(
            t(10),
            &ObsEvent::RetryScheduled {
                job,
                attempt: 1,
                resume_at: t(12),
            },
            &c,
        );
        rec.on_event(
            t(12),
            &ObsEvent::Dispatch {
                job,
                pool: PoolId(1),
                machine: m,
                wall: SimDuration::from_minutes(100),
                from_queue: false,
            },
            &c,
        );
        let segs = rec.segments(job);
        assert_eq!(
            segs.iter().map(|s| s.phase).collect::<Vec<_>>(),
            vec![SPAN_RUNNING, SPAN_BACKOFF, SPAN_RUNNING]
        );
        assert_eq!(
            segs[1].cause,
            Cause::Fault {
                outage: 3,
                blacklisted_until: Some(t(70))
            }
        );
        assert_eq!(segs[2].cause, Cause::Retry { attempt: 1 });
        assert_eq!(rec.decisions().len(), 1);
    }

    /// A span line with every field in place; `{pool}`-style holes take
    /// the hostile values below.
    fn span_line(
        job: &str,
        phase: &str,
        start: &str,
        end: &str,
        pool: &str,
        cause: &str,
    ) -> String {
        format!(
            "{{\"kind\":\"span\",\"job\":{job},\"seq\":0,\"phase\":{phase},\"start\":{start},\
             \"end\":{end},\"pool\":{pool},\"machine\":null,\"cause\":{cause}}}"
        )
    }

    #[test]
    fn perfetto_rejects_out_of_range_pools_and_escapes_phases() {
        let ok = |pool: &str| {
            perfetto_from_jsonl(&span_line("1", "\"running\"", "0", "5", pool, "null"))
        };
        assert!(ok("65535").unwrap().contains("\"pid\":65536"));
        for pool in [
            "18446744073709551615",
            "18446744073709551616",
            "65536",
            "-1",
            "1.5",
            "\"3\"",
        ] {
            let err = ok(pool).expect_err(pool);
            assert!(err.starts_with("line 1: span "), "{pool}: {err}");
        }
        assert!(perfetto_from_jsonl(&span_line("1", "\"x\"", "0", "1e300", "0", "null")).is_err());
        // A phase with a quote, a backslash and a control character still
        // yields valid JSON, and the name survives the round trip.
        let phase = r#""say \"hi\" \\ \u0001""#;
        let trace =
            perfetto_from_jsonl(&span_line("1", phase, "0", "null", "null", "null")).unwrap();
        let doc = netbatch_metrics::json::parse(&trace).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(netbatch_metrics::json::Value::as_arr)
            .unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(
            span.get("name").and_then(|n| n.as_str()),
            Some("say \"hi\" \\ \u{1}")
        );
    }

    // Values each span field may take in the hostile-input proptest.
    const HOSTILE_NUMS: [&str; 10] = [
        "0",
        "7",
        "65535",
        "65536",
        "18446744073709551615",
        "18446744073709551616",
        "1e300",
        "-1",
        "2.5",
        "null",
    ];
    const HOSTILE_PHASES: [&str; 6] = [
        "\"running\"",
        r#""a\"b""#,
        r#""back\\slash""#,
        r#""\u0001\n""#,
        "\"é\"",
        "3",
    ];
    const HOSTILE_CAUSES: [&str; 5] = [
        "null",
        r#"{"type":"x\"y"}"#,
        "[1,{\"a\":[]}]",
        "\"s\"",
        "1e300",
    ];
    const GARBAGE: [&str; 16] = [
        "{", "}", "[", "]", "\"", ":", ",", "0", "9", "-", ".", "e", "\\", "kind", "span", " ",
    ];

    fn hostile_line() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::Strategy;
        let n = HOSTILE_NUMS.len();
        proptest::prop_oneof![
            (
                0..n,
                0..HOSTILE_PHASES.len(),
                0..n,
                0..n,
                0..n,
                0..HOSTILE_CAUSES.len()
            )
                .prop_map(|(job, phase, start, end, pool, cause)| span_line(
                    HOSTILE_NUMS[job],
                    HOSTILE_PHASES[phase],
                    HOSTILE_NUMS[start],
                    HOSTILE_NUMS[end],
                    HOSTILE_NUMS[pool],
                    HOSTILE_CAUSES[cause],
                )),
            proptest::collection::vec(0..GARBAGE.len(), 0..40)
                .prop_map(|ix| ix.into_iter().map(|i| GARBAGE[i]).collect::<String>()),
            (0..n)
                .prop_map(|job| format!("{{\"kind\":\"decision\",\"job\":{}}}", HOSTILE_NUMS[job])),
        ]
    }

    proptest::proptest! {
        /// Malformed or hostile spans JSONL makes the Perfetto exporter
        /// return an error or valid JSON; it never panics.
        #[test]
        fn prop_perfetto_export_never_panics_on_hostile_jsonl(
            lines in proptest::collection::vec(hostile_line(), 0..6),
        ) {
            let input = lines.join("\n");
            if let Ok(trace) = perfetto_from_jsonl(&input) {
                proptest::prop_assert!(
                    netbatch_metrics::json::parse(&trace).is_ok(),
                    "invalid JSON from {input:?}"
                );
            }
        }
    }

    /// A valid spans file: a header, one decision of each type and a span
    /// of each cause type.
    const SPANS_FILE: &str = concat!(
        "{\"schema\":\"netbatch-spans/1\",\"strategy\":\"ResSusWaitUtil\",",
        "\"initial\":\"round_robin\",\"jobs\":2,\"spans\":4,\"decisions\":3}\n",
        "{\"kind\":\"decision\",\"type\":\"policy\",\"t\":40,\"job\":1,\"trigger\":\"suspend\",",
        "\"verdict\":\"restart\",\"target\":2,\"candidates\":3,\"cur_util_milli\":913,",
        "\"tgt_util_milli\":252,\"cur_queue\":7,\"tgt_queue\":0}\n",
        "{\"kind\":\"decision\",\"type\":\"evac\",\"t\":50,\"job\":1,\"pool\":2,\"machine\":0,",
        "\"window\":4,\"remaining\":30,\"deadline\":90}\n",
        "{\"kind\":\"decision\",\"type\":\"fault\",\"t\":60,\"pool\":0,\"machine\":1,",
        "\"outage\":5,\"blacklisted_until\":120}\n",
        "{\"kind\":\"span\",\"job\":0,\"seq\":0,\"phase\":\"running\",\"start\":0,\"end\":60,",
        "\"pool\":0,\"machine\":1,\"cause\":{\"type\":\"dispatched\",\"from_queue\":true}}\n",
        "{\"kind\":\"span\",\"job\":0,\"seq\":1,\"phase\":\"backoff\",\"start\":60,\"end\":null,",
        "\"pool\":null,\"machine\":null,\"cause\":{\"type\":\"fault\",\"outage\":5}}\n",
        "{\"kind\":\"span\",\"job\":1,\"seq\":0,\"phase\":\"running\",\"start\":40,\"end\":50,",
        "\"pool\":2,\"machine\":0,\"cause\":{\"type\":\"policy\",\"trigger\":\"suspend\"}}\n",
        "{\"kind\":\"span\",\"job\":1,\"seq\":1,\"phase\":\"queue_wait\",\"start\":50,\"end\":70,",
        "\"pool\":1,\"machine\":null,\"cause\":{\"type\":\"evacuation\",\"window\":4}}\n",
    );

    /// Characters a corrupted spans line is built from: JSON structure,
    /// digits, signs, escapes, letters of the keys and a multi-byte one.
    const HOSTILE_CHARS: [char; 18] = [
        '{', '}', '[', ']', '"', ':', ',', '0', '9', '-', '.', 'e', '\\', 'n', 'u', 't', ' ',
        '\u{e9}',
    ];

    /// Runs every query and formatter a spans file offers over `text`.
    fn query_everything(text: &str) {
        let _ = perfetto_from_jsonl(text);
        for line in text.lines() {
            if let Ok(v) = json::parse(line) {
                let _ = (describe_cause(&v), format_span(&v), format_decision(&v));
                if let Some(cause) = v.get("cause") {
                    let _ = describe_cause(cause);
                }
            }
        }
        let Ok(file) = SpansFile::parse("hostile", text) else {
            return;
        };
        let cause = |c: &str| Some(c.to_string());
        for query in [
            SpanQuery::default(),
            SpanQuery {
                job: Some(0),
                ..SpanQuery::default()
            },
            SpanQuery {
                pool: Some(2),
                ..SpanQuery::default()
            },
            SpanQuery {
                cause: cause("fault"),
                ..SpanQuery::default()
            },
            SpanQuery {
                why: Some(1),
                ..SpanQuery::default()
            },
            SpanQuery {
                why: Some(0),
                pool: Some(0),
                cause: cause("dispatched"),
                job: None,
            },
        ] {
            let text = file.render(&query);
            assert!(text.starts_with(file.render(&SpanQuery::default()).lines().next().unwrap()));
        }
    }

    #[test]
    fn spans_queries_answer_a_valid_file() {
        let file = SpansFile::parse("t", SPANS_FILE).unwrap();
        assert_eq!((file.spans.len(), file.decisions.len()), (4, 3));
        let why = file.render(&SpanQuery {
            why: Some(0),
            ..SpanQuery::default()
        });
        assert_eq!(
            why,
            "netbatch-spans/1 | ResSusWaitUtil | round_robin initial | 2 jobs, 4 spans, 3 decisions\n\
             job 0:\n\
             \x20 [     0 ..     60] running    pool 0 machine 1     <- dispatched from queue\n\
             \x20 [    60 ..   open] backoff                         <- fault outage #5\n\
             why job 0:\n\
             \x20 t=60 fault outage #5 downed pool 0 machine 1, pool blacklisted until t=120\n"
        );
        let pool = file.render(&SpanQuery {
            pool: Some(7),
            ..SpanQuery::default()
        });
        assert!(pool.ends_with("\nno spans match the query\n"), "{pool}");
        let job1 = file.render(&SpanQuery {
            why: Some(1),
            ..SpanQuery::default()
        });
        assert!(
            job1.contains("policy suspend -> restart to pool 2 (3 candidates"),
            "{job1}"
        );
        assert!(
            job1.contains("evacuation of job 1 off pool 2 machine 0"),
            "{job1}"
        );
        query_everything(SPANS_FILE);
    }

    proptest::proptest! {
        /// Arbitrary lines, and lines of a valid spans file with
        /// characters inserted, replaced or deleted, give the parser, every
        /// query and every formatter an `Err` or output, never a panic.
        #[test]
        fn prop_spans_queries_never_panic_on_hostile_jsonl(
            lines in proptest::collection::vec(hostile_line(), 0..6),
            edits in proptest::collection::vec(
                (0usize..16, 0usize..256, 0u8..3, 0..HOSTILE_CHARS.len()),
                0..8,
            ),
        ) {
            let mut file: Vec<Vec<char>> =
                SPANS_FILE.lines().map(|l| l.chars().collect()).collect();
            for (line, at, op, c) in edits {
                let line = &mut file[line % SPANS_FILE.lines().count()];
                let at = at % (line.len() + 1);
                let c = HOSTILE_CHARS[c];
                match op {
                    0 => line.insert(at, c),
                    1 if at < line.len() => line[at] = c,
                    _ if at < line.len() => {
                        line.remove(at);
                    }
                    _ => {}
                }
            }
            let mutated: Vec<String> = file.into_iter().map(String::from_iter).collect();
            query_everything(&mutated.join("\n"));
            query_everything(&lines.join("\n"));
            // Behind a valid header the hostile lines reach the queries.
            let header = SPANS_FILE.lines().next().unwrap();
            query_everything(&format!("{header}\n{}", lines.join("\n")));
        }
    }

    #[test]
    fn perfetto_export_parses_and_groups_pools() {
        let shadows = std::collections::HashSet::new();
        let c = ctx(&shadows);
        let mut rec = SpanRecorder::new("nores", "round_robin");
        let job = JobId(7);
        rec.on_event(t(0), &ObsEvent::Submit { job }, &c);
        rec.on_event(
            t(0),
            &ObsEvent::Enqueue {
                job,
                pool: PoolId(2),
            },
            &c,
        );
        rec.on_event(
            t(4),
            &ObsEvent::Dispatch {
                job,
                pool: PoolId(2),
                machine: MachineId(0),
                wall: SimDuration::from_minutes(6),
                from_queue: true,
            },
            &c,
        );
        rec.on_event(
            t(10),
            &ObsEvent::Complete {
                job,
                pool: PoolId(2),
                machine: MachineId(0),
            },
            &c,
        );
        let jsonl = rec.render_jsonl();
        let trace = perfetto_from_jsonl(&jsonl).expect("export succeeds");
        let doc = netbatch_metrics::json::parse(&trace).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(netbatch_metrics::json::Value::as_arr)
            .expect("traceEvents array");
        // 1 process_name + 1 thread_name + 2 X events.
        assert_eq!(events.len(), 4);
        assert!(trace.contains("\"pid\":3"), "pool 2 renders as pid 3");
        assert!(trace.contains("\"name\":\"pool 2\""));
        assert!(trace.contains("\"name\":\"queue_wait\""));
    }

    /// The chaos cell of `tests/provenance.rs` (faults, lifecycle windows,
    /// hardened resilience with evacuation) with the recorder attached.
    fn chaos_run(strategy: crate::policy::StrategyKind) -> crate::simulator::SimOutput {
        use crate::faults::{FaultModel, LifecycleModel, ResiliencePolicy};
        use crate::policy::InitialKind;
        use crate::simulator::{SimConfig, Simulator};
        use netbatch_workload::scenarios::ScenarioParams;

        let params = ScenarioParams::normal_week(0.02);
        let site = params.build_site().halved();
        let trace = params.generate_trace();
        let mut config = SimConfig::new(InitialKind::RoundRobin, strategy);
        config.spans = true;
        config.seed = 7;
        config.fault_model = Some(FaultModel::new(
            SimDuration::from_hours(24),
            SimDuration::from_hours(6),
            SimDuration::from_days(8),
        ));
        config.resilience = ResiliencePolicy::hardened().with_evacuation();
        config.lifecycle = Some(
            LifecycleModel::new(SimDuration::from_days(8))
                .with_maintenance(SimDuration::from_hours(48), SimDuration::from_hours(2))
                .with_rolling(1, 0.25, SimDuration::from_hours(1)),
        );
        config.health_aware = true;
        Simulator::new(&site, trace.to_specs(), config).run_to_completion()
    }

    #[test]
    fn linear_render_equals_the_sorting_renderer_on_chaos_runs() {
        use crate::policy::StrategyKind;
        for strategy in [
            StrategyKind::ResSusWaitUtil,
            StrategyKind::MigrateSusUtil,
            StrategyKind::DupSusUtil,
        ] {
            let out = chaos_run(strategy);
            let rec = out.observer::<SpanRecorder>().expect("recorder attached");
            assert!(rec.span_count() > 0 && !rec.decisions().is_empty());
            let jsonl = rec.render_jsonl();
            assert!(
                jsonl == by_sorting::render_jsonl(rec),
                "{}: the linear renderer diverges from the sorting one",
                strategy.name()
            );
            // Sized once by the counting pass: the buffer never grew.
            assert_eq!(jsonl.capacity(), jsonl.len());
            // Every stashed cause was taken or cleared by run end.
            assert!(
                rec.pending.is_empty(),
                "{}: {} pending causes left after a drained run",
                strategy.name(),
                rec.pending.len()
            );
        }
    }

    #[test]
    fn linear_render_groups_interleaved_jobs_and_open_segments() {
        // Jobs open segments in an order unrelated to their ids, one job
        // is never submitted, and one segment stays open.
        let shadows = std::collections::HashSet::new();
        let c = ctx(&shadows);
        let mut rec = SpanRecorder::new("nores", "round_robin");
        let (pool, m) = (PoolId(3), MachineId(u32::MAX));
        for (minute, job) in [(0, 5), (1, 2), (2, 9), (3, 2), (4, 5), (5, 0)] {
            let job = JobId(job);
            rec.on_event(t(minute), &ObsEvent::Submit { job }, &c);
            rec.on_event(t(minute), &ObsEvent::Enqueue { job, pool }, &c);
            rec.on_event(
                t(minute + 1),
                &ObsEvent::Dispatch {
                    job,
                    pool,
                    machine: m,
                    wall: SimDuration::from_minutes(10),
                    from_queue: true,
                },
                &c,
            );
        }
        rec.on_event(
            t(u64::MAX / 2),
            &ObsEvent::Complete {
                job: JobId(9),
                pool,
                machine: m,
            },
            &c,
        );
        assert_eq!(rec.job_count(), 10);
        let jsonl = rec.render_jsonl();
        assert_eq!(jsonl, by_sorting::render_jsonl(&rec));
        assert_eq!(jsonl.capacity(), jsonl.len());
        assert!(jsonl.contains("\"end\":null"));
        assert!(jsonl.contains(&format!("\"machine\":{}", u32::MAX)));
        // An empty recorder renders its header alone.
        let empty = SpanRecorder::new("nores", "round_robin");
        assert_eq!(empty.render_jsonl(), by_sorting::render_jsonl(&empty));
    }

    #[test]
    fn integer_sink_writes_and_counts_every_width() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut text = String::new();
            text.uint(v);
            let mut len = ByteCount(0);
            len.uint(v);
            assert_eq!(text, v.to_string());
            assert_eq!(len.0, text.len());
        }
    }

    #[test]
    fn kernel_ev_kinds_match_event_labels() {
        use crate::simulator::Ev;
        let evs = [
            Ev::Submit(JobId(0)),
            Ev::Complete(JobId(0)),
            Ev::WaitCheck(JobId(0)),
            Ev::Sample,
            Ev::MachineDown(PoolId(0), MachineId(0)),
            Ev::MachineUp(PoolId(0), MachineId(0)),
            Ev::MigrateArrive(JobId(0), PoolId(0)),
            Ev::RetryDispatch(JobId(0)),
            Ev::DrainStart(PoolId(0), MachineId(0), None),
            Ev::DrainEnd(PoolId(0), MachineId(0)),
        ];
        for ev in evs {
            assert_eq!(KERNEL_EV_KINDS[ev.kind_index()], ev.label());
        }
    }

    #[test]
    fn profile_folds_lanes_and_redacts_debug() {
        let mut p = KernelProfile::new();
        p.record(0, 5_000);
        p.record(1, 2_000);
        let folded = p.render_folded();
        assert!(folded.contains("netbatch;serial;submit 5"));
        assert!(folded.contains("netbatch;serial;complete 2"));
        p.init_shards(2);
        p.record_shard(1, 0, 9_000, 3);
        let folded = p.render_folded();
        assert!(folded.contains("netbatch;coordinator;submit 5"));
        assert!(folded.contains("netbatch;shard1;submit 9"));
        // Debug redacts nanos: only deterministic counts appear.
        let dbg = format!("{p:?}");
        assert!(dbg.contains("events"));
        assert!(!dbg.contains("9000"));
    }
}
