//! Causal provenance: per-job span trees with typed causes, a decision
//! audit log, Chrome `trace_event` (Perfetto) export and a kernel
//! self-profiler.
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
//! (`tests/provenance.rs`).

use std::fmt::{self, Write as _};

use netbatch_cluster::ids::{JobId, MachineId, PoolId};
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

    fn render(&self, out: &mut String) {
        match *self {
            Cause::Submitted | Cause::Preempted | Cause::Resumed | Cause::DuplicateRace => {
                let _ = write!(out, "{{\"type\":\"{}\"}}", self.label());
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
// per job, which is what dominates recording cost at scale.
#[derive(Default, Clone, Copy)]
struct JobState {
    open: Option<u32>,
    count: u32,
    pending: Option<Cause>,
    submitted_at: Option<SimTime>,
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

    fn take_pending(&mut self, job: JobId) -> Option<Cause> {
        self.job_mut(job).pending.take()
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
    pub fn render_jsonl(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(
            out,
            "{{\"schema\":\"netbatch-spans/1\",\"strategy\":\"{}\",\"initial\":\"{}\",\
             \"jobs\":{},\"spans\":{},\"decisions\":{}}}",
            self.strategy,
            self.initial,
            self.jobs.len(),
            self.span_count(),
            self.decisions.len(),
        );
        for (t, ev) in &self.decisions {
            render_decision(&mut out, *t, ev);
        }
        // The arena holds segments in open order; group them by job for
        // rendering (within one job the arena order already is seq order,
        // so the sort only interleaves jobs, deterministically).
        let mut order: Vec<u32> = (0..self.segments.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let (job, seq, _) = self.segments[i as usize];
            (job, seq)
        });
        for i in order {
            let (idx, seq, seg) = self.segments[i as usize];
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
            seg.cause.render(&mut out);
            out.push_str("}\n");
        }
        out
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
    fn on_event(&mut self, now: SimTime, event: &ObsEvent, _ctx: &ObsCtx<'_>) {
        match *event {
            ObsEvent::Submit { job } => {
                self.job_mut(job).submitted_at = Some(now);
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
                self.job_mut(job).pending = None;
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
                                self.job_mut(job).pending = Some(cause);
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
                self.job_mut(job).pending = Some(Cause::Retry { attempt });
            }
            ObsEvent::DuplicateLaunched {
                original, clone, ..
            } => {
                // The policy decision that launched the copy moves to the
                // clone: the original never transitions.
                let cause = self.take_pending(original).unwrap_or(Cause::DuplicateRace);
                let js = self.job_mut(clone);
                js.submitted_at = Some(now);
                js.pending = Some(cause);
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
                        self.job_mut(job).pending = Some(Cause::Policy {
                            trigger,
                            verdict,
                            target,
                            candidates,
                            cur_util_milli,
                            tgt_util_milli,
                            cur_queue,
                            tgt_queue,
                        });
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
                self.job_mut(job).pending = Some(Cause::Evacuation { window, deadline });
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
pub fn perfetto_from_jsonl(input: &str) -> Result<String, String> {
    use netbatch_metrics::json::Value;
    let mut events = String::new();
    let mut tracks: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
    let mut n = 0u64;
    for (lineno, line) in input.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let v =
            netbatch_metrics::json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if v.get("kind").and_then(Value::as_str) != Some("span") {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {}: span missing \"{k}\"", lineno + 1))
        };
        let job = field("job")?;
        let start = field("start")?;
        let end = v.get("end").and_then(Value::as_u64).unwrap_or(start);
        let phase = v
            .get("phase")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: span missing \"phase\"", lineno + 1))?;
        // pid 0 = off-pool (VPM/backoff); pools shift up by one.
        let pid = v.get("pool").and_then(Value::as_u64).map_or(0, |p| p + 1);
        tracks.insert((pid, job));
        let cause = v
            .get("cause")
            .map_or_else(|| "null".to_string(), Value::render);
        if n > 0 {
            events.push(',');
        }
        let _ = write!(
            events,
            "{{\"name\":\"{phase}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{job},\
             \"ts\":{start},\"dur\":{},\"args\":{{\"cause\":{cause}}}}}",
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
