//! Stable-schema guard: every label that escapes into traces, metrics,
//! span JSONL or folded profiles is part of the tool-facing contract —
//! downstream queries (`netbatch trace --cause`), dashboards and golden
//! fixtures key on them. This suite pins the complete label registry:
//! adding a kind extends a pinned list (appending is fine), but renaming
//! or reusing a label for a different meaning fails here first.

use std::collections::BTreeSet;

use netbatch::cluster::ids::{JobId, MachineId, PoolId};
use netbatch::core::observer::{AuditTrigger, AuditVerdict, ObsEvent, PhaseTag, ReschedKind};
use netbatch::core::provenance::{Cause, KERNEL_EV_KINDS, SPAN_PHASES};
use netbatch::sim_engine::time::{SimDuration, SimTime};

/// One instance of every `ObsEvent` kind (every `Reschedule` mechanism
/// counts as its own kind: each renders under its own label). Adding an
/// `ObsEvent` variant breaks this function's exhaustiveness check below,
/// forcing the new label into the pinned registry.
fn every_event() -> Vec<ObsEvent> {
    let (job, pool, machine) = (JobId(1), PoolId(2), MachineId(3));
    let (t, d) = (SimTime::from_minutes(5), SimDuration::from_minutes(7));
    let reschedule = |kind| ObsEvent::Reschedule {
        job,
        kind,
        from_pool: pool,
        machine: Some(machine),
        from_phase: PhaseTag::Running,
        to: Some(pool),
        discarded: d,
    };
    let events = vec![
        ObsEvent::Kernel { kind: "submit" },
        ObsEvent::BatchStart { pool },
        ObsEvent::Submit { job },
        ObsEvent::PoolChosen { job, pool },
        ObsEvent::Unrunnable { job },
        ObsEvent::Dispatch {
            job,
            pool,
            machine,
            wall: d,
            from_queue: true,
        },
        ObsEvent::Enqueue { job, pool },
        ObsEvent::Suspend { job, pool, machine },
        ObsEvent::Resume { job, pool, machine },
        reschedule(ReschedKind::RestartFromSuspend),
        reschedule(ReschedKind::RestartFromWait),
        reschedule(ReschedKind::Migrate),
        reschedule(ReschedKind::FailureEvict),
        reschedule(ReschedKind::Evacuation),
        ObsEvent::WaitTimeout { job, pool },
        ObsEvent::DuplicateLaunched {
            original: job,
            clone: JobId(9),
            target: pool,
        },
        ObsEvent::ProxyFinish {
            job,
            from_phase: PhaseTag::Suspended,
            pool: Some(pool),
            machine: Some(machine),
        },
        ObsEvent::Complete { job, pool, machine },
        ObsEvent::MachineDown { pool, machine },
        ObsEvent::MachineUp { pool, machine },
        ObsEvent::MachineDraining {
            pool,
            machine,
            deadline: Some(t),
        },
        ObsEvent::MachineUndrained { pool, machine },
        ObsEvent::RetryScheduled {
            job,
            attempt: 1,
            resume_at: t,
        },
        ObsEvent::PoolBlacklisted { pool, until: t },
        ObsEvent::PolicyAudit {
            job,
            pool,
            trigger: AuditTrigger::Suspend,
            verdict: AuditVerdict::Restart,
            target: Some(pool),
            candidates: 4,
            cur_util_milli: 900,
            tgt_util_milli: 300,
            cur_queue: 2,
            tgt_queue: 0,
        },
        ObsEvent::EvacAudit {
            job,
            pool,
            machine,
            window: 0,
            remaining: d,
            deadline: t,
        },
        ObsEvent::FaultAudit {
            pool,
            machine,
            outage: 0,
            blacklisted_until: Some(t),
        },
        ObsEvent::PoolSample {
            pool,
            busy_cores: 4,
            total_cores: 8,
            waiting: 1,
            suspended: 0,
            machines: 2,
            down_machines: 0,
            draining_machines: 0,
            health_bits: 1.0f64.to_bits(),
        },
    ];
    // Exhaustiveness: one entry per variant plus one per extra
    // ReschedKind. A new variant (or mechanism) must be added above AND
    // to the pinned registry, or this arithmetic breaks.
    for ev in &events {
        match ev {
            ObsEvent::Kernel { .. }
            | ObsEvent::BatchStart { .. }
            | ObsEvent::Submit { .. }
            | ObsEvent::PoolChosen { .. }
            | ObsEvent::Unrunnable { .. }
            | ObsEvent::Dispatch { .. }
            | ObsEvent::Enqueue { .. }
            | ObsEvent::Suspend { .. }
            | ObsEvent::Resume { .. }
            | ObsEvent::Reschedule { .. }
            | ObsEvent::WaitTimeout { .. }
            | ObsEvent::DuplicateLaunched { .. }
            | ObsEvent::ProxyFinish { .. }
            | ObsEvent::Complete { .. }
            | ObsEvent::MachineDown { .. }
            | ObsEvent::MachineUp { .. }
            | ObsEvent::MachineDraining { .. }
            | ObsEvent::MachineUndrained { .. }
            | ObsEvent::RetryScheduled { .. }
            | ObsEvent::PoolBlacklisted { .. }
            | ObsEvent::PolicyAudit { .. }
            | ObsEvent::EvacAudit { .. }
            | ObsEvent::FaultAudit { .. }
            | ObsEvent::PoolSample { .. }
            | ObsEvent::Sample => {}
        }
    }
    events
}

/// The complete, append-only event-label registry. Labels here are
/// *retired, never reused*: if a kind goes away its label must not be
/// given a new meaning later — queries against archived traces would
/// silently change meaning.
const PINNED_EVENT_LABELS: [&str; 29] = [
    "kernel",
    "batch",
    "submit",
    "pool_chosen",
    "unrunnable",
    "dispatch",
    "enqueue",
    "suspend",
    "resume",
    "restart_from_suspend",
    "restart_from_wait",
    "migrate",
    "failure_evict",
    "evacuation",
    "wait_timeout",
    "duplicate",
    "proxy_finish",
    "complete",
    "machine_down",
    "machine_up",
    "machine_draining",
    "machine_undrained",
    "retry_backoff",
    "blacklist",
    "sample",
    "policy_audit",
    "evac_audit",
    "fault_audit",
    "pool_sample",
];

/// Pinned span-phase registry (`netbatch trace` groups and Perfetto
/// track names key on these).
const PINNED_SPAN_PHASES: [&str; 5] =
    ["queue_wait", "running", "suspended", "backoff", "migrating"];

/// Pinned cause-type registry (the `"type"` tag in span JSONL causes and
/// the `trace --cause` query vocabulary).
const PINNED_CAUSE_LABELS: [&str; 9] = [
    "submitted",
    "dispatched",
    "preempted",
    "resumed",
    "policy",
    "fault",
    "evacuation",
    "retry",
    "duplicate_race",
];

fn every_cause() -> Vec<Cause> {
    vec![
        Cause::Submitted,
        Cause::Dispatched { from_queue: true },
        Cause::Preempted,
        Cause::Resumed,
        Cause::Policy {
            trigger: AuditTrigger::WaitTimeout,
            verdict: AuditVerdict::Migrate,
            target: Some(PoolId(1)),
            candidates: 2,
            cur_util_milli: 800,
            tgt_util_milli: 400,
            cur_queue: 3,
            tgt_queue: 1,
        },
        Cause::Fault {
            outage: 0,
            blacklisted_until: None,
        },
        Cause::Evacuation {
            window: 0,
            deadline: SimTime::from_minutes(9),
        },
        Cause::Retry { attempt: 2 },
        Cause::DuplicateRace,
    ]
}

fn assert_unique(labels: &[&str], what: &str) {
    let set: BTreeSet<&str> = labels.iter().copied().collect();
    assert_eq!(set.len(), labels.len(), "duplicate {what} label");
}

#[test]
fn event_labels_are_unique_and_pinned() {
    let labels: Vec<&str> = every_event().iter().map(ObsEvent::label).collect();
    // Sample carries no payload and is in the exhaustive match but not
    // the constructed list; account for it explicitly.
    let mut labels = labels;
    labels.push(ObsEvent::Sample.label());
    assert_unique(&labels, "event");
    let current: BTreeSet<&str> = labels.iter().copied().collect();
    let pinned: BTreeSet<&str> = PINNED_EVENT_LABELS.iter().copied().collect();
    assert_eq!(
        current, pinned,
        "event labels drifted from the pinned registry — append new kinds, never rename or reuse"
    );
}

#[test]
fn span_phases_are_unique_pinned_and_disjoint_from_event_labels() {
    assert_unique(&SPAN_PHASES, "span phase");
    assert_eq!(SPAN_PHASES, PINNED_SPAN_PHASES);
    for phase in SPAN_PHASES {
        assert!(
            !PINNED_EVENT_LABELS.contains(&phase),
            "span phase {phase:?} reuses an event label"
        );
    }
}

#[test]
fn cause_labels_are_unique_and_pinned() {
    let labels: Vec<&str> = every_cause().iter().map(Cause::label).collect();
    assert_unique(&labels, "cause");
    let current: BTreeSet<&str> = labels.iter().copied().collect();
    let pinned: BTreeSet<&str> = PINNED_CAUSE_LABELS.iter().copied().collect();
    assert_eq!(
        current, pinned,
        "cause labels drifted from the pinned registry — append new kinds, never rename or reuse"
    );
}

#[test]
fn audit_and_phase_vocabularies_are_unique() {
    let triggers = [
        AuditTrigger::Suspend.label(),
        AuditTrigger::WaitTimeout.label(),
    ];
    assert_unique(&triggers, "audit trigger");
    let verdicts = [
        AuditVerdict::Stay.label(),
        AuditVerdict::Restart.label(),
        AuditVerdict::Migrate.label(),
        AuditVerdict::Duplicate.label(),
    ];
    assert_unique(&verdicts, "audit verdict");
    let phases = [
        PhaseTag::AtVpm.label(),
        PhaseTag::Waiting.label(),
        PhaseTag::Running.label(),
        PhaseTag::Suspended.label(),
    ];
    assert_unique(&phases, "phase tag");
    assert_unique(&KERNEL_EV_KINDS, "kernel event kind");
}
