//! The paper's per-pool protocol (§2.1–2.2), written once for both
//! kernels: submit a job into a pool, apply the pool's action batch
//! (start, suspend in place, resume on freed capacity) and complete a
//! running job; take a job out of its pool and restart or migrate it
//! ([`withdraw`], [`restart`]); and take a machine down, up, into or out
//! of a drain. The step does the record transitions, books and cancels
//! completions and emits the [`ObsEvent`]s in the order golden traces pin.
//! It decides nothing: suspended jobs and a machine event's evictees go
//! back to the caller, and each kernel layers its own policy over the
//! step. Generic over [`PoolHost`], it is monomorphized per kernel.

use std::collections::VecDeque;

use netbatch_cluster::ids::{JobId, MachineId, PoolId};
use netbatch_cluster::job::{JobPhase, JobRecord, JobSpec};
use netbatch_cluster::pool::{PhysicalPool, PoolAction, SubmitKind};
use netbatch_sim_engine::queue::EventId;
use netbatch_sim_engine::time::{SimDuration, SimTime};

use crate::observer::{ObsEvent, PhaseTag, ReschedKind};

/// What the pool step needs from the kernel running it. One trait rather
/// than separate pool, record and event sinks: the serial kernel's `emit`
/// shows observers the pools and job records together.
pub(crate) trait PoolHost {
    /// The pool with this id.
    fn pool(&mut self, id: PoolId) -> &mut PhysicalPool;
    /// The record of a job the kernel tracks.
    fn job(&mut self, id: JobId) -> &mut JobRecord;
    /// Books `job`'s completion at `at`.
    fn book(&mut self, at: SimTime, job: JobId) -> EventId;
    /// Cancels a booked event: a completion, or a serial wait timer.
    fn cancel(&mut self, id: EventId);
    /// Delivers one observable event.
    fn emit(&mut self, now: SimTime, event: ObsEvent);
}

/// Jobs an action batch suspended, with the pool each sits in, in
/// suspension order: the caller's to decide.
pub(crate) type Suspended = VecDeque<(JobId, PoolId)>;

/// Submits `spec` into `pool` for a job at the VPM. `routed` marks the
/// VPM's routing choice, announced with [`ObsEvent::PoolChosen`]; restarts,
/// duplicate launches and migration arrivals get none. `actions` is
/// scratch, empty on entry and on return.
pub(crate) fn submit<H: PoolHost>(
    host: &mut H,
    pool: PoolId,
    spec: &JobSpec,
    routed: bool,
    now: SimTime,
    actions: &mut Vec<PoolAction>,
    suspended: &mut Suspended,
) -> SubmitKind {
    let kind = host.pool(pool).submit_into(now, spec, actions);
    if routed && kind != SubmitKind::Ineligible {
        host.emit(now, ObsEvent::PoolChosen { job: spec.id, pool });
    }
    match kind {
        SubmitKind::Dispatched => apply(host, pool, actions, now, suspended),
        SubmitKind::Queued => {
            host.job(spec.id)
                .enqueue(now, pool)
                .expect("a placed job is at the VPM");
            host.emit(now, ObsEvent::Enqueue { job: spec.id, pool });
        }
        SubmitKind::Ineligible => {}
    }
    actions.clear();
    kind
}

/// Applies one of `pool`'s action batches to the job records, pushing
/// suspended jobs onto `suspended`.
pub(crate) fn apply<H: PoolHost>(
    host: &mut H,
    pool: PoolId,
    actions: &[PoolAction],
    now: SimTime,
    suspended: &mut Suspended,
) {
    if !actions.is_empty() {
        // Scope for the per-batch resume-order invariant.
        host.emit(now, ObsEvent::BatchStart { pool });
    }
    for &action in actions {
        match action {
            PoolAction::Started { job, machine, wall } => {
                let rec = host.job(job);
                let from_queue = matches!(rec.phase(), JobPhase::Waiting { .. });
                rec.wait_checks = 0;
                let timer = rec.wait_timer_event.take();
                rec.start(now, pool, machine, wall)
                    .expect("pool starts only routed jobs");
                if let Some(timer) = timer {
                    host.cancel(timer);
                }
                let ev = host.book(now + wall, job);
                host.job(job).completion_event = Some(ev);
                host.emit(
                    now,
                    ObsEvent::Dispatch {
                        job,
                        pool,
                        machine,
                        wall,
                        from_queue,
                    },
                );
            }
            PoolAction::Suspended { job, machine } => {
                let rec = host.job(job);
                let ev = rec
                    .completion_event
                    .take()
                    .expect("running job has a booked completion");
                rec.suspend(now).expect("pool suspends only running jobs");
                // On the streaming kernel the booking may be due now and
                // already popped; its delivery is then skipped as stale.
                host.cancel(ev);
                host.emit(now, ObsEvent::Suspend { job, pool, machine });
                suspended.push_back((job, pool));
            }
            PoolAction::Resumed { job, machine } => {
                let rec = host.job(job);
                rec.resume(now).expect("pool resumes only suspended jobs");
                let wall = rec.remaining_wall();
                let ev = host.book(now + wall, job);
                host.job(job).completion_event = Some(ev);
                host.emit(now, ObsEvent::Resume { job, pool, machine });
            }
        }
    }
}

/// Completes `job`, whose booked completion is due now, and applies what
/// its freed capacity starts or resumes. `actions` is scratch, empty on
/// entry and on return.
pub(crate) fn complete<H: PoolHost>(
    host: &mut H,
    job: JobId,
    now: SimTime,
    actions: &mut Vec<PoolAction>,
    suspended: &mut Suspended,
) {
    let rec = host.job(job);
    let JobPhase::Running { pool, machine } = rec.phase() else {
        unreachable!("completion events are cancelled on suspension and restart");
    };
    rec.completion_event = None;
    rec.complete(now).expect("phase checked running");
    host.emit(now, ObsEvent::Complete { job, pool, machine });
    let was_running = host.pool(pool).release_into(now, job, machine, actions);
    assert!(was_running, "running job releases");
    apply(host, pool, actions, now, suspended);
    actions.clear();
}

/// Where a job sat in a pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Place {
    pub pool: PoolId,
    /// The machine of a running or suspended job; `None` while waiting.
    pub machine: Option<MachineId>,
    pub phase: PhaseTag,
}

impl Place {
    /// Where `phase` puts a job, if it is in a pool.
    fn of(phase: JobPhase) -> Option<Place> {
        let (pool, machine, phase) = match phase {
            JobPhase::Running { pool, machine } => (pool, Some(machine), PhaseTag::Running),
            JobPhase::Suspended { pool, machine } => (pool, Some(machine), PhaseTag::Suspended),
            JobPhase::Waiting { pool } => (pool, None, PhaseTag::Waiting),
            _ => return None,
        };
        Some(Place {
            pool,
            machine,
            phase,
        })
    }
}

/// Takes `job` out of the pool its record names: off its machine if it
/// runs or is suspended, out of the queue if it waits. What the freed
/// capacity starts or resumes lands on `actions`, for [`restart`] or the
/// caller to apply; the record is left as it was. Returns where the job
/// was, or `None` for a job in no pool.
pub(crate) fn withdraw<H: PoolHost>(
    host: &mut H,
    job: JobId,
    now: SimTime,
    actions: &mut Vec<PoolAction>,
) -> Option<Place> {
    let from = Place::of(host.job(job).phase())?;
    let pool = host.pool(from.pool);
    let removed = match (from.phase, from.machine) {
        (PhaseTag::Running, Some(m)) => pool.release_into(now, job, m, actions),
        (PhaseTag::Suspended, Some(m)) => pool.remove_suspended_into(now, job, m, actions),
        _ => pool.remove_waiting(job).is_some(),
    };
    assert!(removed, "the record names where the job is");
    Some(from)
}

/// How a job leaves its pool, for [`restart`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Exit {
    /// Why. [`ReschedKind::Migrate`] keeps the job's progress; every
    /// other kind discards it.
    pub kind: ReschedKind,
    /// Waste charged beyond the discarded progress: the restart overhead,
    /// or a migration's transfer delay.
    pub cost: SimDuration,
    /// The policy's target pool; `None` for an eviction, which the VPM
    /// routes.
    pub to: Option<PoolId>,
}

/// Sends `job`, already out of its pool (by [`withdraw`] or a machine
/// event) but still named there by its record, back to the VPM: cancels
/// its booked completion, charges the discarded progress, makes the
/// record transition, emits [`ObsEvent::Reschedule`] and applies `freed`,
/// what its withdrawal freed, pushing suspended jobs onto `suspended`.
/// Returns the wall time a migration carries to its target; zero for a
/// restart.
pub(crate) fn restart<H: PoolHost>(
    host: &mut H,
    job: JobId,
    exit: Exit,
    freed: &[PoolAction],
    now: SimTime,
    suspended: &mut Suspended,
) -> SimDuration {
    if let Some(ev) = host.job(job).completion_event.take() {
        host.cancel(ev);
    }
    let rec = host.job(job);
    let from = Place::of(rec.phase()).expect("a restarted job was in a pool");
    let discarded = match from.phase {
        _ if exit.kind == ReschedKind::Migrate => SimDuration::ZERO,
        // A running job's progress counter lags its current stint; add
        // the time since it (re)started on the machine.
        PhaseTag::Running => rec.attempt_progress() + now.since(rec.phase_since()),
        PhaseTag::Suspended => rec.attempt_progress(),
        _ => SimDuration::ZERO,
    };
    let carried = if exit.kind == ReschedKind::Migrate {
        rec.migrate_out(now, exit.cost)
            .expect("only suspended jobs migrate")
    } else {
        rec.abort_for_restart(now, exit.cost)
            .expect("jobs in a pool can abort");
        SimDuration::ZERO
    };
    host.emit(
        now,
        ObsEvent::Reschedule {
            job,
            kind: exit.kind,
            from_pool: from.pool,
            machine: from.machine,
            from_phase: from.phase,
            to: exit.to,
            discarded,
        },
    );
    apply(host, from.pool, freed, now, suspended);
    carried
}

/// Jobs a machine event takes off, or puts at risk on, its machine:
/// running ones first, then suspended ones, each in resident order.
#[derive(Debug, Default)]
pub(crate) struct Evictees {
    running: Vec<JobId>,
    suspended: Vec<JobId>,
}

impl Evictees {
    /// Every listed job, running ones first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.running.iter().chain(&self.suspended).copied()
    }
}

/// A machine lifecycle event, for [`machine_event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MachineEvent {
    /// A failure: every resident is evicted.
    Down,
    /// Recovery from a failure.
    Up,
    /// A drain, or a cordon when no kill deadline comes: the machine takes
    /// no new work while its residents stay and may still resume.
    Drain(Option<SimTime>),
    /// The end of a drain or cordon.
    Undrain,
}

/// Applies `event` to `machine`: changes the pool, emits the event and
/// applies what freed capacity starts or resumes. A failure's residents
/// leave for `evictees`, still named there by their records, for
/// [`restart`]; a drain with a kill deadline lists there the residents it
/// would catch (running jobs that cannot finish by it, and every suspended
/// one). Returns false, changing nothing, when the machine already was in
/// that state. `actions` is scratch, empty on entry and on return.
#[allow(clippy::too_many_arguments)]
pub(crate) fn machine_event<H: PoolHost>(
    host: &mut H,
    pool: PoolId,
    machine: MachineId,
    event: MachineEvent,
    now: SimTime,
    actions: &mut Vec<PoolAction>,
    suspended: &mut Suspended,
    evictees: &mut Evictees,
) -> bool {
    evictees.running.clear();
    evictees.suspended.clear();
    let (running, parked) = (&mut evictees.running, &mut evictees.suspended);
    let p = host.pool(pool);
    let (changed, announce) = match event {
        MachineEvent::Down => (
            p.fail_machine_into(machine, running, parked),
            ObsEvent::MachineDown { pool, machine },
        ),
        MachineEvent::Up => (
            p.restore_machine_into(now, machine, actions),
            ObsEvent::MachineUp { pool, machine },
        ),
        MachineEvent::Drain(deadline) => (
            p.drain_machine(machine),
            ObsEvent::MachineDraining {
                pool,
                machine,
                deadline,
            },
        ),
        MachineEvent::Undrain => (
            p.undrain_machine_into(now, machine, actions),
            ObsEvent::MachineUndrained { pool, machine },
        ),
    };
    if !changed {
        return false;
    }
    host.emit(now, announce);
    apply(host, pool, actions, now, suspended);
    actions.clear();
    if let MachineEvent::Drain(Some(deadline)) = event {
        host.pool(pool).residents_into(machine, running, parked);
        // A running job completes at its phase start plus the wall it had
        // left then.
        running.retain(|&job| {
            let rec = host.job(job);
            rec.phase_since() + rec.remaining_wall() > deadline
        });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::pool::PoolConfig;
    use netbatch_cluster::priority::Priority;
    use netbatch_sim_engine::queue::EventQueue;

    /// One pool, dense job records, a real queue for handles, and a log
    /// of every cancel and emission.
    struct FakeHost {
        pools: Vec<PhysicalPool>,
        jobs: Vec<JobRecord>,
        queue: EventQueue<JobId>,
        cancelled: Vec<EventId>,
        emitted: Vec<(SimTime, ObsEvent)>,
    }

    impl PoolHost for FakeHost {
        fn pool(&mut self, id: PoolId) -> &mut PhysicalPool {
            &mut self.pools[id.as_usize()]
        }
        fn job(&mut self, id: JobId) -> &mut JobRecord {
            &mut self.jobs[id.as_usize()]
        }
        fn book(&mut self, at: SimTime, job: JobId) -> EventId {
            self.queue.schedule(at, job)
        }
        fn cancel(&mut self, id: EventId) {
            self.cancelled.push(id);
            self.queue.cancel(id);
        }
        fn emit(&mut self, now: SimTime, event: ObsEvent) {
            self.emitted.push((now, event));
        }
    }

    #[test]
    fn same_minute_preemption_cancels_the_due_booking_and_books_the_resume() {
        let t = SimTime::from_minutes;
        let (pool, machine) = (PoolId(0), MachineId(0));
        let (low, high) = (JobId(0), JobId(1));
        let spec = |id, runtime, prio| {
            JobSpec::new(id, t(0), SimDuration::from_minutes(runtime))
                .with_priority(Priority::new(prio))
        };
        let low_spec = spec(low, 5, 0);
        let high_spec = spec(high, 3, 10);
        let mut host = FakeHost {
            pools: vec![PhysicalPool::new(PoolConfig::uniform(pool, 1, 1, 16_384))],
            jobs: vec![
                JobRecord::new(low_spec.clone()),
                JobRecord::new(high_spec.clone()),
            ],
            queue: EventQueue::new(),
            cancelled: Vec::new(),
            emitted: Vec::new(),
        };
        let (mut actions, mut suspended) = (Vec::new(), Suspended::new());

        // t=0: the low job takes the only core; its completion is due at 5.
        host.jobs[0].submit(t(0)).unwrap();
        let kind = submit(
            &mut host,
            pool,
            &low_spec,
            true,
            t(0),
            &mut actions,
            &mut suspended,
        );
        assert_eq!(kind, SubmitKind::Dispatched);
        let due_now = host.jobs[0].completion_event.expect("booked");

        // t=5: the booking is due and popped, then a high-priority
        // submission at the same minute preempts its job.
        assert_eq!(
            host.queue.pop_with_id().map(|(at, id, _)| (at, id)),
            Some((t(5), due_now))
        );
        host.jobs[1].submit(t(5)).unwrap();
        let kind = submit(
            &mut host,
            pool,
            &high_spec,
            true,
            t(5),
            &mut actions,
            &mut suspended,
        );
        assert_eq!(kind, SubmitKind::Dispatched);
        assert_eq!(host.cancelled, vec![due_now]);
        assert_eq!(host.jobs[0].completion_event, None);
        let high_booking = host.jobs[1].completion_event.expect("booked");
        assert_eq!(suspended.drain(..).collect::<Vec<_>>(), vec![(low, pool)]);

        // t=8: the high job completes; the freed core resumes the low job
        // under a new handle, due at once (it had no wall time left).
        assert_eq!(
            host.queue.pop_with_id().map(|(at, id, _)| (at, id)),
            Some((t(8), high_booking))
        );
        complete(&mut host, high, t(8), &mut actions, &mut suspended);
        let resumed = host.jobs[0].completion_event.expect("resume books");
        assert_ne!(resumed, due_now);
        assert_eq!(host.jobs[1].completion_event, None);
        assert_eq!(
            host.queue.pop_with_id().map(|(at, id, _)| (at, id)),
            Some((t(8), resumed))
        );
        assert!(actions.is_empty() && suspended.is_empty());
        assert_eq!(host.cancelled, vec![due_now], "nothing else was cancelled");

        let dispatch = |at, job, wall| {
            (
                t(at),
                ObsEvent::Dispatch {
                    job,
                    pool,
                    machine,
                    wall: SimDuration::from_minutes(wall),
                    from_queue: false,
                },
            )
        };
        assert_eq!(
            host.emitted,
            vec![
                (t(0), ObsEvent::PoolChosen { job: low, pool }),
                (t(0), ObsEvent::BatchStart { pool }),
                dispatch(0, low, 5),
                (t(5), ObsEvent::PoolChosen { job: high, pool }),
                (t(5), ObsEvent::BatchStart { pool }),
                (
                    t(5),
                    ObsEvent::Suspend {
                        job: low,
                        pool,
                        machine
                    }
                ),
                dispatch(5, high, 3),
                (
                    t(8),
                    ObsEvent::Complete {
                        job: high,
                        pool,
                        machine
                    }
                ),
                (t(8), ObsEvent::BatchStart { pool }),
                (
                    t(8),
                    ObsEvent::Resume {
                        job: low,
                        pool,
                        machine
                    }
                ),
            ]
        );
    }

    const POOL: PoolId = PoolId(0);
    const MACHINE: MachineId = MachineId(0);

    fn t(minute: u64) -> SimTime {
        SimTime::from_minutes(minute)
    }

    fn minutes(m: u64) -> SimDuration {
        SimDuration::from_minutes(m)
    }

    /// A one-core pool where job 0 (low priority, 10 minutes) starts at
    /// t=0 and job 1 (high, 5 minutes) preempts it at `preempt_at`; job 2
    /// (low, 10 minutes) queues at `preempt_at + 1` when `with_waiter`.
    /// Returns the host, emissions and cancels cleared, and the high job's
    /// booked completion.
    fn preempted(preempt_at: u64, with_waiter: bool) -> (FakeHost, EventId) {
        let spec = |id, runtime, prio| {
            JobSpec::new(JobId(id), t(0), minutes(runtime)).with_priority(Priority::new(prio))
        };
        let mut specs = vec![spec(0, 10, 0), spec(1, 5, 10)];
        if with_waiter {
            specs.push(spec(2, 10, 0));
        }
        let mut host = FakeHost {
            pools: vec![PhysicalPool::new(PoolConfig::uniform(POOL, 1, 1, 16_384))],
            jobs: specs.iter().cloned().map(JobRecord::new).collect(),
            queue: EventQueue::new(),
            cancelled: Vec::new(),
            emitted: Vec::new(),
        };
        let (mut actions, mut suspended) = (Vec::new(), Suspended::new());
        for (spec, at) in specs.iter().zip([0, preempt_at, preempt_at + 1]) {
            host.jobs[spec.id.as_usize()].submit(t(at)).unwrap();
            submit(
                &mut host,
                POOL,
                spec,
                true,
                t(at),
                &mut actions,
                &mut suspended,
            );
        }
        assert_eq!(
            suspended.drain(..).collect::<Vec<_>>(),
            vec![(JobId(0), POOL)]
        );
        let high = host.jobs[1].completion_event.expect("the high job runs");
        host.cancelled.clear();
        host.emitted.clear();
        (host, high)
    }

    fn reschedule(
        job: u64,
        kind: ReschedKind,
        phase: PhaseTag,
        to: Option<PoolId>,
        discarded: u64,
    ) -> ObsEvent {
        ObsEvent::Reschedule {
            job: JobId(job),
            kind,
            from_pool: POOL,
            machine: (phase != PhaseTag::Waiting).then_some(MACHINE),
            from_phase: phase,
            to,
            discarded: minutes(discarded),
        }
    }

    #[test]
    fn restart_from_running_cancels_its_completion_and_resumes_the_suspended() {
        let (mut host, booked) = preempted(2, false);
        let (mut actions, mut suspended) = (Vec::new(), Suspended::new());
        let from = withdraw(&mut host, JobId(1), t(4), &mut actions);
        assert_eq!(
            from,
            Some(Place {
                pool: POOL,
                machine: Some(MACHINE),
                phase: PhaseTag::Running
            })
        );
        assert!(host.emitted.is_empty(), "withdrawing emits nothing");
        let exit = Exit {
            kind: ReschedKind::Evacuation,
            cost: minutes(1),
            to: None,
        };
        let carried = restart(&mut host, JobId(1), exit, &actions, t(4), &mut suspended);
        assert_eq!(carried, SimDuration::ZERO);
        assert_eq!(host.cancelled, vec![booked]);
        assert_eq!(host.jobs[1].phase(), JobPhase::AtVpm);
        // It ran 2 minutes of its attempt, and pays the overhead on top.
        assert_eq!(host.jobs[1].resched_waste(), minutes(3));
        let resume = JobPhase::Running {
            pool: POOL,
            machine: MACHINE,
        };
        assert_eq!(host.jobs[0].phase(), resume);
        assert!(host.jobs[0].completion_event.is_some(), "the resume books");
        assert_eq!(
            host.emitted,
            vec![
                (
                    t(4),
                    reschedule(1, ReschedKind::Evacuation, PhaseTag::Running, None, 2)
                ),
                (t(4), ObsEvent::BatchStart { pool: POOL }),
                (
                    t(4),
                    ObsEvent::Resume {
                        job: JobId(0),
                        pool: POOL,
                        machine: MACHINE
                    }
                ),
            ]
        );
    }

    #[test]
    fn restarts_from_suspended_and_waiting_cancel_nothing() {
        let (mut host, _) = preempted(2, true);
        let (mut actions, mut suspended) = (Vec::new(), Suspended::new());
        let target = Some(PoolId(1));
        for (job, phase, kind) in [
            (0, PhaseTag::Suspended, ReschedKind::RestartFromSuspend),
            (2, PhaseTag::Waiting, ReschedKind::RestartFromWait),
        ] {
            let from = withdraw(&mut host, JobId(job), t(4), &mut actions).unwrap();
            assert_eq!(from.phase, phase);
            // The one core stays busy: neither exit starts anything.
            assert!(actions.is_empty());
            let exit = Exit {
                kind,
                cost: SimDuration::ZERO,
                to: target,
            };
            restart(&mut host, JobId(job), exit, &actions, t(4), &mut suspended);
            assert_eq!(host.jobs[job as usize].phase(), JobPhase::AtVpm);
        }
        assert!(host.cancelled.is_empty(), "neither had a booking");
        assert_eq!(
            host.pools[0].suspended_count() + host.pools[0].queue_len(),
            0
        );
        assert_eq!(host.jobs[0].restarts_from_suspend(), 1);
        assert_eq!(host.jobs[2].restarts_from_wait(), 1);
        assert_eq!(
            host.emitted,
            vec![
                (
                    t(4),
                    reschedule(
                        0,
                        ReschedKind::RestartFromSuspend,
                        PhaseTag::Suspended,
                        target,
                        2
                    )
                ),
                (
                    t(4),
                    reschedule(
                        2,
                        ReschedKind::RestartFromWait,
                        PhaseTag::Waiting,
                        target,
                        0
                    )
                ),
            ]
        );
        assert_eq!(withdraw(&mut host, JobId(0), t(5), &mut actions), None);
    }

    #[test]
    fn migration_carries_the_remaining_work() {
        let (mut host, _) = preempted(3, false);
        let (mut actions, mut suspended) = (Vec::new(), Suspended::new());
        withdraw(&mut host, JobId(0), t(4), &mut actions);
        let exit = Exit {
            kind: ReschedKind::Migrate,
            cost: minutes(2),
            to: Some(PoolId(1)),
        };
        let carried = restart(&mut host, JobId(0), exit, &actions, t(4), &mut suspended);
        assert_eq!(carried, minutes(7), "10 minutes less the 3 it ran");
        assert!(host.cancelled.is_empty());
        assert_eq!(host.jobs[0].migrations(), 1);
        assert_eq!(host.jobs[0].resched_waste(), minutes(2), "the delay only");
        let to = Some(PoolId(1));
        assert_eq!(
            host.emitted,
            vec![(
                t(4),
                reschedule(0, ReschedKind::Migrate, PhaseTag::Suspended, to, 0)
            )]
        );
    }

    #[test]
    fn machine_down_hands_back_its_residents_for_restart() {
        let (mut host, booked) = preempted(3, false);
        let (mut actions, mut suspended) = (Vec::new(), Suspended::new());
        let mut evictees = Evictees::default();
        let down = |host: &mut FakeHost, evictees: &mut Evictees, at| {
            let (a, s) = (&mut Vec::new(), &mut Suspended::new());
            machine_event(
                host,
                POOL,
                MACHINE,
                MachineEvent::Down,
                t(at),
                a,
                s,
                evictees,
            )
        };
        assert!(down(&mut host, &mut evictees, 4));
        let jobs: Vec<JobId> = evictees.iter().collect();
        assert_eq!(jobs, vec![JobId(1), JobId(0)], "running ones first");
        for &job in &jobs {
            let exit = Exit {
                kind: ReschedKind::FailureEvict,
                cost: SimDuration::ZERO,
                to: None,
            };
            restart(&mut host, job, exit, &[], t(4), &mut suspended);
        }
        assert_eq!(host.cancelled, vec![booked]);
        assert!(!down(&mut host, &mut evictees, 5), "already down");
        assert_eq!(evictees.iter().count(), 0);
        let up = MachineEvent::Up;
        let (a, s) = (&mut actions, &mut suspended);
        assert!(machine_event(
            &mut host,
            POOL,
            MACHINE,
            up,
            t(6),
            a,
            s,
            &mut evictees
        ));
        let evict = ReschedKind::FailureEvict;
        assert_eq!(
            host.emitted,
            vec![
                (
                    t(4),
                    ObsEvent::MachineDown {
                        pool: POOL,
                        machine: MACHINE
                    }
                ),
                (t(4), reschedule(1, evict, PhaseTag::Running, None, 1)),
                (t(4), reschedule(0, evict, PhaseTag::Suspended, None, 3)),
                (
                    t(6),
                    ObsEvent::MachineUp {
                        pool: POOL,
                        machine: MACHINE
                    }
                ),
            ]
        );
        assert!(actions.is_empty() && suspended.is_empty());
    }
}
