//! The paper's per-pool protocol (§2.1–2.2), written once for both
//! kernels: submit a job into a pool, apply the pool's action batch
//! (start, suspend in place, resume on freed capacity) and complete a
//! running job. The step does the record transitions, books and cancels
//! completions and emits the [`ObsEvent`]s in the order golden traces pin.
//! It decides nothing: suspended jobs go onto the caller's worklist, and
//! each kernel layers its own policy over the step. Generic over
//! [`PoolHost`], it is monomorphized per kernel.

use std::collections::VecDeque;

use netbatch_cluster::ids::{JobId, PoolId};
use netbatch_cluster::job::{JobPhase, JobRecord, JobSpec};
use netbatch_cluster::pool::{PhysicalPool, PoolAction, SubmitKind};
use netbatch_sim_engine::queue::EventId;
use netbatch_sim_engine::time::SimTime;

use crate::observer::ObsEvent;

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

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::ids::MachineId;
    use netbatch_cluster::pool::PoolConfig;
    use netbatch_cluster::priority::Priority;
    use netbatch_sim_engine::queue::EventQueue;
    use netbatch_sim_engine::time::SimDuration;

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
}
