//! The simulation driver: clock + event queue + handler loop.
//!
//! The executor owns the virtual clock and the pending-event set and feeds
//! events to a [`Handler`] in deterministic order. Handlers schedule further
//! events through the [`Scheduler`] view they receive, which also enforces
//! causality (no scheduling into the past).

use std::fmt;

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// A simulation component that reacts to events.
///
/// Implementations receive each event together with a [`Scheduler`] through
/// which they may schedule or cancel future events.
///
/// Besides the queue, a handler may offer a stream of *arrivals*: events
/// it already holds in time order (a workload sorted by submit time), so
/// they need no ordered structure of their own. [`Executor::run`] merges
/// the stream with the queue through [`Handler::peek_arrival`] and
/// [`Handler::pop_arrival`]. On a tie at one minute the arrival goes
/// first, which is the order the same arrivals would get had they all
/// been seeded into the queue before anything else. The default offers
/// none.
pub trait Handler {
    /// The event alphabet of this simulation.
    type Event;

    /// Processes one event occurring at `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);

    /// The instant of the next arrival, if any remain. Successive
    /// arrivals must come in non-decreasing time order, and never before
    /// the executor's current time.
    fn peek_arrival(&self) -> Option<SimTime> {
        None
    }

    /// Takes the arrival [`Handler::peek_arrival`] announced. The executor
    /// calls it only right after that returned `Some`.
    fn pop_arrival(&mut self) -> Option<Self::Event> {
        None
    }
}

/// The event-scheduling capability handed to handlers.
///
/// Wraps the executor's queue and clock so that handlers can only schedule
/// into the present or future.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> fmt::Debug for Scheduler<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .finish()
    }
}

impl<'a, E> Scheduler<'a, E> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — that would violate causality and
    /// always indicates a bug in the calling model.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event at {at}, current time is {}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if it was still
    /// pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Number of events currently queued. Arrivals the handler has yet
    /// to offer (see [`Handler::peek_arrival`]) are not counted.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Summary statistics for a drained run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of events delivered to the handler, arrivals included.
    pub events_processed: u64,
    /// Virtual time when the run ended.
    pub end_time: SimTime,
}

/// The simulation executor: owns the clock and the future-event set.
///
/// # Examples
///
/// ```
/// use netbatch_sim_engine::executor::{Executor, Handler, Scheduler};
/// use netbatch_sim_engine::time::{SimDuration, SimTime};
///
/// struct Counter(u32);
/// impl Handler for Counter {
///     type Event = ();
///     fn handle(&mut self, _now: SimTime, _e: (), sched: &mut Scheduler<'_, ()>) {
///         self.0 += 1;
///         if self.0 < 3 {
///             sched.schedule_in(SimDuration::MINUTE, ());
///         }
///     }
/// }
///
/// let mut ex = Executor::new();
/// ex.seed_event(SimTime::ZERO, ());
/// let mut counter = Counter(0);
/// let stats = ex.run(&mut counter);
/// assert_eq!(counter.0, 3);
/// assert_eq!(stats.end_time, SimTime::from_minutes(2));
/// ```
pub struct Executor<E> {
    queue: EventQueue<E>,
    now: SimTime,
    events_processed: u64,
}

impl<E> Executor<E> {
    /// Creates an executor starting at time zero.
    pub fn new() -> Self {
        Executor::with_queue(EventQueue::new())
    }

    /// Creates an executor whose queue is pre-sized for `capacity` stored
    /// events. Size it for what the run keeps queued at once (in-flight
    /// timers plus seeded events), not for the arrivals a handler streams
    /// in through [`Handler::pop_arrival`]: those never enter the queue.
    pub fn with_capacity(capacity: usize) -> Self {
        Executor::with_queue(EventQueue::with_capacity(capacity))
    }

    /// Creates an executor driving the given queue — used to run a
    /// simulation on the reference heap backend
    /// ([`EventQueue::with_reference_heap`]) for differential testing.
    pub fn with_queue(queue: EventQueue<E>) -> Self {
        Executor {
            queue,
            now: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// Schedules an event before the run starts (or between runs).
    pub fn seed_event(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot seed event at {at}, current time is {}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Runs the event loop until the queue and the handler's arrivals are
    /// both drained.
    ///
    /// Each step delivers the handler's next arrival when its minute is at
    /// or before the queue's next event, and pops the queue otherwise.
    /// Arrivals count toward [`RunStats::events_processed`].
    pub fn run<H: Handler<Event = E>>(&mut self, handler: &mut H) -> RunStats {
        loop {
            let arrival = handler.peek_arrival();
            let queued = self.queue.peek_time();
            let (next_time, is_arrival) = match (arrival, queued) {
                (Some(a), Some(q)) if a <= q => (a, true),
                (Some(a), None) => (a, true),
                (_, Some(q)) => (q, false),
                (None, None) => {
                    return RunStats {
                        events_processed: self.events_processed,
                        end_time: self.now,
                    }
                }
            };
            let (time, event) = if is_arrival {
                let event = handler.pop_arrival().expect("peeked arrival exists");
                (next_time, event)
            } else {
                self.queue.pop().expect("peeked event exists")
            };
            debug_assert!(time >= self.now, "events delivered out of order");
            self.now = time;
            self.events_processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
            };
            handler.handle(time, event, &mut sched);
        }
    }
}

impl<E> Default for Executor<E> {
    fn default() -> Self {
        Executor::new()
    }
}

impl<E> fmt::Debug for Executor<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(u64, &'static str)>,
    }

    impl Handler for Recorder {
        type Event = &'static str;

        fn handle(
            &mut self,
            now: SimTime,
            event: &'static str,
            _s: &mut Scheduler<'_, &'static str>,
        ) {
            self.seen.push((now.as_minutes(), event));
        }
    }

    #[test]
    fn drains_in_order() {
        let mut ex = Executor::new();
        ex.seed_event(SimTime::from_minutes(5), "b");
        ex.seed_event(SimTime::from_minutes(1), "a");
        let mut r = Recorder { seen: vec![] };
        let stats = ex.run(&mut r);
        assert_eq!(r.seen, vec![(1, "a"), (5, "b")]);
        assert_eq!(stats.end_time, SimTime::from_minutes(5));
        assert_eq!(stats.events_processed, 2);
    }

    #[test]
    fn handler_can_chain_events() {
        struct Chain {
            fired: Vec<u64>,
        }
        impl Handler for Chain {
            type Event = u64;
            fn handle(&mut self, now: SimTime, e: u64, s: &mut Scheduler<'_, u64>) {
                self.fired.push(now.as_minutes());
                if e > 0 {
                    s.schedule_in(SimDuration::from_minutes(10), e - 1);
                }
            }
        }
        let mut ex = Executor::new();
        ex.seed_event(SimTime::ZERO, 3u64);
        let mut c = Chain { fired: vec![] };
        ex.run(&mut c);
        assert_eq!(c.fired, vec![0, 10, 20, 30]);
    }

    #[test]
    fn scheduler_cancel_works_from_handler() {
        struct Canceller {
            pending: Option<EventId>,
            delivered: u32,
        }
        impl Handler for Canceller {
            type Event = u8;
            fn handle(&mut self, _n: SimTime, e: u8, s: &mut Scheduler<'_, u8>) {
                self.delivered += 1;
                if e == 0 {
                    // First event cancels the second.
                    let id = self.pending.take().expect("id stored");
                    assert!(s.cancel(id));
                }
            }
        }
        let mut ex = Executor::new();
        ex.seed_event(SimTime::from_minutes(1), 0u8);
        let victim = ex.seed_event(SimTime::from_minutes(2), 1u8);
        let mut h = Canceller {
            pending: Some(victim),
            delivered: 0,
        };
        let stats = ex.run(&mut h);
        assert_eq!(h.delivered, 1);
        assert_eq!(stats.end_time, SimTime::from_minutes(1));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event at")]
    fn scheduling_into_past_panics() {
        struct PastScheduler;
        impl Handler for PastScheduler {
            type Event = ();
            fn handle(&mut self, _n: SimTime, _e: (), s: &mut Scheduler<'_, ()>) {
                s.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut ex = Executor::new();
        ex.seed_event(SimTime::from_minutes(5), ());
        ex.run(&mut PastScheduler);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        struct Collect {
            seen: Vec<(u64, u32)>,
        }
        impl Handler for Collect {
            type Event = u32;
            fn handle(&mut self, now: SimTime, e: u32, _s: &mut Scheduler<'_, u32>) {
                self.seen.push((now.as_minutes(), e));
            }
        }

        /// Records deliveries and reacts to each one as a function of its
        /// payload alone, so two runs that deliver the same sequence make
        /// the same scheduling and cancelling decisions: a payload divisible
        /// by 3 schedules a follow-up `payload % 7` minutes later (0 is the
        /// same minute), and one divisible by 5 cancels the latest
        /// follow-up still on record.
        struct Mixed {
            arrivals: std::collections::VecDeque<(u64, u32)>,
            seen: Vec<(u64, u32)>,
            scheduled: Vec<EventId>,
            next_follow_up: u32,
        }

        impl Mixed {
            fn new(arrivals: Vec<(u64, u32)>) -> Self {
                Mixed {
                    arrivals: arrivals.into(),
                    seen: Vec::new(),
                    scheduled: Vec::new(),
                    next_follow_up: 100_000,
                }
            }
        }

        impl Handler for Mixed {
            type Event = u32;

            fn handle(&mut self, now: SimTime, e: u32, s: &mut Scheduler<'_, u32>) {
                self.seen.push((now.as_minutes(), e));
                if e.is_multiple_of(3) && self.next_follow_up < 100_400 {
                    let delay = SimDuration::from_minutes(u64::from(e % 7));
                    self.scheduled
                        .push(s.schedule_in(delay, self.next_follow_up));
                    self.next_follow_up += 1;
                }
                if e.is_multiple_of(5) {
                    if let Some(id) = self.scheduled.pop() {
                        s.cancel(id);
                    }
                }
            }

            fn peek_arrival(&self) -> Option<SimTime> {
                self.arrivals
                    .front()
                    .map(|&(t, _)| SimTime::from_minutes(t))
            }

            fn pop_arrival(&mut self) -> Option<u32> {
                self.arrivals.pop_front().map(|(_, e)| e)
            }
        }

        proptest! {
            /// Arrivals merged into a run — on the wheel and on the heap —
            /// are delivered exactly as if they had all been seeded first
            /// into the reference heap: same (time, payload) sequence,
            /// with seeded, run-scheduled and cancelled events around them.
            #[test]
            fn prop_arrival_merge_matches_seeding_arrivals_first(
                mut arrival_times in proptest::collection::vec(0u64..300, 0..80),
                seeded in proptest::collection::vec(0u64..300, 0..80),
            ) {
                arrival_times.sort_unstable();
                let arrivals: Vec<(u64, u32)> =
                    arrival_times.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect();
                let seed = |ex: &mut Executor<u32>| {
                    for (i, &t) in seeded.iter().enumerate() {
                        ex.seed_event(SimTime::from_minutes(t), 1_000 + i as u32);
                    }
                };
                // Reference: arrivals seeded first, then everything else.
                let mut reference = Executor::with_queue(EventQueue::with_reference_heap());
                for &(t, e) in &arrivals {
                    reference.seed_event(SimTime::from_minutes(t), e);
                }
                seed(&mut reference);
                let mut want = Mixed::new(Vec::new());
                let want_stats = reference.run(&mut want);
                for queue in [EventQueue::new(), EventQueue::with_reference_heap()] {
                    let mut ex = Executor::with_queue(queue);
                    seed(&mut ex);
                    let mut got = Mixed::new(arrivals.clone());
                    let stats = ex.run(&mut got);
                    prop_assert_eq!(&got.seen, &want.seen);
                    prop_assert_eq!(stats, want_stats);
                }
            }

            /// Arbitrary seeded schedules are delivered in non-decreasing
            /// time order with FIFO ties, exactly once each.
            #[test]
            fn prop_delivery_order(times in proptest::collection::vec(0u64..10_000, 1..150)) {
                let mut ex = Executor::new();
                for (i, &t) in times.iter().enumerate() {
                    ex.seed_event(SimTime::from_minutes(t), i as u32);
                }
                let mut h = Collect { seen: vec![] };
                let stats = ex.run(&mut h);
                prop_assert_eq!(stats.events_processed, times.len() as u64);
                prop_assert_eq!(h.seen.len(), times.len());
                for w in h.seen.windows(2) {
                    prop_assert!(w[0].0 <= w[1].0, "time order violated");
                    if w[0].0 == w[1].0 {
                        prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
                    }
                }
                let mut delivered: Vec<u32> = h.seen.iter().map(|&(_, e)| e).collect();
                delivered.sort_unstable();
                prop_assert_eq!(delivered, (0..times.len() as u32).collect::<Vec<_>>());
            }
        }
    }

    /// A handler that offers a pre-sorted arrival stream and records
    /// every delivery; an arrival at minute 0 schedules `chain_at`.
    struct Stream {
        arrivals: std::collections::VecDeque<(u64, u32)>,
        seen: Vec<(u64, u32)>,
        chain_at: Option<u64>,
    }

    impl Stream {
        fn new(arrivals: &[(u64, u32)]) -> Self {
            Stream {
                arrivals: arrivals.iter().copied().collect(),
                seen: Vec::new(),
                chain_at: None,
            }
        }
    }

    impl Handler for Stream {
        type Event = u32;

        fn handle(&mut self, now: SimTime, e: u32, s: &mut Scheduler<'_, u32>) {
            self.seen.push((now.as_minutes(), e));
            if let Some(at) = self.chain_at.take() {
                s.schedule_at(SimTime::from_minutes(at), 200);
            }
        }

        fn peek_arrival(&self) -> Option<SimTime> {
            self.arrivals
                .front()
                .map(|&(t, _)| SimTime::from_minutes(t))
        }

        fn pop_arrival(&mut self) -> Option<u32> {
            self.arrivals.pop_front().map(|(_, e)| e)
        }
    }

    #[test]
    fn an_arrival_goes_before_seeded_and_scheduled_events_at_its_minute() {
        let mut ex = Executor::new();
        ex.seed_event(SimTime::from_minutes(5), 100);
        let mut h = Stream::new(&[(0, 1), (5, 2), (5, 3), (7, 4)]);
        h.chain_at = Some(5);
        let stats = ex.run(&mut h);
        assert_eq!(stats.events_processed, 6);
        assert_eq!(
            h.seen,
            vec![(0, 1), (5, 2), (5, 3), (5, 100), (5, 200), (7, 4)]
        );
    }

    #[test]
    fn drained_needs_both_sources_empty() {
        // The queue empties first: the run goes on with the arrivals.
        let mut ex = Executor::new();
        ex.seed_event(SimTime::from_minutes(1), 100);
        let mut h = Stream::new(&[(50, 1), (60, 2)]);
        let stats = ex.run(&mut h);
        assert_eq!(stats.end_time, SimTime::from_minutes(60));
        assert_eq!(h.seen, vec![(1, 100), (50, 1), (60, 2)]);
        // Arrivals alone, nothing ever queued.
        let mut ex = Executor::new();
        let mut h = Stream::new(&[(3, 1)]);
        assert_eq!(ex.run(&mut h).end_time, SimTime::from_minutes(3));
        assert_eq!(h.seen, vec![(3, 1)]);
        // The arrivals run out first: the queue still drains.
        let mut ex = Executor::new();
        ex.seed_event(SimTime::from_minutes(8), 100);
        let mut h = Stream::new(&[(2, 1)]);
        assert_eq!(ex.run(&mut h).end_time, SimTime::from_minutes(8));
        assert_eq!(h.seen, vec![(2, 1), (8, 100)]);
    }
}
