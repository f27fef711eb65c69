//! Helper-thread delivery: the serial kernel hands the events of every
//! observer whose `reads_state()` is false to one helper thread, in
//! batches of `RELAY_BATCH`, while it runs on. This suite pins that the
//! thread an observer runs on changes nothing it renders, and that a
//! panic on either thread ends the run with that panic instead of a hang.
//!
//! Kernel-thread delivery is forced by [`Inline`], an adapter that keeps
//! the trait's default `reads_state() == true`. Each cell runs twice —
//! Telemetry, the span recorder and an in-memory trace recorder attached
//! plainly (helper thread) and through [`Inline`] (kernel thread) — over
//! at least ten batches, and every rendering must be byte-identical:
//!
//! * a normal week sampled every minute;
//! * a DupSusUtil chaos run, whose duplicates are shadow copies;
//! * a ResSusWaitUtil lifecycle run that evacuates draining machines.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use netbatch::core::faults::{FaultModel, LifecycleModel, ResiliencePolicy};
use netbatch::core::observer::{
    InvariantChecker, ObsCtx, ObsEvent, SimObserver, TraceRecorder, RELAY_BATCH,
};
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::provenance::SpanRecorder;
use netbatch::core::simulator::{SimConfig, SimOutput, Simulator};
use netbatch::core::telemetry::Telemetry;
use netbatch::sim_engine::time::{SimDuration, SimTime};
use netbatch::workload::scenarios::ScenarioParams;

/// Keeps the wrapped observer on the kernel thread: it forwards every
/// hook but `reads_state`, whose default is `true`.
#[derive(Debug)]
struct Inline(Box<dyn SimObserver>);

impl SimObserver for Inline {
    fn on_run_start(&mut self, now: SimTime, ctx: &ObsCtx<'_>) {
        self.0.on_run_start(now, ctx);
    }

    fn on_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        self.0.on_event(now, event, ctx);
    }

    fn on_run_end(&mut self, now: SimTime, ctx: &ObsCtx<'_>) {
        self.0.on_run_end(now, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
}

/// Counts delivered events; reads only the event stream.
#[derive(Debug, Default)]
struct Count(u64);

impl SimObserver for Count {
    fn reads_state(&self) -> bool {
        false
    }

    fn on_event(&mut self, _now: SimTime, _event: &ObsEvent, _ctx: &ObsCtx<'_>) {
        self.0 += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Clone, Copy)]
enum Cell {
    SampledWeek,
    DuplicateChaos,
    Lifecycle,
}

/// The cell's simulator, with no observer attached yet.
fn simulator(cell: Cell) -> Simulator {
    let params = ScenarioParams::normal_week(0.02);
    let trace = params.generate_trace();
    let (site, config) = match cell {
        Cell::SampledWeek => (
            params.build_site(),
            SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil).with_sampling(),
        ),
        Cell::DuplicateChaos | Cell::Lifecycle => {
            let strategy = match cell {
                Cell::DuplicateChaos => StrategyKind::DupSusUtil,
                _ => StrategyKind::ResSusWaitUtil,
            };
            let mut config = SimConfig::new(InitialKind::RoundRobin, strategy).with_sampling();
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
            (params.build_site().halved(), config)
        }
    };
    Simulator::new(&site, trace.to_specs(), config)
}

/// Runs `cell` with Telemetry, the span recorder, an in-memory trace
/// recorder and an event counter attached, all forced onto the kernel
/// thread when `inline`.
fn run(cell: Cell, inline: bool) -> SimOutput {
    let mut sim = simulator(cell);
    let observers: [Box<dyn SimObserver>; 4] = [
        Box::new(Telemetry::new("cell", "RoundRobin")),
        Box::new(SpanRecorder::new("cell", "RoundRobin")),
        Box::new(TraceRecorder::in_memory()),
        Box::new(Count::default()),
    ];
    for obs in observers {
        assert!(!obs.reads_state(), "{obs:?} should leave the kernel thread");
        if inline {
            sim.attach_observer(Box::new(Inline(obs)));
        } else {
            sim.attach_observer(obs);
        }
    }
    sim.run_to_completion()
}

/// Every rendering of the run's observers, by name.
fn renderings(out: &SimOutput) -> Vec<(&'static str, String)> {
    let tel = out.observer::<Telemetry>().expect("telemetry attached");
    let spans = out.observer::<SpanRecorder>().expect("spans attached");
    let trace = out.observer::<TraceRecorder>().expect("trace attached");
    vec![
        ("prom", tel.render_prom()),
        ("markdown", tel.render_markdown()),
        ("cdf_csv", tel.cdf_csv()),
        ("timeline_csv", tel.timeline_csv()),
        ("pools_csv", tel.pools_csv()),
        ("spans", spans.render_jsonl()),
        ("trace", trace.lines().to_string()),
    ]
}

fn assert_same_on_either_thread(cell: Cell) -> SimOutput {
    let helper = run(cell, false);
    let kernel = run(cell, true);
    let events = helper.observer::<Count>().expect("counter attached").0;
    assert!(
        events >= 10 * RELAY_BATCH as u64,
        "only {events} events: fewer than ten batches"
    );
    assert_eq!(
        events,
        kernel.observer::<Count>().expect("counter attached").0
    );
    for ((name, a), (_, b)) in renderings(&helper).iter().zip(renderings(&kernel)) {
        assert!(!a.is_empty(), "{name} rendered nothing");
        assert!(*a == b, "{name} differs between helper and kernel thread");
    }
    // Attach order survives the round trip through the helper thread.
    let o = &helper.observers;
    assert_eq!(o.len(), 4);
    assert!(o[0].as_any().is::<Telemetry>() && o[1].as_any().is::<SpanRecorder>());
    assert!(o[2].as_any().is::<TraceRecorder>() && o[3].as_any().is::<Count>());
    helper
}

#[test]
fn sampled_week_renders_the_same_on_either_thread() {
    let out = assert_same_on_either_thread(Cell::SampledWeek);
    let tel = out.observer::<Telemetry>().expect("telemetry attached");
    assert!(tel.samples() > 0);
}

#[test]
fn duplicate_chaos_renders_the_same_on_either_thread() {
    let out = assert_same_on_either_thread(Cell::DuplicateChaos);
    assert!(
        out.counters.duplicates_launched > 0,
        "the run must launch shadows"
    );
}

#[test]
fn lifecycle_evacuations_render_the_same_on_either_thread() {
    let out = assert_same_on_either_thread(Cell::Lifecycle);
    assert!(out.counters.evacuations > 0, "the run must evacuate");
}

/// Runs `build`'s simulator to completion on a fresh thread and returns
/// how it ended, failing the test if it takes longer than a minute
/// (a run that hangs on a dead helper thread never returns).
fn run_bounded(
    build: impl FnOnce() -> Simulator + Send + 'static,
) -> Result<(), Box<dyn Any + Send>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let ended = catch_unwind(AssertUnwindSafe(|| drop(build().run_to_completion())));
        let _ = tx.send(ended);
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the run hung instead of ending")
}

/// The payload an observer panics with.
#[derive(Debug, PartialEq)]
struct Boom(u64);

/// Reads only events and panics with [`Boom`] at its `at`-th one.
#[derive(Debug)]
struct PanicsAt {
    at: u64,
    seen: u64,
}

impl SimObserver for PanicsAt {
    fn reads_state(&self) -> bool {
        false
    }

    fn on_event(&mut self, _now: SimTime, _event: &ObsEvent, _ctx: &ObsCtx<'_>) {
        self.seen += 1;
        if self.seen == self.at {
            std::panic::panic_any(Boom(self.at));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn a_helper_thread_panic_ends_the_run_with_its_payload() {
    let at = 5 * RELAY_BATCH as u64 + 7;
    let kernel_seen = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&kernel_seen);
    let ended = run_bounded(move || {
        let mut sim = simulator(Cell::SampledWeek);
        sim.attach_observer(Box::new(Telemetry::new("cell", "RoundRobin")));
        sim.attach_observer(Box::new(PanicsAt { at, seen: 0 }));
        sim.attach_observer(Box::new(Seen(seen)));
        sim
    });
    let payload = ended.expect_err("the observer's panic must end the run");
    assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(at)));
    // The kernel stops within a few batches of the helper's panic, not
    // at the end of the run (over a million events here).
    let seen = kernel_seen.load(Ordering::Relaxed);
    assert!(
        seen < at + 8 * RELAY_BATCH as u64,
        "the kernel ran on for {seen} events"
    );
}

/// Counts the events delivered on the kernel thread (the default
/// `reads_state`), where the test thread can read the count after a
/// panic.
#[derive(Debug)]
struct Seen(Arc<AtomicU64>);

impl SimObserver for Seen {
    fn on_event(&mut self, _now: SimTime, _event: &ObsEvent, _ctx: &ObsCtx<'_>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An invariant checker fed a stream with one dispatch missing: the job
/// later completes from a phase the checker never saw it enter, a real
/// violation raised on the kernel thread.
#[derive(Debug)]
struct DropsOneDispatch {
    checker: InvariantChecker,
    after: u64,
    seen: u64,
}

impl SimObserver for DropsOneDispatch {
    fn on_run_start(&mut self, now: SimTime, ctx: &ObsCtx<'_>) {
        self.checker.on_run_start(now, ctx);
    }

    fn on_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        self.seen += 1;
        if self.seen > self.after && matches!(event, ObsEvent::Dispatch { .. }) {
            self.after = u64::MAX;
            return;
        }
        self.checker.on_event(now, event, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn a_checker_violation_with_helper_observers_does_not_hang() {
    let ended = run_bounded(|| {
        let mut sim = simulator(Cell::SampledWeek);
        sim.attach_observer(Box::new(Telemetry::new("cell", "RoundRobin")));
        sim.attach_observer(Box::new(DropsOneDispatch {
            checker: InvariantChecker::new(),
            after: 3 * RELAY_BATCH as u64,
            seen: 0,
        }));
        sim.attach_observer(Box::new(SpanRecorder::new("cell", "RoundRobin")));
        sim
    });
    let payload = ended.expect_err("the violation must end the run");
    let message = payload
        .downcast_ref::<String>()
        .expect("the checker panics with a formatted message");
    assert!(
        message.starts_with("invariant violated"),
        "unexpected panic: {message}"
    );
}
