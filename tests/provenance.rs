//! Provenance integration tests: the [`SpanRecorder`]'s span trees must
//! reconcile with the [`Telemetry`] phase histograms and the
//! event-sourced [`ExperimentResult`] counters computed from the same
//! run — the three observers watch one event stream, so any disagreement
//! is a recording bug, not noise. The causal chains must also carry the
//! decision provenance the trace CLI surfaces: policy decisions with
//! their ranking inputs, fault outage ids, and evacuation windows.

use netbatch::cluster::ids::JobId;
use netbatch::core::experiment::ExperimentResult;
use netbatch::core::faults::{FaultModel, LifecycleModel, ResiliencePolicy};
use netbatch::core::observer::{ObsEvent, SimObserver};
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::provenance::{
    Cause, SpanRecorder, SPAN_BACKOFF, SPAN_MIGRATING, SPAN_QUEUE_WAIT, SPAN_RUNNING,
    SPAN_SUSPENDED,
};
use netbatch::core::simulator::{SimConfig, Simulator};
use netbatch::core::telemetry::{Telemetry, PHASE_QUEUE_WAIT, PHASE_SUSPENDED};
use netbatch::sim_engine::time::SimDuration;
use netbatch::workload::scenarios::ScenarioParams;

const TEST_SCALE: f64 = 0.02;

/// Runs one chaos-heavy cell (faults + lifecycle windows + hardened
/// resilience + proactive evacuation on the halved high-load site) with
/// both the [`Telemetry`] and [`SpanRecorder`] observers attached.
fn run_chaos(strategy: StrategyKind) -> (ExperimentResult, Vec<Box<dyn SimObserver>>) {
    run_chaos_on(strategy, false)
}

fn run_chaos_on(
    strategy: StrategyKind,
    use_reference_queue: bool,
) -> (ExperimentResult, Vec<Box<dyn SimObserver>>) {
    let params = ScenarioParams::normal_week(TEST_SCALE);
    let site = params.build_site().halved();
    let trace = params.generate_trace();
    let initial = InitialKind::RoundRobin;
    let mut config = SimConfig::new(initial, strategy);
    config.telemetry = true;
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
    config.use_reference_queue = use_reference_queue;
    let mut output = Simulator::new(&site, trace.to_specs(), config).run_to_completion();
    let observers = std::mem::take(&mut output.observers);
    let result = ExperimentResult::from_output(initial, strategy, output);
    (result, observers)
}

fn recorder(observers: &[Box<dyn SimObserver>]) -> &SpanRecorder {
    observers
        .iter()
        .find_map(|o| o.as_any().downcast_ref::<SpanRecorder>())
        .expect("span recorder attached via SimConfig")
}

fn telemetry(observers: &[Box<dyn SimObserver>]) -> &Telemetry {
    observers
        .iter()
        .find_map(|o| o.as_any().downcast_ref::<Telemetry>())
        .expect("telemetry attached via SimConfig")
}

#[test]
fn span_trees_are_identical_on_the_reference_heap_queue() {
    // The recorder reads only the event stream, so the two event-queue
    // implementations must yield the same span trees and decision audit.
    let (_, wheel) = run_chaos(StrategyKind::ResSusWaitUtil);
    let (_, heap) = run_chaos_on(StrategyKind::ResSusWaitUtil, true);
    assert!(
        recorder(&wheel).render_jsonl() == recorder(&heap).render_jsonl(),
        "span JSONL diverges between the timer wheel and the reference heap"
    );
}

#[test]
fn every_span_closes_and_the_jsonl_renders() {
    let (r, obs) = run_chaos(StrategyKind::ResSusWaitUtil);
    let rec = recorder(&obs);
    assert!(r.counters.suspensions > 0, "chaos run must suspend");
    assert_eq!(rec.open_count(), 0, "every segment closes by run end");
    let jsonl = rec.render_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(
        lines.len() as u64,
        1 + rec.decisions().len() as u64 + rec.span_count(),
        "header + one line per decision + one line per span"
    );
    for (i, line) in lines.iter().enumerate() {
        netbatch::metrics::json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON: {e}", i + 1));
    }
}

#[test]
fn span_trees_reconcile_with_telemetry_phase_histograms() {
    let (_, obs) = run_chaos(StrategyKind::ResSusWaitUtil);
    let (rec, tel) = (recorder(&obs), telemetry(&obs));
    // Queue-wait and suspended intervals are recorded independently by
    // both observers off the same transitions: counts and total minutes
    // must match exactly (all durations are integral minutes, so the
    // histogram sums are exact).
    let queue = tel.spans().phase(PHASE_QUEUE_WAIT).expect("jobs queued");
    assert_eq!(rec.segment_count(SPAN_QUEUE_WAIT), queue.count());
    assert_eq!(rec.phase_minutes(SPAN_QUEUE_WAIT) as f64, queue.sum());
    let susp = tel.spans().phase(PHASE_SUSPENDED).expect("jobs suspended");
    assert_eq!(rec.segment_count(SPAN_SUSPENDED), susp.count());
    assert_eq!(rec.phase_minutes(SPAN_SUSPENDED) as f64, susp.sum());
}

#[test]
fn segment_counts_reconcile_with_run_counters() {
    let (r, obs) = run_chaos(StrategyKind::ResSusWaitUtil);
    let (rec, tel) = (recorder(&obs), telemetry(&obs));
    let counts = tel.event_counts();
    let get = |kind: &str| counts.get(kind).copied().unwrap_or(0);
    assert_eq!(rec.segment_count(SPAN_SUSPENDED), r.counters.suspensions);
    assert_eq!(rec.segment_count(SPAN_QUEUE_WAIT), get("enqueue"));
    assert_eq!(
        rec.segment_count(SPAN_RUNNING),
        get("dispatch") + get("resume"),
        "one running segment per dispatch or resume"
    );
    assert_eq!(rec.segment_count(SPAN_BACKOFF), get("retry_backoff"));
    let evac_decisions = rec
        .decisions()
        .iter()
        .filter(|(_, ev)| matches!(ev, ObsEvent::EvacAudit { .. }))
        .count() as u64;
    assert_eq!(evac_decisions, r.counters.evacuations);
    assert!(r.counters.failure_evictions > 0, "chaos run must fault");

    // Migrations get their own transit segment, one per move.
    let (rm, obs) = run_chaos(StrategyKind::MigrateSusUtil);
    let rec = recorder(&obs);
    assert!(rm.counters.migrations > 0, "migration run must migrate");
    assert_eq!(rec.segment_count(SPAN_MIGRATING), rm.counters.migrations);
}

#[test]
fn causal_chains_carry_policy_fault_and_evacuation_provenance() {
    let (r, obs) = run_chaos(StrategyKind::ResSusWaitUtil);
    let rec = recorder(&obs);
    assert!(r.counters.evacuations > 0, "chaos run must evacuate");
    let mut saw = (false, false, false); // (policy, fault, evacuation)
    for j in 0..rec.job_count() {
        for seg in rec.segments(JobId(j as u64)) {
            match seg.cause {
                Cause::Policy {
                    candidates, target, ..
                } => {
                    assert!(candidates > 0, "a policy move ranked candidates");
                    assert!(target.is_some(), "a policy-caused segment names a target");
                    saw.0 = true;
                }
                Cause::Fault { outage, .. } => {
                    // The outage id must resolve to a recorded fault
                    // decision with the same id.
                    assert!(
                        rec.decisions().iter().any(|(_, ev)| matches!(
                            ev,
                            ObsEvent::FaultAudit { outage: o, .. } if *o == outage
                        )),
                        "fault cause {outage} has no matching fault decision"
                    );
                    saw.1 = true;
                }
                Cause::Evacuation { .. } => saw.2 = true,
                _ => {}
            }
        }
    }
    assert!(saw.0, "no segment carried a policy cause");
    assert!(saw.1, "no segment carried a fault cause");
    assert!(saw.2, "no segment carried an evacuation cause");
}

#[test]
fn perfetto_export_round_trips_the_chaos_run() {
    use netbatch::core::provenance::{perfetto_from_jsonl, SPAN_PHASES};
    use netbatch::metrics::json::{parse, Value};
    let (_, obs) = run_chaos(StrategyKind::ResSusWaitUtil);
    let rec = recorder(&obs);
    let trace = perfetto_from_jsonl(&rec.render_jsonl()).expect("the recorder's JSONL exports");
    let doc = parse(&trace).expect("the export is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect();
    assert_eq!(spans.len() as u64, rec.span_count(), "one X event per span");
    // Every segment closed, so each phase's events carry exactly its
    // segment count and minutes.
    for phase in SPAN_PHASES {
        let of_phase: Vec<&&Value> = spans
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some(phase))
            .collect();
        let minutes: u64 = of_phase
            .iter()
            .map(|e| e.get("dur").and_then(Value::as_u64).expect("dur"))
            .sum();
        assert_eq!(of_phase.len() as u64, rec.segment_count(phase), "{phase}");
        assert_eq!(minutes, rec.phase_minutes(phase), "{phase}");
    }
    // Event by event, in order, the export carries each span line's job,
    // start, phase, pool track (0 for off-pool phases) and cause.
    let jsonl = rec.render_jsonl();
    let lines = jsonl
        .lines()
        .map(|l| parse(l).expect("valid line"))
        .filter(|l| l.get("kind").and_then(Value::as_str) == Some("span"));
    let mut off_pool = 0;
    for (line, event) in lines.zip(&spans) {
        assert_eq!(line.get("job"), event.get("tid"));
        assert_eq!(line.get("start"), event.get("ts"));
        assert_eq!(line.get("phase"), event.get("name"));
        assert_eq!(
            line.get("cause"),
            event.get("args").and_then(|a| a.get("cause"))
        );
        let pid = event.get("pid").and_then(Value::as_u64).expect("pid");
        match line.get("pool").and_then(Value::as_u64) {
            Some(pool) => assert_eq!(pid, pool + 1),
            None => {
                assert_eq!(pid, 0);
                off_pool += 1;
            }
        }
    }
    assert!(off_pool > 0, "the chaos run backs off at the VPM");
}
