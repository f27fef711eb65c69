//! Machine-lifecycle semantics, end to end through the simulator:
//!
//! 1. a draining machine accepts no new work but lets its residents
//!    finish in place;
//! 2. proactive evacuation moves doomed jobs off a draining machine
//!    *before* the kill deadline — and only when the policy enables it;
//! 3. the lifecycle-off configuration is byte-identical to the baseline
//!    (an inert model that schedules nothing must not perturb a
//!    health-blind run either);
//! 4. (regression) a fault interval starting exactly at the model horizon
//!    is dropped at seeding, never emitting a dangling `machine_down`
//!    that would break the invariant checker's alternation rule;
//! 5. the degradation gate: under a heavy lifecycle tier, health-aware
//!    scheduling with evacuation must evacuate and must not complete jobs
//!    slower than the health-blind baseline — a regression that silently
//!    disables evacuation fails this test (and CI runs it).

use netbatch::cluster::ids::{MachineId, PoolId};
use netbatch::cluster::job::PoolAffinity;
use netbatch::cluster::pool::PoolConfig;
use netbatch::core::experiment::{Experiment, ExperimentResult};
use netbatch::core::faults::{
    FaultModel, LifecycleKind, LifecycleModel, LifecycleWindow, ResiliencePolicy,
};
use netbatch::core::observer::TraceRecorder;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{MachineFailure, SimConfig, SimOutput, Simulator};
use netbatch::sim_engine::time::{SimDuration, SimTime};
use netbatch::workload::scenarios::SiteSpec;
use netbatch::workload::trace::{Trace, TraceRecord};

fn site(pools: u16, machines: u32, cores: u32) -> SiteSpec {
    SiteSpec {
        pools: (0..pools)
            .map(|p| PoolConfig::uniform(PoolId(p), machines, cores, 8192))
            .collect(),
    }
}

fn rec(submit: u64, runtime: u64) -> TraceRecord {
    TraceRecord {
        submit_minute: submit,
        runtime_minutes: runtime,
        cores: 1,
        memory_mb: 512,
        priority: 0,
        affinity: PoolAffinity::Any,
        task: None,
    }
}

fn window(
    pool: u16,
    machine: u32,
    kind: LifecycleKind,
    drain_from: u64,
    down_from: Option<u64>,
    until: u64,
) -> LifecycleWindow {
    LifecycleWindow {
        pool: PoolId(pool),
        machine: MachineId(machine),
        kind,
        drain_from: SimTime::from_minutes(drain_from),
        down_from: down_from.map(SimTime::from_minutes),
        until: SimTime::from_minutes(until),
    }
}

fn run(records: Vec<TraceRecord>, config: SimConfig, site_spec: SiteSpec) -> SimOutput {
    let trace = Trace::from_records(records);
    let mut sim = Simulator::new(&site_spec, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    sim.run_to_completion()
}

fn trace_of(out: &SimOutput) -> String {
    out.observer::<TraceRecorder>()
        .expect("recorder attached")
        .lines()
        .to_string()
}

fn kind_count(out: &SimOutput, kind: &str) -> u64 {
    out.observer::<TraceRecorder>()
        .expect("recorder attached")
        .kind_counts()
        .get(kind)
        .copied()
        .unwrap_or(0)
}

/// Completion minute of the `n`-th `complete` event in the trace.
fn complete_minute(out: &SimOutput, n: usize) -> u64 {
    let lines = trace_of(out);
    let line = lines
        .lines()
        .filter(|l| l.contains("\"ev\":\"complete\""))
        .nth(n)
        .expect("enough complete events");
    line["{\"t\":".len()..]
        .split(',')
        .next()
        .and_then(|s| s.parse().ok())
        .expect("complete line has a timestamp")
}

#[test]
fn draining_machine_accepts_no_new_work_but_residents_finish() {
    // One machine, cordoned [10, 200): the job running since t=0 finishes
    // at 100 in place; a job arriving at t=20 can only dispatch when the
    // cordon lifts at 200.
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    config.drains = vec![window(0, 0, LifecycleKind::Cordoned, 10, None, 200)];
    let out = run(vec![rec(0, 100), rec(20, 10)], config, site(1, 1, 2));
    assert_eq!(out.counters.completed, 2);
    assert_eq!(kind_count(&out, "machine_draining"), 1);
    assert_eq!(kind_count(&out, "machine_undrained"), 1);
    assert_eq!(kind_count(&out, "evacuation"), 0, "cordons never evacuate");
    // Resident finishes in place mid-drain; the newcomer waits it out.
    assert_eq!(complete_minute(&out, 0), 100);
    assert_eq!(complete_minute(&out, 1), 210);
}

#[test]
fn evacuation_moves_doomed_job_before_the_kill() {
    // Pool 0's only machine drains at 10 and dies at 40. The 100-minute
    // job cannot beat the deadline, so with evacuation enabled it is
    // rescheduled at drain start — before the kill — and finishes on
    // pool 1 instead of being failure-evicted at 40.
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    config.resilience = ResiliencePolicy::hardened().with_evacuation();
    config.drains = vec![window(0, 0, LifecycleKind::Maintenance, 10, Some(40), 80)];
    let out = run(vec![rec(0, 100)], config, site(2, 1, 2));
    assert_eq!(out.counters.completed, 1);
    assert_eq!(out.counters.evacuations, 1);
    assert_eq!(kind_count(&out, "evacuation"), 1);
    assert_eq!(
        kind_count(&out, "failure_evict"),
        0,
        "the job must move before the kill, not die in it"
    );
}

#[test]
fn evacuation_requires_the_policy_switch() {
    // Same drain, evacuation off: the job rides the machine into the kill
    // and is failure-evicted there instead.
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    config.resilience = ResiliencePolicy::hardened();
    config.drains = vec![window(0, 0, LifecycleKind::Maintenance, 10, Some(40), 80)];
    let out = run(vec![rec(0, 100)], config, site(2, 1, 2));
    assert_eq!(out.counters.completed, 1);
    assert_eq!(out.counters.evacuations, 0);
    assert_eq!(kind_count(&out, "evacuation"), 0);
    assert_eq!(kind_count(&out, "failure_evict"), 1);
}

#[test]
fn jobs_that_beat_the_deadline_are_left_in_place() {
    // The job completes at 30, before the kill at 40: evacuating it would
    // discard progress for nothing, so it must finish where it is.
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    config.resilience = ResiliencePolicy::hardened().with_evacuation();
    config.drains = vec![window(0, 0, LifecycleKind::Maintenance, 10, Some(40), 80)];
    let out = run(vec![rec(0, 30)], config, site(2, 1, 2));
    assert_eq!(out.counters.completed, 1);
    assert_eq!(out.counters.evacuations, 0);
    assert_eq!(complete_minute(&out, 0), 30);
}

#[test]
fn inert_lifecycle_model_is_byte_identical_when_health_blind() {
    // An inert model schedules no windows but still scores machine health
    // from probes. With health-aware scheduling off, nothing may consult
    // those scores: the trace must be byte-identical to no model at all.
    let records: Vec<TraceRecord> = (0..30).map(|i| rec(i * 7, 40 + i % 11)).collect();
    let base = SimConfig::new(InitialKind::UtilizationBased, StrategyKind::ResSusWaitUtil);
    let mut with_model = base.clone();
    with_model.lifecycle = Some(LifecycleModel::new(SimDuration::from_minutes(3000)));
    let a = run(records.clone(), base, site(3, 2, 2));
    let b = run(records, with_model, site(3, 2, 2));
    assert_eq!(
        trace_of(&a),
        trace_of(&b),
        "an inert lifecycle model perturbed a health-blind run"
    );
}

#[test]
fn outage_starting_at_the_horizon_is_dropped() {
    // Regression: an interval starting exactly at the fault horizon used
    // to seed a dangling `machine_down` with no matching repair —
    // breaking the invariant checker's down/up alternation on the next
    // run and leaving the machine dead forever. The merged plan is
    // clamped, so the event never seeds.
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    // A fault model whose MTBF is far beyond the horizon generates no
    // outages of its own; its horizon (100) is the clamp boundary.
    config.fault_model = Some(FaultModel::new(
        SimDuration::from_minutes(1_000_000_000),
        SimDuration::from_minutes(30),
        SimDuration::from_minutes(100),
    ));
    config.failures = vec![MachineFailure {
        pool: PoolId(0),
        machine: MachineId(0),
        at: SimTime::from_minutes(100),
        down_for: None,
    }];
    let out = run(vec![rec(0, 20)], config, site(1, 1, 2));
    assert_eq!(
        kind_count(&out, "machine_down"),
        0,
        "outage at the horizon must be clamped away, not seeded dangling"
    );
    assert_eq!(out.counters.completed, 1);
}

/// The CI degradation gate: under a heavy lifecycle tier the health-aware
/// configuration must actually evacuate, its evacuation journal must
/// reconcile with the run counters, and its mean completion time must not
/// be worse than the health-blind baseline's.
#[test]
fn health_aware_beats_health_blind_under_heavy_lifecycle() {
    let heavy = |aware: bool| -> (ExperimentResult, u64) {
        let records: Vec<TraceRecord> = (0..160).map(|i| rec(i * 11, 120 + i % 180)).collect();
        let mut config =
            SimConfig::new(InitialKind::UtilizationBased, StrategyKind::ResSusWaitUtil);
        config.seed = 7;
        config.check_invariants = true;
        config.restart_overhead = SimDuration::from_minutes(10);
        // Flaky machines both fail probes (low health) and actually fail
        // (fault model, same flaky fraction over the same substream):
        // health-blind routing keeps feeding them, health-aware avoids
        // them — that correlation is what the paper's health score buys.
        config.fault_model = Some(
            FaultModel::new(
                SimDuration::from_minutes(1500),
                SimDuration::from_minutes(200),
                SimDuration::from_minutes(4000),
            )
            .with_flaky(0.3, 16),
        );
        config.lifecycle = Some(
            LifecycleModel::new(SimDuration::from_minutes(4000))
                .with_drain_lead(SimDuration::from_minutes(120))
                .with_maintenance(
                    SimDuration::from_minutes(600),
                    SimDuration::from_minutes(180),
                )
                .with_rolling(2, 0.5, SimDuration::from_minutes(120))
                .with_cordon(600, SimDuration::from_minutes(800))
                .with_flaky(0.3, 16),
        );
        config.health_aware = aware;
        config.resilience = if aware {
            ResiliencePolicy::hardened().with_evacuation()
        } else {
            ResiliencePolicy::hardened()
        };
        let trace = Trace::from_records(records);
        let site_spec = site(4, 3, 2);
        let mut sim = Simulator::new(&site_spec, trace.to_specs(), config.clone());
        sim.attach_observer(Box::new(TraceRecorder::in_memory()));
        let out = sim.run_to_completion();
        let journal_evacs = kind_count(&out, "evacuation");
        let r = ExperimentResult::from_output(config.initial, config.strategy, out);
        (r, journal_evacs)
    };
    let (aware, aware_journal) = heavy(true);
    let (blind, blind_journal) = heavy(false);
    assert!(
        aware.evacuations() > 0,
        "heavy lifecycle tier produced no evacuations — the proactive path is dead"
    );
    assert_eq!(
        aware.evacuations(),
        aware_journal,
        "evacuation journal does not reconcile with the run counter"
    );
    assert_eq!(blind.evacuations(), 0);
    assert_eq!(blind_journal, 0);
    assert_eq!(aware.total_jobs, blind.total_jobs);
    assert!(
        aware.avg_ct_all <= blind.avg_ct_all,
        "health-aware scheduling degraded mean completion time: {} > {} min",
        aware.avg_ct_all,
        blind.avg_ct_all
    );
}

/// `Experiment::run` carries evacuation counts through to the result —
/// the front door the bench harness and EXPERIMENTS.md tables use.
#[test]
fn experiment_front_door_reports_evacuations() {
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.resilience = ResiliencePolicy::hardened().with_evacuation();
    config.drains = vec![window(0, 0, LifecycleKind::Maintenance, 10, Some(40), 80)];
    let trace = Trace::from_records(vec![rec(0, 100)]);
    let r = Experiment::new(site(2, 1, 2), trace, config).run();
    assert_eq!(r.evacuations(), 1);
    assert_eq!(r.total_jobs, 1);
}
