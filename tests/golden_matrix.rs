//! Backend golden matrix for materialized runs: every committed golden
//! fixture must replay **byte-identically**, with the invariant checker
//! on, whatever [`Backend`] the configuration names.
//!
//! `Backend::Sharded { shards }` sets only the worker count of the
//! streaming kernel; `Simulator::run_to_completion` always runs the
//! serial executor and must ignore it. The matrix pins that contract on
//! the fault-free fast-class cell, the hardened chaos cell and the
//! lifecycle drain cell (on both event-queue backends), so a backend
//! value can never leak into a materialized trace.

use netbatch::core::faults::{FaultModel, LifecycleModel, ResiliencePolicy};
use netbatch::core::observer::TraceRecorder;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{Backend, SimConfig, Simulator};
use netbatch::sim_engine::time::SimDuration;
use netbatch::workload::scenarios::{ScenarioParams, POOL_COUNT};
use std::fs;

/// Same scale as the fixtures were recorded at.
const GOLDEN_SCALE: f64 = 0.002;

/// The shard counts every fixture must replay identically under.
fn shard_matrix() -> [usize; 4] {
    [1, 2, 4, POOL_COUNT as usize]
}

fn read_fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Runs one configured cell with the invariant checker on and a trace
/// recorder attached and returns the JSONL stream.
fn record(mut config: SimConfig) -> String {
    let params = ScenarioParams::normal_week(GOLDEN_SCALE);
    let site = params.build_site();
    let trace = params.generate_trace();
    config.check_invariants = true;
    let mut sim = Simulator::new(&site, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    let out = sim.run_to_completion();
    out.observer::<TraceRecorder>()
        .expect("recorder attached")
        .lines()
        .to_string()
}

fn table1_config(backend: Backend) -> SimConfig {
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.backend = backend;
    config
}

fn chaos_config(backend: Backend) -> SimConfig {
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
    config.fault_model = Some(
        FaultModel::new(
            SimDuration::from_hours(24),
            SimDuration::from_hours(4),
            SimDuration::from_days(7),
        )
        .with_pool_outages(1, SimDuration::from_hours(4))
        .with_flaky(0.05, 16),
    );
    config.resilience = ResiliencePolicy::hardened();
    config.backend = backend;
    config
}

fn lifecycle_config(backend: Backend) -> SimConfig {
    // Must stay in lockstep with tests/golden_lifecycle.rs, which owns
    // the fixture's regeneration.
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
    config.lifecycle =
        Some(LifecycleModel::standard(SimDuration::from_days(7)).with_flaky(0.05, 16));
    config.resilience = ResiliencePolicy::hardened().with_evacuation();
    config.health_aware = true;
    config.backend = backend;
    config
}

/// Asserts `got` equals the fixture, reporting the first diverging line
/// rather than dumping two multi-thousand-line streams.
fn assert_matches(golden: &str, got: &str, label: &str) {
    if got == golden {
        return;
    }
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "[{label}] trace diverges from fixture at line {}",
            i + 1
        );
    }
    panic!(
        "[{label}] trace length diverges: {} vs {} fixture lines",
        got.lines().count(),
        golden.lines().count()
    );
}

#[test]
fn table1_fixture_is_shard_count_invariant() {
    let golden = read_fixture("table1_nores_rr.jsonl");
    assert_matches(&golden, &record(table1_config(Backend::Serial)), "serial");
    for shards in shard_matrix() {
        let got = record(table1_config(Backend::Sharded { shards }));
        assert_matches(&golden, &got, &format!("materialized, sharded x{shards}"));
    }
}

#[test]
fn chaos_fixture_is_shard_count_invariant() {
    let golden = read_fixture("chaos_hardened_rswu.jsonl");
    assert_matches(&golden, &record(chaos_config(Backend::Serial)), "serial");
    for shards in shard_matrix() {
        let got = record(chaos_config(Backend::Sharded { shards }));
        assert_matches(&golden, &got, &format!("materialized, sharded x{shards}"));
    }
}

#[test]
fn lifecycle_fixture_is_shard_count_invariant() {
    // Machines drain, die, evacuate and re-open mid-run; the backend
    // value must stay unobservable throughout.
    let golden = read_fixture("lifecycle_drain_rswu.jsonl");
    assert_matches(
        &golden,
        &record(lifecycle_config(Backend::Serial)),
        "serial",
    );
    for shards in shard_matrix() {
        let got = record(lifecycle_config(Backend::Sharded { shards }));
        assert_matches(
            &golden,
            &got,
            &format!("lifecycle materialized, sharded x{shards}"),
        );
    }
}

#[test]
fn lifecycle_fixture_on_reference_heap_queue_is_backend_invariant() {
    // The queue axis composes with the backend axis under lifecycle
    // churn too: same fixture on the reference binary-heap queue, with
    // either backend value.
    let golden = read_fixture("lifecycle_drain_rswu.jsonl");
    for (backend, label) in [
        (Backend::Serial, "serial on reference heap"),
        (
            Backend::Sharded { shards: 4 },
            "materialized, sharded x4 on reference heap",
        ),
    ] {
        let mut config = lifecycle_config(backend);
        config.use_reference_queue = true;
        assert_matches(&golden, &record(config), label);
    }
}
