//! Golden-trace conformance for a *lifecycle* run: one fixed cell —
//! ResSusWaitUtil with health-aware scheduling, the hardened+evacuation
//! resilience policy and the standard machine-lifecycle model (scheduled
//! maintenance drains, one rolling-update wave, health cordons) — must
//! replay **byte-identically** against the committed fixture. This pins
//! the lifecycle plan (drain/kill/restore schedule), the evacuation
//! victim selection and ordering, and the health-weighted pool choices:
//! any drift in the drain/evacuation path shows up as a one-line diff.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_lifecycle
//! ```
//!
//! and review the fixture diff like any other code change.

use netbatch::core::faults::{LifecycleModel, ResiliencePolicy};
use netbatch::core::observer::TraceRecorder;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{SimConfig, Simulator};
use netbatch::sim_engine::time::SimDuration;
use netbatch::workload::scenarios::ScenarioParams;
use std::fs;

/// Same scale as the other golden cells: reviewable but non-trivial.
const GOLDEN_SCALE: f64 = 0.002;

/// Fixture path relative to the crate root.
const GOLDEN_PATH: &str = "tests/golden/lifecycle_drain_rswu.jsonl";

/// The recorded cell, replayed on both event queues below.
fn lifecycle_config() -> SimConfig {
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
    config.check_invariants = true;
    config.lifecycle =
        Some(LifecycleModel::standard(SimDuration::from_days(7)).with_flaky(0.05, 16));
    config.resilience = ResiliencePolicy::hardened().with_evacuation();
    config.health_aware = true;
    config
}

fn record_lifecycle_drain_rswu_on(use_reference_queue: bool) -> String {
    let params = ScenarioParams::normal_week(GOLDEN_SCALE);
    let site = params.build_site();
    let trace = params.generate_trace();
    let mut config = lifecycle_config();
    config.use_reference_queue = use_reference_queue;
    let mut sim = Simulator::new(&site, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    let out = sim.run_to_completion();
    out.observer::<TraceRecorder>()
        .expect("recorder attached")
        .lines()
        .to_string()
}

#[test]
fn lifecycle_drain_rswu_reference_heap_queue_matches_fixture() {
    // Drain windows cluster kill/restore/drain-end events on the same
    // minute; replay on the reference binary-heap queue and require the
    // same byte-identical stream.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // the sibling test owns regeneration
    }
    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}\nregenerate with: UPDATE_GOLDEN=1 cargo test --test golden_lifecycle")
    });
    let on_heap = record_lifecycle_drain_rswu_on(true);
    assert!(
        on_heap == golden,
        "reference-heap backend diverges from the lifecycle golden fixture — \
         the two event-queue implementations are no longer equivalent"
    );
}

#[test]
fn lifecycle_drain_rswu_trace_matches_golden_fixture() {
    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    let recorded = record_lifecycle_drain_rswu_on(false);

    // The fixture must actually exercise the lifecycle path, or it pins
    // nothing new over the chaos golden cell.
    for kind in [
        "machine_draining",
        "machine_undrained",
        "machine_down",
        "machine_up",
        "evacuation",
    ] {
        assert!(
            recorded.contains(&format!("\"ev\":\"{kind}\"")),
            "fixture run produced no `{kind}` events — lifecycle model too mild"
        );
    }

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &recorded).expect("write golden fixture");
        println!("golden fixture regenerated at {path}");
        return;
    }

    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}\nregenerate with: UPDATE_GOLDEN=1 cargo test --test golden_lifecycle")
    });

    if recorded != golden {
        for (i, (got, want)) in recorded.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "trace diverges from golden fixture at line {}",
                i + 1
            );
        }
        panic!(
            "trace length diverges from golden fixture: {} vs {} lines",
            recorded.lines().count(),
            golden.lines().count(),
        );
    }
}
