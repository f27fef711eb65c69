//! Golden fixture for the policy view's refresh rule: staleness cells
//! like those of `repro staleness` (`ResSusUtil` and `ResSusWaitUtil` under
//! round-robin and utilization-based initial placement, with the cluster
//! view aged 0, 10 and 120 minutes) plus one `DupSusUtil` and one
//! `MigrateSusUtil` cell at staleness 0, all at high load and small
//! scale. Each fixture line pins a cell's `RunCounters`, its paper Table
//! row, and the FNV-1a digest and line count of its event trace.
//!
//! Every cell depends on *when* the policies' cluster view is refreshed
//! and on which pool mutations it reflects, so any change to the refresh
//! rule (or to the snapshot it serves) shows up as a one-line diff. The
//! duplicate cell settles duplicate races whose loser is still waiting,
//! and the wait-rescheduling cells pull jobs out of wait queues; both are
//! pool mutations a decision at the same instant must observe.
//!
//! The trace digests pin, event by event, the placements no other golden
//! fixture reaches: restarts that queue and restarts that dispatch, a
//! migrating job's arrival at its target, and a duplicate's launch. The
//! test asserts the cells together still exercise all four.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_staleness
//! ```
//!
//! and review the fixture diff like any other code change.

use netbatch::core::experiment::ExperimentResult;
use netbatch::core::observer::TraceRecorder;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{SimConfig, Simulator};
use netbatch::sim_engine::time::SimDuration;
use netbatch::workload::scenarios::ScenarioParams;
use std::collections::{BTreeSet, HashMap};
use std::fs;

/// Small enough for a debug-build test, large enough that high load
/// produces suspensions, wait timeouts and a duplicate race lost by a
/// waiting copy.
const SCALE: f64 = 0.02;

/// Fixture path relative to the crate root.
const GOLDEN_PATH: &str = "tests/golden/staleness_cells.txt";

/// One recorded cell.
struct Cell {
    initial: InitialKind,
    strategy: StrategyKind,
    staleness_min: u64,
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for initial in [InitialKind::RoundRobin, InitialKind::UtilizationBased] {
        for strategy in [StrategyKind::ResSusUtil, StrategyKind::ResSusWaitUtil] {
            for staleness_min in [0, 10, 120] {
                cells.push(Cell {
                    initial,
                    strategy,
                    staleness_min,
                });
            }
        }
    }
    // Utilization-based placement keeps every pool near-equally loaded,
    // so a duplicate occasionally queues at its target and loses the race
    // while still waiting.
    cells.push(Cell {
        initial: InitialKind::UtilizationBased,
        strategy: StrategyKind::DupSusUtil,
        staleness_min: 0,
    });
    cells.push(Cell {
        initial: InitialKind::RoundRobin,
        strategy: StrategyKind::MigrateSusUtil,
        staleness_min: 0,
    });
    cells
}

/// 64-bit FNV-1a over a whole trace document.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The unsigned integer after `"key":` in one JSONL trace line.
fn field(line: &str, key: &str) -> Option<u64> {
    let pat = format!(r#""{key}":"#);
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// How a job reached a pool without a routing decision, as seen in a
/// trace: its placement (`dispatch` or `enqueue`) directly follows a
/// restart, a migration or its own launch as a duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Placement {
    RestartQueued,
    RestartDispatched,
    MigrationArrival,
    DuplicateLaunch,
}

/// Adds the placements `trace` exercises to `seen`.
fn placements(trace: &str, seen: &mut BTreeSet<Placement>) {
    let mut last: HashMap<u64, &str> = HashMap::new();
    for line in trace.lines() {
        let ev = line
            .split(r#""ev":""#)
            .nth(1)
            .and_then(|r| r.split('"').next())
            .expect("every trace line names its event");
        if ev == "duplicate" {
            last.insert(field(line, "clone").expect("clone id"), ev);
            continue;
        }
        let Some(job) = field(line, "job") else {
            continue;
        };
        let prev = last.insert(job, ev);
        let placement = match (prev, ev) {
            (Some("restart_from_suspend" | "restart_from_wait"), "enqueue") => {
                Placement::RestartQueued
            }
            (Some("restart_from_suspend" | "restart_from_wait"), "dispatch") => {
                Placement::RestartDispatched
            }
            (Some("migrate"), "enqueue" | "dispatch") => Placement::MigrationArrival,
            (Some("duplicate"), "enqueue" | "dispatch") => Placement::DuplicateLaunch,
            _ => continue,
        };
        seen.insert(placement);
    }
}

/// Runs every cell and returns the fixture text, the placements the
/// cells' traces exercise, and whether the duplicate cell settled a race
/// against a waiting loser.
fn record() -> (String, BTreeSet<Placement>, bool) {
    let params = ScenarioParams::normal_week(SCALE);
    let site = params.build_site().halved();
    let trace = params.generate_trace();
    let mut text = String::new();
    let mut seen = BTreeSet::new();
    let mut waiting_loser = false;
    for cell in cells() {
        let mut config = SimConfig::new(cell.initial, cell.strategy);
        config.view_staleness = SimDuration::from_minutes(cell.staleness_min);
        let mut sim = Simulator::new(&site, trace.to_specs(), config);
        sim.attach_observer(Box::new(TraceRecorder::in_memory()));
        let mut out = sim.run_to_completion();
        let events = out
            .observer::<TraceRecorder>()
            .expect("recorder attached")
            .lines();
        let digest = fnv1a(events.as_bytes());
        let lines = events.lines().count();
        placements(events, &mut seen);
        if cell.strategy == StrategyKind::DupSusUtil {
            waiting_loser |= events.lines().any(|l| {
                l.contains(r#""ev":"proxy_finish""#) && l.contains(r#""from_phase":"waiting""#)
            });
        }
        out.observers.clear();
        let counters = out.counters;
        let result = ExperimentResult::from_output(cell.initial, cell.strategy, out);
        text.push_str(&format!(
            "{} {} staleness {}min | {} | {:?} | trace fnv1a {digest:016x} lines {lines}\n",
            cell.initial.name(),
            cell.strategy.name(),
            cell.staleness_min,
            result.paper_row().join(" | "),
            counters
        ));
    }
    (text, seen, waiting_loser)
}

#[test]
fn staleness_cells_match_golden_fixture() {
    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    let (recorded, seen, waiting_loser) = record();

    // The fixture must reach the mutation sites it exists to pin.
    assert!(
        waiting_loser,
        "the duplicate cell settled no race against a waiting loser"
    );
    for placement in [
        Placement::RestartQueued,
        Placement::RestartDispatched,
        Placement::MigrationArrival,
        Placement::DuplicateLaunch,
    ] {
        assert!(
            seen.contains(&placement),
            "no cell's trace exercises {placement:?}"
        );
    }
    assert!(
        recorded
            .lines()
            .any(|l| l.contains("ResSusWaitUtil") && !l.contains("restarts_from_wait: 0,")),
        "no wait-rescheduling cell restarted a job from a wait queue"
    );

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &recorded).expect("write golden fixture");
        println!("golden fixture regenerated at {path}");
        return;
    }

    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}\nregenerate with: UPDATE_GOLDEN=1 cargo test --test golden_staleness")
    });
    for (i, (got, want)) in recorded.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "cell {} diverges from the golden fixture", i + 1);
    }
    assert_eq!(
        recorded.lines().count(),
        golden.lines().count(),
        "cell count diverges from the golden fixture"
    );
}
