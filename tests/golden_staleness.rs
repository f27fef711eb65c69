//! Golden fixture for the policy view's refresh rule: staleness cells
//! like those of `repro staleness` (`ResSusUtil` and `ResSusWaitUtil` under
//! round-robin and utilization-based initial placement, with the cluster
//! view aged 0, 10 and 120 minutes) plus one `DupSusUtil` and one
//! `MigrateSusUtil` cell at staleness 0, all at high load and small
//! scale. Each fixture line pins a cell's `RunCounters` and its paper
//! Table row.
//!
//! Every cell depends on *when* the policies' cluster view is refreshed
//! and on which pool mutations it reflects, so any change to the refresh
//! rule (or to the snapshot it serves) shows up as a one-line diff. The
//! duplicate cell settles duplicate races whose loser is still waiting,
//! and the wait-rescheduling cells pull jobs out of wait queues; both are
//! pool mutations a decision at the same instant must observe.
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

/// Runs every cell and returns the fixture text, plus the trace of the
/// duplicate cell (for the coverage check).
fn record() -> (String, String) {
    let params = ScenarioParams::normal_week(SCALE);
    let site = params.build_site().halved();
    let trace = params.generate_trace();
    let mut text = String::new();
    let mut dup_trace = String::new();
    for cell in cells() {
        let mut config = SimConfig::new(cell.initial, cell.strategy);
        config.view_staleness = SimDuration::from_minutes(cell.staleness_min);
        let mut sim = Simulator::new(&site, trace.to_specs(), config);
        let is_dup = cell.strategy == StrategyKind::DupSusUtil;
        if is_dup {
            sim.attach_observer(Box::new(TraceRecorder::in_memory()));
        }
        let mut out = sim.run_to_completion();
        if is_dup {
            dup_trace = out
                .observer::<TraceRecorder>()
                .expect("recorder attached")
                .lines()
                .to_string();
            out.observers.clear();
        }
        let counters = out.counters;
        let result = ExperimentResult::from_output(cell.initial, cell.strategy, out);
        text.push_str(&format!(
            "{} {} staleness {}min | {} | {:?}\n",
            cell.initial.name(),
            cell.strategy.name(),
            cell.staleness_min,
            result.paper_row().join(" | "),
            counters
        ));
    }
    (text, dup_trace)
}

#[test]
fn staleness_cells_match_golden_fixture() {
    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    let (recorded, dup_trace) = record();

    // The fixture must reach the mutation sites it exists to pin.
    assert!(
        dup_trace.lines().any(
            |l| l.contains(r#""ev":"proxy_finish""#) && l.contains(r#""from_phase":"waiting""#)
        ),
        "the duplicate cell settled no race against a waiting loser"
    );
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
