//! Every `repro` preset, run in-process at scale 0.01 under the online
//! invariant checker. The checker panics with event history on the
//! first violated invariant, so each test fails on any simulator bug its
//! preset's configurations reach: faults, lifecycle churn, VPM
//! topologies, migration, duplication, stale views and the paper cells.

use std::path::PathBuf;

use netbatch_bench::presets::{self, Ctx, PRESETS};

fn ctx(test: &str) -> Ctx {
    Ctx {
        scale: 0.01,
        check_invariants: true,
        markdown: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
    }
}

fn run(name: &str) -> Vec<presets::ShapeCheck> {
    let preset = presets::find(name).unwrap_or_else(|| panic!("no preset `{name}`"));
    preset(&ctx(name)).unwrap_or_else(|e| panic!("preset {name} failed: {e}"))
}

macro_rules! preset_tests {
    ($($test:ident => $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                run($name);
            }
        )*
        const TESTED: &[&str] = &[$($name),*];
    };
}

preset_tests! {
    table1 => "table1",
    table2 => "table2",
    table2b => "table2b",
    table3 => "table3",
    table4 => "table4",
    table5 => "table5",
    fig2 => "fig2",
    fig3 => "fig3",
    staleness => "staleness",
    overhead => "overhead",
    max_restarts => "max-restarts",
    queue_policy => "queue-policy",
    smart_policy => "smart-policy",
    alternatives => "alternatives",
    intersite => "intersite",
    failures => "failures",
    lifecycle => "lifecycle",
    calibrate => "calibrate",
}

#[test]
fn every_preset_has_a_test() {
    let mut tested: Vec<&str> = TESTED.iter().copied().chain(["all", "fig4"]).collect();
    let mut registered: Vec<&str> = PRESETS.iter().map(|(name, _)| *name).collect();
    tested.sort_unstable();
    registered.sort_unstable();
    assert_eq!(tested, registered);
}

#[test]
fn all_judges_the_seventeen_shape_checks() {
    // Shape checks are calibrated for scale >= 0.1, so at this scale
    // several fail. Verdicts, names and details are pinned line for line
    // anyway, rendered as `repro` prints them: the fixture holds the 17
    // lines of `repro --scale 0.01`.
    let lines: Vec<String> = run("all")
        .iter()
        .map(|c| {
            let verdict = if c.pass { "PASS" } else { "FAIL" };
            format!("[{verdict}] {} — {}", c.name, c.detail)
        })
        .collect();
    assert_eq!(lines.len(), 17);
    let golden = include_str!("golden/repro_shape_checks.txt");
    assert_eq!(lines, golden.lines().collect::<Vec<_>>());
}

#[test]
fn fig4_writes_its_csv_and_reports_unwritable_paths() {
    let ctx = ctx("fig4");
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    assert!(presets::fig4(&ctx).unwrap().is_empty());
    let csv = std::fs::read_to_string(ctx.out_dir.join("fig4_timeline.csv")).unwrap();
    assert!(csv.starts_with("minute,suspended_jobs,utilization_pct\n"));
    assert!(csv.lines().count() > 100);

    // An output "directory" that is a file cannot hold the CSV.
    let blocked = Ctx {
        out_dir: ctx.out_dir.join("fig4_timeline.csv"),
        ..ctx
    };
    let err = presets::fig4(&blocked).unwrap_err();
    assert!(err.contains("fig4_timeline.csv"), "{err}");
}
