//! Shared experiment-running machinery for `repro`'s presets.
//!
//! Every preset does the same thing: build a scenario, run one experiment
//! per configuration (in parallel — runs are independent), and print
//! measured rows, interleaved with the paper's published rows where the
//! paper has them. The scale factor (default 0.1 = a 10% replica of the
//! paper's site and arrival rates, which preserves utilization and policy
//! behaviour; use 1.0 for the full 20x-larger runs) comes from `repro
//! --scale`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use netbatch_core::experiment::{ExperimentResult, PAPER_TABLE_HEADER};
use netbatch_core::policy::StrategyKind;
use netbatch_core::simulator::{SimConfig, Simulator};
use netbatch_metrics::table::{fmt_minutes, fmt_percent, Table};
use netbatch_workload::scenarios::{ScenarioParams, SiteSpec};
use netbatch_workload::trace::Trace;

use crate::paper::PaperRow;

/// Scale when `repro` gets no `--scale`.
pub const DEFAULT_SCALE: f64 = 0.1;

/// Which load regime a table runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// The paper's normal-load week.
    Normal,
    /// The paper's high-load transform: every machine's cores halved.
    High,
}

/// Builds the (site, trace) pair for a load regime at the given scale.
pub fn build_scenario(load: Load, scale: f64) -> (SiteSpec, Trace) {
    let params = ScenarioParams::normal_week(scale);
    let site = match load {
        Load::Normal => params.build_site(),
        Load::High => params.build_site().halved(),
    };
    (site, params.generate_trace())
}

/// Applies `cell` to every item on scoped worker threads and returns the
/// results in input order.
///
/// At most `available_parallelism` cells run at once, each worker taking
/// the next unclaimed item, so a long sweep never holds more simulations
/// in memory than there are cores. A panicking cell (for example an
/// invariant violation) re-raises its panic on the calling thread.
pub fn run_cells<T: Sync, R: Send>(items: &[T], cell: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The counter only hands out indices; results
                        // reach the caller through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, cell(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect()
}

/// Runs one experiment: `config` over the scenario.
pub(crate) fn run_config(site: &SiteSpec, trace: &Trace, config: &SimConfig) -> ExperimentResult {
    let output = Simulator::new(site, trace.to_specs(), config.clone()).run_to_completion();
    ExperimentResult::from_output(config.initial, config.strategy, output)
}

/// Runs one experiment per config over the same scenario, in parallel
/// (see [`run_cells`]), returning results in config order.
pub fn run_configs(site: &SiteSpec, trace: &Trace, configs: &[SimConfig]) -> Vec<ExperimentResult> {
    run_cells(configs, |config| run_config(site, trace, config))
}

/// The measured-vs-paper table: each measured row followed by the
/// paper's published row for its strategy, if it has one, labelled by
/// `paper_label` from the strategy's name.
fn comparison_table(
    results: &[ExperimentResult],
    paper: &[PaperRow],
    paper_label: fn(&str) -> String,
) -> Table {
    let mut table = Table::new(PAPER_TABLE_HEADER);
    for r in results {
        table.row(r.paper_row());
        if let Some(p) = paper.iter().find(|p| p.strategy == r.strategy) {
            table.row([
                paper_label(p.strategy.name()),
                fmt_percent(p.suspend_rate),
                fmt_minutes(p.avg_ct_suspended),
                fmt_minutes(p.avg_ct_all),
                fmt_minutes(p.avg_st),
                fmt_minutes(p.avg_wct),
            ]);
        }
    }
    table
}

/// Prints a measured-vs-paper comparison table.
///
/// For each strategy the measured row is followed by the paper's published
/// row (marked `(paper)`), so factors and orderings are visible at a
/// glance.
pub fn print_comparison(title: &str, results: &[ExperimentResult], paper: &[PaperRow]) {
    println!("\n== {title} ==");
    print!(
        "{}",
        comparison_table(results, paper, |name| format!("  {name} (paper)"))
    );
}

/// Prints the reduction-vs-baseline summary the paper quotes in prose
/// (AvgCT over suspended jobs and AvgWCT, relative to the first result,
/// which must be the NoRes baseline).
pub fn print_reductions(results: &[ExperimentResult]) {
    let Some(baseline) = results.first() else {
        return;
    };
    assert_eq!(
        baseline.strategy,
        StrategyKind::NoRes,
        "reductions are computed against the NoRes baseline"
    );
    for r in &results[1..] {
        let ct = reduction(baseline.avg_ct_suspended, r.avg_ct_suspended);
        let wct = reduction(baseline.avg_wct(), r.avg_wct());
        let ct_all = reduction(baseline.avg_ct_all, r.avg_ct_all);
        println!(
            "{:<16} AvgCT(susp) {:+.0}% | AvgCT(all) {:+.0}% | AvgWCT {:+.0}% vs NoRes",
            r.strategy.name(),
            -ct * 100.0,
            -ct_all * 100.0,
            -wct * 100.0,
        );
    }
}

/// Relative reduction from `from` to `to` (positive = improvement).
pub fn reduction(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (from - to) / from
    }
}

/// Markdown rendering of a comparison, appended to stdout for
/// EXPERIMENTS.md.
pub fn markdown_comparison(results: &[ExperimentResult], paper: &[PaperRow]) -> String {
    comparison_table(results, paper, |name| format!("*{name} (paper)*")).render_markdown()
}

#[cfg(test)]
mod tests {
    use netbatch_core::experiment::Experiment;
    use netbatch_core::policy::InitialKind;
    use netbatch_sim_engine::time::SimDuration;

    use super::*;

    #[test]
    fn scenario_builds_at_small_scale() {
        let (site, trace) = build_scenario(Load::Normal, 0.01);
        assert_eq!(site.pools.len(), 20);
        assert!(trace.len() > 100);
        let (high_site, _) = build_scenario(Load::High, 0.01);
        assert!(high_site.total_cores() < site.total_cores());
    }

    #[test]
    fn parallel_runs_match_serial_runs() {
        let (site, trace) = build_scenario(Load::High, 0.01);
        let mut configs = vec![
            SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes),
            SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil),
        ];
        let mut stale = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
        stale.view_staleness = SimDuration::from_minutes(120);
        let mut overhead =
            SimConfig::new(InitialKind::UtilizationBased, StrategyKind::ResSusWaitRand);
        overhead.restart_overhead = SimDuration::from_minutes(30);
        let mut checked = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
        checked.check_invariants = true;
        configs.extend([stale, overhead, checked]);

        let parallel = run_configs(&site, &trace, &configs);
        assert_eq!(parallel.len(), configs.len());
        for (r, config) in parallel.iter().zip(&configs) {
            let serial = Experiment::new(site.clone(), trace.clone(), config.clone()).run();
            assert_eq!(r.strategy, config.strategy, "results stay in input order");
            assert_eq!(r.suspend_rate, serial.suspend_rate);
            assert_eq!(r.avg_ct_all, serial.avg_ct_all);
            assert_eq!(r.avg_wct(), serial.avg_wct());
            assert_eq!(
                r.counters.restarts_from_wait,
                serial.counters.restarts_from_wait
            );
        }
        // A non-default knob must actually reach its cell, and the
        // invariant checker, being read-only, must change nothing.
        let no_overhead = SimConfig {
            restart_overhead: SimDuration::ZERO,
            ..configs[3].clone()
        };
        let no_overhead = Experiment::new(site, trace, no_overhead).run();
        assert!(parallel[3].avg_wct() > no_overhead.avg_wct());
        assert_eq!(parallel[4].avg_ct_all, parallel[1].avg_ct_all);
    }

    #[test]
    fn cells_keep_input_order_and_propagate_panics() {
        let items: Vec<u64> = (0..17).collect();
        assert_eq!(
            run_cells(&items, |&i| i * i),
            items.iter().map(|i| i * i).collect::<Vec<_>>()
        );
        assert!(run_cells(&[] as &[u64], |&i| i).is_empty());
        let panicked = std::panic::catch_unwind(|| {
            run_cells(&items, |&i| assert_ne!(i, 5, "cell five fails"));
        });
        assert!(panicked.is_err());
    }

    #[test]
    fn reduction_math() {
        assert!((reduction(100.0, 50.0) - 0.5).abs() < 1e-12);
        assert!((reduction(100.0, 125.0) + 0.25).abs() < 1e-12);
        assert_eq!(reduction(0.0, 10.0), 0.0);
    }

    #[test]
    fn markdown_contains_paper_rows() {
        let (site, trace) = build_scenario(Load::Normal, 0.01);
        let config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
        let results = run_configs(&site, &trace, &[config]);
        let md = markdown_comparison(&results, &crate::paper::TABLE_1);
        assert!(md.contains("NoRes (paper)"));
        assert!(md.contains("2498.7"));
    }
}
