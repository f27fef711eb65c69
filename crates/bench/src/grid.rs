//! The paper's cells as one grid, and its claims as data.
//!
//! A [`Cell`] keys one simulation. [`Grid::run`] runs each distinct cell
//! of a list once, in one [`run_cells`] call, and `grid[cell]` reads its
//! result. A [`Claim`] states one of the paper's qualitative claims once:
//! the cell metrics it reads and the [`Relation`]s they must satisfy.
//! [`Claim::judge`] turns it and a cell lookup into a [`ShapeCheck`].

use std::ops::Index;

use netbatch_core::experiment::ExperimentResult;
use netbatch_core::policy::{InitialKind, StrategyKind};
use netbatch_workload::scenarios::{ScenarioParams, SiteSpec};
use netbatch_workload::trace::Trace;

use crate::presets::Ctx;
use crate::runner::{build_scenario, reduction, run_cells, run_config, Load};

/// The year trace runs at half the table scale.
const YEAR_SCALE_FACTOR: f64 = 0.5;

/// The workload and site a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scenario {
    /// The paper's normal-load week.
    Normal,
    /// The same week with every machine's cores halved.
    High,
    /// The §3.2.1 week with heavier high-priority bursts.
    HighSuspension,
    /// The year trace at half the scale, sampled every minute.
    Year,
}

impl Scenario {
    /// The scenario's site and trace at the table scale.
    pub(crate) fn build(self, scale: f64) -> (SiteSpec, Trace) {
        let params = match self {
            Scenario::Normal => return build_scenario(Load::Normal, scale),
            Scenario::High => return build_scenario(Load::High, scale),
            Scenario::HighSuspension => ScenarioParams::high_suspension_week(scale),
            Scenario::Year => ScenarioParams::year(scale * YEAR_SCALE_FACTOR),
        };
        (params.build_site(), params.generate_trace())
    }
}

/// One simulation: a scenario run with an initial scheduler and a
/// strategy under [`Ctx::config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell(
    pub(crate) Scenario,
    pub(crate) InitialKind,
    pub(crate) StrategyKind,
);

/// The distinct items of a list, in order of first appearance.
pub(crate) fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// The results of a list of cells, read by key: `grid[cell]`.
#[derive(Debug)]
pub(crate) struct Grid {
    cells: Vec<Cell>,
    results: Vec<ExperimentResult>,
}

impl Grid {
    /// Runs each distinct cell once, over scenarios built once each.
    pub(crate) fn run(ctx: &Ctx, cells: impl IntoIterator<Item = Cell>) -> Grid {
        let cells = distinct(cells);
        let scenarios: Vec<_> = distinct(cells.iter().map(|cell| cell.0))
            .into_iter()
            .map(|scenario| (scenario, scenario.build(ctx.scale)))
            .collect();
        let results = run_cells(&cells, |&Cell(scenario, initial, strategy)| {
            let (_, (site, trace)) = scenarios
                .iter()
                .find(|(s, _)| *s == scenario)
                .expect("every cell's scenario is built above");
            let config = ctx.config(initial, strategy);
            if scenario == Scenario::Year {
                run_config(site, trace, &config.with_sampling())
            } else {
                run_config(site, trace, &config)
            }
        });
        Grid { cells, results }
    }

    /// Copies of the results of `cells`, in order.
    pub(crate) fn results(&self, cells: impl IntoIterator<Item = Cell>) -> Vec<ExperimentResult> {
        cells.into_iter().map(|cell| self[cell].clone()).collect()
    }
}

impl Index<Cell> for Grid {
    type Output = ExperimentResult;

    fn index(&self, cell: Cell) -> &ExperimentResult {
        let i = self.cells.iter().position(|c| *c == cell);
        &self.results[i.unwrap_or_else(|| panic!("{cell:?} is not in the grid"))]
    }
}

/// One of the paper's qualitative claims, judged on a run.
#[derive(Debug)]
pub struct ShapeCheck {
    /// The claim.
    pub name: String,
    /// Whether the run reproduced it.
    pub pass: bool,
    /// The measured numbers behind the verdict.
    pub detail: String,
}

/// A number a claim reads off one cell's result.
pub(crate) type Metric = fn(&ExperimentResult) -> f64;

/// One side of a [`Relation`].
#[derive(Clone, Copy)]
pub(crate) enum Value {
    /// A metric of one cell.
    Of(Cell, Metric),
    /// A fixed number.
    Fixed(f64),
}

/// How a claim's values must relate.
#[derive(Clone, Copy)]
pub(crate) enum Relation {
    /// `a < k·b`.
    Below(Value, f64, Value),
    /// `a > k·b`.
    Above(Value, f64, Value),
    /// The [`reduction`] of a metric from the first cell of a pair to the
    /// second is larger over the first pair than over the second.
    CutsMore(Metric, [Cell; 2], [Cell; 2]),
    /// `lo ≤ a ≤ hi`.
    Within(Value, f64, f64),
}

/// One of the paper's claims as data.
pub(crate) struct Claim {
    /// What the claim says.
    pub(crate) text: &'static str,
    /// The paper's figure for the claimed reduction, printed after the
    /// text as `(paper: -X%)`.
    pub(crate) paper: Option<f64>,
    /// The relations, all of which must hold.
    pub(crate) holds: Vec<Relation>,
    /// Words the verdict and the values the relations read, in order:
    /// `a` and `b`, the two reductions, the banded value.
    pub(crate) detail: fn(bool, &[f64]) -> String,
}

impl Claim {
    /// Judges the claim on the results `cell` looks up.
    pub(crate) fn judge<'r>(&self, cell: impl Fn(Cell) -> &'r ExperimentResult) -> ShapeCheck {
        let value = |v| match v {
            Value::Of(c, metric) => metric(cell(c)),
            Value::Fixed(x) => x,
        };
        let mut values = Vec::new();
        let mut pass = true;
        for &relation in &self.holds {
            let read = match relation {
                Relation::Below(a, _, b) | Relation::Above(a, _, b) => vec![value(a), value(b)],
                Relation::CutsMore(metric, a, b) => {
                    let cut =
                        |[from, to]: [Cell; 2]| reduction(metric(cell(from)), metric(cell(to)));
                    vec![cut(a), cut(b)]
                }
                Relation::Within(a, ..) => vec![value(a)],
            };
            pass &= match relation {
                Relation::Below(_, k, _) => read[0] < k * read[1],
                Relation::Above(_, k, _) => read[0] > k * read[1],
                Relation::CutsMore(..) => read[0] > read[1],
                Relation::Within(_, lo, hi) => (lo..=hi).contains(&read[0]),
            };
            values.extend(read);
        }
        let name = match self.paper {
            Some(p) => format!("{} (paper: -{:.0}%)", self.text, p * 100.0),
            None => self.text.to_string(),
        };
        ShapeCheck {
            name,
            pass,
            detail: (self.detail)(pass, &values),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use netbatch_core::simulator::RunCounters;
    use netbatch_metrics::timeseries::TimeSeries;
    use netbatch_metrics::waste::WasteBreakdown;
    use netbatch_sim_engine::time::SimTime;

    use super::*;

    /// A result whose only non-zero metric is AvgCT over all jobs.
    pub(crate) fn synthetic(strategy: StrategyKind, avg_ct_all: f64) -> ExperimentResult {
        ExperimentResult {
            initial: InitialKind::RoundRobin,
            strategy,
            total_jobs: 0,
            suspend_rate: 0.0,
            avg_ct_suspended: 0.0,
            avg_ct_all,
            avg_st: 0.0,
            waste: WasteBreakdown::default(),
            avg_wait_all: 0.0,
            suspension_times: Vec::new(),
            counters: RunCounters::default(),
            end_time: SimTime::ZERO,
            suspended_series: TimeSeries::default(),
            utilization_series: TimeSeries::default(),
            waiting_series: TimeSeries::default(),
            pool_stats: Vec::new(),
        }
    }

    const CT: Metric = |r| r.avg_ct_all;
    const BASE: Cell = Cell(
        Scenario::Normal,
        InitialKind::RoundRobin,
        StrategyKind::NoRes,
    );
    const NEW: Cell = Cell(
        Scenario::Normal,
        InitialKind::RoundRobin,
        StrategyKind::ResSusUtil,
    );
    const OTHER: Cell = Cell(
        Scenario::High,
        InitialKind::RoundRobin,
        StrategyKind::ResSusUtil,
    );

    /// Judges one relation on NoRes at 100 and ResSusUtil at `new`
    /// minutes (normal load) or `other` minutes (high load), returning
    /// the verdict and the values the detail saw.
    fn judge(relation: Relation, new: f64, other: f64) -> (bool, String) {
        let results = [
            synthetic(StrategyKind::NoRes, 100.0),
            synthetic(StrategyKind::ResSusUtil, new),
            synthetic(StrategyKind::ResSusUtil, other),
        ];
        let claim = Claim {
            text: "claim",
            paper: None,
            holds: vec![relation],
            detail: |_, v| format!("{v:?}"),
        };
        let check = claim.judge(|cell| match cell {
            BASE => &results[0],
            NEW => &results[1],
            OTHER => &results[2],
            _ => panic!("{cell:?} was not declared"),
        });
        (check.pass, check.detail)
    }

    #[test]
    fn below_compares_with_a_multiple_of_the_other_value() {
        let relation = Relation::Below(Value::Of(NEW, CT), 0.8, Value::Of(BASE, CT));
        assert_eq!(judge(relation, 79.0, 0.0), (true, "[79.0, 100.0]".into()));
        assert!(!judge(relation, 80.0, 0.0).0, "the bound is strict");
    }

    #[test]
    fn above_compares_with_a_multiple_of_the_other_value() {
        let relation = Relation::Above(Value::Of(NEW, CT), 1.5, Value::Of(BASE, CT));
        assert_eq!(judge(relation, 151.0, 0.0), (true, "[151.0, 100.0]".into()));
        assert!(!judge(relation, 150.0, 0.0).0, "the bound is strict");
        let fixed = Relation::Above(Value::Of(NEW, CT), 1.0, Value::Fixed(50.0));
        assert_eq!(judge(fixed, 60.0, 0.0), (true, "[60.0, 50.0]".into()));
        assert!(!judge(fixed, 40.0, 0.0).0);
    }

    #[test]
    fn cuts_more_compares_two_reductions() {
        let relation = Relation::CutsMore(CT, [BASE, NEW], [BASE, OTHER]);
        assert_eq!(judge(relation, 50.0, 75.0), (true, "[0.5, 0.25]".into()));
        assert!(!judge(relation, 75.0, 75.0).0, "an equal cut is not larger");
        assert!(!judge(relation, 80.0, 75.0).0);
    }

    #[test]
    fn within_is_an_inclusive_band() {
        let relation = Relation::Within(Value::Of(NEW, CT), 20.0, 60.0);
        assert_eq!(judge(relation, 20.0, 0.0), (true, "[20.0]".into()));
        assert!(judge(relation, 60.0, 0.0).0);
        assert!(!judge(relation, 60.5, 0.0).0);
        assert!(!judge(relation, 19.9, 0.0).0);
    }

    #[test]
    fn a_claim_holds_only_when_every_relation_does_and_names_its_anchor() {
        let base = synthetic(StrategyKind::NoRes, 100.0);
        let claim = Claim {
            text: "T: both",
            paper: Some(0.5),
            holds: vec![
                Relation::Below(Value::Of(BASE, CT), 1.0, Value::Fixed(200.0)),
                Relation::Below(Value::Of(BASE, CT), 1.0, Value::Fixed(50.0)),
            ],
            detail: |pass, v| format!("{pass} {}", v.len()),
        };
        let check = claim.judge(|_| &base);
        assert_eq!(check.name, "T: both (paper: -50%)");
        assert!(!check.pass);
        assert_eq!(
            check.detail, "false 4",
            "the detail sees the verdict and every value"
        );
    }

    #[test]
    fn a_grid_runs_each_distinct_cell_once_and_reads_by_key() {
        let ctx = Ctx {
            scale: 0.01,
            ..Ctx::default()
        };
        let grid = Grid::run(&ctx, [BASE, NEW, BASE, NEW]);
        assert_eq!(grid.cells, [BASE, NEW]);
        assert_eq!(grid.results.len(), 2);
        let (site, trace) = Scenario::Normal.build(ctx.scale);
        let direct = run_config(&site, &trace, &ctx.config(NEW.1, NEW.2));
        assert_eq!(grid[NEW], direct);
        assert_eq!(grid[BASE].strategy, StrategyKind::NoRes);
        assert_eq!(grid.results([NEW, BASE]), [direct, grid[BASE].clone()]);
        let missing = std::panic::catch_unwind(|| grid[OTHER].total_jobs);
        assert!(missing.is_err(), "a cell outside the grid has no result");
    }
}
