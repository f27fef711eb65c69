//! `repro`'s presets: one function per paper table and figure, per
//! ablation sweep and for the calibration run.
//!
//! Every preset builds its scenarios from [`Ctx::scale`], runs its cells
//! as a grid (`grid.rs`) or through [`run_configs`] (or [`run_cells`]
//! where a cell needs more than an [`ExperimentResult`]) and prints its
//! rows. Configs come from [`Ctx::config`], so `--check-invariants`
//! reaches every cell of every preset. [`all`] is the full reproduction:
//! one grid of every distinct table and figure cell, the sections read
//! from it, then the shape checks (`paper_claims`), which it returns for
//! the caller to gate on.

use std::fmt::Write as _;
use std::path::PathBuf;

use netbatch_cluster::ids::PoolId;
use netbatch_cluster::job::JobRecord;
use netbatch_core::experiment::ExperimentResult;
use netbatch_core::faults::{
    FaultModel, FaultPlan, LifecycleModel, MachineOutage, ResiliencePolicy,
};
use netbatch_core::policy::{InitialKind, ResSusWaitSmart, SmartWeights, StrategyKind};
use netbatch_core::simulator::{MigrationParams, SimConfig, Simulator, VpmTopology};
use netbatch_metrics::table::Table;
use netbatch_sim_engine::rng::DetRng;
use netbatch_sim_engine::time::{SimDuration, SimTime};
use netbatch_workload::analysis::TraceAnalysis;
use netbatch_workload::scenarios::YEAR_MINUTES;

pub use crate::grid::ShapeCheck;
use crate::grid::{Cell, Claim, Grid, Metric, Relation, Scenario, Value};
use crate::paper::{
    claims, figure2, figure3, figure4, high_suspension, PaperRow, TABLE_1, TABLE_2, TABLE_3,
    TABLE_4, TABLE_5,
};
use crate::runner::{
    markdown_comparison, print_comparison, print_reductions, reduction, run_cells, run_configs,
    DEFAULT_SCALE,
};

/// What every preset reads: the `repro` command line, plus where file
/// artifacts go.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctx {
    /// Site and arrival-rate scale (`--scale`; 1.0 = the paper's full
    /// 248k-job week). The year-long figure runs use half of it.
    pub scale: f64,
    /// Run every cell under the online invariant checker, which panics
    /// with event history on the first violation (`--check-invariants`).
    pub check_invariants: bool,
    /// Print the paper tables as EXPERIMENTS.md markdown (`--markdown`).
    pub markdown: bool,
    /// Directory that receives file artifacts (Figure 4's CSV).
    pub out_dir: PathBuf,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            scale: DEFAULT_SCALE,
            check_invariants: false,
            markdown: false,
            out_dir: PathBuf::from("target"),
        }
    }
}

impl Ctx {
    /// A default cell config, under the invariant checker if requested.
    /// Presets build every config from this one.
    pub fn config(&self, initial: InitialKind, strategy: StrategyKind) -> SimConfig {
        let mut config = SimConfig::new(initial, strategy);
        config.check_invariants = self.check_invariants;
        config
    }

    /// Runs default cells, one per strategy, with the round-robin initial
    /// scheduler on one scenario.
    fn run_strategies(
        &self,
        scenario: Scenario,
        strategies: &[StrategyKind],
    ) -> Vec<ExperimentResult> {
        let cells = strategies
            .iter()
            .map(|&s| Cell(scenario, InitialKind::RoundRobin, s));
        Grid::run(self, cells.clone()).results(cells)
    }
}

/// A preset: prints its section and returns the shape checks it judged
/// (only [`all`] judges any). `Err` carries a message for the user, e.g.
/// an artifact that could not be written.
pub type Preset = fn(&Ctx) -> Result<Vec<ShapeCheck>, String>;

/// Every preset, by the name `repro` accepts, in the order the docs list
/// them.
pub const PRESETS: [(&str, Preset); 20] = [
    ("all", all),
    ("table1", |ctx| table(ctx, &TABLES[0])),
    ("table2", |ctx| table(ctx, &TABLES[1])),
    ("table2b", table2b),
    ("table3", |ctx| table(ctx, &TABLES[2])),
    ("table4", |ctx| table(ctx, &TABLES[3])),
    ("table5", |ctx| table(ctx, &TABLES[4])),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("staleness", staleness),
    ("overhead", overhead),
    ("max-restarts", max_restarts),
    ("queue-policy", queue_policy),
    ("smart-policy", smart_policy),
    ("alternatives", alternatives),
    ("intersite", intersite),
    ("failures", failures),
    ("lifecycle", lifecycle),
    ("calibrate", calibrate),
];

/// Looks a preset up by name.
pub fn find(name: &str) -> Option<Preset> {
    PRESETS.iter().find(|(n, _)| *n == name).map(|&(_, p)| p)
}

// ---------------------------------------------------------------------
// Tables 1-5 and the high-suspension scenario
// ---------------------------------------------------------------------

/// One of the paper's five strategy tables.
struct PaperTable {
    name: &'static str,
    setting: &'static str,
    scenario: Scenario,
    initial: InitialKind,
    paper: &'static [PaperRow; 3],
}

impl PaperTable {
    /// One cell per strategy the paper's table reports, in its order.
    fn cells(&self) -> [Cell; 3] {
        self.paper
            .map(|row| Cell(self.scenario, self.initial, row.strategy))
    }
}

/// The paper's Tables 1-5, which the `table1`..`table5` presets print.
const TABLES: [PaperTable; 5] = [
    PaperTable {
        name: "Table 1",
        setting: "normal load, round-robin initial",
        scenario: Scenario::Normal,
        initial: InitialKind::RoundRobin,
        paper: &TABLE_1,
    },
    PaperTable {
        name: "Table 2",
        setting: "high load, round-robin initial",
        scenario: Scenario::High,
        initial: InitialKind::RoundRobin,
        paper: &TABLE_2,
    },
    PaperTable {
        name: "Table 3",
        setting: "high load, utilization-based initial",
        scenario: Scenario::High,
        initial: InitialKind::UtilizationBased,
        paper: &TABLE_3,
    },
    PaperTable {
        name: "Table 4",
        setting: "wait rescheduling, round-robin initial",
        scenario: Scenario::High,
        initial: InitialKind::RoundRobin,
        paper: &TABLE_4,
    },
    PaperTable {
        name: "Table 5",
        setting: "wait rescheduling, utilization-based initial",
        scenario: Scenario::High,
        initial: InitialKind::UtilizationBased,
        paper: &TABLE_5,
    },
];

/// Prints one paper table from its cells in `grid`.
fn print_table(t: &PaperTable, grid: &Grid) {
    let results = grid.results(t.cells());
    print_comparison(&format!("{}: {}", t.name, t.setting), &results, t.paper);
    print_reductions(&results);
    if t.cells().map(|cell| cell.2) == StrategyKind::PAPER_WITH_WAIT {
        // The §3.3 caveat: the random scheme's simplicity costs restarts.
        for r in &results {
            println!(
                "{:<16} restarts: {} from suspension, {} from wait queues",
                r.strategy.name(),
                r.counters.restarts_from_suspend,
                r.counters.restarts_from_wait
            );
        }
    }
}

fn table_markdown(t: &PaperTable, grid: &Grid) -> String {
    format!(
        "\n### {} ({})\n\n{}",
        t.name,
        t.setting,
        markdown_comparison(&grid.results(t.cells()), t.paper)
    )
}

fn table(ctx: &Ctx, t: &PaperTable) -> Result<Vec<ShapeCheck>, String> {
    let grid = Grid::run(ctx, t.cells());
    print_table(t, &grid);
    if ctx.markdown {
        println!(
            "\n---- markdown for EXPERIMENTS.md ----{}",
            table_markdown(t, &grid)
        );
    }
    Ok(Vec::new())
}

/// The §3.2.1 cells: the suspend-only strategies, round-robin initial,
/// on the high-suspension week.
fn high_suspension_cells() -> [Cell; 3] {
    StrategyKind::PAPER_SUSPEND_ONLY
        .map(|strategy| Cell(Scenario::HighSuspension, InitialKind::RoundRobin, strategy))
}

fn high_suspension_section(grid: &Grid) {
    let results = grid.results(high_suspension_cells());
    print_comparison("High-suspension scenario (§3.2.1)", &results, &[]);
    print_reductions(&results);
    println!(
        "\npaper claims at 14% suspend rate: AvgCT(all) -{:.0}%, AvgCT(susp) -{:.0}%",
        high_suspension::CT_ALL_REDUCTION * 100.0,
        high_suspension::CT_SUSPENDED_REDUCTION * 100.0
    );
    println!(
        "measured (ResSusUtil):            AvgCT(all) {:+.0}%, AvgCT(susp) {:+.0}%",
        -reduction(results[0].avg_ct_all, results[1].avg_ct_all) * 100.0,
        -reduction(results[0].avg_ct_suspended, results[1].avg_ct_suspended) * 100.0
    );
}

/// The §3.2.1 high-suspension scenario: a trace engineered for a much
/// higher suspend rate (paper: ResSusUtil cuts AvgCT by 7% over all jobs
/// and 44% over suspended jobs).
pub fn table2b(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    high_suspension_section(&Grid::run(ctx, high_suspension_cells()));
    Ok(Vec::new())
}

// ---------------------------------------------------------------------
// Figures 2-4
// ---------------------------------------------------------------------

/// The production configuration (NoRes, round-robin initial) over the
/// year trace, sampled every minute: the run behind Figures 2 and 4.
const YEAR: Cell = Cell(Scenario::Year, InitialKind::RoundRobin, StrategyKind::NoRes);

/// Figure 4's aggregation interval.
const BUCKET: SimDuration = SimDuration::from_minutes(100);

// Figure 2's statistics: median and mean suspension time (minutes) and
// the fraction of suspended jobs above the paper's tail threshold.
const MEDIAN_SUSPENSION: Metric = |year| year.suspension_cdf().median().unwrap_or(0.0);
const MEAN_SUSPENSION: Metric = |year| year.suspension_cdf().mean();
const SUSPENSION_TAIL: Metric = |year| 1.0 - year.suspension_cdf().at(figure2::TAIL_THRESHOLD_MIN);

/// Utilization samples (%) of the submission year. Figure 4 covers that
/// year; the post-horizon drain, where heavy-tail jobs finish on an
/// otherwise empty site, is left out.
fn year_utilization(year: &ExperimentResult) -> Vec<f64> {
    year.utilization_series
        .samples()
        .iter()
        .filter(|&&(t, _)| t.as_minutes() < YEAR_MINUTES)
        .map(|&(_, u)| u)
        .collect()
}

/// Mean utilization (%) of the submission year, Figure 4.
fn mean_utilization(year: &ExperimentResult) -> f64 {
    let in_horizon = year_utilization(year);
    in_horizon.iter().sum::<f64>() / in_horizon.len().max(1) as f64
}

fn fig2_section(year: &ExperimentResult) {
    let cdf = year.suspension_cdf();
    println!("\n== Figure 2: suspension-time distribution (year trace) ==");
    println!("suspension-time CDF (x = minutes, y = % of suspended jobs ≤ x):");
    for (x, pct) in cdf.log_series(2) {
        let bar = "#".repeat((pct / 2.0).round() as usize);
        println!("{x:>10.0}  {pct:>5.1}%  {bar}");
    }
    println!("\n                      measured     paper");
    println!(
        "median suspension   {:>9.0}  {:>9.0}",
        MEDIAN_SUSPENSION(year),
        figure2::MEDIAN_MIN
    );
    println!(
        "mean suspension     {:>9.0}  {:>9.0}",
        MEAN_SUSPENSION(year),
        figure2::MEAN_MIN
    );
    println!(
        "fraction > {:.0} min {:>8.1}%  {:>8.1}%",
        figure2::TAIL_THRESHOLD_MIN,
        SUSPENSION_TAIL(year) * 100.0,
        figure2::FRACTION_ABOVE_1100 * 100.0
    );
    println!("suspended jobs: {}", cdf.len());
}

fn fig3_section(grid: &Grid) {
    println!("\n== Figure 3: wasted completion time breakdown (normal load) ==");
    println!("average wasted completion time per job (minutes):");
    println!(
        "{:<14} {:>8} {:>9} {:>9} {:>8}   stacked bar (1 char = 2 min)",
        "strategy", "wait", "suspend", "resched", "total"
    );
    for cell in TABLES[0].cells() {
        let r = &grid[cell];
        let (w, s, x) = (
            r.waste.avg_wait(),
            r.waste.avg_suspend(),
            r.waste.avg_resched(),
        );
        let bar = format!(
            "{}{}{}",
            "W".repeat((w / 2.0).round() as usize),
            "S".repeat((s / 2.0).round() as usize),
            "R".repeat((x / 2.0).round() as usize)
        );
        println!(
            "{:<14} {w:>8.1} {s:>9.1} {x:>9.1} {:>8.1}   {bar}",
            r.strategy.name(),
            r.avg_wct()
        );
    }
    println!("\npaper (approximate, read off the bar chart):");
    for (name, w, s, x) in figure3::COMPONENTS {
        println!("{name:<14} {w:>8.1} {s:>9.1} {x:>9.1} {:>8.1}", w + s + x);
    }
}

/// Prints Figure 4 and writes its full series as CSV under
/// [`Ctx::out_dir`].
fn fig4_section(ctx: &Ctx, year: &ExperimentResult) -> Result<(), String> {
    let susp = year.suspended_series.aggregate(BUCKET);
    let util = year.utilization_series.aggregate(BUCKET);
    println!("\n== Figure 4: utilization / suspension over the year ==");
    let path = ctx.out_dir.join("fig4_timeline.csv");
    let mut csv = String::from("minute,suspended_jobs,utilization_pct\n");
    for ((t, s), (_, u)) in susp.iter().zip(&util) {
        let _ = writeln!(csv, "{},{s:.1},{u:.2}", t.as_minutes());
    }
    std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| std::fs::write(&path, csv))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "full series written to {} ({} buckets)",
        path.display(),
        susp.len()
    );

    // Terminal rendering, downsampled to ~60 rows.
    let step = (susp.len() / 60).max(1);
    let max_susp = susp.iter().map(|&(_, s)| s).fold(1.0, f64::max);
    println!("\n  minute | util% | suspended (bar scaled to max {max_susp:.0})");
    for i in (0..susp.len()).step_by(step) {
        let (t, s) = susp[i];
        let (_, u) = util[i];
        let bar = "#".repeat(((s / max_susp) * 40.0).round() as usize);
        println!("{:>8} | {u:>5.1} | {s:>7.0} {bar}", t.as_minutes());
    }

    let in_horizon = year_utilization(year);
    let (lo, hi) = figure4::TYPICAL_UTILIZATION_BAND_PCT;
    let in_band = in_horizon
        .iter()
        .filter(|&&u| (lo..=hi).contains(&u))
        .count() as f64
        / in_horizon.len().max(1) as f64;
    println!(
        "\nmean utilization: {:.1}% (paper: around {:.0}%)",
        mean_utilization(year),
        figure4::MEAN_UTILIZATION_PCT
    );
    println!(
        "time in the paper's typical {lo:.0}-{hi:.0}% band: {:.0}%",
        in_band * 100.0
    );
    println!(
        "peak suspended jobs: {:.0} | mean suspended: {:.1}",
        year.suspended_series.max().unwrap_or(0.0),
        year.suspended_series.mean()
    );
    Ok(())
}

/// Figure 2: the CDF of job suspension time over the year trace (paper:
/// median 437 min, mean 905 min, 20% above 1100 min).
pub fn fig2(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    fig2_section(&Grid::run(ctx, [YEAR])[YEAR]);
    Ok(Vec::new())
}

/// Figure 3: average wasted completion time split into wait, suspend and
/// rescheduling waste for the Table 1 strategies.
pub fn fig3(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    fig3_section(&Grid::run(ctx, TABLES[0].cells()));
    Ok(Vec::new())
}

/// Figure 4: suspended-job count and utilization over the year trace in
/// 100-minute buckets; the full series goes to `fig4_timeline.csv`.
pub fn fig4(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    fig4_section(ctx, &Grid::run(ctx, [YEAR])[YEAR])?;
    Ok(Vec::new())
}

// ---------------------------------------------------------------------
// The full reproduction
// ---------------------------------------------------------------------

/// Every cell `all` reads: the five tables', the high-suspension week's
/// and the year run, shared cells listed once per table.
fn all_cells() -> impl Iterator<Item = Cell> {
    TABLES
        .iter()
        .flat_map(PaperTable::cells)
        .chain(high_suspension_cells())
        .chain([YEAR])
}

/// Every table and figure in sequence, then the known deviations and the
/// shape checks, which it returns.
pub fn all(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    let t0 = std::time::Instant::now();
    let grid = Grid::run(ctx, all_cells());
    for t in &TABLES {
        print_table(t, &grid);
    }
    high_suspension_section(&grid);
    fig2_section(&grid[YEAR]);
    fig3_section(&grid);
    fig4_section(ctx, &grid[YEAR])?;

    let (claims, deviations) = paper_claims();
    let judge = |claim: &Claim| claim.judge(|cell| &grid[cell]);
    println!("\n== known deviations from the paper (see EXPERIMENTS.md) ==");
    for d in deviations.iter().map(judge) {
        println!("{}: {}", d.name, d.detail);
    }
    let [nores3, util3, _] = TABLES[2].cells();
    println!(
        "D3: under util-based initial, ResSusUtil's AvgWCT is {:.0} vs NoRes {:.0} \n    (paper: {:.0} vs {:.0}, an {:.0}% cut).",
        grid[util3].avg_wct(),
        grid[nores3].avg_wct(),
        TABLE_3[1].avg_wct,
        TABLE_3[0].avg_wct,
        reduction(TABLE_3[0].avg_wct, TABLE_3[1].avg_wct) * 100.0
    );

    let checks: Vec<ShapeCheck> = claims.iter().map(judge).collect();
    println!("\n== shape checks (the paper's qualitative claims) ==");
    for c in &checks {
        println!(
            "[{}] {} — {}",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!(
        "\n{}/{} shape checks passed | total wall time {:.1}s",
        checks.iter().filter(|c| c.pass).count(),
        checks.len(),
        t0.elapsed().as_secs_f64()
    );
    if ctx.markdown {
        println!("\n---- markdown for EXPERIMENTS.md ----");
        for t in &TABLES {
            print!("{}", table_markdown(t, &grid));
        }
    }
    Ok(checks)
}

// The numbers the claims read off a cell.
const CT_SUSP: Metric = |r| r.avg_ct_suspended;
const CT_ALL: Metric = |r| r.avg_ct_all;
const WCT: Metric = ExperimentResult::avg_wct;
const SUSP_RATE: Metric = |r| r.suspend_rate;
const WAIT_RESTARTS: Metric = |r| r.counters.restarts_from_wait as f64;

/// Why D2 deviates from the paper, when it does.
const WHY_D2: &str = "\n    A perfectly balanced site rarely fills any single pool, so host-level preemption \n    has fewer opportunities in our packing model.";

/// `b -> a (change%)`, the detail of a claimed cut from `b` to `a`.
fn cut_detail(v: &[f64]) -> String {
    format!(
        "{:.0} -> {:.0} ({:+.0}%)",
        v[1],
        v[0],
        -reduction(v[1], v[0]) * 100.0
    )
}

/// `a vs b`, rounded to whole numbers.
fn vs(v: &[f64]) -> String {
    format!("{:.0} vs {:.0}", v[0], v[1])
}

/// The paper's qualitative claims, read from `all`'s grid: the shape
/// checks, which gate `repro`'s exit code, and the known deviations D1
/// and D2, which gate nothing and are worded from their verdicts.
pub(crate) fn paper_claims() -> (Vec<Claim>, Vec<Claim>) {
    use Relation::{Above, Below, CutsMore, Within};
    use Value::{Fixed, Of};
    let [nores1, util1, rand1] = TABLES[0].cells();
    let [nores2, util2, rand2] = TABLES[1].cells();
    let [nores3, util3, _] = TABLES[2].cells();
    let [_, wutil4, wrand4] = TABLES[3].cells();
    let [_, wutil5, wrand5] = TABLES[4].cells();
    let [hs_nores, hs_util, _] = high_suspension_cells();
    let (lo, hi) = figure4::TYPICAL_UTILIZATION_BAND_PCT;
    let t3_cut = reduction(TABLE_3[0].avg_ct_suspended, TABLE_3[1].avg_ct_suspended);
    let shape = vec![
        Claim {
            text: "T1: ResSusUtil cuts AvgCT(susp) vs NoRes",
            paper: Some(claims::NORMAL_CT_SUSPENDED_REDUCTION),
            holds: vec![Below(Of(util1, CT_SUSP), 0.85, Of(nores1, CT_SUSP))],
            detail: |_, v| cut_detail(v),
        },
        Claim {
            text: "T1: ResSusUtil cuts AvgWCT vs NoRes",
            paper: Some(claims::NORMAL_WCT_REDUCTION),
            holds: vec![Below(Of(util1, WCT), 0.8, Of(nores1, WCT))],
            detail: |_, v| format!("{:.1} -> {:.1}", v[1], v[0]),
        },
        Claim {
            text: "T1: rescheduling raises the suspend rate",
            paper: None,
            holds: vec![Above(Of(util1, SUSP_RATE), 1.0, Of(nores1, SUSP_RATE))],
            detail: |_, v| format!("{:.2}% -> {:.2}%", v[1] * 100.0, v[0] * 100.0),
        },
        Claim {
            text: "T1: ResSusRand is worse than ResSusUtil (poor pool choice hurts)",
            paper: None,
            holds: vec![Above(Of(rand1, WCT), 1.0, Of(util1, WCT))],
            detail: |_, v| format!("WCT {:.1} vs {:.1}", v[0], v[1]),
        },
        Claim {
            text: "T2: high load roughly doubles NoRes AvgCT(all) vs normal",
            paper: None,
            holds: vec![Above(Of(nores2, CT_ALL), 1.5, Of(nores1, CT_ALL))],
            detail: |_, v| format!("{:.0} -> {:.0}", v[1], v[0]),
        },
        Claim {
            text: "T2: rescheduling benefit grows under high load",
            paper: Some(claims::HIGH_CT_SUSPENDED_REDUCTION),
            holds: vec![CutsMore(CT_SUSP, [nores2, util2], [nores1, util1])],
            detail: |_, v| format!("normal {:+.0}%, high {:+.0}%", -v[1] * 100.0, -v[0] * 100.0),
        },
        Claim {
            text: "T2: ResSusRand backfires vs NoRes (worst overall: WCT and AvgCT-all)",
            paper: None,
            holds: vec![
                Above(Of(rand2, WCT), 1.0, Of(nores2, WCT)),
                Above(Of(rand2, CT_ALL), 1.0, Of(nores2, CT_ALL)),
            ],
            detail: |_, v| format!("WCT {}, CT(all) {}", vs(&v[..2]), vs(&v[2..])),
        },
        Claim {
            text: "T3: ResSusUtil still cuts AvgCT(susp) under util-based initial",
            paper: Some(t3_cut),
            holds: vec![Below(Of(util3, CT_SUSP), 0.9, Of(nores3, CT_SUSP))],
            detail: |_, v| format!("CT(s) {}", cut_detail(v)),
        },
        Claim {
            text: "T4: wait rescheduling beats suspend-only on AvgCT(all)",
            paper: None,
            holds: vec![Below(Of(wutil4, CT_ALL), 1.0, Of(util2, CT_ALL))],
            detail: |_, v| vs(v),
        },
        Claim {
            text: "T4: random performs close to utilization-based with wait resched",
            paper: None,
            holds: vec![Below(Of(wrand4, CT_SUSP), 1.35, Of(wutil4, CT_SUSP))],
            detail: |_, v| vs(v),
        },
        Claim {
            text: "T4: ResSusWaitRand fixes the random backfire seen in T2",
            paper: None,
            holds: vec![Below(Of(wrand4, CT_SUSP), 1.0, Of(rand2, CT_SUSP))],
            detail: |_, v| vs(v),
        },
        Claim {
            text: "T4: random wait-resched costs far more restarts (paper's caveat)",
            paper: None,
            holds: vec![Above(
                Of(wrand4, WAIT_RESTARTS),
                2.0,
                Of(wutil4, WAIT_RESTARTS),
            )],
            detail: |_, v| vs(v),
        },
        Claim {
            text: "T5: both wait strategies beat NoRes under util-based initial",
            paper: None,
            holds: vec![
                Below(Of(wutil5, WCT), 1.0, Of(nores3, WCT)),
                Below(Of(wrand5, WCT), 1.0, Of(nores3, WCT)),
            ],
            detail: |_, v| format!("WCT {:.1} / {:.1} vs {:.1}", v[0], v[2], v[1]),
        },
        Claim {
            text: "HS: high-suspension scenario has a much higher suspend rate",
            paper: None,
            holds: vec![Above(Of(hs_nores, SUSP_RATE), 2.0, Of(nores1, SUSP_RATE))],
            detail: |_, v| format!("{:.1}% vs {:.2}%", v[0] * 100.0, v[1] * 100.0),
        },
        Claim {
            text: "HS: rescheduling strongly cuts AvgCT(susp)",
            paper: Some(high_suspension::CT_SUSPENDED_REDUCTION),
            holds: vec![Below(Of(hs_util, CT_SUSP), 0.7, Of(hs_nores, CT_SUSP))],
            detail: |_, v| format!("{:+.0}%", -reduction(v[1], v[0]) * 100.0),
        },
        Claim {
            text: "F2: suspension times are heavy-tailed (median well below mean)",
            paper: None,
            holds: vec![
                Below(Of(YEAR, MEDIAN_SUSPENSION), 1.0, Of(YEAR, MEAN_SUSPENSION)),
                Above(Of(YEAR, SUSPENSION_TAIL), 1.0, Fixed(0.05)),
            ],
            detail: |_, v| {
                format!(
                    "median {:.0}, mean {:.0}, tail {:.0}%",
                    v[0],
                    v[1],
                    v[2] * 100.0
                )
            },
        },
        Claim {
            text: "F4: mean utilization in the paper's typical band",
            paper: None,
            holds: vec![Within(Of(YEAR, mean_utilization), lo, hi)],
            detail: |_, v| format!("{:.1}%", v[0]),
        },
    ];
    let deviations = vec![
        Claim {
            text: "D1",
            paper: None,
            holds: vec![Above(Of(rand2, CT_SUSP), 1.0, Of(nores2, CT_SUSP))],
            detail: |exceeded, v| {
                let (joint, verb, paper) = if exceeded {
                    ("and", "exceeded", ", as in the paper")
                } else {
                    ("but", "did not exceed", "; in the paper it did")
                };
                let p = [TABLE_2[2].avg_ct_suspended, TABLE_2[0].avg_ct_suspended];
                format!(
                    "ResSusRand's backfire appears on AvgWCT/AvgCT(all) {joint} its AvgCT(susp) \n    {verb} NoRes's ({}){paper} ({}).",
                    vs(v),
                    vs(&p)
                )
            },
        },
        Claim {
            text: "D2",
            paper: None,
            holds: vec![Above(Of(nores3, SUSP_RATE), 1.0, Of(nores2, SUSP_RATE))],
            detail: |raises, v| {
                let (verb, paper, why) = if raises {
                    ("raises", ", as the paper reports", "")
                } else {
                    ("LOWERS", "; the paper reports a small increase", WHY_D2)
                };
                let [ub, rr] = [v[0] * 100.0, v[1] * 100.0];
                let [p_rr, p_ub] = [&TABLE_2, &TABLE_3].map(|t| t[0].suspend_rate * 100.0);
                format!(
                    "the utilization-based initial scheduler {verb} the NoRes suspend rate here \n    ({ub:.2}% vs {rr:.2}% under RR){paper} ({p_rr:.2}% -> {p_ub:.2}%).{why}"
                )
            },
        },
    ];
    (shape, deviations)
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Sum of restarts from suspension and from wait queues.
fn restarts(r: &ExperimentResult) -> u64 {
    r.counters.restarts_from_suspend + r.counters.restarts_from_wait
}

/// Paper §3.2.2 caveat: how `ResSusUtil` degrades when the utilization
/// signal is stale ("propagation latency between different pools"), with
/// `ResSusRand` (which needs no signal) and `NoRes` as reference lines.
pub fn staleness(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    const AGES_MIN: [u64; 6] = [0, 10, 30, 120, 480, 1440];
    let (site, trace) = Scenario::High.build(ctx.scale);
    let mut configs: Vec<SimConfig> = AGES_MIN
        .iter()
        .map(|&minutes| SimConfig {
            view_staleness: SimDuration::from_minutes(minutes),
            ..ctx.config(InitialKind::RoundRobin, StrategyKind::ResSusUtil)
        })
        .collect();
    configs.push(ctx.config(InitialKind::RoundRobin, StrategyKind::ResSusRand));
    configs.push(ctx.config(InitialKind::RoundRobin, StrategyKind::NoRes));
    let results = run_configs(&site, &trace, &configs);
    println!("\n== Staleness ablation: high load, ResSusUtil with aging utilization info ==");
    println!(
        "{:<22} {:>12} {:>11} {:>9}",
        "information age", "AvgCT (susp)", "AvgCT (all)", "AvgWCT"
    );
    let labels = AGES_MIN
        .iter()
        .map(|m| format!("{m} min"))
        .chain(["ResSusRand reference".into(), "NoRes reference".into()]);
    for (label, r) in labels.zip(&results) {
        println!(
            "{label:<22} {:>12.1} {:>11.1} {:>9.1}{}",
            r.avg_ct_suspended,
            r.avg_ct_all,
            r.avg_wct(),
            if r.strategy == StrategyKind::ResSusRand {
                "   (needs no signal)"
            } else {
                ""
            }
        );
    }
    Ok(Vec::new())
}

/// Paper future work ("network delays and other rescheduling associated
/// overheads"): a fixed per-restart cost, swept to find where the wait
/// strategies' restarts stop paying off against `NoRes`.
pub fn overhead(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    const OVERHEADS_MIN: [u64; 7] = [0, 5, 15, 30, 60, 120, 240];
    let (site, trace) = Scenario::High.build(ctx.scale);
    let mut configs = vec![ctx.config(InitialKind::RoundRobin, StrategyKind::NoRes)];
    for strategy in [StrategyKind::ResSusWaitUtil, StrategyKind::ResSusWaitRand] {
        configs.extend(OVERHEADS_MIN.iter().map(|&minutes| SimConfig {
            restart_overhead: SimDuration::from_minutes(minutes),
            ..ctx.config(InitialKind::RoundRobin, strategy)
        }));
    }
    let results = run_configs(&site, &trace, &configs);
    let nores = &results[0];
    println!("\n== Restart-overhead ablation: high load ==");
    println!(
        "NoRes baseline: AvgCT(all) {:.1}, AvgWCT {:.1}\n",
        nores.avg_ct_all,
        nores.avg_wct()
    );
    println!(
        "{:<10} {:>14} {:>12} {:>9} {:>10} {:>10}",
        "overhead", "strategy", "AvgCT (all)", "AvgWCT", "restarts", "wins?"
    );
    for (config, r) in configs.iter().zip(&results).skip(1) {
        println!(
            "{:<10} {:>14} {:>12.1} {:>9.1} {:>10} {:>10}",
            format!("{} min", config.restart_overhead.as_minutes()),
            r.strategy.name(),
            r.avg_ct_all,
            r.avg_wct(),
            restarts(r),
            if r.avg_wct() < nores.avg_wct() {
                "yes"
            } else {
                "NO"
            }
        );
    }
    Ok(Vec::new())
}

/// Restart-churn control: how much of `ResSusWaitRand`'s benefit survives
/// a cap on restarts per job (the paper notes its "much more frequent
/// restart operations").
pub fn max_restarts(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    const CAPS: [Option<u32>; 6] = [Some(0), Some(1), Some(2), Some(4), Some(8), None];
    let (site, trace) = Scenario::High.build(ctx.scale);
    let mut configs = vec![ctx.config(InitialKind::RoundRobin, StrategyKind::NoRes)];
    configs.extend(CAPS.iter().map(|&cap| SimConfig {
        max_restarts: cap,
        ..ctx.config(InitialKind::RoundRobin, StrategyKind::ResSusWaitRand)
    }));
    let results = run_configs(&site, &trace, &configs);
    println!("\n== Max-restarts ablation: high load, ResSusWaitRand ==");
    println!(
        "NoRes baseline: AvgCT(susp) {:.1}, AvgCT(all) {:.1}\n",
        results[0].avg_ct_suspended, results[0].avg_ct_all
    );
    println!(
        "{:<12} {:>12} {:>11} {:>9} {:>10}",
        "cap", "AvgCT (susp)", "AvgCT (all)", "AvgWCT", "restarts"
    );
    for (cap, r) in CAPS.iter().zip(&results[1..]) {
        println!(
            "{:<12} {:>12.1} {:>11.1} {:>9.1} {:>10}",
            cap.map_or("unbounded".to_string(), |c| c.to_string()),
            r.avg_ct_suspended,
            r.avg_ct_all,
            r.avg_wct(),
            restarts(r)
        );
    }
    Ok(Vec::new())
}

/// The shortest-queue pool selector (`ResSusQueue`), the third metric
/// the paper's diagnosis suggests: random selection fails by "choosing a
/// pool that already has a lot of waiting jobs".
pub fn queue_policy(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    use StrategyKind::{NoRes, ResSusQueue, ResSusRand, ResSusUtil};
    for (label, scenario) in [
        ("normal load", Scenario::Normal),
        ("high load", Scenario::High),
    ] {
        let results = ctx.run_strategies(scenario, &[NoRes, ResSusUtil, ResSusQueue, ResSusRand]);
        print_comparison(&format!("Queue-policy ablation: {label}"), &results, &[]);
        print_reductions(&results);
    }
    Ok(Vec::new())
}

/// The multi-metric "smart" policy the paper's §5 future work sketches
/// (utilization, queue length and predicted wait) against the published
/// strategies, plus a weight sweep showing each signal's marginal value.
pub fn smart_policy(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    use StrategyKind::{NoRes, ResSusWaitRand, ResSusWaitUtil};
    let smart = StrategyKind::ResSusWaitSmart;
    let results = ctx.run_strategies(
        Scenario::High,
        &[NoRes, ResSusWaitUtil, ResSusWaitRand, smart],
    );
    print_comparison("Smart-policy ablation: high load", &results, &[]);
    print_reductions(&results);

    // Marginal value of each signal: zero one weight at a time.
    // `StrategyKind` carries no weights, so each cell installs its own
    // policy through `Simulator::with_policy`.
    let sweep = [
        ("all signals (1,2,1)", (1.0, 2.0, 1.0)),
        ("utilization only", (1.0, 0.0, 0.0)),
        ("queue length only", (0.0, 1.0, 0.0)),
        ("predicted wait only", (0.0, 0.0, 1.0)),
    ];
    let config = SimConfig {
        seed: 1,
        ..ctx.config(InitialKind::RoundRobin, smart)
    };
    let (site, trace) = Scenario::High.build(ctx.scale);
    let swept = run_cells(&sweep, |&(_, (w_util, w_queue, w_wait))| {
        let weights = SmartWeights {
            w_util,
            w_queue,
            w_wait,
        };
        let policy = Box::new(ResSusWaitSmart::new().with_weights(weights));
        let output = Simulator::with_policy(&site, trace.to_specs(), config.clone(), policy)
            .run_to_completion();
        ExperimentResult::from_output(config.initial, config.strategy, output)
    });
    println!("\nweight sweep (w_util, w_queue, w_wait):");
    for ((label, _), r) in sweep.iter().zip(&swept) {
        println!(
            "{label:<22} AvgCT(susp) {:>7.0} | AvgCT(all) {:>6.0} | AvgWCT {:>6.1}",
            r.avg_ct_suspended,
            r.avg_ct_all,
            r.avg_wct()
        );
    }
    Ok(Vec::new())
}

/// Restart vs migrate vs duplicate. The paper chooses restart over
/// checkpoint/VM migration (§2.3: virtualization costs 10-20% for
/// chip-sim workloads) and defers job duplication to future work (§5).
/// All three mechanisms use lowest-utilization targets; a migration-cost
/// sweep then finds where migration overtakes restarting.
pub fn alternatives(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    use StrategyKind::{DupSusUtil, MigrateSusUtil, NoRes, ResSusUtil};
    for (label, scenario) in [
        ("normal load", Scenario::Normal),
        ("high load", Scenario::High),
    ] {
        let results =
            ctx.run_strategies(scenario, &[NoRes, ResSusUtil, MigrateSusUtil, DupSusUtil]);
        println!("\n== Rescheduling-mechanism ablation: {label} ==");
        let mut table = Table::new([
            "mechanism",
            "AvgCT (susp)",
            "AvgCT (all)",
            "AvgWCT",
            "moves",
        ]);
        for r in &results {
            let moves = r.counters.restarts_from_suspend
                + r.counters.migrations
                + r.counters.duplicates_launched;
            table.row([
                r.strategy.name().to_string(),
                format!("{:.0}", r.avg_ct_suspended),
                format!("{:.0}", r.avg_ct_all),
                format!("{:.1}", r.avg_wct()),
                moves.to_string(),
            ]);
        }
        print!("{table}");
    }

    // Where does migration overtake restarting? Sweep the transfer delay
    // (the slowdown stays at the paper's mid-range 15%).
    const DELAYS_MIN: [u64; 6] = [0, 15, 30, 60, 120, 480];
    let (site, trace) = Scenario::High.build(ctx.scale);
    let mut configs = vec![ctx.config(InitialKind::RoundRobin, ResSusUtil)];
    configs.extend(DELAYS_MIN.iter().map(|&delay| SimConfig {
        migration: MigrationParams {
            delay: SimDuration::from_minutes(delay),
            slowdown_milli: 1150,
        },
        ..ctx.config(InitialKind::RoundRobin, StrategyKind::MigrateSusUtil)
    }));
    let results = run_configs(&site, &trace, &configs);
    println!("\n== Migration-cost sweep: high load, 15% slowdown ==");
    println!(
        "{:<14} {:>14} {:>12} {:>9}",
        "delay", "AvgCT (susp)", "AvgCT (all)", "AvgWCT"
    );
    for (delay, r) in DELAYS_MIN.iter().zip(&results[1..]) {
        println!(
            "{:<14} {:>14.0} {:>12.0} {:>9.1}",
            format!("{delay} min"),
            r.avg_ct_suspended,
            r.avg_ct_all,
            r.avg_wct()
        );
    }
    let restart = &results[0];
    println!(
        "{:<14} {:>14.0} {:>12.0} {:>9.1}   (restart-based reference)",
        "ResSusUtil",
        restart.avg_ct_suspended,
        restart.avg_ct_all,
        restart.avg_wct()
    );
    Ok(Vec::new())
}

/// Multi-VPM topologies and inter-site rescheduling (the paper's Figure 1
/// architecture and §5 future work): split the 20 pools across 2 and 4
/// VPMs, confine routing to each VPM, then re-enable inter-site
/// rescheduling with a swept WAN surcharge.
pub fn intersite(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    let (site, trace) = Scenario::High.build(ctx.scale);
    let split = |vpms| VpmTopology::contiguous(20, vpms).map_err(|e| e.to_string());
    let four = split(4)?;
    let mut cells = vec![
        ("1 VPM x 20 pools (paper setup)".to_string(), None),
        ("2 VPMs, confined".to_string(), Some(split(2)?)),
        ("4 VPMs, confined".to_string(), Some(four.clone())),
    ];
    cells.extend([0u64, 30, 120, 480].map(|overhead| {
        (
            format!("4 VPMs, inter-site (+{overhead}m WAN)"),
            Some(
                four.clone()
                    .with_inter_site(SimDuration::from_minutes(overhead)),
            ),
        )
    }));
    let configs: Vec<SimConfig> = cells
        .iter()
        .map(|(_, topology)| SimConfig {
            topology: topology.clone(),
            ..ctx.config(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil)
        })
        .collect();
    let results = run_configs(&site, &trace, &configs);
    println!("\n== Inter-site ablation: high load, ResSusWaitUtil ==");
    println!(
        "{:<34} {:>12} {:>11} {:>9} {:>9}",
        "topology", "AvgCT (susp)", "AvgCT (all)", "AvgWCT", "restarts"
    );
    for ((label, _), r) in cells.iter().zip(&results) {
        println!(
            "{label:<34} {:>12.0} {:>11.0} {:>9.1} {:>9}",
            r.avg_ct_suspended,
            r.avg_ct_all,
            r.avg_wct(),
            restarts(r)
        );
    }
    println!("\nConfinement shrinks each job's escape set; inter-site rescheduling");
    println!("recovers the single-VPM benefit as long as the WAN surcharge stays");
    println!("below the queueing it avoids.");
    Ok(Vec::new())
}

/// Chaos ablation: stochastic fault injection at increasing intensity,
/// showing how the strategies degrade and how much the hardened
/// resilience policy (retry budgets, backoff, pool blacklisting) claws
/// back. Evicted jobs reuse exactly the restart path.
pub fn failures(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    let (site, trace) = Scenario::Normal.build(ctx.scale);
    let shape: Vec<(PoolId, u32)> = site
        .pools
        .iter()
        .map(|p| (p.id, p.machines.len() as u32))
        .collect();

    // The legacy escape hatch drew (pool, machine, at) triples with
    // replacement, so nominally-80-failure runs silently injected fewer
    // distinct outages. The plan normalization merges the duplicates;
    // report the effective count so the table is honest about intensity.
    let mut rng = DetRng::from_seed_u64(99).stream("failures");
    let legacy: Vec<MachineOutage> = (0..80)
        .map(|_| {
            let pool = rng.next_below(site.pools.len() as u64) as usize;
            let machine = rng.next_below(site.pools[pool].machines.len() as u64) as u32;
            let from = SimTime::from_minutes(rng.next_below(9_000));
            MachineOutage {
                pool: site.pools[pool].id,
                machine: machine.into(),
                from,
                until: Some(from + SimDuration::from_hours(12)),
            }
        })
        .collect();
    let effective = FaultPlan::new(legacy).len();
    println!(
        "\nLegacy draw: 80 nominal failures -> {effective} effective outages after dedupe/merge"
    );

    // A week of simulated time plus one repair window of slack.
    let horizon = SimDuration::from_days(7) + SimDuration::from_hours(12);
    let mttr = SimDuration::from_hours(12);
    let tiers: [(&str, Option<FaultModel>); 4] = [
        ("none", None),
        (
            "light",
            Some(FaultModel::new(SimDuration::from_hours(168), mttr, horizon)),
        ),
        (
            "medium",
            Some(
                FaultModel::new(SimDuration::from_hours(48), mttr, horizon)
                    .with_pool_outages(1, mttr)
                    .with_flaky(0.02, 16),
            ),
        ),
        (
            "heavy",
            Some(
                FaultModel::new(SimDuration::from_hours(12), mttr, horizon)
                    .with_pool_outages(2, mttr)
                    .with_flaky(0.05, 16),
            ),
        ),
    ];
    let mut rows = Vec::new();
    let mut configs = Vec::new();
    for (tier, model) in &tiers {
        for (strategy, resilience) in [
            (StrategyKind::NoRes, ResiliencePolicy::disabled()),
            (StrategyKind::ResSusWaitUtil, ResiliencePolicy::disabled()),
            (StrategyKind::ResSusWaitUtil, ResiliencePolicy::hardened()),
        ] {
            let config = SimConfig {
                fault_model: model.clone(),
                resilience,
                ..ctx.config(InitialKind::RoundRobin, strategy)
            };
            let outages = model
                .as_ref()
                .map_or(0, |m| m.generate(&shape, config.seed).len());
            rows.push((tier, outages));
            configs.push(config);
        }
    }
    let results = run_configs(&site, &trace, &configs);

    println!("\n== Chaos ablation: fault-intensity sweep, normal load ==");
    println!(
        "{:<8} {:>8} {:>14} {:>9} {:>10} {:>8} {:>12} {:>9} {:>10}",
        "tier",
        "outages",
        "strategy",
        "policy",
        "evictions",
        "retries",
        "AvgCT (all)",
        "AvgWCT",
        "unrunnable"
    );
    for (((tier, outages), config), r) in rows.iter().zip(&configs).zip(&results) {
        println!(
            "{:<8} {:>8} {:>14} {:>9} {:>10} {:>8} {:>12.1} {:>9.1} {:>10}",
            tier,
            outages,
            r.strategy.name(),
            if config.resilience.enabled {
                "hardened"
            } else {
                "baseline"
            },
            r.counters.failure_evictions,
            r.counters.retries_scheduled,
            r.avg_ct_all,
            r.avg_wct(),
            r.counters.unrunnable
        );
    }
    Ok(Vec::new())
}

/// Health-aware scheduling vs a health-blind baseline under increasing
/// lifecycle churn. Both runs of a tier see the same maintenance drains,
/// rolling-update waves, health cordons and correlated faults; only the
/// scheduler's use of health scores (weighted placement plus proactive
/// evacuation off draining machines) differs. `tests/lifecycle.rs` gates
/// the heavy-tier delta.
pub fn lifecycle(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    let (site, trace) = Scenario::Normal.build(ctx.scale);

    // A week of simulated time plus one repair window of slack, same as
    // the chaos ablation.
    let horizon = SimDuration::from_days(7) + SimDuration::from_hours(12);
    let mttr = SimDuration::from_hours(4);

    // Each tier pairs a fault model with a lifecycle model sharing the
    // same flaky fraction: the probes that depress a machine's health
    // score are correlated with the failures that punish scheduling onto
    // it, so health is a usable predictor, not decoration.
    // Tiers scale the *flaky cohort* (fraction and failure acceleration)
    // and the lifecycle churn, while the base fleet stays reliable: the
    // degradation health-aware scheduling can dodge is the predictable
    // kind — flappy machines and announced drains — not uniform chaos.
    let tiers: [(&str, Option<(FaultModel, LifecycleModel)>); 4] = [
        ("none", None),
        (
            "light",
            Some((
                FaultModel::new(SimDuration::from_hours(336), mttr, horizon).with_flaky(0.10, 16),
                LifecycleModel::new(horizon)
                    .with_maintenance(SimDuration::from_hours(72), SimDuration::from_hours(2))
                    .with_flaky(0.10, 16),
            )),
        ),
        (
            "medium",
            Some((
                FaultModel::new(SimDuration::from_hours(168), mttr, horizon).with_flaky(0.10, 32),
                LifecycleModel::standard(horizon).with_flaky(0.10, 32),
            )),
        ),
        (
            "heavy",
            Some((
                FaultModel::new(SimDuration::from_hours(96), mttr, horizon).with_flaky(0.15, 64),
                LifecycleModel::new(horizon)
                    .with_drain_lead(SimDuration::from_minutes(120))
                    .with_maintenance(SimDuration::from_hours(24), SimDuration::from_hours(3))
                    .with_rolling(2, 0.5, SimDuration::from_hours(2))
                    .with_cordon(600, SimDuration::from_hours(13))
                    .with_flaky(0.15, 64),
            )),
        ),
    ];
    let mut rows = Vec::new();
    let mut configs = Vec::new();
    for (tier, models) in &tiers {
        for aware in [false, true] {
            let mut config =
                ctx.config(InitialKind::UtilizationBased, StrategyKind::ResSusWaitUtil);
            config.restart_overhead = SimDuration::from_minutes(10);
            if let Some((faults, lifecycle)) = models {
                config.fault_model = Some(faults.clone());
                config.lifecycle = Some(lifecycle.clone());
            }
            config.health_aware = aware;
            config.resilience = if aware {
                ResiliencePolicy::hardened().with_evacuation()
            } else {
                ResiliencePolicy::hardened()
            };
            rows.push((tier, aware));
            configs.push(config);
        }
    }
    let results = run_configs(&site, &trace, &configs);

    println!("\n== Lifecycle ablation: health-aware vs health-blind, normal load ==");
    println!(
        "{:<8} {:>8} {:>12} {:>10} {:>8} {:>12} {:>9} {:>10}",
        "tier",
        "policy",
        "evacuations",
        "evictions",
        "retries",
        "AvgCT (all)",
        "AvgWCT",
        "unrunnable"
    );
    for ((tier, aware), r) in rows.iter().zip(&results) {
        // The front-door accessor and the raw counter must agree — the
        // same reconciliation the golden/chaos suites enforce.
        assert_eq!(r.evacuations(), r.counters.evacuations);
        println!(
            "{:<8} {:>8} {:>12} {:>10} {:>8} {:>12.1} {:>9.1} {:>10}",
            tier,
            if *aware { "aware" } else { "blind" },
            r.counters.evacuations,
            r.counters.failure_evictions,
            r.counters.retries_scheduled,
            r.avg_ct_all,
            r.avg_wct(),
            r.counters.unrunnable
        );
    }
    Ok(Vec::new())
}

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

/// The observables the workload generator is tuned against, for the
/// normal, high-load and high-suspension weeks under the five paper
/// strategies (round-robin initial), plus what happened to the jobs each
/// run restarted from suspension.
pub fn calibrate(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    const STRATEGIES: [StrategyKind; 5] = [
        StrategyKind::NoRes,
        StrategyKind::ResSusUtil,
        StrategyKind::ResSusRand,
        StrategyKind::ResSusWaitUtil,
        StrategyKind::ResSusWaitRand,
    ];
    let scale = ctx.scale;
    for (name, scenario) in [
        ("normal", Scenario::Normal),
        ("high", Scenario::High),
        ("highsus", Scenario::HighSuspension),
    ] {
        let (site, trace) = scenario.build(scale);
        let analysis = TraceAnalysis::of(&trace);
        println!("\n== Calibration: {name} week ==");
        println!(
            "scale {scale} | jobs {} | high frac {:.2}% | mean runtime {:.0} | offered util {:.1}%",
            analysis.jobs,
            analysis.high_fraction() * 100.0,
            analysis.mean_runtime,
            analysis.offered_utilization(site.total_cores()) * 100.0,
        );
        println!("site cores {}", site.total_cores());

        let configs = STRATEGIES.map(|s| ctx.config(InitialKind::RoundRobin, s));
        let cells = run_cells(&configs, |config| {
            let t0 = std::time::Instant::now();
            // The diagnostics read every job's record, which a run keeps
            // only under an observer: the invariant checker rides along.
            let observed = SimConfig {
                check_invariants: true,
                ..config.clone()
            };
            let output = Simulator::new(&site, trace.to_specs(), observed).run_to_completion();
            let restarted: Vec<_> = output
                .jobs
                .iter()
                .filter(|j| j.restarts_from_suspend() > 0)
                .collect();
            let mean = |f: fn(&JobRecord) -> f64| {
                restarted.iter().map(|j| f(j)).sum::<f64>() / restarted.len() as f64
            };
            let diagnostics = (!restarted.is_empty()).then(|| {
                format!(
                    "    restarted-from-suspend: n={} meanCT={:.0} meanWait={:.0} meanWaste={:.0} multi-restart={}",
                    restarted.len(),
                    mean(|j| j.completion_time().unwrap().as_minutes_f64()),
                    mean(|j| j.wait_time().as_minutes_f64()),
                    mean(|j| j.resched_waste().as_minutes_f64()),
                    restarted
                        .iter()
                        .filter(|j| j.restarts_from_suspend() > 1)
                        .count(),
                )
            });
            let result = ExperimentResult::from_output(config.initial, config.strategy, output);
            (result, diagnostics, t0.elapsed())
        });
        println!(
            "{:<16} {:>9} {:>12} {:>10} {:>9} {:>8} {:>9} {:>8} {:>8}",
            "strategy",
            "susp%",
            "AvgCT(s)",
            "AvgCT(all)",
            "AvgST",
            "AvgWCT",
            "avgWait",
            "restS",
            "restW"
        );
        for (result, diagnostics, _) in &cells {
            if let Some(line) = diagnostics {
                println!("{line}");
            }
            println!(
                "{:<16} {:>8.2}% {:>12.1} {:>10.1} {:>9.1} {:>8.1} {:>9.1} {:>8} {:>8}  ({} events)",
                result.strategy.name(),
                result.suspend_rate * 100.0,
                result.avg_ct_suspended,
                result.avg_ct_all,
                result.avg_st,
                result.avg_wct(),
                result.avg_wait_all,
                result.counters.restarts_from_suspend,
                result.counters.restarts_from_wait,
                result.counters.events,
            );
        }
        // Wall times differ from run to run: one line of their own keeps
        // the rows above comparable byte for byte.
        let walls: Vec<String> = cells
            .iter()
            .map(|(result, _, elapsed)| {
                format!("{} {:.1}s", result.strategy.name(), elapsed.as_secs_f64())
            })
            .collect();
        println!("wall time per cell: {}", walls.join(", "));
    }
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::distinct;
    use crate::grid::tests::synthetic;

    #[test]
    fn all_runs_seventeen_distinct_cells() {
        // Tables 2 and 4 share their NoRes cell, Tables 3 and 5 theirs.
        assert_eq!(all_cells().count(), 19);
        let cells = distinct(all_cells());
        assert_eq!(cells.len(), 17);
        for (i, cell) in cells.iter().enumerate() {
            assert!(!cells[i + 1..].contains(cell), "{cell:?} is listed twice");
        }
    }

    #[test]
    fn claims_read_only_cells_of_the_grid() {
        let cells = distinct(all_cells());
        let any = synthetic(StrategyKind::NoRes, 0.0);
        let (shape, deviations) = paper_claims();
        assert_eq!((shape.len(), deviations.len()), (17, 2));
        for claim in shape.iter().chain(&deviations) {
            claim.judge(|cell| {
                assert!(
                    cells.contains(&cell),
                    "{}: {cell:?} is not in the grid",
                    claim.text
                );
                &any
            });
        }
    }

    #[test]
    fn deviations_are_worded_from_their_verdicts() {
        let (_, deviations) = paper_claims();
        let d1 = &deviations[0];
        let exceeded = (d1.detail)(true, &[2329.0, 2133.0]);
        assert!(exceeded.contains("and its AvgCT(susp)"), "{exceeded}");
        assert!(
            exceeded.contains("exceeded NoRes's (2329 vs 2133), as in the paper (6485 vs 5846).")
        );
        let not = (d1.detail)(false, &[3164.0, 3460.0]);
        assert!(not.contains("did not exceed NoRes's (3164 vs 3460); in the paper it did"));
        let d2 = &deviations[1];
        let lowers = (d2.detail)(false, &[0.0075, 0.0168]);
        assert!(
            lowers.contains("LOWERS the NoRes suspend rate here \n    (0.75% vs 1.68% under RR)")
        );
        assert!(lowers.contains("(1.26% -> 1.50%)") && lowers.contains("packing model."));
        let raises = (d2.detail)(true, &[0.0168, 0.0075]);
        assert!(raises.contains("raises the NoRes suspend rate"), "{raises}");
        assert!(!raises.contains("packing model"), "{raises}");
    }
}
