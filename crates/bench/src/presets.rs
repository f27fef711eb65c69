//! `repro`'s presets: one function per paper table and figure, per
//! ablation sweep and for the calibration run.
//!
//! Every preset builds its scenarios from [`Ctx::scale`], runs its cells
//! through [`run_configs`] (or [`run_cells`] where a cell needs more than
//! an [`ExperimentResult`]) and prints its rows. Configs come from
//! [`Ctx::config`], so `--check-invariants` reaches every cell of every
//! preset. [`all`] is the full reproduction: the table and figure
//! sections in sequence, then the shape checks — the paper's qualitative
//! claims — which it returns for the caller to gate on.

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
use netbatch_workload::scenarios::{ScenarioParams, SiteSpec};
use netbatch_workload::trace::Trace;

use crate::paper::{
    figure2, figure3, figure4, high_suspension, PaperRow, TABLE_1, TABLE_2, TABLE_3, TABLE_4,
    TABLE_5,
};
use crate::runner::{
    build_scenario, markdown_comparison, print_comparison, print_reductions, reduction, run_cells,
    run_configs, Load, DEFAULT_SCALE,
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

    /// Runs default cells, one per strategy, over one scenario.
    fn run_strategies(
        &self,
        site: &SiteSpec,
        trace: &Trace,
        initial: InitialKind,
        strategies: &[StrategyKind],
    ) -> Vec<ExperimentResult> {
        let configs: Vec<SimConfig> = strategies
            .iter()
            .map(|&strategy| self.config(initial, strategy))
            .collect();
        run_configs(site, trace, &configs)
    }
}

/// One of the paper's qualitative claims, judged on a run.
#[derive(Debug)]
pub struct ShapeCheck {
    /// The claim.
    pub name: &'static str,
    /// Whether the run reproduced it.
    pub pass: bool,
    /// The measured numbers behind the verdict.
    pub detail: String,
}

fn check(name: &'static str, pass: bool, detail: String) -> ShapeCheck {
    ShapeCheck { name, pass, detail }
}

/// A preset: prints its section and returns the shape checks it judged
/// (only [`all`] judges any). `Err` carries a message for the user, e.g.
/// an artifact that could not be written.
pub type Preset = fn(&Ctx) -> Result<Vec<ShapeCheck>, String>;

/// Every preset, by the name `repro` accepts, in the order the docs list
/// them.
pub const PRESETS: [(&str, Preset); 20] = [
    ("all", all),
    ("table1", table1),
    ("table2", table2),
    ("table2b", table2b),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
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
    load: Load,
    initial: InitialKind,
    strategies: [StrategyKind; 3],
    paper: &'static [PaperRow],
}

const TABLES: [PaperTable; 5] = [
    PaperTable {
        name: "Table 1",
        setting: "normal load, round-robin initial",
        load: Load::Normal,
        initial: InitialKind::RoundRobin,
        strategies: StrategyKind::PAPER_SUSPEND_ONLY,
        paper: &TABLE_1,
    },
    PaperTable {
        name: "Table 2",
        setting: "high load, round-robin initial",
        load: Load::High,
        initial: InitialKind::RoundRobin,
        strategies: StrategyKind::PAPER_SUSPEND_ONLY,
        paper: &TABLE_2,
    },
    PaperTable {
        name: "Table 3",
        setting: "high load, utilization-based initial",
        load: Load::High,
        initial: InitialKind::UtilizationBased,
        strategies: StrategyKind::PAPER_SUSPEND_ONLY,
        paper: &TABLE_3,
    },
    PaperTable {
        name: "Table 4",
        setting: "wait rescheduling, round-robin initial",
        load: Load::High,
        initial: InitialKind::RoundRobin,
        strategies: StrategyKind::PAPER_WITH_WAIT,
        paper: &TABLE_4,
    },
    PaperTable {
        name: "Table 5",
        setting: "wait rescheduling, utilization-based initial",
        load: Load::High,
        initial: InitialKind::UtilizationBased,
        strategies: StrategyKind::PAPER_WITH_WAIT,
        paper: &TABLE_5,
    },
];

/// Runs and prints one paper table on the given scenario.
fn run_table(ctx: &Ctx, t: &PaperTable, site: &SiteSpec, trace: &Trace) -> Vec<ExperimentResult> {
    let results = ctx.run_strategies(site, trace, t.initial, &t.strategies);
    print_comparison(&format!("{}: {}", t.name, t.setting), &results, t.paper);
    print_reductions(&results);
    if t.strategies == StrategyKind::PAPER_WITH_WAIT {
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
    results
}

fn table_markdown(t: &PaperTable, results: &[ExperimentResult]) -> String {
    format!(
        "\n### {} ({})\n\n{}",
        t.name,
        t.setting,
        markdown_comparison(results, t.paper)
    )
}

fn table(ctx: &Ctx, t: &PaperTable) -> Result<Vec<ShapeCheck>, String> {
    let (site, trace) = build_scenario(t.load, ctx.scale);
    let results = run_table(ctx, t, &site, &trace);
    if ctx.markdown {
        println!(
            "\n---- markdown for EXPERIMENTS.md ----{}",
            table_markdown(t, &results)
        );
    }
    Ok(Vec::new())
}

/// Table 1: the paper's suspend-only strategies under normal load.
pub fn table1(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    table(ctx, &TABLES[0])
}

/// Table 2: the same strategies under high load (every machine's cores
/// halved, trace unchanged).
pub fn table2(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    table(ctx, &TABLES[1])
}

/// Table 3: suspended-job rescheduling with the utilization-based
/// initial scheduler under high load.
pub fn table3(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    table(ctx, &TABLES[2])
}

/// Table 4: combined suspended + waiting rescheduling (30-minute
/// threshold) with the round-robin initial scheduler under high load.
pub fn table4(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    table(ctx, &TABLES[3])
}

/// Table 5: combined rescheduling with the utilization-based initial
/// scheduler under high load.
pub fn table5(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    table(ctx, &TABLES[4])
}

fn high_suspension_section(ctx: &Ctx) -> Vec<ExperimentResult> {
    let params = ScenarioParams::high_suspension_week(ctx.scale);
    let results = ctx.run_strategies(
        &params.build_site(),
        &params.generate_trace(),
        InitialKind::RoundRobin,
        &StrategyKind::PAPER_SUSPEND_ONLY,
    );
    print_comparison("High-suspension scenario (§3.2.1)", &results, &[]);
    print_reductions(&results);
    println!(
        "\npaper claims at 14% suspend rate: AvgCT(all) -{:.0}%, AvgCT(susp) -{:.0}%",
        high_suspension::CT_ALL_REDUCTION * 100.0,
        high_suspension::CT_SUSPENDED_REDUCTION * 100.0
    );
    println!(
        "measured (ResSusUtil):            AvgCT(all) -{:.0}%, AvgCT(susp) -{:.0}%",
        reduction(results[0].avg_ct_all, results[1].avg_ct_all) * 100.0,
        reduction(results[0].avg_ct_suspended, results[1].avg_ct_suspended) * 100.0
    );
    results
}

/// The §3.2.1 high-suspension scenario: a trace engineered for a much
/// higher suspend rate (paper: ResSusUtil cuts AvgCT by 7% over all jobs
/// and 44% over suspended jobs).
pub fn table2b(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    high_suspension_section(ctx);
    Ok(Vec::new())
}

// ---------------------------------------------------------------------
// Figures 2-4
// ---------------------------------------------------------------------

/// The year trace runs at half the table scale.
const YEAR_SCALE_FACTOR: f64 = 0.5;

/// Figure 4's aggregation interval.
const BUCKET: SimDuration = SimDuration::from_minutes(100);

/// The production configuration (NoRes, round-robin initial) over the
/// year trace, sampled every minute. Returns the result and the trace's
/// submission horizon in minutes.
fn year_run(ctx: &Ctx) -> (ExperimentResult, u64) {
    let params = ScenarioParams::year(ctx.scale * YEAR_SCALE_FACTOR);
    let config = ctx
        .config(InitialKind::RoundRobin, StrategyKind::NoRes)
        .with_sampling();
    let mut results = run_configs(&params.build_site(), &params.generate_trace(), &[config]);
    (results.remove(0), params.horizon)
}

/// Figure 2's summary statistics: median and mean suspension time (min)
/// and the fraction of suspended jobs above the paper's tail threshold.
struct Fig2Stats {
    median: f64,
    mean: f64,
    tail: f64,
}

fn fig2_section(year: &ExperimentResult) -> Fig2Stats {
    let cdf = year.suspension_cdf();
    println!("\n== Figure 2: suspension-time distribution (year trace) ==");
    println!("suspension-time CDF (x = minutes, y = % of suspended jobs ≤ x):");
    for (x, pct) in cdf.log_series(2) {
        let bar = "#".repeat((pct / 2.0).round() as usize);
        println!("{x:>10.0}  {pct:>5.1}%  {bar}");
    }
    let stats = Fig2Stats {
        median: cdf.median().unwrap_or(0.0),
        mean: cdf.mean(),
        tail: 1.0 - cdf.at(figure2::TAIL_THRESHOLD_MIN),
    };
    println!("\n                      measured     paper");
    println!(
        "median suspension   {:>9.0}  {:>9.0}",
        stats.median,
        figure2::MEDIAN_MIN
    );
    println!(
        "mean suspension     {:>9.0}  {:>9.0}",
        stats.mean,
        figure2::MEAN_MIN
    );
    println!(
        "fraction > {:.0} min {:>8.1}%  {:>8.1}%",
        figure2::TAIL_THRESHOLD_MIN,
        stats.tail * 100.0,
        figure2::FRACTION_ABOVE_1100 * 100.0
    );
    println!("suspended jobs: {}", cdf.len());
    stats
}

fn fig3_section(results: &[ExperimentResult]) {
    println!("\n== Figure 3: wasted completion time breakdown (normal load) ==");
    println!("average wasted completion time per job (minutes):");
    println!(
        "{:<14} {:>8} {:>9} {:>9} {:>8}   stacked bar (1 char = 2 min)",
        "strategy", "wait", "suspend", "resched", "total"
    );
    for r in results {
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
/// [`Ctx::out_dir`]. Returns the mean in-horizon utilization (%).
fn fig4_section(ctx: &Ctx, year: &ExperimentResult, horizon: u64) -> Result<f64, String> {
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

    // Figure 4 covers the submission year; exclude the post-horizon drain
    // (where heavy-tail jobs finish on an otherwise empty site).
    let in_horizon: Vec<f64> = year
        .utilization_series
        .samples()
        .iter()
        .filter(|&&(t, _)| t.as_minutes() < horizon)
        .map(|&(_, u)| u)
        .collect();
    let mean_util = in_horizon.iter().sum::<f64>() / in_horizon.len().max(1) as f64;
    let (lo, hi) = figure4::TYPICAL_UTILIZATION_BAND_PCT;
    let in_band = in_horizon
        .iter()
        .filter(|&&u| (lo..=hi).contains(&u))
        .count() as f64
        / in_horizon.len().max(1) as f64;
    println!(
        "\nmean utilization: {mean_util:.1}% (paper: around {:.0}%)",
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
    Ok(mean_util)
}

/// Figure 2: the CDF of job suspension time over the year trace (paper:
/// median 437 min, mean 905 min, 20% above 1100 min).
pub fn fig2(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    fig2_section(&year_run(ctx).0);
    Ok(Vec::new())
}

/// Figure 3: average wasted completion time split into wait, suspend and
/// rescheduling waste for the Table 1 strategies.
pub fn fig3(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    let t = &TABLES[0];
    let (site, trace) = build_scenario(t.load, ctx.scale);
    fig3_section(&ctx.run_strategies(&site, &trace, t.initial, &t.strategies));
    Ok(Vec::new())
}

/// Figure 4: suspended-job count and utilization over the year trace in
/// 100-minute buckets; the full series goes to `fig4_timeline.csv`.
pub fn fig4(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    let (year, horizon) = year_run(ctx);
    fig4_section(ctx, &year, horizon)?;
    Ok(Vec::new())
}

// ---------------------------------------------------------------------
// The full reproduction
// ---------------------------------------------------------------------

/// Every table and figure in sequence, then the known deviations and the
/// shape checks, which it returns.
pub fn all(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    let t0 = std::time::Instant::now();
    let (normal_site, trace) = build_scenario(Load::Normal, ctx.scale);
    let high_site = normal_site.halved();
    let results: Vec<Vec<ExperimentResult>> = TABLES
        .iter()
        .map(|t| {
            let site = match t.load {
                Load::Normal => &normal_site,
                Load::High => &high_site,
            };
            run_table(ctx, t, site, &trace)
        })
        .collect();
    let hs = high_suspension_section(ctx);
    let (year, horizon) = year_run(ctx);
    let f2 = fig2_section(&year);
    fig3_section(&results[0]);
    let mean_util = fig4_section(ctx, &year, horizon)?;

    let [t1, t2, t3, t4, t5] = [0, 1, 2, 3, 4].map(|i| &results[i][..]);
    let checks = shape_checks(t1, t2, t3, t4, t5, &hs, &f2, mean_util);

    println!("\n== known deviations from the paper (see EXPERIMENTS.md) ==");
    println!(
        "D1: ResSusRand's backfire appears on AvgWCT/AvgCT(all) but its AvgCT(susp) \n    did not exceed NoRes's ({:.0} vs {:.0}); in the paper it did (6485 vs 5846).",
        t2[2].avg_ct_suspended, t2[0].avg_ct_suspended
    );
    println!(
        "D2: the utilization-based initial scheduler LOWERS the NoRes suspend rate here \n    ({:.2}% vs {:.2}% under RR); the paper reports a small increase (1.26% -> 1.50%).\n    A perfectly balanced site rarely fills any single pool, so host-level preemption \n    has fewer opportunities in our packing model.",
        t3[0].suspend_rate * 100.0,
        t2[0].suspend_rate * 100.0
    );
    println!(
        "D3: under util-based initial, ResSusUtil's AvgWCT is {:.0} vs NoRes {:.0} \n    (paper: 408 vs 457, an 11% cut).",
        t3[1].avg_wct(),
        t3[0].avg_wct()
    );

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
        for (t, r) in TABLES.iter().zip(&results) {
            print!("{}", table_markdown(t, r));
        }
    }
    Ok(checks)
}

#[allow(clippy::too_many_arguments)]
fn shape_checks(
    t1: &[ExperimentResult],
    t2: &[ExperimentResult],
    t3: &[ExperimentResult],
    t4: &[ExperimentResult],
    t5: &[ExperimentResult],
    hs: &[ExperimentResult],
    f2: &Fig2Stats,
    mean_util: f64,
) -> Vec<ShapeCheck> {
    let (nores1, util1, rand1) = (&t1[0], &t1[1], &t1[2]);
    let (nores2, util2, rand2) = (&t2[0], &t2[1], &t2[2]);
    let (nores3, util3) = (&t3[0], &t3[1]);
    let (wait_util4, wait_rand4) = (&t4[1], &t4[2]);
    let (wait_util5, wait_rand5) = (&t5[1], &t5[2]);
    let Fig2Stats { median, mean, tail } = *f2;
    vec![
        check(
            "T1: ResSusUtil cuts AvgCT(susp) vs NoRes (paper: -50%)",
            util1.avg_ct_suspended < nores1.avg_ct_suspended * 0.85,
            format!(
                "{:.0} -> {:.0} ({:+.0}%)",
                nores1.avg_ct_suspended,
                util1.avg_ct_suspended,
                -reduction(nores1.avg_ct_suspended, util1.avg_ct_suspended) * 100.0
            ),
        ),
        check(
            "T1: ResSusUtil cuts AvgWCT vs NoRes (paper: -33%)",
            util1.avg_wct() < nores1.avg_wct() * 0.8,
            format!("{:.1} -> {:.1}", nores1.avg_wct(), util1.avg_wct()),
        ),
        check(
            "T1: rescheduling raises the suspend rate",
            util1.suspend_rate > nores1.suspend_rate,
            format!(
                "{:.2}% -> {:.2}%",
                nores1.suspend_rate * 100.0,
                util1.suspend_rate * 100.0
            ),
        ),
        check(
            "T1: ResSusRand is worse than ResSusUtil (poor pool choice hurts)",
            rand1.avg_wct() > util1.avg_wct(),
            format!("WCT {:.1} vs {:.1}", rand1.avg_wct(), util1.avg_wct()),
        ),
        check(
            "T2: high load roughly doubles NoRes AvgCT(all) vs normal",
            nores2.avg_ct_all > nores1.avg_ct_all * 1.5,
            format!("{:.0} -> {:.0}", nores1.avg_ct_all, nores2.avg_ct_all),
        ),
        check(
            "T2: rescheduling benefit grows under high load (paper: -75%)",
            reduction(nores2.avg_ct_suspended, util2.avg_ct_suspended)
                > reduction(nores1.avg_ct_suspended, util1.avg_ct_suspended),
            format!(
                "normal {:+.0}%, high {:+.0}%",
                -reduction(nores1.avg_ct_suspended, util1.avg_ct_suspended) * 100.0,
                -reduction(nores2.avg_ct_suspended, util2.avg_ct_suspended) * 100.0
            ),
        ),
        check(
            "T2: ResSusRand backfires vs NoRes (worst overall: WCT and AvgCT-all)",
            rand2.avg_wct() > nores2.avg_wct() && rand2.avg_ct_all > nores2.avg_ct_all,
            format!(
                "WCT {:.0} vs {:.0}, CT(all) {:.0} vs {:.0}",
                rand2.avg_wct(),
                nores2.avg_wct(),
                rand2.avg_ct_all,
                nores2.avg_ct_all
            ),
        ),
        check(
            "T3: ResSusUtil still cuts AvgCT(susp) under util-based initial (paper: -75%)",
            util3.avg_ct_suspended < nores3.avg_ct_suspended * 0.9,
            format!(
                "CT(s) {:.0} -> {:.0} ({:+.0}%)",
                nores3.avg_ct_suspended,
                util3.avg_ct_suspended,
                -reduction(nores3.avg_ct_suspended, util3.avg_ct_suspended) * 100.0
            ),
        ),
        check(
            "T4: wait rescheduling beats suspend-only on AvgCT(all)",
            wait_util4.avg_ct_all < util2.avg_ct_all,
            format!("{:.0} vs {:.0}", wait_util4.avg_ct_all, util2.avg_ct_all),
        ),
        check(
            "T4: random performs close to utilization-based with wait resched",
            wait_rand4.avg_ct_suspended < 1.35 * wait_util4.avg_ct_suspended,
            format!(
                "{:.0} vs {:.0}",
                wait_rand4.avg_ct_suspended, wait_util4.avg_ct_suspended
            ),
        ),
        check(
            "T4: ResSusWaitRand fixes the random backfire seen in T2",
            wait_rand4.avg_ct_suspended < rand2.avg_ct_suspended,
            format!(
                "{:.0} vs {:.0}",
                wait_rand4.avg_ct_suspended, rand2.avg_ct_suspended
            ),
        ),
        check(
            "T4: random wait-resched costs far more restarts (paper's caveat)",
            wait_rand4.counters.restarts_from_wait > 2 * wait_util4.counters.restarts_from_wait,
            format!(
                "{} vs {}",
                wait_rand4.counters.restarts_from_wait, wait_util4.counters.restarts_from_wait
            ),
        ),
        check(
            "T5: both wait strategies beat NoRes under util-based initial",
            wait_util5.avg_wct() < t5[0].avg_wct() && wait_rand5.avg_wct() < t5[0].avg_wct(),
            format!(
                "WCT {:.1} / {:.1} vs {:.1}",
                wait_util5.avg_wct(),
                wait_rand5.avg_wct(),
                t5[0].avg_wct()
            ),
        ),
        check(
            "HS: high-suspension scenario has a much higher suspend rate",
            hs[0].suspend_rate > 2.0 * nores1.suspend_rate,
            format!(
                "{:.1}% vs {:.2}%",
                hs[0].suspend_rate * 100.0,
                nores1.suspend_rate * 100.0
            ),
        ),
        check(
            "HS: rescheduling strongly cuts AvgCT(susp) (paper: -44%)",
            reduction(hs[0].avg_ct_suspended, hs[1].avg_ct_suspended) > 0.3,
            format!(
                "{:+.0}%",
                -reduction(hs[0].avg_ct_suspended, hs[1].avg_ct_suspended) * 100.0
            ),
        ),
        check(
            "F2: suspension times are heavy-tailed (median well below mean)",
            median < mean && tail > 0.05,
            format!(
                "median {median:.0}, mean {mean:.0}, tail {:.0}%",
                tail * 100.0
            ),
        ),
        check(
            "F4: mean utilization in the paper's typical band",
            (20.0..=60.0).contains(&mean_util),
            format!("{mean_util:.1}%"),
        ),
    ]
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
    let (site, trace) = build_scenario(Load::High, ctx.scale);
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
    let (site, trace) = build_scenario(Load::High, ctx.scale);
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
    let (site, trace) = build_scenario(Load::High, ctx.scale);
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
    for (label, load) in [("normal load", Load::Normal), ("high load", Load::High)] {
        let (site, trace) = build_scenario(load, ctx.scale);
        let results = ctx.run_strategies(
            &site,
            &trace,
            InitialKind::RoundRobin,
            &[
                StrategyKind::NoRes,
                StrategyKind::ResSusUtil,
                StrategyKind::ResSusQueue,
                StrategyKind::ResSusRand,
            ],
        );
        print_comparison(&format!("Queue-policy ablation: {label}"), &results, &[]);
        print_reductions(&results);
    }
    Ok(Vec::new())
}

/// The multi-metric "smart" policy the paper's §5 future work sketches
/// (utilization, queue length and predicted wait) against the published
/// strategies, plus a weight sweep showing each signal's marginal value.
pub fn smart_policy(ctx: &Ctx) -> Result<Vec<ShapeCheck>, String> {
    let (site, trace) = build_scenario(Load::High, ctx.scale);
    let results = ctx.run_strategies(
        &site,
        &trace,
        InitialKind::RoundRobin,
        &[
            StrategyKind::NoRes,
            StrategyKind::ResSusWaitUtil,
            StrategyKind::ResSusWaitRand,
            StrategyKind::ResSusWaitSmart,
        ],
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
        ..ctx.config(InitialKind::RoundRobin, StrategyKind::ResSusWaitSmart)
    };
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
    let mut high = None;
    for (label, load) in [("normal load", Load::Normal), ("high load", Load::High)] {
        let (site, trace) = build_scenario(load, ctx.scale);
        let results = ctx.run_strategies(
            &site,
            &trace,
            InitialKind::RoundRobin,
            &[
                StrategyKind::NoRes,
                StrategyKind::ResSusUtil,
                StrategyKind::MigrateSusUtil,
                StrategyKind::DupSusUtil,
            ],
        );
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
        high = Some((site, trace));
    }

    // Where does migration overtake restarting? Sweep the transfer delay
    // (the slowdown stays at the paper's mid-range 15%).
    const DELAYS_MIN: [u64; 6] = [0, 15, 30, 60, 120, 480];
    let (site, trace) = high.expect("the loop ends on high load");
    let mut configs = vec![ctx.config(InitialKind::RoundRobin, StrategyKind::ResSusUtil)];
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
    let (site, trace) = build_scenario(Load::High, ctx.scale);
    let mut cells = vec![
        ("1 VPM x 20 pools (paper setup)".to_string(), None),
        (
            "2 VPMs, confined".to_string(),
            Some(VpmTopology::contiguous(20, 2)),
        ),
        (
            "4 VPMs, confined".to_string(),
            Some(VpmTopology::contiguous(20, 4)),
        ),
    ];
    cells.extend([0u64, 30, 120, 480].map(|overhead| {
        (
            format!("4 VPMs, inter-site (+{overhead}m WAN)"),
            Some(
                VpmTopology::contiguous(20, 4).with_inter_site(SimDuration::from_minutes(overhead)),
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
    let (site, trace) = build_scenario(Load::Normal, ctx.scale);
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
    let (site, trace) = build_scenario(Load::Normal, ctx.scale);

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
    for (name, params, halved) in [
        ("normal", ScenarioParams::normal_week(scale), false),
        ("high", ScenarioParams::normal_week(scale), true),
        (
            "highsus",
            ScenarioParams::high_suspension_week(scale),
            false,
        ),
    ] {
        let site = params.build_site();
        let site = if halved { site.halved() } else { site };
        let trace = params.generate_trace();
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
        for (result, diagnostics, elapsed) in &cells {
            if let Some(line) = diagnostics {
                println!("{line}");
            }
            println!(
                "{:<16} {:>8.2}% {:>12.1} {:>10.1} {:>9.1} {:>8.1} {:>9.1} {:>8} {:>8}  ({:.1}s, {} events)",
                result.strategy.name(),
                result.suspend_rate * 100.0,
                result.avg_ct_suspended,
                result.avg_ct_all,
                result.avg_st,
                result.avg_wct(),
                result.avg_wait_all,
                result.counters.restarts_from_suspend,
                result.counters.restarts_from_wait,
                elapsed.as_secs_f64(),
                result.counters.events,
            );
        }
    }
    Ok(Vec::new())
}
