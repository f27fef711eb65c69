//! The four workloads and one repetition of each.
//!
//! Every workload is a closed loop: a repetition runs its cells one after
//! another, each to completion, on one thread (`stream_pools` adds one
//! worker thread). A repetition sets up, runs, checks and digests every
//! cell; [`crate::measure`] runs one repetition of many weeks (or, for
//! `stream_pools`, many repetitions of one run).
//!
//! The trace workloads run several independent weeks per repetition. One
//! week's cost depends heavily on its seed (how its owner bursts overlap
//! decides how many preemptions and wait checks follow): over 50 weeks of
//! `table2_high` a week's jobs/s ranged from 164k to 621k with the middle
//! half 0.34 of the median wide, skewed towards slow weeks. The metrics
//! are therefore medians over many weeks. Week 0 is the `--seed` week
//! itself.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use netbatch_bench::runner::Load;
use netbatch_core::experiment::ExperimentResult;
use netbatch_core::observer::{InvariantChecker, SimObserver};
use netbatch_core::policy::{InitialKind, StrategyKind};
use netbatch_core::provenance::SpanRecorder;
use netbatch_core::simulator::{Backend, RunCounters, SimConfig, SimOutput, Simulator};
use netbatch_core::telemetry::Telemetry;
use netbatch_sim_engine::time::SimDuration;
use netbatch_workload::scenarios::{PerPoolParams, ScenarioParams, SiteSpec};
use netbatch_workload::trace::Trace;

use crate::alloc;
use crate::fnv1a;
use crate::hostspeed;
use crate::layers::{add_folded, CallStats, KindCounter, TimedObserver, TimedPolicy};

/// The paper's five strategies, in table order (NoRes first).
pub const STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::NoRes,
    StrategyKind::ResSusUtil,
    StrategyKind::ResSusRand,
    StrategyKind::ResSusWaitUtil,
    StrategyKind::ResSusWaitRand,
];

/// The strategy `observed_normal` runs under its observers.
pub const OBSERVED_STRATEGY: StrategyKind = StrategyKind::ResSusWaitUtil;

/// Sampling interval of `observed_normal`, in simulated minutes. Sampling
/// runs until the last job ends, and that instant is set by the trace's
/// heavy runtime tail; at one-minute sampling it would dominate the run
/// and swing it several-fold from seed to seed.
pub const OBSERVED_SAMPLE_MINUTES: u64 = 60;

/// Worker shards of the `stream_pools` run.
pub const STREAM_SHARDS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's normal-load week, five strategies: dispatch-bound.
    Table1Normal,
    /// The same trace on the halved-core site: preemption- and policy-bound.
    Table2High,
    /// The parallel streaming kernel with shard-local generation.
    StreamPools,
    /// One normal-load cell with sampling and three observers attached.
    ObservedNormal,
}

/// The cells of a trace workload.
#[derive(Debug, Clone, Copy)]
struct TraceCells {
    load: Load,
    strategies: &'static [StrategyKind],
    observed: bool,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Table1Normal,
        Workload::Table2High,
        Workload::StreamPools,
        Workload::ObservedNormal,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Normal => "table1_normal",
            Workload::Table2High => "table2_high",
            Workload::StreamPools => "stream_pools",
            Workload::ObservedNormal => "observed_normal",
        }
    }

    /// Wall seconds one plain week (one run for `stream_pools`) at
    /// [`Sizes::BENCH`] takes on average on the quiet 2-core host the sizes
    /// were chosen on; for `stream_pools` (0.55 s quiet) more, as its two
    /// threads slow down most on a busy host. It only converts `--seconds`
    /// into a fixed count of weeks or runs, which never depends on how fast
    /// they actually run.
    pub fn nominal_week_s(self) -> f64 {
        match self {
            Workload::Table1Normal => 0.56,
            Workload::Table2High => 0.75,
            Workload::StreamPools => 0.7,
            Workload::ObservedNormal => 0.33,
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn cells(self) -> Option<TraceCells> {
        let (load, strategies, observed): (_, &'static [StrategyKind], _) = match self {
            Workload::Table1Normal => (Load::Normal, &STRATEGIES, false),
            Workload::Table2High => (Load::High, &STRATEGIES, false),
            Workload::ObservedNormal => (Load::Normal, &[OBSERVED_STRATEGY], true),
            Workload::StreamPools => return None,
        };
        Some(TraceCells {
            load,
            strategies,
            observed,
        })
    }

    /// Runs one repetition.
    pub fn rep(self, sizes: &Sizes, seed: u64, mode: Mode) -> Rep {
        match self.cells() {
            Some(cells) => trace_rep(cells, sizes, seed, mode),
            None => stream_rep(sizes, seed, mode, STREAM_SHARDS),
        }
    }

    /// A reference repetition a traced run compares against:
    /// `stream_pools` at one shard (for the measured speedup) and
    /// `observed_normal`'s cells without sampling or observers (for the
    /// observer overhead).
    pub fn reference_rep(self, sizes: &Sizes, seed: u64) -> Option<Rep> {
        match self {
            Workload::StreamPools => Some(stream_rep(sizes, seed, Mode::Plain, 1)),
            Workload::ObservedNormal => {
                let cells = TraceCells {
                    observed: false,
                    ..self.cells()?
                };
                Some(trace_rep(cells, sizes, seed, Mode::Plain))
            }
            Workload::Table1Normal | Workload::Table2High => None,
        }
    }

    /// Kernel events by kind over the workload's cells, from one untimed
    /// pass with a [`KindCounter`] attached. Empty for `stream_pools`,
    /// whose kernel takes no observers.
    pub fn kernel_event_counts(self, sizes: &Sizes, seed: u64) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        let Some(cells) = self.cells() else {
            return counts;
        };
        for week in 0..sizes.weeks {
            let params = scenario(sizes, week_seed(seed, week));
            let site = site_for(&params, cells.load);
            let trace = params.generate_trace();
            for &strategy in cells.strategies {
                let config = trace_config(strategy, cells.observed);
                let mut sim = Simulator::new(&site, trace.to_specs(), config);
                sim.attach_observer(Box::new(KindCounter::default()));
                let out = sim.run_to_completion();
                if let Some(counter) = out.observer::<KindCounter>() {
                    for (&kind, &n) in counter.counts() {
                        *counts.entry(kind).or_default() += n;
                    }
                }
            }
        }
        counts
    }
}

/// Input sizes of the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `ScenarioParams::normal_week` scale of the three trace workloads.
    pub table_scale: f64,
    /// Independent weeks per repetition of the trace workloads; a
    /// measured run makes more when `--seconds` buys more.
    pub weeks: u32,
    /// Pools of the streaming site.
    pub stream_pools: u16,
    /// `PerPoolParams` scale of the streaming site.
    pub stream_scale: f64,
    /// Streaming horizon, in simulated minutes.
    pub stream_horizon: u64,
}

impl Sizes {
    /// The measured sizes. Shrinking a week changes what dominates it:
    /// from scale 1.0 to 0.05 the submit handlers' share of table2_high's
    /// run time grows from 0.26 to 0.42 and the per-job cost falls 2-2.6x, as
    /// pools drop from 160-680 machines to 8-34 and wait queues shorten
    /// 20-fold. Scale 0.25 keeps pools of 40-170 machines and queues in
    /// the thousands. Full-scale weeks spread too much from seed to seed
    /// to be averaged within a run; at 0.25 a run affords a few dozen.
    pub const BENCH: Sizes = Sizes {
        table_scale: 0.25,
        weeks: 4,
        stream_pools: 200,
        stream_scale: 0.6,
        stream_horizon: 2 * 24 * 60,
    };

    /// Tiny sizes for the benchmark's own tests.
    pub const SMOKE: Sizes = Sizes {
        table_scale: 0.01,
        weeks: 2,
        stream_pools: 8,
        stream_scale: 0.25,
        stream_horizon: 2 * 24 * 60,
    };
}

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No instrumentation beyond the allocator counters.
    Plain,
    /// Kernel profiler on, timing policy decorator and observer wrappers.
    Traced,
}

/// What one cell simulated: identical on every run of the same inputs,
/// whatever the instrumentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDigest {
    /// Strategy name, or `stream`.
    pub label: &'static str,
    /// The run's counters.
    pub counters: RunCounters,
    /// The Table row (trace cells) or pool totals (stream), plus hashes
    /// of the rendered observer outputs.
    pub detail: String,
}

/// What one week of a trace workload, or one `stream_pools` run,
/// measured: the unit the end-to-end metrics take their medians over.
#[derive(Debug, Default, Clone, Copy)]
pub struct Week {
    /// Scenario parameters to constructed simulators, in seconds.
    pub setup_s: f64,
    /// Run phases of the week's cells, in seconds (NaN if a cell panicked).
    pub run_s: f64,
    /// Host slowness around the week: the mean of the
    /// [`hostspeed::factor`] probes taken right before and right after it.
    pub host: f64,
    /// Jobs completed by the week's cells that passed their checks.
    pub completed: u64,
    /// Heap allocations during the week's run phases.
    pub allocs: u64,
    /// Peak live heap over the week, in bytes.
    pub peak_bytes: u64,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Per week (one entry for `stream_pools`).
    pub weeks: Vec<Week>,
    /// Run phase per cell, in seconds (NaN for a cell that panicked).
    pub run_s: Vec<f64>,
    /// Jobs generated, over all weeks.
    pub generated: u64,
    /// Jobs submitted, summed over cells.
    pub submitted: u64,
    /// Jobs completed by cells that passed their checks.
    pub completed: u64,
    /// Jobs of cells that failed a check or panicked.
    pub failed: u64,
    /// Heap allocations during run phases.
    pub run_allocs: u64,
    /// One digest per cell.
    pub digest: Vec<CellDigest>,
    /// Failed checks and panics, one message each.
    pub errors: Vec<String>,
    /// Table results of week 0's cells, for the paper readout.
    pub results: Vec<ExperimentResult>,
    /// Layer figures.
    pub layers: Layers,
}

/// Per-layer figures of one repetition, in seconds. Times are filled by traced repetitions; counts by every
/// repetition.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Trace generation.
    pub generate_s: f64,
    /// `Trace::to_specs`, summed over cells.
    pub to_specs_s: f64,
    /// `Simulator::new` (plus observer attachment), summed over cells.
    pub new_s: f64,
    /// Largest live heap right after a cell's setup, in bytes.
    pub setup_live_bytes: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Kernel profile, seconds per `lane;phase`.
    pub profile: BTreeMap<String, f64>,
    /// Policy decisions taken.
    pub policy_calls: u64,
    /// Seconds inside policy decisions.
    pub policy_busy_s: f64,
    /// Decisions that moved a job.
    pub policy_moves: u64,
    /// Observer callbacks, over all observers.
    pub observer_calls: u64,
    /// Seconds inside each observer: checker, telemetry, spans.
    pub observer_busy_s: [f64; 3],
    /// Rendering the Prometheus exposition and the spans JSONL.
    pub render_s: f64,
    /// Job starts over all pools.
    pub starts: u64,
    /// Suspensions over all pools.
    pub suspensions: u64,
    /// Wait-queue entries over all pools.
    pub enqueues: u64,
    /// Longest wait queue in any pool.
    pub peak_queue: u64,
}

impl Rep {
    /// Run-phase seconds of the whole repetition.
    pub fn total_run_s(&self) -> f64 {
        self.run_s.iter().sum()
    }

    /// Run-phase seconds of the whole repetition on a quiet host: each
    /// week's run time divided by the host slowness around it.
    pub fn quiet_run_s(&self) -> f64 {
        self.weeks.iter().map(|w| w.run_s / w.host).sum()
    }
}

impl Layers {
    fn add_output(&mut self, out: &SimOutput) {
        self.events += out.counters.events;
        for (_, s) in &out.pool_stats {
            self.starts += s.starts;
            self.suspensions += s.suspensions;
            self.enqueues += s.enqueues;
            self.peak_queue = self.peak_queue.max(s.peak_queue as u64);
        }
        if let Some(profile) = &out.profile {
            add_folded(&profile.render_folded(), &mut self.profile);
        }
    }
}

/// Seed of week `week` of a run seeded with `seed`: the seed itself for
/// week 0, SplitMix64 successors after it.
pub fn week_seed(seed: u64, week: u32) -> u64 {
    if week == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(u64::from(week).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scenario parameters of one week of the trace workloads.
fn scenario(sizes: &Sizes, seed: u64) -> ScenarioParams {
    ScenarioParams {
        seed,
        ..ScenarioParams::normal_week(sizes.table_scale)
    }
}

fn site_for(params: &ScenarioParams, load: Load) -> SiteSpec {
    match load {
        Load::Normal => params.build_site(),
        Load::High => params.build_site().halved(),
    }
}

fn trace_config(strategy: StrategyKind, observed: bool) -> SimConfig {
    let mut config = SimConfig::new(InitialKind::RoundRobin, strategy);
    if observed {
        config.sample_interval = Some(SimDuration::from_minutes(OBSERVED_SAMPLE_MINUTES));
    }
    config
}

/// Runs `cell` under `catch_unwind` and books its jobs: completed when it
/// returns `Ok`, all failed when it fails a check or panics.
fn book_cell(
    rep: &mut Rep,
    label: &str,
    submitted: u64,
    cell: impl FnOnce(&mut Rep) -> Result<u64, String>,
) {
    rep.submitted += submitted;
    let timed = rep.run_s.len();
    let outcome = catch_unwind(AssertUnwindSafe(|| cell(&mut *rep)));
    if rep.run_s.len() == timed {
        // Keeps later cells aligned across repetitions.
        rep.run_s.push(f64::NAN);
    }
    match outcome {
        Ok(Ok(completed)) => rep.completed += completed,
        Ok(Err(msg)) => {
            rep.failed += submitted;
            rep.errors.push(format!("{label}: {msg}"));
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            rep.failed += submitted;
            rep.errors.push(format!("{label}: panicked: {msg}"));
        }
    }
}

/// One repetition of a trace workload: per week, generate the trace once,
/// then run the strategies one after another on the load's site.
fn trace_rep(cells: TraceCells, sizes: &Sizes, seed: u64, mode: Mode) -> Rep {
    let mut rep = Rep::default();
    let mut probe = hostspeed::factor();
    for week in 0..sizes.weeks {
        alloc::reset_peak();
        let start = Instant::now();
        let params = scenario(sizes, week_seed(seed, week));
        let site = site_for(&params, cells.load);
        let trace = params.generate_trace();
        let generate_s = start.elapsed().as_secs_f64();
        rep.layers.generate_s += generate_s;
        rep.generated += trace.len() as u64;
        let before = (rep.run_s.len(), rep.completed, rep.run_allocs);
        rep.weeks.push(Week {
            setup_s: generate_s,
            ..Week::default()
        });
        for &strategy in cells.strategies {
            book_cell(&mut rep, strategy.name(), trace.len() as u64, |rep| {
                let result = trace_cell(rep, &site, &trace, strategy, cells.observed, mode)?;
                let completed = result.counters.completed;
                if week == 0 {
                    rep.results.push(result);
                }
                Ok(completed)
            });
        }
        let next = hostspeed::factor();
        let run_s = rep.run_s[before.0..].iter().sum();
        let (completed, allocs) = (rep.completed - before.1, rep.run_allocs - before.2);
        let w = rep.weeks.last_mut().expect("pushed above");
        w.run_s = run_s;
        w.host = (probe + next) / 2.0;
        w.completed = completed;
        w.allocs = allocs;
        w.peak_bytes = alloc::peak_bytes();
        probe = next;
    }
    rep
}

/// The observers of `observed_normal`, in attach order: checker,
/// telemetry, spans (the order `Simulator::new` uses for the same flags).
fn observers(config: &SimConfig) -> [Box<dyn SimObserver>; 3] {
    let (strategy, initial) = (config.strategy.name(), config.initial.name());
    [
        Box::new(InvariantChecker::new()),
        Box::new(Telemetry::new(strategy, initial)),
        Box::new(SpanRecorder::new(strategy, initial)),
    ]
}

/// Sets up, runs, checks and digests one trace cell.
fn trace_cell(
    rep: &mut Rep,
    site: &SiteSpec,
    trace: &Trace,
    strategy: StrategyKind,
    observed: bool,
    mode: Mode,
) -> Result<ExperimentResult, String> {
    let traced = mode == Mode::Traced;
    let submitted = trace.len() as u64;
    let t0 = Instant::now();
    let specs = trace.to_specs();
    let t1 = Instant::now();
    let mut config = trace_config(strategy, observed);
    config.profile = traced;
    let policy_stats = Arc::new(CallStats::default());
    let mut sim = if traced {
        let policy = TimedPolicy::new(strategy.build(), Arc::clone(&policy_stats));
        Simulator::with_policy(site, specs, config.clone(), Box::new(policy))
    } else {
        Simulator::new(site, specs, config.clone())
    };
    let observer_stats: [Arc<CallStats>; 3] = Default::default();
    if observed {
        for (obs, stats) in observers(&config).into_iter().zip(&observer_stats) {
            if traced {
                sim.attach_observer(Box::new(TimedObserver::new(obs, Arc::clone(stats))));
            } else {
                sim.attach_observer(obs);
            }
        }
    }
    let t2 = Instant::now();
    if let Some(week) = rep.weeks.last_mut() {
        week.setup_s += (t2 - t0).as_secs_f64();
    }
    rep.layers.to_specs_s += (t1 - t0).as_secs_f64();
    rep.layers.new_s += (t2 - t1).as_secs_f64();
    rep.layers.setup_live_bytes = rep.layers.setup_live_bytes.max(alloc::live_bytes());

    let allocs_before = alloc::allocations();
    let t3 = Instant::now();
    let mut out = sim.run_to_completion();
    let rendered = if observed {
        let r0 = Instant::now();
        let prom = out
            .observer::<Telemetry>()
            .ok_or("telemetry observer missing from the output")?
            .render_prom();
        let jsonl = out
            .observer::<SpanRecorder>()
            .ok_or("span recorder missing from the output")?
            .render_jsonl();
        rep.layers.render_s += r0.elapsed().as_secs_f64();
        Some((prom, jsonl))
    } else {
        None
    };
    rep.run_s.push(t3.elapsed().as_secs_f64());
    rep.run_allocs += alloc::allocations() - allocs_before;

    rep.layers.add_output(&out);
    rep.layers.policy_calls += policy_stats.calls();
    rep.layers.policy_busy_s += policy_stats.busy_s();
    rep.layers.policy_moves += policy_stats.moves();
    for (busy, stats) in rep.layers.observer_busy_s.iter_mut().zip(&observer_stats) {
        *busy += stats.busy_s();
        rep.layers.observer_calls += stats.calls();
    }

    let c = out.counters;
    if c.completed + c.unrunnable != submitted {
        return Err(format!(
            "completed {} + unrunnable {} != submitted {submitted}",
            c.completed, c.unrunnable
        ));
    }
    if c.unrunnable != 0 {
        return Err(format!(
            "{} unrunnable jobs on a generated trace",
            c.unrunnable
        ));
    }
    let mut hashes = String::new();
    if let Some((prom, jsonl)) = &rendered {
        check_observers(&out)?;
        hashes = format!(
            " | prom {:016x} spans {:016x}",
            fnv1a(prom.as_bytes()),
            fnv1a(jsonl.as_bytes())
        );
    }
    out.observers.clear();
    let result = ExperimentResult::from_output(InitialKind::RoundRobin, strategy, out);
    rep.digest.push(CellDigest {
        label: strategy.name(),
        counters: c,
        detail: format!("{}{hashes}", result.paper_row()[1..].join(" | ")),
    });
    Ok(result)
}

/// The observers of `observed_normal` must end clean: the checker saw the
/// run (it panics on any violated invariant), and no span is left open.
fn check_observers(out: &SimOutput) -> Result<(), String> {
    let checker = out
        .observer::<InvariantChecker>()
        .ok_or("invariant checker missing from the output")?;
    if checker.events_seen() == 0 {
        return Err("invariant checker saw no events".into());
    }
    let telemetry = out.observer::<Telemetry>().ok_or("telemetry missing")?;
    if telemetry.open_spans() != 0 || telemetry.unmatched_ends() != 0 {
        return Err(format!(
            "telemetry ended with {} open spans and {} unmatched ends",
            telemetry.open_spans(),
            telemetry.unmatched_ends()
        ));
    }
    let spans = out.observer::<SpanRecorder>().ok_or("spans missing")?;
    if spans.open_count() != 0 {
        return Err(format!(
            "span recorder ended with {} open spans",
            spans.open_count()
        ));
    }
    Ok(())
}

/// One repetition of `stream_pools` at `shards` worker shards.
fn stream_rep(sizes: &Sizes, seed: u64, mode: Mode, shards: usize) -> Rep {
    let probe = hostspeed::factor_two_threads();
    alloc::reset_peak();
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let p = PerPoolParams {
        seed,
        ..PerPoolParams::new(sizes.stream_pools, sizes.stream_scale, sizes.stream_horizon)
    };
    let site = p.build_site();
    let workload = p.build_workload();
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.backend = Backend::Sharded { shards };
    config.profile = mode == Mode::Traced;
    let sim = Simulator::new(&site, Vec::new(), config);
    let setup_s = t0.elapsed().as_secs_f64();
    rep.layers.setup_live_bytes = alloc::live_bytes();

    // Jobs are generated inside the run, so the submitted count is only
    // known afterwards; a panicking run books the expected count instead.
    let expected = p.expected_jobs();
    let mut out = None;
    book_cell(&mut rep, "stream", expected.round() as u64, |rep| {
        let allocs_before = alloc::allocations();
        let t1 = Instant::now();
        let o = sim.run_streaming(&workload, p.seed);
        rep.run_s.push(t1.elapsed().as_secs_f64());
        rep.run_allocs = alloc::allocations() - allocs_before;
        let c = o.counters;
        let jobs = c.completed + c.unrunnable;
        if c.unrunnable != 0 {
            return Err(format!(
                "{} unrunnable jobs on a generated workload",
                c.unrunnable
            ));
        }
        if (jobs as f64 - expected).abs() > 0.1 * expected {
            return Err(format!(
                "generated {jobs} jobs, expected about {expected:.0}"
            ));
        }
        out = Some(o);
        Ok(c.completed)
    });
    if let Some(o) = out {
        // Book what the run actually generated in place of the estimate.
        let jobs = o.counters.completed + o.counters.unrunnable;
        rep.submitted = jobs;
        rep.generated = jobs;
        rep.layers.add_output(&o);
        let l = &rep.layers;
        rep.digest.push(CellDigest {
            label: "stream",
            counters: o.counters,
            detail: format!(
                "starts {} suspensions {} enqueues {} peak_queue {} end {}",
                l.starts, l.suspensions, l.enqueues, l.peak_queue, o.end_time
            ),
        });
    }
    rep.weeks.push(Week {
        setup_s,
        run_s: rep.run_s[0],
        host: (probe + hostspeed::factor_two_threads()) / 2.0,
        completed: rep.completed,
        allocs: rep.run_allocs,
        peak_bytes: alloc::peak_bytes(),
    });
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_cell_books_its_jobs_as_failed() {
        let mut rep = Rep::default();
        book_cell(&mut rep, "ok", 10, |rep| {
            rep.run_s.push(1.0);
            Ok(10)
        });
        book_cell(&mut rep, "boom", 7, |_| panic!("injected"));
        book_cell(&mut rep, "check", 5, |_| Err("wrong".into()));
        assert_eq!((rep.submitted, rep.completed, rep.failed), (22, 10, 12));
        assert_eq!(rep.errors.len(), 2);
        assert!(rep.errors[0].contains("boom: panicked: injected"));
        assert_eq!(rep.run_s.len(), 3, "failed cells keep later cells aligned");
    }

    #[test]
    fn week_zero_is_the_seed_itself() {
        assert_eq!(week_seed(42, 0), 42);
        assert_ne!(week_seed(42, 1), week_seed(42, 2));
        assert_ne!(week_seed(42, 1), week_seed(43, 1));
    }
}
