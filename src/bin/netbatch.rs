//! `netbatch` — the command-line front end.
//!
//! ```text
//! netbatch generate --scenario normal --scale 0.1 --out trace.csv
//! netbatch analyze trace.csv
//! netbatch simulate --scenario normal --strategy ResSusWaitUtil
//! netbatch simulate --trace trace.csv --strategy ResSusUtil --initial util
//! ```
//!
//! Everything the library exposes for experiments — scenario generation,
//! trace analysis, policy simulation — without writing Rust. Argument
//! parsing is hand-rolled (the workspace carries no CLI dependency).

use std::cell::Cell;
use std::process::ExitCode;

use netbatch::core::experiment::ExperimentResult;
use netbatch::core::faults::{FaultModel, LifecycleModel, ResiliencePolicy};
use netbatch::core::observer::TraceRecorder;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::provenance::{perfetto_from_jsonl, SpanQuery, SpanRecorder, SpansFile};
use netbatch::core::simulator::{Backend, SimConfig, Simulator};
use netbatch::core::telemetry::Telemetry;
use netbatch::metrics::export::validate_exposition;
use netbatch::sim_engine::time::SimDuration;
use netbatch::workload::analysis::TraceAnalysis;
use netbatch::workload::io::{read_csv, write_csv};
use netbatch::workload::scenarios::{PerPoolParams, ScenarioParams, SiteSpec};
use netbatch::workload::trace::Trace;

const USAGE: &str = "\
netbatch — dynamic rescheduling on a NetBatch-like platform (Middleware 2010 reproduction)

USAGE:
  netbatch generate [--scenario normal|highsus|year] [--scale S] [--seed N] --out FILE
  netbatch analyze FILE [--scale S]
  netbatch simulate [--trace FILE | --scenario NAME] [--scale S] [--seed N]
                    [--strategy NAME] [--initial rr|util] [--high-load]
                    [--restart-overhead MIN] [--staleness MIN] [--max-restarts N]
                    [--sample] [--series-out FILE] [--trace-out FILE|-]
                    [--metrics-out FILE|-] [--spans-out FILE|-]
                    [--profile-out FILE|-] [--check-invariants]
                    [--fault-mtbf HOURS] [--fault-mttr HOURS]
                    [--fault-pool-outages N] [--fault-flaky FRAC] [--hardened]
                    [--lifecycle] [--lifecycle-drain-lead MIN]
                    [--lifecycle-maintenance-every HOURS]
                    [--lifecycle-maintenance-duration HOURS]
                    [--lifecycle-rolling-waves N] [--lifecycle-rolling-fraction FRAC]
                    [--lifecycle-cordon-below FRAC] [--health-aware]
                    [--shards N]
                    [--stream-workload] [--pools N] [--horizon week|year|MINUTES]
  netbatch report   [--trace FILE | --scenario NAME] [--scale S] [--seed N]
                    [--strategy NAME] [--initial rr|util] [--high-load]
                    [--out FILE] [--csv-prefix PREFIX] [--metrics-out FILE]
  netbatch trace    --in FILE|- [--job N] [--pool N] [--cause TYPE]
                    [--why JOB] [--perfetto-out FILE|-]
  netbatch strategies
  netbatch help

Strategies: NoRes ResSusUtil ResSusRand ResSusWaitUtil ResSusWaitRand
            ResSusQueue ResSusWaitSmart MigrateSusUtil DupSusUtil

`--scale` scales the site and arrival rates together (default 0.1).
`--metrics-out` writes the run's telemetry as a Prometheus text
exposition. `report` runs one telemetry-instrumented simulation and
renders a markdown report (Table-1 summary, Figure 2 suspension CDF,
Figure 4 timeline) to `--out` (default report.md); `--csv-prefix P`
also writes P_cdf.csv, P_timeline.csv and P_pools.csv.
`--fault-mtbf` turns on the stochastic fault model (per-machine mean time
between failures, in hours); `--fault-mttr` sets mean repair time (default
12h). `--hardened` enables the resilient rescheduling policy (retry
budgets, exponential backoff, pool blacklisting).
`--lifecycle` turns on the machine-lifecycle model: scheduled maintenance
windows, rolling-update waves and health cordons, each preceded by a
drain during which the machine accepts no new work. The `--lifecycle-*`
knobs tune it (drain lead default 60 min, maintenance every 48h for 2h,
1 rolling wave over a quarter of each pool, cordon below health 0.5).
A tuning flag needs its switch: `--fault-mttr` and `--fault-pool-outages`
need `--fault-mtbf`, `--fault-flaky` needs `--fault-mtbf` or the
lifecycle model, and the `--lifecycle-*` knobs need `--lifecycle` or
`--health-aware`.
`--health-aware` makes scheduling weight pools by health-adjusted
effective capacity and proactively evacuates jobs off draining machines
before the kill deadline (implies `--lifecycle` and `--hardened`).
`--shards N` runs a `--stream-workload` run on N worker threads
(default 1; at most one per pool); output is byte-identical at any
shard count. Materialized runs always use the serial executor and
reject `--shards`.
`--stream-workload` runs the streaming pipeline instead of a
materialized trace: a pool-major workload (`--pools N` pools, default
20, arrival rates scaled by `--scale`) is generated shard-locally epoch
by epoch over `--horizon` (week, year, or minutes; default week), so
peak memory tracks in-flight jobs rather than total jobs — year-scale
runs fit in tens of MiB. Streaming supports only `--strategy NoRes`
with the round-robin initial scheduler and none of the fault, lifecycle,
restart or staleness knobs; `--sample`, `--series-out`, `--trace-out`
and `--profile-out` work as usual.
`--spans-out` records every job's causal span tree (queue-wait, running,
suspended, backoff, migrating segments, each with the typed cause that
started it) plus the policy/evacuation/fault decision audit, as JSONL.
`--profile-out` writes the kernel self-profile (wall time per event kind
per execution lane) as folded stacks, flamegraph-ready. `trace` queries a
spans file: filter by `--job`/`--pool`/`--cause`, print a `--why JOB`
decision audit (the exact ranking inputs behind each rescheduling,
evacuation and blacklist decision), or export Chrome/Perfetto JSON with
`--perfetto-out` (jobs as tracks, pools as process groups). Sinks named
`-` write to stdout for pipelines; at most one sink may claim stdout.
The paper's full tables live in the bench harness:
  cargo run --release -p netbatch-bench --bin repro
";

/// A parsed command line. One value exists per process, so the variant
/// size spread (Simulate carries every knob) is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Generate {
        scenario: String,
        scale: f64,
        seed: Option<u64>,
        out: String,
    },
    Analyze {
        file: String,
        scale: f64,
    },
    Simulate {
        trace: Option<String>,
        scenario: String,
        scale: f64,
        seed: Option<u64>,
        strategy: StrategyKind,
        initial: InitialKind,
        high_load: bool,
        restart_overhead: u64,
        staleness: u64,
        max_restarts: Option<u32>,
        sample: bool,
        series_out: Option<String>,
        trace_out: Option<String>,
        metrics_out: Option<String>,
        spans_out: Option<String>,
        profile_out: Option<String>,
        check_invariants: bool,
        // Tuning flags are `None` when absent, and present only when their
        // switch is on: `--fault-mtbf` for the fault model's, `--lifecycle`
        // or `--health-aware` for the lifecycle model's, and any of those
        // three for `--fault-flaky`.
        fault_mtbf: Option<f64>,
        fault_mttr: Option<f64>,
        fault_pool_outages: Option<u32>,
        fault_flaky: Option<f64>,
        hardened: bool,
        lifecycle: bool,
        lifecycle_drain_lead: Option<u64>,
        lifecycle_maintenance_every: Option<f64>,
        lifecycle_maintenance_duration: Option<f64>,
        lifecycle_rolling_waves: Option<u32>,
        lifecycle_rolling_fraction: Option<f64>,
        lifecycle_cordon_below: Option<f64>,
        health_aware: bool,
        backend: Backend,
        stream_workload: bool,
        pools: Option<u64>,
        horizon: Option<u64>,
    },
    Report {
        trace: Option<String>,
        scenario: String,
        scale: f64,
        seed: Option<u64>,
        strategy: StrategyKind,
        initial: InitialKind,
        high_load: bool,
        out: String,
        csv_prefix: Option<String>,
        metrics_out: Option<String>,
    },
    Trace {
        input: String,
        job: Option<u64>,
        pool: Option<u64>,
        cause: Option<String>,
        why: Option<u64>,
        perfetto_out: Option<String>,
    },
    Strategies,
    Help,
}

fn parse_strategy(name: &str) -> Result<StrategyKind, String> {
    let all = [
        StrategyKind::NoRes,
        StrategyKind::ResSusUtil,
        StrategyKind::ResSusRand,
        StrategyKind::ResSusWaitUtil,
        StrategyKind::ResSusWaitRand,
        StrategyKind::ResSusQueue,
        StrategyKind::ResSusWaitSmart,
        StrategyKind::MigrateSusUtil,
        StrategyKind::DupSusUtil,
    ];
    all.into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown strategy `{name}` (try `netbatch strategies`)"))
}

/// Parses `--shards N`: absent runs the serial backend.
fn parse_backend(shards: Option<u64>) -> Result<Backend, String> {
    match shards {
        None => Ok(Backend::Serial),
        Some(0) => Err("--shards must be at least 1".into()),
        Some(shards) => Ok(Backend::Sharded {
            shards: shards as usize,
        }),
    }
}

/// Parses `--horizon week|year|MINUTES` into simulated minutes.
fn parse_horizon(v: Option<String>) -> Result<Option<u64>, String> {
    let Some(v) = v else { return Ok(None) };
    let minutes = match v.as_str() {
        "week" => 7 * 24 * 60,
        "year" => 365 * 24 * 60,
        other => other.parse().map_err(|_| {
            format!("--horizon expects week, year or a number of minutes, got `{other}`")
        })?,
    };
    if minutes == 0 {
        return Err("--horizon must be at least 1 minute".into());
    }
    Ok(Some(minutes))
}

/// Parses `--scale` (default 0.1). Every subcommand that takes it goes
/// through here: the site and arrival-rate builders need a positive finite
/// factor, so zero, negative, infinite and NaN values are rejected.
fn parse_scale(v: Option<String>) -> Result<f64, String> {
    let Some(v) = v else { return Ok(0.1) };
    match v.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "--scale expects a positive finite number, got `{v}`"
        )),
    }
}

fn parse_initial(name: &str) -> Result<InitialKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "rr" | "round-robin" | "roundrobin" => Ok(InitialKind::RoundRobin),
        "util" | "utilization" | "utilization-based" => Ok(InitialKind::UtilizationBased),
        other => Err(format!("unknown initial scheduler `{other}` (rr|util)")),
    }
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    // Flag scanner shared by the subcommands. Each flag carries a mark set
    // when a subcommand reads it; a flag left unread is unknown to it, or
    // needs the switch named in its second mark, which is off.
    type Flag = (
        String,
        Option<String>,
        Cell<bool>,
        Cell<Option<&'static str>>,
    );
    let mut flags: Vec<Flag> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if let Some(name) = a.strip_prefix("--") {
            let takes_value = !matches!(
                name,
                "sample"
                    | "high-load"
                    | "check-invariants"
                    | "hardened"
                    | "lifecycle"
                    | "health-aware"
                    | "stream-workload"
            );
            if takes_value {
                let v = rest
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                let v = Some(v.to_string());
                flags.push((name.to_string(), v, Cell::new(false), Cell::new(None)));
                i += 2;
            } else {
                flags.push((name.to_string(), None, Cell::new(false), Cell::new(None)));
                i += 1;
            }
        } else {
            positional.push(a.to_string());
            i += 1;
        }
    }
    // Marks every occurrence of `name` read; the first one's value wins.
    let read = |name: &str| -> Option<Option<String>> {
        let mut value = None;
        for (_, v, seen, _) in flags.iter().filter(|(n, ..)| n == name) {
            seen.set(true);
            value.get_or_insert_with(|| v.clone());
        }
        value
    };
    let get = |name: &str| -> Option<String> { read(name).flatten() };
    let has = |name: &str| read(name).is_some();
    let int = |name: &str| -> Result<Option<u64>, String> {
        match get(name) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} expects an integer, got `{v}`")),
            None => Ok(None),
        }
    };
    let fnum = |name: &str| -> Result<Option<f64>, String> {
        match get(name) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
            None => Ok(None),
        }
    };
    // A tuning flag is read only when its switch is on (`gate`: whether it
    // is, and its name). Off, the flag stays unread, and the unread-flag
    // check below rejects it, naming the switch.
    let gated = |(on, switch): (bool, &'static str), name: &str| {
        if !on {
            for (.., needs) in flags.iter().filter(|(n, ..)| n == name) {
                needs.set(Some(switch));
            }
        }
        on
    };
    let int_if = |gate, name: &str| {
        if gated(gate, name) {
            int(name)
        } else {
            Ok(None)
        }
    };
    let fnum_if = |gate, name: &str| {
        if gated(gate, name) {
            fnum(name)
        } else {
            Ok(None)
        }
    };

    let command = match cmd {
        "generate" => Ok(Command::Generate {
            scenario: get("scenario").unwrap_or_else(|| "normal".into()),
            scale: parse_scale(get("scale"))?,
            seed: int("seed")?,
            out: get("out").ok_or("generate needs --out FILE")?,
        }),
        "analyze" => Ok(Command::Analyze {
            file: positional
                .first()
                .cloned()
                .ok_or("analyze needs a trace file argument")?,
            scale: parse_scale(get("scale"))?,
        }),
        "simulate" => {
            let faults = (get("fault-mtbf").is_some(), "--fault-mtbf");
            let lifecycle = (
                has("lifecycle") || has("health-aware"),
                "--lifecycle or --health-aware",
            );
            let flaky = (
                faults.0 || lifecycle.0,
                "--fault-mtbf, --lifecycle or --health-aware",
            );
            Ok(Command::Simulate {
                trace: get("trace"),
                scenario: get("scenario").unwrap_or_else(|| "normal".into()),
                scale: parse_scale(get("scale"))?,
                seed: int("seed")?,
                strategy: parse_strategy(&get("strategy").unwrap_or_else(|| "NoRes".into()))?,
                initial: parse_initial(&get("initial").unwrap_or_else(|| "rr".into()))?,
                high_load: has("high-load"),
                restart_overhead: int("restart-overhead")?.unwrap_or(0),
                staleness: int("staleness")?.unwrap_or(0),
                max_restarts: int("max-restarts")?.map(|v| v as u32),
                sample: has("sample"),
                series_out: get("series-out"),
                trace_out: get("trace-out"),
                metrics_out: get("metrics-out"),
                spans_out: get("spans-out"),
                profile_out: get("profile-out"),
                check_invariants: has("check-invariants"),
                fault_mtbf: fnum("fault-mtbf")?,
                fault_mttr: fnum_if(faults, "fault-mttr")?,
                fault_pool_outages: int_if(faults, "fault-pool-outages")?.map(|v| v as u32),
                fault_flaky: fnum_if(flaky, "fault-flaky")?,
                hardened: has("hardened"),
                lifecycle: has("lifecycle"),
                lifecycle_drain_lead: int_if(lifecycle, "lifecycle-drain-lead")?,
                lifecycle_maintenance_every: fnum_if(lifecycle, "lifecycle-maintenance-every")?,
                lifecycle_maintenance_duration: fnum_if(
                    lifecycle,
                    "lifecycle-maintenance-duration",
                )?,
                lifecycle_rolling_waves: int_if(lifecycle, "lifecycle-rolling-waves")?
                    .map(|v| v as u32),
                lifecycle_rolling_fraction: fnum_if(lifecycle, "lifecycle-rolling-fraction")?,
                lifecycle_cordon_below: fnum_if(lifecycle, "lifecycle-cordon-below")?,
                health_aware: has("health-aware"),
                backend: parse_backend(int("shards")?)?,
                stream_workload: has("stream-workload"),
                pools: int("pools")?,
                horizon: parse_horizon(get("horizon"))?,
            })
        }
        "report" => Ok(Command::Report {
            trace: get("trace"),
            scenario: get("scenario").unwrap_or_else(|| "normal".into()),
            scale: parse_scale(get("scale"))?,
            seed: int("seed")?,
            strategy: parse_strategy(&get("strategy").unwrap_or_else(|| "NoRes".into()))?,
            initial: parse_initial(&get("initial").unwrap_or_else(|| "rr".into()))?,
            high_load: has("high-load"),
            out: get("out").unwrap_or_else(|| "report.md".into()),
            csv_prefix: get("csv-prefix"),
            metrics_out: get("metrics-out"),
        }),
        "trace" => Ok(Command::Trace {
            input: get("in")
                .or_else(|| positional.first().cloned())
                .ok_or("trace needs --in FILE (a spans JSONL from `simulate --spans-out`)")?,
            job: int("job")?,
            pool: int("pool")?,
            cause: get("cause"),
            why: int("why")?,
            perfetto_out: get("perfetto-out"),
        }),
        "strategies" => Ok(Command::Strategies),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command `{other}`; try `netbatch help`")),
    }?;
    match flags.iter().find(|(_, _, seen, _)| !seen.get()) {
        Some((name, .., needs)) => Err(match needs.get() {
            Some(switch) => format!("--{name} needs {switch}, which is not given"),
            None => format!("unknown flag --{name} for `{cmd}`; try `netbatch help`"),
        }),
        None => Ok(command),
    }
}

fn scenario_params(name: &str, scale: f64, seed: Option<u64>) -> Result<ScenarioParams, String> {
    let mut params = match name {
        "normal" => ScenarioParams::normal_week(scale),
        "highsus" | "high-suspension" => ScenarioParams::high_suspension_week(scale),
        "year" => ScenarioParams::year(scale),
        other => return Err(format!("unknown scenario `{other}` (normal|highsus|year)")),
    };
    if let Some(seed) = seed {
        params.seed = seed;
    }
    Ok(params)
}

/// The command's stdout, locked once for the whole run. A reader that
/// quits early (`netbatch simulate | head -n 1`) closes the pipe: the rest
/// of the output is dropped, and the command still finishes, writing its
/// file sinks, and exits 0.
struct Out {
    stdout: std::io::StdoutLock<'static>,
    closed: bool,
}

impl Out {
    fn lock() -> Self {
        Out {
            stdout: std::io::stdout().lock(),
            closed: false,
        }
    }

    /// Writes `text`, unless the reader has closed the pipe.
    fn text(&mut self, text: &str) -> Result<(), String> {
        use std::io::Write;
        if self.closed {
            return Ok(());
        }
        match self.stdout.write_all(text.as_bytes()) {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            written => written.map_err(|e| format!("cannot write to stdout: {e}")),
        }
    }
}

/// `println!` onto an [`Out`], failing the command on a write error other
/// than a closed pipe.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        $out.text(&format!("{}\n", format_args!($($arg)*)))?
    };
}

fn run(cmd: Command) -> Result<(), String> {
    let mut stdout = Out::lock();
    match cmd {
        Command::Help => {
            stdout.text(USAGE)?;
            Ok(())
        }
        Command::Strategies => {
            for s in [
                StrategyKind::NoRes,
                StrategyKind::ResSusUtil,
                StrategyKind::ResSusRand,
                StrategyKind::ResSusWaitUtil,
                StrategyKind::ResSusWaitRand,
                StrategyKind::ResSusQueue,
                StrategyKind::ResSusWaitSmart,
                StrategyKind::MigrateSusUtil,
                StrategyKind::DupSusUtil,
            ] {
                say!(stdout, "{}", s.name());
            }
            Ok(())
        }
        Command::Generate {
            scenario,
            scale,
            seed,
            out,
        } => {
            let params = scenario_params(&scenario, scale, seed)?;
            let trace = params.generate_trace();
            let file =
                std::fs::File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
            write_csv(file, &trace).map_err(|e| e.to_string())?;
            say!(
                stdout,
                "wrote {} jobs ({} scenario, scale {scale}) to {out}",
                trace.len(),
                scenario
            );
            Ok(())
        }
        Command::Analyze { file, scale } => {
            let trace = load_trace(&file)?;
            let site = SiteSpec::paper_site(scale);
            let a = TraceAnalysis::of(&trace);
            say!(stdout, "jobs                 {}", a.jobs);
            say!(
                stdout,
                "high-priority        {} ({:.1}%)",
                a.high_jobs,
                a.high_fraction() * 100.0
            );
            say!(stdout, "pool-restricted      {}", a.restricted_jobs);
            say!(stdout, "mean runtime         {:.0} min", a.mean_runtime);
            say!(stdout, "median runtime       {:.0} min", a.median_runtime);
            say!(stdout, "p99 runtime          {:.0} min", a.p99_runtime);
            say!(stdout, "mean cores           {:.2}", a.mean_cores);
            say!(stdout, "span                 {} min", a.span_minutes);
            say!(
                stdout,
                "offered utilization  {:.1}% (vs paper_site at scale {scale}: {} cores)",
                a.offered_utilization(site.total_cores()) * 100.0,
                site.total_cores()
            );
            Ok(())
        }
        Command::Simulate {
            trace,
            scenario,
            scale,
            seed,
            strategy,
            initial,
            high_load,
            restart_overhead,
            staleness,
            max_restarts,
            sample,
            series_out,
            trace_out,
            metrics_out,
            spans_out,
            profile_out,
            check_invariants,
            fault_mtbf,
            fault_mttr,
            fault_pool_outages,
            fault_flaky,
            hardened,
            lifecycle,
            lifecycle_drain_lead,
            lifecycle_maintenance_every,
            lifecycle_maintenance_duration,
            lifecycle_rolling_waves,
            lifecycle_rolling_fraction,
            lifecycle_cordon_below,
            health_aware,
            backend,
            stream_workload,
            pools,
            horizon,
        } => {
            // Stdout is a single stream: at most one sink may claim it.
            let stdout_sinks: Vec<&str> = [
                ("--trace-out", &trace_out),
                ("--metrics-out", &metrics_out),
                ("--spans-out", &spans_out),
                ("--profile-out", &profile_out),
            ]
            .iter()
            .filter(|(_, v)| v.as_deref() == Some("-"))
            .map(|&(name, _)| name)
            .collect();
            if stdout_sinks.len() > 1 {
                return Err(format!(
                    "stdout (`-`) can serve only one sink, but {} each claim it",
                    stdout_sinks.join(" and ")
                ));
            }
            // What the library's config gate cannot judge stays here: flags
            // that never reach SimConfig on this kind of run, and outside
            // input (hours and fractions) before it is converted.
            if !stream_workload && (pools.is_some() || horizon.is_some()) {
                return Err("--pools and --horizon apply only to --stream-workload runs".into());
            }
            if !stream_workload && backend != Backend::Serial {
                return Err("--shards applies only to --stream-workload runs \
                     (materialized runs use the serial executor)"
                    .into());
            }
            if stream_workload {
                // A streamed workload has no trace file and no halved site.
                let unseen = [("--trace", trace.is_some()), ("--high-load", high_load)];
                if let Some((name, _)) = unseen.iter().find(|(_, on)| *on) {
                    return Err(format!("{name} is incompatible with --stream-workload"));
                }
            }
            // A NaN or negative rate must be a clear CLI error, never a
            // panic (or a silent zero from an `as u64` saturating cast)
            // deep in plan generation.
            if let Some(v) = fault_mtbf {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "--fault-mtbf must be a positive number of hours, got {v}"
                    ));
                }
            }
            // Absent tuning flags take their defaults, which pass the
            // checks below.
            let fault_mttr = fault_mttr.unwrap_or(12.0);
            let fault_pool_outages = fault_pool_outages.unwrap_or(0);
            let fault_flaky = fault_flaky.unwrap_or(0.0);
            let lifecycle_drain_lead = lifecycle_drain_lead.unwrap_or(60);
            let lifecycle_maintenance_every = lifecycle_maintenance_every.unwrap_or(48.0);
            let lifecycle_maintenance_duration = lifecycle_maintenance_duration.unwrap_or(2.0);
            let lifecycle_rolling_waves = lifecycle_rolling_waves.unwrap_or(1);
            let lifecycle_rolling_fraction = lifecycle_rolling_fraction.unwrap_or(0.25);
            let lifecycle_cordon_below = lifecycle_cordon_below.unwrap_or(0.5);
            if !fault_mttr.is_finite() || fault_mttr <= 0.0 {
                return Err(format!(
                    "--fault-mttr must be a positive number of hours, got {fault_mttr}"
                ));
            }
            if !fault_flaky.is_finite() || !(0.0..=1.0).contains(&fault_flaky) {
                return Err(format!(
                    "--fault-flaky must be a fraction in [0, 1], got {fault_flaky}"
                ));
            }
            for (name, v) in [
                ("lifecycle-maintenance-every", lifecycle_maintenance_every),
                (
                    "lifecycle-maintenance-duration",
                    lifecycle_maintenance_duration,
                ),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!(
                        "--{name} must be a non-negative number of hours, got {v}"
                    ));
                }
            }
            if !lifecycle_rolling_fraction.is_finite()
                || !(0.0..=1.0).contains(&lifecycle_rolling_fraction)
            {
                return Err(format!(
                    "--lifecycle-rolling-fraction must be a fraction in [0, 1], got \
                     {lifecycle_rolling_fraction}"
                ));
            }
            if !lifecycle_cordon_below.is_finite() || !(0.0..=1.0).contains(&lifecycle_cordon_below)
            {
                return Err(format!(
                    "--lifecycle-cordon-below must be a fraction in [0, 1], got \
                     {lifecycle_cordon_below}"
                ));
            }
            let mut config = SimConfig::new(initial, strategy);
            // The workload: a pool-major spec the streaming kernel generates
            // shard-locally epoch by epoch (never materialized, so peak
            // memory tracks in-flight jobs), or a materialized trace.
            let (site, specs, streamed, span, label) = if stream_workload {
                let pools = pools.unwrap_or(20);
                if !(1..=u64::from(u16::MAX)).contains(&pools) {
                    return Err(format!("--pools must be in 1..=65535, got {pools}"));
                }
                let horizon = horizon.unwrap_or(7 * 24 * 60);
                let mut p = PerPoolParams::new(pools as u16, scale, horizon);
                if let Some(seed) = seed {
                    p.seed = seed;
                }
                config.seed = p.seed;
                let label = format!(
                    " | streaming ({pools} pools, horizon {horizon} min, scale {scale}, seed {})",
                    p.seed
                );
                let streamed = Some((p.build_workload(), p.seed));
                (p.build_site(), Vec::new(), streamed, horizon, label)
            } else {
                let params = scenario_params(&scenario, scale, seed)?;
                let trace = match trace {
                    Some(path) => load_trace(&path)?,
                    None => params.generate_trace(),
                };
                let mut site = params.build_site();
                if high_load {
                    site = site.halved();
                }
                if let Some(seed) = seed {
                    config.seed = seed;
                }
                let span = TraceAnalysis::of(&trace).span_minutes;
                let label = if high_load { " | high load" } else { "" };
                (site, trace.to_specs(), None, span, label.to_string())
            };
            config.restart_overhead = SimDuration::from_minutes(restart_overhead);
            config.view_staleness = SimDuration::from_minutes(staleness);
            config.max_restarts = max_restarts;
            if let Some(mtbf_hours) = fault_mtbf {
                // Faults are drawn across the trace's submission span plus
                // one repair window, so late arrivals still see churn.
                let horizon =
                    SimDuration::from_minutes(span.max(1) + (fault_mttr * 60.0).ceil() as u64);
                let mtbf = SimDuration::from_minutes((mtbf_hours * 60.0).ceil().max(1.0) as u64);
                let mttr = SimDuration::from_minutes((fault_mttr * 60.0).ceil().max(1.0) as u64);
                config.fault_model = Some(
                    FaultModel::new(mtbf, mttr, horizon)
                        .with_pool_outages(fault_pool_outages, mttr)
                        .with_flaky(fault_flaky, 16),
                );
            }
            if lifecycle || health_aware {
                let model = LifecycleModel::new(SimDuration::from_minutes(span.max(1)))
                    .with_drain_lead(SimDuration::from_minutes(lifecycle_drain_lead))
                    .with_maintenance(
                        SimDuration::from_minutes(
                            (lifecycle_maintenance_every * 60.0).ceil() as u64
                        ),
                        SimDuration::from_minutes(
                            (lifecycle_maintenance_duration * 60.0).ceil() as u64
                        ),
                    )
                    .with_rolling(
                        lifecycle_rolling_waves,
                        lifecycle_rolling_fraction,
                        SimDuration::from_hours(1),
                    )
                    .with_cordon(
                        (lifecycle_cordon_below * 1000.0).round() as u32,
                        SimDuration::from_hours(24),
                    )
                    .with_flaky(fault_flaky, 16);
                model.validate().map_err(|e| e.to_string())?;
                config.lifecycle = Some(model);
            }
            config.health_aware = health_aware;
            config.resilience = if health_aware {
                ResiliencePolicy::hardened().with_evacuation()
            } else if hardened {
                ResiliencePolicy::hardened()
            } else {
                ResiliencePolicy::disabled()
            };
            if sample || series_out.is_some() {
                config = config.with_sampling();
            }
            config.check_invariants = check_invariants;
            config.telemetry = metrics_out.is_some();
            config.spans = spans_out.is_some();
            config.profile = profile_out.is_some();
            config.backend = backend;
            let t0 = std::time::Instant::now();
            let mut sim = Simulator::new(&site, specs, config);
            if let Some((workload, _)) = &streamed {
                sim.check_streaming(workload).map_err(|e| e.to_string())?;
            }
            if let Some(path) = &trace_out {
                let rec = if path == "-" {
                    TraceRecorder::to_stdout()
                } else {
                    TraceRecorder::to_file(path)
                        .map_err(|e| format!("cannot create {path}: {e}"))?
                };
                sim.attach_observer(Box::new(rec));
            }
            let mut output = match &streamed {
                Some((workload, seed)) => sim.run_streaming(workload, *seed),
                None => sim.run_to_completion(),
            };
            let observers = std::mem::take(&mut output.observers);
            let profile = output.profile.take();
            let r = ExperimentResult::from_output(initial, strategy, output);
            // A stdout sink owns stdout: the human-readable summary moves
            // to stderr so pipelines stay parseable.
            let quiet = stdout_sinks.len() == 1;
            macro_rules! status {
                ($($arg:tt)*) => {
                    if quiet {
                        eprintln!($($arg)*);
                    } else {
                        say!(stdout, $($arg)*);
                    }
                };
            }
            status!("{} | {} initial{label}", strategy.name(), initial.name());
            status!("jobs                 {}", r.total_jobs);
            status!("suspend rate         {:.2}%", r.suspend_rate * 100.0);
            status!("AvgCT (suspended)    {:.1} min", r.avg_ct_suspended);
            status!("AvgCT (all)          {:.1} min", r.avg_ct_all);
            status!("AvgST                {:.1} min", r.avg_st);
            status!(
                "AvgWCT               {:.1} min (wait {:.1} + suspend {:.1} + resched {:.1})",
                r.avg_wct(),
                r.waste.avg_wait(),
                r.waste.avg_suspend(),
                r.waste.avg_resched()
            );
            status!(
                "restarts             {} from suspension, {} from queues",
                r.counters.restarts_from_suspend,
                r.counters.restarts_from_wait
            );
            if r.counters.migrations + r.counters.duplicates_launched > 0 {
                status!(
                    "migrations/dups      {} / {}",
                    r.counters.migrations,
                    r.counters.duplicates_launched
                );
            }
            if r.counters.evacuations > 0 || lifecycle || health_aware {
                status!("evacuations          {}", r.counters.evacuations);
            }
            if r.counters.failure_evictions > 0 || fault_mtbf.is_some() {
                status!(
                    "failure evictions    {} ({} retries, {} VPM requeues, {} unrunnable)",
                    r.counters.failure_evictions,
                    r.counters.retries_scheduled,
                    r.counters.vpm_requeues,
                    r.counters.unrunnable
                );
            }
            status!(
                "simulated {} events in {:.2}s",
                r.counters.events,
                t0.elapsed().as_secs_f64()
            );
            let hot = r.hottest_pools(5);
            if hot.iter().any(|(_, s)| s.suspensions > 0) {
                status!("hottest pools (by preemptions):");
                for (pool, s) in hot {
                    if s.suspensions == 0 {
                        continue;
                    }
                    status!(
                        "  {pool}: {} suspensions, peak queue {}, peak suspended {}",
                        s.suspensions,
                        s.peak_queue,
                        s.peak_suspended
                    );
                }
            }
            if let Some(path) = series_out {
                use std::io::Write;
                let mut f = std::fs::File::create(&path)
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                writeln!(f, "minute,suspended,utilization_pct,waiting")
                    .map_err(|e| e.to_string())?;
                for ((&(t, s), &(_, u)), &(_, w)) in r
                    .suspended_series
                    .samples()
                    .iter()
                    .zip(r.utilization_series.samples())
                    .zip(r.waiting_series.samples())
                {
                    writeln!(f, "{},{s},{u:.2},{w}", t.as_minutes()).map_err(|e| e.to_string())?;
                }
                status!("series written to {path}");
            }
            for obs in &observers {
                if let Some(rec) = obs.as_any().downcast_ref::<TraceRecorder>() {
                    if let Some(path) = &trace_out {
                        status!("trace: {} events written to {path}", rec.events());
                    }
                }
                if let Some(tel) = obs.as_any().downcast_ref::<Telemetry>() {
                    if let Some(path) = &metrics_out {
                        let text = tel.render_prom();
                        let samples = validate_exposition(&text)
                            .map_err(|e| format!("internal: invalid exposition: {e}"))?;
                        write_sink(&mut stdout, path, &text)?;
                        status!("metrics: {samples} samples written to {path}");
                    }
                }
                if let Some(spans) = obs.as_any().downcast_ref::<SpanRecorder>() {
                    if let Some(path) = &spans_out {
                        write_sink(&mut stdout, path, &spans.render_jsonl())?;
                        status!(
                            "spans: {} spans across {} jobs, {} decisions written to {path}",
                            spans.span_count(),
                            spans.job_count(),
                            spans.decisions().len()
                        );
                    }
                }
            }
            if let Some(path) = &profile_out {
                let profile = profile.ok_or("internal: kernel profile missing from run output")?;
                write_sink(&mut stdout, path, &profile.render_folded())?;
                status!(
                    "profile: {} events over {} lanes written to {path}",
                    profile.total_events(),
                    profile.lane_count()
                );
            }
            Ok(())
        }
        Command::Report {
            trace,
            scenario,
            scale,
            seed,
            strategy,
            initial,
            high_load,
            out,
            csv_prefix,
            metrics_out,
        } => {
            let params = scenario_params(&scenario, scale, seed)?;
            let trace = match trace {
                Some(path) => load_trace(&path)?,
                None => params.generate_trace(),
            };
            let mut site = params.build_site();
            if high_load {
                site = site.halved();
            }
            let mut config = SimConfig::new(initial, strategy)
                .with_sampling()
                .with_telemetry();
            if let Some(seed) = seed {
                config.seed = seed;
            }
            let run_seed = config.seed;
            let sim = Simulator::new(&site, trace.to_specs(), config);
            let output = sim.run_to_completion();
            let tel = output
                .observer::<Telemetry>()
                .ok_or("internal: telemetry observer missing from run output")?;
            let summary = tel.summary();
            use std::fmt::Write as _;
            let mut doc = String::new();
            let _ = writeln!(doc, "# netbatch run report\n");
            let _ = writeln!(
                doc,
                "Strategy **{}**, initial scheduler **{}**, scenario `{}` at scale {}, \
                 seed {}{}.\n",
                strategy.name(),
                initial.name(),
                scenario,
                scale,
                run_seed,
                if high_load { ", high load" } else { "" }
            );
            doc.push_str(&tel.render_markdown());
            std::fs::write(&out, &doc).map_err(|e| format!("cannot write {out}: {e}"))?;
            say!(
                stdout,
                "report: {} jobs, suspend rate {:.2}%, written to {out}",
                summary.total_jobs,
                summary.suspend_rate * 100.0
            );
            if let Some(prefix) = csv_prefix {
                for (suffix, body) in [
                    ("cdf", tel.cdf_csv()),
                    ("timeline", tel.timeline_csv()),
                    ("pools", tel.pools_csv()),
                ] {
                    let path = format!("{prefix}_{suffix}.csv");
                    std::fs::write(&path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
                    say!(stdout, "series written to {path}");
                }
            }
            if let Some(path) = metrics_out {
                let text = tel.render_prom();
                let samples = validate_exposition(&text)
                    .map_err(|e| format!("internal: invalid exposition: {e}"))?;
                std::fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
                say!(stdout, "metrics: {samples} samples written to {path}");
            }
            Ok(())
        }
        Command::Trace {
            input,
            job,
            pool,
            cause,
            why,
            perfetto_out,
        } => {
            let text = if input == "-" {
                use std::io::Read;
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("cannot read stdin: {e}"))?;
                buf
            } else {
                std::fs::read_to_string(&input).map_err(|e| format!("cannot open {input}: {e}"))?
            };
            if let Some(path) = &perfetto_out {
                let rendered = perfetto_from_jsonl(&text)?;
                write_sink(&mut stdout, path, &rendered)?;
                if path != "-" {
                    say!(stdout, "perfetto trace written to {path}");
                }
                // Export-only invocation: no causal chain on top.
                if job.is_none() && pool.is_none() && cause.is_none() && why.is_none() {
                    return Ok(());
                }
            }
            let file = SpansFile::parse(&input, &text)?;
            let query = SpanQuery {
                job,
                pool,
                cause,
                why,
            };
            stdout.text(&file.render(&query))?;
            Ok(())
        }
    }
}

/// Writes `text` to `path`, or to stdout when `path` is `-`.
fn write_sink(out: &mut Out, path: &str, text: &str) -> Result<(), String> {
    if path == "-" {
        out.text(text)
    } else {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_csv(file).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch::core::provenance::describe_cause;
    use netbatch::metrics::json;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse_args(&args("generate --scenario year --scale 0.05 --out t.csv")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                scenario: "year".into(),
                scale: 0.05,
                seed: None,
                out: "t.csv".into()
            }
        );
        for bad in ["0", "-1", "nan", "inf", "x"] {
            let err = parse_args(&args(&format!("generate --scale {bad} --out t.csv")));
            assert!(err.unwrap_err().contains("--scale"), "--scale {bad}");
            let err = parse_args(&args(&format!("analyze t.csv --scale {bad}")));
            assert!(err.unwrap_err().contains("--scale"), "--scale {bad}");
        }
    }

    #[test]
    fn parses_simulate_with_all_flags() {
        let cmd = parse_args(&args(
            "simulate --strategy ResSusWaitRand --initial util --high-load \
             --restart-overhead 15 --staleness 30 --max-restarts 4 --sample --seed 9",
        ))
        .unwrap();
        let Command::Simulate {
            strategy,
            initial,
            high_load,
            restart_overhead,
            staleness,
            max_restarts,
            sample,
            seed,
            ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert_eq!(strategy, StrategyKind::ResSusWaitRand);
        assert_eq!(initial, InitialKind::UtilizationBased);
        assert!(high_load && sample);
        assert_eq!(restart_overhead, 15);
        assert_eq!(staleness, 30);
        assert_eq!(max_restarts, Some(4));
        assert_eq!(seed, Some(9));
        for bad in ["0", "-1", "nan"] {
            let err = parse_args(&args(&format!("simulate --scale {bad}")));
            assert!(err.unwrap_err().contains("--scale"), "--scale {bad}");
        }
        // A misspelt flag is an error, not silently dropped.
        let err = parse_args(&args("simulate --scale 0.02 --stratgy ResSusUtil")).unwrap_err();
        assert!(err.contains("--stratgy"), "{err}");
        let err = parse_args(&args("simulate --high-lod --sample")).unwrap_err();
        assert!(err.contains("--high-lod"), "{err}");
        // `--stats` is gone (per-kind counts live in `--metrics-out`,
        // per-kind handler time in `--profile-out`): like any unknown
        // flag it is a parse error, which `main` turns into exit 2.
        let err = parse_args(&args("simulate --stats")).unwrap_err();
        assert!(err.contains("--stats"), "{err}");
    }

    #[test]
    fn parses_observer_flags() {
        let cmd = parse_args(&args(
            "simulate --check-invariants --trace-out events.jsonl --strategy NoRes",
        ))
        .unwrap();
        let Command::Simulate {
            trace_out,
            check_invariants,
            sample,
            ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert_eq!(trace_out.as_deref(), Some("events.jsonl"));
        assert!(check_invariants);
        assert!(!sample, "observer flags must not imply sampling");
        // The boolean flags take no value: a following flag must not be
        // swallowed as one.
        let cmd = parse_args(&args("simulate --check-invariants --seed 3")).unwrap();
        let Command::Simulate {
            check_invariants,
            seed,
            ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert!(check_invariants);
        assert_eq!(seed, Some(3));
    }

    #[test]
    fn parses_fault_flags() {
        let cmd = parse_args(&args(
            "simulate --fault-mtbf 48 --fault-mttr 6 --fault-pool-outages 2 \
             --fault-flaky 0.05 --hardened --seed 4",
        ))
        .unwrap();
        let Command::Simulate {
            fault_mtbf,
            fault_mttr,
            fault_pool_outages,
            fault_flaky,
            hardened,
            seed,
            ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert_eq!(fault_mtbf, Some(48.0));
        assert_eq!(fault_mttr, Some(6.0));
        assert_eq!(fault_pool_outages, Some(2));
        assert_eq!(fault_flaky, Some(0.05));
        assert!(hardened);
        // --hardened is boolean: the following flag must not be eaten.
        assert_eq!(seed, Some(4));
    }

    #[test]
    fn fault_flags_default_off() {
        let cmd = parse_args(&args("simulate --strategy NoRes")).unwrap();
        let Command::Simulate {
            fault_mtbf,
            fault_mttr,
            fault_pool_outages,
            fault_flaky,
            hardened,
            ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert_eq!(fault_mtbf, None);
        assert_eq!(fault_mttr, None);
        assert_eq!(fault_pool_outages, None);
        assert_eq!(fault_flaky, None);
        assert!(!hardened);
    }

    #[test]
    fn parses_lifecycle_flags() {
        let cmd = parse_args(&args(
            "simulate --lifecycle --lifecycle-drain-lead 30 \
             --lifecycle-maintenance-every 24 --lifecycle-maintenance-duration 1 \
             --lifecycle-rolling-waves 2 --lifecycle-rolling-fraction 0.5 \
             --lifecycle-cordon-below 0.4 --health-aware --seed 5",
        ))
        .unwrap();
        let Command::Simulate {
            lifecycle,
            lifecycle_drain_lead,
            lifecycle_maintenance_every,
            lifecycle_maintenance_duration,
            lifecycle_rolling_waves,
            lifecycle_rolling_fraction,
            lifecycle_cordon_below,
            health_aware,
            seed,
            ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert!(lifecycle && health_aware);
        assert_eq!(lifecycle_drain_lead, Some(30));
        assert_eq!(lifecycle_maintenance_every, Some(24.0));
        assert_eq!(lifecycle_maintenance_duration, Some(1.0));
        assert_eq!(lifecycle_rolling_waves, Some(2));
        assert_eq!(lifecycle_rolling_fraction, Some(0.5));
        assert_eq!(lifecycle_cordon_below, Some(0.4));
        // Both booleans take no value: --seed must not be swallowed.
        assert_eq!(seed, Some(5));
    }

    #[test]
    fn lifecycle_flags_default_off() {
        let cmd = parse_args(&args("simulate")).unwrap();
        let Command::Simulate {
            lifecycle,
            health_aware,
            lifecycle_drain_lead,
            ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert!(!lifecycle && !health_aware);
        assert_eq!(lifecycle_drain_lead, None);
    }

    #[test]
    fn orphan_tuning_flags_name_their_switch() {
        // A tuning flag whose switch is off is rejected at parse time (exit
        // 2), naming the switch, instead of being silently ignored.
        for (flag, switch) in [
            ("--fault-mttr 6", "needs --fault-mtbf"),
            ("--fault-pool-outages 2", "needs --fault-mtbf"),
            ("--fault-flaky 0.05", "needs --fault-mtbf, --lifecycle or"),
            (
                "--lifecycle-drain-lead 30",
                "needs --lifecycle or --health-aware",
            ),
            ("--lifecycle-maintenance-every 24", "needs --lifecycle or"),
            ("--lifecycle-maintenance-duration 1", "needs --lifecycle or"),
            ("--lifecycle-rolling-waves 2", "needs --lifecycle or"),
            ("--lifecycle-rolling-fraction 0.5", "needs --lifecycle or"),
            ("--lifecycle-cordon-below 0.4", "needs --lifecycle or"),
        ] {
            let err = parse_args(&args(&format!("simulate --scale 0.002 {flag}"))).unwrap_err();
            let name = flag.split_whitespace().next().unwrap();
            assert!(
                err.starts_with(name) && err.contains(switch),
                "{flag}: {err}"
            );
        }
        // Each switch admits its flags, and `--fault-flaky` rides either.
        for line in [
            "--fault-mtbf 48 --fault-mttr 6 --fault-pool-outages 2 --fault-flaky 0.05",
            "--lifecycle --fault-flaky 0.05 --lifecycle-drain-lead 30",
            "--health-aware --lifecycle-cordon-below 0.4",
        ] {
            assert!(
                parse_args(&args(&format!("simulate {line}"))).is_ok(),
                "{line}"
            );
        }
        // Another subcommand reads neither them nor their switches: there
        // they stay unknown.
        for flag in [
            "--fault-mttr 6",
            "--fault-mtbf 48",
            "--lifecycle",
            "--health-aware",
        ] {
            let err = parse_args(&args(&format!("report {flag}"))).unwrap_err();
            assert!(err.contains("unknown flag --"), "{flag}: {err}");
        }
    }

    #[test]
    fn invalid_fault_rates_are_rejected() {
        // Validation happens in run(), after parsing: build the command
        // and check the error text, without touching the filesystem.
        let run_err = |s: &str| run(parse_args(&args(s)).unwrap()).unwrap_err();
        assert!(run_err("simulate --scale 0.001 --fault-mtbf -3").contains("--fault-mtbf"));
        assert!(run_err("simulate --scale 0.001 --fault-mtbf 0").contains("positive"));
        assert!(run_err("simulate --scale 0.001 --fault-mtbf NaN").contains("--fault-mtbf"));
        assert!(
            run_err("simulate --scale 0.001 --fault-mtbf 48 --fault-mttr 0")
                .contains("--fault-mttr")
        );
        assert!(
            run_err("simulate --scale 0.001 --fault-mtbf 48 --fault-mttr -1").contains("positive")
        );
        assert!(
            run_err("simulate --scale 0.001 --fault-mtbf 48 --fault-flaky 1.5")
                .contains("--fault-flaky")
        );
        assert!(run_err("simulate --scale 0.001 --lifecycle --fault-flaky NaN").contains("[0, 1]"));
    }

    #[test]
    fn invalid_lifecycle_rates_are_rejected() {
        let run_err = |s: &str| run(parse_args(&args(s)).unwrap()).unwrap_err();
        assert!(
            run_err("simulate --scale 0.001 --lifecycle --lifecycle-maintenance-every -1")
                .contains("--lifecycle-maintenance-every")
        );
        assert!(
            run_err("simulate --scale 0.001 --lifecycle --lifecycle-maintenance-duration NaN")
                .contains("non-negative")
        );
        assert!(
            run_err("simulate --scale 0.001 --lifecycle --lifecycle-rolling-fraction 2")
                .contains("--lifecycle-rolling-fraction")
        );
        assert!(
            run_err("simulate --scale 0.001 --lifecycle --lifecycle-rolling-fraction NaN")
                .contains("[0, 1]")
        );
        assert!(
            run_err("simulate --scale 0.001 --lifecycle --lifecycle-cordon-below -0.1")
                .contains("--lifecycle-cordon-below")
        );
    }

    #[test]
    fn parses_metrics_out() {
        let cmd = parse_args(&args("simulate --metrics-out run.prom --seed 2")).unwrap();
        let Command::Simulate {
            metrics_out, seed, ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert_eq!(metrics_out.as_deref(), Some("run.prom"));
        assert_eq!(seed, Some(2));
    }

    #[test]
    fn parses_report() {
        let cmd = parse_args(&args(
            "report --strategy ResSusWaitUtil --initial util --high-load \
             --out r.md --csv-prefix fig --metrics-out r.prom --scale 0.02",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                trace: None,
                scenario: "normal".into(),
                scale: 0.02,
                seed: None,
                strategy: StrategyKind::ResSusWaitUtil,
                initial: InitialKind::UtilizationBased,
                high_load: true,
                out: "r.md".into(),
                csv_prefix: Some("fig".into()),
                metrics_out: Some("r.prom".into()),
            }
        );
        // Defaults.
        let cmd = parse_args(&args("report")).unwrap();
        let Command::Report {
            out,
            csv_prefix,
            metrics_out,
            ..
        } = cmd
        else {
            panic!("expected report")
        };
        assert_eq!(out, "report.md");
        assert_eq!(csv_prefix, None);
        assert_eq!(metrics_out, None);
        for bad in ["0", "-1", "nan"] {
            let err = parse_args(&args(&format!("report --scale {bad}")));
            assert!(err.unwrap_err().contains("--scale"), "--scale {bad}");
        }
        // Flags of other subcommands are unknown here.
        let err = parse_args(&args("report --sample")).unwrap_err();
        assert!(err.contains("--sample"), "{err}");
    }

    #[test]
    fn parses_backend_flags() {
        let backend_of = |s: &str| match parse_args(&args(s)).unwrap() {
            Command::Simulate { backend, .. } => backend,
            other => panic!("expected simulate, got {other:?}"),
        };
        assert_eq!(backend_of("simulate"), Backend::Serial);
        assert_eq!(
            backend_of("simulate --shards 1"),
            Backend::Sharded { shards: 1 }
        );
        assert_eq!(
            backend_of("simulate --shards 8"),
            Backend::Sharded { shards: 8 }
        );
        assert!(parse_args(&args("simulate --shards 0"))
            .unwrap_err()
            .contains("at least 1"));
        // Only streaming runs have a parallel kernel.
        let run_err = |s: &str| run(parse_args(&args(s)).unwrap()).unwrap_err();
        assert!(run_err("simulate --shards 1").contains("--stream-workload"));
        assert!(run_err("simulate --shards 2").contains("--stream-workload"));
    }

    #[test]
    fn parses_stream_workload_flags() {
        let cmd = parse_args(&args(
            "simulate --stream-workload --pools 8 --horizon year --seed 3",
        ))
        .unwrap();
        let Command::Simulate {
            stream_workload,
            pools,
            horizon,
            seed,
            ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert!(stream_workload);
        assert_eq!(pools, Some(8));
        assert_eq!(horizon, Some(365 * 24 * 60));
        // --stream-workload is boolean: --pools must not be swallowed.
        assert_eq!(seed, Some(3));

        let horizon_of = |s: &str| match parse_args(&args(s)).unwrap() {
            Command::Simulate { horizon, .. } => horizon,
            other => panic!("expected simulate, got {other:?}"),
        };
        assert_eq!(horizon_of("simulate"), None);
        assert_eq!(
            horizon_of("simulate --stream-workload --horizon week"),
            Some(7 * 24 * 60)
        );
        assert_eq!(
            horizon_of("simulate --stream-workload --horizon 1440"),
            Some(1440)
        );
        assert!(parse_args(&args("simulate --horizon fortnight"))
            .unwrap_err()
            .contains("--horizon"));
        assert!(parse_args(&args("simulate --horizon 0"))
            .unwrap_err()
            .contains("at least 1 minute"));
        for bad in ["0", "-1", "nan"] {
            let err = parse_args(&args(&format!(
                "simulate --stream-workload --pools 4 --scale {bad}"
            )));
            assert!(err.unwrap_err().contains("--scale"), "--scale {bad}");
        }
    }

    #[test]
    fn stream_workload_rejects_incompatible_flags() {
        let run_err = |s: &str| run(parse_args(&args(s)).unwrap()).unwrap_err();
        // Every flag outside the streaming fast class, with the words of
        // the rule its error names: the CLI's own for flags that never
        // reach SimConfig, the library gate's for the rest.
        for (flag, rule) in [
            ("--trace t.csv", "--trace is incompatible"),
            ("--high-load", "--high-load is incompatible"),
            ("--fault-mtbf 48 --fault-pool-outages 2", "machine faults"),
            ("--lifecycle --fault-flaky 0.05", "machine lifecycle"),
            ("--restart-overhead 15", "restart overhead"),
            ("--staleness 30", "zero view staleness"),
            ("--max-restarts 3", "restart limits"),
            ("--metrics-out m.prom", "dense-id observers"),
            ("--spans-out s.jsonl", "dense-id observers"),
            ("--check-invariants", "dense-id observers"),
            ("--fault-mtbf 48", "machine faults"),
            ("--hardened", "scheduler resilience"),
            ("--lifecycle", "machine lifecycle"),
            ("--health-aware", "health-aware scheduling"),
            ("--strategy ResSusUtil", "only the NoRes fast class"),
            ("--initial util", "round-robin initial scheduling"),
        ] {
            let err = run_err(&format!(
                "simulate --stream-workload --pools 2 --horizon 60 --scale 0.01 {flag}"
            ));
            assert!(err.contains(rule), "{flag}: {err}");
        }
        assert!(run_err("simulate --stream-workload --pools 0").contains("--pools"));
        // The streaming knobs are meaningless on materialized runs.
        assert!(run_err("simulate --pools 4").contains("--stream-workload"));
        assert!(run_err("simulate --horizon year").contains("--stream-workload"));
    }

    #[test]
    fn parses_provenance_flags() {
        let cmd = parse_args(&args("simulate --spans-out s.jsonl --profile-out p.folded")).unwrap();
        let Command::Simulate {
            spans_out,
            profile_out,
            ..
        } = cmd
        else {
            panic!("expected simulate")
        };
        assert_eq!(spans_out.as_deref(), Some("s.jsonl"));
        assert_eq!(profile_out.as_deref(), Some("p.folded"));
    }

    #[test]
    fn parses_trace_command() {
        let cmd = parse_args(&args(
            "trace --in s.jsonl --job 7 --cause fault --perfetto-out p.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                input: "s.jsonl".into(),
                job: Some(7),
                pool: None,
                cause: Some("fault".into()),
                why: None,
                perfetto_out: Some("p.json".into()),
            }
        );
        // Positional input and --why.
        let cmd = parse_args(&args("trace s.jsonl --why 3")).unwrap();
        let Command::Trace { input, why, .. } = cmd else {
            panic!("expected trace")
        };
        assert_eq!(input, "s.jsonl");
        assert_eq!(why, Some(3));
        assert!(parse_args(&args("trace")).unwrap_err().contains("--in"));
    }

    #[test]
    fn duplicate_stdout_sinks_are_rejected() {
        let run_err = |s: &str| run(parse_args(&args(s)).unwrap()).unwrap_err();
        let err = run_err("simulate --scale 0.001 --spans-out - --metrics-out -");
        assert!(err.contains("--metrics-out") && err.contains("--spans-out"));
        assert!(err.contains("stdout"));
        let err = run_err("simulate --scale 0.001 --trace-out - --profile-out -");
        assert!(err.contains("--trace-out") && err.contains("--profile-out"));
    }

    #[test]
    fn trace_rejects_bad_spans_files() {
        assert!(SpansFile::parse("t", "{\"kind\":\"span\"}\n")
            .unwrap_err()
            .contains("missing netbatch-spans header"));
        assert!(
            SpansFile::parse("t", "{\"schema\":\"netbatch-spans/99\"}\n")
                .unwrap_err()
                .contains("unsupported schema")
        );
        assert!(SpansFile::parse("t", "not json\n")
            .unwrap_err()
            .contains("t:1"));
        let ok = SpansFile::parse(
            "t",
            "{\"schema\":\"netbatch-spans/1\",\"strategy\":\"NoRes\",\"initial\":\"rr\",\
             \"jobs\":1,\"spans\":1,\"decisions\":0}\n\
             {\"kind\":\"span\",\"job\":0,\"seq\":0,\"phase\":\"running\",\"start\":0,\
             \"end\":5,\"pool\":0,\"machine\":1,\"cause\":{\"type\":\"submitted\"}}\n",
        )
        .unwrap();
        assert_eq!(ok.spans.len(), 1);
        assert!(ok.decisions.is_empty());
    }

    #[test]
    fn cause_descriptions_surface_ranking_inputs() {
        let policy = json::parse(
            "{\"type\":\"policy\",\"trigger\":\"suspend\",\"verdict\":\"restart\",\
             \"target\":3,\"candidates\":16,\"cur_util_milli\":913,\"tgt_util_milli\":252,\
             \"cur_queue\":7,\"tgt_queue\":0}",
        )
        .unwrap();
        let text = describe_cause(&policy);
        assert!(text.contains("suspend -> restart to pool 3"), "{text}");
        assert!(text.contains("16 candidates"), "{text}");
        assert!(text.contains("91.3% -> 25.2%"), "{text}");
        assert!(text.contains("queue 7 -> 0"), "{text}");
        let fault =
            json::parse("{\"type\":\"fault\",\"outage\":4,\"blacklisted_until\":212}").unwrap();
        assert!(describe_cause(&fault).contains("outage #4"));
        assert!(describe_cause(&fault).contains("blacklisted until t=212"));
    }

    #[test]
    fn strategy_names_parse_case_insensitively() {
        assert_eq!(
            parse_strategy("ressusutil").unwrap(),
            StrategyKind::ResSusUtil
        );
        assert_eq!(
            parse_strategy("MigrateSusUtil").unwrap(),
            StrategyKind::MigrateSusUtil
        );
        assert!(parse_strategy("bogus").is_err());
    }

    #[test]
    fn missing_values_are_reported() {
        assert!(parse_args(&args("generate --out"))
            .unwrap_err()
            .contains("--out"));
        assert!(parse_args(&args("generate")).unwrap_err().contains("--out"));
        assert!(parse_args(&args("analyze"))
            .unwrap_err()
            .contains("trace file"));
        assert!(parse_args(&args("frobnicate"))
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn help_and_strategies_parse() {
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&args("strategies")).unwrap(),
            Command::Strategies
        );
    }

    #[test]
    fn scenario_params_respects_seed() {
        let p = scenario_params("normal", 0.01, Some(7)).unwrap();
        assert_eq!(p.seed, 7);
        assert!(scenario_params("nope", 1.0, None).is_err());
    }
}
