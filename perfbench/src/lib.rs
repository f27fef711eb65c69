//! End-to-end and per-layer benchmark for the netbatch simulator.
//!
//! [`measure`] repeats one [`Workload`] a fixed number of times and
//! reduces the repetitions to named metrics: [`END_TO_END`] from plain
//! repetitions, or [`PER_LAYER`] from a traced run that interleaves plain,
//! traced and reference repetitions. Every repetition checks its outputs and prints
//! nothing but a digest of what it simulated; see `src/main.rs` for the
//! command line.

pub mod alloc;
pub mod hostspeed;
pub mod layers;
pub mod workloads;

use std::collections::BTreeMap;

use netbatch_bench::paper::{PaperRow, TABLE_1, TABLE_2, TABLE_4};
use netbatch_bench::runner::{print_comparison, print_reductions, reduction};
use netbatch_core::experiment::ExperimentResult;

pub use workloads::{CellDigest, Mode, Rep, Sizes, Week, Workload};

/// One metric the benchmark prints: name, unit, direction, and what it
/// measures (for a layer metric: which end-to-end metric it should move,
/// and on which workload).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Definition, and for layer metrics what it should move where.
    pub about: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        about,
    }
}

/// End-to-end metrics, printed with `--trace 0`. Host time and host
/// memory, never simulated time. Each is the median over the run's weeks
/// (`stream_pools`: over its runs) of that week's figure, because a
/// week's cost is skewed by a few expensive weeks. Times are quiet-host
/// seconds: a week's wall time divided by the host slowness the
/// [`hostspeed`] probe measured around it. Jobs of failed cells are not a
/// metric here: they are the result line's `failed` out of `attempted`,
/// and `jobs_failed_frac` in a traced run.
pub const END_TO_END: [MetricDef; 4] = [
    def(
        "setup_s",
        "s",
        "lower",
        "scenario parameters to constructed simulators for every cell of a week, quiet-host seconds",
    ),
    def(
        "jobs_per_s",
        "jobs/s",
        "higher",
        "a week's jobs completed / quiet-host seconds of its run phases",
    ),
    def(
        "peak_mib",
        "MiB",
        "lower",
        "peak live heap over a week's cells",
    ),
    def(
        "allocs_per_job",
        "count",
        "lower",
        "heap allocations in a week's run phases / jobs it completed",
    ),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [MetricDef; 42] = [
    def("workload.generate_s", "s", "lower", "trace generation; moves setup_s on table1/table2/observed"),
    def("workload.to_specs_s", "s", "lower", "Trace::to_specs over cells; moves setup_s on table1/table2/observed"),
    def("workload.jobs", "count", "higher", "jobs generated per repetition; sizes every other count"),
    def("simulator.new_s", "s", "lower", "Simulator::new over cells; moves setup_s on table1/table2/observed"),
    def("mem.setup_mib", "MiB", "lower", "live heap after a cell's setup; moves peak_mib on table1/table2/observed"),
    def("engine.events", "count", "lower", "kernel events processed; explains jobs_per_s"),
    def("engine.events_per_s", "events/s", "higher", "events / quiet-host seconds of plain runs; moves jobs_per_s on table1_normal, stream_pools"),
    def("engine.loop_s", "s", "lower", "wall run time minus profiled handler time (queue + executor); moves jobs_per_s on table1_normal, stream_pools"),
    def("simulator.submit_s", "s", "lower", "submit handlers incl. dispatch; moves jobs_per_s on table1_normal"),
    def("simulator.submit_n", "count", "lower", "submit events"),
    def("simulator.complete_s", "s", "lower", "complete handlers incl. resume and preemption; moves jobs_per_s on table1_normal"),
    def("simulator.complete_n", "count", "lower", "complete events"),
    def("simulator.wait_check_s", "s", "lower", "wait-check handlers; moves jobs_per_s on table2_high"),
    def("simulator.wait_check_n", "count", "lower", "wait-check events"),
    def("simulator.sample_s", "s", "lower", "sample handlers; moves jobs_per_s on observed_normal"),
    def("simulator.sample_n", "count", "lower", "sample events"),
    def("cluster.starts", "count", "lower", "job starts over pools; unchanged by a pure perf change"),
    def("cluster.suspensions", "count", "lower", "preemptions over pools; explains simulator.complete_s on table2_high"),
    def("cluster.enqueues", "count", "lower", "wait-queue entries over pools"),
    def("cluster.peak_queue", "count", "lower", "longest wait queue of any pool"),
    def("cluster.preempt_ratio", "ratio", "lower", "suspensions / starts"),
    def("policy.calls", "count", "lower", "rescheduling decisions taken"),
    def("policy.busy_s", "s", "lower", "time inside decisions; moves jobs_per_s on table2_high, none on table1_normal"),
    def("policy.ns_per_call", "ns", "lower", "busy time per decision"),
    def("policy.moves", "count", "lower", "decisions that moved a job"),
    def("policy.move_ratio", "ratio", "higher", "moves / calls"),
    def("policy.share", "ratio", "lower", "policy busy time / traced wall run time"),
    def("stream.worker_s", "s", "lower", "shard worker busy time; moves jobs_per_s on stream_pools"),
    def("stream.generate_s", "s", "lower", "shard-local generation; moves jobs_per_s on stream_pools"),
    def("stream.merge_s", "s", "lower", "coordinator barrier merge; moves jobs_per_s on stream_pools"),
    def("stream.imbalance", "ratio", "lower", "max / mean shard busy time"),
    def("stream.speedup", "ratio", "higher", "1-shard / 2-shard quiet-host run time, both measured in this run"),
    def("observer.calls", "count", "lower", "observer callbacks over all observers"),
    def("observer.telemetry_s", "s", "lower", "time inside Telemetry; moves jobs_per_s on observed_normal"),
    def("observer.spans_s", "s", "lower", "time inside SpanRecorder; moves jobs_per_s on observed_normal"),
    def("observer.checker_s", "s", "lower", "time inside InvariantChecker; moves jobs_per_s on observed_normal"),
    def("observer.render_s", "s", "lower", "render_prom + render_jsonl; moves jobs_per_s on observed_normal"),
    def("observer.overhead", "ratio", "lower", "observed quiet-host run time / the same cells unobserved"),
    def("trace.overhead", "ratio", "lower", "traced / plain quiet-host run time"),
    def("jobs_failed_frac", "ratio", "lower", "jobs of failed or panicked cells / jobs submitted"),
    def("host.slowdown", "ratio", "lower", "host-speed probe time / a quiet host's, median over plain run units"),
    def("host.raw_jobs_per_s", "jobs/s", "higher", "jobs_per_s from wall seconds, not divided by host.slowdown"),
];

/// Fewest `stream_pools` runs a plain run makes, and fewest (plain,
/// traced) pairs of them a traced run makes.
const MIN_STREAM_REPS: usize = 2;

/// Repetitions of a run, and the sizes of each. `--seconds` over the
/// workload's nominal week time gives a count: of weeks for a trace
/// workload, which runs one repetition of that many weeks, and of runs
/// for `stream_pools`, which makes that many repetitions. A traced run
/// takes a third of the count, as its plain, traced and reference
/// repetitions together cost about three plain ones. The count never
/// depends on how fast anything actually runs, so two commits measured
/// with the same `--seconds` do the same work.
fn plan(opts: &Options) -> (usize, Sizes) {
    let w = opts.workload;
    let mut units = (opts.seconds / w.nominal_week_s()).round() as usize;
    if opts.traced {
        units /= 3;
    }
    if w == Workload::StreamPools {
        (units.max(MIN_STREAM_REPS), opts.sizes)
    } else {
        let weeks = u32::try_from(units).unwrap_or(u32::MAX);
        let sizes = Sizes {
            weeks: weeks.max(opts.sizes.weeks),
            ..opts.sizes
        };
        (1, sizes)
    }
}

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated workload.
    pub seed: u64,
    /// Nominal run length, converted to a fixed count of weeks or runs.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub traced: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// A finished measurement.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed and no job failed.
    pub correct: bool,
    /// Jobs submitted over every repetition.
    pub attempted: u64,
    /// Jobs of failed or panicked cells.
    pub failed: u64,
    /// `(definition, value)` in definition order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Failed checks.
    pub errors: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (0 when empty).
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Warms up, runs `opts.workload` as [`plan`] sets out for
/// `opts.seconds`, and reduces the repetitions to metrics, printing
/// digests and the paper readout on the way.
pub fn measure(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut refs: Vec<Rep> = Vec::new();
    // One untimed week first: the first pass over cold caches and fresh
    // allocator arenas runs 25-50% slower than the ones after it.
    let warm_up = Sizes {
        weeks: 1,
        ..opts.sizes
    };
    w.rep(&warm_up, opts.seed, Mode::Plain);
    let (reps, sizes) = plan(opts);
    for _ in 0..reps {
        plain.push(w.rep(&sizes, opts.seed, Mode::Plain));
        if opts.traced {
            traced.push(w.rep(&sizes, opts.seed, Mode::Traced));
            refs.extend(w.reference_rep(&sizes, opts.seed));
        }
    }

    println!(
        "== {} (seed {}, {} plain repetitions of {} weeks) ==",
        w.name(),
        opts.seed,
        plain.len(),
        plain[0].weeks.len()
    );
    println!(
        "host slowdown {:.4} (median over weeks), wall-clock jobs/s {:.0}",
        week_median(&plain, |w| w.host),
        week_median(&plain, |w| w.completed as f64 / w.run_s)
    );
    print_digest(&plain[0].digest);
    paper_readout(w, &plain[0].results);

    let mut errors: Vec<String> = Vec::new();
    let all = || plain.iter().chain(&traced).chain(&refs);
    for rep in all() {
        errors.extend(rep.errors.iter().cloned());
    }
    // The simulation is deterministic: every repetition, traced or not, and
    // the 1-shard streaming reference must reproduce the first digest.
    let same_as_first = |reps: &[Rep], what: &str, errors: &mut Vec<String>| {
        for (i, rep) in reps.iter().enumerate() {
            if rep.errors.is_empty() && rep.digest != plain[0].digest {
                errors.push(format!("{what} repetition {i} changed the digest"));
            }
        }
    };
    same_as_first(&plain, "plain", &mut errors);
    same_as_first(&traced, "traced", &mut errors);
    if w == Workload::StreamPools {
        same_as_first(&refs, "1-shard", &mut errors);
    }
    let attempted: u64 = all().map(|r| r.submitted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let failed_frac = ratio(failed as f64, attempted as f64);
    println!("jobs_failed_frac = {failed_frac} ratio ({failed} of {attempted} jobs)");
    for e in &errors {
        println!("check failed: {e}");
    }

    let metrics = if opts.traced {
        let counts = w.kernel_event_counts(&sizes, opts.seed);
        layer_metrics(w, &plain, &traced, &refs, &counts, failed_frac)
    } else {
        end_to_end_metrics(&plain)
    };
    Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        errors,
    }
}

/// Median over every week of every repetition of `f(week)`; weeks whose
/// figure is not finite (a panicked cell's NaN time) are left out.
fn week_median(reps: &[Rep], f: impl Fn(&Week) -> f64) -> f64 {
    median(
        reps.iter()
            .flat_map(|r| &r.weeks)
            .map(f)
            .filter(|v| v.is_finite()),
    )
}

/// Median over repetitions of the quiet-host run time.
fn quiet_run_s(reps: &[Rep]) -> f64 {
    median(reps.iter().map(Rep::quiet_run_s))
}

fn end_to_end_metrics(plain: &[Rep]) -> Vec<(MetricDef, f64)> {
    let values = [
        week_median(plain, |w| w.setup_s / w.host),
        week_median(plain, |w| w.completed as f64 / (w.run_s / w.host)),
        week_median(plain, |w| w.peak_bytes as f64 / alloc::MIB),
        week_median(plain, |w| ratio(w.allocs as f64, w.completed as f64)),
    ];
    END_TO_END.into_iter().zip(values).collect()
}

/// Per-shard busy seconds of a profile (`shardN;phase` lanes summed).
fn shard_busy(profile: &BTreeMap<String, f64>) -> Vec<f64> {
    let mut shards: BTreeMap<&str, f64> = BTreeMap::new();
    for (key, s) in profile {
        if let Some((lane, _)) = key.split_once(';') {
            if lane.starts_with("shard") {
                *shards.entry(lane).or_default() += s;
            }
        }
    }
    shards.into_values().collect()
}

/// Seconds on the serial or coordinator lane (handlers and merges).
fn main_lane_s(profile: &BTreeMap<String, f64>) -> f64 {
    profile
        .iter()
        .filter(|(k, _)| k.starts_with("serial;") || k.starts_with("coordinator;"))
        .map(|(_, s)| s)
        .sum()
}

fn layer_metrics(
    w: Workload,
    plain: &[Rep],
    traced: &[Rep],
    refs: &[Rep],
    counts: &BTreeMap<&'static str, u64>,
    failed_frac: f64,
) -> Vec<(MetricDef, f64)> {
    let med = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| median(reps.iter().map(f));
    let lane = |key: &str| {
        med(traced, &|r| {
            r.layers.profile.get(key).copied().unwrap_or(0.0)
        })
    };
    let count = |kind: &str| counts.get(kind).copied().unwrap_or(0) as f64;
    let first = &plain[0].layers;
    let tr = &traced[0].layers;
    let plain_run = quiet_run_s(plain);
    let traced_run = quiet_run_s(traced);
    let refs_run = quiet_run_s(refs);

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("workload.generate_s", med(traced, &|r| r.layers.generate_s));
    v.insert("workload.to_specs_s", med(traced, &|r| r.layers.to_specs_s));
    v.insert("workload.jobs", plain[0].generated as f64);
    v.insert("simulator.new_s", med(traced, &|r| r.layers.new_s));
    v.insert(
        "mem.setup_mib",
        med(traced, &|r| r.layers.setup_live_bytes as f64 / alloc::MIB),
    );
    v.insert("engine.events", first.events as f64);
    v.insert("engine.events_per_s", ratio(first.events as f64, plain_run));
    v.insert(
        "engine.loop_s",
        med(traced, &|r| {
            let p = &r.layers.profile;
            let critical = shard_busy(p).into_iter().fold(0.0, f64::max);
            (r.total_run_s() - r.layers.render_s - main_lane_s(p) - critical).max(0.0)
        }),
    );
    for (kind, busy, n) in [
        ("submit", "simulator.submit_s", "simulator.submit_n"),
        ("complete", "simulator.complete_s", "simulator.complete_n"),
        (
            "wait_check",
            "simulator.wait_check_s",
            "simulator.wait_check_n",
        ),
        ("sample", "simulator.sample_s", "simulator.sample_n"),
    ] {
        v.insert(busy, lane(&format!("serial;{kind}")));
        v.insert(n, count(kind));
    }
    v.insert("cluster.starts", first.starts as f64);
    v.insert("cluster.suspensions", first.suspensions as f64);
    v.insert("cluster.enqueues", first.enqueues as f64);
    v.insert("cluster.peak_queue", first.peak_queue as f64);
    v.insert(
        "cluster.preempt_ratio",
        ratio(first.suspensions as f64, first.starts as f64),
    );
    v.insert("policy.calls", tr.policy_calls as f64);
    v.insert("policy.busy_s", med(traced, &|r| r.layers.policy_busy_s));
    v.insert(
        "policy.ns_per_call",
        med(traced, &|r| {
            ratio(r.layers.policy_busy_s * 1e9, r.layers.policy_calls as f64)
        }),
    );
    v.insert("policy.moves", tr.policy_moves as f64);
    v.insert(
        "policy.move_ratio",
        ratio(tr.policy_moves as f64, tr.policy_calls as f64),
    );
    v.insert(
        "policy.share",
        med(traced, &|r| ratio(r.layers.policy_busy_s, r.total_run_s())),
    );
    v.insert(
        "stream.worker_s",
        med(traced, &|r| shard_busy(&r.layers.profile).iter().sum()),
    );
    v.insert(
        "stream.generate_s",
        med(traced, &|r| {
            r.layers
                .profile
                .iter()
                .filter(|(k, _)| k.starts_with("shard") && k.ends_with(";generate"))
                .map(|(_, s)| s)
                .sum()
        }),
    );
    v.insert("stream.merge_s", lane("coordinator;merge"));
    v.insert(
        "stream.imbalance",
        med(traced, &|r| {
            let busy = shard_busy(&r.layers.profile);
            let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
            ratio(busy.iter().copied().fold(0.0, f64::max), mean)
        }),
    );
    v.insert(
        "stream.speedup",
        if w == Workload::StreamPools {
            ratio(refs_run, plain_run)
        } else {
            0.0
        },
    );
    v.insert("observer.calls", tr.observer_calls as f64);
    v.insert(
        "observer.checker_s",
        med(traced, &|r| r.layers.observer_busy_s[0]),
    );
    v.insert(
        "observer.telemetry_s",
        med(traced, &|r| r.layers.observer_busy_s[1]),
    );
    v.insert(
        "observer.spans_s",
        med(traced, &|r| r.layers.observer_busy_s[2]),
    );
    v.insert("observer.render_s", med(traced, &|r| r.layers.render_s));
    v.insert(
        "observer.overhead",
        if w == Workload::ObservedNormal {
            ratio(plain_run, refs_run)
        } else {
            0.0
        },
    );
    v.insert("trace.overhead", ratio(traced_run, plain_run));
    v.insert("jobs_failed_frac", failed_frac);
    v.insert("host.slowdown", week_median(plain, |w| w.host));
    v.insert(
        "host.raw_jobs_per_s",
        week_median(plain, |w| w.completed as f64 / w.run_s),
    );
    PER_LAYER
        .into_iter()
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        .map(|d| (d, v.get(d.name).map_or(f64::NAN, |x| x + 0.0)))
        .collect()
}

/// 64-bit FNV-1a, for compact digests.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Prints one digest line per strategy (or stream): its counters summed
/// over the repetition's cells, the first cell's detail, and a hash of
/// every cell's detail. A perf change must leave these lines unchanged.
fn print_digest(cells: &[CellDigest]) {
    let mut labels: Vec<&str> = Vec::new();
    for c in cells {
        if !labels.contains(&c.label) {
            labels.push(c.label);
        }
    }
    for label in labels {
        let group: Vec<&CellDigest> = cells.iter().filter(|c| c.label == label).collect();
        let sum = |f: fn(&CellDigest) -> u64| group.iter().map(|c| f(c)).sum::<u64>();
        let details: Vec<&str> = group.iter().map(|c| c.detail.as_str()).collect();
        println!(
            "digest {label:<15} cells {} completed {} unrunnable {} suspensions {} \
             restarts {}+{} events {} | first {} | all {:016x}",
            group.len(),
            sum(|c| c.counters.completed),
            sum(|c| c.counters.unrunnable),
            sum(|c| c.counters.suspensions),
            sum(|c| c.counters.restarts_from_suspend),
            sum(|c| c.counters.restarts_from_wait),
            sum(|c| c.counters.events),
            group[0].detail,
            fnv1a(details.join("\n").as_bytes())
        );
    }
}

/// Informational paper-fidelity readout for the table workloads: each
/// strategy's row beside the paper's, and the AvgCT(susp) reductions
/// against NoRes, measured and published. Nothing gates on it.
fn paper_readout(w: Workload, results: &[ExperimentResult]) {
    let (title, paper): (&str, Vec<PaperRow>) = match w {
        Workload::Table1Normal => ("Table 1 (normal load)", TABLE_1.to_vec()),
        Workload::Table2High => (
            "Tables 2 and 4 (high load)",
            TABLE_2.iter().chain(&TABLE_4[1..]).copied().collect(),
        ),
        Workload::StreamPools | Workload::ObservedNormal => return,
    };
    if results.len() != workloads::STRATEGIES.len() {
        return; // a cell failed; its check message says which
    }
    print_comparison(title, results, &paper);
    print_reductions(results);
    let base = paper[0].avg_ct_suspended;
    for row in &paper[1..] {
        println!(
            "{:<16} AvgCT(susp) {:+.0}% vs NoRes (paper)",
            row.strategy.name(),
            -reduction(base, row.avg_ct_suspended) * 100.0
        );
    }
}
