//! Conformance suite for the streaming backend (differential testing
//! against its own single-worker run and the materialized serial run):
//!
//! * streaming runs are **shard-count independent**: the golden JSONL
//!   trace is byte-identical across 1/2/3/4/20/10 000 requested workers
//!   (capped at the pool count) and across both event-queue backends
//!   (the streaming canonical order is defined per-pool, so partitioning
//!   cannot reorder it);
//! * streaming equals a **materialized** serial run job-for-job and
//!   counter-for-counter when sampling is off (per-pool event sequences
//!   coincide; only cross-pool interleaving within a minute differs,
//!   which no per-job record or counter can see), and an unobserved
//!   streaming run, which keeps no records, reports the serial run's
//!   Table metrics from its folded totals;
//! * **run-ahead** and epoch **pipelining** are unobservable: an
//!   observer-less run (whose workers drain completion minutes between
//!   barrier duties, with two dispatches in flight) matches the same run
//!   with a recorder attached (one barrier per active minute, no
//!   pipelining) and the 1-shard run;
//! * every job of a class shares the class's pool set, from generated
//!   record through spec to job record, on both kernels;
//! * a booking due in the minute a submission preempts its job is skipped,
//!   as a materialized run does;
//! * a year-long horizon streams in bounded state end to end.

use std::sync::Arc;

use netbatch::cluster::ids::PoolId;
use netbatch::cluster::job::PoolAffinity;
use netbatch::cluster::pool::PoolConfig;
use netbatch::cluster::priority::Priority;
use netbatch::core::experiment::ExperimentResult;
use netbatch::core::observer::{InvariantChecker, TraceRecorder};
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{Backend, SimConfig, SimOutput, Simulator};
use netbatch::sim_engine::rng::DetRng;
use netbatch::sim_engine::time::SimTime;
use netbatch::workload::distributions::{Constant, WeightedChoice};
use netbatch::workload::generator::ArrivalProcess;
use netbatch::workload::scenarios::{PerPoolParams, SiteSpec};
use netbatch::workload::{JobClass, Stream, WorkloadSpec};

fn base_config(backend: Backend) -> SimConfig {
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.backend = backend;
    config
}

/// `config` with the invariant checker on: a serial run under an
/// observer keeps every job's record, for comparing record by record.
fn observed(config: &SimConfig) -> SimConfig {
    SimConfig {
        check_invariants: true,
        ..config.clone()
    }
}

/// A small pool-major workload with enough pressure (bursty pinned high
/// streams) to exercise suspensions, resumes and queueing on every pool.
fn params() -> PerPoolParams {
    PerPoolParams::new(8, 0.3, 2_000).with_high_bursts()
}

/// Runs one streaming cell with a trace recorder attached and returns
/// the JSONL stream plus the full output.
fn run_streaming_traced(p: &PerPoolParams, config: SimConfig) -> (String, SimOutput) {
    let site = p.build_site();
    let workload = p.build_workload();
    let mut sim = Simulator::new(&site, Vec::new(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    let output = sim.run_streaming(&workload, p.seed);
    let jsonl = output
        .observer::<TraceRecorder>()
        .expect("recorder attached")
        .lines()
        .to_string();
    (jsonl, output)
}

fn assert_same_trace(reference: &str, other: &str, label: &str) {
    if reference == other {
        return;
    }
    for (i, (a, b)) in reference.lines().zip(other.lines()).enumerate() {
        assert_eq!(a, b, "{label}: trace diverges at line {}", i + 1);
    }
    assert_eq!(
        reference.lines().count(),
        other.lines().count(),
        "{label}: trace length diverges"
    );
}

/// The golden matrix: every worker count and both queue backends yield
/// the byte-identical event stream, counters and job records. Counts past
/// the pool count (20 and 10 000 on 8 pools) are capped, not spawned.
#[test]
fn streaming_trace_is_shard_count_independent() {
    let p = params();
    let mut reference_cfg = base_config(Backend::Serial).with_sampling();
    reference_cfg.seed = p.seed;
    let (golden, reference) = run_streaming_traced(&p, reference_cfg.clone());
    assert!(
        reference.counters.completed as f64 > p.expected_jobs() * 0.5,
        "the cell must actually run a calibrated workload"
    );
    assert!(reference.counters.suspensions > 0, "bursts must preempt");

    // 3 shards split the 8 pools 3/3/2: the inline shard 0 owns more
    // pools than spawned shard 2.
    for shards in [1usize, 2, 3, 4, 20, 10_000] {
        for reference_queue in [false, true] {
            let mut config = base_config(Backend::Sharded { shards }).with_sampling();
            config.seed = p.seed;
            config.use_reference_queue = reference_queue;
            let label = format!("shards={shards} refq={reference_queue}");
            let (jsonl, output) = run_streaming_traced(&p, config);
            assert_same_trace(&golden, &jsonl, &label);
            assert_eq!(reference.counters, output.counters, "{label}: counters");
            assert_eq!(reference.end_time, output.end_time, "{label}: end time");
            assert_eq!(reference.jobs, output.jobs, "{label}: job records");
            assert_eq!(reference.pool_stats, output.pool_stats, "{label}: pools");
            assert_eq!(
                reference.utilization_series, output.utilization_series,
                "{label}: utilization series"
            );
        }
    }
}

/// With sampling off, a streaming run and a materialized serial run are
/// indistinguishable in every per-job record and every counter.
#[test]
fn streaming_matches_materialized_run() {
    let p = params();
    let site = p.build_site();
    let workload = p.build_workload();

    let mut config = base_config(Backend::Serial);
    config.seed = p.seed;
    let trace = workload.generate(p.seed);
    let materialized =
        Simulator::new(&site, trace.to_specs(), observed(&config)).run_to_completion();

    for backend in [Backend::Serial, Backend::Sharded { shards: 4 }] {
        let mut cfg = config.clone();
        cfg.backend = backend;
        let mut sim = Simulator::new(&site, Vec::new(), cfg);
        // Any observer switches the run into retain mode so SimOutput
        // carries the job records to compare.
        sim.attach_observer(Box::new(TraceRecorder::in_memory()));
        let streamed = sim.run_streaming(&workload, p.seed);
        assert_eq!(materialized.jobs, streamed.jobs, "{backend:?}: job records");
        assert_eq!(
            materialized.counters, streamed.counters,
            "{backend:?}: counters"
        );
        assert_eq!(
            materialized.end_time, streamed.end_time,
            "{backend:?}: end time"
        );
        assert_eq!(
            materialized.pool_stats, streamed.pool_stats,
            "{backend:?}: pools"
        );
    }
}

/// The Table metrics come from exact totals folded as each job retires,
/// whether or not its record is kept: an unobserved streaming run, which
/// keeps none, reports the serial kernel's `ExperimentResult` field for
/// field, on both pool-major workloads and at every shard count.
#[test]
fn unobserved_streaming_results_equal_the_serial_ones() {
    let p = params();
    let collision = collision_workload();
    let cells = [
        (p.build_site(), p.build_workload(), p.seed),
        (two_one_core_pools(), collision, 3),
    ];
    for (site, workload, seed) in &cells {
        let mut config = base_config(Backend::Serial);
        config.seed = *seed;
        let result = |out| ExperimentResult::from_output(config.initial, config.strategy, out);
        let specs = || workload.generate(*seed).to_specs();
        let serial = result(Simulator::new(site, specs(), config.clone()).run_to_completion());
        assert!(serial.suspended_jobs() > 0, "the cell must suspend jobs");
        let checked = result(Simulator::new(site, specs(), observed(&config)).run_to_completion());
        assert_eq!(serial, checked, "serial, observed or not");
        for shards in [1usize, 2, 4] {
            let mut cfg = config.clone();
            cfg.backend = Backend::Sharded { shards };
            let streamed =
                result(Simulator::new(site, Vec::new(), cfg).run_streaming(workload, *seed));
            assert_eq!(serial, streamed, "{shards} shards");
        }
    }
}

/// Every job of a class points at its class's one pool set: the
/// generated record, its spec and its job record, on the serial kernel and
/// on an observed streaming run (which keeps its finished records). A
/// per-job copy of the set anywhere on the way fails the pointer check.
#[test]
fn every_job_shares_its_class_affinity_set() {
    let p = params();
    let site = p.build_site();
    let workload = p.build_workload();
    let class_sets: Vec<&Arc<[PoolId]>> = workload
        .streams
        .iter()
        .map(|s| match &s.class.affinity {
            PoolAffinity::Subset(set) => set,
            PoolAffinity::Any => panic!("pool-major streams are pinned"),
        })
        .collect();
    let shared = |affinity: &PoolAffinity| match affinity {
        PoolAffinity::Subset(set) => class_sets.iter().any(|c| Arc::ptr_eq(c, set)),
        PoolAffinity::Any => false,
    };
    let trace = workload.generate(p.seed);
    assert!(trace.iter().all(|r| shared(&r.affinity)), "trace records");
    let specs = trace.to_specs();
    assert!(specs.iter().all(|s| shared(&s.affinity)), "specs");

    let mut config = base_config(Backend::Serial);
    config.seed = p.seed;
    let serial = Simulator::new(&site, specs, observed(&config)).run_to_completion();
    config.backend = Backend::Sharded { shards: 2 };
    let mut sim = Simulator::new(&site, Vec::new(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    let streamed = sim.run_streaming(&workload, p.seed);
    for (label, out) in [("serial", &serial), ("streaming", &streamed)] {
        assert_eq!(out.jobs.len(), trace.len(), "{label}: every job kept");
        assert!(
            out.jobs.iter().all(|j| shared(&j.spec().affinity)),
            "{label}: job records"
        );
    }
}

/// Observer-less runs take the run-ahead, pipelined path: workers drain
/// their completion minutes between barrier duties (submission minutes,
/// sample ticks) without a round trip, and the coordinator keeps up to two
/// dispatches in flight; unsampled, that is the path perfbench measures.
/// Attaching a recorder forces a barrier every active minute and turns
/// pipelining off, so equal counters (events included), end time, pool
/// stats and series prove both unobservable. Every cell also equals the
/// 1-shard barriered run, job records included.
#[test]
fn run_ahead_matches_per_minute_barriers() {
    let p = params();
    let site = p.build_site();
    let workload = p.build_workload();
    let run = |shards: usize, reference_queue: bool, sampled: bool, traced: bool| {
        let mut config = base_config(Backend::Sharded { shards });
        if sampled {
            config = config.with_sampling();
        }
        config.seed = p.seed;
        config.use_reference_queue = reference_queue;
        let mut sim = Simulator::new(&site, Vec::new(), config);
        if traced {
            sim.attach_observer(Box::new(TraceRecorder::in_memory()));
        }
        sim.run_streaming(&workload, p.seed)
    };
    // Per sampling mode, the 1-shard barriered run every cell must equal.
    let reference = [false, true].map(|sampled| run(1, false, sampled, true));
    // 3 shards split the 8 pools 3/3/2: the inline shard 0 owns more
    // pools than spawned shard 2.
    for shards in [1usize, 2, 3, 4] {
        for reference_queue in [false, true] {
            for sampled in [false, true] {
                let label = format!("shards={shards} refq={reference_queue} sampled={sampled}");
                let barriered = run(shards, reference_queue, sampled, true);
                let fast = run(shards, reference_queue, sampled, false);
                assert!(
                    barriered.counters.suspensions > 0,
                    "{label}: bursts must preempt"
                );
                assert_same_outcome(&barriered, &fast, &label);
                let one_shard = &reference[usize::from(sampled)];
                assert_same_outcome(one_shard, &barriered, &format!("{label} vs 1 shard"));
                assert_eq!(one_shard.jobs, barriered.jobs, "{label}: job records");
                assert!(
                    fast.jobs.is_empty(),
                    "{label}: observer-less runs drop records"
                );
            }
        }
    }
}

/// Asserts two runs' counters (events included), end time, pool stats
/// and sampled series are equal.
fn assert_same_outcome(a: &SimOutput, b: &SimOutput, label: &str) {
    assert_eq!(a.counters, b.counters, "{label}: counters");
    assert_eq!(a.end_time, b.end_time, "{label}: end time");
    assert_eq!(a.pool_stats, b.pool_stats, "{label}: pools");
    assert_eq!(
        a.utilization_series, b.utilization_series,
        "{label}: utilization series"
    );
    assert_eq!(
        a.suspended_series, b.suspended_series,
        "{label}: suspended series"
    );
    assert_eq!(
        a.waiting_series, b.waiting_series,
        "{label}: waiting series"
    );
}

/// Arrivals at fixed minutes, for hand-built collisions.
#[derive(Debug)]
struct At(Vec<u64>);

impl ArrivalProcess for At {
    /// Unused: nothing calibrates against a hand-built workload.
    fn rate(&self) -> f64 {
        0.0
    }

    fn cursor(&self, _rng: DetRng, start: u64, end: u64) -> Box<dyn Iterator<Item = u64> + Send> {
        let minutes: Vec<u64> = self
            .0
            .iter()
            .copied()
            .filter(|m| (start..end).contains(m))
            .collect();
        Box::new(minutes.into_iter())
    }
}

fn fixed_class(name: &str, priority: u8, runtime: f64, pool: u16) -> JobClass {
    JobClass::new(name, priority, Box::new(Constant(runtime)))
        .with_cores(WeightedChoice::new(&[(1.0, 1.0)]))
        .with_memory(WeightedChoice::new(&[(512.0, 1.0)]))
        .with_affinity(PoolAffinity::from_ids(&[pool]))
}

fn two_one_core_pools() -> SiteSpec {
    SiteSpec {
        pools: (0..2)
            .map(|p| PoolConfig::uniform(PoolId(p), 1, 1, 8192))
            .collect(),
    }
}

/// Per pool, a low job due at minute 10 and a high job arriving then.
/// Pool 1's low job is booked first.
fn collision_workload() -> WorkloadSpec {
    let mut workload = WorkloadSpec::new(0, 100);
    for (pool, low_at) in [(0u16, 1u64), (1, 0)] {
        workload = workload
            .stream(Stream::new(
                fixed_class("low", 0, (10 - low_at) as f64, pool),
                Box::new(At(vec![low_at])),
            ))
            .stream(Stream::new(
                fixed_class("high", 10, 5.0, pool),
                Box::new(At(vec![10])),
            ));
    }
    workload
}

/// A high-priority submission at minute `e` preempts a job whose
/// completion is due at `e` itself. Submissions run before completions
/// within a minute, so the booking is already in the worker's due batch
/// when the suspension cancels it; delivery must skip it. The preempted
/// job resumes with no wall time left, so its new booking is due in the
/// minute it is made — and drained in that minute.
#[test]
fn a_completion_due_at_a_preempting_submission_is_skipped() {
    // Two one-core pools, each with a low job due at minute 10 and a
    // high job arriving then. Pool 1's low job is booked first, so the
    // minute's due batch pops lane 1 before lane 0 and the sort by lane
    // has to reorder it.
    let site = two_one_core_pools();
    let workload = collision_workload();
    let seed = 3;
    let config = base_config(Backend::Serial);
    let materialized = Simulator::new(&site, workload.generate(seed).to_specs(), observed(&config))
        .run_to_completion();
    // The collision happened: each low job was suspended at its due
    // minute 10, then finished at 15, the moment its high job left.
    assert_eq!(materialized.counters.suspensions, 2);
    let lows: Vec<_> = materialized
        .jobs
        .iter()
        .filter(|j| j.spec().priority == Priority::LOW)
        .collect();
    assert_eq!(lows.len(), 2);
    for low in lows {
        assert_eq!(low.suspensions(), 1, "{:?} was preempted", low.id());
        assert_eq!(
            low.run_time(),
            low.spec().runtime,
            "{:?} ran its full wall",
            low.id()
        );
        assert_eq!(
            low.spec().submit_time + low.completion_time().expect("completed"),
            SimTime::from_minutes(15),
            "{:?} resumed with nothing left to run",
            low.id()
        );
    }

    for shards in [1usize, 2] {
        for reference_queue in [false, true] {
            let label = format!("shards={shards} refq={reference_queue}");
            let mut cfg = config.clone();
            cfg.backend = Backend::Sharded { shards };
            cfg.use_reference_queue = reference_queue;
            let mut sim = Simulator::new(&site, Vec::new(), cfg.clone());
            sim.attach_observer(Box::new(TraceRecorder::in_memory()));
            let streamed = sim.run_streaming(&workload, seed);
            assert_eq!(materialized.jobs, streamed.jobs, "{label}: job records");
            assert_eq!(
                materialized.counters, streamed.counters,
                "{label}: counters"
            );
            assert_eq!(
                materialized.end_time, streamed.end_time,
                "{label}: end time"
            );
            assert_eq!(
                materialized.pool_stats, streamed.pool_stats,
                "{label}: pools"
            );
            let fast = Simulator::new(&site, Vec::new(), cfg).run_streaming(&workload, seed);
            assert_eq!(
                materialized.counters, fast.counters,
                "{label}: run-ahead counters"
            );
            assert_eq!(
                materialized.end_time, fast.end_time,
                "{label}: run-ahead end time"
            );
        }
    }
}

/// A year-long horizon (the paper's full trace window) streams end to
/// end; the trace is never materialized, and both backends agree.
#[test]
fn year_horizon_streams_to_completion() {
    let mut p = PerPoolParams::new(2, 0.02, 365 * 24 * 60);
    p.seed = 7;
    let site = p.build_site();
    let workload = p.build_workload();
    let run = |backend: Backend| {
        let mut config = base_config(backend);
        config.seed = p.seed;
        Simulator::new(&site, Vec::new(), config).run_streaming(&workload, p.seed)
    };
    let serial = run(Backend::Serial);
    let sharded = run(Backend::Sharded { shards: 2 });
    assert_eq!(serial.counters, sharded.counters);
    assert_eq!(serial.end_time, sharded.end_time);
    let expected = p.expected_jobs();
    let done = serial.counters.completed + serial.counters.unrunnable;
    assert!(
        (done as f64) > expected * 0.8 && (done as f64) < expected * 1.2,
        "year-scale job count {done} should be near the calibrated {expected:.0}"
    );
}

/// Configurations outside the streaming fast class are rejected loudly,
/// never silently degraded.
#[test]
#[should_panic(expected = "streaming backend supports only the NoRes fast class")]
fn non_fast_class_policies_are_rejected() {
    let p = params();
    let site = p.build_site();
    let workload = p.build_workload();
    let config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
    Simulator::new(&site, Vec::new(), config).run_streaming(&workload, p.seed);
}

/// Workloads without the pool-major pinning contract are rejected.
#[test]
#[should_panic(expected = "streaming workload contract violated")]
fn unpinned_workloads_are_rejected() {
    use netbatch::workload::scenarios::ScenarioParams;
    let params = ScenarioParams::normal_week(0.01);
    let site = params.build_site();
    let workload = params.build_workload();
    let config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    Simulator::new(&site, Vec::new(), config).run_streaming(&workload, params.seed);
}

/// The built-in dense-id observers index `ctx.jobs`, which a streaming
/// run keeps empty until drain: attaching one is rejected up front.
#[test]
#[should_panic(expected = "built-in dense-id observers cannot run on the streaming backend")]
fn attached_invariant_checker_is_rejected() {
    let p = params();
    let site = p.build_site();
    let workload = p.build_workload();
    let mut sim = Simulator::new(&site, Vec::new(), base_config(Backend::Serial));
    sim.attach_observer(Box::new(InvariantChecker::new()));
    sim.run_streaming(&workload, p.seed);
}

/// The config switches attach the same observers, and are rejected the
/// same way.
#[test]
#[should_panic(expected = "built-in dense-id observers cannot run on the streaming backend")]
fn telemetry_switch_is_rejected() {
    let p = params();
    let site = p.build_site();
    let workload = p.build_workload();
    let config = base_config(Backend::Sharded { shards: 2 }).with_telemetry();
    Simulator::new(&site, Vec::new(), config).run_streaming(&workload, p.seed);
}
