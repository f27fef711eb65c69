//! Chaos harness: conservation under churn. Arbitrary small workloads run
//! under *every* strategy while a randomized [`FaultModel`] takes machines
//! (and whole pools) down and back up, with the resilience policy toggled
//! both ways, all under the online [`InvariantChecker`]:
//!
//! 1. every run drains — no job is lost in an eviction, parked forever in
//!    backoff, or duplicated into two completions
//!    (`completed + unrunnable == total_jobs`);
//! 2. fault handling is deterministic — same seed, byte-identical traces;
//! 3. the recorded `retry_backoff` events reconcile exactly with the run's
//!    `retries_scheduled` counter;
//! 4. (regression) overlapping outage intervals for one machine are merged
//!    before seeding, so a machine never "resurrects" at the end of a
//!    shorter, nested outage while a longer one still has it down.

use netbatch::cluster::ids::PoolId;
use netbatch::cluster::job::PoolAffinity;
use netbatch::cluster::pool::PoolConfig;
use netbatch::core::faults::{FaultModel, LifecycleModel, MachineOutage, ResiliencePolicy};
use netbatch::core::observer::{InvariantChecker, TraceRecorder};
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{SimConfig, SimOutput, Simulator};
use netbatch::sim_engine::time::{SimDuration, SimTime};
use netbatch::workload::scenarios::SiteSpec;
use netbatch::workload::trace::{Trace, TraceRecord};
use proptest::prelude::*;

fn small_site(pools: u16, machines: u32, cores: u32) -> SiteSpec {
    SiteSpec {
        pools: (0..pools)
            .map(|p| PoolConfig::uniform(PoolId(p), machines, cores, 8192))
            .collect(),
    }
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..2000,                                // submit minute
        1u64..500,                                 // runtime
        1u32..3,                                   // cores
        prop::sample::select(vec![0u8, 0, 0, 10]), // mostly low, some high
        prop::bool::ANY,                           // restricted affinity?
    )
        .prop_map(
            |(submit, runtime, cores, priority, restricted)| TraceRecord {
                submit_minute: submit,
                runtime_minutes: runtime,
                cores,
                memory_mb: 512,
                priority,
                affinity: if restricted && priority >= 10 {
                    PoolAffinity::from_ids(&[0])
                } else {
                    PoolAffinity::Any
                },
                task: None,
            },
        )
}

fn arb_any_strategy() -> impl Strategy<Value = StrategyKind> {
    prop::sample::select(vec![
        StrategyKind::NoRes,
        StrategyKind::ResSusUtil,
        StrategyKind::ResSusRand,
        StrategyKind::ResSusWaitUtil,
        StrategyKind::ResSusWaitRand,
        StrategyKind::ResSusQueue,
        StrategyKind::ResSusWaitSmart,
        StrategyKind::MigrateSusUtil,
        StrategyKind::DupSusUtil,
    ])
}

/// Randomized fault intensity: MTBF short enough that a 2.5k-minute
/// workload sees real churn, repairs always finite so every run can drain.
fn arb_fault_model() -> impl Strategy<Value = FaultModel> {
    (
        200u64..3000, // mtbf minutes
        30u64..300,   // mttr minutes
        0u32..2,      // correlated pool outages
        0u64..30,     // flaky fraction, percent
    )
        .prop_map(|(mtbf, mttr, pool_outages, flaky_pct)| {
            FaultModel::new(
                SimDuration::from_minutes(mtbf),
                SimDuration::from_minutes(mttr),
                SimDuration::from_minutes(3000),
            )
            .with_pool_outages(pool_outages, SimDuration::from_minutes(mttr))
            .with_flaky(flaky_pct as f64 / 100.0, 8)
        })
}

/// Randomized lifecycle intensity over the same 3000-minute window as
/// [`arb_fault_model`]: maintenance cadence, rolling-update waves, health
/// cordons and drain leads all vary, so the drain/evacuation machinery is
/// exercised across schedule shapes (including degenerate all-off plans).
fn arb_lifecycle_model() -> impl Strategy<Value = LifecycleModel> {
    (
        5u64..180,                                   // drain lead minutes
        prop::sample::select(vec![0u64, 600, 1200]), // maintenance period (0 = off)
        30u64..180,                                  // maintenance outage minutes
        0u32..3,                                     // rolling waves
        1u64..100,                                   // rolling fraction, percent
        prop::sample::select(vec![0u32, 300, 600]),  // cordon threshold, milli
        0u64..40,                                    // flaky fraction, percent
    )
        .prop_map(
            |(lead, every, duration, waves, roll_pct, cordon, flaky_pct)| {
                LifecycleModel::new(SimDuration::from_minutes(3000))
                    .with_drain_lead(SimDuration::from_minutes(lead))
                    .with_maintenance(
                        SimDuration::from_minutes(every),
                        SimDuration::from_minutes(duration),
                    )
                    .with_rolling(
                        waves,
                        roll_pct as f64 / 100.0,
                        SimDuration::from_minutes(60),
                    )
                    .with_cordon(cordon, SimDuration::from_minutes(500))
                    .with_flaky(flaky_pct as f64 / 100.0, 8)
            },
        )
}

/// Runs a faulty workload with the invariant checker and an in-memory
/// recorder attached. A violated invariant panics inside, failing the
/// property.
fn run_chaos(
    records: Vec<TraceRecord>,
    strategy: StrategyKind,
    seed: u64,
    model: FaultModel,
    hardened: bool,
) -> SimOutput {
    let site = small_site(3, 2, 2);
    let trace = Trace::from_records(records);
    let mut config = SimConfig::new(InitialKind::RoundRobin, strategy);
    config.seed = seed;
    config.check_invariants = true;
    config.fault_model = Some(model);
    config.resilience = if hardened {
        ResiliencePolicy::hardened()
    } else {
        ResiliencePolicy::disabled()
    };
    let mut sim = Simulator::new(&site, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    sim.run_to_completion()
}

/// Like [`run_chaos`] but with a machine-lifecycle plan layered on top of
/// the stochastic faults and health-aware scheduling with proactive
/// evacuation toggled by `aware`.
fn run_lifecycle_chaos(
    records: Vec<TraceRecord>,
    strategy: StrategyKind,
    seed: u64,
    model: FaultModel,
    lifecycle: LifecycleModel,
    aware: bool,
) -> SimOutput {
    let site = small_site(3, 2, 2);
    let trace = Trace::from_records(records);
    let mut config = SimConfig::new(InitialKind::RoundRobin, strategy);
    config.seed = seed;
    config.check_invariants = true;
    config.fault_model = Some(model);
    config.lifecycle = Some(lifecycle);
    config.health_aware = aware;
    config.resilience = if aware {
        ResiliencePolicy::hardened().with_evacuation()
    } else {
        ResiliencePolicy::hardened()
    };
    let mut sim = Simulator::new(&site, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    sim.run_to_completion()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under arbitrary fault plans and every strategy, hardened or not,
    /// the checker stays silent and every job settles exactly once.
    #[test]
    fn prop_chaos_conservation_under_churn(
        records in prop::collection::vec(arb_record(), 1..40),
        strategy in arb_any_strategy(),
        seed in 0u64..1000,
        model in arb_fault_model(),
        hardened in prop::bool::ANY,
    ) {
        let n = records.len() as u64;
        let out = run_chaos(records, strategy, seed, model, hardened);
        let checker = out
            .observer::<InvariantChecker>()
            .expect("checker attached via config");
        prop_assert!(checker.events_seen() > 0, "checker saw no events");
        prop_assert_eq!(
            out.counters.completed + out.counters.unrunnable,
            n,
            "job lost or double-settled: {} completed + {} unrunnable != {} submitted",
            out.counters.completed,
            out.counters.unrunnable,
            n
        );
        // The journal reconciles with the resilience counters.
        let rec = out.observer::<TraceRecorder>().expect("recorder attached");
        let count = |kind: &str| rec.kind_counts().get(kind).copied().unwrap_or(0);
        prop_assert_eq!(count("retry_backoff"), out.counters.retries_scheduled);
        prop_assert_eq!(count("failure_evict"), out.counters.failure_evictions);
        prop_assert_eq!(count("unrunnable"), out.counters.unrunnable);
        if !hardened {
            prop_assert_eq!(out.counters.retries_scheduled, 0);
            prop_assert_eq!(count("blacklist"), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault generation and resilient rescheduling are fully deterministic:
    /// the same seed replays a byte-identical event stream.
    #[test]
    fn prop_chaos_same_seed_same_trace(
        records in prop::collection::vec(arb_record(), 1..40),
        strategy in arb_any_strategy(),
        seed in 0u64..1000,
        model in arb_fault_model(),
        hardened in prop::bool::ANY,
    ) {
        let a = run_chaos(records.clone(), strategy, seed, model.clone(), hardened);
        let b = run_chaos(records, strategy, seed, model, hardened);
        let lines = |out: &SimOutput| {
            out.observer::<TraceRecorder>()
                .expect("recorder attached")
                .lines()
                .to_string()
        };
        prop_assert_eq!(lines(&a), lines(&b), "same-seed traces diverge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random lifecycle plans (drains, maintenance kills, rolling waves,
    /// cordons) layered on random fault plans, across every strategy with
    /// evacuation toggled both ways: the invariant checker stays silent
    /// (no dispatch onto draining machines, legal transitions, evacuations
    /// inside their drain windows), every job settles exactly once, and
    /// the journal's evacuation events reconcile with the run counter.
    #[test]
    fn prop_lifecycle_chaos_conservation(
        records in prop::collection::vec(arb_record(), 1..40),
        strategy in arb_any_strategy(),
        seed in 0u64..1000,
        model in arb_fault_model(),
        lifecycle in arb_lifecycle_model(),
        aware in prop::bool::ANY,
    ) {
        let n = records.len() as u64;
        let out = run_lifecycle_chaos(
            records, strategy, seed, model, lifecycle, aware,
        );
        let checker = out
            .observer::<InvariantChecker>()
            .expect("checker attached via config");
        prop_assert!(checker.events_seen() > 0, "checker saw no events");
        prop_assert_eq!(
            out.counters.completed + out.counters.unrunnable,
            n,
            "job lost or double-settled under lifecycle churn"
        );
        let rec = out.observer::<TraceRecorder>().expect("recorder attached");
        let count = |kind: &str| rec.kind_counts().get(kind).copied().unwrap_or(0);
        prop_assert_eq!(count("evacuation"), out.counters.evacuations);
        prop_assert_eq!(
            count("machine_draining"),
            count("machine_undrained"),
            "every drain window must close"
        );
        if !aware {
            prop_assert_eq!(out.counters.evacuations, 0,
                "evacuation fired with the policy disabled");
        }
    }
}

/// Regression: two overlapping outages for the same machine used to seed
/// independent `MachineUp` events, resurrecting the machine when the
/// *shorter* outage ended. The plan normalization merges them, so exactly
/// one down/up pair reaches the kernel and the machine stays down until
/// the latest repair.
#[test]
fn overlapping_outages_do_not_resurrect_early() {
    let site = small_site(1, 1, 2);
    let trace = Trace::from_records(vec![TraceRecord {
        submit_minute: 0,
        runtime_minutes: 20,
        cores: 1,
        memory_mb: 512,
        priority: 0,
        affinity: PoolAffinity::Any,
        task: None,
    }]);
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    // A long outage [10, 110) with a shorter one [50, 60) nested inside.
    config.failures = vec![
        MachineOutage {
            pool: PoolId(0),
            machine: 0.into(),
            from: SimTime::from_minutes(10),
            until: Some(SimTime::from_minutes(110)),
        },
        MachineOutage {
            pool: PoolId(0),
            machine: 0.into(),
            from: SimTime::from_minutes(50),
            until: Some(SimTime::from_minutes(60)),
        },
    ];
    let mut sim = Simulator::new(&site, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    let out = sim.run_to_completion();
    let rec = out.observer::<TraceRecorder>().expect("recorder attached");
    let count = |kind: &str| rec.kind_counts().get(kind).copied().unwrap_or(0);
    // One merged outage: one down, one up — not two of each (the checker
    // would also flag the double-down, but pin the seeding directly).
    assert_eq!(count("machine_down"), 1, "overlapping outages not merged");
    assert_eq!(
        count("machine_up"),
        1,
        "nested outage seeded its own repair"
    );
    assert_eq!(out.counters.completed, 1);
    // The sole machine was down until minute 110; the 20-minute job can
    // only finish after 130. Early resurrection would finish it by ~80.
    let complete_line = rec
        .lines()
        .lines()
        .find(|l| l.contains("\"ev\":\"complete\""))
        .expect("job completed");
    let t: u64 = complete_line["{\"t\":".len()..]
        .split(',')
        .next()
        .and_then(|s| s.parse().ok())
        .expect("complete line has a timestamp");
    assert!(
        t >= 130,
        "job finished at t={t}, before the merged outage ended (early resurrection)"
    );
}
