//! Differential suite for record retirement: a serial run without an
//! observer keeps a job's record only while the job is in flight and
//! folds it into exact totals when it retires, while an observed run
//! keeps every record and folds them all when the run ends. Both must
//! report the same [`ExperimentResult`], field by field: suspension
//! times in the same order, counters, end time, pool stats and series.
//!
//! The matrix is every strategy on five configurations: plain runs,
//! hardened runs under faults (backoff retries, give-ups and duplicate
//! races among evictions), lifecycle
//! drains with health-aware routing and evacuation, a two-VPM topology,
//! and restart overhead with a migration delay. Hand-built cells cover
//! jobs that never finish, which are folded only when the run ends, and
//! a duplicate race settled while the loser still has a retry booked.

use netbatch::cluster::ids::{JobId, MachineId, PoolId};
use netbatch::cluster::job::{JobSpec, PoolAffinity};
use netbatch::cluster::pool::PoolConfig;
use netbatch::cluster::priority::Priority;
use netbatch::core::experiment::{Experiment, ExperimentResult};
use netbatch::core::faults::{FaultModel, LifecycleModel, MachineOutage, ResiliencePolicy};
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{MigrationParams, SimConfig, Simulator, VpmTopology};
use netbatch::sim_engine::time::{SimDuration, SimTime};
use netbatch::workload::scenarios::{ScenarioParams, SiteSpec};
use netbatch::workload::trace::Trace;

const STRATEGIES: [StrategyKind; 9] = [
    StrategyKind::NoRes,
    StrategyKind::ResSusUtil,
    StrategyKind::ResSusRand,
    StrategyKind::ResSusWaitUtil,
    StrategyKind::ResSusWaitRand,
    StrategyKind::ResSusQueue,
    StrategyKind::MigrateSusUtil,
    StrategyKind::DupSusUtil,
    StrategyKind::ResSusWaitSmart,
];

/// The configurations each strategy runs under.
fn variants(strategy: StrategyKind, pools: u16) -> Vec<(&'static str, SimConfig)> {
    let plain = SimConfig {
        seed: 5,
        ..SimConfig::new(InitialKind::RoundRobin, strategy)
    };
    let horizon = SimDuration::from_days(7);
    let faults = SimConfig {
        fault_model: Some(
            FaultModel::new(
                SimDuration::from_hours(12),
                SimDuration::from_hours(3),
                horizon,
            )
            .with_pool_outages(1, SimDuration::from_hours(4))
            .with_flaky(0.1, 8),
        ),
        resilience: ResiliencePolicy::hardened(),
        ..plain.clone()
    };
    let lifecycle = SimConfig {
        initial: InitialKind::UtilizationBased,
        lifecycle: Some(LifecycleModel::standard(horizon).with_flaky(0.05, 16)),
        resilience: ResiliencePolicy::hardened().with_evacuation(),
        health_aware: true,
        ..plain.clone()
    };
    let topology = SimConfig {
        topology: Some(
            VpmTopology::contiguous(pools, 2)
                .expect("a site of at least two pools")
                .with_inter_site(SimDuration::from_minutes(20)),
        ),
        ..plain.clone()
    };
    let overheads = SimConfig {
        restart_overhead: SimDuration::from_minutes(15),
        migration: MigrationParams {
            delay: SimDuration::from_minutes(45),
            slowdown_milli: 1300,
        },
        ..plain.clone()
    };
    vec![
        ("plain", plain),
        ("hardened faults", faults),
        ("lifecycle + health-aware", lifecycle),
        ("topology", topology),
        ("restart overhead + migration delay", overheads),
    ]
}

/// The cell's result unobserved (records only in flight) and observed
/// (the invariant checker rides along, so every record is kept).
fn both_ways(site: &SiteSpec, specs: &[JobSpec], config: &SimConfig) -> [ExperimentResult; 2] {
    [false, true].map(|check_invariants| {
        let config = SimConfig {
            check_invariants,
            ..config.clone()
        };
        let out = Simulator::new(site, specs.to_vec(), config.clone()).run_to_completion();
        if check_invariants {
            assert_eq!(
                out.jobs.len() as u64,
                out.totals.jobs,
                "observed runs keep records"
            );
        } else {
            assert!(out.jobs.is_empty(), "unobserved runs keep no records");
        }
        ExperimentResult::from_output(config.initial, config.strategy, out)
    })
}

#[test]
fn unobserved_results_equal_observed_ones_for_every_strategy_and_config() {
    // A small high-load week: the halved site keeps pools saturated, so
    // every strategy suspends, restarts, migrates or duplicates.
    let params = ScenarioParams::normal_week(0.003);
    let site = params.build_site().halved();
    let specs = params.generate_trace().to_specs();
    let pools = site.pools.len() as u16;
    for strategy in STRATEGIES {
        for (label, config) in variants(strategy, pools) {
            let [unobserved, observed] = both_ways(&site, &specs, &config);
            assert_eq!(unobserved, observed, "{strategy:?} / {label}");
            assert_eq!(unobserved.total_jobs, specs.len() as u64);
            assert!(
                unobserved.suspended_jobs() > 0,
                "{strategy:?} / {label}: the cell must suspend jobs"
            );
        }
    }
}

/// Jobs that never finish stay in the table until the run ends, then
/// count towards the job total but not the averages; a job no pool can
/// run retires at once, the same way.
#[test]
fn jobs_that_never_finish_are_folded_when_the_run_ends() {
    let site = SiteSpec {
        pools: vec![PoolConfig::uniform(PoolId(0), 1, 2, 16_384)],
    };
    let spec = |id: u64, submit: u64, runtime: u64| {
        JobSpec::new(
            JobId(id),
            SimTime::from_minutes(submit),
            SimDuration::from_minutes(runtime),
        )
    };
    let specs = vec![
        spec(0, 0, 30),
        spec(1, 0, 200),
        spec(2, 10, 50).with_priority(Priority::HIGH),
        spec(3, 20, 10).with_cores(64),
        spec(4, 60, 40),
    ];
    // The only machine fails for good at minute 100: jobs 1 and 4 (the
    // latter queued behind it) never finish, job 3 is unrunnable.
    let config = SimConfig {
        failures: vec![MachineOutage {
            pool: PoolId(0),
            machine: MachineId(0),
            from: SimTime::from_minutes(100),
            until: None,
        }],
        ..SimConfig::default()
    };
    let [unobserved, observed] = both_ways(&site, &specs, &config);
    assert_eq!(unobserved, observed);
    assert_eq!(unobserved.total_jobs, 5);
    assert_eq!(unobserved.counters.completed, 2);
    assert_eq!(unobserved.counters.unrunnable, 1);
    assert_eq!(
        unobserved.waste.jobs, 2,
        "averages cover finished jobs only"
    );
}

/// A duplicate pair retires when its race is settled, even when the
/// losing original still has a backoff retry booked: the retry then
/// finds no record and does nothing, as it does for a finished one.
#[test]
fn a_settled_loser_retires_with_its_retry_pending() {
    let site = SiteSpec {
        pools: (0..2)
            .map(|p| PoolConfig::uniform(PoolId(p), 1, 1, 16_384))
            .collect(),
    };
    // Job 0 runs in pool 0 until the high job preempts it at minute 10;
    // its duplicate then runs in pool 1 from 10 to 25. Pool 0's machine
    // fails at 24, evicting the suspended original into a backoff retry
    // due at 26, after the duplicate has won the race.
    let specs = vec![
        JobSpec::new(JobId(0), SimTime::ZERO, SimDuration::from_minutes(15)),
        JobSpec::new(
            JobId(1),
            SimTime::from_minutes(10),
            SimDuration::from_minutes(100),
        )
        .with_priority(Priority::HIGH)
        .with_affinity(PoolAffinity::from_ids(&[0])),
    ];
    let config = SimConfig {
        failures: vec![MachineOutage {
            pool: PoolId(0),
            machine: MachineId(0),
            from: SimTime::from_minutes(24),
            until: Some(SimTime::from_minutes(124)),
        }],
        resilience: ResiliencePolicy::hardened(),
        ..SimConfig::new(InitialKind::RoundRobin, StrategyKind::DupSusUtil)
    };
    let [unobserved, observed] = both_ways(&site, &specs, &config);
    assert_eq!(unobserved, observed);
    let c = unobserved.counters;
    assert_eq!((c.duplicates_launched, c.duplicates_won), (1, 1));
    assert_eq!(c.failure_evictions, 2);
    assert_eq!(c.completed, 2);
}

/// `Experiment::run`, which runs unobserved, reports a suspended job's
/// suspend time even though its record is gone by the end of the run.
#[test]
fn experiment_reports_retired_jobs_in_id_order() {
    let params = ScenarioParams::normal_week(0.003);
    let site = params.build_site().halved();
    let trace: Trace = params.generate_trace();
    let config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
    let result = Experiment::new(site.clone(), trace.clone(), config.clone()).run();
    let observed = SimConfig {
        check_invariants: true,
        ..config
    };
    let out = Simulator::new(&site, trace.to_specs(), observed).run_to_completion();
    let by_id: Vec<f64> = out
        .jobs
        .iter()
        .filter(|j| j.is_completed() && j.was_suspended())
        .map(|j| j.suspend_time().as_minutes_f64())
        .collect();
    assert!(by_id.len() > 1);
    assert_eq!(result.suspension_times, by_id);
}
