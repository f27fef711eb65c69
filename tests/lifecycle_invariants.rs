//! Property-based integration tests: randomized small workloads on small
//! sites, checking the accounting identities every finished run must
//! satisfy regardless of policy.

use netbatch::cluster::ids::PoolId;
use netbatch::cluster::job::PoolAffinity;
use netbatch::cluster::pool::PoolConfig;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{SimConfig, Simulator};
use netbatch::sim_engine::time::SimDuration;
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

fn arb_strategy() -> impl Strategy<Value = StrategyKind> {
    prop::sample::select(vec![
        StrategyKind::NoRes,
        StrategyKind::ResSusUtil,
        StrategyKind::ResSusRand,
        StrategyKind::ResSusWaitUtil,
        StrategyKind::ResSusWaitRand,
        StrategyKind::ResSusQueue,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every job completes and its lifecycle segments tile its lifetime:
    /// completion span == wait + suspend + run (progress discarded by
    /// restarts is part of run time).
    #[test]
    fn prop_lifecycle_tiles(
        records in prop::collection::vec(arb_record(), 1..60),
        strategy in arb_strategy(),
        seed in 0u64..1000,
    ) {
        let site = small_site(3, 2, 2);
        let trace = Trace::from_records(records);
        let mut config = SimConfig::new(InitialKind::RoundRobin, strategy);
        config.seed = seed;
        // The checker is an observer, so the run keeps every job's record.
        config.check_invariants = true;
        let sim = Simulator::new(&site, trace.to_specs(), config);
        let out = sim.run_to_completion();
        prop_assert_eq!(out.counters.completed as usize, out.jobs.len());
        for job in &out.jobs {
            prop_assert!(job.is_completed());
            let span = job
                .completed_at()
                .expect("completed")
                .since(job.spec().submit_time);
            let tiled = job.wait_time() + job.suspend_time() + job.run_time();
            prop_assert_eq!(
                span, tiled,
                "job {} span {:?} != wait+suspend+run {:?}",
                job.id(), span, tiled
            );
            // Run time covers at least one full execution of the job.
            prop_assert!(job.run_time() >= SimDuration::from_minutes(1));
            // Rescheduling waste never exceeds run time plus overhead
            // (all waste is discarded run time when overhead is zero).
            prop_assert!(job.resched_waste() <= job.run_time());
            // A job that was never suspended and never restarted has no
            // suspend time.
            if !job.was_suspended() {
                prop_assert_eq!(job.suspend_time(), SimDuration::ZERO);
            }
        }
    }

    /// The event count is finite and bounded: no policy may livelock even
    /// with aggressive wait rescheduling on an overloaded site.
    #[test]
    fn prop_no_event_storms(
        records in prop::collection::vec(arb_record(), 1..40),
        strategy in arb_strategy(),
    ) {
        // A deliberately tiny site: two pools of one 2-core machine each
        // forces deep queues and maximal churn.
        let site = small_site(2, 1, 2);
        let trace = Trace::from_records(records);
        let n = trace.len() as u64;
        let mut config = SimConfig::new(InitialKind::RoundRobin, strategy);
        config.check_invariants = true;
        let sim = Simulator::new(&site, trace.to_specs(), config);
        let out = sim.run_to_completion();
        prop_assert_eq!(out.counters.completed, n);
        // Generous bound: submissions + completions + restarts + wait
        // checks should stay polynomial, not explode.
        let total_runtime: u64 = out.jobs.iter().map(|j| j.run_time().as_minutes()).sum();
        let bound = 10 * n + 4 * out.counters.suspensions + total_runtime / 15 + 1000;
        prop_assert!(
            out.counters.events <= bound,
            "events {} exceed bound {bound}",
            out.counters.events
        );
    }

    /// Suspend-rate and metric sanity for arbitrary workloads.
    #[test]
    fn prop_metric_ranges(
        records in prop::collection::vec(arb_record(), 1..60),
        strategy in arb_strategy(),
    ) {
        let site = small_site(3, 2, 2);
        let trace = Trace::from_records(records);
        let exp = netbatch::core::experiment::Experiment::new(
            site,
            trace,
            SimConfig::new(InitialKind::RoundRobin, strategy),
        );
        let r = exp.run();
        prop_assert!((0.0..=1.0).contains(&r.suspend_rate));
        prop_assert!(r.avg_ct_all >= 0.0);
        prop_assert!(r.avg_ct_suspended >= r.avg_st, "CT includes suspension");
        prop_assert!(r.avg_wct() <= r.avg_ct_all, "waste is part of completion time");
    }
}

/// A historical shrunk failure (one machine-filling 2-core job under
/// NoRes), pinned as an explicit test rather than as persisted generator
/// state: `.proptest-regressions` files are not committed — a shrunk
/// case worth keeping gets promoted to a named regression test like this
/// one, and CI fails if a regressions file ever drifts into the tree.
#[test]
fn regression_single_machine_filling_job_completes() {
    let site = small_site(3, 2, 2);
    let trace = Trace::from_records(vec![TraceRecord {
        submit_minute: 0,
        runtime_minutes: 1,
        cores: 2,
        memory_mb: 512,
        priority: 0,
        affinity: PoolAffinity::Any,
        task: None,
    }]);
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    let out = Simulator::new(&site, trace.to_specs(), config).run_to_completion();
    assert_eq!(out.counters.completed, 1);
    let job = &out.jobs[0];
    assert!(job.is_completed());
    assert_eq!(job.run_time(), SimDuration::from_minutes(1));
}
