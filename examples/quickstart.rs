//! Quickstart: build a small cluster by hand, submit a handful of jobs,
//! watch priority preemption happen, and compare `NoRes` against
//! `ResSusUtil` on the same workload.
//!
//! Run with `cargo run --release --example quickstart`.

use netbatch::cluster::ids::PoolId;
use netbatch::cluster::job::{JobSpec, PoolAffinity};
use netbatch::cluster::pool::PoolConfig;
use netbatch::cluster::priority::Priority;
use netbatch::core::experiment::Experiment;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::SimConfig;
use netbatch::sim_engine::time::{SimDuration, SimTime};
use netbatch::workload::scenarios::SiteSpec;
use netbatch::workload::trace::{Trace, TraceRecord};

fn main() {
    // A two-pool site: pool 0 is the "owned" pool high-priority work is
    // pinned to; pool 1 is spare capacity.
    let site = SiteSpec {
        pools: vec![
            PoolConfig::uniform(PoolId(0), 4, 2, 8192),
            PoolConfig::uniform(PoolId(1), 4, 2, 8192),
        ],
    };

    // Eight low-priority jobs fill pool 0 and half of pool 1...
    let mut records: Vec<TraceRecord> = (0..12)
        .map(|i| TraceRecord {
            submit_minute: i,
            runtime_minutes: 300,
            cores: 1,
            memory_mb: 1024,
            priority: 0,
            affinity: PoolAffinity::Any,
            task: None,
        })
        .collect();
    // ...then the owners show up: a burst of high-priority jobs that may
    // only run in pool 0 (§2.3 of the paper), all sharing one pool set.
    let pool0 = PoolAffinity::from_ids(&[0]);
    for i in 0..8 {
        records.push(TraceRecord {
            submit_minute: 60 + i,
            runtime_minutes: 120,
            cores: 1,
            memory_mb: 1024,
            priority: 10,
            affinity: pool0.clone(),
            task: None,
        });
    }
    let trace = Trace::from_records(records);

    for strategy in [StrategyKind::NoRes, StrategyKind::ResSusUtil] {
        let result = Experiment::new(
            site.clone(),
            trace.clone(),
            SimConfig::new(InitialKind::RoundRobin, strategy),
        )
        .run();
        println!("== {strategy} ==");
        println!(
            "  jobs completed          {}/{}",
            result.counters.completed, result.total_jobs
        );
        println!(
            "  suspend rate            {:.1}% ({} preemptions)",
            result.suspend_rate * 100.0,
            result.counters.suspensions
        );
        println!(
            "  avg completion time     {:.0} min (suspended jobs: {:.0} min)",
            result.avg_ct_all, result.avg_ct_suspended
        );
        println!(
            "  avg wasted time per job {:.1} min = wait {:.1} + suspend {:.1} + resched {:.1}",
            result.avg_wct(),
            result.waste.avg_wait(),
            result.waste.avg_suspend(),
            result.waste.avg_resched()
        );
        println!(
            "  restarts                {} from suspension",
            result.counters.restarts_from_suspend
        );
        println!();
    }

    // The same machinery is usable directly: here is a single preemption
    // at pool level, no simulator involved.
    let mut pool =
        netbatch::cluster::pool::PhysicalPool::new(PoolConfig::uniform(PoolId(0), 1, 1, 4096));
    let low = JobSpec::new(100.into(), SimTime::ZERO, SimDuration::from_hours(5))
        .with_affinity(PoolAffinity::from_ids(&[0]));
    let high = JobSpec::new(101.into(), SimTime::ZERO, SimDuration::from_hours(1))
        .with_priority(Priority::HIGH);
    pool.submit(SimTime::ZERO, &low);
    let outcome = pool.submit(SimTime::from_minutes(30), &high);
    println!("direct pool API: submitting a high-priority job over a low one -> {outcome:?}");
    println!("suspended jobs in pool: {}", pool.suspended_count());
}
