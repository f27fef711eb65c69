//! Machine failures and rescheduling-as-recovery (extension).
//!
//! The paper's future work includes validating on the live platform, where
//! hosts fail. This example injects a rack-sized outage mid-week and shows
//! that the dynamic-rescheduling machinery doubles as failure recovery:
//! evicted jobs flow through the same restart path as preempted ones.
//!
//! Run with `cargo run --release --example failure_recovery`.

use netbatch::cluster::ids::PoolId;
use netbatch::core::experiment::Experiment;
use netbatch::core::faults::MachineOutage;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::SimConfig;
use netbatch::sim_engine::time::{SimDuration, SimTime};
use netbatch::workload::scenarios::ScenarioParams;

fn main() {
    let params = ScenarioParams::normal_week(0.05);
    let site = params.build_site();
    let trace = params.generate_trace();
    println!(
        "site: {} pools, {} cores | {} jobs",
        site.pools.len(),
        site.total_cores(),
        trace.len()
    );

    // The outage: half of pool 4's machines go down at midweek for a day.
    let victims = site.pools[4].machines.len() / 2;
    let from = SimTime::from_minutes(5_000);
    let failures: Vec<MachineOutage> = (0..victims as u32)
        .map(|m| MachineOutage {
            pool: PoolId(4),
            machine: m.into(),
            from,
            until: Some(from + SimDuration::from_days(1)),
        })
        .collect();
    println!(
        "injecting: {} machines of pool 4 down at t=5000 for 24h\n",
        victims
    );

    println!(
        "{:<16} {:>10} {:>12} {:>9} {:>11}",
        "strategy", "evictions", "AvgCT (all)", "AvgWCT", "worst avg"
    );
    for strategy in [StrategyKind::NoRes, StrategyKind::ResSusWaitUtil] {
        for (label, failures) in [("healthy", Vec::new()), ("outage", failures.clone())] {
            let mut config = SimConfig::new(InitialKind::RoundRobin, strategy);
            config.failures = failures;
            let r = Experiment::new(site.clone(), trace.clone(), config).run();
            let worst = r.avg_ct_suspended.max(r.avg_ct_all);
            println!(
                "{:<16} {:>10} {:>12.1} {:>9.1} {:>11.0}  ({label})",
                strategy.name(),
                r.counters.failure_evictions,
                r.avg_ct_all,
                r.avg_wct(),
                worst
            );
        }
    }
    println!("\nUnder NoRes the outage's evicted jobs requeue wherever round-robin");
    println!("drops them; with wait rescheduling they chase free capacity, so the");
    println!("outage barely moves the averages — restart-based rescheduling and");
    println!("failure recovery are the same mechanism.");
}
