//! Chip-simulation campaigns: the paper's §2.2 productivity argument.
//!
//! "Some classes of chip simulation work has logical notions of tasks,
//! each of which represents a set of jobs completing a specific function.
//! Typically, 100% or a high percentage of jobs associated with a
//! particular task needs to complete before the task result … can be
//! useful." A single straggler (e.g. one suspended job) therefore delays
//! the whole task. This example measures **task completion time** — the
//! completion time of each task's last job — with and without dynamic
//! rescheduling.
//!
//! Run with `cargo run --release --example chip_sim_campaign`.

use std::collections::HashMap;

use netbatch::cluster::ids::TaskId;
use netbatch::cluster::job::PoolAffinity;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{SimConfig, Simulator};
use netbatch::metrics::summary::SampleSet;
use netbatch::workload::distributions::LogNormal;
use netbatch::workload::generator::{
    BurstArrivals, JobClass, PoissonArrivals, Stream, WorkloadSpec,
};
use netbatch::workload::scenarios::SiteSpec;

fn main() {
    let site = SiteSpec::paper_site(0.08);
    // The campaign: regression tasks of 24 jobs each, submitted steadily,
    // restricted to pools 10-19 (where the design databases live); the
    // owners burst into the small pools 14-19 at high priority.
    let campaign = Stream::new(
        JobClass::new(
            "regression",
            0,
            Box::new(LogNormal::with_median(180.0, 0.6)),
        )
        .with_task_size(24)
        .with_affinity(PoolAffinity::from_ids(&[
            10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        ])),
        Box::new(PoissonArrivals::new(1.2)),
    );
    // Owners' interactive bursts share the same pools at high priority.
    let owners = Stream::new(
        JobClass::new("owners", 10, Box::new(LogNormal::with_median(200.0, 0.8)))
            .with_affinity(PoolAffinity::from_ids(&[14, 15, 16, 17, 18, 19])),
        Box::new(BurstArrivals::new(0.01, 1.5, 3_000.0, 1_200.0).starting_in_burst()),
    );
    let spec = WorkloadSpec::new(0, 10_080).stream(campaign).stream(owners);
    let trace = spec.generate(11);
    println!("campaign: {} jobs", trace.len());

    for strategy in [StrategyKind::NoRes, StrategyKind::ResSusWaitUtil] {
        let sim = Simulator::new(
            &site,
            trace.to_specs(),
            SimConfig::new(InitialKind::RoundRobin, strategy),
        );
        let out = sim.run_to_completion();

        // Task completion = completion of the task's last job.
        let mut task_done: HashMap<TaskId, (u64, u64, u64)> = HashMap::new(); // (n, submit_min, done_max)
        for job in &out.jobs {
            let Some(task) = job.spec().task else {
                continue;
            };
            let done = job.completed_at().expect("all jobs complete").as_minutes();
            let submit = job.spec().submit_time.as_minutes();
            let e = task_done.entry(task).or_insert((0, u64::MAX, 0));
            e.0 += 1;
            e.1 = e.1.min(submit);
            e.2 = e.2.max(done);
        }
        // Only full-size tasks count (the trailing partial task is noise).
        let mut task_ct = SampleSet::new();
        let mut job_ct = SampleSet::new();
        for (_, (n, submit, done)) in task_done.iter().filter(|(_, e)| e.0 == 24) {
            let _ = n;
            task_ct.push((done - submit) as f64);
        }
        for job in &out.jobs {
            if job.spec().task.is_some() {
                job_ct.push(job.completion_time().expect("complete").as_minutes_f64());
            }
        }
        println!("\n== {strategy} ==");
        println!("  tasks measured              {}", task_ct.len());
        println!("  mean job completion         {:>7.0} min", job_ct.mean());
        println!("  mean TASK completion        {:>7.0} min", task_ct.mean());
        println!(
            "  p95 task completion         {:>7.0} min",
            task_ct.quantile(0.95).unwrap_or(0.0)
        );
        println!(
            "  worst task                  {:>7.0} min",
            task_ct.quantile(1.0).unwrap_or(0.0)
        );
        println!(
            "  suspensions/restarts        {} / {}",
            out.counters.suspensions,
            out.counters.restarts_from_suspend + out.counters.restarts_from_wait
        );
    }
    println!("\nThe task-level tail (p95/worst) shrinks far more than the mean job");
    println!("completion time: rescheduling rescues exactly the stragglers that");
    println!("block task results — the engineering-productivity win of §2.2.");
}
