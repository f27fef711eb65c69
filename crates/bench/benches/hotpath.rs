//! Criterion benchmarks of the hot-path overhaul: the hierarchical
//! timer-wheel event queue against the reference binary heap, both as a
//! queue kernel (schedule/pop churn shaped like simulator traffic) and
//! end-to-end (a whole week cell run on each backend). Throughput is
//! reported in events/second. Cross-revision tracking is perfbench's job
//! (`perfbench/`, declared in `BENCHMARK.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netbatch_core::policy::{InitialKind, StrategyKind};
use netbatch_core::simulator::{SimConfig, Simulator};
use netbatch_sim_engine::queue::EventQueue;
use netbatch_sim_engine::rng::DetRng;
use netbatch_sim_engine::time::SimTime;
use netbatch_workload::scenarios::ScenarioParams;

const BENCH_SCALE: f64 = 0.02;

/// Queue kernel under simulator-shaped traffic: a rolling horizon of
/// mostly near-future timers with occasional far ones, popped as time
/// advances — the pattern the wheel's level routing is built for.
fn bench_queue_kernel(c: &mut Criterion) {
    const OPS: u64 = 20_000;
    let mut group = c.benchmark_group("hotpath_queue_kernel");
    group.throughput(Throughput::Elements(OPS));
    for (label, reference) in [("timer_wheel", false), ("reference_heap", true)] {
        group.bench_with_input(
            BenchmarkId::new("rolling_horizon", label),
            &reference,
            |b, &reference| {
                let mut rng = DetRng::from_seed_u64(7);
                b.iter(|| {
                    let mut q = if reference {
                        EventQueue::with_reference_heap()
                    } else {
                        EventQueue::with_capacity(4096)
                    };
                    let mut now = 0u64;
                    let mut acc = 0u64;
                    for i in 0..OPS {
                        // ~90% of simulator timers land within the hour;
                        // the rest are wait checks and lease-like timers
                        // reaching days out.
                        let delta = if rng.next_below(10) == 0 {
                            rng.next_below(10_000)
                        } else {
                            rng.next_below(60)
                        };
                        q.schedule(SimTime::from_minutes(now + delta), i);
                        if i % 2 == 0 {
                            if let Some((t, v)) = q.pop() {
                                now = t.as_minutes();
                                acc = acc.wrapping_add(v);
                            }
                        }
                    }
                    while let Some((_, v)) = q.pop() {
                        acc = acc.wrapping_add(v);
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

/// End-to-end week cell on each queue backend: the tentpole's whole
/// vertical (wheel + zero-allocation dispatch) against the reference
/// heap with the same dispatch loop.
fn bench_end_to_end(c: &mut Criterion) {
    let params = ScenarioParams::normal_week(BENCH_SCALE);
    let site = params.build_site();
    let trace = params.generate_trace();
    // Event count is deterministic per cell; measure it once so Criterion
    // can report events/second.
    let events = {
        let config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
        let sim = Simulator::new(&site, trace.to_specs(), config);
        sim.run_to_completion().counters.events
    };
    let mut group = c.benchmark_group("hotpath_end_to_end");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events));
    for (label, reference) in [("timer_wheel", false), ("reference_heap", true)] {
        group.bench_with_input(
            BenchmarkId::new("rswu_normal_week", label),
            &reference,
            |b, &reference| {
                b.iter(|| {
                    let mut config =
                        SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
                    config.use_reference_queue = reference;
                    let sim = Simulator::new(&site, trace.to_specs(), config);
                    sim.run_to_completion().counters.events
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_queue_kernel, bench_end_to_end);
criterion_main!(benches);
