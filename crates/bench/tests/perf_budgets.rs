//! Perf budgets that do not depend on timing: heap allocations per
//! processed event on the materialized kernel (two normal-load cells and
//! the high-load wait path), per generated record of a normal week and
//! its specs, and per completed job on the streaming kernel, streaming
//! peak heap staying flat as the horizon grows and
//! tracking in-flight jobs rather than the pool count, and Telemetry's
//! heap staying flat as the sampling rate grows.
//!
//! All of them read process-global counters kept by this file's counting
//! allocator, so the tests take [`SERIAL`] to keep each other's
//! allocations out of their figures. Debug builds allocate inside
//! `debug_assert`s on the hot path, so the budgets hold for release
//! builds only:
//!
//! ```text
//! cargo test --release -q -p netbatch-bench --test perf_budgets
//! ```
//!
//! Timing (events/s, coordination overhead, speedup) is not gated here:
//! it is judged by perfbench's paired runs on one host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use netbatch_bench::runner::{build_scenario, Load};
use netbatch_core::policy::{InitialKind, StrategyKind};
use netbatch_core::simulator::{Backend, SimConfig, Simulator};
use netbatch_core::telemetry::Telemetry;
use netbatch_sim_engine::time::SimDuration;
use netbatch_workload::scenarios::{PerPoolParams, ScenarioParams};

/// Counts allocations (`alloc` + `realloc`) and tracks live heap bytes
/// with their high-water mark. Relaxed atomics: cross-thread interleaving
/// can smear the peak by a few allocations, noise against the megabytes
/// it is compared in.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn note_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_dealloc(layout.size());
        note_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by each test for its whole run: the counters are process-global.
static SERIAL: Mutex<()> = Mutex::new(());

const MIB: f64 = 1024.0 * 1024.0;

/// Ceiling on heap allocations per processed event over the two
/// normal-load cells. The last committed measurement of these cells was
/// 0.1888 allocations per event (NoRes, the worse of the two; ResSusWaitUtil
/// measured 0.1747); the ceiling is that figure × 1.5 slack. They measured
/// 0.1948 and 0.1806 while every submission was seeded into the event
/// queue up front.
/// The count is deterministic for one build, so the slack only absorbs
/// allocator and toolchain differences.
const MAX_ALLOCS_PER_EVENT: f64 = 0.1888 * 1.5;

/// Ceiling on heap allocations per processed event of the high-load
/// ResSusWaitRand week at scale 0.05, the cell whose jobs move between
/// wait queues most (45 149 events). Measured 0.1239; the ceiling is
/// that figure × 1.5. It measured 0.2066 with a B-tree wait queue per
/// pool and every submission seeded into the event queue, so either one
/// coming back fails it.
const MAX_HIGH_LOAD_ALLOCS_PER_EVENT: f64 = 0.1239 * 1.5;

/// Quadrupling the horizon may grow the streaming run's peak heap by at
/// most this factor. The in-flight working set is horizon-independent once
/// the runtime distribution reaches steady state; the slack absorbs the
/// heavy tail's slow convergence.
const MEM_FLATNESS_SLACK: f64 = 1.5;

/// Two simulated days, the unit of the memory-flatness horizons.
const FLAT_HORIZON: u64 = 2 * 24 * 60;

/// Ceiling on the streaming peak heap of 200 pools at scale 0.1 over that
/// of 20 pools at scale 1.0: the same machines and the same arrival rate,
/// so the same in-flight jobs, spread over ten times the pools. Measured
/// 1.075 (7.07 vs 6.57 MiB at eight days) with one completion queue per
/// worker; 2.69 when every pool owned its own timer wheel. The ceiling
/// leaves room for the per-pool state that must exist (pool, lane and
/// generator structs) but not for per-pool queues.
const MAX_POOL_SPREAD_RATIO: f64 = 1.5;

/// Ceiling on Telemetry's heap for a week sampled every minute over the
/// same week sampled every hour (60 times fewer samples). Telemetry folds
/// its series online, so the two measured equal (ratio 1.0000) on the
/// normal week at scales 0.02 and 0.05 and trace seeds 20101108, 1, 2, 3,
/// 4 and 7; the 1.1 ceiling leaves room for state that legitimately
/// varies with sampling, not for kept samples. Keeping six series per
/// pool sample by sample, it measured 29.6–59.2 on the same cells (2.26
/// vs 124.3 MiB at scale 0.02 and the default seed).
const MAX_TELEMETRY_SAMPLING_RATIO: f64 = 1.1;

/// Ceiling on heap allocations per completed job of the streaming cell
/// of 20 pools at scale 1.0 over eight days, at 1 and 2 shards. Measured
/// 0.0704 at 2 shards (0.0527 at 1); the ceiling is that figure × 1.5.
/// Nothing on the per-job or per-epoch path allocates: what is left is
/// warm-up bounded by the site, not the jobs (each machine's first
/// resident list, the completion wheel's slot buffers growing to their
/// peak minute, per-pool maps and lanes), so over 32 days the same cell
/// measures 0.0214. It measured 1.3451 while every generated record
/// carried its own affinity `Vec` and every report regrew its lane
/// buffer, and 2.35 when every spec also copied the affinity.
const MAX_STREAM_ALLOCS_PER_JOB: f64 = 0.0704 * 1.5;

/// Ceiling on heap allocations per record of generating the scale-0.25
/// normal week and materializing its specs with `Trace::to_specs`. Every
/// job of a class shares the class's pool set, so both steps allocate per
/// stream and per buffer growth, never per job: measured 24 allocations
/// for 56 700 records (0.0004 per record; 13 681 restricted, 5 streams).
/// With a copy of the pool list per restricted record, one in generation
/// and one in `to_specs`, it measured 27 386 (0.4830 per record).
const MAX_GENERATE_ALLOCS_PER_RECORD: f64 = 0.01;

/// Heap allocations per processed event of one materialized week at
/// `scale` under `strategy` with the round-robin initial scheduler.
fn allocations_per_event(load: Load, scale: f64, strategy: StrategyKind) -> f64 {
    let (site, trace) = build_scenario(load, scale);
    let config = SimConfig::new(InitialKind::RoundRobin, strategy);
    let sim = Simulator::new(&site, trace.to_specs(), config);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = sim.run_to_completion();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_event = allocs as f64 / out.counters.events.max(1) as f64;
    println!(
        "{load:?} {}: {allocs} allocations over {} events = {per_event:.4}/event",
        strategy.name(),
        out.counters.events
    );
    per_event
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug assertions allocate on the hot path; run with --release"
)]
fn allocations_per_event_stay_under_the_ceiling() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let worst = [StrategyKind::NoRes, StrategyKind::ResSusWaitUtil]
        .into_iter()
        .map(|strategy| allocations_per_event(Load::Normal, 0.02, strategy))
        .fold(0.0f64, f64::max);
    assert!(
        worst <= MAX_ALLOCS_PER_EVENT,
        "allocations per event regressed: {worst:.4} vs ceiling {MAX_ALLOCS_PER_EVENT:.4} \
         — something on the per-event path allocates again"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug assertions allocate on the hot path; run with --release"
)]
fn high_load_wait_path_allocations_per_event_stay_under_the_ceiling() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_event = allocations_per_event(Load::High, 0.05, StrategyKind::ResSusWaitRand);
    assert!(
        per_event <= MAX_HIGH_LOAD_ALLOCS_PER_EVENT,
        "allocations per event regressed on the high-load wait path: {per_event:.4} vs \
         ceiling {MAX_HIGH_LOAD_ALLOCS_PER_EVENT:.4} — the wait queue or the event queue \
         allocates per entry again"
    );
}

/// Generating a normal week and materializing its specs may not allocate
/// per job: see [`MAX_GENERATE_ALLOCS_PER_RECORD`].
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug assertions allocate on the hot path; run with --release"
)]
fn generation_and_to_specs_allocate_per_stream_not_per_job() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = ScenarioParams::normal_week(0.25);
    let workload = params.build_workload();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let trace = workload.generate(params.seed);
    let specs = trace.to_specs();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let restricted = specs
        .iter()
        .filter(|s| !s.affinity.pools().is_empty())
        .count();
    let per_record = allocs as f64 / trace.len().max(1) as f64;
    println!(
        "{allocs} allocations for {} records ({restricted} restricted) over {} streams \
         = {per_record:.4}/record",
        trace.len(),
        workload.streams.len()
    );
    assert!(
        per_record <= MAX_GENERATE_ALLOCS_PER_RECORD,
        "generation and to_specs allocate per job: {per_record:.4} allocations per record \
         vs ceiling {MAX_GENERATE_ALLOCS_PER_RECORD} ({restricted} of {} records are \
         restricted) — a record or spec copies its class's pool set again",
        trace.len()
    );
}

/// What one observer-less streaming run cost on the heap.
struct StreamCost {
    /// Peak heap growth over the live bytes before the run.
    peak_bytes: u64,
    /// Heap allocations during the run.
    allocations: u64,
    completed: u64,
}

/// Runs one observer-less streaming cell of `pools` pools at `scale`
/// over `horizon` minutes on `shards` shards.
fn streaming_cost(pools: u16, scale: f64, horizon: u64, shards: usize) -> StreamCost {
    let p = PerPoolParams::new(pools, scale, horizon);
    let workload = p.build_workload();
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.backend = Backend::Sharded { shards };
    let sim = Simulator::new(&p.build_site(), Vec::new(), config);
    let baseline = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(baseline, Ordering::Relaxed);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = sim.run_streaming(&workload, p.seed);
    StreamCost {
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline),
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before,
        completed: out.counters.completed,
    }
}

/// Peak heap growth, in bytes, of one observer-less 1-shard streaming run
/// of `pools` pools at `scale` over `horizon` minutes.
fn streaming_peak_bytes(pools: u16, scale: f64, horizon: u64) -> u64 {
    streaming_cost(pools, scale, horizon, 1).peak_bytes
}

/// Both horizons (8 and 32 days) sit past the warm-up of the worker's
/// one timer wheel (its level-0 slot capacities ratchet toward the
/// max-ever per-minute occupancy over the first tens of thousands of
/// minutes), so the comparison sees the steady state rather than the
/// warm-up.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug assertions allocate on the hot path; run with --release"
)]
fn streaming_peak_heap_is_flat_in_the_horizon() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (short_h, long_h) = (4 * FLAT_HORIZON, 16 * FLAT_HORIZON);
    let short = streaming_peak_bytes(20, 0.25, short_h) as f64;
    let long = streaming_peak_bytes(20, 0.25, long_h) as f64;
    println!(
        "peak heap {:.2} MiB at {short_h} min, {:.2} MiB at {long_h} min",
        short / MIB,
        long / MIB
    );
    let ceiling = (short * MEM_FLATNESS_SLACK).max(MIB);
    assert!(
        long <= ceiling,
        "streaming peak heap grows with the horizon: {:.2} MiB at {long_h} min vs \
         {:.2} MiB at {short_h} min (limit {MEM_FLATNESS_SLACK}x) — something retains \
         per-job state past completion",
        long / MIB,
        short / MIB
    );
}

/// Spreading the same machines and arrivals over ten times the pools may
/// not grow the streaming peak heap past [`MAX_POOL_SPREAD_RATIO`]: the
/// working set is the in-flight jobs, and per-pool state stays small.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug assertions allocate on the hot path; run with --release"
)]
fn streaming_peak_heap_tracks_in_flight_jobs_not_pools() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let horizon = 4 * FLAT_HORIZON;
    let few = streaming_peak_bytes(20, 1.0, horizon) as f64;
    let many = streaming_peak_bytes(200, 0.1, horizon) as f64;
    let ratio = many / few;
    println!(
        "peak heap {:.2} MiB on 20 pools x 1.0, {:.2} MiB on 200 pools x 0.1 (ratio {ratio:.3})",
        few / MIB,
        many / MIB
    );
    assert!(
        ratio <= MAX_POOL_SPREAD_RATIO,
        "streaming peak heap grows with the pool count: {:.2} MiB on 200 pools vs \
         {:.2} MiB on 20 pools of the same capacity and load (ratio {ratio:.3}, limit \
         {MAX_POOL_SPREAD_RATIO}) — some per-pool structure scales with the horizon \
         or the queue",
        many / MIB,
        few / MIB
    );
}

/// Heap allocations per completed job on a streaming cell, at 1 and 2
/// shards, may not pass [`MAX_STREAM_ALLOCS_PER_JOB`].
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug assertions allocate on the hot path; run with --release"
)]
fn streaming_allocations_per_job_stay_under_the_ceiling() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut worst = 0.0f64;
    for shards in [1, 2] {
        let cost = streaming_cost(20, 1.0, 4 * FLAT_HORIZON, shards);
        let per_job = cost.allocations as f64 / cost.completed.max(1) as f64;
        println!(
            "{shards} shard(s): {} allocations over {} jobs = {per_job:.4}/job",
            cost.allocations, cost.completed
        );
        worst = worst.max(per_job);
    }
    assert!(
        worst <= MAX_STREAM_ALLOCS_PER_JOB,
        "streaming allocations per job regressed: {worst:.4} vs ceiling \
         {MAX_STREAM_ALLOCS_PER_JOB:.4} — something on the per-job path allocates again"
    );
}

/// Heap held by the Telemetry of one normal week at `scale` (trace seed
/// `seed`) under ResSusWaitUtil, sampled every `every` minutes, and the
/// sample ticks it saw. The heap is measured as the bytes freed by
/// dropping the finished run's Telemetry; none of its state shrinks
/// during a run, so that is also its peak.
fn telemetry_heap(scale: f64, seed: u64, every: u64) -> (u64, u64) {
    let mut params = ScenarioParams::normal_week(scale);
    params.seed = seed;
    let (site, trace) = (params.build_site(), params.generate_trace());
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
    config.sample_interval = Some(SimDuration::from_minutes(every));
    config.telemetry = true;
    let mut out = Simulator::new(&site, trace.to_specs(), config).run_to_completion();
    let at = out
        .observers
        .iter()
        .position(|o| o.as_any().is::<Telemetry>())
        .expect("telemetry attached via SimConfig");
    let samples = out.observers[at]
        .as_any()
        .downcast_ref::<Telemetry>()
        .expect("checked")
        .samples();
    let telemetry = out.observers.swap_remove(at);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    drop(telemetry);
    (before - LIVE_BYTES.load(Ordering::Relaxed), samples)
}

/// Telemetry's heap may not grow by more than [`MAX_TELEMETRY_SAMPLING_RATIO`]
/// when the same week is sampled every minute instead of every hour.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug assertions allocate on the hot path; run with --release"
)]
fn telemetry_heap_is_flat_in_the_sampling_rate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (hourly, hourly_n) = telemetry_heap(0.02, 20_101_108, 60);
    let (minutely, minutely_n) = telemetry_heap(0.02, 20_101_108, 1);
    let ratio = minutely as f64 / hourly as f64;
    println!(
        "telemetry heap {:.3} MiB over {hourly_n} hourly samples, {:.3} MiB over \
         {minutely_n} per-minute samples (ratio {ratio:.4})",
        hourly as f64 / MIB,
        minutely as f64 / MIB
    );
    assert!(
        ratio <= MAX_TELEMETRY_SAMPLING_RATIO,
        "telemetry heap grows with the sample count: {:.3} MiB at 1-minute sampling vs \
         {:.3} MiB at 60-minute sampling (ratio {ratio:.3}, limit \
         {MAX_TELEMETRY_SAMPLING_RATIO}) — some per-pool or site series keeps its samples",
        minutely as f64 / MIB,
        hourly as f64 / MIB
    );
}
