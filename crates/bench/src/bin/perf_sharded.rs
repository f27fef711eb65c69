//! Sharded/streaming-kernel benchmark (v2): weak-scaled pool sweep
//! (20 → 200 pools) and arrival-scale sweep (0.25 → 1.0) comparing the
//! streaming backend against the materialized serial reference, plus a
//! year-window memory sweep, tracked across PRs in `BENCH_sharded.json`.
//!
//! v1 measured the sharded backend, whose coordinator owned the global
//! event queue and merged every event serially; its 200-pool parallel
//! fraction topped out near 0.49. v2 measures the streaming backend
//! (shard-local lazy generation, per-pool queues, coordinator offload —
//! see `netbatch_core::streaming`), where generation and event execution
//! both live in the workers.
//!
//! Figures recorded per cell:
//!
//! - **Measured walls**: materialized serial backend (trace generated
//!   before t=0, generation excluded from its wall) vs streaming at
//!   1/2/4 worker shards (generation *included* — it happens inside the
//!   run), best-of-`ROUNDS`.
//! - **Measured work split + Amdahl projection**: a dedicated 1-shard
//!   run with pipelining disabled alternates coordinator and worker
//!   strictly, so worker busy time cleanly decomposes the wall into
//!   coordinator-serial and worker-parallelizable time.
//!   `parallel_fraction` is `worker_busy / wall` of that run;
//!   `projected_speedup_4_shards` is
//!
//!   ```text
//!   serial_wall / (coord + worker_busy/4 + max(0, wall_x4 - wall_x1))
//!   ```
//!
//!   i.e. perfect 4-way division of the measured worker work, charged
//!   with the full measured 4-shard synchronization overhead as if it
//!   serialized.
//! - **Measured speedup**: `serial_wall / streaming_wall_x4`, reported
//!   alongside the projection. This is a real parallel speedup only
//!   when `host_cores >= 4`; on fewer cores threads interleave and the
//!   figure mostly reflects the streaming kernel's per-event efficiency.
//! - **Peak run memory**: a live-bytes-tracking global allocator records
//!   the peak heap growth across the 1-shard streaming run. Streaming
//!   never materializes the trace, so this stays O(in-flight jobs) —
//!   the year sweep below shows it flat as the horizon grows 180x.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p netbatch-bench --bin perf_sharded
//! cargo run --release -p netbatch-bench --bin perf_sharded -- --check
//! ```
//!
//! `--check` is the CI gate: it asserts the committed headline cell
//! (200 pools, scale 1.0) keeps `parallel_fraction >= 0.75` and projects
//! at least 1.5x at 4 shards, then re-measures a small smoke cell
//! (failing on coordination-overhead or work-split regressions) and a
//! two-horizon memory smoke (failing if peak memory grows with the
//! horizon).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use netbatch_core::policy::{InitialKind, StrategyKind};
use netbatch_core::simulator::{Backend, SimConfig, SimOutput, Simulator};
use netbatch_core::take_sharded_worker_busy_nanos;
use netbatch_workload::scenarios::PerPoolParams;
use netbatch_workload::trace::Trace;
use netbatch_workload::WorkloadSpec;

/// Tracks live heap bytes and their high-water mark, so a run's peak
/// memory growth is measurable without process-level RSS noise. Counts
/// are relaxed-atomic: cross-thread interleaving can smear the peak by
/// a few allocations, which is noise against the megabytes it gates.
struct PeakAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn note_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
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
static GLOBAL: PeakAlloc = PeakAlloc;

/// Resets the high-water mark to the current live size and returns the
/// baseline, so the next measurement sees only growth from here on.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Peak heap growth since the matching [`reset_peak`], in bytes.
fn peak_since(baseline: u64) -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Best-of rounds per (cell, backend) measurement.
const ROUNDS: usize = 3;

/// Trace window (minutes) for the pool/scale sweeps: two simulated days.
const HORIZON_MIN: u64 = 2 * 24 * 60;

/// The weak-scaled pool sweep (machines and arrivals both ∝ pools).
const POOL_SWEEP: [u16; 4] = [20, 50, 100, 200];

/// The arrival/capacity scale sweep, run on the 200-pool site (scale 1.0
/// is already the last pool-sweep cell).
const SCALE_SWEEP: [f64; 2] = [0.25, 0.5];

/// Shard counts measured per cell.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The year sweep: the 200-pool site at reduced scale, with the horizon
/// growing from two days to a full year while the peak-memory column
/// must stay flat (the streaming tentpole's memory contract).
const YEAR_POOLS: u16 = 200;
const YEAR_SCALE: f64 = 0.05;
const YEAR_SWEEP: [u64; 3] = [2 * 24 * 60, 30 * 24 * 60, 365 * 24 * 60];

/// CI gate: the committed headline projection must stay at or above
/// this — the contract for the 200-pool cell at 4 shards.
const MIN_HEADLINE_PROJECTION: f64 = 1.5;

/// CI gate: the committed headline parallel fraction must stay at or
/// above this — the streaming tentpole's contract for the 200-pool cell
/// (generation and event execution both off the coordinator).
const PARALLEL_FRACTION_FLOOR: f64 = 0.75;

/// CI gate: measured streaming-x2 wall must stay within this factor of
/// the serial wall on the smoke cell. Valid on any core count (on one
/// core it bounds pure coordination overhead); generous because the
/// comparison is lopsided against streaming — the serial wall excludes
/// generation (paid before t=0), the streaming wall includes it, and a
/// 1-core host adds context-switch noise on top. Observed healthy
/// ratios sit at 2.2–2.5x depending on how warm the serial reference
/// happens to run, so the ceiling leaves ~1.3x of genuine regression
/// headroom rather than gating the noise band.
const SMOKE_OVERHEAD_SLACK: f64 = 3.25;

/// CI gate: the smoke cell's parallel work fraction must stay at or
/// above this share of the committed figure — catching changes that
/// quietly move worker work back onto the coordinator.
const SMOKE_FRACTION_RATIO: f64 = 0.75;

/// CI gate: quadrupling the horizon may not grow the streaming run's
/// peak heap by more than this factor. The in-flight working set is
/// horizon-independent once the runtime distribution's steady state is
/// reached; the slack absorbs the heavy tail's slow convergence.
const MEM_FLATNESS_SLACK: f64 = 1.5;

/// Memory-flatness smoke cell: small enough that even the long horizon
/// run stays in seconds. Both measured horizons sit past the wheel's
/// slab warm-up (level-0 slot capacities ratchet toward the max-ever
/// per-minute occupancy over the first tens of thousands of minutes —
/// an extreme-value effect that converges; `--mem-probe` shows the
/// curve). Comparing 1x vs 4x from t=0 would gate the warm-up, not the
/// steady state the flatness contract is about.
const FLAT_POOLS: u16 = 20;
const FLAT_SCALE: f64 = 0.25;
const FLAT_HORIZON: u64 = 2 * 24 * 60;
/// The two compared horizons: 8 and 32 days.
const FLAT_SPAN: [u64; 2] = [4 * FLAT_HORIZON, 16 * FLAT_HORIZON];

/// Host core count, from `available_parallelism` with a `/proc/cpuinfo`
/// fallback (containers with restrictive cgroup masks can make the
/// former fail outright; the benchmark must still report something
/// honest rather than dying).
fn host_cores() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(_) => std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| {
                s.lines()
                    .filter(|l| l.starts_with("processor"))
                    .count()
                    .max(1)
            })
            .unwrap_or(1),
    }
}

/// One timed materialized-serial round; returns (events, wall seconds).
/// Trace generation happens before the clock starts (the materialized
/// serial run pays it before t=0; its cost shows up in the streaming walls
/// instead, where it belongs).
fn run_serial_round(p: &PerPoolParams, trace: &Trace) -> (u64, f64) {
    let config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    let sim = Simulator::new(&p.build_site(), trace.to_specs(), config);
    let start = Instant::now();
    let out = sim.run_to_completion();
    (out.counters.events, start.elapsed().as_secs_f64())
}

/// One timed streaming round; returns the output, wall seconds, worker
/// busy seconds and the run's peak heap growth in bytes.
fn run_streaming_round(
    p: &PerPoolParams,
    workload: &WorkloadSpec,
    shards: usize,
    pipeline: bool,
) -> (SimOutput, f64, f64, u64) {
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.backend = Backend::Sharded { shards };
    config.stream_pipeline = pipeline;
    let sim = Simulator::new(&p.build_site(), Vec::new(), config);
    take_sharded_worker_busy_nanos();
    let baseline = reset_peak();
    let start = Instant::now();
    let out = sim.run_streaming(workload, p.seed);
    let wall = start.elapsed().as_secs_f64();
    let peak = peak_since(baseline);
    let busy = take_sharded_worker_busy_nanos() as f64 * 1e-9;
    (out, wall, busy, peak)
}

struct Cell {
    pools: u16,
    scale: f64,
    jobs: u64,
    events: u64,
    serial_wall_ms: f64,
    /// (shards, wall_ms) per measured shard count, pipelining on.
    streaming_walls: Vec<(usize, f64)>,
    /// Worker busy time in the unpipelined 1-shard run: the total
    /// parallelizable work (generation + submit/complete execution).
    worker_busy_ms: f64,
    /// Unpipelined 1-shard wall minus worker busy: coordinator serial time.
    coord_ms: f64,
    /// worker_busy / wall of the unpipelined 1-shard run.
    parallel_fraction: f64,
    /// serial_wall / (coord + busy/4 + sync overhead), see module docs.
    projected_speedup_4: f64,
    /// serial_wall / streaming wall_x4 — real parallelism only when
    /// host_cores >= 4.
    measured_speedup_4: f64,
    /// Peak heap growth across the 1-shard streaming run (MiB).
    peak_run_mib: f64,
}

fn measure_cell(pools: u16, scale: f64) -> Cell {
    let p = PerPoolParams::new(pools, scale, HORIZON_MIN);
    let workload = p.build_workload();

    // Materialized serial reference.
    let trace = workload.generate(p.seed);
    let jobs = trace.len() as u64;
    let mut events = 0u64;
    let mut serial_wall = f64::INFINITY;
    for _ in 0..ROUNDS {
        let (ev, wall) = run_serial_round(&p, &trace);
        events = ev;
        serial_wall = serial_wall.min(wall);
    }
    drop(trace);

    // Work split: 1 shard, pipelining off, so coordinator and worker
    // alternate strictly and busy time decomposes the wall cleanly. The
    // fastest round's split is taken whole (the work is deterministic;
    // only the clock varies).
    let mut split_wall = f64::INFINITY;
    let mut busy = 0.0f64;
    for _ in 0..ROUNDS {
        let (out, wall, b, _) = run_streaming_round(&p, &workload, 1, false);
        assert_eq!(out.counters.events, events, "backends disagree on events");
        assert_eq!(
            out.counters.completed + out.counters.unrunnable,
            jobs,
            "streaming generated a different trace"
        );
        if wall < split_wall {
            split_wall = wall;
            busy = b;
        }
    }
    let coord = (split_wall - busy).max(0.0);
    let parallel_fraction = busy / split_wall.max(1e-9);

    // Walls with pipelining on (the production configuration).
    let mut streaming_walls = Vec::new();
    let mut wall_x1 = f64::NAN;
    let mut wall_x4 = f64::NAN;
    let mut peak_bytes = 0u64;
    for shards in SHARD_COUNTS {
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let (out, wall, _, peak) = run_streaming_round(&p, &workload, shards, true);
            assert_eq!(out.counters.events, events, "backends disagree on events");
            if wall < best {
                best = wall;
                if shards == 1 {
                    peak_bytes = peak;
                }
            }
        }
        streaming_walls.push((shards, best * 1e3));
        if shards == 1 {
            wall_x1 = best;
        }
        if shards == 4 {
            wall_x4 = best;
        }
    }
    let sync_overhead = (wall_x4 - wall_x1).max(0.0);
    let projected_speedup_4 = serial_wall / (coord + busy / 4.0 + sync_overhead).max(1e-9);
    Cell {
        pools,
        scale,
        jobs,
        events,
        serial_wall_ms: serial_wall * 1e3,
        streaming_walls,
        worker_busy_ms: busy * 1e3,
        coord_ms: coord * 1e3,
        parallel_fraction,
        projected_speedup_4,
        measured_speedup_4: serial_wall / wall_x4.max(1e-9),
        peak_run_mib: peak_bytes as f64 / MIB,
    }
}

struct YearRow {
    horizon: u64,
    jobs: u64,
    events: u64,
    wall_ms: f64,
    peak_run_mib: f64,
}

/// One year-sweep row: a single streaming run (the year cell is too
/// long for best-of rounds, and the peak-memory column — the point of
/// the sweep — is deterministic anyway).
fn measure_year_row(horizon: u64) -> YearRow {
    let p = PerPoolParams::new(YEAR_POOLS, YEAR_SCALE, horizon);
    let workload = p.build_workload();
    let (out, wall, _, peak) = run_streaming_round(&p, &workload, 1, true);
    YearRow {
        horizon,
        jobs: out.counters.completed + out.counters.unrunnable,
        events: out.counters.events,
        wall_ms: wall * 1e3,
        peak_run_mib: peak as f64 / MIB,
    }
}

/// Pulls `"key": <number>` out of the committed JSON without a JSON
/// dependency (the file is machine-written by this binary).
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The CI smoke cell: small enough for seconds, big enough that the
/// parallel fraction is representative.
fn smoke_cell() -> Cell {
    measure_cell(40, 0.25)
}

/// The memory-flatness smoke: the same small cell at the two post-warm-up
/// horizons of `FLAT_SPAN`; returns (peak_short_bytes, peak_long_bytes).
fn mem_flatness_peaks() -> (u64, u64) {
    let mut peaks = [0u64; 2];
    for (i, h) in FLAT_SPAN.into_iter().enumerate() {
        let p = PerPoolParams::new(FLAT_POOLS, FLAT_SCALE, h);
        let workload = p.build_workload();
        let (_, _, _, peak) = run_streaming_round(&p, &workload, 1, true);
        peaks[i] = peak;
    }
    (peaks[0], peaks[1])
}

fn run_check() {
    let json = std::fs::read_to_string("BENCH_sharded.json").unwrap_or_else(|e| {
        panic!(
            "cannot read BENCH_sharded.json: {e}\n\
             regenerate with: cargo run --release -p netbatch-bench --bin perf_sharded"
        )
    });
    let headline = json_number(&json, "headline_projected_speedup_4_shards")
        .expect("BENCH_sharded.json has no headline_projected_speedup_4_shards");
    assert!(
        headline >= MIN_HEADLINE_PROJECTION,
        "committed headline projection {headline:.2}x at 4 shards is below the \
         {MIN_HEADLINE_PROJECTION}x contract — regenerate BENCH_sharded.json \
         and fix the kernel before shipping"
    );
    let fraction = json_number(&json, "headline_parallel_fraction")
        .expect("BENCH_sharded.json has no headline_parallel_fraction");
    assert!(
        fraction >= PARALLEL_FRACTION_FLOOR,
        "committed headline parallel fraction {fraction:.3} is below the \
         {PARALLEL_FRACTION_FLOOR} floor — the streaming coordinator has taken \
         on serial work; regenerate BENCH_sharded.json and fix the kernel"
    );
    let want_fraction = json_number(&json, "smoke_parallel_fraction")
        .expect("BENCH_sharded.json has no smoke_parallel_fraction");

    let cell = smoke_cell();
    let serial = cell.serial_wall_ms;
    let x2 = cell
        .streaming_walls
        .iter()
        .find(|(s, _)| *s == 2)
        .map(|&(_, w)| w)
        .expect("smoke cell measured 2 shards");
    println!(
        "streaming smoke ({} pools, scale {}): serial {serial:.1} ms, x2 {x2:.1} ms, \
         parallel fraction {:.2} (committed {want_fraction:.2})",
        cell.pools, cell.scale, cell.parallel_fraction
    );
    assert!(
        x2 <= serial * SMOKE_OVERHEAD_SLACK,
        "streaming coordination overhead regressed: x2 wall {x2:.1} ms vs serial \
         {serial:.1} ms (limit {SMOKE_OVERHEAD_SLACK}x)"
    );
    assert!(
        cell.parallel_fraction >= want_fraction * SMOKE_FRACTION_RATIO,
        "parallel work fraction regressed: {:.2} vs committed {want_fraction:.2} — \
         work is moving from the workers back onto the coordinator",
        cell.parallel_fraction
    );

    let (peak_short, peak_long) = mem_flatness_peaks();
    println!(
        "memory flatness smoke ({FLAT_POOLS} pools, scale {FLAT_SCALE}): peak \
         {:.1} MiB at {} min vs {:.1} MiB at {} min",
        peak_short as f64 / MIB,
        FLAT_SPAN[0],
        peak_long as f64 / MIB,
        FLAT_SPAN[1]
    );
    let ceiling = (peak_short as f64 * MEM_FLATNESS_SLACK).max(MIB);
    assert!(
        (peak_long as f64) <= ceiling,
        "streaming peak memory grows with the horizon: {:.1} MiB at {} min vs \
         {:.1} MiB at {} min (limit {MEM_FLATNESS_SLACK}x) — something retains \
         per-job state past completion",
        peak_long as f64 / MIB,
        FLAT_SPAN[1],
        peak_short as f64 / MIB,
        FLAT_SPAN[0]
    );
    println!(
        "sharded perf smoke OK (headline: fraction {fraction:.3}, projection \
         {headline:.2}x at 4 shards on the 200-pool cell)"
    );
}

/// Hidden diagnostic: sweep the flatness cell across horizons on both
/// queue backends to localize peak-memory growth (wheel slot capacity
/// retention vs streaming-layer state).
fn mem_probe() {
    for refq in [false, true] {
        for mult in [1u64, 2, 4, 8, 16] {
            let p = PerPoolParams::new(FLAT_POOLS, FLAT_SCALE, mult * FLAT_HORIZON);
            let workload = p.build_workload();
            let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
            config.backend = Backend::Sharded { shards: 1 };
            config.use_reference_queue = refq;
            let sim = Simulator::new(&p.build_site(), Vec::new(), config);
            let baseline = reset_peak();
            let out = sim.run_streaming(&workload, p.seed);
            let peak = peak_since(baseline);
            println!(
                "refq={refq} horizon={:>6} jobs={:>7} peak={:>7.2} MiB",
                mult * FLAT_HORIZON,
                out.counters.completed + out.counters.unrunnable,
                peak as f64 / MIB
            );
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--mem-probe") {
        mem_probe();
        return;
    }
    if std::env::args().any(|a| a == "--check") {
        run_check();
        return;
    }

    let cores = host_cores();
    println!(
        "host cores: {cores}  (measured speedups at >1 shard are real only when cores ≥ shards)"
    );

    let mut cells: Vec<Cell> = Vec::new();
    println!("pool sweep (weak-scaled, scale 1.0):");
    for pools in POOL_SWEEP {
        let cell = measure_cell(pools, 1.0);
        print_cell(&cell);
        cells.push(cell);
    }
    println!("scale sweep (200 pools):");
    for scale in SCALE_SWEEP {
        let cell = measure_cell(200, scale);
        print_cell(&cell);
        cells.push(cell);
    }

    let headline = cells
        .iter()
        .find(|c| c.pools == 200 && c.scale == 1.0)
        .expect("200-pool scale-1.0 cell measured");
    let headline_projection = headline.projected_speedup_4;
    let headline_fraction = headline.parallel_fraction;
    let headline_measured = headline.measured_speedup_4;

    println!("year sweep ({YEAR_POOLS} pools, scale {YEAR_SCALE}, streaming x1):");
    let mut year_rows = Vec::new();
    for horizon in YEAR_SWEEP {
        let row = measure_year_row(horizon);
        println!(
            "  {:>7} min | {:>8} jobs {:>9} events | {:>8.0} ms | peak {:>6.1} MiB",
            row.horizon, row.jobs, row.events, row.wall_ms, row.peak_run_mib
        );
        year_rows.push(row);
    }

    println!("measuring CI smoke cell ...");
    let smoke = smoke_cell();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench_version\": 2,\n");
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    json.push_str(&format!("  \"horizon_minutes\": {HORIZON_MIN},\n"));
    json.push_str(&format!(
        "  \"headline_parallel_fraction\": {headline_fraction:.3},\n"
    ));
    json.push_str(&format!(
        "  \"headline_projected_speedup_4_shards\": {headline_projection:.2},\n"
    ));
    json.push_str(&format!(
        "  \"headline_measured_speedup_4_shards\": {headline_measured:.2},\n"
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let walls: Vec<String> = c
            .streaming_walls
            .iter()
            .map(|(s, w)| format!("{{\"shards\": {s}, \"wall_ms\": {w:.1}}}"))
            .collect();
        json.push_str(&format!(
            "    {{\"pools\": {}, \"scale\": {}, \"jobs\": {}, \"events\": {}, \
             \"serial_wall_ms\": {:.1}, \"streaming\": [{}], \"worker_busy_ms\": {:.1}, \
             \"coord_ms\": {:.1}, \"parallel_fraction\": {:.3}, \
             \"projected_speedup_4_shards\": {:.2}, \"measured_speedup_4_shards\": {:.2}, \
             \"peak_run_mib\": {:.1}}}{comma}\n",
            c.pools,
            c.scale,
            c.jobs,
            c.events,
            c.serial_wall_ms,
            walls.join(", "),
            c.worker_busy_ms,
            c.coord_ms,
            c.parallel_fraction,
            c.projected_speedup_4,
            c.measured_speedup_4,
            c.peak_run_mib,
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"year_pools\": {YEAR_POOLS}, \"year_scale\": {YEAR_SCALE},\n"
    ));
    json.push_str("  \"year_sweep\": [\n");
    for (i, r) in year_rows.iter().enumerate() {
        let comma = if i + 1 == year_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"horizon_minutes\": {}, \"jobs\": {}, \"events\": {}, \
             \"wall_ms\": {:.1}, \"peak_run_mib\": {:.1}}}{comma}\n",
            r.horizon, r.jobs, r.events, r.wall_ms, r.peak_run_mib
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"smoke_pools\": {}, \"smoke_scale\": {},\n",
        smoke.pools, smoke.scale
    ));
    json.push_str(&format!(
        "  \"smoke_serial_wall_ms\": {:.1},\n",
        smoke.serial_wall_ms
    ));
    json.push_str(&format!(
        "  \"smoke_parallel_fraction\": {:.3}\n",
        smoke.parallel_fraction
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_sharded.json", &json).expect("write BENCH_sharded.json");
    println!(
        "headline: parallel fraction {headline_fraction:.3}, projected \
         {headline_projection:.2}x (measured {headline_measured:.2}x on {cores} cores) \
         at 4 shards on the 200-pool cell -> BENCH_sharded.json"
    );
}

fn print_cell(c: &Cell) {
    let walls: Vec<String> = c
        .streaming_walls
        .iter()
        .map(|(s, w)| format!("x{s} {w:.0}ms"))
        .collect();
    println!(
        "  {:>3} pools scale {:<4} | {:>7} jobs {:>8} events | serial {:>6.0} ms | {} | \
         split {:.0}ms coord + {:.0}ms workers (f={:.2}) | x4 projected {:.2} measured {:.2} | \
         peak {:.1} MiB",
        c.pools,
        c.scale,
        c.jobs,
        c.events,
        c.serial_wall_ms,
        walls.join(" "),
        c.coord_ms,
        c.worker_busy_ms,
        c.parallel_fraction,
        c.projected_speedup_4,
        c.measured_speedup_4,
        c.peak_run_mib,
    );
}
