//! Pins the generator's output: FNV-1a digests of the generated records
//! for the calibrated scenarios, the per-pool streaming workload and a
//! stream that starts in a burst, each at two seeds.
//!
//! The golden fixtures pin only the normal week; these digests also cover
//! the high-suspension week (four low-priority levels), the pinned
//! per-pool decomposition and a burst-conditioned window. A change to the
//! generator that alters any record, or the canonical order (submit
//! minute, stream index, per-stream sequence), changes a digest.

use netbatch_workload::distributions::Constant;
use netbatch_workload::generator::{BurstArrivals, PoissonArrivals};
use netbatch_workload::scenarios::{PerPoolParams, ScenarioParams};
use netbatch_workload::{JobClass, Stream, Trace, WorkloadSpec};

/// 64-bit FNV-1a over one line per record, every field in order.
fn digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in trace.iter() {
        // The affinity renders as the trace's pool-id list (`[]` = any).
        let affinity: Vec<u16> = r.affinity.pools().iter().map(|p| p.as_u16()).collect();
        let line = format!(
            "{},{},{},{},{},{:?},{:?}\n",
            r.submit_minute, r.runtime_minutes, r.cores, r.memory_mb, r.priority, affinity, r.task
        );
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check(spec: &WorkloadSpec, pinned: [(u64, usize, u64); 2], label: &str) {
    for (seed, jobs, want) in pinned {
        let trace = spec.generate(seed);
        assert_eq!(
            (trace.len(), digest(&trace)),
            (jobs, want),
            "{label} seed {seed}: (records, digest) = ({}, {:#018x})",
            trace.len(),
            digest(&trace)
        );
    }
}

#[test]
fn normal_week_is_pinned() {
    check(
        &ScenarioParams::normal_week(0.02).build_workload(),
        [
            (20_101_108, 3_948, 0xf3e8_e35a_2fa9_47ea),
            (7, 4_203, 0x1cae_87bd_5db7_322b),
        ],
        "normal week",
    );
}

#[test]
fn high_suspension_week_is_pinned() {
    check(
        &ScenarioParams::high_suspension_week(0.02).build_workload(),
        [
            (20_101_108, 8_183, 0x53ff_a6fb_3812_6147),
            (7, 7_768, 0x12d7_a89b_a928_3f9c),
        ],
        "high-suspension week",
    );
}

#[test]
fn per_pool_workload_is_pinned() {
    check(
        &PerPoolParams::new(6, 0.2, 3_000)
            .with_high_bursts()
            .build_workload(),
        [
            (20_101_108, 2_234, 0x709c_d8eb_4d8f_c227),
            (7, 2_529, 0x509a_b79d_a041_bc60),
        ],
        "per-pool workload",
    );
}

#[test]
fn start_in_burst_stream_is_pinned() {
    let spec = WorkloadSpec::new(0, 20_000)
        .stream(Stream::new(
            JobClass::new("low", 0, Box::new(Constant(60.0))),
            Box::new(PoissonArrivals::new(0.05)),
        ))
        .stream(Stream::new(
            JobClass::new("storm", 10, Box::new(Constant(30.0))).with_task_size(4),
            Box::new(BurstArrivals::new(0.002, 1.5, 8_000.0, 600.0).starting_in_burst()),
        ));
    check(
        &spec,
        [
            (20_101_108, 3_930, 0xeeae_b1e5_4e36_a09b),
            (7, 3_905, 0xb18a_9fab_3ff4_4668),
        ],
        "start-in-burst spec",
    );
}
