//! Property-based conformance for the observer layer: for *arbitrary*
//! small workloads under *every* rescheduling strategy,
//!
//! 1. the online [`InvariantChecker`] never fires (it panics with event
//!    history on the first conservation or lifecycle violation), and
//! 2. the [`TraceRecorder`]'s per-kind event counts reconcile exactly
//!    with the run's [`RunCounters`] — the trace is a faithful journal,
//!    not an approximation.

use netbatch::cluster::ids::PoolId;
use netbatch::cluster::job::PoolAffinity;
use netbatch::cluster::pool::PoolConfig;
use netbatch::core::observer::{InvariantChecker, TraceRecorder};
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{SimConfig, SimOutput, Simulator};
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

/// Every strategy the simulator implements, including the extension
/// mechanisms (migration, duplication, multi-metric wait rescheduling).
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

/// Runs a workload with the invariant checker and an in-memory recorder
/// attached. A violated invariant panics inside, failing the property.
fn run_observed(records: Vec<TraceRecord>, strategy: StrategyKind, seed: u64) -> SimOutput {
    let site = small_site(3, 2, 2);
    let trace = Trace::from_records(records);
    let mut config = SimConfig::new(InitialKind::RoundRobin, strategy);
    config.seed = seed;
    config.check_invariants = true;
    let mut sim = Simulator::new(&site, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    sim.run_to_completion()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The invariant checker stays silent on arbitrary workloads under
    /// every policy: conservation, lifecycle tiling, queue order, and
    /// resume order all hold online, at every event, not just at the end.
    #[test]
    fn prop_invariant_checker_never_fires(
        records in prop::collection::vec(arb_record(), 1..60),
        strategy in arb_any_strategy(),
        seed in 0u64..1000,
    ) {
        let n = records.len() as u64;
        let out = run_observed(records, strategy, seed);
        let checker = out
            .observer::<InvariantChecker>()
            .expect("checker attached via config");
        prop_assert!(checker.events_seen() > 0, "checker saw no events");
        prop_assert_eq!(out.counters.completed, n);
    }

    /// The recorded trace reconciles, count for count, with the run's
    /// aggregate counters under every strategy. Note `complete` matches
    /// `completed` exactly even with duplication: a shadow winner's
    /// completion is recorded but not counted, while the original it
    /// proxy-finishes is counted but recorded as `proxy_finish` — the two
    /// cancel in both race outcomes.
    #[test]
    fn prop_trace_counts_reconcile_with_counters(
        records in prop::collection::vec(arb_record(), 1..60),
        strategy in arb_any_strategy(),
        seed in 0u64..1000,
    ) {
        let n = records.len() as u64;
        let out = run_observed(records, strategy, seed);
        let rec = out
            .observer::<TraceRecorder>()
            .expect("recorder attached");
        let count = |kind: &str| rec.kind_counts().get(kind).copied().unwrap_or(0);
        prop_assert_eq!(count("submit"), n);
        prop_assert_eq!(count("complete"), out.counters.completed);
        prop_assert_eq!(count("suspend"), out.counters.suspensions);
        prop_assert_eq!(count("restart_from_suspend"), out.counters.restarts_from_suspend);
        prop_assert_eq!(count("restart_from_wait"), out.counters.restarts_from_wait);
        prop_assert_eq!(count("migrate"), out.counters.migrations);
        prop_assert_eq!(count("failure_evict"), out.counters.failure_evictions);
        prop_assert_eq!(count("duplicate"), out.counters.duplicates_launched);
        prop_assert_eq!(count("unrunnable"), out.counters.unrunnable);
        // The recorder's total is the sum of its per-kind counts: nothing
        // is recorded without being classified.
        let total: u64 = rec.kind_counts().values().sum();
        prop_assert_eq!(rec.events(), total);
    }
}
