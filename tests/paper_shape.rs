//! Fast shape tests: the paper's qualitative claims at reduced scale.
//! These are the same assertions `repro` makes at report scale,
//! pinned into the test suite so regressions in the model or the policies
//! break CI rather than silently deforming the reproduction.
//!
//! Every run here rides under the online [`InvariantChecker`]: each shape
//! scenario doubles as a conservation/lifecycle stress test, and any
//! accounting bug panics with event history instead of skewing a metric.

use netbatch::core::experiment::{Experiment, ExperimentResult};
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::SimConfig;
use netbatch::workload::scenarios::{ScenarioParams, SiteSpec};
use netbatch::workload::trace::Trace;

const SHAPE_SCALE: f64 = 0.05;

fn run(
    site: &SiteSpec,
    trace: &Trace,
    initial: InitialKind,
    strategy: StrategyKind,
) -> ExperimentResult {
    let mut config = SimConfig::new(initial, strategy);
    config.check_invariants = true;
    Experiment::new(site.clone(), trace.clone(), config).run()
}

#[test]
fn normal_load_shapes_table1() {
    let params = ScenarioParams::normal_week(SHAPE_SCALE);
    let site = params.build_site();
    let trace = params.generate_trace();
    let nores = run(&site, &trace, InitialKind::RoundRobin, StrategyKind::NoRes);
    let util = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusUtil,
    );
    let rand = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusRand,
    );

    // The suspend rate sits in the paper's ~1% regime.
    assert!(
        (0.004..0.04).contains(&nores.suspend_rate),
        "suspend rate {:.3}% out of the calibrated band",
        nores.suspend_rate * 100.0
    );
    // Rescheduling suspended jobs improves their completion time...
    assert!(
        util.avg_ct_suspended < nores.avg_ct_suspended,
        "{} !< {}",
        util.avg_ct_suspended,
        nores.avg_ct_suspended
    );
    // ...without hurting everyone else...
    assert!(util.avg_ct_all < nores.avg_ct_all * 1.05);
    // ...and reduces system waste (paper: -33%).
    assert!(util.avg_wct() < nores.avg_wct());
    // ResSusUtil eliminates nearly all suspension time (paper: 1189 -> 82).
    assert!(util.avg_st < nores.avg_st * 0.25);
    // Careless random pool choice is worse than load-aware choice.
    assert!(rand.avg_wct() >= util.avg_wct());
}

#[test]
fn high_load_shapes_tables_2_and_4() {
    let params = ScenarioParams::normal_week(SHAPE_SCALE);
    let site = params.build_site().halved();
    let trace = params.generate_trace();
    let nores = run(&site, &trace, InitialKind::RoundRobin, StrategyKind::NoRes);
    let util = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusUtil,
    );
    let rand = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusRand,
    );
    let wait_util = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusWaitUtil,
    );
    let wait_rand = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusWaitRand,
    );

    // Suspended jobs benefit strongly under contention.
    assert!(util.avg_ct_suspended < nores.avg_ct_suspended * 0.85);
    // The random backfire (paper Table 2): worst overall performance.
    assert!(rand.avg_wct() > nores.avg_wct());
    assert!(rand.avg_ct_all > nores.avg_ct_all);
    // Wait rescheduling rescues queue-stuck jobs: big AvgCT(all) win.
    assert!(wait_util.avg_ct_all < util.avg_ct_all);
    // Random ≈ util once waiting jobs get second chances (paper §3.3)...
    assert!(wait_rand.avg_ct_suspended < 1.4 * wait_util.avg_ct_suspended);
    assert!(wait_rand.avg_ct_all < 1.1 * wait_util.avg_ct_all);
    // ...at the price of far more restarts (paper's closing caveat).
    assert!(wait_rand.counters.restarts_from_wait > 2 * wait_util.counters.restarts_from_wait);
}

#[test]
fn utilization_based_initial_shapes_tables_3_and_5() {
    let params = ScenarioParams::normal_week(SHAPE_SCALE);
    let site = params.build_site().halved();
    let trace = params.generate_trace();
    let nores = run(
        &site,
        &trace,
        InitialKind::UtilizationBased,
        StrategyKind::NoRes,
    );
    let util = run(
        &site,
        &trace,
        InitialKind::UtilizationBased,
        StrategyKind::ResSusUtil,
    );
    let wait_util = run(
        &site,
        &trace,
        InitialKind::UtilizationBased,
        StrategyKind::ResSusWaitUtil,
    );
    // Rescheduling remains effective with the smarter initial scheduler.
    assert!(util.avg_ct_suspended < nores.avg_ct_suspended);
    assert!(wait_util.avg_wct() < nores.avg_wct());
    // Utilization-based initial scheduling slashes baseline waiting vs RR
    // (it never routes jobs to loaded pools while idle ones exist).
    let rr_nores = run(&site, &trace, InitialKind::RoundRobin, StrategyKind::NoRes);
    assert!(nores.avg_wait_all < rr_nores.avg_wait_all);
}

#[test]
fn high_suspension_scenario_amplifies_benefits() {
    let params = ScenarioParams::high_suspension_week(SHAPE_SCALE);
    let site = params.build_site();
    let trace = params.generate_trace();
    let nores = run(&site, &trace, InitialKind::RoundRobin, StrategyKind::NoRes);
    let util = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusUtil,
    );
    let normal = ScenarioParams::normal_week(SHAPE_SCALE);
    let normal_nores = run(
        &normal.build_site(),
        &normal.generate_trace(),
        InitialKind::RoundRobin,
        StrategyKind::NoRes,
    );
    assert!(nores.suspend_rate > 2.0 * normal_nores.suspend_rate);
    // Paper: -44% AvgCT(susp) and a visible AvgCT(all) improvement.
    assert!(util.avg_ct_suspended < nores.avg_ct_suspended * 0.7);
    assert!(util.avg_ct_all < nores.avg_ct_all);
}

#[test]
fn year_trace_reproduces_figure2_shape() {
    let params = ScenarioParams::year(0.02);
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    let result = Experiment::new(params.build_site(), params.generate_trace(), config).run();
    let cdf = result.suspension_cdf();
    assert!(
        cdf.len() > 50,
        "need a suspension population, got {}",
        cdf.len()
    );
    let median = cdf.median().expect("non-empty");
    let mean = cdf.mean();
    // Long-tailed: mean well above median, and a heavy >1100-minute tail
    // exists (paper: median 437, mean 905, 20% above 1100).
    assert!(mean > 1.2 * median, "mean {mean:.0} vs median {median:.0}");
    let tail = 1.0 - cdf.at(1100.0);
    assert!(tail > 0.05, "tail fraction {tail:.3}");
    // The calibrated magnitudes sit within 3x of the paper's.
    assert!((150.0..1400.0).contains(&median), "median {median:.0}");
    assert!((300.0..2800.0).contains(&mean), "mean {mean:.0}");
}

#[test]
fn queue_and_smart_policies_have_their_shapes() {
    let params = ScenarioParams::normal_week(SHAPE_SCALE);
    let site = params.build_site().halved();
    let trace = params.generate_trace();
    let nores = run(&site, &trace, InitialKind::RoundRobin, StrategyKind::NoRes);
    let util = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusUtil,
    );
    let queue = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusQueue,
    );
    let wait_util = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusWaitUtil,
    );
    let smart = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusWaitSmart,
    );

    // Queue-length-guided restarts are a real rescheduling policy: they
    // move suspended jobs (restarts happen) and strongly cut their
    // completion and suspension time vs the baseline.
    assert!(queue.counters.restarts_from_suspend > 0);
    assert!(
        queue.avg_ct_suspended < nores.avg_ct_suspended * 0.85,
        "queue {} !<< nores {}",
        queue.avg_ct_suspended,
        nores.avg_ct_suspended
    );
    assert!(queue.avg_st < nores.avg_st * 0.5);
    assert!(queue.avg_ct_all < nores.avg_ct_all);
    // But queue length is a noisier load signal than utilization: the
    // queue policy stays within sight of ResSusUtil without beating it
    // decisively on suspended-job completion time.
    assert!(
        queue.avg_ct_suspended < 1.25 * util.avg_ct_suspended,
        "queue {} vs util {}",
        queue.avg_ct_suspended,
        util.avg_ct_suspended
    );
    // The multi-metric wait policy reschedules far more aggressively than
    // the pure wait-time trigger (it also watches relative pool load)...
    assert!(smart.counters.restarts_from_wait > wait_util.counters.restarts_from_wait);
    // ...and that extra signal pays: big wins over both the baseline and
    // suspend-only rescheduling on overall metrics.
    assert!(smart.avg_wct() < nores.avg_wct() * 0.5);
    assert!(smart.avg_ct_all < util.avg_ct_all);
    assert!(smart.avg_wct() < wait_util.avg_wct() * 1.1);
}

#[test]
fn extension_mechanisms_have_their_characteristic_tradeoffs() {
    let params = ScenarioParams::normal_week(SHAPE_SCALE);
    let site = params.build_site().halved();
    let trace = params.generate_trace();
    let nores = run(&site, &trace, InitialKind::RoundRobin, StrategyKind::NoRes);
    let restart = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusUtil,
    );
    let migrate = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::MigrateSusUtil,
    );
    let dup = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::DupSusUtil,
    );
    let smart = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusWaitSmart,
    );

    // Migration keeps progress, so it beats restart-based rescheduling on
    // suspended-job completion time at the default (paper-derived) costs.
    assert!(
        migrate.avg_ct_suspended < restart.avg_ct_suspended,
        "migrate {} !< restart {}",
        migrate.avg_ct_suspended,
        restart.avg_ct_suspended
    );
    assert!(migrate.counters.migrations > 0);
    // Duplication burns redundant capacity: more waste than migration.
    assert!(dup.counters.duplicates_launched > 0);
    assert!(dup.waste.avg_resched() > migrate.waste.avg_resched());
    // Every mechanism still beats the baseline for suspended jobs.
    for r in [&restart, &migrate, &dup] {
        assert!(r.avg_ct_suspended < nores.avg_ct_suspended);
    }
    // The multi-metric policy is at least as good as ResSusWaitUtil on
    // overall waste (it sees strictly more signal).
    let wait_util = run(
        &site,
        &trace,
        InitialKind::RoundRobin,
        StrategyKind::ResSusWaitUtil,
    );
    assert!(smart.avg_wct() < wait_util.avg_wct() * 1.1);
}
