//! Pins every observer rendering byte for byte: FNV-1a digests (and
//! lengths) of [`Telemetry::render_prom`], [`SpanRecorder::render_jsonl`],
//! [`Telemetry::render_markdown`] and the three CSV series, for these cells:
//!
//! * a small normal week sampled every minute under ResSusWaitUtil, the
//!   shape `netbatch report` runs, so the per-pool reductions and the
//!   Figure 4 timeline see one sample per minute;
//! * the chaos cell of `tests/provenance.rs` (faults, lifecycle windows,
//!   hardened resilience, evacuation) under ResSusWaitUtil, whose spans
//!   carry policy, fault, evacuation and retry causes, and under
//!   DupSusUtil, which hands policy causes from originals to their
//!   clones and finishes shadows by proxy.
//!
//! Observer-side changes that are meant to be pure refactors (how the
//! reductions are stored, how the JSONL is assembled) must leave every
//! digest unchanged. Regenerate a digest only for a deliberate change to
//! what is rendered, and say which one in CHANGES.md.

use netbatch::core::faults::{FaultModel, LifecycleModel, ResiliencePolicy};
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::provenance::SpanRecorder;
use netbatch::core::simulator::{SimConfig, SimOutput, Simulator};
use netbatch::core::telemetry::Telemetry;
use netbatch::sim_engine::time::SimDuration;
use netbatch::workload::scenarios::ScenarioParams;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(name, bytes, digest)` for each rendering of the run, in a fixed order.
fn renderings(out: &SimOutput) -> Vec<(&'static str, usize, u64)> {
    let tel = out.observer::<Telemetry>().expect("telemetry attached");
    let spans = out.observer::<SpanRecorder>().expect("spans attached");
    [
        ("prom", tel.render_prom()),
        ("spans", spans.render_jsonl()),
        ("markdown", tel.render_markdown()),
        ("cdf_csv", tel.cdf_csv()),
        ("timeline_csv", tel.timeline_csv()),
        ("pools_csv", tel.pools_csv()),
    ]
    .into_iter()
    .map(|(name, text)| (name, text.len(), fnv1a(text.as_bytes())))
    .collect()
}

fn check(label: &str, out: &SimOutput, pinned: &[(&str, usize, u64)]) {
    let got = renderings(out);
    let shown: Vec<String> = got
        .iter()
        .map(|(name, len, digest)| format!("(\"{name}\", {len}, {digest:#018x}),"))
        .collect();
    assert_eq!(
        got,
        pinned,
        "{label}: renderings changed; now\n{}",
        shown.join("\n")
    );
}

/// A normal week at scale 0.02, sampled every minute, with Telemetry and
/// the span recorder attached.
fn sampled_week() -> SimOutput {
    let params = ScenarioParams::normal_week(0.02);
    let site = params.build_site();
    let trace = params.generate_trace();
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil)
        .with_sampling()
        .with_telemetry();
    config.spans = true;
    Simulator::new(&site, trace.to_specs(), config).run_to_completion()
}

/// The chaos cell of `tests/provenance.rs`.
fn chaos(strategy: StrategyKind) -> SimOutput {
    let params = ScenarioParams::normal_week(0.02);
    let site = params.build_site().halved();
    let trace = params.generate_trace();
    let mut config = SimConfig::new(InitialKind::RoundRobin, strategy);
    config.telemetry = true;
    config.spans = true;
    config.seed = 7;
    config.fault_model = Some(FaultModel::new(
        SimDuration::from_hours(24),
        SimDuration::from_hours(6),
        SimDuration::from_days(8),
    ));
    config.resilience = ResiliencePolicy::hardened().with_evacuation();
    config.lifecycle = Some(
        LifecycleModel::new(SimDuration::from_days(8))
            .with_maintenance(SimDuration::from_hours(48), SimDuration::from_hours(2))
            .with_rolling(1, 0.25, SimDuration::from_hours(1)),
    );
    config.health_aware = true;
    Simulator::new(&site, trace.to_specs(), config).run_to_completion()
}

#[test]
fn sampled_week_renderings_are_pinned() {
    check(
        "sampled week",
        &sampled_week(),
        &[
            ("prom", 15475, 0x5929fd91736cc396),
            ("spans", 606544, 0x2a6878acc03abedf),
            ("markdown", 18262, 0x2093fb6f9cb425d0),
            ("cdf_csv", 28, 0xa54858e141c831dc),
            ("timeline_csv", 14567, 0x0af3ca0382206f15),
            ("pools_csv", 649, 0xc899635885be0072),
        ],
    );
}

#[test]
fn chaos_renderings_are_pinned() {
    check(
        "chaos ResSusWaitUtil",
        &chaos(StrategyKind::ResSusWaitUtil),
        &[
            ("prom", 21276, 0xcfbad5083ee0c209),
            ("spans", 16799755, 0x864ad4d84a6684ac),
            ("markdown", 1134, 0x8846e16b764d08b4),
            ("cdf_csv", 249, 0x24bba29d391d5569),
            ("timeline_csv", 55, 0x75c71a4200ee8176),
            ("pools_csv", 71, 0xb50ee2eadc5ab635),
        ],
    );
}

#[test]
fn duplicate_chaos_renderings_are_pinned() {
    check(
        "chaos DupSusUtil",
        &chaos(StrategyKind::DupSusUtil),
        &[
            ("prom", 22092, 0x656ff95355c51b3a),
            ("spans", 2152180, 0x79c6f3fe36d2ba6e),
            ("markdown", 1128, 0x523e67d37e7cff27),
            ("cdf_csv", 243, 0xd6de7dfa00621794),
            ("timeline_csv", 55, 0x75c71a4200ee8176),
            ("pools_csv", 71, 0xb50ee2eadc5ab635),
        ],
    );
}

#[test]
fn chaos_cells_cover_every_emitted_cause() {
    let mut seen = std::collections::BTreeSet::new();
    for strategy in [StrategyKind::ResSusWaitUtil, StrategyKind::DupSusUtil] {
        let out = chaos(strategy);
        let jsonl = out
            .observer::<SpanRecorder>()
            .expect("spans attached")
            .render_jsonl();
        for line in jsonl
            .lines()
            .filter(|l| l.starts_with("{\"kind\":\"span\""))
        {
            let (_, cause) = line
                .split_once("\"cause\":{\"type\":\"")
                .expect("span has a cause");
            seen.insert(cause.split('"').next().unwrap_or_default().to_string());
        }
    }
    let want = [
        "submitted",
        "dispatched",
        "preempted",
        "resumed",
        "policy",
        "fault",
        "evacuation",
        "retry",
    ];
    // `duplicate_race` is only the fallback for a clone launched without a
    // policy audit; the simulator audits every duplicate decision first,
    // so its clones carry the policy cause instead.
    assert_eq!(seen, want.iter().map(|s| s.to_string()).collect());
}
