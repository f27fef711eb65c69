//! The benchmark's own contract: the metric names it prints match
//! `BENCHMARK.json`, and instrumentation never changes what is simulated.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use netbatch_metrics::json::{self, Value};
use netbatch_perfbench::{
    measure, MetricDef, Mode, Options, Sizes, Workload, END_TO_END, PER_LAYER,
};

const SEED: u64 = 20_101_108;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json `{key}` is not a list"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is not a string in {}", entry.render()))
}

/// `(name, unit, better)` of every metric entry in a `BENCHMARK.json` list.
fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    list(doc, key)
        .iter()
        .map(|e| {
            (
                field(e, "name").to_string(),
                field(e, "unit").to_string(),
                field(e, "better").to_string(),
            )
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

fn smoke(workload: Workload, traced: bool) -> netbatch_perfbench::Outcome {
    measure(&Options {
        workload,
        seed: SEED,
        seconds: 0.0,
        traced,
        sizes: Sizes::SMOKE,
    })
}

#[test]
fn benchmark_json_declares_what_the_command_prints() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), defined(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), defined(&PER_LAYER));
    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|e| field(e, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for e in list(&doc, "end_to_end") {
        let bound = e.get("bound").and_then(Value::as_f64);
        assert!(
            bound.is_some_and(|b| b > 0.0 && b <= 0.25),
            "{} needs a bound in (0, 0.25]",
            e.render()
        );
    }

    // What a run actually prints, by name and unit, in both modes.
    for (traced, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let outcome = smoke(Workload::Table1Normal, traced);
        let printed: Vec<(String, String, String)> = outcome
            .metrics
            .iter()
            .map(|(d, _)| (d.name.into(), d.unit.into(), d.better.into()))
            .collect();
        assert_eq!(printed, defined(defs));
        let json = outcome.json();
        for d in defs {
            assert!(
                json.contains(&format!("\"{}\": {{\"value\": ", d.name)),
                "{json}"
            );
        }
    }
}

#[test]
fn traced_repetitions_simulate_exactly_what_plain_ones_do() {
    for workload in Workload::ALL {
        let plain = workload.rep(&Sizes::SMOKE, SEED, Mode::Plain);
        let traced = workload.rep(&Sizes::SMOKE, SEED, Mode::Traced);
        assert!(
            plain.errors.is_empty(),
            "{}: {:?}",
            workload.name(),
            plain.errors
        );
        assert!(
            traced.errors.is_empty(),
            "{}: {:?}",
            workload.name(),
            traced.errors
        );
        assert!(!plain.digest.is_empty());
        assert_eq!(plain.digest, traced.digest, "{}", workload.name());
        assert_eq!(plain.failed, 0);
        assert_eq!(plain.completed, plain.submitted);
    }
    // The 1-shard streaming reference reproduces the 2-shard run.
    let two = Workload::StreamPools.rep(&Sizes::SMOKE, SEED, Mode::Plain);
    let one = Workload::StreamPools
        .reference_rep(&Sizes::SMOKE, SEED)
        .expect("stream_pools has a 1-shard reference");
    assert_eq!(one.digest, two.digest);
}

#[test]
fn traced_runs_attribute_work_to_the_layers_each_workload_exercises() {
    let value = |metrics: &[(MetricDef, f64)], name: &str| {
        metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{name} not printed"))
    };
    for workload in Workload::ALL {
        let outcome = smoke(workload, true);
        assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.errors);
        let m = &outcome.metrics;
        let observed = workload == Workload::ObservedNormal;
        let stream = workload == Workload::StreamPools;
        assert_eq!(
            value(m, "observer.calls") > 0.0,
            observed,
            "{}",
            workload.name()
        );
        assert_eq!(
            value(m, "observer.overhead") > 0.0,
            observed,
            "{}",
            workload.name()
        );
        assert_eq!(
            value(m, "stream.speedup") > 0.0,
            stream,
            "{}",
            workload.name()
        );
        assert_eq!(
            value(m, "stream.worker_s") > 0.0,
            stream,
            "{}",
            workload.name()
        );
        assert_eq!(
            value(m, "policy.calls") > 0.0,
            !stream,
            "{}",
            workload.name()
        );
        assert!(value(m, "engine.events") > 0.0);
        assert!(value(m, "trace.overhead") > 0.0);
        assert_eq!(value(m, "jobs_failed_frac"), 0.0);
        if !stream {
            assert!(value(m, "simulator.submit_n") > 0.0);
            assert!(value(m, "simulator.submit_s") > 0.0);
        }
    }
}
