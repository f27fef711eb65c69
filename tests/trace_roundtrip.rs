//! Trace persistence integration: generated traces survive CSV round trips
//! and the re-read trace drives the simulator to identical results — the
//! guarantee that lets users swap in real traces with the same schema.

use netbatch::core::experiment::Experiment;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::SimConfig;
use netbatch::workload::io::{read_csv, write_csv};
use netbatch::workload::scenarios::ScenarioParams;

#[test]
fn csv_round_trip_preserves_simulation_results() {
    let params = ScenarioParams::normal_week(0.01);
    let site = params.build_site();
    let trace = params.generate_trace();

    let mut buf = Vec::new();
    write_csv(&mut buf, &trace).expect("serialize");
    let reread = read_csv(buf.as_slice()).expect("parse");
    assert_eq!(reread, trace);

    let config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
    let a = Experiment::new(site.clone(), trace, config.clone()).run();
    let b = Experiment::new(site, reread, config).run();
    assert_eq!(a.avg_ct_all.to_bits(), b.avg_ct_all.to_bits());
    assert_eq!(a.suspend_rate.to_bits(), b.suspend_rate.to_bits());
    assert_eq!(a.counters, b.counters);
}

#[test]
fn windowing_matches_the_papers_busy_week_methodology() {
    // The paper carves jobs submitted between minutes 76 000 and 86 080
    // out of the year trace. Reproduce the carve on a synthetic year and
    // check the window is a self-contained runnable trace.
    let params = ScenarioParams::year(0.01);
    let year = params.generate_trace();
    let window = year.window(76_000, 86_080).rebased();
    assert!(window.len() > 50);
    assert_eq!(window.start_minute(), Some(0));
    assert!(window.end_minute().unwrap() < 10_080);

    let result = Experiment::new(
        params.build_site(),
        window,
        SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes),
    )
    .run();
    assert_eq!(result.counters.completed, result.total_jobs);
}

#[test]
fn trace_files_on_disk_work() {
    let params = ScenarioParams::normal_week(0.005);
    let trace = params.generate_trace();
    let dir = std::env::temp_dir().join("netbatch-trace-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("trace.csv");
    let file = std::fs::File::create(&path).expect("create");
    write_csv(file, &trace).expect("write");
    let back = read_csv(std::fs::File::open(&path).expect("open")).expect("read");
    assert_eq!(back, trace);
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_rejects_trace_minutes_past_the_cap() {
    // Each row once overflowed the simulator's minute arithmetic: the
    // first panicked scheduling a completion, the second wrapped a wall
    // time and reported a nonsense mean. Both must now stop at parse time.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, row, field) in [
        (
            "submit",
            "18446744073709551615,10,1,100,1,,",
            "submit_minute",
        ),
        (
            "runtime",
            "100,18446744073709551615,1,100,1,,",
            "runtime_minutes",
        ),
    ] {
        let path = dir.join(format!("overflow_{name}.csv"));
        std::fs::write(
            &path,
            format!("{}\n{row}\n", netbatch::workload::io::CSV_HEADER),
        )
        .expect("write trace");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_netbatch"))
            .args(["simulate", "--trace"])
            .arg(&path)
            .output()
            .expect("run netbatch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("trace parse error at line 2") && stderr.contains(field),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn cli_trace_out_to_a_closed_stdout_exits_cleanly() {
    // The reader is gone before the run writes its first event: the rest
    // of the JSONL trace is dropped and the run still finishes, exit 0.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_netbatch"))
        .args(["simulate", "--scale", "0.002", "--trace-out", "-"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run netbatch");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for netbatch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("trace: "),
        "the summary still goes to stderr: {stderr}"
    );
}
