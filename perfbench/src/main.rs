//! The netbatch benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_normal --seed 20101108 --seconds 20 --trace 0
//! ```
//!
//! `--workload` is one of `table1_normal`, `table2_high`, `stream_pools`,
//! `observed_normal`, or `all` (the default) for each in turn. The seed
//! drives workload generation only. `--seconds` sets the run length; each
//! workload turns it into a fixed number of repetitions. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` the per-layer ones. Each
//! workload ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. The exit code is 1 when any output check failed and 2 on
//! a usage error.

use std::process::ExitCode;

use netbatch_perfbench::alloc::CountingPeakAlloc;
use netbatch_perfbench::{measure, Options, Sizes, Workload};

#[global_allocator]
static GLOBAL: CountingPeakAlloc = CountingPeakAlloc;

/// The paper's calibration seed (the conference date).
const DEFAULT_SEED: u64 = 20_101_108;

fn parse_args() -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut opts = Options {
        workload: Workload::Table1Normal,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        traced: false,
        sizes: Sizes::BENCH,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?]
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be an unsigned integer, got `{value}`"))?
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        format!("--seconds must be a non-negative number, got `{value}`")
                    })?
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((workloads, opts))
}

fn main() -> ExitCode {
    let (workloads, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "host cores: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut correct = true;
    for workload in workloads {
        let outcome = measure(&Options { workload, ..opts });
        for (d, v) in &outcome.metrics {
            println!("{:<24} {v:>16.6} {:<8} {}", d.name, d.unit, d.about);
        }
        println!("{}", outcome.json());
        correct &= outcome.correct;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
