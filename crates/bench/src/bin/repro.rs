//! Reproduces the paper's evaluation: every table and figure, the
//! ablations and the calibration run, as named presets.
//!
//! ```text
//! repro [--scale N] [--check-invariants] [--smoke] [--markdown] [PRESET...]
//! ```
//!
//! With no preset it runs `all`: every table and figure, then a
//! shape-check summary (the paper's qualitative claims) that sets the
//! exit code. `--scale` scales the site and arrival rates (default 0.1;
//! 1.0 is the paper-sized 248k-job week; the year-long figure runs use
//! half of it). `--check-invariants` runs every cell under the online
//! invariant checker; `--markdown` prints the EXPERIMENTS.md tables;
//! `--smoke` reports shape checks without gating the exit code on them
//! (they are calibrated for scale >= 0.1, so small-scale CI runs gate
//! only on invariants, which panic on violation).
//!
//! Exit codes: 0 on success, 1 if a shape check failed (without
//! `--smoke`) or a preset could not write its output, 2 on a bad
//! command line.

use std::process::ExitCode;

use netbatch_bench::presets::{self, Ctx, Preset, PRESETS};

const USAGE: &str =
    "usage: repro [--scale N] [--check-invariants] [--smoke] [--markdown] [PRESET...]";

/// A parsed command line.
#[derive(Debug)]
struct Invocation {
    ctx: Ctx,
    smoke: bool,
    presets: Vec<(String, Preset)>,
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut ctx = Ctx::default();
    let mut smoke = false;
    let mut presets = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("flag --scale needs a value")?;
                ctx.scale = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--scale must be a positive number, got `{v}`"))?;
            }
            "--check-invariants" => ctx.check_invariants = true,
            "--smoke" => smoke = true,
            "--markdown" => ctx.markdown = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => {
                let preset = presets::find(name).ok_or_else(|| {
                    let names: Vec<&str> = PRESETS.iter().map(|(n, _)| *n).collect();
                    format!(
                        "unknown preset `{name}`; valid presets: {}",
                        names.join(", ")
                    )
                })?;
                presets.push((name.to_string(), preset));
            }
        }
    }
    if presets.is_empty() {
        presets.push(("all".to_string(), presets::all as Preset));
    }
    Ok(Invocation {
        ctx,
        smoke,
        presets,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match parse_args(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "NetBatch dynamic-rescheduling reproduction | scale {}{}",
        inv.ctx.scale,
        if inv.ctx.check_invariants {
            " | invariant-checked"
        } else {
            ""
        }
    );
    let mut failed = 0;
    for (name, preset) in &inv.presets {
        match preset(&inv.ctx) {
            Ok(checks) => failed += checks.iter().filter(|c| !c.pass).count(),
            Err(e) => {
                eprintln!("error: preset {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if failed > 0 {
        if inv.smoke {
            println!("(smoke mode: shape checks reported but not gating the exit code)");
        } else {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn names(inv: &Invocation) -> Vec<&str> {
        inv.presets.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn no_arguments_run_all_at_the_default_scale() {
        let inv = parse_args(&[]).unwrap();
        assert_eq!(names(&inv), ["all"]);
        assert_eq!(inv.ctx, Ctx::default());
        assert!(!inv.smoke);
    }

    #[test]
    fn flags_and_presets_parse_in_any_order() {
        let inv = parse_args(&args(
            "table1 --scale 0.02 --check-invariants staleness --smoke --markdown",
        ))
        .unwrap();
        assert_eq!(names(&inv), ["table1", "staleness"]);
        assert_eq!(inv.ctx.scale, 0.02);
        assert!(inv.ctx.check_invariants && inv.ctx.markdown && inv.smoke);
    }

    #[test]
    fn every_registered_preset_parses() {
        for (name, _) in PRESETS {
            assert_eq!(names(&parse_args(&args(name)).unwrap()), [name]);
        }
    }

    #[test]
    fn bad_scales_are_rejected() {
        for bad in ["abc", "0", "-1", "nan", "inf", ""] {
            let err = parse_args(&["--scale".to_string(), bad.to_string()]).unwrap_err();
            assert!(err.contains("--scale"), "--scale {bad}: {err}");
        }
        let err = parse_args(&args("--scale")).unwrap_err();
        assert!(err.contains("--scale needs a value"), "{err}");
    }

    #[test]
    fn unknown_flags_and_presets_are_rejected() {
        let err = parse_args(&args("--sacle 0.01")).unwrap_err();
        assert!(err.contains("`--sacle`"), "{err}");
        let err = parse_args(&args("--stats")).unwrap_err();
        assert!(err.contains("`--stats`"), "{err}");
        let err = parse_args(&args("table9")).unwrap_err();
        assert!(err.contains("`table9`"), "{err}");
        for (name, _) in PRESETS {
            assert!(err.contains(name), "error must list `{name}`: {err}");
        }
    }
}
