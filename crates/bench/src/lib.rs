//! # netbatch-bench
//!
//! The benchmark harness reproducing every table and figure of the paper's
//! evaluation, plus the ablations DESIGN.md §6 calls out.
//!
//! One binary, `repro`, runs every experiment as a named preset
//! (`cargo run --release -p netbatch-bench --bin repro -- [--scale N]
//! [--check-invariants] [--smoke] [--markdown] [PRESET...]`):
//!
//! | preset | artifact |
//! |---|---|
//! | `all` (default) | every table and figure below, then 17 shape checks |
//! | `table1` | Table 1 |
//! | `table2` | Table 2 |
//! | `table2b` | §3.2.1 high-suspension claims |
//! | `table3` | Table 3 |
//! | `table4` | Table 4 |
//! | `table5` | Table 5 |
//! | `fig2` | Figure 2 |
//! | `fig3` | Figure 3 |
//! | `fig4` | Figure 4 (also writes `target/fig4_timeline.csv`) |
//! | `staleness` | stale-utilization extension |
//! | `overhead` | restart-overhead extension |
//! | `max-restarts` | restart-cap extension |
//! | `queue-policy` | shortest-queue selector extension |
//! | `smart-policy` | multi-metric selector and weight sweep |
//! | `alternatives` | restart vs migrate vs duplicate, migration-cost sweep |
//! | `intersite` | multi-VPM topologies, inter-site rescheduling |
//! | `failures` | fault-intensity sweep, hardened resilience |
//! | `lifecycle` | health-aware vs health-blind under lifecycle churn |
//! | `calibrate` | workload-calibration observables |
//!
//! `--scale` scales site capacity and arrival rates together (default
//! 0.1; 1.0 = the paper's full 248k-job week).

pub mod paper;
pub mod presets;
pub mod runner;
