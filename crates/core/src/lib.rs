//! # netbatch-core
//!
//! The paper's contribution, as a library: dynamic rescheduling strategies
//! for a NetBatch-like distributed computing platform, the initial
//! (virtual-pool-manager) schedulers they compose with, the trace-driven
//! simulator they are evaluated on (our open equivalent of Intel's ASCA),
//! and the experiment runner computing the paper's metrics.
//!
//! Reproduces *"On the Feasibility of Dynamic Rescheduling on the Intel
//! Distributed Computing Platform"* (Zhang et al., Middleware 2010).
//!
//! ## Quick start
//!
//! ```
//! use netbatch_core::experiment::Experiment;
//! use netbatch_core::policy::{InitialKind, StrategyKind};
//! use netbatch_core::simulator::SimConfig;
//! use netbatch_workload::scenarios::ScenarioParams;
//!
//! // A 1%-scale version of the paper's normal-load week.
//! let params = ScenarioParams::normal_week(0.01);
//! let experiment = Experiment::new(
//!     params.build_site(),
//!     params.generate_trace(),
//!     SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil),
//! );
//! let result = experiment.run();
//! assert_eq!(result.counters.completed, result.total_jobs);
//! println!("suspend rate {:.2}%", result.suspend_rate * 100.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod experiment;
pub mod faults;
mod job_table;
pub mod observer;
pub mod policy;
mod pool_step;
pub mod provenance;
pub mod simulator;
mod streaming;
pub mod telemetry;

pub use config::ConfigError;
pub use experiment::{
    render_results_table, Experiment, ExperimentResult, JobTotals, PAPER_TABLE_HEADER,
};
pub use faults::{FaultModel, FaultPlan, MachineOutage, ResiliencePolicy};
pub use observer::{
    AuditTrigger, AuditVerdict, InvariantChecker, ObsCtx, ObsEvent, PhaseTag, ReschedKind,
    SimObserver, TraceRecorder,
};
pub use policy::{InitialKind, ReschedPolicy, StrategyKind};
pub use provenance::{Cause, KernelProfile, SpanRecorder};
pub use simulator::{Backend, RunCounters, SimConfig, SimOutput, Simulator};

pub use telemetry::{Registry, Telemetry, TelemetrySummary};
