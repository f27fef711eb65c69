//! The configuration gate: every configuration the kernels refuse, as
//! one typed [`ConfigError`] with one variant per rule.
//!
//! Two checks return it. [`LifecycleModel::validate`](crate::faults::LifecycleModel::validate)
//! rejects lifecycle parameters that would panic or hang plan generation,
//! on either kernel. [`Simulator::check_streaming`] rejects what the
//! streaming kernel does not model, so that no knob reaching a streaming
//! run silently does nothing. [`Simulator::run_streaming`] asserts the
//! latter; a front end asks it first to report an error instead.

use std::fmt;

use netbatch_workload::WorkloadSpec;

use crate::observer::InvariantChecker;
use crate::provenance::SpanRecorder;
use crate::simulator::Simulator;
use crate::telemetry::Telemetry;

/// A configuration a kernel refuses to run. The `Display` text names the
/// rule.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A streaming simulator was built with job specs: the kernel
    /// generates its own jobs.
    StreamingSpecs,
    /// A streaming run's rescheduling policy is not `NoRes`.
    StreamingStrategy,
    /// A streaming run's initial scheduler is not round-robin.
    StreamingInitial,
    /// A streaming run has a non-zero view staleness.
    StreamingStaleness,
    /// A streaming run has a VPM topology.
    StreamingTopology,
    /// A streaming run has a restart overhead (`NoRes` never restarts).
    StreamingRestartOverhead,
    /// A streaming run has a restart limit (`NoRes` never restarts).
    StreamingMaxRestarts,
    /// A streaming run asks for health-aware scheduling.
    StreamingHealthAware,
    /// A streaming run has injected outages or a fault model.
    StreamingFaults,
    /// A streaming run has a lifecycle model or drain windows.
    StreamingLifecycle,
    /// A streaming run has the resilience policy on.
    StreamingResilience,
    /// A streaming run carries an observer that indexes `ctx.jobs`: the
    /// invariant checker, telemetry or the span recorder.
    StreamingObservers,
    /// The streaming workload is not pool-major pinned
    /// ([`WorkloadSpec::validate_pool_major`]'s error).
    StreamingWorkload(String),
    /// The lifecycle horizon is zero.
    LifecycleHorizon,
    /// Maintenance is scheduled with a zero duration.
    LifecycleMaintenanceDuration,
    /// Rolling waves cover a fraction outside `(0, 1]`.
    LifecycleRollingFraction(f64),
    /// Rolling waves are scheduled with a zero duration.
    LifecycleRollingDuration,
    /// Cordons are scheduled with a zero duration.
    LifecycleCordonDuration,
    /// Health is probed zero times.
    LifecycleProbeCount,
    /// The probe failure rate is outside `[0, 1]`.
    LifecycleProbeFailure(f64),
    /// The flaky-machine fraction is outside `[0, 1]`.
    LifecycleFlakyFraction(f64),
    /// A VPM topology asks for no VPM, or for more VPMs than pools (a
    /// VPM would serve no pool).
    TopologyVpms {
        /// VPMs asked for.
        vpms: u16,
        /// Pools of the site.
        pools: u16,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ConfigError::*;
        let rule = match self {
            StreamingSpecs => {
                "streaming runs generate their own jobs; construct the Simulator with an empty \
                 spec list"
            }
            StreamingStrategy => "streaming backend supports only the NoRes fast class",
            StreamingInitial => "streaming backend requires round-robin initial scheduling",
            StreamingStaleness => "streaming backend requires zero view staleness",
            StreamingTopology => "streaming backend does not model VPM topologies",
            StreamingRestartOverhead => "streaming backend does not model restart overhead",
            StreamingMaxRestarts => "streaming backend does not model restart limits",
            StreamingHealthAware => "streaming backend does not model health-aware scheduling",
            StreamingFaults => "streaming backend does not model machine faults",
            StreamingLifecycle => "streaming backend does not model machine lifecycle",
            StreamingResilience => "streaming backend does not model scheduler resilience",
            StreamingObservers => {
                "built-in dense-id observers cannot run on the streaming backend \
                 (ctx.jobs stays empty until drain)"
            }
            StreamingWorkload(err) => {
                return write!(f, "streaming workload contract violated: {err}")
            }
            LifecycleHorizon => "lifecycle horizon must be positive",
            LifecycleMaintenanceDuration => "lifecycle maintenance duration must be positive",
            LifecycleRollingFraction(v) => {
                return write!(f, "lifecycle rolling fraction must be in (0, 1], got {v}")
            }
            LifecycleRollingDuration => "lifecycle rolling duration must be positive",
            LifecycleCordonDuration => "lifecycle cordon duration must be positive",
            LifecycleProbeCount => "lifecycle probe count must be positive",
            LifecycleProbeFailure(v) => {
                return write!(f, "lifecycle probe failure rate must be in [0, 1], got {v}")
            }
            LifecycleFlakyFraction(v) => {
                return write!(f, "lifecycle flaky fraction must be in [0, 1], got {v}")
            }
            TopologyVpms { vpms, pools } => {
                return write!(
                    f,
                    "a topology of {pools} pools needs 1 to {pools} VPMs, got {vpms}"
                )
            }
        };
        f.write_str(rule)
    }
}

impl std::error::Error for ConfigError {}

/// The first rule in `rules` that is broken (`true`), in order.
pub(crate) fn first_broken<const N: usize>(
    rules: [(bool, ConfigError); N],
) -> Result<(), ConfigError> {
    match rules.into_iter().find(|(broken, _)| *broken) {
        Some((_, err)) => Err(err),
        None => Ok(()),
    }
}

impl Simulator {
    /// The streaming kernel's gate: `Ok` when [`Simulator::run_streaming`]
    /// models this simulator on `workload`, else the first rule broken.
    ///
    /// The supported class is `NoRes` + round-robin + zero staleness, with
    /// no topology, restart knobs, health awareness, faults, lifecycle,
    /// resilience or observer that indexes `ctx.jobs`, on a pool-major
    /// pinned workload and an empty spec list.
    pub fn check_streaming(&self, workload: &WorkloadSpec) -> Result<(), ConfigError> {
        let c = &self.config;
        // The config switches attach these same types in `Simulator::new`,
        // so checking what is attached covers both routes.
        let dense_observer = self.observers.iter().any(|o| {
            let any = o.as_any();
            any.is::<InvariantChecker>() || any.is::<Telemetry>() || any.is::<SpanRecorder>()
        });
        first_broken([
            (!self.jobs.specs().is_empty(), ConfigError::StreamingSpecs),
            (!self.policy.is_no_res(), ConfigError::StreamingStrategy),
            (
                !self.initial.is_round_robin(),
                ConfigError::StreamingInitial,
            ),
            (!c.view_staleness.is_zero(), ConfigError::StreamingStaleness),
            (c.topology.is_some(), ConfigError::StreamingTopology),
            (
                !c.restart_overhead.is_zero(),
                ConfigError::StreamingRestartOverhead,
            ),
            (c.max_restarts.is_some(), ConfigError::StreamingMaxRestarts),
            (c.health_aware, ConfigError::StreamingHealthAware),
            (
                !c.failures.is_empty() || c.fault_model.is_some(),
                ConfigError::StreamingFaults,
            ),
            (
                c.lifecycle.is_some() || !c.drains.is_empty(),
                ConfigError::StreamingLifecycle,
            ),
            (c.resilience.enabled, ConfigError::StreamingResilience),
            (dense_observer, ConfigError::StreamingObservers),
        ])?;
        workload
            .validate_pool_major(self.pool_count)
            .map_err(ConfigError::StreamingWorkload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultModel, LifecycleModel, MachineOutage, ResiliencePolicy};
    use crate::policy::{InitialKind, StrategyKind};
    use crate::simulator::{SimConfig, VpmTopology};
    use netbatch_cluster::ids::{JobId, MachineId, PoolId};
    use netbatch_cluster::job::JobSpec;
    use netbatch_sim_engine::time::{SimDuration, SimTime};
    use netbatch_workload::scenarios::PerPoolParams;

    /// The streaming gate on a small pinned workload, with `edit` applied
    /// to an in-class config.
    fn streaming(edit: impl FnOnce(&mut SimConfig)) -> Result<(), ConfigError> {
        let p = PerPoolParams::new(4, 0.05, 60);
        let mut config = SimConfig::default();
        edit(&mut config);
        Simulator::new(&p.build_site(), Vec::new(), config).check_streaming(&p.build_workload())
    }

    fn minutes(m: u64) -> SimDuration {
        SimDuration::from_minutes(m)
    }

    #[test]
    fn the_fast_class_passes() {
        assert_eq!(streaming(|_| {}), Ok(()));
    }

    #[test]
    fn streaming_rejects_specs() {
        let p = PerPoolParams::new(4, 0.05, 60);
        let specs = vec![JobSpec::new(JobId(0), SimTime::ZERO, minutes(5))];
        let sim = Simulator::new(&p.build_site(), specs, SimConfig::default());
        assert_eq!(
            sim.check_streaming(&p.build_workload()),
            Err(ConfigError::StreamingSpecs)
        );
    }

    #[test]
    fn streaming_rejects_strategy() {
        let err = streaming(|c| c.strategy = StrategyKind::ResSusUtil);
        assert_eq!(err, Err(ConfigError::StreamingStrategy));
    }

    #[test]
    fn streaming_rejects_initial() {
        let err = streaming(|c| c.initial = InitialKind::UtilizationBased);
        assert_eq!(err, Err(ConfigError::StreamingInitial));
    }

    #[test]
    fn streaming_rejects_staleness() {
        let err = streaming(|c| c.view_staleness = minutes(30));
        assert_eq!(err, Err(ConfigError::StreamingStaleness));
    }

    #[test]
    fn streaming_rejects_topology() {
        let err = streaming(|c| c.topology = Some(VpmTopology::contiguous(4, 2).unwrap()));
        assert_eq!(err, Err(ConfigError::StreamingTopology));
    }

    #[test]
    fn streaming_rejects_restart_overhead() {
        let err = streaming(|c| c.restart_overhead = minutes(15));
        assert_eq!(err, Err(ConfigError::StreamingRestartOverhead));
    }

    #[test]
    fn streaming_rejects_max_restarts() {
        let err = streaming(|c| c.max_restarts = Some(3));
        assert_eq!(err, Err(ConfigError::StreamingMaxRestarts));
    }

    #[test]
    fn streaming_rejects_health_aware() {
        let err = streaming(|c| c.health_aware = true);
        assert_eq!(err, Err(ConfigError::StreamingHealthAware));
    }

    #[test]
    fn streaming_rejects_faults() {
        let outage = MachineOutage {
            pool: PoolId(0),
            machine: MachineId(0),
            from: SimTime::from_minutes(10),
            until: None,
        };
        let err = streaming(|c| c.failures = vec![outage]);
        assert_eq!(err, Err(ConfigError::StreamingFaults));
        let err = streaming(|c| {
            c.fault_model = Some(FaultModel::new(minutes(600), minutes(60), minutes(60)))
        });
        assert_eq!(err, Err(ConfigError::StreamingFaults));
    }

    #[test]
    fn streaming_rejects_lifecycle() {
        let err = streaming(|c| c.lifecycle = Some(LifecycleModel::standard(minutes(60))));
        assert_eq!(err, Err(ConfigError::StreamingLifecycle));
    }

    #[test]
    fn streaming_rejects_resilience() {
        let err = streaming(|c| c.resilience = ResiliencePolicy::hardened());
        assert_eq!(err, Err(ConfigError::StreamingResilience));
    }

    #[test]
    fn streaming_rejects_dense_id_observers() {
        let err = streaming(|c| c.check_invariants = true);
        assert_eq!(err, Err(ConfigError::StreamingObservers));
        let p = PerPoolParams::new(4, 0.05, 60);
        let mut sim = Simulator::new(&p.build_site(), Vec::new(), SimConfig::default());
        sim.attach_observer(Box::new(Telemetry::new("NoRes", "RoundRobin")));
        assert_eq!(
            sim.check_streaming(&p.build_workload()),
            Err(ConfigError::StreamingObservers)
        );
    }

    #[test]
    fn streaming_rejects_unpinned_workloads() {
        // Four pools' streams on a two-pool site: pools 2 and 3 are missing.
        let site = PerPoolParams::new(2, 0.05, 60).build_site();
        let workload = PerPoolParams::new(4, 0.05, 60).build_workload();
        let err = Simulator::new(&site, Vec::new(), SimConfig::default())
            .check_streaming(&workload)
            .unwrap_err();
        assert!(matches!(err, ConfigError::StreamingWorkload(_)), "{err:?}");
        assert!(err.to_string().contains("the site has 2 pools"), "{err}");
    }

    /// The streaming ledger: what the serial kernel runs and the streaming
    /// one refuses, one `Streaming*` row each, with the ROADMAP item that
    /// removes it. The match has no wildcard, so a new variant does not
    /// compile until it is filed here; a new row then breaks the ceiling.
    /// The ledger may only shrink: a kernel change that removes a row
    /// lowers the ceiling with it.
    #[test]
    fn streaming_ledger_only_shrinks() {
        use ConfigError::*;
        const CEILING: usize = 13;
        let owner = |e: &ConfigError| match e {
            StreamingStrategy
            | StreamingInitial
            | StreamingStaleness
            | StreamingRestartOverhead
            | StreamingMaxRestarts => Some(4),
            StreamingObservers => Some(3),
            StreamingWorkload(_) | StreamingSpecs => Some(9),
            StreamingFaults | StreamingLifecycle | StreamingResilience | StreamingHealthAware
            | StreamingTopology => Some(14),
            LifecycleHorizon
            | LifecycleMaintenanceDuration
            | LifecycleRollingFraction(_)
            | LifecycleRollingDuration
            | LifecycleCordonDuration
            | LifecycleProbeCount
            | LifecycleProbeFailure(_)
            | LifecycleFlakyFraction(_)
            | TopologyVpms { .. } => None,
        };
        let every = [
            StreamingSpecs,
            StreamingStrategy,
            StreamingInitial,
            StreamingStaleness,
            StreamingTopology,
            StreamingRestartOverhead,
            StreamingMaxRestarts,
            StreamingHealthAware,
            StreamingFaults,
            StreamingLifecycle,
            StreamingResilience,
            StreamingObservers,
            StreamingWorkload(String::new()),
            LifecycleHorizon,
            LifecycleMaintenanceDuration,
            LifecycleRollingFraction(0.0),
            LifecycleRollingDuration,
            LifecycleCordonDuration,
            LifecycleProbeCount,
            LifecycleProbeFailure(0.0),
            LifecycleFlakyFraction(0.0),
            TopologyVpms { vpms: 0, pools: 0 },
        ];
        let rows: Vec<_> = every.iter().filter(|e| owner(e).is_some()).collect();
        assert!(
            rows.iter()
                .all(|e| format!("{e:?}").starts_with("Streaming")),
            "only streaming rules are ledger rows: {rows:?}"
        );
        assert_eq!(
            rows.len(),
            CEILING,
            "the ledger may not grow, and a removed row lowers CEILING: {rows:?}"
        );
    }

    #[test]
    fn display_names_the_rule_and_the_value() {
        assert_eq!(
            ConfigError::StreamingMaxRestarts.to_string(),
            "streaming backend does not model restart limits"
        );
        assert_eq!(
            ConfigError::LifecycleRollingFraction(2.0).to_string(),
            "lifecycle rolling fraction must be in (0, 1], got 2"
        );
    }
}
