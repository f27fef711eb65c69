//! Initial schedulers: how the virtual pool manager picks the pool a newly
//! submitted job is sent to (§3.2.1 of the paper).
//!
//! The scheduler produces a *preference order* over the job's candidate
//! pools; the VPM tries them in order and the job lands in the first pool
//! with any eligible machine (pools with none bounce it back).

use netbatch_cluster::ids::PoolId;
use netbatch_cluster::job::JobSpec;
use netbatch_cluster::snapshot::ClusterSnapshot;

/// A virtual-pool-manager scheduling discipline.
pub trait InitialScheduler: std::fmt::Debug + Send {
    /// Human-readable name (appears in reports).
    fn name(&self) -> &'static str;

    /// Orders the candidate pools for one job into `out` (cleared first),
    /// most preferred first.
    ///
    /// `candidates` is the job's affinity-filtered pool set; `view` is the
    /// current cluster snapshot. Writing into a caller-owned buffer keeps
    /// the per-job dispatch path allocation-free — the simulator hands in
    /// the same scratch `Vec` for every routing decision.
    fn order_into(
        &mut self,
        job: &JobSpec,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        out: &mut Vec<PoolId>,
    );

    /// Allocating convenience wrapper over
    /// [`InitialScheduler::order_into`].
    fn order(
        &mut self,
        job: &JobSpec,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
    ) -> Vec<PoolId> {
        let mut out = Vec::with_capacity(candidates.len());
        self.order_into(job, candidates, view, &mut out);
        out
    }

    /// Switches the scheduler into health-aware mode: pool ordering
    /// weights candidates by pool health (effective capacity). Default:
    /// no-op — round-robin is a pure cursor and stays health-blind (the
    /// streaming kernel's fast class depends on it consulting no pool
    /// state).
    fn set_health_aware(&mut self, _aware: bool) {}

    /// Whether this is [`RoundRobin`], for the streaming backend's
    /// fast-class check and the serial kernel's view refresh: round-robin
    /// is the one scheduler whose choice can be computed without the
    /// cluster view (it is a pure cursor rotation).
    #[doc(hidden)]
    fn is_round_robin(&self) -> bool {
        false
    }
}

/// NetBatch's default: distribute jobs across candidate pools in sequential
/// order, advancing one position per job.
///
/// "The virtual pool managers also need not maintain any statistics of
/// their physical pools" — the whole state is one cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at the first pool.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl InitialScheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn order_into(
        &mut self,
        _job: &JobSpec,
        candidates: &[PoolId],
        _view: &ClusterSnapshot,
        out: &mut Vec<PoolId>,
    ) {
        out.clear();
        if candidates.is_empty() {
            return;
        }
        let start = self.cursor % candidates.len();
        self.cursor = self.cursor.wrapping_add(1);
        out.extend_from_slice(&candidates[start..]);
        out.extend_from_slice(&candidates[..start]);
    }

    fn is_round_robin(&self) -> bool {
        true
    }
}

/// The §3.2.2 alternative: send each job to the candidate pool with the
/// lowest current utilization (ties to the lowest pool id), then the rest
/// in increasing-utilization order.
///
/// The paper notes this "requires the virtual pool manager to know the
/// current situation in every physical pool at any time, which can be
/// impractical" — the information-staleness ablation quantifies that cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UtilizationBased {
    health_aware: bool,
}

impl UtilizationBased {
    /// Creates a utilization-based scheduler.
    pub fn new() -> Self {
        UtilizationBased::default()
    }
}

impl InitialScheduler for UtilizationBased {
    fn name(&self) -> &'static str {
        "utilization-based"
    }

    fn order_into(
        &mut self,
        _job: &JobSpec,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        out: &mut Vec<PoolId>,
    ) {
        out.clear();
        out.extend_from_slice(candidates);
        let aware = self.health_aware;
        let util = |id: &PoolId| {
            view.pools.get(id.as_usize()).map_or(0.0, |p| {
                if aware {
                    p.effective_utilization()
                } else {
                    p.utilization()
                }
            })
        };
        out.sort_by(|a, b| {
            util(a)
                .partial_cmp(&util(b))
                .expect("utilization is never NaN")
                .then(a.cmp(b))
        });
    }

    fn set_health_aware(&mut self, aware: bool) {
        self.health_aware = aware;
    }
}

/// Which initial scheduler to instantiate — the serializable experiment
/// configuration handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialKind {
    /// NetBatch's default round-robin.
    #[default]
    RoundRobin,
    /// Lowest-utilization-first.
    UtilizationBased,
}

impl InitialKind {
    /// Instantiates the scheduler.
    pub fn build(self) -> Box<dyn InitialScheduler> {
        match self {
            InitialKind::RoundRobin => Box::new(RoundRobin::new()),
            InitialKind::UtilizationBased => Box::new(UtilizationBased::new()),
        }
    }

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            InitialKind::RoundRobin => "round-robin",
            InitialKind::UtilizationBased => "utilization-based",
        }
    }
}

impl std::fmt::Display for InitialKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::snapshot::PoolSnapshot;
    use netbatch_sim_engine::time::{SimDuration, SimTime};

    fn job() -> JobSpec {
        JobSpec::new(1.into(), SimTime::ZERO, SimDuration::from_minutes(10))
    }

    fn view(utils: &[(u32, u32)]) -> ClusterSnapshot {
        ClusterSnapshot {
            pools: utils
                .iter()
                .enumerate()
                .map(|(i, &(total, busy))| PoolSnapshot {
                    id: PoolId(i as u16),
                    total_cores: total,
                    nominal_cores: total,
                    busy_cores: busy,
                    waiting: 0,
                    suspended: 0,
                    running: 0,
                    machines: 0,
                    down_machines: 0,
                    draining_machines: 0,
                    effective_cores_milli: u64::from(total) * 1000,
                    lowest_running_priority: None,
                    generation: 0,
                })
                .collect(),
        }
    }

    fn pools(n: u16) -> Vec<PoolId> {
        (0..n).map(PoolId).collect()
    }

    #[test]
    fn round_robin_rotates_across_jobs() {
        let mut rr = RoundRobin::new();
        let v = view(&[(1, 0); 3]);
        let c = pools(3);
        assert_eq!(rr.order(&job(), &c, &v)[0], PoolId(0));
        assert_eq!(rr.order(&job(), &c, &v)[0], PoolId(1));
        assert_eq!(rr.order(&job(), &c, &v)[0], PoolId(2));
        assert_eq!(rr.order(&job(), &c, &v)[0], PoolId(0));
    }

    #[test]
    fn round_robin_order_is_a_rotation() {
        let mut rr = RoundRobin::new();
        let v = view(&[(1, 0); 4]);
        rr.order(&job(), &pools(4), &v);
        let second = rr.order(&job(), &pools(4), &v);
        assert_eq!(second, vec![PoolId(1), PoolId(2), PoolId(3), PoolId(0)]);
    }

    #[test]
    fn round_robin_handles_empty_candidates() {
        let mut rr = RoundRobin::new();
        assert!(rr.order(&job(), &[], &view(&[])).is_empty());
    }

    #[test]
    fn utilization_based_prefers_least_loaded() {
        let mut ub = UtilizationBased::new();
        let v = view(&[(10, 9), (10, 1), (10, 5)]);
        let order = ub.order(&job(), &pools(3), &v);
        assert_eq!(order, vec![PoolId(1), PoolId(2), PoolId(0)]);
    }

    #[test]
    fn utilization_based_ties_break_by_id() {
        let mut ub = UtilizationBased::new();
        let v = view(&[(10, 5), (10, 5), (10, 5)]);
        let order = ub.order(&job(), &pools(3), &v);
        assert_eq!(order, pools(3));
    }

    #[test]
    fn utilization_based_respects_candidate_filter() {
        let mut ub = UtilizationBased::new();
        let v = view(&[(10, 0), (10, 9), (10, 5)]);
        let order = ub.order(&job(), &[PoolId(1), PoolId(2)], &v);
        assert_eq!(order, vec![PoolId(2), PoolId(1)]);
    }

    #[test]
    fn kind_builds_matching_scheduler() {
        assert_eq!(InitialKind::RoundRobin.build().name(), "round-robin");
        assert_eq!(
            InitialKind::UtilizationBased.build().name(),
            "utilization-based"
        );
        assert_eq!(InitialKind::RoundRobin.to_string(), "round-robin");
    }
}
