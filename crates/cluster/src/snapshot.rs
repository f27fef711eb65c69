//! Point-in-time views of pool and cluster state.
//!
//! Snapshots serve two consumers: the per-minute sampling that produces
//! Figure 4 (suspension count and utilization over time), and scheduling
//! policies (`ResSusUtil` et al.) that rank candidate pools by load.
//!
//! The policies' view is one long-lived [`ClusterSnapshot`] kept current
//! by [`ClusterSnapshot::refresh`]. Each [`PoolSnapshot`] records the
//! [`PhysicalPool::generation`] it was captured at, and a refresh
//! recaptures only the pools whose generation has moved since. Every pool
//! mutator bumps the generation, so an unmoved pool would capture to an
//! equal snapshot: the refreshed view is exactly what
//! [`ClusterSnapshot::capture`] would build, at the cost of one integer
//! compare per unchanged pool.

use std::fmt;

use crate::ids::PoolId;
use crate::pool::PhysicalPool;
use crate::priority::Priority;

/// A pool's load at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolSnapshot {
    /// Which pool.
    pub id: PoolId,
    /// Total cores in the pool.
    pub total_cores: u32,
    /// Nominal cores across all machines, up or down (static).
    pub nominal_cores: u32,
    /// Cores running jobs.
    pub busy_cores: u32,
    /// Jobs in the wait queue.
    pub waiting: usize,
    /// Suspended jobs resident on machines.
    pub suspended: usize,
    /// Running jobs.
    pub running: usize,
    /// Machines in the pool (healthy or not) — the denominator for
    /// down-machine ratios in telemetry and health reporting.
    pub machines: usize,
    /// Machines currently down (failed and not yet restored) — the pool's
    /// health signal for fault-aware policies and observers.
    pub down_machines: usize,
    /// Machines currently draining or cordoned (no new placements).
    pub draining_machines: usize,
    /// Health-weighted capacity of available (up, non-draining) machines
    /// in core-millis (`Σ cores · health_milli`) — the health-aware
    /// policies' effective-capacity signal.
    pub effective_cores_milli: u64,
    /// Lowest priority among running jobs (`None` when idle) — the pool's
    /// O(1) preemptibility signal: a job can only preempt here if its
    /// priority is strictly above this.
    pub lowest_running_priority: Option<Priority>,
    /// The pool's [`PhysicalPool::generation`] when this was captured.
    pub generation: u64,
}

impl PoolSnapshot {
    /// Captures a pool's current state.
    pub fn capture(pool: &PhysicalPool) -> Self {
        PoolSnapshot {
            id: pool.id(),
            total_cores: pool.total_cores(),
            nominal_cores: pool.nominal_cores(),
            busy_cores: pool.busy_cores(),
            waiting: pool.queue_len(),
            suspended: pool.suspended_count(),
            running: pool.running_count(),
            machines: pool.machine_count(),
            down_machines: pool.down_machine_count(),
            draining_machines: pool.draining_machine_count(),
            effective_cores_milli: pool.effective_cores_milli(),
            lowest_running_priority: pool.lowest_running_priority(),
            generation: pool.generation(),
        }
    }

    /// Core utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_cores == 0 {
            0.0
        } else {
            f64::from(self.busy_cores) / f64::from(self.total_cores)
        }
    }

    /// Health-weighted *effective* utilization: busy cores over the
    /// health-weighted available capacity. Exceeds plain utilization when
    /// machines are down, draining, or flaky, so health-aware policies
    /// see a drained pool as loaded even while its residents finish. A
    /// pool with no effective capacity reads as fully loaded.
    pub fn effective_utilization(&self) -> f64 {
        if self.effective_cores_milli == 0 {
            return if self.busy_cores > 0 {
                f64::INFINITY
            } else {
                1.0
            };
        }
        f64::from(self.busy_cores) * 1000.0 / self.effective_cores_milli as f64
    }

    /// Pool health in `[0, 1]`: health-weighted available capacity over
    /// nominal capacity (1.0 = every machine up, accepting work, fully
    /// healthy; 0.0 = nothing accepts work). The telemetry gauge and the
    /// health-aware selection weight.
    pub fn health(&self) -> f64 {
        if self.nominal_cores == 0 {
            return 0.0;
        }
        (self.effective_cores_milli as f64 / (f64::from(self.nominal_cores) * 1000.0)).min(1.0)
    }
}

impl From<&PhysicalPool> for PoolSnapshot {
    fn from(pool: &PhysicalPool) -> Self {
        PoolSnapshot::capture(pool)
    }
}

/// The whole site at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterSnapshot {
    /// Per-pool views, indexed by pool id.
    pub pools: Vec<PoolSnapshot>,
}

impl ClusterSnapshot {
    /// Captures every pool: the reference that
    /// [`ClusterSnapshot::refresh`] is checked against.
    pub fn capture<'a>(pools: impl IntoIterator<Item = &'a PhysicalPool>) -> Self {
        ClusterSnapshot {
            pools: pools.into_iter().map(PoolSnapshot::capture).collect(),
        }
    }

    /// Brings this snapshot up to date with `pools` in place: recaptures
    /// only the pools whose generation moved since they were captured, or
    /// every pool when the pool count differs (the first refresh of an
    /// empty snapshot). The snapshot must have been captured from these
    /// same pools; the result then equals [`ClusterSnapshot::capture`],
    /// which debug builds assert after every refresh.
    pub fn refresh(&mut self, pools: &[PhysicalPool]) {
        if self.pools.len() == pools.len() {
            for (snap, pool) in self.pools.iter_mut().zip(pools) {
                if snap.generation != pool.generation() {
                    *snap = PoolSnapshot::capture(pool);
                }
            }
        } else {
            self.pools.clear();
            self.pools.extend(pools.iter().map(PoolSnapshot::capture));
        }
        debug_assert!(
            *self == ClusterSnapshot::capture(pools),
            "incremental snapshot diverged from a full capture"
        );
    }

    /// Site-wide core utilization in `[0, 1]` (Figure 4's dotted line).
    pub fn utilization(&self) -> f64 {
        let total: u64 = self.pools.iter().map(|p| u64::from(p.total_cores)).sum();
        if total == 0 {
            return 0.0;
        }
        let busy: u64 = self.pools.iter().map(|p| u64::from(p.busy_cores)).sum();
        busy as f64 / total as f64
    }

    /// Site-wide suspended-job count (Figure 4's solid line).
    pub fn suspended_total(&self) -> usize {
        self.pools.iter().map(|p| p.suspended).sum()
    }

    /// Site-wide wait-queue length.
    pub fn waiting_total(&self) -> usize {
        self.pools.iter().map(|p| p.waiting).sum()
    }

    /// The pool with the lowest utilization among `candidates`; ties break
    /// to the lowest pool id for determinism. Returns `None` if the
    /// candidate list is empty.
    pub fn least_utilized(&self, candidates: &[PoolId]) -> Option<PoolId> {
        candidates
            .iter()
            .filter_map(|id| self.pools.get(id.as_usize()))
            .min_by(|a, b| {
                a.utilization()
                    .partial_cmp(&b.utilization())
                    .expect("utilization is never NaN")
                    .then(a.id.cmp(&b.id))
            })
            .map(|p| p.id)
    }

    /// The pool with the lowest *health-weighted effective* utilization
    /// among `candidates` — the health-aware variant of
    /// [`ClusterSnapshot::least_utilized`]: a pool that looks idle but is
    /// mostly draining or flaky ranks as loaded. Ties break to the lowest
    /// pool id.
    pub fn least_effectively_utilized(&self, candidates: &[PoolId]) -> Option<PoolId> {
        candidates
            .iter()
            .filter_map(|id| self.pools.get(id.as_usize()))
            .min_by(|a, b| {
                a.effective_utilization()
                    .partial_cmp(&b.effective_utilization())
                    .expect("effective utilization is never NaN")
                    .then(a.id.cmp(&b.id))
            })
            .map(|p| p.id)
    }

    /// The candidate pool with the shortest wait queue (extension policy
    /// `ResSusQueue`); ties break to the lowest pool id.
    pub fn shortest_queue(&self, candidates: &[PoolId]) -> Option<PoolId> {
        candidates
            .iter()
            .filter_map(|id| self.pools.get(id.as_usize()))
            .min_by(|a, b| a.waiting.cmp(&b.waiting).then(a.id.cmp(&b.id)))
            .map(|p| p.id)
    }
}

impl fmt::Display for ClusterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "util {:.1}% | suspended {} | waiting {}",
            self.utilization() * 100.0,
            self.suspended_total(),
            self.waiting_total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::pool::PoolConfig;
    use netbatch_sim_engine::time::{SimDuration, SimTime};

    fn snap(stats: &[(u32, u32, usize)]) -> ClusterSnapshot {
        ClusterSnapshot {
            pools: stats
                .iter()
                .enumerate()
                .map(|(i, &(total, busy, waiting))| PoolSnapshot {
                    id: PoolId(i as u16),
                    total_cores: total,
                    nominal_cores: total,
                    busy_cores: busy,
                    waiting,
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

    #[test]
    fn aggregate_utilization_weights_by_cores() {
        let s = snap(&[(100, 100, 0), (300, 0, 0)]);
        assert!((s.utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn least_utilized_picks_minimum_with_deterministic_ties() {
        let s = snap(&[(10, 5, 0), (10, 2, 0), (10, 2, 0), (10, 9, 0)]);
        let all: Vec<PoolId> = (0..4).map(PoolId).collect();
        assert_eq!(s.least_utilized(&all), Some(PoolId(1)));
        // Restricting candidates respects the restriction.
        assert_eq!(s.least_utilized(&[PoolId(0), PoolId(3)]), Some(PoolId(0)));
        assert_eq!(s.least_utilized(&[]), None);
    }

    #[test]
    fn effective_utilization_ranks_drained_pools_as_loaded() {
        let mut s = snap(&[(10, 2, 0), (10, 3, 0)]);
        // Pool 0 is less utilized on paper, but most of its capacity is
        // draining/unhealthy: effective utilization flips the ranking.
        s.pools[0].effective_cores_milli = 4000;
        let all: Vec<PoolId> = (0..2).map(PoolId).collect();
        assert_eq!(s.least_utilized(&all), Some(PoolId(0)));
        assert_eq!(s.least_effectively_utilized(&all), Some(PoolId(1)));
        assert!((s.pools[0].health() - 0.4).abs() < 1e-9);
        assert!((s.pools[0].effective_utilization() - 0.5).abs() < 1e-9);
        // A pool with no effective capacity reads fully loaded, or
        // infinitely loaded while residents still run.
        s.pools[0].effective_cores_milli = 0;
        assert_eq!(s.pools[0].effective_utilization(), f64::INFINITY);
        s.pools[0].busy_cores = 0;
        assert!((s.pools[0].effective_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shortest_queue_policy() {
        let s = snap(&[(10, 0, 7), (10, 0, 3), (10, 0, 3)]);
        let all: Vec<PoolId> = (0..3).map(PoolId).collect();
        assert_eq!(s.shortest_queue(&all), Some(PoolId(1)));
    }

    #[test]
    fn capture_reflects_live_pool() {
        let mut pool = crate::pool::PhysicalPool::new(PoolConfig::uniform(PoolId(3), 2, 2, 4096));
        pool.submit_into(
            SimTime::ZERO,
            &JobSpec::new(1.into(), SimTime::ZERO, SimDuration::from_minutes(5)),
            &mut Vec::new(),
        );
        let s = PoolSnapshot::capture(&pool);
        assert_eq!(s.id, PoolId(3));
        assert_eq!(s.busy_cores, 1);
        assert_eq!(s.running, 1);
        assert_eq!(s.machines, 2);
        assert_eq!(s.down_machines, 0);
        assert!((s.utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_cluster_is_zeroed() {
        let s = ClusterSnapshot::default();
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.suspended_total(), 0);
        assert!(!s.to_string().is_empty());
    }
}
