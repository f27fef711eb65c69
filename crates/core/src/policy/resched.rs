//! Dynamic rescheduling strategies — the paper's §3 contribution.
//!
//! A [`ReschedPolicy`] is consulted at two hook points:
//!
//! * **on suspension** — a running job was just preempted. The policy may
//!   restart it (from scratch) in an alternate pool, or leave it suspended
//!   in place to resume later (`NoRes`'s only behaviour).
//! * **on wait timeout** — a job has sat in a pool's wait queue past the
//!   policy's threshold. The policy may pull it out and resubmit it to an
//!   alternate pool; the timer then re-arms, giving the job "multiple
//!   second chances" (§3.3).
//!
//! The five paper strategies (`NoRes`, `ResSusUtil`, `ResSusRand`,
//! `ResSusWaitUtil`, `ResSusWaitRand`) plus the queue-length extension are
//! all compositions of two choices: *which jobs* to reschedule (suspended
//! only, or suspended + waiting) and *how to pick the alternate pool*
//! (lowest utilization, uniformly random, shortest queue).

use netbatch_cluster::ids::PoolId;
use netbatch_cluster::job::JobSpec;
use netbatch_cluster::snapshot::ClusterSnapshot;
use netbatch_sim_engine::rng::DetRng;
use netbatch_sim_engine::time::SimDuration;

/// How an alternate pool is selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolSelector {
    /// The candidate pool with the lowest current utilization. If no
    /// candidate is *strictly* less utilized than the current pool, the job
    /// stays — "ensuring that rescheduling will not negatively impact
    /// system performance" (§3.2.1, high-load discussion).
    LowestUtilization,
    /// A uniformly random candidate other than the current pool.
    Random,
    /// The candidate pool with the shortest wait queue (extension policy:
    /// the signal the paper's ResSusRand analysis suggests matters most).
    ShortestQueue,
}

impl PoolSelector {
    /// Picks the alternate pool, or `None` to keep the job where it is.
    pub fn select(
        self,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
    ) -> Option<PoolId> {
        self.select_aware(current, candidates, view, rng, false)
    }

    /// [`PoolSelector::select`] with an optional health-aware mode: when
    /// `health_aware` is set, candidates are weighted by pool health —
    /// utilization comparisons use the health-weighted *effective*
    /// capacity (a half-drained pool ranks as loaded even while its
    /// residents finish) and the random selector draws candidates in
    /// proportion to their health instead of uniformly.
    pub fn select_aware(
        self,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
        health_aware: bool,
    ) -> Option<PoolId> {
        match self {
            PoolSelector::LowestUtilization => {
                let (target, cur_util, tgt_util) = if health_aware {
                    let target = view.least_effectively_utilized(candidates)?;
                    (
                        target,
                        view.pools.get(current.as_usize())?.effective_utilization(),
                        view.pools.get(target.as_usize())?.effective_utilization(),
                    )
                } else {
                    let target = view.least_utilized(candidates)?;
                    (
                        target,
                        view.pools.get(current.as_usize())?.utilization(),
                        view.pools.get(target.as_usize())?.utilization(),
                    )
                };
                if target == current {
                    return None;
                }
                (tgt_util < cur_util).then_some(target)
            }
            PoolSelector::Random if health_aware => {
                // Health-weighted draw: each non-current candidate gets a
                // per-mille weight from its pool health (floored at 1 so a
                // fully drained pool stays selectable rather than turning
                // the draw into a division by zero).
                let weight = |p: PoolId| {
                    view.pools
                        .get(p.as_usize())
                        .map_or(1u64, |s| ((s.health() * 1000.0) as u64).max(1))
                };
                let others = candidates.iter().copied().filter(|&p| p != current);
                let total: u64 = others.clone().map(weight).sum();
                if total == 0 {
                    return None;
                }
                let mut draw = rng.next_below(total);
                others.clone().find(|&p| {
                    let w = weight(p);
                    if draw < w {
                        true
                    } else {
                        draw -= w;
                        false
                    }
                })
            }
            PoolSelector::Random => {
                // Count-then-index instead of collecting the non-current
                // candidates into a per-pick Vec: this was the ResSusRand
                // hot-path outlier in the dispatch benchmark (one
                // allocation per random pick). One `next_below(n)` draw over
                // the same n as before, so the RNG stream and the chosen pool
                // are byte-identical to the collecting implementation.
                let n = candidates.iter().filter(|&&p| p != current).count();
                if n == 0 {
                    None
                } else {
                    let k = rng.next_below(n as u64) as usize;
                    candidates.iter().copied().filter(|&p| p != current).nth(k)
                }
            }
            PoolSelector::ShortestQueue => {
                let target = view.shortest_queue(candidates)?;
                if target == current {
                    return None;
                }
                let cur_q = view.pools.get(current.as_usize())?.waiting;
                let tgt = view.pools.get(target.as_usize())?;
                let headroom = if health_aware {
                    tgt.effective_utilization() < 1.0
                } else {
                    tgt.utilization() < 1.0
                };
                (tgt.waiting < cur_q || headroom).then_some(target)
            }
        }
    }
}

/// The ranking inputs a policy saw for `pool` at decision time, as
/// recorded in [`PolicyAudit`](crate::observer::ObsEvent::PolicyAudit):
/// utilization in thousandths and wait-queue length. `health_aware` picks
/// the same utilization flavour the selectors compare (effective capacity
/// vs raw); an infinite effective utilization (busy cores on a fully
/// drained pool) saturates to `u32::MAX`.
pub fn audit_inputs(view: &ClusterSnapshot, pool: PoolId, health_aware: bool) -> (u32, u32) {
    let Some(snap) = view.pools.get(pool.as_usize()) else {
        return (0, 0);
    };
    let util = if health_aware {
        snap.effective_utilization()
    } else {
        snap.utilization()
    };
    let milli = if util.is_finite() {
        (util * 1000.0).round().min(u32::MAX as f64) as u32
    } else {
        u32::MAX
    };
    (milli, snap.waiting.min(u32::MAX as usize) as u32)
}

/// What to do with a freshly suspended job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Leave it suspended in place to resume later (`NoRes` behaviour).
    Stay,
    /// Abandon its progress and restart it from scratch at the pool —
    /// the paper's rescheduling strategies.
    Restart(PoolId),
    /// Move it to the pool *keeping its progress*, paying a migration
    /// delay and a virtualization slowdown (the Condor/VMware alternative
    /// §2.3 discusses; extension).
    Migrate(PoolId),
    /// Leave it suspended AND launch a duplicate at the pool; first copy
    /// to finish wins (the paper's §5 future-work "job duplication";
    /// extension).
    Duplicate(PoolId),
}

/// A dynamic rescheduling strategy.
pub trait ReschedPolicy: std::fmt::Debug + Send {
    /// Name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Called right after `job` is suspended in `current`.
    fn on_suspended(
        &mut self,
        job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
    ) -> Decision;

    /// The waiting-time threshold after which queued jobs are considered
    /// for rescheduling; `None` disables wait rescheduling entirely.
    fn wait_threshold(&self) -> Option<SimDuration> {
        None
    }

    /// Called when `job` has waited in `current`'s queue past the
    /// threshold. Returning `Some(pool)` dequeues and resubmits it there.
    fn on_waiting(
        &mut self,
        _job: &JobSpec,
        _current: PoolId,
        _candidates: &[PoolId],
        _view: &ClusterSnapshot,
        _rng: &mut DetRng,
    ) -> Option<PoolId> {
        None
    }

    /// Switches the policy into health-aware mode: alternate-pool
    /// selection weights candidates by pool health (effective capacity)
    /// instead of raw utilization. Default: no-op — `NoRes` never picks
    /// targets, and policies that ignore health simply stay health-blind.
    fn set_health_aware(&mut self, _aware: bool) {}

    /// Whether this policy is the `NoRes` baseline: every suspension
    /// decision is `Stay`, no RNG is drawn, and the cluster view is never
    /// consulted. The streaming backend requires this to prove pool-local
    /// events have no cross-pool effects; any policy that cannot make
    /// that promise must leave the default `false`.
    #[doc(hidden)]
    fn is_no_res(&self) -> bool {
        false
    }
}

/// The baseline: never reschedule; suspended jobs wait in place to resume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoRes;

impl ReschedPolicy for NoRes {
    fn name(&self) -> &'static str {
        "NoRes"
    }

    fn on_suspended(
        &mut self,
        _job: &JobSpec,
        _current: PoolId,
        _candidates: &[PoolId],
        _view: &ClusterSnapshot,
        _rng: &mut DetRng,
    ) -> Decision {
        Decision::Stay
    }

    fn is_no_res(&self) -> bool {
        true
    }
}

/// Reschedules suspended jobs using a pool selector (§3.2:
/// `ResSusUtil` / `ResSusRand`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResSus {
    selector: PoolSelector,
    health_aware: bool,
}

impl ResSus {
    /// `ResSusUtil`: restart suspended jobs at the least-utilized pool.
    pub fn util() -> Self {
        ResSus {
            selector: PoolSelector::LowestUtilization,
            health_aware: false,
        }
    }

    /// `ResSusRand`: restart suspended jobs at a random alternate pool.
    pub fn random() -> Self {
        ResSus {
            selector: PoolSelector::Random,
            health_aware: false,
        }
    }

    /// Extension: restart suspended jobs at the shortest-queue pool.
    pub fn queue() -> Self {
        ResSus {
            selector: PoolSelector::ShortestQueue,
            health_aware: false,
        }
    }
}

impl ReschedPolicy for ResSus {
    fn name(&self) -> &'static str {
        match self.selector {
            PoolSelector::LowestUtilization => "ResSusUtil",
            PoolSelector::Random => "ResSusRand",
            PoolSelector::ShortestQueue => "ResSusQueue",
        }
    }

    fn on_suspended(
        &mut self,
        _job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
    ) -> Decision {
        match self
            .selector
            .select_aware(current, candidates, view, rng, self.health_aware)
        {
            Some(pool) => Decision::Restart(pool),
            None => Decision::Stay,
        }
    }

    fn set_health_aware(&mut self, aware: bool) {
        self.health_aware = aware;
    }
}

/// Reschedules both suspended jobs and jobs stuck in wait queues past a
/// threshold (§3.3: `ResSusWaitUtil` / `ResSusWaitRand`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResSusWait {
    selector: PoolSelector,
    threshold: SimDuration,
    health_aware: bool,
}

/// The paper's wait threshold: 30 minutes, "about twice the expected
/// average waiting time in the original system".
pub const PAPER_WAIT_THRESHOLD: SimDuration = SimDuration::from_minutes(30);

impl ResSusWait {
    /// `ResSusWaitUtil` with the paper's 30-minute threshold.
    pub fn util() -> Self {
        ResSusWait {
            selector: PoolSelector::LowestUtilization,
            threshold: PAPER_WAIT_THRESHOLD,
            health_aware: false,
        }
    }

    /// `ResSusWaitRand` with the paper's 30-minute threshold.
    pub fn random() -> Self {
        ResSusWait {
            selector: PoolSelector::Random,
            threshold: PAPER_WAIT_THRESHOLD,
            health_aware: false,
        }
    }
}

impl ReschedPolicy for ResSusWait {
    fn name(&self) -> &'static str {
        match self.selector {
            PoolSelector::LowestUtilization => "ResSusWaitUtil",
            PoolSelector::Random => "ResSusWaitRand",
            PoolSelector::ShortestQueue => "ResSusWaitQueue",
        }
    }

    fn on_suspended(
        &mut self,
        _job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
    ) -> Decision {
        match self
            .selector
            .select_aware(current, candidates, view, rng, self.health_aware)
        {
            Some(pool) => Decision::Restart(pool),
            None => Decision::Stay,
        }
    }

    fn wait_threshold(&self) -> Option<SimDuration> {
        Some(self.threshold)
    }

    fn on_waiting(
        &mut self,
        _job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
    ) -> Option<PoolId> {
        self.selector
            .select_aware(current, candidates, view, rng, self.health_aware)
    }

    fn set_health_aware(&mut self, aware: bool) {
        self.health_aware = aware;
    }
}

/// Migration-based rescheduling (extension): move suspended jobs to the
/// least-utilized pool *keeping their progress*, at the cost of a transfer
/// delay and a virtualization slowdown. This is the checkpoint/VM
/// alternative the paper's §2.3 weighs against restarting ("running chip
/// simulation workloads on virtualized hosts often lead to performance
/// overhead between 10% to 20%").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateSus {
    selector: PoolSelector,
    health_aware: bool,
}

impl MigrateSus {
    /// Migrate suspended jobs to the least-utilized pool.
    pub fn util() -> Self {
        MigrateSus {
            selector: PoolSelector::LowestUtilization,
            health_aware: false,
        }
    }
}

impl ReschedPolicy for MigrateSus {
    fn name(&self) -> &'static str {
        "MigrateSusUtil"
    }

    fn on_suspended(
        &mut self,
        _job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
    ) -> Decision {
        match self
            .selector
            .select_aware(current, candidates, view, rng, self.health_aware)
        {
            Some(pool) => Decision::Migrate(pool),
            None => Decision::Stay,
        }
    }

    fn set_health_aware(&mut self, aware: bool) {
        self.health_aware = aware;
    }
}

/// Duplication-based rescheduling (extension; the paper's §5 future work
/// on "job duplication techniques" and the redundant-execution related
/// work): leave the suspended job in place *and* launch a clone at the
/// least-utilized pool; the first copy to finish wins and the other is
/// cancelled. Never loses progress, but burns redundant capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DupSus {
    selector: PoolSelector,
    health_aware: bool,
}

impl DupSus {
    /// Duplicate suspended jobs into the least-utilized pool.
    pub fn util() -> Self {
        DupSus {
            selector: PoolSelector::LowestUtilization,
            health_aware: false,
        }
    }
}

impl ReschedPolicy for DupSus {
    fn name(&self) -> &'static str {
        "DupSusUtil"
    }

    fn on_suspended(
        &mut self,
        _job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
    ) -> Decision {
        match self
            .selector
            .select_aware(current, candidates, view, rng, self.health_aware)
        {
            Some(pool) => Decision::Duplicate(pool),
            None => Decision::Stay,
        }
    }

    fn set_health_aware(&mut self, aware: bool) {
        self.health_aware = aware;
    }
}

/// Multi-metric pool scoring (extension; the paper's §5 future work:
/// "the use of multiple metrics (e.g., utilization, queue lengths,
/// prediction of job completion times within a pool) in combination for
/// making rescheduling decisions").
///
/// Each candidate pool gets a score (lower is better):
///
/// ```text
/// score = w_util  × utilization
///       + w_queue × (waiting jobs / total cores)
///       + w_wait  × (waiting jobs / free cores)   // crude wait predictor
/// ```
///
/// The third term approximates the expected queueing delay: how many
/// waiting jobs compete for each currently free core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartWeights {
    /// Weight of current utilization.
    pub w_util: f64,
    /// Weight of queue length (normalized by pool size).
    pub w_queue: f64,
    /// Weight of the expected-wait predictor.
    pub w_wait: f64,
}

impl Default for SmartWeights {
    fn default() -> Self {
        SmartWeights {
            w_util: 1.0,
            w_queue: 2.0,
            w_wait: 1.0,
        }
    }
}

impl SmartWeights {
    /// Scores one pool; lower is better.
    pub fn score(&self, pool: &netbatch_cluster::snapshot::PoolSnapshot) -> f64 {
        let total = f64::from(pool.total_cores.max(1));
        let free = f64::from((pool.total_cores - pool.busy_cores).max(1));
        self.w_util * pool.utilization()
            + self.w_queue * (pool.waiting as f64 / total)
            + self.w_wait * (pool.waiting as f64 / free)
    }

    /// Health-aware variant of [`SmartWeights::score`]: the same three
    /// terms over the health-weighted *effective* capacity, so a draining
    /// or flaky pool scores as loaded. The utilization term is capped to
    /// keep zero-weight products finite (`0 × ∞` is NaN).
    pub fn score_aware(
        &self,
        pool: &netbatch_cluster::snapshot::PoolSnapshot,
        health_aware: bool,
    ) -> f64 {
        if !health_aware {
            return self.score(pool);
        }
        let eff = pool.effective_cores_milli as f64 / 1000.0;
        let total = eff.max(1.0);
        let free = (eff - f64::from(pool.busy_cores)).max(1.0);
        self.w_util * pool.effective_utilization().min(1e6)
            + self.w_queue * (pool.waiting as f64 / total)
            + self.w_wait * (pool.waiting as f64 / free)
    }

    /// The best-scoring candidate, or `None` if the current pool already
    /// scores no worse than every alternative.
    pub fn select(
        &self,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
    ) -> Option<PoolId> {
        self.select_aware(current, candidates, view, false)
    }

    /// [`SmartWeights::select`] scoring with [`SmartWeights::score_aware`].
    pub fn select_aware(
        &self,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        health_aware: bool,
    ) -> Option<PoolId> {
        let best = candidates
            .iter()
            .filter_map(|id| view.pools.get(id.as_usize()))
            .min_by(|a, b| {
                self.score_aware(a, health_aware)
                    .partial_cmp(&self.score_aware(b, health_aware))
                    .expect("scores are finite")
                    .then(a.id.cmp(&b.id))
            })?;
        if best.id == current {
            return None;
        }
        let cur = view.pools.get(current.as_usize())?;
        (self.score_aware(best, health_aware) < self.score_aware(cur, health_aware))
            .then_some(best.id)
    }
}

/// Smart (multi-metric) rescheduling of suspended and waiting jobs —
/// the future-work composite policy, comparable against
/// `ResSusWaitUtil`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResSusWaitSmart {
    weights: SmartWeights,
    threshold: SimDuration,
    health_aware: bool,
}

impl ResSusWaitSmart {
    /// Default weights, paper threshold (30 minutes).
    pub fn new() -> Self {
        ResSusWaitSmart {
            weights: SmartWeights::default(),
            threshold: PAPER_WAIT_THRESHOLD,
            health_aware: false,
        }
    }

    /// Overrides the scoring weights.
    pub fn with_weights(mut self, weights: SmartWeights) -> Self {
        self.weights = weights;
        self
    }
}

impl Default for ResSusWaitSmart {
    fn default() -> Self {
        ResSusWaitSmart::new()
    }
}

impl ReschedPolicy for ResSusWaitSmart {
    fn name(&self) -> &'static str {
        "ResSusWaitSmart"
    }

    fn on_suspended(
        &mut self,
        _job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        _rng: &mut DetRng,
    ) -> Decision {
        match self
            .weights
            .select_aware(current, candidates, view, self.health_aware)
        {
            Some(pool) => Decision::Restart(pool),
            None => Decision::Stay,
        }
    }

    fn wait_threshold(&self) -> Option<SimDuration> {
        Some(self.threshold)
    }

    fn on_waiting(
        &mut self,
        _job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        _rng: &mut DetRng,
    ) -> Option<PoolId> {
        self.weights
            .select_aware(current, candidates, view, self.health_aware)
    }

    fn set_health_aware(&mut self, aware: bool) {
        self.health_aware = aware;
    }
}

/// Which rescheduling strategy to instantiate — the serializable experiment
/// configuration handle covering the paper's five strategies plus
/// extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// Baseline: no rescheduling.
    #[default]
    NoRes,
    /// Restart suspended jobs at the least-utilized pool.
    ResSusUtil,
    /// Restart suspended jobs at a random pool.
    ResSusRand,
    /// Also reschedule waiting jobs (lowest utilization).
    ResSusWaitUtil,
    /// Also reschedule waiting jobs (random pool).
    ResSusWaitRand,
    /// Extension: restart suspended jobs at the shortest-queue pool.
    ResSusQueue,
    /// Extension: *migrate* suspended jobs (progress kept, overhead paid).
    MigrateSusUtil,
    /// Extension: *duplicate* suspended jobs (first finisher wins).
    DupSusUtil,
    /// Extension: multi-metric (utilization + queue + predicted wait)
    /// rescheduling of suspended and waiting jobs.
    ResSusWaitSmart,
}

impl StrategyKind {
    /// All strategies evaluated in the paper, in table order.
    pub const PAPER_SUSPEND_ONLY: [StrategyKind; 3] = [
        StrategyKind::NoRes,
        StrategyKind::ResSusUtil,
        StrategyKind::ResSusRand,
    ];

    /// The §3.3 combined strategies, in table order.
    pub const PAPER_WITH_WAIT: [StrategyKind; 3] = [
        StrategyKind::NoRes,
        StrategyKind::ResSusWaitUtil,
        StrategyKind::ResSusWaitRand,
    ];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn ReschedPolicy> {
        match self {
            StrategyKind::NoRes => Box::new(NoRes),
            StrategyKind::ResSusUtil => Box::new(ResSus::util()),
            StrategyKind::ResSusRand => Box::new(ResSus::random()),
            StrategyKind::ResSusWaitUtil => Box::new(ResSusWait::util()),
            StrategyKind::ResSusWaitRand => Box::new(ResSusWait::random()),
            StrategyKind::ResSusQueue => Box::new(ResSus::queue()),
            StrategyKind::MigrateSusUtil => Box::new(MigrateSus::util()),
            StrategyKind::DupSusUtil => Box::new(DupSus::util()),
            StrategyKind::ResSusWaitSmart => Box::new(ResSusWaitSmart::new()),
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::NoRes => "NoRes",
            StrategyKind::ResSusUtil => "ResSusUtil",
            StrategyKind::ResSusRand => "ResSusRand",
            StrategyKind::ResSusWaitUtil => "ResSusWaitUtil",
            StrategyKind::ResSusWaitRand => "ResSusWaitRand",
            StrategyKind::ResSusQueue => "ResSusQueue",
            StrategyKind::MigrateSusUtil => "MigrateSusUtil",
            StrategyKind::DupSusUtil => "DupSusUtil",
            StrategyKind::ResSusWaitSmart => "ResSusWaitSmart",
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::snapshot::PoolSnapshot;
    use netbatch_sim_engine::time::SimTime;

    fn job() -> JobSpec {
        JobSpec::new(1.into(), SimTime::ZERO, SimDuration::from_minutes(10))
    }

    fn view(stats: &[(u32, u32, usize)]) -> ClusterSnapshot {
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

    fn pools(n: u16) -> Vec<PoolId> {
        (0..n).map(PoolId).collect()
    }

    #[test]
    fn nores_never_moves() {
        let mut p = NoRes;
        let v = view(&[(10, 10, 0), (10, 0, 0)]);
        let mut rng = DetRng::from_seed_u64(0);
        assert_eq!(
            p.on_suspended(&job(), PoolId(0), &pools(2), &v, &mut rng),
            Decision::Stay
        );
        assert_eq!(p.wait_threshold(), None);
        assert_eq!(p.name(), "NoRes");
    }

    #[test]
    fn res_sus_util_moves_to_least_utilized() {
        let mut p = ResSus::util();
        let v = view(&[(10, 9, 0), (10, 2, 0), (10, 5, 0)]);
        let mut rng = DetRng::from_seed_u64(0);
        assert_eq!(
            p.on_suspended(&job(), PoolId(0), &pools(3), &v, &mut rng),
            Decision::Restart(PoolId(1))
        );
    }

    #[test]
    fn res_sus_util_stays_when_current_is_least_utilized() {
        // "If all alternate pools are even more utilized than the current
        // pool, ResSusUtil will simply retain the suspended job."
        let mut p = ResSus::util();
        let v = view(&[(10, 2, 0), (10, 5, 0), (10, 9, 0)]);
        let mut rng = DetRng::from_seed_u64(0);
        assert_eq!(
            p.on_suspended(&job(), PoolId(0), &pools(3), &v, &mut rng),
            Decision::Stay
        );
        // Ties also stay (no strict improvement).
        let v = view(&[(10, 5, 0), (10, 5, 0)]);
        assert_eq!(
            p.on_suspended(&job(), PoolId(0), &pools(2), &v, &mut rng),
            Decision::Stay
        );
    }

    #[test]
    fn res_sus_rand_picks_among_other_candidates() {
        let mut p = ResSus::random();
        let v = view(&[(10, 0, 0); 4]);
        let mut rng = DetRng::from_seed_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let Decision::Restart(t) = p.on_suspended(&job(), PoolId(2), &pools(4), &v, &mut rng)
            else {
                panic!("alternates exist")
            };
            assert_ne!(t, PoolId(2), "random never picks the current pool");
            seen.insert(t);
        }
        assert_eq!(seen.len(), 3, "all alternates eventually chosen");
    }

    #[test]
    fn res_sus_rand_stays_with_single_candidate() {
        let mut p = ResSus::random();
        let v = view(&[(10, 0, 0)]);
        let mut rng = DetRng::from_seed_u64(1);
        assert_eq!(
            p.on_suspended(&job(), PoolId(0), &[PoolId(0)], &v, &mut rng),
            Decision::Stay
        );
    }

    #[test]
    fn wait_variants_expose_threshold_and_wait_hook() {
        let mut p = ResSusWait::util();
        assert_eq!(p.wait_threshold(), Some(SimDuration::from_minutes(30)));
        let v = view(&[(10, 9, 5), (10, 1, 0)]);
        let mut rng = DetRng::from_seed_u64(2);
        assert_eq!(
            p.on_waiting(&job(), PoolId(0), &pools(2), &v, &mut rng),
            Some(PoolId(1))
        );
    }

    #[test]
    fn shortest_queue_extension_prefers_short_queues() {
        let mut p = ResSus::queue();
        let v = view(&[(10, 5, 9), (10, 9, 1), (10, 9, 4)]);
        let mut rng = DetRng::from_seed_u64(3);
        assert_eq!(
            p.on_suspended(&job(), PoolId(0), &pools(3), &v, &mut rng),
            Decision::Restart(PoolId(1))
        );
        assert_eq!(p.name(), "ResSusQueue");
    }

    #[test]
    fn strategy_kind_builds_all_variants() {
        for kind in [
            StrategyKind::NoRes,
            StrategyKind::ResSusUtil,
            StrategyKind::ResSusRand,
            StrategyKind::ResSusWaitUtil,
            StrategyKind::ResSusWaitRand,
            StrategyKind::ResSusQueue,
            StrategyKind::MigrateSusUtil,
            StrategyKind::DupSusUtil,
            StrategyKind::ResSusWaitSmart,
        ] {
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(StrategyKind::PAPER_SUSPEND_ONLY.len(), 3);
        assert_eq!(StrategyKind::PAPER_WITH_WAIT.len(), 3);
    }

    #[test]
    fn migrate_and_dup_policies_issue_their_decisions() {
        let v = view(&[(10, 9, 0), (10, 1, 0)]);
        let mut rng = DetRng::from_seed_u64(4);
        let mut m = MigrateSus::util();
        assert_eq!(
            m.on_suspended(&job(), PoolId(0), &pools(2), &v, &mut rng),
            Decision::Migrate(PoolId(1))
        );
        let mut d = DupSus::util();
        assert_eq!(
            d.on_suspended(&job(), PoolId(0), &pools(2), &v, &mut rng),
            Decision::Duplicate(PoolId(1))
        );
        // Both stay when no better pool exists.
        let flat = view(&[(10, 1, 0), (10, 9, 0)]);
        assert_eq!(
            m.on_suspended(&job(), PoolId(0), &pools(2), &flat, &mut rng),
            Decision::Stay
        );
        assert_eq!(
            d.on_suspended(&job(), PoolId(0), &pools(2), &flat, &mut rng),
            Decision::Stay
        );
    }

    #[test]
    fn smart_selector_penalizes_queues_and_load() {
        let w = SmartWeights::default();
        // Pool 1: empty. Pool 0: busy. Pool 2: idle cores but a deep queue.
        let v = view(&[(10, 9, 0), (10, 1, 0), (10, 1, 20)]);
        assert_eq!(w.select(PoolId(0), &pools(3), &v), Some(PoolId(1)));
        // From the empty pool, nothing is better: stay.
        assert_eq!(w.select(PoolId(1), &pools(3), &v), None);
        // The deep-queued pool scores worse than the busy one.
        let p0 = &v.pools[0];
        let p2 = &v.pools[2];
        assert!(w.score(p2) > w.score(p0));
    }

    #[test]
    fn smart_policy_restarts_and_reschedules_waiting() {
        let mut p = ResSusWaitSmart::new();
        let v = view(&[(10, 9, 4), (10, 1, 0)]);
        let mut rng = DetRng::from_seed_u64(0);
        assert_eq!(
            p.on_suspended(&job(), PoolId(0), &pools(2), &v, &mut rng),
            Decision::Restart(PoolId(1))
        );
        assert_eq!(
            p.on_waiting(&job(), PoolId(0), &pools(2), &v, &mut rng),
            Some(PoolId(1))
        );
        assert_eq!(p.wait_threshold(), Some(PAPER_WAIT_THRESHOLD));
    }

    #[test]
    fn default_strategies_match_nores_baseline() {
        assert_eq!(StrategyKind::default(), StrategyKind::NoRes);
        assert_eq!(StrategyKind::NoRes.to_string(), "NoRes");
    }
}
