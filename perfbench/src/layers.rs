//! Layer instrumentation from outside the program.
//!
//! Every per-layer figure is taken at a public seam that already exists:
//! a timing [`ReschedPolicy`] decorator installed through
//! `Simulator::with_policy`, a timing [`SimObserver`] wrapper installed
//! through `Simulator::attach_observer`, a kernel-event counter observer,
//! and the folded output of the kernel's own profiler
//! (`SimConfig::profile`). Both decorators forward every trait method, so
//! a decorated run simulates exactly what the plain run does.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use netbatch_cluster::ids::PoolId;
use netbatch_cluster::job::JobSpec;
use netbatch_cluster::snapshot::ClusterSnapshot;
use netbatch_core::observer::{ObsCtx, ObsEvent, SimObserver};
use netbatch_core::policy::{Decision, ReschedPolicy};
use netbatch_sim_engine::rng::DetRng;
use netbatch_sim_engine::time::{SimDuration, SimTime};

/// Call count and busy time of one decorated layer. Relaxed atomics: the
/// figures are statistics and publish no other data.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    busy_nanos: AtomicU64,
    moves: AtomicU64,
}

impl CallStats {
    fn record(&self, since: Instant, moved: bool) {
        let nanos = since.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        if moved {
            self.moves.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the decorated calls.
    pub fn busy_s(&self) -> f64 {
        self.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Policy calls whose verdict moved the job (always 0 for observers).
    pub fn moves(&self) -> u64 {
        self.moves.load(Ordering::Relaxed)
    }
}

/// Times every decision of the wrapped rescheduling policy.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn ReschedPolicy>,
    stats: Arc<CallStats>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn ReschedPolicy>, stats: Arc<CallStats>) -> Self {
        TimedPolicy { inner, stats }
    }
}

impl ReschedPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_suspended(
        &mut self,
        job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
    ) -> Decision {
        let start = Instant::now();
        let decision = self.inner.on_suspended(job, current, candidates, view, rng);
        self.stats.record(start, decision != Decision::Stay);
        decision
    }

    fn wait_threshold(&self) -> Option<SimDuration> {
        self.inner.wait_threshold()
    }

    fn on_waiting(
        &mut self,
        job: &JobSpec,
        current: PoolId,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        rng: &mut DetRng,
    ) -> Option<PoolId> {
        let start = Instant::now();
        let target = self.inner.on_waiting(job, current, candidates, view, rng);
        self.stats.record(start, target.is_some());
        target
    }

    fn set_health_aware(&mut self, aware: bool) {
        self.inner.set_health_aware(aware);
    }

    fn is_no_res(&self) -> bool {
        self.inner.is_no_res()
    }
}

/// Times every callback of the wrapped observer. `as_any` forwards to the
/// inner observer, so `SimOutput::observer::<T>()` still finds it.
pub struct TimedObserver {
    inner: Box<dyn SimObserver>,
    stats: Arc<CallStats>,
}

impl TimedObserver {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn SimObserver>, stats: Arc<CallStats>) -> Self {
        TimedObserver { inner, stats }
    }
}

impl std::fmt::Debug for TimedObserver {
    // Only the inner observer: its rendering is deterministic, timings are not.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl SimObserver for TimedObserver {
    fn on_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        let start = Instant::now();
        self.inner.on_event(now, event, ctx);
        self.stats.record(start, false);
    }

    fn on_run_end(&mut self, now: SimTime, ctx: &ObsCtx<'_>) {
        let start = Instant::now();
        self.inner.on_run_end(now, ctx);
        self.stats.record(start, false);
    }

    fn on_replayed_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        let start = Instant::now();
        self.inner.on_replayed_event(now, event, ctx);
        self.stats.record(start, false);
    }

    fn on_settle(&mut self, now: SimTime, ctx: &ObsCtx<'_>) {
        let start = Instant::now();
        self.inner.on_settle(now, ctx);
        self.stats.record(start, false);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Counts kernel events by kind (the `ObsEvent::Kernel` markers). Attached
/// only to an untimed counting pass, since any observer switches on the
/// simulator's emit path.
#[derive(Debug, Default)]
pub struct KindCounter {
    counts: BTreeMap<&'static str, u64>,
}

impl KindCounter {
    /// Kernel events seen, by kind label.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

impl SimObserver for KindCounter {
    fn on_event(&mut self, _now: SimTime, event: &ObsEvent, _ctx: &ObsCtx<'_>) {
        if let ObsEvent::Kernel { kind } = *event {
            *self.counts.entry(kind).or_default() += 1;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Adds a `KernelProfile::render_folded` rendering into `into`, keyed by
/// `lane;phase` (for example `serial;submit`, `shard1;generate`), in
/// seconds.
pub fn add_folded(folded: &str, into: &mut BTreeMap<String, f64>) {
    for line in folded.lines() {
        let Some((stack, micros)) = line.rsplit_once(' ') else {
            continue;
        };
        let key = stack.strip_prefix("netbatch;").unwrap_or(stack);
        let micros: f64 = micros.parse().unwrap_or(0.0);
        *into.entry(key.to_string()).or_default() += micros * 1e-6;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_lines_sum_per_lane_and_phase() {
        let mut into = BTreeMap::new();
        add_folded(
            "netbatch;serial;submit 1500\nnetbatch;shard1;generate 20\n",
            &mut into,
        );
        add_folded("netbatch;serial;submit 500\n", &mut into);
        assert!((into["serial;submit"] - 0.002).abs() < 1e-12);
        assert!((into["shard1;generate"] - 0.00002).abs() < 1e-12);
    }
}
