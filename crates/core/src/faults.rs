//! Stochastic fault injection and the resilience policy the simulator
//! hardens itself with.
//!
//! The paper's future work is validating dynamic rescheduling on the live
//! platform — where hosts fail. This module is the fault subsystem; an
//! explicit outage list (`SimConfig::failures`) is a plan input like any
//! generated schedule:
//!
//! * [`FaultModel`] — deterministically generates a [`FaultPlan`] from the
//!   run's [`DetRng`]: per-machine exponential MTBF/MTTR outages,
//!   correlated pool-wide outages (a pool losing network connectivity to
//!   the virtual pool manager takes every machine in it down at once), and
//!   *flapping* machines whose failure/repair clocks run a configurable
//!   factor faster;
//! * [`FaultPlan`] — a validated outage schedule. Overlapping or touching
//!   intervals for the same machine are merged, so a later outage can
//!   never be cut short by an earlier outage's up-event (the seeding bug
//!   the ad-hoc path had);
//! * [`ResiliencePolicy`] — the scheduler-hardening knobs: per-job retry
//!   budgets with exponential backoff before re-dispatch after a failure
//!   eviction, and pool blacklisting that excludes recently-failed pools
//!   from `ResSus*` target selection for a cooldown window.

use netbatch_cluster::ids::{MachineId, PoolId};
use netbatch_sim_engine::rng::DetRng;
use netbatch_sim_engine::time::{SimDuration, SimTime};

use crate::config::{first_broken, ConfigError};

/// One validated machine outage interval: down at `from`, back up at
/// `until` (`None` = never repaired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineOutage {
    /// The pool containing the machine.
    pub pool: PoolId,
    /// The machine that goes down.
    pub machine: MachineId,
    /// When the outage starts.
    pub from: SimTime,
    /// When the machine comes back; `None` = permanent failure.
    pub until: Option<SimTime>,
}

impl MachineOutage {
    fn key(&self) -> (u16, u32, u64) {
        (
            self.pool.as_u16(),
            self.machine.as_u32(),
            self.from.as_minutes(),
        )
    }

    /// True if `other` starts before (or exactly when) this outage ends —
    /// i.e. seeding both independently would let this outage's up-event
    /// resurrect the machine inside `other`.
    fn absorbs(&self, other: &MachineOutage) -> bool {
        match self.until {
            None => true,
            Some(until) => other.from <= until,
        }
    }
}

/// A validated, non-overlapping outage schedule, sorted by
/// `(pool, machine, start)`.
///
/// Construction normalizes the raw intervals per machine: overlapping or
/// touching outages merge into one (taking the later repair time; a
/// permanent outage swallows everything after it). This is what makes the
/// `MachineDown`/`MachineUp` event pairs the simulator seeds safe — every
/// up-event belongs to exactly one down-event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    outages: Vec<MachineOutage>,
}

impl FaultPlan {
    /// Normalizes a raw outage list into a plan.
    pub fn new(mut raw: Vec<MachineOutage>) -> Self {
        raw.sort_by_key(MachineOutage::key);
        let mut outages: Vec<MachineOutage> = Vec::with_capacity(raw.len());
        for o in raw {
            match outages.last_mut() {
                Some(last)
                    if last.pool == o.pool && last.machine == o.machine && last.absorbs(&o) =>
                {
                    last.until = match (last.until, o.until) {
                        (None, _) | (_, None) => None,
                        (Some(a), Some(b)) => Some(a.max(b)),
                    };
                }
                _ => outages.push(o),
            }
        }
        FaultPlan { outages }
    }

    /// Merges two plans into one normalized schedule.
    pub fn merge(self, other: FaultPlan) -> Self {
        let mut raw = self.outages;
        raw.extend(other.outages);
        FaultPlan::new(raw)
    }

    /// The validated outage intervals.
    pub fn outages(&self) -> &[MachineOutage] {
        &self.outages
    }

    /// Number of distinct outages after merging (the *effective* failure
    /// count — duplicate draws collapse here rather than silently
    /// shrinking a sweep's intensity).
    pub fn len(&self) -> usize {
        self.outages.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }

    /// The stable cause id of the outage covering `(pool, machine)` at
    /// instant `at`: its index in this normalized plan. Normalization
    /// sorts by `(pool, machine, start)` and merges overlaps, so the
    /// index is deterministic for a given run configuration — the id the
    /// provenance layer stamps on `MachineDown` fault audits.
    pub fn outage_id(&self, pool: PoolId, machine: MachineId, at: SimTime) -> Option<u32> {
        self.outages
            .iter()
            .position(|o| {
                o.pool == pool
                    && o.machine == machine
                    && o.from <= at
                    && o.until.is_none_or(|until| at < until)
            })
            .map(|i| i as u32)
    }

    /// Drops every outage starting at or after `horizon`.
    ///
    /// The generator never emits such intervals, but merged ad-hoc
    /// schedules (and lifecycle stagger arithmetic) can land a window
    /// exactly on the horizon end; seeding it would emit a `MachineDown`
    /// whose entire outage lies outside the modelled window — and, for a
    /// permanent interval, a dangling down-event with no matching
    /// `MachineUp` for the invariant checker's alternation rule to pair.
    pub fn clamp_to(mut self, horizon: SimDuration) -> Self {
        self.outages
            .retain(|o| o.from.as_minutes() < horizon.as_minutes());
        self
    }
}

/// A stochastic fault model, deterministic given a seed.
///
/// Every machine alternates exponentially distributed up intervals (mean
/// [`FaultModel::mtbf`]) and down intervals (mean [`FaultModel::mttr`])
/// over the generation horizon. A configurable fraction of machines
/// *flaps*: their failure and repair clocks run [`FaultModel::flaky_accel`]
/// times faster, producing many short outages. On top, whole-pool outages
/// model a pool dropping off the VPM's network: every machine in the
/// chosen pool goes down for one exponentially distributed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Mean time between failures per machine.
    pub mtbf: SimDuration,
    /// Mean time to repair per outage.
    pub mttr: SimDuration,
    /// Generation window: no outage starts at or after this horizon.
    pub horizon: SimDuration,
    /// Number of correlated whole-pool outages to inject.
    pub pool_outages: u32,
    /// Mean duration of a whole-pool outage.
    pub pool_outage_mttr: SimDuration,
    /// Fraction of machines (in `[0, 1]`) whose clocks flap.
    pub flaky_fraction: f64,
    /// How many times faster a flapping machine's MTBF/MTTR clocks run.
    pub flaky_accel: u32,
}

impl FaultModel {
    /// A plain MTBF/MTTR model with no correlated outages or flapping.
    pub fn new(mtbf: SimDuration, mttr: SimDuration, horizon: SimDuration) -> Self {
        FaultModel {
            mtbf,
            mttr,
            horizon,
            pool_outages: 0,
            pool_outage_mttr: SimDuration::from_hours(4),
            flaky_fraction: 0.0,
            flaky_accel: 16,
        }
    }

    /// Adds `n` correlated whole-pool outages of mean duration `mttr`.
    pub fn with_pool_outages(mut self, n: u32, mttr: SimDuration) -> Self {
        self.pool_outages = n;
        self.pool_outage_mttr = mttr;
        self
    }

    /// Makes `fraction` of the machines flap with `accel`-times-faster
    /// failure/repair clocks.
    pub fn with_flaky(mut self, fraction: f64, accel: u32) -> Self {
        self.flaky_fraction = fraction.clamp(0.0, 1.0);
        self.flaky_accel = accel.max(1);
        self
    }

    /// Generates the outage schedule for a site described as
    /// `(pool id, machine count)` pairs. Deterministic: the same seed and
    /// site shape always produce the same plan, independent of any other
    /// randomness in the run (the generator draws from its own named
    /// [`DetRng`] substreams).
    pub fn generate(&self, pools: &[(PoolId, u32)], seed: u64) -> FaultPlan {
        let rng = DetRng::from_seed_u64(seed);
        let horizon = self.horizon.as_minutes();
        let mut raw = Vec::new();
        let mut global = 0u64;
        for &(pool, machines) in pools {
            for m in 0..machines {
                let mut r = rng.stream_indexed("fault-machine", global);
                global += 1;
                let flaky = self.flaky_fraction > 0.0 && r.next_f64() < self.flaky_fraction;
                let accel = if flaky {
                    u64::from(self.flaky_accel)
                } else {
                    1
                };
                let mtbf = (self.mtbf.as_minutes() / accel).max(1);
                let mttr = (self.mttr.as_minutes() / accel).max(1);
                let mut t = 0u64;
                loop {
                    t = t.saturating_add(exp_minutes(&mut r, mtbf));
                    if t >= horizon {
                        break;
                    }
                    let down = exp_minutes(&mut r, mttr);
                    raw.push(MachineOutage {
                        pool,
                        machine: MachineId(m),
                        from: SimTime::from_minutes(t),
                        until: Some(SimTime::from_minutes(t.saturating_add(down))),
                    });
                    t = t.saturating_add(down);
                }
            }
        }
        if self.pool_outages > 0 && !pools.is_empty() {
            let mut r = rng.stream("fault-pool");
            for _ in 0..self.pool_outages {
                let (pool, machines) = pools[r.next_below(pools.len() as u64) as usize];
                let from = r.next_below(horizon.max(1));
                let down = exp_minutes(&mut r, self.pool_outage_mttr.as_minutes().max(1));
                for m in 0..machines {
                    raw.push(MachineOutage {
                        pool,
                        machine: MachineId(m),
                        from: SimTime::from_minutes(from),
                        until: Some(SimTime::from_minutes(from.saturating_add(down))),
                    });
                }
            }
        }
        FaultPlan::new(raw)
    }
}

/// One exponential draw with the given mean, rounded up to whole minutes
/// (minimum 1, so outages and up-intervals always advance time).
fn exp_minutes(rng: &mut DetRng, mean_minutes: u64) -> u64 {
    let u = rng.next_f64();
    let draw = -(1.0 - u).ln() * mean_minutes as f64;
    // Cap a single draw at 64 mean lengths: keeps the arithmetic far from
    // overflow without visibly truncating the distribution (P < 2e-28).
    draw.min(mean_minutes as f64 * 64.0).ceil().max(1.0) as u64
}

/// Why a machine enters a lifecycle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleKind {
    /// A scheduled maintenance window: drain, kill at the deadline,
    /// restore at the window end.
    Maintenance,
    /// One step of a rolling-update wave sweeping the pool in machine-id
    /// order; semantically a maintenance window, but bounded so at most a
    /// configured fraction of each pool is offline at once.
    RollingUpdate,
    /// An operator cordon: the machine accepts no new work but is never
    /// killed — residents run (and may resume) to completion.
    Cordoned,
}

impl LifecycleKind {
    /// Stable label for traces and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            LifecycleKind::Maintenance => "maintenance",
            LifecycleKind::RollingUpdate => "rolling_update",
            LifecycleKind::Cordoned => "cordoned",
        }
    }
}

/// One validated lifecycle window for a machine.
///
/// The machine transitions Up → Draining at `drain_from`; if the window
/// carries a kill deadline (`down_from`), the machine goes Down there and
/// is restored at `until`; either way the drain ends (the machine
/// re-opens for placement) only at `until`, via an explicit drain-end
/// event — a fault repair inside the window never re-opens it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleWindow {
    /// The pool containing the machine.
    pub pool: PoolId,
    /// The machine the window applies to.
    pub machine: MachineId,
    /// Why the window exists (labelling only; semantics are carried by
    /// `down_from`).
    pub kind: LifecycleKind,
    /// When the machine stops accepting new work.
    pub drain_from: SimTime,
    /// When the machine is killed (the drain deadline); `None` = cordon,
    /// no kill.
    pub down_from: Option<SimTime>,
    /// When the window ends: the machine is restored (if killed) and
    /// re-opens for placement.
    pub until: SimTime,
}

impl LifecycleWindow {
    fn key(&self) -> (u16, u32, u64) {
        (
            self.pool.as_u16(),
            self.machine.as_u32(),
            self.drain_from.as_minutes(),
        )
    }

    /// The deadline evacuation races against: the kill instant for
    /// maintenance windows, the window end for cordons.
    pub fn deadline(&self) -> SimTime {
        self.down_from.unwrap_or(self.until)
    }
}

/// A validated machine-lifecycle schedule plus per-machine health scores,
/// mirroring [`FaultPlan`]'s normalization: windows are sorted by
/// `(pool, machine, drain_from)` and overlapping windows for the same
/// machine merge into one (earliest drain, earliest kill, latest end), so
/// the drain-start/drain-end event pairs the simulator seeds alternate
/// cleanly and at most one window is in force per machine at a time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifecyclePlan {
    windows: Vec<LifecycleWindow>,
    /// Per-machine probe-derived health in per-mille, sorted by
    /// `(pool, machine)`. Machines absent from the list are fully healthy.
    health: Vec<(PoolId, MachineId, u32)>,
}

impl LifecyclePlan {
    /// Normalizes raw windows and health scores into a plan. Degenerate
    /// windows (`until <= drain_from`) are dropped.
    pub fn new(mut raw: Vec<LifecycleWindow>, mut health: Vec<(PoolId, MachineId, u32)>) -> Self {
        raw.retain(|w| w.drain_from < w.until);
        raw.sort_by_key(LifecycleWindow::key);
        let mut windows: Vec<LifecycleWindow> = Vec::with_capacity(raw.len());
        for w in raw {
            match windows.last_mut() {
                Some(last)
                    if last.pool == w.pool
                        && last.machine == w.machine
                        && w.drain_from <= last.until =>
                {
                    // Overlapping windows merge: the machine drains at the
                    // earlier start, dies at the earlier kill (a cordon
                    // overlapping a maintenance window inherits its kill),
                    // and re-opens at the later end.
                    last.down_from = match (last.down_from, w.down_from) {
                        (None, d) | (d, None) => d,
                        (Some(a), Some(b)) => Some(a.min(b)),
                    };
                    last.until = last.until.max(w.until);
                    if last.down_from.is_some() && last.kind == LifecycleKind::Cordoned {
                        last.kind = w.kind;
                    }
                }
                _ => windows.push(w),
            }
        }
        health.sort_by_key(|&(p, m, _)| (p.as_u16(), m.as_u32()));
        health.dedup_by_key(|&mut (p, m, _)| (p, m));
        LifecyclePlan { windows, health }
    }

    /// The validated lifecycle windows.
    pub fn windows(&self) -> &[LifecycleWindow] {
        &self.windows
    }

    /// Per-machine health scores in per-mille, sorted by `(pool, machine)`.
    pub fn health_scores(&self) -> &[(PoolId, MachineId, u32)] {
        &self.health
    }

    /// Number of windows after merging.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when the plan schedules nothing and scores nothing — the
    /// lifecycle-off fast path (no events seeded, byte-identical traces).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.health.is_empty()
    }

    /// The stable cause id of the window holding `(pool, machine)` in a
    /// drain at instant `at`: its index in this normalized plan (the
    /// lifecycle analogue of [`FaultPlan::outage_id`], stamped on
    /// evacuation audits).
    pub fn window_id(&self, pool: PoolId, machine: MachineId, at: SimTime) -> Option<u32> {
        self.windows
            .iter()
            .position(|w| {
                w.pool == pool && w.machine == machine && w.drain_from <= at && at < w.until
            })
            .map(|i| i as u32)
    }

    /// The kill intervals of this plan as machine outages, for merging
    /// into the run's [`FaultPlan`] — a stochastic fault overlapping a
    /// maintenance kill must collapse into one down/up pair, exactly like
    /// overlapping stochastic outages do.
    pub fn kill_outages(&self) -> Vec<MachineOutage> {
        self.windows
            .iter()
            .filter_map(|w| {
                w.down_from.map(|from| MachineOutage {
                    pool: w.pool,
                    machine: w.machine,
                    from,
                    until: Some(w.until),
                })
            })
            .collect()
    }

    /// Drops every window whose drain starts at or after `horizon`
    /// (the lifecycle analogue of [`FaultPlan::clamp_to`]).
    pub fn clamp_to(mut self, horizon: SimDuration) -> Self {
        self.windows
            .retain(|w| w.drain_from.as_minutes() < horizon.as_minutes());
        self
    }
}

/// A scheduled (not stochastic) machine-lifecycle model, deterministic
/// given a seed and site shape.
///
/// Three window sources, all clamped to the horizon:
///
/// * **maintenance** — every machine gets a periodic maintenance window,
///   staggered across the period in machine order so a pool never loses
///   all machines to maintenance at once;
/// * **rolling updates** — waves sweep each pool in machine-id order in
///   batches of at most `rolling_fraction` of the pool, each batch offline
///   for `rolling_duration`;
/// * **cordons** — machines whose probe-derived health falls below
///   `cordon_below_milli` are cordoned (no kill) for `cordon_duration`
///   starting a quarter of the way into the horizon, when the probes have
///   had time to accumulate.
///
/// Every kill is preceded by a `drain_lead`-long drain. Health scores are
/// probe-style: each machine answers [`LifecycleModel::probe_count`]
/// deterministic probes from its own [`DetRng`] substream; flaky machines
/// (re-derived from the *same* `fault-machine` substream draws the
/// [`FaultModel`] uses, so the two models agree on which machines flap)
/// fail probes at an accelerated rate, giving them visibly lower health.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleModel {
    /// Generation window: no window drains at or after this horizon.
    pub horizon: SimDuration,
    /// How long before a scheduled kill the machine starts draining.
    pub drain_lead: SimDuration,
    /// Period of per-machine maintenance windows; `ZERO` disables them.
    pub maintenance_every: SimDuration,
    /// Length of one maintenance outage (kill to restore).
    pub maintenance_duration: SimDuration,
    /// Number of rolling-update waves over the horizon; 0 disables them.
    pub rolling_waves: u32,
    /// Upper bound on the fraction of a pool offline per wave batch.
    pub rolling_fraction: f64,
    /// How long each wave batch stays down.
    pub rolling_duration: SimDuration,
    /// Cordon machines whose health (per-mille) falls below this; 0
    /// disables cordons.
    pub cordon_below_milli: u32,
    /// How long a cordon lasts.
    pub cordon_duration: SimDuration,
    /// Deterministic probes per machine backing the health score.
    pub probe_count: u32,
    /// Base probe failure probability for a healthy machine.
    pub probe_fail: f64,
    /// Flaky-machine knobs mirrored from the run's [`FaultModel`] so
    /// health correlates with flapping; zero fraction = uncorrelated.
    pub flaky_fraction: f64,
    /// Probe-failure acceleration for flaky machines.
    pub flaky_accel: u32,
}

impl LifecycleModel {
    /// An inert model over `horizon`: no windows, uniform default probes.
    pub fn new(horizon: SimDuration) -> Self {
        LifecycleModel {
            horizon,
            drain_lead: SimDuration::from_minutes(60),
            maintenance_every: SimDuration::ZERO,
            maintenance_duration: SimDuration::from_hours(2),
            rolling_waves: 0,
            rolling_fraction: 0.25,
            rolling_duration: SimDuration::from_hours(1),
            cordon_below_milli: 0,
            cordon_duration: SimDuration::from_hours(24),
            probe_count: 16,
            probe_fail: 0.03,
            flaky_fraction: 0.0,
            flaky_accel: 16,
        }
    }

    /// The default chaos-harness model: 48-hour maintenance cadence
    /// (2-hour windows), one rolling-update wave taking at most a quarter
    /// of each pool per batch, cordons below 0.5 health, 60-minute drain
    /// lead.
    pub fn standard(horizon: SimDuration) -> Self {
        LifecycleModel::new(horizon)
            .with_maintenance(SimDuration::from_hours(48), SimDuration::from_hours(2))
            .with_rolling(1, 0.25, SimDuration::from_hours(1))
            .with_cordon(500, SimDuration::from_hours(24))
    }

    /// Sets the drain lead before every scheduled kill.
    pub fn with_drain_lead(mut self, lead: SimDuration) -> Self {
        self.drain_lead = lead;
        self
    }

    /// Enables periodic maintenance windows.
    pub fn with_maintenance(mut self, every: SimDuration, duration: SimDuration) -> Self {
        self.maintenance_every = every;
        self.maintenance_duration = duration;
        self
    }

    /// Enables `waves` rolling-update waves with the given batch fraction
    /// and per-batch downtime.
    pub fn with_rolling(mut self, waves: u32, fraction: f64, duration: SimDuration) -> Self {
        self.rolling_waves = waves;
        self.rolling_fraction = fraction.clamp(0.0, 1.0);
        self.rolling_duration = duration;
        self
    }

    /// Cordons machines below `below_milli` health for `duration`.
    pub fn with_cordon(mut self, below_milli: u32, duration: SimDuration) -> Self {
        self.cordon_below_milli = below_milli.min(1000);
        self.cordon_duration = duration;
        self
    }

    /// Correlates probe failures with the fault model's flaky machines.
    pub fn with_flaky(mut self, fraction: f64, accel: u32) -> Self {
        self.flaky_fraction = fraction.clamp(0.0, 1.0);
        self.flaky_accel = accel.max(1);
        self
    }

    /// Rejects configurations that would panic or hang plan generation:
    /// non-positive horizons and durations, NaN or out-of-range fractions.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let in_unit = |v: f64| (0.0..=1.0).contains(&v);
        let rolling = self.rolling_waves > 0;
        first_broken([
            (self.horizon.is_zero(), ConfigError::LifecycleHorizon),
            (
                !self.maintenance_every.is_zero() && self.maintenance_duration.is_zero(),
                ConfigError::LifecycleMaintenanceDuration,
            ),
            (
                rolling && (self.rolling_fraction <= 0.0 || !in_unit(self.rolling_fraction)),
                ConfigError::LifecycleRollingFraction(self.rolling_fraction),
            ),
            (
                rolling && self.rolling_duration.is_zero(),
                ConfigError::LifecycleRollingDuration,
            ),
            (
                self.cordon_below_milli > 0 && self.cordon_duration.is_zero(),
                ConfigError::LifecycleCordonDuration,
            ),
            (self.probe_count == 0, ConfigError::LifecycleProbeCount),
            (
                !in_unit(self.probe_fail),
                ConfigError::LifecycleProbeFailure(self.probe_fail),
            ),
            (
                !in_unit(self.flaky_fraction),
                ConfigError::LifecycleFlakyFraction(self.flaky_fraction),
            ),
        ])
    }

    /// Generates the lifecycle plan for a site described as
    /// `(pool id, machine count)` pairs. Deterministic: the same seed and
    /// site shape always produce the same plan, independent of any other
    /// randomness in the run.
    pub fn generate(&self, pools: &[(PoolId, u32)], seed: u64) -> LifecyclePlan {
        let rng = DetRng::from_seed_u64(seed);
        let horizon = self.horizon.as_minutes();
        let lead = self.drain_lead.as_minutes();
        let mut raw = Vec::new();

        // Probe-derived health, flaky-correlated: re-draw the fault
        // model's per-machine flaky coin from the same substream so both
        // models agree on which machines flap.
        let mut health = Vec::new();
        let mut global = 0u64;
        for &(pool, machines) in pools {
            for m in 0..machines {
                let flaky = self.flaky_fraction > 0.0 && {
                    let mut f = rng.stream_indexed("fault-machine", global);
                    f.next_f64() < self.flaky_fraction
                };
                let mut r = rng.stream_indexed("lifecycle-probe", global);
                global += 1;
                let p = if flaky {
                    (self.probe_fail * f64::from(self.flaky_accel)).min(0.75)
                } else {
                    self.probe_fail
                };
                let passed = (0..self.probe_count).filter(|_| r.next_f64() >= p).count();
                let milli = (passed as u64 * 1000 / u64::from(self.probe_count)) as u32;
                health.push((pool, MachineId(m), milli));
            }
        }

        // Scheduled maintenance, staggered across the period in machine
        // order so a pool never loses everything at once.
        let every = self.maintenance_every.as_minutes();
        if every > 0 {
            for &(pool, machines) in pools {
                for m in 0..machines {
                    let stagger =
                        every.saturating_mul(u64::from(m) + 1) / (u64::from(machines) + 1);
                    let mut k = 0u64;
                    loop {
                        let down = every.saturating_mul(k).saturating_add(stagger);
                        if down >= horizon {
                            break;
                        }
                        raw.push(LifecycleWindow {
                            pool,
                            machine: MachineId(m),
                            kind: LifecycleKind::Maintenance,
                            drain_from: SimTime::from_minutes(down.saturating_sub(lead)),
                            down_from: Some(SimTime::from_minutes(down)),
                            until: SimTime::from_minutes(
                                down.saturating_add(self.maintenance_duration.as_minutes().max(1)),
                            ),
                        });
                        k += 1;
                    }
                }
            }
        }

        // Rolling-update waves: evenly spaced over the horizon, sweeping
        // each pool in machine-id order in batches of at most
        // `rolling_fraction` of the pool.
        if self.rolling_waves > 0 && self.rolling_fraction > 0.0 {
            let step = self.rolling_duration.as_minutes().max(1);
            for w in 0..u64::from(self.rolling_waves) {
                let base = horizon.saturating_mul(w + 1) / (u64::from(self.rolling_waves) + 1);
                for &(pool, machines) in pools {
                    let batch =
                        ((f64::from(machines) * self.rolling_fraction).ceil() as u32).max(1);
                    for m in 0..machines {
                        let group = u64::from(m / batch);
                        let down = base.saturating_add(group.saturating_mul(step));
                        if down >= horizon {
                            continue;
                        }
                        raw.push(LifecycleWindow {
                            pool,
                            machine: MachineId(m),
                            kind: LifecycleKind::RollingUpdate,
                            drain_from: SimTime::from_minutes(down.saturating_sub(lead)),
                            down_from: Some(SimTime::from_minutes(down)),
                            until: SimTime::from_minutes(down.saturating_add(step)),
                        });
                    }
                }
            }
        }

        // Cordons: machines whose probes read below the threshold are
        // cordoned once the probes have had time to accumulate.
        if self.cordon_below_milli > 0 {
            let from = horizon / 4;
            for &(pool, machine, milli) in &health {
                if milli < self.cordon_below_milli && from < horizon {
                    raw.push(LifecycleWindow {
                        pool,
                        machine,
                        kind: LifecycleKind::Cordoned,
                        drain_from: SimTime::from_minutes(from),
                        down_from: None,
                        until: SimTime::from_minutes(
                            from.saturating_add(self.cordon_duration.as_minutes().max(1)),
                        ),
                    });
                }
            }
        }

        LifecyclePlan::new(raw, health).clamp_to(self.horizon)
    }
}

/// Scheduler-hardening knobs for fault-prone runs.
///
/// Disabled (the default) reproduces the seed behaviour exactly: evicted
/// jobs re-route through the VPM immediately, unboundedly, and policies
/// see every eligible pool. Enabled, the simulator applies:
///
/// * **retry budget + exponential backoff** — a job evicted by a failure
///   waits `backoff_base * 2^(attempt-1)` (capped at `backoff_cap`)
///   before re-dispatch, and gives up (reported unrunnable) after
///   `retry_budget` failure-driven retries;
/// * **pool blacklisting** — a pool that just lost a machine is excluded
///   from `ResSus*` rescheduling target selection for
///   `blacklist_cooldown`;
/// * **graceful degradation** — when every capable pool is fully down,
///   a retried job parks at the VPM for another backoff interval instead
///   of queueing on a dead pool or bouncing as unrunnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Master switch; `false` is bit-for-bit the unhardened behaviour.
    pub enabled: bool,
    /// Maximum failure-driven re-dispatches per job before it gives up.
    pub retry_budget: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Ceiling on the backoff delay.
    pub backoff_cap: SimDuration,
    /// How long a pool stays excluded from rescheduling targets after a
    /// machine failure in it.
    pub blacklist_cooldown: SimDuration,
    /// Proactively evacuate draining machines: when a drain with a kill
    /// deadline starts, jobs that cannot finish before the deadline (and
    /// all suspended residents) are rescheduled immediately instead of
    /// waiting for the kill. Off in both [`ResiliencePolicy::disabled`]
    /// and [`ResiliencePolicy::hardened`]; enabled via
    /// [`ResiliencePolicy::with_evacuation`] (the `--health-aware` CLI
    /// flag).
    pub evacuate_draining: bool,
}

impl ResiliencePolicy {
    /// The unhardened scheduler (seed behaviour).
    pub fn disabled() -> Self {
        ResiliencePolicy {
            enabled: false,
            retry_budget: 0,
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
            blacklist_cooldown: SimDuration::ZERO,
            evacuate_draining: false,
        }
    }

    /// The hardened defaults used by the chaos harness: budget 8,
    /// backoff 2 min doubling to a 64-minute cap, 60-minute blacklist.
    pub fn hardened() -> Self {
        ResiliencePolicy {
            enabled: true,
            retry_budget: 8,
            backoff_base: SimDuration::from_minutes(2),
            backoff_cap: SimDuration::from_minutes(64),
            blacklist_cooldown: SimDuration::from_minutes(60),
            evacuate_draining: false,
        }
    }

    /// Turns on proactive evacuation of draining machines.
    pub fn with_evacuation(mut self) -> Self {
        self.evacuate_draining = true;
        self
    }

    /// The backoff delay before re-dispatch attempt `attempt` (1-based):
    /// `backoff_base * 2^(attempt-1)`, capped at `backoff_cap`, never
    /// zero (a zero delay would re-dispatch inside the eviction event).
    pub fn backoff_delay(&self, attempt: u32) -> SimDuration {
        let base = self.backoff_base.as_minutes().max(1);
        let cap = self.backoff_cap.as_minutes().max(base);
        let factor = 1u64 << attempt.saturating_sub(1).min(32);
        SimDuration::from_minutes(base.saturating_mul(factor).min(cap))
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outage(m: u32, from: u64, until: Option<u64>) -> MachineOutage {
        MachineOutage {
            pool: PoolId(0),
            machine: MachineId(m),
            from: SimTime::from_minutes(from),
            until: until.map(SimTime::from_minutes),
        }
    }

    #[test]
    fn overlapping_outages_merge_to_latest_repair() {
        // [10, 110) and [50, 60): the naive seeding would resurrect the
        // machine at 60; the plan merges to one [10, 110) interval.
        let plan = FaultPlan::new(vec![outage(0, 10, Some(110)), outage(0, 50, Some(60))]);
        assert_eq!(plan.outages(), &[outage(0, 10, Some(110))]);
        // Touching intervals merge too (up and down at the same minute
        // would race otherwise).
        let plan = FaultPlan::new(vec![outage(0, 10, Some(50)), outage(0, 50, Some(80))]);
        assert_eq!(plan.outages(), &[outage(0, 10, Some(80))]);
    }

    #[test]
    fn permanent_outage_swallows_later_intervals() {
        let plan = FaultPlan::new(vec![
            outage(0, 30, None),
            outage(0, 100, Some(120)),
            outage(1, 100, Some(120)),
        ]);
        assert_eq!(
            plan.outages(),
            &[outage(0, 30, None), outage(1, 100, Some(120))]
        );
    }

    #[test]
    fn disjoint_outages_stay_separate() {
        let plan = FaultPlan::new(vec![outage(0, 80, Some(90)), outage(0, 10, Some(20))]);
        assert_eq!(
            plan.outages(),
            &[outage(0, 10, Some(20)), outage(0, 80, Some(90))]
        );
    }

    #[test]
    fn identical_draws_dedupe() {
        let f = MachineOutage {
            pool: PoolId(2),
            machine: MachineId(1),
            from: SimTime::from_minutes(100),
            until: Some(SimTime::from_minutes(820)),
        };
        let plan = FaultPlan::new(vec![f, f, f]);
        assert_eq!(plan.len(), 1, "duplicate (pool, machine, at) draws merge");
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let model = FaultModel::new(
            SimDuration::from_hours(24),
            SimDuration::from_hours(6),
            SimDuration::from_hours(24 * 7),
        )
        .with_pool_outages(2, SimDuration::from_hours(4))
        .with_flaky(0.25, 16);
        let pools = [(PoolId(0), 8u32), (PoolId(1), 4), (PoolId(2), 4)];
        let a = model.generate(&pools, 42);
        let b = model.generate(&pools, 42);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty(), "a week at 24h MTBF must produce outages");
        let horizon = SimDuration::from_hours(24 * 7).as_minutes();
        for o in a.outages() {
            assert!(
                o.from.as_minutes() < horizon,
                "outages start inside the horizon"
            );
            assert!(o.until.is_some(), "generated outages always repair");
        }
        let c = model.generate(&pools, 43);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn pool_outage_covers_every_machine() {
        let model = FaultModel::new(
            SimDuration::from_hours(1_000_000), // no per-machine outages
            SimDuration::from_hours(1),
            SimDuration::from_hours(24),
        )
        .with_pool_outages(1, SimDuration::from_hours(2));
        let pools = [(PoolId(0), 5u32), (PoolId(1), 3)];
        let plan = model.generate(&pools, 7);
        // One pool fully down: all its machines share the same interval.
        let hit: Vec<_> = plan.outages().iter().collect();
        assert!(hit.len() == 5 || hit.len() == 3, "one whole pool affected");
        let first = hit[0];
        assert!(hit
            .iter()
            .all(|o| o.pool == first.pool && o.from == first.from && o.until == first.until));
    }

    #[test]
    fn flaky_machines_fail_more_often() {
        let horizon = SimDuration::from_hours(24 * 7);
        let calm = FaultModel::new(
            SimDuration::from_hours(48),
            SimDuration::from_hours(2),
            horizon,
        );
        let flaky = calm.clone().with_flaky(1.0, 16);
        let pools = [(PoolId(0), 16u32)];
        let calm_n = calm.generate(&pools, 5).len();
        let flaky_n = flaky.generate(&pools, 5).len();
        assert!(
            flaky_n > calm_n * 4,
            "flapping ({flaky_n}) must dominate calm ({calm_n})"
        );
    }

    #[test]
    fn clamp_drops_outages_at_or_past_horizon() {
        // An interval starting exactly at the horizon end must be dropped,
        // not seeded: a permanent one would emit a dangling MachineDown
        // with no matching MachineUp for the checker's alternation rule.
        let horizon = SimDuration::from_minutes(100);
        let plan = FaultPlan::new(vec![
            outage(0, 99, Some(150)), // starts inside: kept (repair may overrun)
            outage(1, 100, None),     // starts exactly at horizon: dropped
            outage(2, 140, Some(160)),
        ])
        .clamp_to(horizon);
        assert_eq!(plan.outages(), &[outage(0, 99, Some(150))]);
    }

    fn window(m: u32, drain: u64, down: Option<u64>, until: u64) -> LifecycleWindow {
        LifecycleWindow {
            pool: PoolId(0),
            machine: MachineId(m),
            kind: if down.is_some() {
                LifecycleKind::Maintenance
            } else {
                LifecycleKind::Cordoned
            },
            drain_from: SimTime::from_minutes(drain),
            down_from: down.map(SimTime::from_minutes),
            until: SimTime::from_minutes(until),
        }
    }

    #[test]
    fn overlapping_lifecycle_windows_merge() {
        // A cordon overlapping a maintenance window inherits the kill and
        // the later end; seeding both independently would let the first
        // drain-end re-open a machine still inside the second window.
        let plan = LifecyclePlan::new(
            vec![window(0, 10, None, 60), window(0, 40, Some(80), 120)],
            vec![],
        );
        assert_eq!(plan.windows(), &[window(0, 10, Some(80), 120)]);
        assert_eq!(plan.windows()[0].kind, LifecycleKind::Maintenance);
        // Disjoint windows for the same machine stay separate.
        let plan = LifecyclePlan::new(
            vec![window(1, 200, Some(210), 230), window(1, 10, Some(20), 40)],
            vec![],
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.windows()[0].drain_from.as_minutes(), 10);
    }

    #[test]
    fn lifecycle_kill_outages_feed_the_fault_plan() {
        let plan = LifecyclePlan::new(
            vec![window(0, 10, Some(30), 60), window(1, 5, None, 50)],
            vec![],
        );
        let kills = plan.kill_outages();
        assert_eq!(kills, vec![outage(0, 30, Some(60))], "cordons never kill");
    }

    #[test]
    fn lifecycle_generation_is_deterministic_and_bounded() {
        let horizon = SimDuration::from_hours(24 * 7);
        let model = LifecycleModel::standard(horizon).with_flaky(0.25, 16);
        model.validate().expect("standard model validates");
        let pools = [(PoolId(0), 8u32), (PoolId(1), 4), (PoolId(2), 4)];
        let a = model.generate(&pools, 42);
        let b = model.generate(&pools, 42);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty());
        assert_eq!(a.health_scores().len(), 16, "every machine gets a score");
        for w in a.windows() {
            assert!(w.drain_from.as_minutes() < horizon.as_minutes());
            assert!(w.drain_from < w.until);
            if let Some(down) = w.down_from {
                assert!(w.drain_from <= down && down < w.until);
            }
        }
        let c = model.generate(&pools, 43);
        assert_ne!(
            a.health_scores(),
            c.health_scores(),
            "different seed, different probes"
        );
    }

    #[test]
    fn rolling_wave_bounds_offline_fraction() {
        let horizon = SimDuration::from_hours(24);
        let model = LifecycleModel::new(horizon)
            .with_rolling(1, 0.25, SimDuration::from_hours(1))
            .with_drain_lead(SimDuration::ZERO);
        let pools = [(PoolId(0), 8u32)];
        let plan = model.generate(&pools, 1);
        assert_eq!(plan.len(), 8, "every machine gets exactly one window");
        // At any minute, at most ceil(8 * 0.25) = 2 machines are down.
        for t in 0..horizon.as_minutes() {
            let down = plan
                .windows()
                .iter()
                .filter(|w| {
                    w.down_from.is_some_and(|d| d.as_minutes() <= t) && t < w.until.as_minutes()
                })
                .count();
            assert!(down <= 2, "minute {t}: {down} machines down, cap is 2");
        }
    }

    #[test]
    fn flaky_machines_probe_lower_health_and_get_cordoned() {
        let horizon = SimDuration::from_hours(24 * 7);
        let calm = LifecycleModel::new(horizon).with_cordon(500, SimDuration::from_hours(24));
        let flaky = calm.clone().with_flaky(1.0, 16);
        let pools = [(PoolId(0), 16u32)];
        let calm_plan = calm.generate(&pools, 5);
        let flaky_plan = flaky.generate(&pools, 5);
        let avg = |p: &LifecyclePlan| {
            p.health_scores()
                .iter()
                .map(|&(_, _, h)| u64::from(h))
                .sum::<u64>()
                / p.health_scores().len() as u64
        };
        assert!(
            avg(&flaky_plan) + 200 < avg(&calm_plan),
            "flaky probes ({}) must read well below calm ({})",
            avg(&flaky_plan),
            avg(&calm_plan)
        );
        assert!(calm_plan.windows().is_empty(), "healthy site: no cordons");
        assert!(
            !flaky_plan.windows().is_empty(),
            "flaky site: low-health machines get cordoned"
        );
        assert!(flaky_plan
            .windows()
            .iter()
            .all(|w| w.kind == LifecycleKind::Cordoned && w.down_from.is_none()));
    }

    /// A lifecycle model that validates, for one field to break.
    fn lifecycle() -> LifecycleModel {
        LifecycleModel::standard(SimDuration::from_hours(24 * 7))
    }

    #[test]
    fn lifecycle_rejects_zero_horizon() {
        let err = LifecycleModel::new(SimDuration::ZERO).validate();
        assert_eq!(err, Err(ConfigError::LifecycleHorizon));
    }

    #[test]
    fn lifecycle_rejects_zero_maintenance_duration() {
        let err = lifecycle()
            .with_maintenance(SimDuration::from_hours(1), SimDuration::ZERO)
            .validate();
        assert_eq!(err, Err(ConfigError::LifecycleMaintenanceDuration));
    }

    #[test]
    fn lifecycle_rejects_rolling_fraction() {
        let err = lifecycle()
            .with_rolling(1, 0.0, SimDuration::from_hours(1))
            .validate();
        assert_eq!(err, Err(ConfigError::LifecycleRollingFraction(0.0)));
        let mut model = lifecycle();
        model.rolling_fraction = -0.5;
        assert_eq!(
            model.validate(),
            Err(ConfigError::LifecycleRollingFraction(-0.5))
        );
        let err = lifecycle()
            .with_rolling(1, f64::NAN, SimDuration::from_hours(1))
            .validate();
        assert!(matches!(err, Err(ConfigError::LifecycleRollingFraction(v)) if v.is_nan()));
    }

    #[test]
    fn lifecycle_rejects_zero_rolling_duration() {
        let err = lifecycle()
            .with_rolling(1, 0.25, SimDuration::ZERO)
            .validate();
        assert_eq!(err, Err(ConfigError::LifecycleRollingDuration));
    }

    #[test]
    fn lifecycle_rejects_zero_cordon_duration() {
        let err = lifecycle().with_cordon(500, SimDuration::ZERO).validate();
        assert_eq!(err, Err(ConfigError::LifecycleCordonDuration));
    }

    #[test]
    fn lifecycle_rejects_zero_probe_count() {
        let mut model = lifecycle();
        model.probe_count = 0;
        assert_eq!(model.validate(), Err(ConfigError::LifecycleProbeCount));
    }

    #[test]
    fn lifecycle_rejects_probe_failure_rate() {
        let mut model = lifecycle();
        model.probe_fail = 1.5;
        assert_eq!(
            model.validate(),
            Err(ConfigError::LifecycleProbeFailure(1.5))
        );
    }

    #[test]
    fn lifecycle_rejects_flaky_fraction() {
        let mut model = lifecycle();
        model.flaky_fraction = -0.5;
        assert_eq!(
            model.validate(),
            Err(ConfigError::LifecycleFlakyFraction(-0.5))
        );
    }

    #[test]
    fn cause_ids_are_stable_plan_indices() {
        let plan = FaultPlan::new(vec![
            outage(0, 80, Some(90)),
            outage(0, 10, Some(20)),
            outage(1, 30, None),
        ]);
        // Sorted order: (m0, 10), (m0, 80), (m1, 30).
        let at = SimTime::from_minutes;
        assert_eq!(plan.outage_id(PoolId(0), MachineId(0), at(10)), Some(0));
        assert_eq!(plan.outage_id(PoolId(0), MachineId(0), at(85)), Some(1));
        assert_eq!(
            plan.outage_id(PoolId(0), MachineId(1), at(9999)),
            Some(2),
            "permanent outage covers forever"
        );
        assert_eq!(
            plan.outage_id(PoolId(0), MachineId(0), at(20)),
            None,
            "repair instant is outside the outage"
        );

        let plan = LifecyclePlan::new(
            vec![window(1, 200, Some(210), 230), window(1, 10, Some(20), 40)],
            vec![],
        );
        assert_eq!(plan.window_id(PoolId(0), MachineId(1), at(10)), Some(0));
        assert_eq!(plan.window_id(PoolId(0), MachineId(1), at(229)), Some(1));
        assert_eq!(plan.window_id(PoolId(0), MachineId(1), at(40)), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = ResiliencePolicy::hardened();
        assert_eq!(p.backoff_delay(1).as_minutes(), 2);
        assert_eq!(p.backoff_delay(2).as_minutes(), 4);
        assert_eq!(p.backoff_delay(5).as_minutes(), 32);
        assert_eq!(p.backoff_delay(6).as_minutes(), 64);
        assert_eq!(p.backoff_delay(7).as_minutes(), 64, "capped");
        assert_eq!(p.backoff_delay(60).as_minutes(), 64, "no shift overflow");
    }
}
