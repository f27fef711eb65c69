//! Scenario presets: the site topology and calibrated workloads behind each
//! experiment in the paper's evaluation (§3.1).
//!
//! The real inputs are proprietary (a year of NetBatch traces; 20 pools of
//! "hundreds to tens of thousands" of heterogeneous machines), so these
//! presets synthesize the closest equivalents and are calibrated against
//! every aggregate the paper publishes:
//!
//! * ~40% average utilization, typically 20–60% (§2.3, Figure 4);
//! * a one-week busy window containing ≈248 000 jobs (§3.1);
//! * a NoRes suspend rate near 1.14% under round-robin (Table 1);
//! * bursty high-priority arrivals confined to small pool subsets (§2.3);
//! * heavy-tailed runtimes (>100k-minute jobs exist, Figure 2).
//!
//! Every dimension scales with a single `scale` factor that shrinks both
//! capacity and arrival rates, preserving utilization and preemption
//! behaviour while letting tests run in milliseconds.

use netbatch_cluster::ids::{MachineId, PoolId};
use netbatch_cluster::job::PoolAffinity;
use netbatch_cluster::machine::MachineConfig;
use netbatch_cluster::pool::PoolConfig;

use crate::distributions::{LogNormal, Mixture, Pareto, WeightedChoice};
use crate::generator::arrivals::ArrivalProcess;
use crate::generator::{BurstArrivals, JobClass, PoissonArrivals, Stream, WorkloadSpec};
use crate::trace::Trace;

/// The number of physical pools at the paper's site.
pub const POOL_COUNT: u16 = 20;

/// Minutes in the paper's one-week busy evaluation window.
pub const WEEK_MINUTES: u64 = 7 * 24 * 60;

/// Minutes in the paper's year-long trace (Figure 4's x axis runs to
/// roughly 500 000 minutes).
pub const YEAR_MINUTES: u64 = 500_000;

/// A site: the pool topology the simulator instantiates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSpec {
    /// Pool configurations, indexed by pool id.
    pub pools: Vec<PoolConfig>,
}

impl SiteSpec {
    /// The scaled stand-in for the paper's 20-pool site.
    ///
    /// Pool sizes are heterogeneous (a few big, many medium, some small,
    /// mirroring "hundreds to tens of thousands of machines"), and each
    /// pool mixes three machine shapes with varying CPU speed and memory.
    /// `scale` multiplies machine counts (minimum one per pool).
    ///
    /// # Panics
    ///
    /// Panics unless `scale > 0`.
    pub fn paper_site(scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        let pools = (0..POOL_COUNT)
            .map(|p| {
                // Pools 0-3 large, 4-13 medium, 14-19 small.
                let base: u32 = match p {
                    0..=3 => 680,
                    4..=13 => 410,
                    _ => 160,
                };
                let n = ((f64::from(base) * scale).round() as u32).max(1);
                Self::mixed_pool(PoolId(p), n)
            })
            .collect();
        SiteSpec { pools }
    }

    /// Builds one pool of `n` machines in the site's standard 70/20/10 mix
    /// of machine shapes.
    fn mixed_pool(id: PoolId, n: u32) -> PoolConfig {
        let machines = (0..n)
            .map(|i| {
                // Deterministic interleaving of the three shapes.
                match i % 10 {
                    0 | 1 => MachineConfig::new(MachineId(i), 8, 32_768).with_speed_milli(1100),
                    2 => MachineConfig::new(MachineId(i), 2, 8_192).with_speed_milli(800),
                    _ => MachineConfig::new(MachineId(i), 4, 16_384),
                }
            })
            .collect();
        PoolConfig { id, machines }
    }

    /// Total cores at the site.
    pub fn total_cores(&self) -> u32 {
        self.pools.iter().map(PoolConfig::total_cores).sum()
    }

    /// The paper's high-load transform: every machine's cores halved.
    pub fn halved(&self) -> SiteSpec {
        SiteSpec {
            pools: self.pools.iter().map(PoolConfig::halved_cores).collect(),
        }
    }
}

/// All workload knobs, with paper-calibrated defaults. Constructing
/// scenario variants = tweaking fields before [`ScenarioParams::build_workload`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParams {
    /// Capacity/arrival scale factor (1.0 = paper size, 248k jobs/week).
    pub scale: f64,
    /// Trace window length in minutes.
    pub horizon: u64,
    /// Low-priority background arrival rate at scale 1.0 (jobs/min).
    pub low_rate: f64,
    /// Number of background priority classes. 1 reproduces the paper's
    /// two-class (owner vs borrowed) world; more levels split the
    /// background rate across ownership classes at priorities 0, 2, 4, …
    /// which preempt each other at saturated pools.
    pub low_priority_levels: u8,
    /// Median of the low-priority runtime body (minutes).
    pub low_runtime_median: f64,
    /// Sigma of the low-priority runtime body.
    pub low_runtime_sigma: f64,
    /// Weight of the Pareto runtime tail.
    pub tail_weight: f64,
    /// Number of independent high-priority burst streams (owner groups).
    pub high_streams: usize,
    /// Per-stream quiet arrival rate at scale 1.0 (jobs/min).
    pub high_quiet_rate: f64,
    /// Per-stream burst arrival rate at scale 1.0 (jobs/min).
    pub high_burst_rate: f64,
    /// Mean quiet-phase length (minutes).
    pub high_quiet_len: f64,
    /// Mean burst-phase length (minutes).
    pub high_burst_len: f64,
    /// Median high-priority runtime (minutes).
    pub high_runtime_median: f64,
    /// Pools each high-priority owner group is pinned to.
    pub high_affinity_pools: u16,
    /// Explicit pool subsets per owner group (cycled if fewer than
    /// `high_streams`). `None` derives consecutive subsets of
    /// `high_affinity_pools` pools spread evenly across the site. The
    /// paper's latency-sensitive bursts are "configured to only run in
    /// specific sets of physical pools"; presets pin one large + one
    /// medium pool per group so bursts saturate without drowning.
    pub high_affinity_sets: Option<Vec<Vec<u16>>>,
    /// RNG seed for trace generation.
    pub seed: u64,
}

impl ScenarioParams {
    /// The paper's normal-load week at the given scale.
    pub fn normal_week(scale: f64) -> Self {
        ScenarioParams {
            scale,
            horizon: WEEK_MINUTES,
            low_rate: 17.0,
            low_priority_levels: 1,
            low_runtime_median: 200.0,
            low_runtime_sigma: 1.1,
            tail_weight: 0.02,
            high_streams: 4,
            high_quiet_rate: 0.05,
            high_burst_rate: 8.0,
            high_quiet_len: 5000.0,
            high_burst_len: 700.0,
            high_runtime_median: 300.0,
            high_affinity_pools: 2,
            // Pool 3 (large) and the small pools are never burst targets:
            // they are the capacity rescheduling can escape to.
            high_affinity_sets: Some(vec![vec![0, 4], vec![1, 6], vec![2, 8], vec![0, 10]]),
            seed: 20_101_108, // the conference date
        }
    }

    /// The §3.2.1 high-suspension variant: the same site, but high-priority
    /// owner groups submit much heavier bursts, driving the suspend rate
    /// from ~1% to the ~14% regime the paper probes.
    pub fn high_suspension_week(scale: f64) -> Self {
        ScenarioParams {
            low_rate: 30.0,
            low_priority_levels: 4,
            high_streams: 4,
            high_burst_rate: 8.0,
            high_burst_len: 1000.0,
            high_quiet_len: 2000.0,
            high_runtime_median: 200.0,
            high_affinity_pools: 5,
            high_affinity_sets: None,
            ..ScenarioParams::normal_week(scale)
        }
    }

    /// A year-long trace for the Figure 2/4 analyses. Runs at a reduced
    /// default scale so half a million simulated minutes stay tractable.
    pub fn year(scale: f64) -> Self {
        ScenarioParams {
            horizon: YEAR_MINUTES,
            ..ScenarioParams::normal_week(scale)
        }
    }

    /// Expected number of generated jobs.
    pub fn expected_jobs(&self) -> f64 {
        let high_rate = {
            let b = self.high_burst();
            b.rate() * self.high_streams as f64
        };
        (self.low_rate * self.scale + high_rate) * self.horizon as f64
    }

    fn high_burst(&self) -> BurstArrivals {
        BurstArrivals::new(
            (self.high_quiet_rate * self.scale).max(1e-9),
            (self.high_burst_rate * self.scale).max(2e-9),
            self.high_quiet_len,
            self.high_burst_len,
        )
    }

    /// Builds the workload spec (streams + window).
    pub fn build_workload(&self) -> WorkloadSpec {
        let mut spec = WorkloadSpec::new(0, self.horizon);
        // Low-priority background: any pool, heavy-tailed runtimes.
        let low_runtime = Mixture::new(
            LogNormal::with_median(self.low_runtime_median, self.low_runtime_sigma),
            Pareto::new(2_000.0, 1.5),
            self.tail_weight,
        );
        let levels = self.low_priority_levels.max(1);
        for level in 0..levels {
            let low = JobClass::new(
                format!("background-p{}", level * 2),
                level * 2,
                Box::new(low_runtime.clone()),
            )
            .with_cores(WeightedChoice::new(&[
                (1.0, 0.75),
                (2.0, 0.20),
                (4.0, 0.05),
            ]))
            .with_memory(WeightedChoice::new(&[
                (512.0, 0.3),
                (2048.0, 0.5),
                (6144.0, 0.2),
            ]));
            spec = spec.stream(Stream::new(
                low,
                Box::new(PoissonArrivals::new(
                    self.low_rate * self.scale / f64::from(levels),
                )),
            ));
        }
        // High-priority owner groups: each pinned to a small pool subset,
        // staggered so their bursts are independent.
        for g in 0..self.high_streams {
            let pools: Vec<u16> = match &self.high_affinity_sets {
                Some(sets) if !sets.is_empty() => sets[g % sets.len()].clone(),
                _ => {
                    let stride = (POOL_COUNT / (self.high_streams as u16).max(1)).max(1);
                    let first_pool = ((g as u16) * stride) % POOL_COUNT;
                    (0..self.high_affinity_pools)
                        .map(|k| (first_pool + k) % POOL_COUNT)
                        .collect()
                }
            };
            let runtime = LogNormal::with_median(self.high_runtime_median, 1.0);
            let class = JobClass::new(format!("owner-group-{g}"), 10, Box::new(runtime))
                .with_cores(WeightedChoice::new(&[(1.0, 0.8), (2.0, 0.2)]))
                .with_memory(WeightedChoice::new(&[(1024.0, 0.6), (4096.0, 0.4)]))
                .with_affinity(PoolAffinity::from_ids(&pools));
            spec = spec.stream(Stream::new(class, Box::new(self.high_burst())));
        }
        spec
    }

    /// Generates the trace for these parameters.
    pub fn generate_trace(&self) -> Trace {
        self.build_workload().generate(self.seed)
    }

    /// Builds the matching site at the same scale.
    pub fn build_site(&self) -> SiteSpec {
        SiteSpec::paper_site(self.scale)
    }
}

/// A pool-decomposable scenario: N uniform pools, each fed only by streams
/// pinned to it. This is the shape the streaming kernel
/// parallelizes perfectly — no cross-pool affinity, so every pool's dynamics
/// are independent — and the shape perfbench's `stream_pools` workload, the
/// streaming memory-flatness test and the year-scale CLI runs use. Streams
/// are emitted in ascending pool order, satisfying
/// [`WorkloadSpec::validate_pool_major`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerPoolParams {
    /// Number of pools (and of low-priority streams).
    pub pools: u16,
    /// Machines per pool before scaling.
    pub machines_per_pool: u32,
    /// Cores per machine.
    pub cores_per_machine: u32,
    /// Memory per machine (MB).
    pub memory_mb: u64,
    /// Low-priority Poisson arrival rate per pool at scale 1.0 (jobs/min).
    pub rate_per_pool: f64,
    /// Capacity/arrival scale factor.
    pub scale: f64,
    /// Window length in minutes.
    pub horizon: u64,
    /// Median of the runtime body (minutes).
    pub runtime_median: f64,
    /// Sigma of the runtime body.
    pub runtime_sigma: f64,
    /// Weight of the Pareto runtime tail.
    pub tail_weight: f64,
    /// When true, each pool also gets a bursty high-priority stream
    /// (quiet/burst rates scaled from the per-pool rate), so suspension
    /// paths get exercised without breaking pool independence.
    pub high_bursts: bool,
    /// RNG seed.
    pub seed: u64,
}

impl PerPoolParams {
    /// The streaming benchmark calibration: 96 machines × 4 cores per pool,
    /// 0.5 jobs/min/pool, normal-week runtime shape.
    pub fn new(pools: u16, scale: f64, horizon: u64) -> Self {
        assert!(pools > 0, "need at least one pool");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        PerPoolParams {
            pools,
            machines_per_pool: 96,
            cores_per_machine: 4,
            memory_mb: 8_192,
            rate_per_pool: 0.50,
            scale,
            horizon,
            runtime_median: 200.0,
            runtime_sigma: 1.1,
            tail_weight: 0.02,
            high_bursts: false,
            seed: 20_101_108,
        }
    }

    /// Adds a per-pool high-priority burst stream.
    pub fn with_high_bursts(mut self) -> Self {
        self.high_bursts = true;
        self
    }

    /// Builds the uniform site.
    pub fn build_site(&self) -> SiteSpec {
        let machines = ((f64::from(self.machines_per_pool) * self.scale).round() as u32).max(1);
        SiteSpec {
            pools: (0..self.pools)
                .map(|p| {
                    PoolConfig::uniform(PoolId(p), machines, self.cores_per_machine, self.memory_mb)
                })
                .collect(),
        }
    }

    /// Builds the workload: per pool, one pinned low-priority stream and —
    /// with [`Self::with_high_bursts`] — one pinned bursty stream.
    pub fn build_workload(&self) -> WorkloadSpec {
        let mut spec = WorkloadSpec::new(0, self.horizon);
        let runtime = Mixture::new(
            LogNormal::with_median(self.runtime_median, self.runtime_sigma),
            Pareto::new(2_000.0, 1.5),
            self.tail_weight,
        );
        for p in 0..self.pools {
            let low = JobClass::new(format!("pool{p}-low"), 0, Box::new(runtime.clone()))
                .with_cores(WeightedChoice::new(&[
                    (1.0, 0.75),
                    (2.0, 0.20),
                    (4.0, 0.05),
                ]))
                .with_memory(WeightedChoice::new(&[
                    (512.0, 0.3),
                    (2048.0, 0.5),
                    (6144.0, 0.2),
                ]))
                .with_affinity(PoolAffinity::from_ids(&[p]));
            spec = spec.stream(Stream::new(
                low,
                Box::new(PoissonArrivals::new(self.rate_per_pool * self.scale)),
            ));
            if self.high_bursts {
                let high = JobClass::new(format!("pool{p}-high"), 10, Box::new(runtime.clone()))
                    .with_cores(WeightedChoice::new(&[(1.0, 0.8), (2.0, 0.2)]))
                    .with_memory(WeightedChoice::new(&[(1024.0, 0.6), (4096.0, 0.4)]))
                    .with_affinity(PoolAffinity::from_ids(&[p]));
                spec = spec.stream(Stream::new(
                    high,
                    Box::new(BurstArrivals::new(
                        (0.02 * self.rate_per_pool * self.scale).max(1e-9),
                        (3.0 * self.rate_per_pool * self.scale).max(2e-9),
                        3_000.0,
                        400.0,
                    )),
                ));
            }
        }
        spec
    }

    /// Expected number of generated jobs (for memory-bound sanity checks).
    pub fn expected_jobs(&self) -> f64 {
        self.build_workload()
            .streams
            .iter()
            .map(|s| s.arrivals.rate())
            .sum::<f64>()
            * self.horizon as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_has_twenty_heterogeneous_pools() {
        let site = SiteSpec::paper_site(1.0);
        assert_eq!(site.pools.len(), POOL_COUNT as usize);
        // Pools differ in size.
        let sizes: Vec<usize> = site.pools.iter().map(|p| p.machines.len()).collect();
        assert!(sizes[0] > sizes[10] && sizes[10] > sizes[19]);
        // Mixed machine shapes exist.
        let pool = &site.pools[0];
        let cores: std::collections::HashSet<u32> = pool.machines.iter().map(|m| m.cores).collect();
        assert!(cores.contains(&2) && cores.contains(&4) && cores.contains(&8));
    }

    #[test]
    fn scale_shrinks_site_proportionally() {
        let full = SiteSpec::paper_site(1.0);
        let tenth = SiteSpec::paper_site(0.1);
        let ratio = f64::from(tenth.total_cores()) / f64::from(full.total_cores());
        assert!((ratio - 0.1).abs() < 0.02, "core ratio {ratio}");
    }

    #[test]
    fn halved_site_has_half_the_cores() {
        let site = SiteSpec::paper_site(0.2);
        let halved = site.halved();
        let ratio = f64::from(halved.total_cores()) / f64::from(site.total_cores());
        assert!((0.45..=0.55).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn normal_week_job_count_matches_paper_scale() {
        let params = ScenarioParams::normal_week(1.0);
        let expected = params.expected_jobs();
        // The paper's busy week contains 248 000 jobs.
        assert!(
            (200_000.0..300_000.0).contains(&expected),
            "expected jobs {expected}"
        );
    }

    #[test]
    fn small_scale_trace_generates_quickly_and_matches_expectation() {
        let params = ScenarioParams::normal_week(0.02);
        let trace = params.generate_trace();
        let expected = params.expected_jobs();
        let actual = trace.len() as f64;
        assert!(
            (actual / expected - 1.0).abs() < 0.25,
            "actual {actual} vs expected {expected}"
        );
        // High-priority jobs exist and are pool-restricted.
        let high: Vec<_> = trace.iter().filter(|r| r.priority == 10).collect();
        assert!(!high.is_empty());
        assert!(high.iter().all(|r| !r.affinity.pools().is_empty()));
    }

    #[test]
    fn offered_load_targets_forty_percent_utilization() {
        let params = ScenarioParams::normal_week(0.05);
        let offered = params.build_workload().offered_cores();
        let capacity = f64::from(params.build_site().total_cores());
        let util = offered / capacity;
        assert!(
            (0.25..0.60).contains(&util),
            "expected ~40% offered utilization, got {util:.2}"
        );
    }

    #[test]
    fn high_suspension_week_is_heavier() {
        let normal = ScenarioParams::normal_week(0.05);
        let heavy = ScenarioParams::high_suspension_week(0.05);
        assert!(heavy.expected_jobs() > normal.expected_jobs());
        let ho = heavy.build_workload().offered_cores();
        let no = normal.build_workload().offered_cores();
        assert!(ho > no);
    }

    #[test]
    fn year_horizon() {
        let params = ScenarioParams::year(0.05);
        assert_eq!(params.horizon, YEAR_MINUTES);
    }

    #[test]
    fn traces_are_reproducible() {
        let p = ScenarioParams::normal_week(0.01);
        assert_eq!(p.generate_trace(), p.generate_trace());
    }

    #[test]
    fn per_pool_scenario_is_pool_major_and_calibrated() {
        let params = PerPoolParams::new(8, 0.25, 2_000).with_high_bursts();
        let spec = params.build_workload();
        spec.validate_pool_major(params.pools).expect("pool-major");
        let site = params.build_site();
        assert_eq!(site.pools.len(), 8);
        // Without the burst lane the offered load sits below saturation
        // (the burst variant intentionally saturates to drive suspensions).
        let calm = PerPoolParams::new(8, 0.25, 2_000).build_workload();
        let util = calm.offered_cores() / f64::from(site.total_cores());
        assert!((0.2..1.0).contains(&util), "offered utilization {util:.2}");
        // Expected job count tracks the configured rates.
        let trace = spec.generate(params.seed);
        let expected = params.expected_jobs();
        let actual = trace.len() as f64;
        assert!(
            (actual / expected - 1.0).abs() < 0.3,
            "actual {actual} vs expected {expected}"
        );
    }
}
