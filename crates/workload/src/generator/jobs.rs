//! Job classes: everything about a generated job except its arrival time.

use std::fmt;

use netbatch_cluster::job::PoolAffinity;
use netbatch_sim_engine::rng::DetRng;

use crate::distributions::{Distribution, WeightedChoice};
use crate::trace::TraceRecord;

/// A population of statistically identical jobs (one priority class with
/// shared runtime/footprint/affinity distributions).
pub struct JobClass {
    /// Human-readable label (appears in analysis output).
    pub name: String,
    /// Priority level for every job in the class.
    pub priority: u8,
    /// Runtime distribution in minutes; samples are rounded to whole
    /// minutes with a 1-minute floor.
    pub runtime: Box<dyn Distribution + Send + Sync>,
    /// Core-count distribution.
    pub cores: WeightedChoice,
    /// Memory distribution in MB.
    pub memory_mb: WeightedChoice,
    /// The pools every job of the class may run in: one shared set, which
    /// each generated record points at.
    pub affinity: PoolAffinity,
    /// If set, consecutive jobs of this class are grouped into tasks of
    /// this size (the §2.2 "task" unit used by the campaign example).
    pub task_size: Option<u32>,
    /// Runtime samples are capped here to keep a single job from outliving
    /// any reasonable simulation horizon (the paper's trace itself is
    /// truncated at the one-year boundary).
    pub max_runtime: u64,
}

impl JobClass {
    /// Creates a class with the given name, priority and runtime
    /// distribution; footprint defaults to 1 core / 1 GB, affinity `Any`.
    pub fn new(
        name: impl Into<String>,
        priority: u8,
        runtime: Box<dyn Distribution + Send + Sync>,
    ) -> Self {
        JobClass {
            name: name.into(),
            priority,
            runtime,
            cores: WeightedChoice::new(&[(1.0, 1.0)]),
            memory_mb: WeightedChoice::new(&[(1024.0, 1.0)]),
            affinity: PoolAffinity::Any,
            task_size: None,
            max_runtime: 200_000,
        }
    }

    /// Sets the core-count distribution.
    pub fn with_cores(mut self, cores: WeightedChoice) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the memory distribution.
    pub fn with_memory(mut self, memory_mb: WeightedChoice) -> Self {
        self.memory_mb = memory_mb;
        self
    }

    /// Restricts every job of the class to `affinity`.
    pub fn with_affinity(mut self, affinity: PoolAffinity) -> Self {
        self.affinity = affinity;
        self
    }

    /// Groups the class's jobs into tasks of `size` consecutive jobs.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn with_task_size(mut self, size: u32) -> Self {
        assert!(size > 0, "task size must be positive");
        self.task_size = Some(size);
        self
    }

    /// Instantiates the `seq`-th job of this class, arriving at
    /// `submit_minute`. `task_base` offsets task ids so different classes
    /// never collide.
    pub fn instantiate(
        &self,
        rng: &mut DetRng,
        seq: u64,
        submit_minute: u64,
        task_base: u32,
    ) -> TraceRecord {
        let runtime = (self.runtime.sample(rng).round() as u64).clamp(1, self.max_runtime);
        let task = self
            .task_size
            .map(|size| task_base + (seq / u64::from(size)) as u32);
        TraceRecord {
            submit_minute,
            runtime_minutes: runtime,
            cores: self.cores.sample(rng) as u32,
            memory_mb: self.memory_mb.sample(rng) as u64,
            priority: self.priority,
            affinity: self.affinity.clone(),
            task,
        }
    }

    /// Mean offered load of one job in core-minutes (runtime mean × mean
    /// cores), used for utilization calibration.
    pub fn mean_core_minutes(&self) -> f64 {
        self.runtime.mean().min(self.max_runtime as f64) * self.cores.mean()
    }
}

impl fmt::Debug for JobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobClass")
            .field("name", &self.name)
            .field("priority", &self.priority)
            .field("mean_runtime", &self.runtime.mean())
            .field("affinity", &self.affinity)
            .field("task_size", &self.task_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::Constant;

    fn class() -> JobClass {
        JobClass::new("test", 0, Box::new(Constant(100.0)))
    }

    #[test]
    fn instantiate_fills_fields() {
        let c = class()
            .with_cores(WeightedChoice::new(&[(2.0, 1.0)]))
            .with_memory(WeightedChoice::new(&[(2048.0, 1.0)]));
        let mut rng = DetRng::from_seed_u64(0);
        let r = c.instantiate(&mut rng, 0, 42, 0);
        assert_eq!(r.submit_minute, 42);
        assert_eq!(r.runtime_minutes, 100);
        assert_eq!(r.cores, 2);
        assert_eq!(r.memory_mb, 2048);
        assert_eq!(r.priority, 0);
        assert_eq!(r.affinity, PoolAffinity::Any);
        assert_eq!(r.task, None);
    }

    #[test]
    fn runtime_is_capped_and_floored() {
        let mut huge = class();
        huge.max_runtime = 50;
        let mut rng = DetRng::from_seed_u64(1);
        assert_eq!(huge.instantiate(&mut rng, 0, 0, 0).runtime_minutes, 50);
        let tiny = JobClass::new("t", 0, Box::new(Constant(0.0)));
        assert_eq!(tiny.instantiate(&mut rng, 0, 0, 0).runtime_minutes, 1);
    }

    #[test]
    fn task_grouping_batches_consecutive_jobs() {
        let c = class().with_task_size(3);
        let mut rng = DetRng::from_seed_u64(2);
        let tasks: Vec<Option<u32>> = (0..7)
            .map(|seq| c.instantiate(&mut rng, seq, 0, 100).task)
            .collect();
        assert_eq!(
            tasks,
            vec![
                Some(100),
                Some(100),
                Some(100),
                Some(101),
                Some(101),
                Some(101),
                Some(102)
            ]
        );
    }

    #[test]
    fn mean_core_minutes_for_calibration() {
        let c = class().with_cores(WeightedChoice::new(&[(1.0, 0.5), (3.0, 0.5)]));
        assert!((c.mean_core_minutes() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn debug_is_informative() {
        let s = format!("{:?}", class());
        assert!(s.contains("test"));
        assert!(s.contains("mean_runtime"));
    }

    #[test]
    #[should_panic(expected = "task size")]
    fn zero_task_size_rejected() {
        class().with_task_size(0);
    }
}
