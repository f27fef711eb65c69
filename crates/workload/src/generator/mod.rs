//! The synthetic trace generator: streams of job classes driven by arrival
//! processes, merged into one submission-ordered [`Trace`].
//!
//! This is the stand-in for the proprietary NetBatch trace (see DESIGN.md
//! §2, S3). Each *stream* pairs a [`JobClass`] with an
//! [`ArrivalProcess`]; every stream runs over the same window with
//! independent RNG substreams, so adding or re-parameterizing one stream
//! never perturbs another. [`TraceStream`] merges the streams lazily; a
//! materialized [`Trace`] is that stream drained.

pub mod arrivals;
pub mod jobs;

use crate::stream::TraceStream;
use crate::trace::Trace;

pub use arrivals::{ArrivalProcess, BurstArrivals, PoissonArrivals};
pub use jobs::JobClass;

/// One workload stream: a class of jobs and the process that submits them.
#[derive(Debug)]
pub struct Stream {
    /// The job population.
    pub class: JobClass,
    /// When its jobs arrive.
    pub arrivals: Box<dyn ArrivalProcess + Send + Sync>,
}

impl Stream {
    /// Pairs a class with an arrival process.
    pub fn new(class: JobClass, arrivals: Box<dyn ArrivalProcess + Send + Sync>) -> Self {
        Stream { class, arrivals }
    }

    /// Expected offered load of this stream in core-minutes per minute
    /// (i.e. the mean number of cores it keeps busy).
    pub fn offered_cores(&self) -> f64 {
        self.arrivals.rate() * self.class.mean_core_minutes()
    }
}

/// A complete workload description: streams over a common time window.
#[derive(Debug)]
pub struct WorkloadSpec {
    /// The streams to generate.
    pub streams: Vec<Stream>,
    /// Window start (minutes).
    pub start: u64,
    /// Window end (minutes, exclusive).
    pub end: u64,
}

impl WorkloadSpec {
    /// Creates a workload over `[start, end)` minutes.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start < end, "workload window must be non-empty");
        WorkloadSpec {
            streams: Vec::new(),
            start,
            end,
        }
    }

    /// Adds a stream.
    pub fn stream(mut self, stream: Stream) -> Self {
        self.streams.push(stream);
        self
    }

    /// Expected total offered load in mean busy cores — divide by site
    /// capacity for the expected utilization, the paper's calibration
    /// target (~40% normal load).
    pub fn offered_cores(&self) -> f64 {
        self.streams.iter().map(Stream::offered_cores).sum()
    }

    /// Generates the trace: the drained [`TraceStream`] of the spec.
    /// Deterministic in (`spec`, `seed`): every stream draws from its own
    /// substream of `seed`.
    pub fn generate(&self, seed: u64) -> Trace {
        Trace::from_records(
            TraceStream::new(self, seed)
                .map(|(_, record)| record)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::Constant;

    fn simple_spec() -> WorkloadSpec {
        WorkloadSpec::new(0, 10_000)
            .stream(Stream::new(
                JobClass::new("low", 0, Box::new(Constant(60.0))),
                Box::new(PoissonArrivals::new(0.1)),
            ))
            .stream(Stream::new(
                JobClass::new("high", 10, Box::new(Constant(30.0))),
                Box::new(BurstArrivals::new(0.01, 0.5, 2000.0, 300.0)),
            ))
    }

    #[test]
    fn generates_sorted_merged_trace() {
        let trace = simple_spec().generate(42);
        assert!(!trace.is_empty());
        let minutes: Vec<u64> = trace.iter().map(|r| r.submit_minute).collect();
        assert!(minutes.windows(2).all(|w| w[0] <= w[1]));
        // Both classes present.
        assert!(trace.iter().any(|r| r.priority == 0));
        assert!(trace.iter().any(|r| r.priority == 10));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(simple_spec().generate(7), simple_spec().generate(7));
        assert_ne!(simple_spec().generate(7), simple_spec().generate(8));
    }

    #[test]
    fn adding_a_stream_does_not_perturb_existing_ones() {
        let base = simple_spec().generate(7);
        let extended = simple_spec()
            .stream(Stream::new(
                JobClass::new("extra", 5, Box::new(Constant(10.0))),
                Box::new(PoissonArrivals::new(0.05)),
            ))
            .generate(7);
        // Every record of the base trace must appear in the extended one.
        let base_low: Vec<_> = base.iter().filter(|r| r.priority == 0).collect();
        let ext_low: Vec<_> = extended.iter().filter(|r| r.priority == 0).collect();
        assert_eq!(base_low, ext_low);
    }

    #[test]
    fn offered_cores_estimates_load() {
        let spec = WorkloadSpec::new(0, 1000).stream(Stream::new(
            JobClass::new("c", 0, Box::new(Constant(100.0))),
            Box::new(PoissonArrivals::new(0.2)),
        ));
        // 0.2 jobs/min × 100 core-minutes each = 20 busy cores on average.
        assert!((spec.offered_cores() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn task_ids_do_not_collide_across_streams() {
        let spec = WorkloadSpec::new(0, 5000)
            .stream(Stream::new(
                JobClass::new("a", 0, Box::new(Constant(10.0))).with_task_size(5),
                Box::new(PoissonArrivals::new(0.1)),
            ))
            .stream(Stream::new(
                JobClass::new("b", 1, Box::new(Constant(10.0))).with_task_size(5),
                Box::new(PoissonArrivals::new(0.1)),
            ));
        let trace = spec.generate(3);
        let a_tasks: std::collections::HashSet<u32> = trace
            .iter()
            .filter(|r| r.priority == 0)
            .filter_map(|r| r.task)
            .collect();
        let b_tasks: std::collections::HashSet<u32> = trace
            .iter()
            .filter(|r| r.priority == 1)
            .filter_map(|r| r.task)
            .collect();
        assert!(!a_tasks.is_empty() && !b_tasks.is_empty());
        assert!(a_tasks.is_disjoint(&b_tasks));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        WorkloadSpec::new(10, 10);
    }
}
