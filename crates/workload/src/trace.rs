//! The trace model: the portable record format standing in for NetBatch's
//! proprietary job-execution traces.
//!
//! A [`TraceRecord`] carries exactly what the paper says its trace carries
//! ("the complete information of the jobs submitted to the site …, including
//! computing resource and memory requirements, submission time and
//! priority") plus the pool-affinity sets §2.3 describes. Real traces with
//! this schema can be swapped in through [`crate::io`].

use netbatch_cluster::ids::{JobId, TaskId};
use netbatch_cluster::job::{JobSpec, PoolAffinity};
use netbatch_cluster::priority::Priority;
use netbatch_sim_engine::time::{SimDuration, SimTime};

/// One submitted job in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Submission minute (site-relative).
    pub submit_minute: u64,
    /// Pure compute requirement in reference-machine minutes.
    pub runtime_minutes: u64,
    /// Cores required.
    pub cores: u32,
    /// Memory required in MB.
    pub memory_mb: u64,
    /// Priority level (0 = low; ≥ 10 = the paper's high class).
    pub priority: u8,
    /// Eligible pools: the generating class's shared set, or one set
    /// shared by every record that lists the same pools in a trace file.
    pub affinity: PoolAffinity,
    /// Optional task group.
    pub task: Option<u32>,
}

impl TraceRecord {
    /// Converts the record into a [`JobSpec`] with the given id. The spec
    /// shares the record's affinity set, so this never allocates.
    pub fn to_spec(&self, id: JobId) -> JobSpec {
        let mut spec = JobSpec::new(
            id,
            SimTime::from_minutes(self.submit_minute),
            SimDuration::from_minutes(self.runtime_minutes),
        )
        .with_priority(Priority::new(self.priority))
        .with_cores(self.cores)
        .with_memory_mb(self.memory_mb)
        .with_affinity(self.affinity.clone());
        if let Some(task) = self.task {
            spec = spec.with_task(TaskId(task));
        }
        spec
    }
}

/// A submission-time-ordered collection of trace records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from records, sorting them by submission time
    /// (stable, so same-minute records keep their relative order) unless
    /// they already are, as generated weeks are: the sort's scratch buffer
    /// can be as large as the trace.
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        if !records.is_sorted_by_key(|r| r.submit_minute) {
            records.sort_by_key(|r| r.submit_minute);
        }
        Trace { records }
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if the record is earlier than the last one — traces are kept
    /// submission-ordered.
    pub fn push(&mut self, record: TraceRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                record.submit_minute >= last.submit_minute,
                "trace records must be submission-ordered; use from_records to sort"
            );
        }
        self.records.push(record);
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace has no jobs.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in submission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterates records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// First submission minute, `None` if empty.
    pub fn start_minute(&self) -> Option<u64> {
        self.records.first().map(|r| r.submit_minute)
    }

    /// Last submission minute, `None` if empty.
    pub fn end_minute(&self) -> Option<u64> {
        self.records.last().map(|r| r.submit_minute)
    }

    /// Total offered compute demand in core-minutes — the numerator of the
    /// utilization estimate used to calibrate scenarios.
    pub fn total_core_minutes(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.runtime_minutes * u64::from(r.cores))
            .sum()
    }

    /// Materializes dense-id job specs, in submission order.
    pub fn to_specs(&self) -> Vec<JobSpec> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| r.to_spec(JobId(i as u64)))
            .collect()
    }

    /// Keeps only jobs submitted within `[from, to)` minutes — how the
    /// paper carves its one-week busy window (submission minutes 76 000 to
    /// 86 080) out of the year trace.
    pub fn window(&self, from: u64, to: u64) -> Trace {
        Trace {
            records: self
                .records
                .iter()
                .filter(|r| (from..to).contains(&r.submit_minute))
                .cloned()
                .collect(),
        }
    }

    /// Rebases submission times so the earliest job submits at minute 0.
    pub fn rebased(&self) -> Trace {
        let Some(start) = self.start_minute() else {
            return Trace::new();
        };
        Trace {
            records: self
                .records
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.submit_minute -= start;
                    r
                })
                .collect(),
        }
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Self {
        Trace::from_records(iter.into_iter().collect())
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<T: IntoIterator<Item = TraceRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
        self.records.sort_by_key(|r| r.submit_minute);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::ids::PoolId;
    use std::sync::Arc;

    fn rec(submit: u64, runtime: u64) -> TraceRecord {
        TraceRecord {
            submit_minute: submit,
            runtime_minutes: runtime,
            cores: 1,
            memory_mb: 1024,
            priority: 0,
            affinity: PoolAffinity::Any,
            task: None,
        }
    }

    #[test]
    fn from_records_sorts_by_submission() {
        let t = Trace::from_records(vec![rec(50, 1), rec(10, 1), rec(30, 1)]);
        let minutes: Vec<u64> = t.iter().map(|r| r.submit_minute).collect();
        assert_eq!(minutes, vec![10, 30, 50]);
        assert_eq!(t.start_minute(), Some(10));
        assert_eq!(t.end_minute(), Some(50));
    }

    #[test]
    fn push_enforces_order() {
        let mut t = Trace::new();
        t.push(rec(5, 1));
        t.push(rec(5, 2));
        t.push(rec(9, 1));
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "submission-ordered")]
    fn out_of_order_push_panics() {
        let mut t = Trace::new();
        t.push(rec(9, 1));
        t.push(rec(5, 1));
    }

    #[test]
    fn window_selects_half_open_range() {
        let t = Trace::from_records((0..100).map(|m| rec(m, 1)).collect());
        let w = t.window(10, 20);
        assert_eq!(w.len(), 10);
        assert_eq!(w.start_minute(), Some(10));
        assert_eq!(w.end_minute(), Some(19));
    }

    #[test]
    fn rebase_shifts_to_zero() {
        let t = Trace::from_records(vec![rec(100, 1), rec(150, 1)]);
        let r = t.rebased();
        assert_eq!(r.start_minute(), Some(0));
        assert_eq!(r.end_minute(), Some(50));
        assert!(Trace::new().rebased().is_empty());
    }

    #[test]
    fn demand_accounting() {
        let mut a = rec(0, 100);
        a.cores = 4;
        let t = Trace::from_records(vec![a, rec(1, 50)]);
        assert_eq!(t.total_core_minutes(), 450);
    }

    #[test]
    fn to_specs_assigns_dense_ids_and_converts_fields() {
        let mut r = rec(7, 42);
        r.priority = 10;
        r.affinity = PoolAffinity::from_ids(&[1, 3]);
        r.task = Some(9);
        let t = Trace::from_records(vec![rec(3, 1), r]);
        let specs = t.to_specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].id, JobId(0));
        assert_eq!(specs[1].id, JobId(1));
        assert_eq!(specs[1].priority, Priority::HIGH);
        assert_eq!(specs[1].task, Some(TaskId(9)));
        assert!(specs[1].affinity.allows(PoolId(3)));
        assert!(!specs[1].affinity.allows(PoolId(0)));
        assert!(specs[0].affinity.allows(PoolId(0)));
    }

    #[test]
    fn specs_share_their_records_affinity_set() {
        let set = PoolAffinity::from_ids(&[2]);
        let records: Vec<TraceRecord> = (0..3)
            .map(|m| TraceRecord {
                affinity: set.clone(),
                ..rec(m, 5)
            })
            .collect();
        let specs = Trace::from_records(records.clone()).to_specs();
        let PoolAffinity::Subset(class_set) = &set else {
            panic!("one-pool subset")
        };
        for (r, s) in records.iter().zip(&specs) {
            for affinity in [&r.affinity, &s.affinity] {
                let PoolAffinity::Subset(pools) = affinity else {
                    panic!("subset affinity")
                };
                assert!(Arc::ptr_eq(pools, class_set));
            }
        }
    }
}
