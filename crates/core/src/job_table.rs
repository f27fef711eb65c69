//! The serial kernel's job records.
//!
//! Until the run starts the table holds the caller's specs and no
//! records. At run start it takes one of two shapes, decided by whether
//! any observer is attached:
//!
//! * **Dense** (observed runs): one record per job, indexed by id, built
//!   from the specs up front and kept for the whole run. This is the
//!   table [`ObsCtx::jobs`](crate::observer::ObsCtx::jobs) exposes.
//! * **In flight** (unobserved runs): a record exists from its job's
//!   submission until the kernel retires it, in a slab addressed through
//!   a per-id `u32` slot. A retired record's entry is reused by the next
//!   submission, most recent first, so the slab stays as large as the
//!   most jobs ever in flight at once and the reused entry is still in
//!   cache. Memory then follows the in-flight jobs, not the trace.
//!
//! Both shapes answer the same id-indexed accessors, so the kernel reads
//! and writes records the same way in either.

use std::ops::{Index, IndexMut};

use netbatch_cluster::ids::JobId;
use netbatch_cluster::job::{JobRecord, JobSpec};
use netbatch_sim_engine::time::SimTime;

/// The slot of a job with no record in the slab.
const VACANT: u32 = u32::MAX;

#[derive(Debug, Default)]
pub(crate) struct JobTable {
    /// The caller's specs, by id. An in-flight table makes each record
    /// from its spec at submission; a dense one moves them all into
    /// `records` at run start.
    specs: Vec<JobSpec>,
    /// Dense: every record, by id. In flight: the records of the jobs
    /// submitted and not yet retired, in no particular order, and the
    /// retired records whose entries `free` lists.
    records: Vec<JobRecord>,
    /// In flight only: each id's index into `records`, or [`VACANT`].
    slot: Vec<u32>,
    /// In flight only: entries of `records` whose jobs have retired.
    free: Vec<u32>,
    dense: bool,
}

impl JobTable {
    /// A table over the caller's specs (ids `0..n`, checked by the caller).
    pub(crate) fn new(specs: Vec<JobSpec>) -> Self {
        JobTable {
            specs,
            ..JobTable::default()
        }
    }

    /// A dense table over records that already exist (an observed
    /// streaming run's finished jobs, by id).
    pub(crate) fn dense(records: Vec<JobRecord>) -> Self {
        JobTable {
            records,
            dense: true,
            ..JobTable::default()
        }
    }

    /// The caller's specs, before the run starts.
    pub(crate) fn specs(&self) -> &[JobSpec] {
        &self.specs
    }

    /// Picks the table's shape at run start: dense when the run is
    /// observed, in flight otherwise.
    pub(crate) fn open(&mut self, observed: bool) {
        if observed {
            self.records = std::mem::take(&mut self.specs)
                .into_iter()
                .map(JobRecord::new)
                .collect();
            self.dense = true;
        } else {
            let n = u32::try_from(self.specs.len()).expect("fewer than 2^32 jobs");
            self.slot = vec![VACANT; n as usize];
        }
    }

    /// Whether records are kept for observers.
    pub(crate) fn is_dense(&self) -> bool {
        self.dense
    }

    /// The dense table observers read; empty while records only exist in
    /// flight.
    pub(crate) fn observed(&self) -> &[JobRecord] {
        if self.dense {
            &self.records
        } else {
            &[]
        }
    }

    /// The submission time of one of the caller's jobs.
    pub(crate) fn submit_time(&self, id: JobId) -> SimTime {
        match self.specs.get(id.as_usize()) {
            Some(spec) => spec.submit_time,
            None => self.records[id.as_usize()].spec().submit_time,
        }
    }

    /// The record of a job being submitted: made from its spec in an
    /// in-flight table, already there in a dense one.
    pub(crate) fn admit(&mut self, id: JobId) -> &mut JobRecord {
        if !self.dense {
            let record = JobRecord::new(self.specs[id.as_usize()].clone());
            self.slot[id.as_usize()] = self.place(record);
        }
        &mut self[id]
    }

    /// Stores an in-flight record in a retired entry, or a new one.
    fn place(&mut self, record: JobRecord) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.records[i as usize] = record;
                i
            }
            None => {
                let i = u32::try_from(self.records.len())
                    .ok()
                    .filter(|&i| i != VACANT)
                    .expect("fewer than 2^32 - 1 jobs in flight");
                self.records.push(record);
                i
            }
        }
    }

    /// Adds the record of a job made during the run (a duplicate copy),
    /// whose id must be the next one.
    pub(crate) fn push(&mut self, record: JobRecord) {
        if self.dense {
            assert_eq!(record.id().as_usize(), self.records.len(), "ids stay dense");
            self.records.push(record);
        } else {
            assert_eq!(record.id().as_usize(), self.slot.len(), "ids stay dense");
            let i = self.place(record);
            self.slot.push(i);
        }
    }

    /// The job's record, if the table holds one.
    pub(crate) fn get(&self, id: JobId) -> Option<&JobRecord> {
        let i = self.held(id)?;
        self.records.get(i)
    }

    /// The entry of the job's record, if the table holds one.
    fn held(&self, id: JobId) -> Option<usize> {
        if self.dense {
            return Some(id.as_usize());
        }
        match self.slot.get(id.as_usize()) {
            Some(&i) if i != VACANT => Some(i as usize),
            _ => None,
        }
    }

    /// The entry of a job's record. A vacant slot is past the end of
    /// `records`, so indexing with it panics.
    fn entry(&self, id: JobId) -> usize {
        if self.dense {
            id.as_usize()
        } else {
            self.slot[id.as_usize()] as usize
        }
    }

    /// Drops a retired job's record from an in-flight table; its entry
    /// goes to the next submission.
    pub(crate) fn remove(&mut self, id: JobId) {
        debug_assert!(!self.dense, "a dense table keeps its records");
        let slot = &mut self.slot[id.as_usize()];
        assert_ne!(*slot, VACANT, "removing a tracked job");
        self.free.push(std::mem::replace(slot, VACANT));
    }

    /// The records still held, consuming the table: every record by id
    /// when dense, the unretired ones otherwise.
    pub(crate) fn into_records(mut self) -> Vec<JobRecord> {
        if !self.dense && !self.free.is_empty() {
            let slot = &self.slot;
            let mut i = 0;
            self.records.retain(|r| {
                i += 1;
                slot[r.id().as_usize()] as usize == i - 1
            });
        }
        self.records
    }
}

impl Index<JobId> for JobTable {
    type Output = JobRecord;

    fn index(&self, id: JobId) -> &JobRecord {
        &self.records[self.entry(id)]
    }
}

impl IndexMut<JobId> for JobTable {
    fn index_mut(&mut self, id: JobId) -> &mut JobRecord {
        let i = self.entry(id);
        &mut self.records[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::job::JobPhase;
    use netbatch_sim_engine::time::SimDuration;

    fn specs(n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec::new(JobId(i), SimTime::from_minutes(i), SimDuration::MINUTE))
            .collect()
    }

    #[test]
    fn in_flight_table_holds_only_admitted_jobs() {
        let mut table = JobTable::new(specs(4));
        table.open(false);
        assert!(table.observed().is_empty());
        assert_eq!(table.submit_time(JobId(2)), SimTime::from_minutes(2));
        for id in [2, 0, 3] {
            table
                .admit(JobId(id))
                .submit(SimTime::from_minutes(id))
                .unwrap();
        }
        assert!(table.get(JobId(1)).is_none());
        table.remove(JobId(2));
        assert!(table.get(JobId(2)).is_none());
        assert_eq!(table[JobId(3)].id(), JobId(3));
        assert_eq!(table[JobId(0)].id(), JobId(0));
        // The next record takes the retired one's entry.
        table.push(JobRecord::new(specs(5).pop().unwrap()));
        assert_eq!(table[JobId(4)].id(), JobId(4));
        assert_eq!(table.records.len(), 3);
        let mut left: Vec<_> = table.into_records().iter().map(JobRecord::id).collect();
        left.sort();
        assert_eq!(left, [JobId(0), JobId(3), JobId(4)]);
    }

    #[test]
    fn dense_table_holds_every_job_by_id() {
        let mut table = JobTable::new(specs(3));
        table.open(true);
        assert!(table.specs().is_empty(), "specs moved into the records");
        assert_eq!(table.observed().len(), 3);
        assert_eq!(table.submit_time(JobId(1)), SimTime::from_minutes(1));
        table
            .admit(JobId(1))
            .submit(SimTime::from_minutes(1))
            .unwrap();
        assert_eq!(table.observed()[1].phase(), JobPhase::AtVpm);
    }
}
