//! Job records of both kernels, in one table.
//!
//! A serial run's table holds the caller's specs and no records until
//! the run starts. It then takes one of two shapes, decided by whether
//! any observer is attached:
//!
//! * **Dense** (observed runs): one record per job, indexed by id, built
//!   from the specs up front and kept for the whole run. This is the
//!   table [`ObsCtx::jobs`](crate::observer::ObsCtx::jobs) exposes.
//! * **In flight** (unobserved runs): a record exists from its job's
//!   submission until the kernel retires it, in a slab of entries. A
//!   retired record's entry is reused by the next submission, most
//!   recent first, so the slab stays as large as the most jobs ever in
//!   flight at once and the reused entry is still in cache. Memory then
//!   follows the in-flight jobs, not the trace.
//!
//! Each streaming worker keeps an in-flight table of the jobs it
//! generates; an observed run's table keeps every record it retires, and
//! the coordinator gathers them into one dense table when the run ends.
//!
//! An in-flight table reaches a record's entry through a 4-byte index
//! per job. Which index depends on whether the ids are known up front:
//! the serial kernel's are (`0..n` from the specs, plus duplicates
//! numbered after them), so it keeps a per-id slot vector; a streaming
//! worker's are handed out as the run goes, to every shard's jobs in
//! turn, so it keeps a hash map holding only the ids in flight.
//!
//! Every shape answers the same id-indexed accessors and retires the
//! same way, so both kernels read, write and retire records alike.

use std::ops::{Index, IndexMut};

use netbatch_cluster::ids::JobId;
use netbatch_cluster::job::{JobRecord, JobSpec};
use netbatch_sim_engine::hash::IntMap;
use netbatch_sim_engine::time::SimTime;

use crate::experiment::JobTotals;

/// The slot of a job with no record in the slab.
const VACANT: u32 = u32::MAX;

/// How a table finds a job's record.
#[derive(Debug)]
enum Entries {
    /// Dense: every record sits at its id.
    ById,
    /// Each id's entry in the slab, or [`VACANT`]; one slot per id.
    Slots(Vec<u32>),
    /// The entries of the ids in the slab, for ids made during the run.
    Hashed(IntMap<JobId, u32>),
}

impl Entries {
    /// The entry of the job's record, if the table holds one.
    fn get(&self, id: JobId) -> Option<usize> {
        match self {
            Entries::ById => Some(id.as_usize()),
            Entries::Slots(slot) => match slot.get(id.as_usize()) {
                Some(&i) if i != VACANT => Some(i as usize),
                _ => None,
            },
            Entries::Hashed(map) => map.get(&id).map(|&i| i as usize),
        }
    }

    /// The entry of a job's record. A vacant slot is past the end of the
    /// slab, so indexing with it panics.
    fn entry(&self, id: JobId) -> usize {
        match self {
            Entries::ById => id.as_usize(),
            Entries::Slots(slot) => slot[id.as_usize()] as usize,
            Entries::Hashed(map) => *map.get(&id).expect("the job is in flight") as usize,
        }
    }
}

#[derive(Debug)]
pub(crate) struct JobTable {
    /// The caller's specs, by id. A serial in-flight table makes each
    /// record from its spec at submission; a dense one moves them all
    /// into `records` at run start.
    specs: Vec<JobSpec>,
    /// Dense: every record, by id. In flight: the records of the jobs
    /// submitted and not yet retired, in no particular order, and the
    /// retired records whose entries `free` lists.
    records: Vec<JobRecord>,
    entries: Entries,
    /// In flight only: entries of `records` whose jobs have retired.
    free: Vec<u32>,
    /// Retiring leaves the record where it is (observed runs, which fold
    /// every record when the run finishes).
    keep: bool,
}

impl Default for JobTable {
    fn default() -> Self {
        JobTable {
            specs: Vec::new(),
            records: Vec::new(),
            entries: Entries::Slots(Vec::new()),
            free: Vec::new(),
            keep: false,
        }
    }
}

impl JobTable {
    /// A serial run's table over the caller's specs (ids `0..n`, checked
    /// by the caller).
    pub(crate) fn new(specs: Vec<JobSpec>) -> Self {
        JobTable {
            specs,
            ..JobTable::default()
        }
    }

    /// A streaming worker's in-flight table, whose jobs come with ids
    /// made during the run. It keeps retired records when `keep`.
    pub(crate) fn streaming(keep: bool) -> Self {
        JobTable {
            entries: Entries::Hashed(IntMap::default()),
            keep,
            ..JobTable::default()
        }
    }

    /// A dense table over records that already exist (an observed
    /// streaming run's jobs), which must hold ids `0..n` in order.
    pub(crate) fn dense(records: Vec<JobRecord>) -> Self {
        for (i, record) in records.iter().enumerate() {
            assert_eq!(
                record.id().as_usize(),
                i,
                "job ids must be dense and ordered"
            );
        }
        JobTable {
            records,
            entries: Entries::ById,
            keep: true,
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
            self.entries = Entries::ById;
            self.keep = true;
        } else {
            let n = u32::try_from(self.specs.len()).expect("fewer than 2^32 jobs");
            self.entries = Entries::Slots(vec![VACANT; n as usize]);
        }
    }

    /// Whether every record sits at its id, kept for observers.
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.entries, Entries::ById)
    }

    /// The dense table observers read; empty while records only exist in
    /// flight.
    pub(crate) fn observed(&self) -> &[JobRecord] {
        if self.is_dense() {
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

    /// The record of one of the caller's jobs being submitted: made from
    /// its spec in an in-flight table, already there in a dense one.
    pub(crate) fn admit(&mut self, id: JobId) -> &mut JobRecord {
        if !self.is_dense() {
            let record = JobRecord::new(self.specs[id.as_usize()].clone());
            let i = self.place(record);
            self.link(id, i);
        }
        &mut self[id]
    }

    /// Adds the record of a job made during the run: a duplicate copy,
    /// whose id must be the next one, or a streamed job.
    pub(crate) fn push(&mut self, record: JobRecord) -> &mut JobRecord {
        let id = record.id();
        let i = if self.is_dense() {
            assert_eq!(id.as_usize(), self.records.len(), "ids stay dense");
            self.records.push(record);
            self.records.len() - 1
        } else {
            let i = self.place(record);
            if let Entries::Slots(slot) = &mut self.entries {
                assert_eq!(id.as_usize(), slot.len(), "ids stay dense");
                slot.push(VACANT);
            }
            self.link(id, i);
            i as usize
        };
        &mut self.records[i]
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

    /// Points an in-flight job's index at entry `i` (a slot-indexed
    /// table already has the job's slot).
    fn link(&mut self, id: JobId, i: u32) {
        match &mut self.entries {
            Entries::ById => unreachable!("a dense table has no index"),
            Entries::Slots(slot) => slot[id.as_usize()] = i,
            Entries::Hashed(map) => {
                let old = map.insert(id, i);
                assert!(old.is_none(), "job ids are unique");
            }
        }
    }

    /// The job's record, if the table holds one.
    pub(crate) fn get(&self, id: JobId) -> Option<&JobRecord> {
        self.records.get(self.entries.get(id)?)
    }

    /// Retires a settled job: nothing can change its record any more. A
    /// table that keeps records leaves it in place, to be folded when the
    /// run finishes. Otherwise the record is folded into `totals` where it
    /// lies (unless `totals` is `None`: a record dropped unfolded) and its
    /// entry goes to the next submission.
    pub(crate) fn retire(&mut self, id: JobId, totals: Option<&mut JobTotals>) {
        if self.keep {
            return;
        }
        let i = match &mut self.entries {
            Entries::ById => None,
            Entries::Slots(slot) => slot
                .get_mut(id.as_usize())
                .map(|s| std::mem::replace(s, VACANT))
                .filter(|&i| i != VACANT),
            Entries::Hashed(map) => map.remove(&id),
        };
        let i = i.expect("retiring a job in flight");
        if let Some(totals) = totals {
            totals.add(&self.records[i as usize]);
        }
        self.free.push(i);
    }

    /// The records still held, consuming the table: every record by id
    /// when dense, every record in a table that keeps them, the unretired
    /// ones otherwise.
    pub(crate) fn into_records(mut self) -> Vec<JobRecord> {
        if !self.free.is_empty() {
            let entries = &self.entries;
            let mut i = 0;
            self.records.retain(|r| {
                i += 1;
                entries.get(r.id()) == Some(i - 1)
            });
        }
        self.records
    }
}

impl Index<JobId> for JobTable {
    type Output = JobRecord;

    fn index(&self, id: JobId) -> &JobRecord {
        &self.records[self.entries.entry(id)]
    }
}

impl IndexMut<JobId> for JobTable {
    fn index_mut(&mut self, id: JobId) -> &mut JobRecord {
        let i = self.entries.entry(id);
        &mut self.records[i]
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use netbatch_cluster::job::JobPhase;
    use netbatch_sim_engine::time::SimDuration;
    use proptest::prelude::*;

    fn spec(i: u64) -> JobSpec {
        JobSpec::new(JobId(i), SimTime::from_minutes(i), SimDuration::MINUTE)
    }

    fn specs(n: u64) -> Vec<JobSpec> {
        (0..n).map(spec).collect()
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
        let mut totals = JobTotals::default();
        table.retire(JobId(2), Some(&mut totals));
        assert_eq!(totals.jobs, 1, "the retired record was folded");
        assert!(table.get(JobId(2)).is_none());
        assert_eq!(table[JobId(3)].id(), JobId(3));
        assert_eq!(table[JobId(0)].id(), JobId(0));
        // The next record takes the retired one's entry.
        table.push(JobRecord::new(spec(4)));
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
        let mut totals = JobTotals::default();
        table.retire(JobId(1), Some(&mut totals));
        assert_eq!(totals.jobs, 0, "a dense table folds when the run finishes");
        assert_eq!(table.into_records().len(), 3);
    }

    #[test]
    #[should_panic(expected = "job ids must be dense and ordered")]
    fn dense_table_rejects_a_gap_in_the_ids() {
        let records = [0, 1, 3].map(|i| JobRecord::new(spec(i)));
        JobTable::dense(records.into());
    }

    /// One step of a differential run against the model.
    #[derive(Clone, Debug)]
    enum Op {
        /// Admits the next job: from its spec while the serial table has
        /// one, as a record made during the run otherwise.
        Admit,
        /// Compares the record of the `n`-th job admitted so far.
        Lookup(usize),
        /// Changes the `n`-th held record through the table.
        Touch(usize),
        /// Retires the `n`-th held job, folding its record when `true`.
        Retire(usize, bool),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Admit),
            Just(Op::Admit),
            (0..64usize).prop_map(Op::Lookup),
            (0..64usize).prop_map(Op::Touch),
            (0..64usize, proptest::bool::ANY).prop_map(|(n, fold)| Op::Retire(n, fold)),
        ]
    }

    /// The table's shapes: serial with per-id slots, serial dense (keeps
    /// everything), and streaming with a hashed index, folding or keeping.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Slots,
        Dense,
        Hashed,
        HashedKeep,
    }

    fn kind() -> impl Strategy<Value = Kind> {
        prop_oneof![
            Just(Kind::Slots),
            Just(Kind::Dense),
            Just(Kind::Hashed),
            Just(Kind::HashedKeep),
        ]
    }

    proptest! {
        /// Every shape of the table holds exactly the records a map from
        /// id to record holds under the same admits, changes and retires,
        /// folds exactly the records retired with totals, and reuses
        /// retired entries so that its slab never outgrows the most jobs
        /// held at once.
        #[test]
        fn prop_table_matches_a_map_of_records(
            kind in kind(),
            n_specs in 0..24u64,
            ops in proptest::collection::vec(op(), 0..120),
        ) {
            let mut table = match kind {
                Kind::Slots | Kind::Dense => {
                    let mut table = JobTable::new(specs(n_specs));
                    table.open(matches!(kind, Kind::Dense));
                    table
                }
                Kind::Hashed => JobTable::streaming(false),
                Kind::HashedKeep => JobTable::streaming(true),
            };
            let keep = matches!(kind, Kind::Dense | Kind::HashedKeep);
            let serial = matches!(kind, Kind::Slots | Kind::Dense);
            let mut model: BTreeMap<JobId, JobRecord> = BTreeMap::new();
            if matches!(kind, Kind::Dense) {
                model.extend(specs(n_specs).into_iter().map(|s| (s.id, JobRecord::new(s))));
            }
            let (mut totals, mut model_totals) = (JobTotals::default(), JobTotals::default());
            let (mut next, mut most_held) = (0u64, 0usize);
            for (t, op) in ops.into_iter().enumerate() {
                let now = SimTime::from_minutes(t as u64);
                match op {
                    Op::Admit => {
                        let id = JobId(next);
                        next += 1;
                        let made = if serial && id.0 < n_specs {
                            table.admit(id).clone()
                        } else {
                            table.push(JobRecord::new(spec(id.0))).clone()
                        };
                        let want = model.entry(id).or_insert_with(|| JobRecord::new(spec(id.0)));
                        prop_assert_eq!(&made, want);
                    }
                    Op::Lookup(n) => {
                        if next > 0 {
                            let id = JobId(n as u64 % next);
                            prop_assert_eq!(table.get(id), model.get(&id), "lookup of {:?}", id);
                        }
                    }
                    Op::Touch(n) => {
                        if let Some(&id) = model.keys().nth(n % model.len().max(1)) {
                            let got = table[id].submit(now).is_ok();
                            let want = model.get_mut(&id).unwrap().submit(now).is_ok();
                            prop_assert_eq!(got, want);
                        }
                    }
                    Op::Retire(n, fold) => {
                        if let Some(&id) = model.keys().nth(n % model.len().max(1)) {
                            table.retire(id, fold.then_some(&mut totals));
                            if !keep {
                                let record = model.remove(&id).unwrap();
                                if fold {
                                    model_totals.add(&record);
                                }
                            }
                        }
                    }
                }
                most_held = most_held.max(model.len());
                prop_assert!(
                    table.records.len() <= most_held,
                    "{} entries for at most {} records held",
                    table.records.len(),
                    most_held
                );
            }
            prop_assert_eq!(&totals, &model_totals);
            let mut left = table.into_records();
            left.sort_by_key(JobRecord::id);
            let want: Vec<JobRecord> = model.into_values().collect();
            prop_assert_eq!(left, want);
        }
    }
}
