//! The pool's wait queue: one FIFO lane per priority level, each split
//! into per-core-count sublists.
//!
//! Dispatch order is priority descending, then arrival order within a
//! priority (§2.1 of the paper, DESIGN §3). Arrival order is the order in
//! which entries are pushed, so no ordered map is needed: [`WaitQueue`]
//! keeps one intrusive doubly-linked list (a lane) per priority level that
//! has queued, with the lanes themselves in a short vector ordered by
//! level, descending. Every node also sits in a second list, its lane's
//! sublist of entries with the same core count, and carries a push
//! sequence number. Nodes live in a slab with a free list, and a
//! `JobId → slot` map makes removal by job O(1).
//!
//! * `push` appends to its lane's tail and to the tail of the lane's
//!   sublist for its core count (creating the lane in level order when it
//!   is the first entry ever at that level);
//! * `remove` unlinks a node by job from both lists. A lane that empties
//!   stays in place with its sublist table, so a level that empties and
//!   refills allocates nothing;
//! * `take_fitting` unlinks the first entry in dispatch order that fits a
//!   machine's free cores and memory. Per lane, in level order, it takes
//!   the lane's head if that fits; otherwise it looks only at the sublists
//!   of core counts up to the free cores, walks each to its first entry
//!   whose memory fits, and takes the one pushed first. That is the entry
//!   a walk of the whole lane would find first, since a lane's FIFO is in
//!   push order; entries that ask for too many cores are never visited.
//!   A lane has one sublist per core count from 0 to the pool's largest
//!   machine: an ineligible footprint never queues.

use netbatch_sim_engine::hash::IntMap;

use crate::ids::JobId;
use crate::job::Resources;
use crate::pool::WaitEntry;

/// The "no node" link.
const NIL: u32 = u32::MAX;

/// Index of a node's links in its lane's FIFO.
const FIFO: usize = 0;
/// Index of a node's links in its lane's sublist for its core count.
const CORES: usize = 1;

/// A node's neighbours in one list.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// Head and tail slots of one list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

/// An empty list.
const EMPTY: Ends = Ends {
    head: NIL,
    tail: NIL,
};

/// A slab node: one waiting entry, its push sequence number and its links
/// in the two lists it sits in (`links[FIFO]`, `links[CORES]`). A freed
/// node keeps its stale entry until the slot is reused.
#[derive(Debug)]
struct Node {
    entry: WaitEntry,
    seq: u64,
    links: [Link; 2],
}

/// The FIFO of one priority level and its per-core-count sublists.
#[derive(Debug)]
struct Lane {
    level: u8,
    fifo: Ends,
    /// `by_cores[c]`: the lane's entries asking for `c` cores, in push
    /// order.
    by_cores: Vec<Ends>,
}

/// A priority wait queue: higher level first, FIFO within a level.
#[derive(Debug)]
pub(crate) struct WaitQueue {
    /// Sublists per lane: one per core count from 0 to the largest an
    /// entry may ask for.
    width: usize,
    /// Lanes, strictly descending by level. A lane that empties stays, so
    /// its sublist table is allocated once per level.
    lanes: Vec<Lane>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    slot_of: IntMap<JobId, u32>,
    /// Sequence number of the next push.
    next_seq: u64,
}

/// Appends `slot` to the tail of list `k` whose ends are `ends`.
fn append(nodes: &mut [Node], ends: &mut Ends, slot: u32, k: usize) {
    nodes[slot as usize].links[k] = Link {
        prev: ends.tail,
        next: NIL,
    };
    if ends.tail == NIL {
        ends.head = slot;
    } else {
        nodes[ends.tail as usize].links[k].next = slot;
    }
    ends.tail = slot;
}

/// Unlinks `slot` from list `k` whose ends are `ends`.
fn detach(nodes: &mut [Node], ends: &mut Ends, slot: u32, k: usize) {
    let Link { prev, next } = nodes[slot as usize].links[k];
    if prev == NIL {
        ends.head = next;
    } else {
        nodes[prev as usize].links[k].next = next;
    }
    if next == NIL {
        ends.tail = prev;
    } else {
        nodes[next as usize].links[k].prev = prev;
    }
}

impl WaitQueue {
    /// An empty queue for entries asking for at most `max_cores` cores.
    pub(crate) fn new(max_cores: u32) -> Self {
        WaitQueue {
            width: max_cores as usize + 1,
            lanes: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            slot_of: IntMap::default(),
            next_seq: 0,
        }
    }

    /// Number of waiting entries.
    pub(crate) fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Entries in dispatch order: lanes by level descending, each lane
    /// front to back.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &WaitEntry> + '_ {
        self.slots().map(|slot| &self.nodes[slot as usize].entry)
    }

    /// Appends `entry` to the tail of its priority's lane and of that
    /// lane's sublist for its core count, which is at most the queue's
    /// `max_cores`.
    pub(crate) fn push(&mut self, entry: WaitEntry) {
        let level = entry.priority.level();
        let cores = entry.resources.cores as usize;
        let job = entry.job;
        let at = self.lanes.partition_point(|l| l.level > level);
        if self.lanes.get(at).is_none_or(|l| l.level != level) {
            self.lanes.insert(
                at,
                Lane {
                    level,
                    fifo: EMPTY,
                    by_cores: vec![EMPTY; self.width],
                },
            );
        }
        let node = Node {
            entry,
            seq: self.next_seq,
            links: [Link {
                prev: NIL,
                next: NIL,
            }; 2],
        };
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                let slot = u32::try_from(self.nodes.len()).expect("fewer than 2^32 waiting jobs");
                self.nodes.push(node);
                slot
            }
        };
        let lane = &mut self.lanes[at];
        append(&mut self.nodes, &mut lane.fifo, slot, FIFO);
        append(&mut self.nodes, &mut lane.by_cores[cores], slot, CORES);
        let previous = self.slot_of.insert(job, slot);
        debug_assert!(previous.is_none(), "{job:?} queued twice");
    }

    /// Removes `job`'s entry, wherever it sits in its lane.
    pub(crate) fn remove(&mut self, job: JobId) -> Option<WaitEntry> {
        let slot = self.slot_of.remove(&job)?;
        Some(self.unlink(slot))
    }

    /// Removes and returns the first entry in dispatch order whose cores
    /// and memory both fit in `free`.
    pub(crate) fn take_fitting(&mut self, free: Resources) -> Option<WaitEntry> {
        let slot = self.first_fitting(free)?;
        let entry = self.unlink(slot);
        self.slot_of.remove(&entry.job);
        Some(entry)
    }

    /// The slot [`WaitQueue::take_fitting`] takes: per lane in level
    /// order, the head if it fits, else the earliest-pushed entry among the
    /// first memory-fitting entries of the sublists whose core count fits.
    fn first_fitting(&self, free: Resources) -> Option<u32> {
        let fits = |e: &WaitEntry| {
            e.resources.cores <= free.cores && e.resources.memory_mb <= free.memory_mb
        };
        let top = self.width.min(free.cores as usize + 1);
        for lane in self.lanes.iter().filter(|l| l.fifo.head != NIL) {
            if fits(&self.nodes[lane.fifo.head as usize].entry) {
                return Some(lane.fifo.head);
            }
            // (sequence number, slot) of the earliest fitting entry so far.
            let mut best: Option<(u64, u32)> = None;
            for ends in &lane.by_cores[..top] {
                let mut slot = ends.head;
                while slot != NIL {
                    let node = &self.nodes[slot as usize];
                    if best.is_some_and(|(seq, _)| seq < node.seq) {
                        break; // the rest of this sublist was pushed later still
                    }
                    if node.entry.resources.memory_mb <= free.memory_mb {
                        best = Some((node.seq, slot));
                        break;
                    }
                    slot = node.links[CORES].next;
                }
            }
            if let Some((_, slot)) = best {
                return Some(slot);
            }
        }
        None
    }

    /// Unlinks `slot` from its lane and its sublist and frees it. The
    /// caller has already removed or will remove its `slot_of` entry.
    fn unlink(&mut self, slot: u32) -> WaitEntry {
        let entry = self.nodes[slot as usize].entry.clone();
        let level = entry.priority.level();
        let at = self.lanes.partition_point(|l| l.level > level);
        debug_assert_eq!(self.lanes[at].level, level, "a queued entry's lane exists");
        let lane = &mut self.lanes[at];
        detach(&mut self.nodes, &mut lane.fifo, slot, FIFO);
        let cores = entry.resources.cores as usize;
        detach(&mut self.nodes, &mut lane.by_cores[cores], slot, CORES);
        self.free.push(slot);
        entry
    }

    /// Slots in dispatch order.
    fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        let mut lanes = self.lanes.iter();
        let mut slot = NIL;
        std::iter::from_fn(move || {
            while slot == NIL {
                slot = lanes.next()?.fifo.head;
            }
            let current = slot;
            slot = self.nodes[current as usize].links[FIFO].next;
            Some(current)
        })
    }

    /// Walks list `k` from `ends`, checking that its back links mirror its
    /// forward links, that it ends at `ends.tail`, that every node is live
    /// at level `level` and passes `member`, and that sequence numbers rise
    /// (so a cycle fails too). Returns its length, or `None` if a check
    /// fails.
    fn check_list(
        &self,
        ends: Ends,
        k: usize,
        level: u8,
        member: impl Fn(&WaitEntry) -> bool,
    ) -> Option<usize> {
        let mut len = 0usize;
        let mut prev = NIL;
        let mut slot = ends.head;
        while slot != NIL {
            let node = &self.nodes[slot as usize];
            let in_order = prev == NIL || self.nodes[prev as usize].seq < node.seq;
            if node.links[k].prev != prev
                || !in_order
                || node.entry.priority.level() != level
                || !member(&node.entry)
                || self.slot_of.get(&node.entry.job) != Some(&slot)
            {
                return None;
            }
            len += 1;
            prev = slot;
            slot = node.links[k].next;
        }
        (prev == ends.tail).then_some(len)
    }

    /// Structural check for tests and debug assertions: lanes are strictly
    /// descending by level; every lane's FIFO and sublists have mutually
    /// consistent links, rising sequence numbers and only their own level
    /// (and core count), and the sublists hold exactly the lane's entries;
    /// and the job map, the live nodes and the free list account for every
    /// slot.
    pub(crate) fn check_consistency(&self) -> bool {
        let levels_ok = self.lanes.windows(2).all(|w| w[0].level > w[1].level);
        let mut live = 0usize;
        for lane in &self.lanes {
            let Some(len) = self.check_list(lane.fifo, FIFO, lane.level, |_| true) else {
                return false;
            };
            let mut in_sublists = 0usize;
            for (cores, &ends) in lane.by_cores.iter().enumerate() {
                let member = |e: &WaitEntry| e.resources.cores as usize == cores;
                match self.check_list(ends, CORES, lane.level, member) {
                    Some(n) => in_sublists += n,
                    None => return false,
                }
            }
            if in_sublists != len {
                return false;
            }
            live += len;
        }
        levels_ok && live == self.slot_of.len() && live + self.free.len() == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::Priority;
    use netbatch_sim_engine::time::{SimDuration, SimTime};

    fn sized(job: u64, level: u8, cores: u32, memory_mb: u64, at: u64) -> WaitEntry {
        WaitEntry {
            job: JobId(job),
            resources: Resources { cores, memory_mb },
            priority: Priority::new(level),
            runtime: SimDuration::from_minutes(10),
            enqueued_at: SimTime::from_minutes(at),
        }
    }

    fn entry(job: u64, level: u8, cores: u32, at: u64) -> WaitEntry {
        sized(job, level, cores, 1024, at)
    }

    fn free(cores: u32, memory_mb: u64) -> Resources {
        Resources { cores, memory_mb }
    }

    fn order(q: &WaitQueue) -> Vec<u64> {
        q.iter().map(|e| e.job.0).collect()
    }

    #[test]
    fn a_new_level_between_two_lanes_takes_its_place_in_order() {
        let mut q = WaitQueue::new(8);
        q.push(entry(1, 10, 1, 0));
        q.push(entry(2, 0, 1, 1));
        q.push(entry(3, 10, 1, 2));
        q.push(entry(4, 5, 1, 3));
        q.push(entry(5, 0, 1, 4));
        q.push(entry(6, 5, 1, 5));
        assert_eq!(order(&q), vec![1, 3, 4, 6, 2, 5]);
        assert_eq!(
            q.lanes.iter().map(|l| l.level).collect::<Vec<_>>(),
            vec![10, 5, 0]
        );
        assert!(q.check_consistency());
    }

    #[test]
    fn an_emptied_lane_keeps_its_place_and_its_sublists() {
        let mut q = WaitQueue::new(8);
        q.push(entry(1, 10, 1, 0));
        q.push(entry(2, 0, 1, 1));
        q.push(entry(3, 0, 1, 2));
        assert_eq!(q.remove(JobId(1)), Some(entry(1, 10, 1, 0)));
        assert_eq!(q.lanes.len(), 2, "the emptied lane stays");
        assert_eq!(order(&q), vec![2, 3]);
        assert!(q.check_consistency());
        // The emptied level refills in front, on a reused slot, and takes
        // skip it while it is empty.
        q.push(entry(4, 10, 1, 3));
        assert_eq!(order(&q), vec![4, 2, 3]);
        assert_eq!(q.nodes.len(), 3, "the freed slot is reused");
        assert_eq!(q.take_fitting(free(1, 1024)), Some(entry(4, 10, 1, 3)));
        assert_eq!(q.take_fitting(free(1, 1024)), Some(entry(2, 0, 1, 1)));
        assert_eq!(q.remove(JobId(3)), Some(entry(3, 0, 1, 2)));
        assert_eq!(q.remove(JobId(3)), None);
        assert_eq!(q.take_fitting(free(8, 8192)), None);
        assert_eq!(q.lanes.len(), 2);
        assert_eq!(q.len(), 0);
        assert_eq!(q.iter().next(), None);
        assert!(q.check_consistency());
    }

    #[test]
    fn removing_a_middle_node_relinks_its_neighbours() {
        let mut q = WaitQueue::new(8);
        for job in 1..=3 {
            q.push(entry(job, 0, 1, job));
        }
        assert_eq!(q.remove(JobId(2)), Some(entry(2, 0, 1, 2)));
        assert_eq!(order(&q), vec![1, 3]);
        assert_eq!(q.remove(JobId(2)), None);
        assert_eq!(
            q.iter().map(|e| e.enqueued_at).collect::<Vec<_>>(),
            vec![SimTime::from_minutes(1), SimTime::from_minutes(3)]
        );
        assert!(q.check_consistency());
    }

    #[test]
    fn take_fitting_skips_what_does_not_fit_and_takes_the_earliest_fit() {
        let mut q = WaitQueue::new(8);
        q.push(sized(1, 0, 4, 1024, 0)); // too many cores
        q.push(sized(2, 0, 2, 4096, 1)); // too much memory
        q.push(sized(3, 0, 2, 1024, 2));
        q.push(sized(4, 0, 1, 1024, 3));
        q.push(sized(5, 0, 0, 512, 4));
        // Within a lane the earliest fitting entry wins, whatever its
        // sublist: job 3 (2 cores) was pushed before job 4 (1 core).
        assert_eq!(q.take_fitting(free(2, 2048)).map(|e| e.job), Some(JobId(3)));
        assert_eq!(q.take_fitting(free(2, 2048)).map(|e| e.job), Some(JobId(4)));
        // A higher lane goes first even when its entry came later.
        q.push(sized(6, 7, 1, 2048, 5));
        assert_eq!(q.take_fitting(free(2, 2048)).map(|e| e.job), Some(JobId(6)));
        // Zero free cores still fit a zero-core entry.
        assert_eq!(q.take_fitting(free(0, 2048)).map(|e| e.job), Some(JobId(5)));
        assert_eq!(q.take_fitting(free(3, 2048)), None);
        // The lane's head when it fits.
        assert_eq!(q.take_fitting(free(4, 8192)).map(|e| e.job), Some(JobId(1)));
        assert_eq!(order(&q), vec![2]);
        assert!(q.check_consistency());
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::{BTreeMap, HashMap};

        /// The queue as the pool kept it before the lanes: an ordered map
        /// keyed by (priority descending, arrival sequence), plus a job
        /// index. Kept here as the oracle for the lane queue.
        #[derive(Default)]
        struct Oracle {
            queue: BTreeMap<(Reverse<u8>, u64), WaitEntry>,
            index: HashMap<JobId, (Reverse<u8>, u64)>,
            seq: u64,
        }

        impl Oracle {
            fn push(&mut self, entry: WaitEntry) {
                let key = (Reverse(entry.priority.level()), self.seq);
                self.seq += 1;
                self.index.insert(entry.job, key);
                self.queue.insert(key, entry);
            }

            fn remove(&mut self, job: JobId) -> Option<WaitEntry> {
                let key = self.index.remove(&job)?;
                self.queue.remove(&key)
            }

            /// The first entry in (level desc, sequence) order that fits
            /// on both axes.
            fn take_fitting(&mut self, free: Resources) -> Option<WaitEntry> {
                let job = self
                    .queue
                    .values()
                    .find(|e| {
                        e.resources.cores <= free.cores && e.resources.memory_mb <= free.memory_mb
                    })?
                    .job;
                self.remove(job)
            }
        }

        const LEVELS: [u8; 4] = [0, 3, 10, 200];
        const MEMORY: [u64; 4] = [256, 1024, 2048, 4096];

        #[derive(Debug, Clone)]
        enum Op {
            Push { level: u8, cores: u32, mem: u64 },
            RemoveHead,
            RemoveTail,
            RemoveAt(usize),
            RemoveAbsent,
            TakeFitting { cores: u32, mem: u64 },
        }

        fn arb_push() -> impl Strategy<Value = Op> {
            (
                prop::sample::select(LEVELS.to_vec()),
                0u32..=8,
                prop::sample::select(MEMORY.to_vec()),
            )
                .prop_map(|(level, cores, mem)| Op::Push { level, cores, mem })
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                arb_push(),
                arb_push(),
                Just(Op::RemoveHead),
                Just(Op::RemoveTail),
                (0usize..64).prop_map(Op::RemoveAt),
                Just(Op::RemoveAbsent),
                (
                    0u32..=8,
                    prop::sample::select(vec![0u64, 256, 1000, 1024, 2048, 3000, 4096, 8192])
                )
                    .prop_map(|(cores, mem)| Op::TakeFitting { cores, mem }),
            ]
        }

        proptest! {
            /// Under random pushes at mixed levels, core counts (0 to 8)
            /// and memory sizes, removals (head, tail, middle, absent) and
            /// capacity-cycle takes, the lane queue returns the same entries
            /// as the ordered-map oracle and holds the same entries in the
            /// same dispatch order, with consistent lanes and sublists.
            #[test]
            fn prop_lanes_match_the_ordered_map(ops in proptest::collection::vec(arb_op(), 1..200)) {
                let mut q = WaitQueue::new(8);
                let mut oracle = Oracle::default();
                let mut next_job = 0u64;
                let mut last_gone = JobId(u64::MAX);
                for (step, op) in ops.iter().enumerate() {
                    let front = oracle.queue.values().next().map(|e| e.job);
                    let back = oracle.queue.values().next_back().map(|e| e.job);
                    let (got, want) = match *op {
                        Op::Push { level, cores, mem } => {
                            let e = sized(next_job, level, cores, mem, step as u64);
                            next_job += 1;
                            q.push(e.clone());
                            oracle.push(e);
                            (None, None)
                        }
                        Op::RemoveHead | Op::RemoveTail | Op::RemoveAt(_) | Op::RemoveAbsent => {
                            let job = match *op {
                                Op::RemoveHead => front,
                                Op::RemoveTail => back,
                                Op::RemoveAt(i) if !oracle.queue.is_empty() => {
                                    oracle.queue.values().nth(i % oracle.queue.len()).map(|e| e.job)
                                }
                                _ => None,
                            }
                            // Absent: the last job to leave (or one never
                            // queued), so removal must find nothing.
                            .unwrap_or(last_gone);
                            (q.remove(job), oracle.remove(job))
                        }
                        Op::TakeFitting { cores, mem } => {
                            let room = free(cores, mem);
                            (q.take_fitting(room), oracle.take_fitting(room))
                        }
                    };
                    if let Some(e) = &want {
                        last_gone = e.job;
                    }
                    prop_assert_eq!(got, want, "returned entry after {:?}", op);
                    prop_assert_eq!(q.len(), oracle.queue.len());
                    let lanes: Vec<&WaitEntry> = q.iter().collect();
                    let model: Vec<&WaitEntry> = oracle.queue.values().collect();
                    prop_assert_eq!(lanes, model, "dispatch order after {:?}", op);
                    prop_assert!(q.check_consistency(), "links broken after {:?}", op);
                }
            }
        }
    }
}
