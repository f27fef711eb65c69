//! The pool's wait queue: one FIFO lane per priority level.
//!
//! Dispatch order is priority descending, then arrival order within a
//! priority (§2.1 of the paper, DESIGN §3). Arrival order is the order in
//! which entries are pushed, so no sequence key and no ordered map are
//! needed: [`WaitQueue`] keeps one intrusive doubly-linked list per
//! priority level present, with the lanes themselves in a short vector
//! ordered by level, descending. Nodes live in a slab with a free list,
//! and a `JobId → slot` map makes removal by job O(1).
//!
//! * `push` appends to its lane's tail (creating the lane in level order
//!   when it is the first entry at that level);
//! * `remove` unlinks a node by job, dropping its lane when it empties;
//! * `take_first` walks the lanes in order and unlinks the first entry a
//!   predicate accepts — the same entries, in the same order, that a scan
//!   of a `(Reverse(level), seq)`-keyed ordered map would visit.

use netbatch_sim_engine::hash::IntMap;

use crate::ids::JobId;
use crate::pool::WaitEntry;

/// The "no node" link.
const NIL: u32 = u32::MAX;

/// A slab node: one waiting entry and its lane links. A freed node keeps
/// its stale entry until the slot is reused.
#[derive(Debug, Clone)]
struct Node {
    entry: WaitEntry,
    prev: u32,
    next: u32,
}

/// The FIFO of one priority level: head and tail slots of its list.
#[derive(Debug, Clone, Copy)]
struct Lane {
    level: u8,
    head: u32,
    tail: u32,
}

/// A priority wait queue: higher level first, FIFO within a level.
#[derive(Debug, Default)]
pub(crate) struct WaitQueue {
    /// Non-empty lanes, strictly descending by level.
    lanes: Vec<Lane>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    slot_of: IntMap<JobId, u32>,
}

impl WaitQueue {
    /// Number of waiting entries.
    pub(crate) fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// The waiting entry of `job`, if it waits here.
    pub(crate) fn get(&self, job: JobId) -> Option<&WaitEntry> {
        let &slot = self.slot_of.get(&job)?;
        Some(&self.nodes[slot as usize].entry)
    }

    /// Entries in dispatch order: lanes by level descending, each lane
    /// front to back.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &WaitEntry> + '_ {
        self.slots().map(|slot| &self.nodes[slot as usize].entry)
    }

    /// Appends `entry` to the tail of its priority's lane.
    pub(crate) fn push(&mut self, entry: WaitEntry) {
        let level = entry.priority.level();
        let job = entry.job;
        let at = self.lanes.partition_point(|l| l.level > level);
        if self.lanes.get(at).is_none_or(|l| l.level != level) {
            self.lanes.insert(
                at,
                Lane {
                    level,
                    head: NIL,
                    tail: NIL,
                },
            );
        }
        let lane = &mut self.lanes[at];
        let node = Node {
            entry,
            prev: lane.tail,
            next: NIL,
        };
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
        if lane.tail == NIL {
            lane.head = slot;
        } else {
            self.nodes[lane.tail as usize].next = slot;
        }
        lane.tail = slot;
        let previous = self.slot_of.insert(job, slot);
        debug_assert!(previous.is_none(), "{job:?} queued twice");
    }

    /// Removes `job`'s entry, wherever it sits in its lane.
    pub(crate) fn remove(&mut self, job: JobId) -> Option<WaitEntry> {
        let slot = self.slot_of.remove(&job)?;
        Some(self.unlink(slot))
    }

    /// Removes and returns the first entry in dispatch order that `fits`
    /// accepts.
    pub(crate) fn take_first(
        &mut self,
        mut fits: impl FnMut(&WaitEntry) -> bool,
    ) -> Option<WaitEntry> {
        let slot = self
            .slots()
            .find(|&slot| fits(&self.nodes[slot as usize].entry))?;
        let entry = self.unlink(slot);
        self.slot_of.remove(&entry.job);
        Some(entry)
    }

    /// Unlinks `slot` from its lane (dropping the lane if it empties) and
    /// frees it. The caller has already removed or will remove its
    /// `slot_of` entry.
    fn unlink(&mut self, slot: u32) -> WaitEntry {
        let Node { entry, prev, next } = self.nodes[slot as usize].clone();
        let level = entry.priority.level();
        let at = self.lanes.partition_point(|l| l.level > level);
        debug_assert_eq!(self.lanes[at].level, level, "a queued entry's lane exists");
        if prev == NIL {
            self.lanes[at].head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.lanes[at].tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        if self.lanes[at].head == NIL {
            self.lanes.remove(at);
        }
        self.free.push(slot);
        entry
    }

    /// Slots in dispatch order.
    fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        let mut lanes = self.lanes.iter();
        let mut slot = NIL;
        std::iter::from_fn(move || {
            while slot == NIL {
                slot = lanes.next()?.head;
            }
            let current = slot;
            slot = self.nodes[current as usize].next;
            Some(current)
        })
    }

    /// Structural check for tests and debug assertions: lanes are
    /// non-empty and strictly descending by level, every lane's links are
    /// mutually consistent and hold only its own level, and the job map,
    /// the live nodes and the free list account for every slot.
    pub(crate) fn check_consistency(&self) -> bool {
        let levels_ok = self.lanes.windows(2).all(|w| w[0].level > w[1].level);
        let mut live = 0usize;
        for lane in &self.lanes {
            if lane.head == NIL || lane.tail == NIL {
                return false;
            }
            let mut prev = NIL;
            let mut slot = lane.head;
            while slot != NIL {
                let node = &self.nodes[slot as usize];
                if node.prev != prev
                    || node.entry.priority.level() != lane.level
                    || self.slot_of.get(&node.entry.job) != Some(&slot)
                {
                    return false;
                }
                live += 1;
                if live > self.nodes.len() {
                    return false; // a cycle
                }
                prev = slot;
                slot = node.next;
            }
            if prev != lane.tail {
                return false;
            }
        }
        levels_ok && live == self.slot_of.len() && live + self.free.len() == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Resources;
    use crate::priority::Priority;
    use netbatch_sim_engine::time::{SimDuration, SimTime};

    fn entry(job: u64, level: u8, cores: u32, at: u64) -> WaitEntry {
        WaitEntry {
            job: JobId(job),
            resources: Resources {
                cores,
                memory_mb: 1024,
            },
            priority: Priority::new(level),
            runtime: SimDuration::from_minutes(10),
            enqueued_at: SimTime::from_minutes(at),
        }
    }

    fn order(q: &WaitQueue) -> Vec<u64> {
        q.iter().map(|e| e.job.0).collect()
    }

    #[test]
    fn a_new_level_between_two_lanes_takes_its_place_in_order() {
        let mut q = WaitQueue::default();
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
    fn unlinking_a_lanes_only_node_drops_the_lane() {
        let mut q = WaitQueue::default();
        q.push(entry(1, 10, 1, 0));
        q.push(entry(2, 0, 1, 1));
        q.push(entry(3, 0, 1, 2));
        assert_eq!(q.remove(JobId(1)), Some(entry(1, 10, 1, 0)));
        assert_eq!(q.lanes.len(), 1);
        assert_eq!(order(&q), vec![2, 3]);
        assert!(q.check_consistency());
        // The emptied level comes back in front, on a reused slot.
        q.push(entry(4, 10, 1, 3));
        assert_eq!(order(&q), vec![4, 2, 3]);
        assert_eq!(q.nodes.len(), 3, "the freed slot is reused");
        // A take that empties the last lane leaves no lane behind.
        assert_eq!(
            q.take_first(|e| e.priority.level() == 10),
            Some(entry(4, 10, 1, 3))
        );
        assert_eq!(q.remove(JobId(2)), Some(entry(2, 0, 1, 1)));
        assert_eq!(q.remove(JobId(3)), Some(entry(3, 0, 1, 2)));
        assert_eq!(q.remove(JobId(3)), None);
        assert!(q.lanes.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.iter().next(), None);
        assert!(q.check_consistency());
    }

    #[test]
    fn removing_a_middle_node_relinks_its_neighbours() {
        let mut q = WaitQueue::default();
        for job in 1..=3 {
            q.push(entry(job, 0, 1, job));
        }
        assert_eq!(q.remove(JobId(2)), Some(entry(2, 0, 1, 2)));
        assert_eq!(order(&q), vec![1, 3]);
        assert_eq!(q.get(JobId(2)), None);
        assert_eq!(
            q.get(JobId(3)).map(|e| e.enqueued_at),
            Some(SimTime::from_minutes(3))
        );
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

            fn take_first(&mut self, fits: impl Fn(&WaitEntry) -> bool) -> Option<WaitEntry> {
                let job = self.queue.values().find(|e| fits(e))?.job;
                self.remove(job)
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Push { level: u8, cores: u32 },
            RemoveHead,
            RemoveTail,
            RemoveAt(usize),
            RemoveAbsent,
            Take { max_cores: u32 },
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (prop::sample::select(vec![0u8, 3, 10, 200]), 1u32..5)
                    .prop_map(|(level, cores)| Op::Push { level, cores }),
                (prop::sample::select(vec![0u8, 3, 10, 200]), 1u32..5)
                    .prop_map(|(level, cores)| Op::Push { level, cores }),
                Just(Op::RemoveHead),
                Just(Op::RemoveTail),
                (0usize..64).prop_map(Op::RemoveAt),
                Just(Op::RemoveAbsent),
                (0u32..5).prop_map(|max_cores| Op::Take { max_cores }),
            ]
        }

        proptest! {
            /// Under random pushes at mixed levels, removals (head, tail,
            /// middle, absent) and capacity-cycle takes, the lane queue
            /// returns the same entries as the ordered-map oracle and
            /// holds the same entries in the same dispatch order.
            #[test]
            fn prop_lanes_match_the_ordered_map(ops in proptest::collection::vec(arb_op(), 1..200)) {
                let mut q = WaitQueue::default();
                let mut oracle = Oracle::default();
                let mut next_job = 0u64;
                let mut last_gone = JobId(u64::MAX);
                for (step, op) in ops.iter().enumerate() {
                    let front = oracle.queue.values().next().map(|e| e.job);
                    let back = oracle.queue.values().next_back().map(|e| e.job);
                    let (got, want) = match *op {
                        Op::Push { level, cores } => {
                            let e = entry(next_job, level, cores, step as u64);
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
                        Op::Take { max_cores } => {
                            let fits = |e: &WaitEntry| e.resources.cores <= max_cores;
                            (q.take_first(fits), oracle.take_first(fits))
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
                    for job in 0..next_job {
                        prop_assert_eq!(
                            q.get(JobId(job)).map(|e| e.enqueued_at),
                            oracle.index.get(&JobId(job)).map(|k| oracle.queue[k].enqueued_at)
                        );
                    }
                    prop_assert!(q.check_consistency(), "links broken after {:?}", op);
                }
            }
        }
    }
}
