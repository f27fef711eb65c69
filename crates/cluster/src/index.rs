//! Incremental machine-availability indexing for the pool dispatch hot path.
//!
//! The paper's §2.1 dispatch protocol picks the *first* (lowest-id) machine
//! that is both eligible and available, which a naive implementation scans
//! the machine list for on every submit — O(machines) per event, the
//! dominant cost at the paper's scale (680-machine pools, 248k jobs/week).
//!
//! [`AvailabilityIndex`] replaces the scan with one flat **max-tree** over
//! machine indices: an implicit binary tree (root at 1, children of `i`
//! at `2i` and `2i + 1`, machine `m` at leaf `size + m`) in which every
//! node holds the maximum free cores and the maximum free memory of its
//! subtree. A down or draining machine's leaf holds zeros, and an
//! available machine's leaf holds its free memory and its free cores
//! *plus one*, so even a zero-core footprint needs an available machine.
//! [`AvailabilityIndex::first_fit`] is a left-first descent that skips
//! every subtree whose maxima cannot cover the footprint;
//! [`AvailabilityIndex::sync`] rewrites one leaf and recomputes maxima up
//! its leaf-to-root path, stopping at the first ancestor that does not
//! change. Both are allocation-free.
//!
//! **Behavior preservation:** a subtree's maxima bound every leaf below
//! it, so the descent prunes only subtrees with no fitting machine, and
//! it visits leaves in index order, so [`AvailabilityIndex::first_fit`]
//! returns precisely the machine the reference linear scan
//! (`position(|m| m.can_ever_run(res) && m.can_run_now(res))`) would find
//! — free capacity never exceeds the static configuration, so a leaf that
//! fits also passes `can_ever_run`. `PhysicalPool` cross-checks this with
//! the retained reference scan in debug builds and under property tests.
//!
//! The module also provides [`MinMultiset`], the ordered counting multiset
//! behind the pool's two other O(1) short-circuits: the lowest running
//! priority (skip preemption planning when nothing is preemptible) and the
//! wait queue's minimum footprint (skip `capacity_cycle`'s search of the
//! queue when the freed machine cannot fit anything waiting). The
//! searches behind them do not walk either: the queue's per-core
//! sublists find the first waiting job that fits, and a failed
//! preemption scan is remembered until a machine changes (see the pool
//! module).

use crate::job::Resources;
use crate::machine::Machine;

/// One max-tree node: the largest availability key on each axis over the
/// node's subtree. A leaf holds `(free_cores + 1, free_memory)` while its
/// machine is up and not draining and zeros otherwise, so the core key
/// alone also encodes availability. Widened to `u64`, the `+ 1` cannot
/// overflow, and the node stays 16 bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Node {
    cores: u64,
    memory: u64,
}

impl Node {
    /// The leaf key of a machine's current state.
    fn of(machine: &Machine) -> Node {
        if machine.is_down() || machine.is_draining() {
            Node::default()
        } else {
            Node {
                cores: u64::from(machine.cores_free()) + 1,
                memory: machine.memory_free(),
            }
        }
    }

    fn max(self, other: Node) -> Node {
        Node {
            cores: self.cores.max(other.cores),
            memory: self.memory.max(other.memory),
        }
    }

    /// True if some leaf below this node may fit `res` (exact at leaves).
    fn covers(self, res: Resources) -> bool {
        self.cores > u64::from(res.cores) && self.memory >= res.memory_mb
    }
}

/// Incremental index over a pool's machines answering *"which machine does
/// first-fit dispatch choose?"* and *"is any machine eligible?"* without
/// scanning the machine list.
///
/// Owned and kept in sync by `PhysicalPool`; see the module docs for the
/// structure and the behavior-preservation argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityIndex {
    /// Leaf count: the machine count rounded up to a power of two.
    /// Padding leaves hold zeros and never fit.
    size: usize,
    /// The tree, `2 * size` nodes; index 0 is unused.
    nodes: Vec<Node>,
    /// The distinct static `(cores, memory_mb)` configurations, in order
    /// of first appearance. Static, so eligibility never consults the tree.
    configs: Vec<(u32, u64)>,
}

impl AvailabilityIndex {
    /// Builds the index for a machine list from the machines' current
    /// state.
    pub fn new(machines: &[Machine]) -> Self {
        let size = machines.len().next_power_of_two();
        let mut nodes = vec![Node::default(); 2 * size];
        let mut configs: Vec<(u32, u64)> = Vec::new();
        for (idx, m) in machines.iter().enumerate() {
            nodes[size + idx] = Node::of(m);
            let config = (m.config().cores, m.config().memory_mb);
            if !configs.contains(&config) {
                configs.push(config);
            }
        }
        for i in (1..size).rev() {
            nodes[i] = nodes[2 * i].max(nodes[2 * i + 1]);
        }
        AvailabilityIndex {
            size,
            nodes,
            configs,
        }
    }

    /// Re-syncs machine `idx` after any state change (start / suspend /
    /// resume / release / fail / restore / drain). `O(log n)`, and `O(1)`
    /// when the machine's key did not change.
    pub fn sync(&mut self, idx: usize, machine: &Machine) {
        let mut i = self.size + idx;
        let key = Node::of(machine);
        if self.nodes[i] == key {
            return;
        }
        self.nodes[i] = key;
        while i > 1 {
            i >>= 1;
            let merged = self.nodes[2 * i].max(self.nodes[2 * i + 1]);
            if self.nodes[i] == merged {
                break;
            }
            self.nodes[i] = merged;
        }
    }

    /// True if any machine (up **or down** — eligibility deliberately
    /// ignores downtime, matching `Machine::can_ever_run`) could run the
    /// footprint when idle. `O(configurations)`: configurations are static.
    pub fn is_eligible(&self, res: Resources) -> bool {
        self.configs
            .iter()
            .any(|&(cores, memory_mb)| res.cores <= cores && res.memory_mb <= memory_mb)
    }

    /// The lowest-index machine that can run `res` *right now* — exactly
    /// the machine the seed's linear first-fit scan would pick.
    pub fn first_fit(&self, res: Resources) -> Option<usize> {
        let mut i = 1;
        if !self.nodes[i].covers(res) {
            return None;
        }
        while i < self.size {
            // Descend left; on a miss, move to the next subtree to the
            // right: the right sibling, or the right sibling of the
            // nearest ancestor that is a left child.
            i *= 2;
            while !self.nodes[i].covers(res) {
                while i & 1 == 1 {
                    if i == 1 {
                        return None;
                    }
                    i >>= 1;
                }
                i += 1;
            }
        }
        Some(i - self.size)
    }

    /// Full consistency check against the live machine list (used by
    /// `PhysicalPool::check_invariants` and property tests): rebuilding
    /// from scratch must reproduce the incrementally-maintained tree.
    pub fn check_consistency(&self, machines: &[Machine]) -> bool {
        *self == AvailabilityIndex::new(machines)
    }
}

/// An ordered counting multiset for the pool's running-priority and
/// queue-footprint summaries: a sorted `Vec` of distinct values and their
/// counts. Lookup is a binary search and the minimum is the first entry; a
/// new value or a last removal shifts the entries above it (O(distinct)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MinMultiset<T: Ord + Copy> {
    /// Distinct values in ascending order, each with its (non-zero) count.
    counts: Vec<(T, usize)>,
    len: usize,
}

impl<T: Ord + Copy> MinMultiset<T> {
    /// An empty multiset.
    pub fn new() -> Self {
        MinMultiset {
            counts: Vec::new(),
            len: 0,
        }
    }

    /// Adds one occurrence of `value`.
    pub fn insert(&mut self, value: T) {
        match self.counts.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) => self.counts.insert(i, (value, 1)),
        }
        self.len += 1;
    }

    /// Removes one occurrence of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not present — the pool's bookkeeping inserts
    /// and removes in strict pairs, so absence is a logic error.
    pub fn remove(&mut self, value: T) {
        let i = self
            .counts
            .binary_search_by_key(&value, |&(v, _)| v)
            .expect("value present in multiset");
        self.counts[i].1 -= 1;
        if self.counts[i].1 == 0 {
            self.counts.remove(i);
        }
        self.len -= 1;
    }

    /// The smallest value present, or `None` when empty.
    pub fn min(&self) -> Option<T> {
        self.counts.first().map(|&(v, _)| v)
    }

    /// Total number of occurrences.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no occurrences are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, MachineId};
    use crate::machine::MachineConfig;
    use crate::priority::Priority;
    use netbatch_sim_engine::time::SimTime;
    use proptest::prelude::*;

    fn res(cores: u32, mem: u64) -> Resources {
        Resources {
            cores,
            memory_mb: mem,
        }
    }

    /// A heterogeneous machine list: two 2-core/4 GB, one 4-core/8 GB, one
    /// 1-core/2 GB (configurations in id order).
    fn machines() -> Vec<Machine> {
        [(2u32, 4096u64), (2, 4096), (4, 8192), (1, 2048)]
            .into_iter()
            .enumerate()
            .map(|(i, (c, m))| Machine::new(MachineConfig::new(MachineId(i as u32), c, m)))
            .collect()
    }

    fn reference_first_fit(machines: &[Machine], res: Resources) -> Option<usize> {
        machines
            .iter()
            .position(|m| m.can_ever_run(res) && m.can_run_now(res))
    }

    #[test]
    fn eligibility_lists_each_static_configuration_once() {
        let ms = machines();
        let idx = AvailabilityIndex::new(&ms);
        assert_eq!(idx.configs, vec![(2, 4096), (4, 8192), (1, 2048)]);
        assert!(idx.is_eligible(res(4, 8192)));
        assert!(!idx.is_eligible(res(4, 8193)));
        assert!(!idx.is_eligible(res(5, 1)));
    }

    #[test]
    fn empty_and_single_machine_pools() {
        let idx = AvailabilityIndex::new(&[]);
        assert_eq!(idx.first_fit(res(0, 0)), None);
        assert!(!idx.is_eligible(res(0, 0)));
        let mut one = vec![Machine::new(MachineConfig::new(MachineId(0), 2, 1000))];
        let mut idx = AvailabilityIndex::new(&one);
        assert_eq!(idx.first_fit(res(2, 1000)), Some(0));
        one[0].start(SimTime::ZERO, JobId(1), res(2, 1000), Priority::LOW);
        idx.sync(0, &one[0]);
        assert_eq!(idx.first_fit(res(1, 1)), None);
        assert_eq!(
            idx.first_fit(res(0, 0)),
            Some(0),
            "a zero footprint fits a full but available machine"
        );
        one[0].fail();
        idx.sync(0, &one[0]);
        assert_eq!(idx.first_fit(res(0, 0)), None, "but never a down one");
        assert!(idx.check_consistency(&one));
    }

    #[test]
    fn first_fit_matches_reference_on_idle_pool() {
        let ms = machines();
        let idx = AvailabilityIndex::new(&ms);
        for (c, m) in [(1, 100), (2, 4096), (3, 100), (4, 8192), (5, 1), (1, 9000)] {
            assert_eq!(
                idx.first_fit(res(c, m)),
                reference_first_fit(&ms, res(c, m)),
                "footprint ({c}, {m})"
            );
        }
    }

    #[test]
    fn sync_tracks_starts_and_releases() {
        let mut ms = machines();
        let mut idx = AvailabilityIndex::new(&ms);
        // Fill machine 0 completely; first fit for 2 cores moves to machine 1.
        ms[0].start(SimTime::ZERO, JobId(1), res(2, 1000), Priority::LOW);
        idx.sync(0, &ms[0]);
        assert_eq!(idx.first_fit(res(2, 100)), Some(1));
        assert_eq!(
            idx.first_fit(res(2, 100)),
            reference_first_fit(&ms, res(2, 100))
        );
        ms[0].release(JobId(1)).unwrap();
        idx.sync(0, &ms[0]);
        assert_eq!(idx.first_fit(res(2, 100)), Some(0));
        assert!(idx.check_consistency(&ms));
    }

    #[test]
    fn down_machines_leave_their_buckets_but_stay_eligible() {
        let mut ms = machines();
        let mut idx = AvailabilityIndex::new(&ms);
        ms[2].fail();
        idx.sync(2, &ms[2]);
        assert_eq!(
            idx.first_fit(res(4, 100)),
            None,
            "only the 4-core machine fits"
        );
        assert!(idx.is_eligible(res(4, 100)), "eligibility ignores downtime");
        ms[2].restore();
        idx.sync(2, &ms[2]);
        assert_eq!(idx.first_fit(res(4, 100)), Some(2));
        assert!(idx.check_consistency(&ms));
    }

    #[test]
    fn redundant_sync_is_a_no_op() {
        let ms = machines();
        let mut idx = AvailabilityIndex::new(&ms);
        let before = idx.clone();
        idx.sync(0, &ms[0]);
        assert_eq!(idx, before);
    }

    #[test]
    fn memory_floor_prunes_without_missing_matches() {
        // One machine with lots of free cores but little free memory must
        // not shadow a later machine with enough of both.
        let mut ms = machines();
        ms[2].start(SimTime::ZERO, JobId(1), res(1, 8000), Priority::LOW);
        let idx = AvailabilityIndex::new(&ms);
        assert_eq!(idx.first_fit(res(3, 1000)), None);
        assert_eq!(idx.first_fit(res(2, 3000)), Some(0));
        assert_eq!(
            idx.first_fit(res(1, 2000)),
            reference_first_fit(&ms, res(1, 2000))
        );
    }

    #[test]
    fn min_multiset_tracks_minimum_through_churn() {
        let mut s = MinMultiset::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        s.insert(5u32);
        s.insert(2);
        s.insert(2);
        s.insert(9);
        assert_eq!(s.min(), Some(2));
        assert_eq!(s.len(), 4);
        s.remove(2);
        assert_eq!(s.min(), Some(2), "one occurrence of the min remains");
        s.remove(2);
        assert_eq!(s.min(), Some(5));
        s.remove(5);
        s.remove(9);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "value present")]
    fn min_multiset_remove_absent_panics() {
        let mut s = MinMultiset::new();
        s.insert(1u32);
        s.insert(3);
        s.remove(2);
    }

    /// The ordered-map multiset the flat one replaced, kept as its oracle.
    #[derive(Default)]
    struct BTreeMinMultiset {
        counts: std::collections::BTreeMap<u64, usize>,
        len: usize,
    }

    impl BTreeMinMultiset {
        fn insert(&mut self, value: u64) {
            *self.counts.entry(value).or_insert(0) += 1;
            self.len += 1;
        }

        fn remove(&mut self, value: u64) {
            let count = self.counts.get_mut(&value).expect("value present");
            *count -= 1;
            if *count == 0 {
                self.counts.remove(&value);
            }
            self.len -= 1;
        }

        fn min(&self) -> Option<u64> {
            self.counts.keys().next().copied()
        }
    }

    proptest! {
        /// The flat multiset answers `min`, `len` and `is_empty` exactly as
        /// the ordered-map version does under arbitrary insert/remove
        /// churn, over a narrow value range (long runs of equal values)
        /// and a wide one (hundreds of distinct values, so inserts and
        /// removals land anywhere in the sorted buffer).
        #[test]
        fn prop_flat_min_multiset_matches_ordered_map(
            wide in any::<bool>(),
            ops in proptest::collection::vec((any::<bool>(), 0u64..10_000), 1..600),
        ) {
            let mut flat = MinMultiset::new();
            let mut oracle = BTreeMinMultiset::default();
            let mut present: Vec<u64> = Vec::new();
            for (insert, raw) in ops {
                if insert || present.is_empty() {
                    let value = if wide { raw } else { raw % 4 };
                    flat.insert(value);
                    oracle.insert(value);
                    present.push(value);
                } else {
                    let value = present.swap_remove(raw as usize % present.len());
                    flat.remove(value);
                    oracle.remove(value);
                }
                prop_assert_eq!(flat.min(), oracle.min());
                prop_assert_eq!(flat.len(), oracle.len);
                prop_assert_eq!(flat.is_empty(), oracle.len == 0);
                prop_assert!(flat.counts.windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert_eq!(flat.counts.len(), oracle.counts.len());
            }
        }
    }

    /// One machine mutation of the index proptest, on machine `m % len`.
    #[derive(Debug, Clone)]
    enum Step {
        Start { m: usize, cores: u32, mem: u64 },
        Release(usize),
        Suspend(usize),
        Fail(usize),
        Restore(usize),
        Drain(usize),
        Undrain(usize),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        (0u8..10, 0usize..64, 1u32..5, 0u64..9000).prop_map(|(op, m, cores, mem)| match op {
            0..=2 => Step::Start { m, cores, mem },
            3 | 4 => Step::Release(m),
            5 => Step::Suspend(m),
            6 => Step::Fail(m),
            7 => Step::Restore(m),
            8 => Step::Drain(m),
            _ => Step::Undrain(m),
        })
    }

    /// Applies `step` to its machine (skipping moves the machine cannot
    /// make) and returns the machine index touched.
    fn apply(ms: &mut [Machine], step: &Step, next_job: &mut u64) -> usize {
        let t = SimTime::ZERO;
        let m = match *step {
            Step::Start { m, .. }
            | Step::Release(m)
            | Step::Suspend(m)
            | Step::Fail(m)
            | Step::Restore(m)
            | Step::Drain(m)
            | Step::Undrain(m) => m % ms.len(),
        };
        let machine = &mut ms[m];
        match *step {
            Step::Start { cores, mem, .. } => {
                if machine.can_run_now(res(cores, mem)) {
                    *next_job += 1;
                    machine.start(t, JobId(*next_job), res(cores, mem), Priority::LOW);
                }
            }
            Step::Release(_) => {
                if let Some(r) = machine.running().first().copied() {
                    machine.release(r.job);
                } else if let Some(r) = machine.suspended().first().copied() {
                    machine.remove_suspended(r.job);
                }
            }
            Step::Suspend(_) => {
                if let Some(r) = machine.running().first().copied() {
                    machine.suspend(t, r.job);
                }
            }
            Step::Fail(_) => {
                machine.fail();
            }
            Step::Restore(_) => machine.restore(),
            Step::Drain(_) => machine.start_drain(),
            Step::Undrain(_) => machine.end_drain(),
        }
        m
    }

    proptest! {
        /// Over random machine mutations on mixed configurations —
        /// including a single machine and counts that are not powers of
        /// two — the tree's first fit equals the reference scan for a
        /// sweep of footprints, and the incrementally synced tree equals
        /// a fresh rebuild, after every step.
        #[test]
        fn prop_first_fit_matches_reference_scan(
            configs in proptest::collection::vec(
                prop_oneof![Just((8u32, 32_768u64)), Just((2, 8_192)), Just((4, 16_384)), Just((1, 2_048))],
                1..13,
            ),
            steps in proptest::collection::vec(arb_step(), 1..150),
        ) {
            let mut ms: Vec<Machine> = configs
                .iter()
                .enumerate()
                .map(|(i, &(c, m))| Machine::new(MachineConfig::new(MachineId(i as u32), c, m)))
                .collect();
            let mut idx = AvailabilityIndex::new(&ms);
            let mut next_job = 0;
            let probes = [
                (0u32, 0u64), (1, 1), (1, 2_048), (1, 5_000), (2, 1), (2, 8_192),
                (3, 100), (4, 16_000), (5, 1), (8, 32_768), (9, 1),
            ];
            for step in &steps {
                let m = apply(&mut ms, step, &mut next_job);
                idx.sync(m, &ms[m]);
                for (cores, mem) in probes {
                    prop_assert_eq!(
                        idx.first_fit(res(cores, mem)),
                        reference_first_fit(&ms, res(cores, mem)),
                        "probe ({}, {}) after {:?}", cores, mem, step
                    );
                }
                prop_assert!(idx.check_consistency(&ms), "tree drifted after {:?}", step);
            }
        }
    }
}
