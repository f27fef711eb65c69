//! The pending-event set: a cancellable priority queue ordered by time.
//!
//! Determinism is the load-bearing property here. Two events scheduled for
//! the same minute are delivered in the order they were scheduled (FIFO by
//! sequence number), so a simulation run is a pure function of its inputs
//! and seed. Cancellation is lazy: cancelled entries stay in the backend
//! and are skipped on pop; when they outnumber half the pending set the
//! queue compacts, so garbage stays proportional to the live event count.
//!
//! Two backends implement the same contract:
//!
//! * the default **hierarchical timer wheel** — `SimTime` is minute-granular,
//!   so near-future events bucket naturally into a 1024-minute level-0 wheel,
//!   with a level-1 wheel of 1024-minute blocks above it and a `BTreeMap`
//!   overflow for timers beyond the ~2-simulated-year level-1 span. Schedule
//!   and pop are O(1) amortized instead of the heap's O(log n);
//! * the original **binary heap**, kept as a reference implementation
//!   ([`EventQueue::with_reference_heap`]) and differential-tested against
//!   the wheel so the (time, sequence) delivery order provably matches.
//!
//! Why FIFO survives the wheel's cascading: levels are *block-aligned*, not
//! distance-based. Level 0 only ever holds minutes of the block the cursor
//! is in; a level-1 slot is dumped into level 0 at the instant the cursor
//! enters its block — strictly before any later (higher-sequence) entry can
//! be scheduled directly into level 0 for that block — and the overflow for
//! a superblock drains, in time order, when the cursor enters the
//! superblock. Every container therefore appends same-minute entries in
//! sequence order, and every dump preserves relative order, so a slot is
//! always popped front-to-back in exactly (time, sequence) order.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable to cancel it later.
///
/// Handles are unique per [`EventQueue`] for the queue's lifetime; they are
/// never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Returns the raw sequence number, mainly for logging.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev#{}", self.0)
    }
}

/// A fast hasher for the pending/cancelled id sets.
///
/// [`EventId`]s are sequential integers, so SipHash's DoS resistance buys
/// nothing here while dominating the cancel/pop profile. This is the
/// classic multiply–xorshift integer finalizer (the SplitMix64 constant),
/// hand-rolled because the workspace builds fully offline — no `fxhash`/
/// `ahash` dependency is available.
#[derive(Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys (unused by EventId): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }
}

type SeqBuild = BuildHasherDefault<SeqHasher>;
type IdSet = HashSet<EventId, SeqBuild>;

struct Entry<E> {
    time: SimTime,
    id: EventId,
    event: E,
}

// Reverse ordering: BinaryHeap is a max-heap, we want the earliest
// (time, id) on top.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.id).cmp(&(self.time, self.id))
    }
}

/// Level-0/level-1 wheel resolution: 1024 slots per level.
const LEVEL_BITS: u32 = 10;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Minutes covered by one level-0 *block* (~17 simulated hours).
const SPAN_L0: u64 = 1 << LEVEL_BITS;
/// Minutes covered by one level-1 *superblock* (~2 simulated years).
const SPAN_L1: u64 = 1 << (2 * LEVEL_BITS);
/// Words in a level occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

/// Returns the first set bit at or after `from`, or `None`.
fn bits_next(occ: &[u64; OCC_WORDS], from: usize) -> Option<usize> {
    let mut w = from >> 6;
    if w >= OCC_WORDS {
        return None;
    }
    let mut word = occ[w] & (!0u64 << (from & 63));
    loop {
        if word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == OCC_WORDS {
            return None;
        }
        word = occ[w];
    }
}

/// The hierarchical timer wheel backend.
///
/// `l0` holds one `VecDeque` per minute of the cursor's current
/// 1024-minute block; `l1` holds one `Vec` per 1024-minute block of the
/// cursor's current superblock; `overflow` holds everything beyond,
/// keyed by minute. Slot buffers are drained in place and keep their
/// capacity, so steady-state scheduling re-uses the same allocations
/// (slab-style) instead of churning the allocator.
struct Wheel<E> {
    /// The earliest minute that may still hold events (monotone).
    cursor: u64,
    l0: Vec<VecDeque<Entry<E>>>,
    l1: Vec<Vec<Entry<E>>>,
    l0_occ: [u64; OCC_WORDS],
    l1_occ: [u64; OCC_WORDS],
    overflow: BTreeMap<u64, Vec<Entry<E>>>,
    /// Entries physically present across all levels (incl. cancelled).
    stored: usize,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            cursor: 0,
            l0: (0..SLOTS).map(|_| VecDeque::new()).collect(),
            l1: (0..SLOTS).map(|_| Vec::new()).collect(),
            l0_occ: [0; OCC_WORDS],
            l1_occ: [0; OCC_WORDS],
            overflow: BTreeMap::new(),
            stored: 0,
        }
    }

    /// Inserts an entry. Times before the cursor (the executor never
    /// produces them, but the queue contract tolerates them) are delivered
    /// at the cursor while keeping their original timestamp.
    fn push(&mut self, entry: Entry<E>) {
        let at = entry.time.as_minutes().max(self.cursor);
        self.place(at, entry);
        self.stored += 1;
    }

    /// Places an entry at minute `at` (`at >= self.cursor`).
    fn place(&mut self, at: u64, entry: Entry<E>) {
        if at >> LEVEL_BITS == self.cursor >> LEVEL_BITS {
            let s = (at & (SPAN_L0 - 1)) as usize;
            self.l0[s].push_back(entry);
            self.l0_occ[s >> 6] |= 1 << (s & 63);
        } else if at >> (2 * LEVEL_BITS) == self.cursor >> (2 * LEVEL_BITS) {
            let b = ((at >> LEVEL_BITS) & (SPAN_L0 - 1)) as usize;
            self.l1[b].push(entry);
            self.l1_occ[b >> 6] |= 1 << (b & 63);
        } else {
            self.overflow.entry(at).or_default().push(entry);
        }
    }

    /// Advances the cursor to the earliest occupied minute, cascading
    /// level-1 blocks and overflow superblocks down as the cursor enters
    /// them, and returns its level-0 slot. `None` when empty.
    fn find_front(&mut self) -> Option<usize> {
        if self.stored == 0 {
            return None;
        }
        loop {
            // Level 0: the cursor's own block.
            let block_base = self.cursor & !(SPAN_L0 - 1);
            if let Some(s) = bits_next(&self.l0_occ, (self.cursor - block_base) as usize) {
                self.cursor = block_base + s as u64;
                return Some(s);
            }
            // Level 1: the next occupied block of the current superblock.
            // Slots at or below the cursor's block are empty by
            // construction (dumped when the cursor entered them).
            if let Some(b) = bits_next(&self.l1_occ, 0) {
                let sb_base = self.cursor & !(SPAN_L1 - 1);
                self.cursor = sb_base + ((b as u64) << LEVEL_BITS);
                self.l1_occ[b >> 6] &= !(1u64 << (b & 63));
                let (l0, occ) = (&mut self.l0, &mut self.l0_occ);
                // Unlike level-0 slots (re-used every 1024 minutes, where
                // keeping capacity is slab re-use), a level-1 block drains
                // once per superblock lap — ~2 simulated years. Retaining
                // its buffer would grow the wheel linearly with the horizon
                // (one block per 1024 minutes, forever), so free it.
                for e in std::mem::take(&mut self.l1[b]) {
                    // Level-1 entries always carry their placement minute
                    // (past-time pushes are confined to level 0).
                    let s = (e.time.as_minutes() & (SPAN_L0 - 1)) as usize;
                    occ[s >> 6] |= 1 << (s & 63);
                    l0[s].push_back(e);
                }
                continue;
            }
            // Overflow: jump to the superblock of the earliest far timer
            // and drain that superblock's keys (in time order) into the
            // wheels before any direct insert for it can exist.
            let &first = self.overflow.keys().next()?;
            let sb_base = first & !(SPAN_L1 - 1);
            debug_assert!(
                sb_base > self.cursor,
                "overflow keys are beyond the superblock"
            );
            self.cursor = sb_base;
            let rest = self.overflow.split_off(&(sb_base + SPAN_L1));
            let drained = std::mem::replace(&mut self.overflow, rest);
            for (at, entries) in drained {
                for e in entries {
                    self.place(at, e);
                }
            }
        }
    }

    fn pop_front(&mut self) -> Option<Entry<E>> {
        let s = self.find_front()?;
        let entry = self.l0[s].pop_front().expect("occupied slot has an entry");
        if self.l0[s].is_empty() {
            self.l0_occ[s >> 6] &= !(1u64 << (s & 63));
        }
        self.stored -= 1;
        if self.stored == 0 {
            // An empty wheel has no time state: resetting the cursor makes
            // an emptied queue behave exactly like a fresh one (matching
            // the heap), instead of late-delivering schedules below a
            // cursor that advanced past never-surfaced cancelled entries.
            self.cursor = 0;
        }
        Some(entry)
    }

    /// Returns the `(time, id)` that `pop_front` would deliver next,
    /// **without** advancing the cursor or cascading levels. Keeping the
    /// cursor put matters to callers that schedule between a peek and the
    /// next pop (the streaming workers' completion loop does): an
    /// advanced cursor would clamp such schedules up to the peeked minute
    /// and deliver them out of order.
    fn peek_front(&self) -> Option<(SimTime, EventId)> {
        if self.stored == 0 {
            return None;
        }
        // Level 0: the earliest occupied slot of the cursor's block is
        // earlier than anything still parked in level 1 or overflow.
        let block_base = self.cursor & !(SPAN_L0 - 1);
        if let Some(s) = bits_next(&self.l0_occ, (self.cursor - block_base) as usize) {
            let entry = self.l0[s].front().expect("occupied slot has an entry");
            return Some((entry.time, entry.id));
        }
        // Level 1: the lowest occupied block holds the earliest minutes,
        // but entries within a block are unsorted — take the (time, id)
        // minimum (ids are schedule-ordered, so this preserves the
        // same-minute FIFO contract).
        if let Some(b) = bits_next(&self.l1_occ, 0) {
            let entry = self.l1[b]
                .iter()
                .min_by_key(|e| (e.time, e.id))
                .expect("occupied block has an entry");
            return Some((entry.time, entry.id));
        }
        // Overflow: the earliest far minute, FIFO within it.
        let (_, entries) = self.overflow.iter().next()?;
        let entry = entries.first().expect("overflow minutes are non-empty");
        Some((entry.time, entry.id))
    }

    /// Drops every entry whose id is in `cancelled`, preserving the order
    /// of survivors. Returns the number of entries removed.
    fn compact(&mut self, cancelled: &IdSet) -> usize {
        let mut removed = 0;
        for s in 0..SLOTS {
            if !self.l0[s].is_empty() {
                self.l0[s].retain(|e| {
                    let keep = !cancelled.contains(&e.id);
                    removed += usize::from(!keep);
                    keep
                });
                if self.l0[s].is_empty() {
                    self.l0_occ[s >> 6] &= !(1u64 << (s & 63));
                }
            }
            if !self.l1[s].is_empty() {
                self.l1[s].retain(|e| {
                    let keep = !cancelled.contains(&e.id);
                    removed += usize::from(!keep);
                    keep
                });
                if self.l1[s].is_empty() {
                    self.l1_occ[s >> 6] &= !(1u64 << (s & 63));
                }
            }
        }
        self.overflow.retain(|_, entries| {
            entries.retain(|e| {
                let keep = !cancelled.contains(&e.id);
                removed += usize::from(!keep);
                keep
            });
            !entries.is_empty()
        });
        self.stored -= removed;
        if self.stored == 0 {
            self.cursor = 0;
        }
        removed
    }
}

// One queue backs an entire simulation, so the wheel variant's inline
// slot arrays dwarfing the boxed heap is harmless — boxing the wheel
// would buy nothing and cost a pointer chase on every schedule/pop.
#[allow(clippy::large_enum_variant)]
enum Backend<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Entry<E>>),
}

/// Compaction only kicks in past this much garbage, so small queues never
/// pay the sweep.
const COMPACT_FLOOR: usize = 64;

/// A deterministic, cancellable future-event set.
///
/// # Examples
///
/// ```
/// use netbatch_sim_engine::queue::EventQueue;
/// use netbatch_sim_engine::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_minutes(5), "later");
/// q.schedule(SimTime::from_minutes(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_minutes(), e), (1, "sooner"));
/// ```
pub struct EventQueue<E> {
    backend: Backend<E>,
    /// Ids scheduled but not yet delivered or cancelled.
    pending: IdSet,
    /// Ids cancelled but still physically present in the backend.
    cancelled: IdSet,
    next_id: u64,
    scheduled_total: u64,
    cancelled_total: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the timer-wheel backend.
    pub fn new() -> Self {
        EventQueue {
            backend: Backend::Wheel(Wheel::new()),
            pending: IdSet::default(),
            cancelled: IdSet::default(),
            next_id: 0,
            scheduled_total: 0,
            cancelled_total: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events —
    /// including the auxiliary pending/cancelled id sets, so a pre-sized
    /// queue performs no set re-hashing in steady state.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            pending: IdSet::with_capacity_and_hasher(capacity, SeqBuild::default()),
            cancelled: IdSet::with_capacity_and_hasher(capacity / 2, SeqBuild::default()),
            ..EventQueue::new()
        }
    }

    /// Creates an empty queue on the original binary-heap backend.
    ///
    /// The heap is retained purely as a *reference implementation*: the
    /// timer wheel is differential-tested against it (unit and property
    /// tests here, plus end-to-end golden-trace runs via
    /// `SimConfig::use_reference_queue`), which is what licenses the claim
    /// that the wheel preserves (time, sequence) delivery order exactly.
    pub fn with_reference_heap() -> Self {
        EventQueue {
            backend: Backend::Heap(BinaryHeap::new()),
            ..EventQueue::new()
        }
    }

    /// Schedules `event` to fire at `time` and returns a handle that can be
    /// passed to [`EventQueue::cancel`].
    ///
    /// Events scheduled for the same instant fire in scheduling order.
    ///
    /// Scheduling earlier than the latest delivered (or peeked) front is
    /// tolerated — the executor never does it, it forbids past scheduling —
    /// but such an event is delivered as soon as possible rather than
    /// re-sorted before already-surfaced entries; it keeps its original
    /// timestamp.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.scheduled_total += 1;
        self.pending.insert(id);
        let entry = Entry { time, id, event };
        match &mut self.backend {
            Backend::Wheel(w) => w.push(entry),
            Backend::Heap(h) => h.push(entry),
        }
        id
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-delivered handle is a no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.pending.remove(&id) {
            return false;
        }
        self.cancelled.insert(id);
        self.cancelled_total += 1;
        self.maybe_compact();
        true
    }

    /// Sweeps lazily-cancelled garbage out of the backend once it exceeds
    /// half the pending set, bounding physical occupancy to
    /// O(pending events). Order-preserving, so delivery is unaffected.
    fn maybe_compact(&mut self) {
        if self.cancelled.len() < COMPACT_FLOOR || self.cancelled.len() <= self.pending.len() / 2 {
            return;
        }
        let removed = match &mut self.backend {
            Backend::Wheel(w) => w.compact(&self.cancelled),
            Backend::Heap(h) => {
                let before = h.len();
                let entries = std::mem::take(h).into_vec();
                *h = entries
                    .into_iter()
                    .filter(|e| !self.cancelled.contains(&e.id))
                    .collect();
                before - h.len()
            }
        };
        debug_assert_eq!(
            removed,
            self.cancelled.len(),
            "every cancelled id is stored"
        );
        self.cancelled.clear();
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// entries. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let entry = match &mut self.backend {
                Backend::Wheel(w) => w.pop_front(),
                Backend::Heap(h) => h.pop(),
            }?;
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            self.pending.remove(&entry.id);
            return Some((entry.time, entry.event));
        }
    }

    /// Like [`EventQueue::pop`] but also returns the delivered entry's
    /// [`EventId`] — the handle [`EventQueue::schedule`] returned for it.
    ///
    /// External drivers (the streaming simulation workers) use the id to
    /// check that a popped event is still the one a consumer expects: the
    /// id is the only way to tell a live completion from a superseded
    /// one.
    pub fn pop_with_id(&mut self) -> Option<(SimTime, EventId, E)> {
        loop {
            let entry = match &mut self.backend {
                Backend::Wheel(w) => w.pop_front(),
                Backend::Heap(h) => h.pop(),
            }?;
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            self.pending.remove(&entry.id);
            return Some((entry.time, entry.id, entry.event));
        }
    }

    /// Returns the time of the earliest pending (non-cancelled) event
    /// without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (time, id) = match &mut self.backend {
                Backend::Wheel(w) => w.peek_front(),
                Backend::Heap(h) => h.peek().map(|e| (e.time, e.id)),
            }?;
            if self.cancelled.remove(&id) {
                match &mut self.backend {
                    Backend::Wheel(w) => w.pop_front(),
                    Backend::Heap(h) => h.pop(),
                };
            } else {
                return Some(time);
            }
        }
    }

    /// Returns the number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events ever cancelled on this queue.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Entries physically present in the backend, including
    /// not-yet-swept cancelled garbage. Exposed for the
    /// memory-proportionality tests and the bench harness.
    #[doc(hidden)]
    pub fn stored_entries(&self) -> usize {
        match &self.backend {
            Backend::Wheel(w) => w.stored,
            Backend::Heap(h) => h.len(),
        }
    }

    /// True when this queue runs on the reference heap backend.
    #[doc(hidden)]
    pub fn uses_reference_heap(&self) -> bool {
        matches!(self.backend, Backend::Heap(_))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("scheduled_total", &self.scheduled_total)
            .field("cancelled_total", &self.cancelled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_minutes(30), 'c');
        q.schedule(SimTime::from_minutes(10), 'a');
        q.schedule(SimTime::from_minutes(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn year_horizon_bookings_pop_in_order() {
        // The streaming backend books completions across a year-long
        // window (525 600 minutes), far beyond the wheel's low levels;
        // timer promotion must keep delivering in (time, id) order and
        // agree with the reference heap at that range.
        let year = 365 * 24 * 60;
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::with_reference_heap();
        let minutes: Vec<u64> = (0..200u64)
            .map(|i| (i * 7919 + i * i * 104_729) % year)
            .collect();
        for (i, &m) in minutes.iter().enumerate() {
            wheel.schedule(SimTime::from_minutes(m), i);
            heap.schedule(SimTime::from_minutes(m), i);
        }
        wheel.schedule(SimTime::from_minutes(year + 1), usize::MAX);
        heap.schedule(SimTime::from_minutes(year + 1), usize::MAX);
        let mut last = SimTime::ZERO;
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            let Some((t, _)) = a else { break };
            assert!(t >= last, "wheel must not reorder far timers");
            last = t;
        }
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_minutes(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_minutes(1), "x");
        q.schedule(SimTime::from_minutes(2), "y");
        assert!(q.cancel(id));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("y"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_minutes(1), ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
        assert_eq!(q.cancelled_total(), 1);
    }

    #[test]
    fn cancel_unknown_id_is_rejected() {
        let mut q = EventQueue::<()>::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_after_delivery_is_noop() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_minutes(1), "x");
        assert!(q.pop().is_some());
        assert!(!q.cancel(id));
        assert_eq!(q.len(), 0);
        assert_eq!(q.cancelled_total(), 0);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let first = q.schedule(SimTime::from_minutes(1), "x");
        q.schedule(SimTime::from_minutes(9), "y");
        q.cancel(first);
        assert_eq!(q.peek_time(), Some(SimTime::from_minutes(9)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::<u8>::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn debug_is_nonempty() {
        let q = EventQueue::<u8>::new();
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn spans_every_wheel_level() {
        // One event per level: level 0 (same block), level 1 (same
        // superblock), overflow (beyond the level-1 span), in shuffled
        // insertion order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_minutes(3_000_000), "overflow");
        q.schedule(SimTime::from_minutes(5), "l0");
        q.schedule(SimTime::from_minutes(200_000), "l1");
        q.schedule(SimTime::from_minutes(3_000_000), "overflow-tie");
        let order: Vec<(u64, &str)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_minutes(), e))).collect();
        assert_eq!(
            order,
            vec![
                (5, "l0"),
                (200_000, "l1"),
                (3_000_000, "overflow"),
                (3_000_000, "overflow-tie"),
            ]
        );
    }

    #[test]
    fn fifo_survives_level1_cascade() {
        // Entry A for minute 1500 is scheduled while the cursor is in
        // block 0 (so it lands in level 1); the cursor then enters block 1
        // (dumping A into level 0); entry B for the same minute is then
        // scheduled directly into level 0. A must still pop before B.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_minutes(1500), "A");
        q.schedule(SimTime::from_minutes(1100), "advance");
        assert_eq!(q.pop().map(|(_, e)| e), Some("advance"));
        q.schedule(SimTime::from_minutes(1500), "B");
        assert_eq!(q.pop().map(|(_, e)| e), Some("A"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("B"));
    }

    #[test]
    fn fifo_survives_overflow_drain() {
        let far = 5 * SPAN_L1 + 77;
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_minutes(far), "A");
        q.schedule(SimTime::from_minutes(far - 3), "earlier");
        assert_eq!(q.pop().map(|(_, e)| e), Some("earlier"));
        // The overflow superblock has been drained; a direct insert for
        // the same far minute must queue behind A.
        q.schedule(SimTime::from_minutes(far), "B");
        assert_eq!(q.pop().map(|(_, e)| e), Some("A"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("B"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancellation_garbage_is_bounded() {
        // 100k schedule/cancel churn: physical occupancy must stay
        // proportional to len() — compaction caps garbage at half the
        // pending set (plus the small compaction floor).
        let mut q = EventQueue::with_capacity(100_000);
        let mut ids = Vec::with_capacity(100_000);
        for i in 0..100_000u64 {
            ids.push(q.schedule(SimTime::from_minutes(i % 5_000), i));
        }
        for (i, id) in ids.iter().enumerate() {
            if i % 10 != 0 {
                q.cancel(*id);
            }
            let bound = 2 * q.len() + 2 * COMPACT_FLOOR;
            assert!(
                q.stored_entries() <= bound,
                "stored {} exceeds memory-proportional bound {} at step {i} (len {})",
                q.stored_entries(),
                bound,
                q.len()
            );
        }
        assert_eq!(q.len(), 10_000);
        assert!(q.stored_entries() <= 2 * q.len() + 2 * COMPACT_FLOOR);
        assert_eq!(q.cancelled_total(), 90_000);
        // Every survivor still pops, in order.
        let mut popped = 0;
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, 10_000);
    }

    #[test]
    fn reference_heap_backend_matches_contract() {
        let mut q = EventQueue::with_reference_heap();
        assert!(q.uses_reference_heap());
        let a = q.schedule(SimTime::from_minutes(7), "a");
        q.schedule(SimTime::from_minutes(7), "b");
        q.schedule(SimTime::from_minutes(2), "c");
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(SimTime::from_minutes(2)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["c", "b"]);
    }

    proptest! {
        /// Popping yields a non-decreasing sequence of times, regardless of
        /// insertion order.
        #[test]
        fn prop_pop_order_is_monotone(times in proptest::collection::vec(0u64..10_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_minutes(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0usize;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        /// Same-time events preserve scheduling order even mixed with other
        /// times (stability).
        #[test]
        fn prop_same_time_fifo(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_minutes(t), i);
            }
            let mut last_seq_at_time: std::collections::HashMap<u64, usize> = Default::default();
            while let Some((t, seq)) = q.pop() {
                if let Some(&prev) = last_seq_at_time.get(&t.as_minutes()) {
                    prop_assert!(seq > prev);
                }
                last_seq_at_time.insert(t.as_minutes(), seq);
            }
        }

        /// len() always equals scheduled - popped - cancelled.
        #[test]
        fn prop_len_accounting(ops in proptest::collection::vec(0u8..3, 1..300)) {
            let mut q = EventQueue::new();
            let mut ids = Vec::new();
            let mut live: i64 = 0;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    0 => {
                        ids.push(q.schedule(SimTime::from_minutes(i as u64 % 17), i));
                        live += 1;
                    }
                    1 => {
                        if let Some(id) = ids.pop() {
                            if q.cancel(id) {
                                live -= 1;
                            }
                        }
                    }
                    _ => {
                        if q.pop().is_some() {
                            live -= 1;
                            // popped id may still be in `ids`; cancelling it later is a no-op
                        }
                    }
                }
                prop_assert_eq!(q.len() as i64, live.max(0));
            }
        }

        /// Differential test: over arbitrary monotone-safe schedule /
        /// cancel / pop / peek sequences (times never before the latest
        /// surfaced front, matching the executor's contract — every peek is
        /// immediately followed by popping that event, and handlers only
        /// schedule at or after the delivered time), the timer wheel and
        /// the reference heap agree on every observable: pop results, peek
        /// times, lengths, and cancel outcomes. Offsets are scaled so the
        /// sequences regularly cross level-1 blocks and the overflow span.
        #[test]
        fn prop_wheel_matches_reference_heap(
            ops in proptest::collection::vec((0u8..4, 0u64..2_000), 1..400),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = EventQueue::with_reference_heap();
            let mut ids = Vec::new();
            let mut cursor = 0u64;
            for (i, &(op, x)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        let t = SimTime::from_minutes(cursor + x);
                        let idw = wheel.schedule(t, i);
                        let idh = heap.schedule(t, i);
                        prop_assert_eq!(idw, idh);
                        ids.push(idw);
                    }
                    1 => {
                        // Far timers: exercise level 1 and overflow.
                        let t = SimTime::from_minutes(cursor + x * 700);
                        let idw = wheel.schedule(t, i);
                        let idh = heap.schedule(t, i);
                        prop_assert_eq!(idw, idh);
                        ids.push(idw);
                    }
                    2 => {
                        if !ids.is_empty() {
                            let id = ids[(x as usize) % ids.len()];
                            prop_assert_eq!(wheel.cancel(id), heap.cancel(id));
                        }
                    }
                    _ => {
                        let a = wheel.pop();
                        let b = heap.pop();
                        prop_assert_eq!(&a, &b);
                        if let Some((t, _)) = a {
                            cursor = cursor.max(t.as_minutes());
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                let front = wheel.peek_time();
                prop_assert_eq!(front, heap.peek_time());
                if let Some(t) = front {
                    // Peeking surfaces the front: later schedules must not
                    // go before it (the executor's usage pattern).
                    cursor = cursor.max(t.as_minutes());
                }
            }
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
