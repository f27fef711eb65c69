//! The pending-event set: a cancellable priority queue ordered by time.
//!
//! Determinism is the load-bearing property here. Two events scheduled for
//! the same minute are delivered in the order they were scheduled (FIFO),
//! so a simulation run is a pure function of its inputs and seed.
//!
//! Cancellation is lazy and slab-indexed. Every scheduled event owns a
//! slot of a slab; its [`EventId`] is that slot's index plus the slot's
//! generation. `cancel` flips the slot to cancelled, and `pop` /
//! `peek_time` read the slot of the entry at the front to skip it — each
//! one `Vec` index, no hashing. A slot is freed (and its generation
//! bumped, so old handles go stale) when its entry leaves the backend.
//! When cancelled entries outnumber half the pending set the queue
//! compacts, so garbage stays proportional to the live event count.
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
//!   the wheel so the (time, sequence) delivery order provably matches. Only
//!   the heap's own entries carry a sequence number; wheel entries get FIFO
//!   from their position.
//!
//! Why FIFO survives the wheel's cascading: levels are *block-aligned*, not
//! distance-based. Level 0 only ever holds minutes of the block the cursor
//! is in; a level-1 slot is dumped into level 0 at the instant the cursor
//! enters its block — strictly before any later entry can be scheduled
//! directly into level 0 for that block — and the overflow for a
//! superblock drains, in time order, when the cursor enters the
//! superblock. Every container therefore appends same-minute entries in
//! scheduling order, and every dump preserves relative order, so a slot is
//! always popped front-to-back in exactly (time, sequence) order.
//!
//! Only `pop` moves the cursor. Peeking — including dropping cancelled
//! entries from the front — leaves it put, so a caller may schedule
//! anywhere at or after the last *delivered* minute between a peek and
//! the next pop (the streaming workers do).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable to cancel it later.
///
/// A handle names a slab slot and that slot's generation. Slots are
/// reused once their event is delivered or swept, but every reuse bumps
/// the generation, so a stale handle never matches a later event:
/// cancelling it is a no-op returning `false`, and it compares unequal to
/// the handle of whatever event reuses the slot (until the 32-bit
/// generation wraps, after 2^32 reuses of that one slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

impl EventId {
    /// Returns the handle packed into one integer (generation in the high
    /// half, slot in the low half), mainly for logging.
    pub const fn as_u64(self) -> u64 {
        (self.generation as u64) << 32 | self.slot as u64
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev#{}.{}", self.slot, self.generation)
    }
}

/// The lifecycle of one slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Not backing any stored entry; listed in [`Slab::free`].
    Free,
    /// Backing a stored entry that will be delivered.
    Pending,
    /// Backing a stored entry that was cancelled and awaits removal.
    Cancelled,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    generation: u32,
    state: SlotState,
}

/// Per-event state, indexed by [`EventId::slot`]. One slot per entry
/// physically stored in the backend, so its size tracks the backend's.
#[derive(Default)]
struct Slab {
    slots: Vec<Slot>,
    /// Free slot indices, reused last-in first-out.
    free: Vec<u32>,
}

impl Slab {
    fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Claims a slot for a newly scheduled event.
    fn alloc(&mut self) -> EventId {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 stored events");
            self.slots.push(Slot {
                generation: 0,
                state: SlotState::Free,
            });
            slot
        });
        let cell = &mut self.slots[slot as usize];
        debug_assert_eq!(cell.state, SlotState::Free);
        cell.state = SlotState::Pending;
        EventId {
            slot,
            generation: cell.generation,
        }
    }

    /// State of the slot behind a *stored* entry's id.
    fn state(&self, id: EventId) -> SlotState {
        let cell = self.slots[id.slot as usize];
        debug_assert_eq!(cell.generation, id.generation, "stored ids are current");
        cell.state
    }

    /// Marks a pending event cancelled; `false` for stale, delivered or
    /// already-cancelled handles.
    fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(cell) if cell.generation == id.generation && cell.state == SlotState::Pending => {
                cell.state = SlotState::Cancelled;
                true
            }
            _ => false,
        }
    }

    /// Frees the slot of an entry that just left the backend. The
    /// generation bump makes every outstanding handle to it stale.
    fn release(&mut self, id: EventId) {
        let cell = &mut self.slots[id.slot as usize];
        cell.generation = cell.generation.wrapping_add(1);
        cell.state = SlotState::Free;
        self.free.push(id.slot);
    }
}

/// A wheel entry. FIFO among same-minute entries comes from their
/// position in the wheel's containers, so no sequence number is stored.
struct Entry<E> {
    time: SimTime,
    id: EventId,
    event: E,
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

/// Where the wheel's earliest entry sits, found without moving the cursor.
#[derive(Debug, Clone, Copy)]
enum Front {
    /// The head of level-0 slot `s`.
    L0(usize),
    /// Position `i` of level-1 block `b` (blocks are unsorted).
    L1(usize, usize),
    /// The head of the overflow list for minute `at`.
    Overflow(u64),
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

    /// Bookkeeping after an entry left the wheel.
    fn note_removed(&mut self) {
        self.stored -= 1;
        if self.stored == 0 {
            // An empty wheel has no time state: resetting the cursor makes
            // an emptied queue behave exactly like a fresh one (matching
            // the heap).
            self.cursor = 0;
        }
    }

    fn pop_front(&mut self) -> Option<Entry<E>> {
        let s = self.find_front()?;
        let entry = self.l0[s].pop_front().expect("occupied slot has an entry");
        if self.l0[s].is_empty() {
            self.l0_occ[s >> 6] &= !(1u64 << (s & 63));
        }
        self.note_removed();
        Some(entry)
    }

    /// Locates the entry `pop_front` would deliver next **without**
    /// advancing the cursor or cascading levels.
    fn front(&self) -> Option<Front> {
        if self.stored == 0 {
            return None;
        }
        // Level 0: the earliest occupied slot of the cursor's block is
        // earlier than anything still parked in level 1 or overflow.
        let block_base = self.cursor & !(SPAN_L0 - 1);
        if let Some(s) = bits_next(&self.l0_occ, (self.cursor - block_base) as usize) {
            return Some(Front::L0(s));
        }
        // Level 1: the lowest occupied block holds the earliest minutes,
        // but entries within a block are unsorted. Same-minute entries
        // sit in scheduling order, so the *first* entry with the minimum
        // time is the FIFO front.
        if let Some(b) = bits_next(&self.l1_occ, 0) {
            let block = &self.l1[b];
            let mut best = 0;
            for (i, e) in block.iter().enumerate().skip(1) {
                if e.time < block[best].time {
                    best = i;
                }
            }
            return Some(Front::L1(b, best));
        }
        // Overflow: the earliest far minute, FIFO within it.
        let (&at, _) = self.overflow.first_key_value()?;
        Some(Front::Overflow(at))
    }

    /// The `(time, id)` that `pop_front` would deliver next. Keeping the
    /// cursor put matters to callers that schedule between a peek and the
    /// next pop: an advanced cursor would clamp such schedules up to the
    /// peeked minute and deliver them out of order.
    fn peek_front(&self) -> Option<(SimTime, EventId)> {
        let entry = match self.front()? {
            Front::L0(s) => self.l0[s].front(),
            Front::L1(b, i) => self.l1[b].get(i),
            Front::Overflow(at) => self.overflow[&at].first(),
        }
        .expect("front location holds an entry");
        Some((entry.time, entry.id))
    }

    /// Removes the entry `peek_front` reports, without moving the cursor
    /// (the cancelled-front sweep of `peek_time`).
    fn drop_front(&mut self) {
        match self.front().expect("drop_front on a non-empty wheel") {
            Front::L0(s) => {
                self.l0[s].pop_front();
                if self.l0[s].is_empty() {
                    self.l0_occ[s >> 6] &= !(1u64 << (s & 63));
                }
            }
            Front::L1(b, i) => {
                self.l1[b].remove(i);
                if self.l1[b].is_empty() {
                    self.l1_occ[b >> 6] &= !(1u64 << (b & 63));
                }
            }
            Front::Overflow(at) => {
                let mut list = self.overflow.first_entry().expect("front minute exists");
                debug_assert_eq!(*list.key(), at);
                list.get_mut().remove(0);
                if list.get().is_empty() {
                    list.remove();
                }
            }
        }
        self.note_removed();
    }

    /// Keeps only entries whose id satisfies `keep`, preserving the order
    /// of survivors. Returns the number of entries removed.
    fn retain(&mut self, mut keep: impl FnMut(EventId) -> bool) -> usize {
        let before = self.stored;
        let mut kept = 0;
        for s in 0..SLOTS {
            if !self.l0[s].is_empty() {
                self.l0[s].retain(|e| keep(e.id));
                kept += self.l0[s].len();
                if self.l0[s].is_empty() {
                    self.l0_occ[s >> 6] &= !(1u64 << (s & 63));
                }
            }
            if !self.l1[s].is_empty() {
                self.l1[s].retain(|e| keep(e.id));
                kept += self.l1[s].len();
                if self.l1[s].is_empty() {
                    self.l1_occ[s >> 6] &= !(1u64 << (s & 63));
                }
            }
        }
        self.overflow.retain(|_, entries| {
            entries.retain(|e| keep(e.id));
            kept += entries.len();
            !entries.is_empty()
        });
        self.stored = kept;
        if self.stored == 0 {
            self.cursor = 0;
        }
        before - kept
    }
}

/// A reference-heap entry: the (time, sequence) pair orders delivery.
struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    id: EventId,
    event: E,
}

// Reverse ordering: BinaryHeap is a max-heap, we want the earliest
// (time, seq) on top.
impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

// One queue backs an entire simulation, so the wheel variant's inline
// slot arrays dwarfing the boxed heap is harmless — boxing the wheel
// would buy nothing and cost a pointer chase on every schedule/pop.
#[allow(clippy::large_enum_variant)]
enum Backend<E> {
    Wheel(Wheel<E>),
    Heap {
        heap: BinaryHeap<HeapEntry<E>>,
        next_seq: u64,
    },
}

impl<E> Backend<E> {
    fn push(&mut self, time: SimTime, id: EventId, event: E) {
        match self {
            Backend::Wheel(w) => w.push(Entry { time, id, event }),
            Backend::Heap { heap, next_seq } => {
                heap.push(HeapEntry {
                    time,
                    seq: *next_seq,
                    id,
                    event,
                });
                *next_seq += 1;
            }
        }
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        match self {
            Backend::Wheel(w) => w.pop_front().map(|e| (e.time, e.id, e.event)),
            Backend::Heap { heap, .. } => heap.pop().map(|e| (e.time, e.id, e.event)),
        }
    }

    fn peek(&self) -> Option<(SimTime, EventId)> {
        match self {
            Backend::Wheel(w) => w.peek_front(),
            Backend::Heap { heap, .. } => heap.peek().map(|e| (e.time, e.id)),
        }
    }

    /// Removes the entry `peek` reports; on the wheel, without moving
    /// the cursor.
    fn drop_front(&mut self) {
        match self {
            Backend::Wheel(w) => w.drop_front(),
            Backend::Heap { heap, .. } => {
                heap.pop();
            }
        }
    }

    /// Keeps only entries whose id satisfies `keep`, preserving delivery
    /// order; returns the number removed.
    fn retain(&mut self, mut keep: impl FnMut(EventId) -> bool) -> usize {
        match self {
            Backend::Wheel(w) => w.retain(keep),
            Backend::Heap { heap, .. } => {
                let before = heap.len();
                heap.retain(|e| keep(e.id));
                before - heap.len()
            }
        }
    }

    fn stored(&self) -> usize {
        match self {
            Backend::Wheel(w) => w.stored,
            Backend::Heap { heap, .. } => heap.len(),
        }
    }
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
    slab: Slab,
    /// Events scheduled but not yet delivered or cancelled.
    pending: usize,
    /// Events cancelled but still physically present in the backend.
    cancelled: usize,
    scheduled_total: u64,
    cancelled_total: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the timer-wheel backend.
    pub fn new() -> Self {
        EventQueue::on(Backend::Wheel(Wheel::new()), Slab::default())
    }

    fn on(backend: Backend<E>, slab: Slab) -> Self {
        EventQueue {
            backend,
            slab,
            pending: 0,
            cancelled: 0,
            scheduled_total: 0,
            cancelled_total: 0,
        }
    }

    /// Creates an empty queue with slab room for `capacity` stored events,
    /// so a pre-sized queue never regrows its slab in steady state.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue::on(Backend::Wheel(Wheel::new()), Slab::with_capacity(capacity))
    }

    /// Creates an empty queue on the original binary-heap backend.
    ///
    /// The heap is retained purely as a *reference implementation*: the
    /// timer wheel is differential-tested against it (unit and property
    /// tests here, plus end-to-end golden-trace runs via
    /// `SimConfig::use_reference_queue`), which is what licenses the claim
    /// that the wheel preserves (time, sequence) delivery order exactly.
    pub fn with_reference_heap() -> Self {
        EventQueue::on(
            Backend::Heap {
                heap: BinaryHeap::new(),
                next_seq: 0,
            },
            Slab::default(),
        )
    }

    /// Schedules `event` to fire at `time` and returns a handle that can be
    /// passed to [`EventQueue::cancel`].
    ///
    /// Events scheduled for the same instant fire in scheduling order.
    ///
    /// Scheduling earlier than the latest delivered event is tolerated —
    /// the executor never does it, it forbids past scheduling — but such
    /// an event is delivered as soon as possible rather than re-sorted
    /// before already-delivered entries; it keeps its original timestamp.
    /// Peeking never counts as delivery.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let id = self.slab.alloc();
        self.scheduled_total += 1;
        self.pending += 1;
        self.backend.push(time, id, event);
        id
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-delivered (or otherwise stale) handle is a
    /// no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.slab.cancel(id) {
            return false;
        }
        self.pending -= 1;
        self.cancelled += 1;
        self.cancelled_total += 1;
        self.maybe_compact();
        true
    }

    /// Sweeps lazily-cancelled garbage out of the backend once it exceeds
    /// half the pending set, bounding physical occupancy to
    /// O(pending events). Order-preserving, so delivery is unaffected.
    fn maybe_compact(&mut self) {
        if self.cancelled < COMPACT_FLOOR || self.cancelled <= self.pending / 2 {
            return;
        }
        let slab = &mut self.slab;
        let removed = self.backend.retain(|id| match slab.state(id) {
            SlotState::Pending => true,
            _ => {
                slab.release(id);
                false
            }
        });
        debug_assert_eq!(removed, self.cancelled, "every cancelled event is stored");
        self.cancelled = 0;
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// entries. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_id().map(|(time, _, event)| (time, event))
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
            let (time, id, event) = self.backend.pop()?;
            let live = self.slab.state(id) == SlotState::Pending;
            self.slab.release(id);
            if live {
                self.pending -= 1;
                return Some((time, id, event));
            }
            self.cancelled -= 1;
        }
    }

    /// Returns the time of the earliest pending (non-cancelled) event
    /// without removing it. Cancelled entries in front of it are dropped,
    /// but the queue does not treat their times as delivered.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (time, id) = self.backend.peek()?;
            if self.slab.state(id) == SlotState::Pending {
                return Some(time);
            }
            self.backend.drop_front();
            self.slab.release(id);
            self.cancelled -= 1;
        }
    }

    /// Returns the number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending
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
        self.backend.stored()
    }

    /// True when this queue runs on the reference heap backend.
    #[doc(hidden)]
    pub fn uses_reference_heap(&self) -> bool {
        matches!(self.backend, Backend::Heap { .. })
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
        assert!(!q.cancel(EventId {
            slot: 42,
            generation: 0
        }));
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

    fn both_backends<E>() -> [EventQueue<E>; 2] {
        [EventQueue::new(), EventQueue::with_reference_heap()]
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(u64, E)> {
        std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_minutes(), e))).collect()
    }

    #[test]
    fn peek_over_a_cancelled_front_does_not_delay_earlier_schedules() {
        // Schedule a and b, cancel a, peek (dropping a), then schedule two
        // events before a's minute in descending order. Peeking is not
        // delivery, so both must still pop in time order — on every wheel
        // level the dropped front can sit in: level 0, level 1, overflow.
        let m = SimTime::from_minutes;
        for (a, b, c, d) in [
            (10, 20, 5, 4),
            (5_000, 6_000, 3_000, 2_500),
            (
                3 * SPAN_L1,
                3 * SPAN_L1 + 1,
                2 * SPAN_L1 + 9,
                2 * SPAN_L1 + 8,
            ),
        ] {
            for mut q in both_backends() {
                let first = q.schedule(m(a), "a");
                q.schedule(m(b), "b");
                assert!(q.cancel(first));
                assert_eq!(q.peek_time(), Some(m(b)));
                q.schedule(m(c), "c");
                q.schedule(m(d), "d");
                assert_eq!(q.peek_time(), Some(m(d)));
                assert_eq!(
                    drain(&mut q),
                    vec![(d, "d"), (c, "c"), (b, "b")],
                    "fronts at {a} on the {} backend",
                    if q.uses_reference_heap() {
                        "heap"
                    } else {
                        "wheel"
                    }
                );
            }
        }
    }

    #[test]
    fn stale_handles_do_not_reach_a_reused_slot() {
        for mut q in both_backends() {
            let old = q.schedule(SimTime::from_minutes(1), "old");
            let (_, delivered, _) = q.pop_with_id().expect("one event");
            assert_eq!(delivered, old);
            let new = q.schedule(SimTime::from_minutes(2), "new");
            assert_eq!(new.slot, old.slot, "the delivered event's slot is reused");
            assert_ne!(new, old);
            assert!(!q.cancel(old), "a delivered handle stays dead");
            assert_eq!(q.len(), 1);
            assert_eq!(
                q.pop_with_id(),
                Some((SimTime::from_minutes(2), new, "new"))
            );
            // A handle dropped by a peek goes stale the same way.
            let gone = q.schedule(SimTime::from_minutes(3), "gone");
            q.schedule(SimTime::from_minutes(4), "kept");
            assert!(q.cancel(gone));
            assert_eq!(q.peek_time(), Some(SimTime::from_minutes(4)));
            let reuse = q.schedule(SimTime::from_minutes(5), "reuse");
            assert_eq!(reuse.slot, gone.slot);
            assert!(!q.cancel(gone));
            assert_eq!(drain(&mut q), vec![(4, "kept"), (5, "reuse")]);
        }
    }

    #[test]
    fn compaction_frees_slots_and_stales_their_handles() {
        for mut q in both_backends() {
            let doomed: Vec<EventId> = (0..200u64)
                .map(|i| q.schedule(SimTime::from_minutes(100 + i), i))
                .collect();
            let kept = q.schedule(SimTime::from_minutes(10_000), 999);
            for &id in &doomed {
                assert!(q.cancel(id));
            }
            assert!(
                q.stored_entries() < 200,
                "compaction swept cancelled entries: {} stored",
                q.stored_entries()
            );
            // The swept slots are reused by new events: the slab does not
            // grow, and every old handle misses its reused slot.
            let slab_len = q.slab.slots.len();
            let fresh: Vec<EventId> = (0..150u64)
                .map(|i| q.schedule(SimTime::from_minutes(500 + i), 1_000 + i))
                .collect();
            assert_eq!(q.slab.slots.len(), slab_len);
            for &id in &doomed {
                assert!(!q.cancel(id), "stale handle {id} cancelled a live event");
            }
            assert_eq!(q.len(), 151);
            assert!(fresh.iter().all(|id| !doomed.contains(id)));
            let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
            let mut want: Vec<u64> = (1_000..1_150).collect();
            want.push(999);
            assert_eq!(order, want);
            assert!(!q.cancel(kept));
        }
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

        /// Differential test: over arbitrary schedule / cancel / pop /
        /// peek sequences that follow the streaming workers' contract —
        /// every schedule is at or after the last *popped* minute, and
        /// peeks may sit between schedules — the timer wheel and the
        /// reference heap agree on every observable: pop results, peek
        /// times, lengths, and cancel outcomes. Peeking does not raise the
        /// floor, so a cancelled front dropped by a peek must not hold
        /// later, earlier-timed schedules back. Offsets are scaled so the
        /// sequences regularly cross level-1 blocks and the overflow span.
        /// Each backend keeps its own handles: the two free slab slots in
        /// different orders, so handle values may differ.
        #[test]
        fn prop_wheel_matches_reference_heap(
            ops in proptest::collection::vec((0u8..4, 0u64..2_000), 1..400),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = EventQueue::with_reference_heap();
            let mut ids: Vec<(EventId, EventId)> = Vec::new();
            let mut floor = 0u64;
            for (i, &(op, x)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        let t = SimTime::from_minutes(floor + x);
                        ids.push((wheel.schedule(t, i), heap.schedule(t, i)));
                    }
                    1 => {
                        // Far timers: exercise level 1 and overflow.
                        let t = SimTime::from_minutes(floor + x * 700);
                        ids.push((wheel.schedule(t, i), heap.schedule(t, i)));
                    }
                    2 => {
                        if !ids.is_empty() {
                            let (idw, idh) = ids[(x as usize) % ids.len()];
                            prop_assert_eq!(wheel.cancel(idw), heap.cancel(idh));
                        }
                    }
                    _ => {
                        let a = wheel.pop();
                        let b = heap.pop();
                        prop_assert_eq!(&a, &b);
                        if let Some((t, _)) = a {
                            floor = floor.max(t.as_minutes());
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
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
