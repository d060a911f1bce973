//! The future-event list: a stable priority queue keyed on virtual time.
//!
//! Two implementations share one contract — events pop in ascending
//! `(time, insertion-seq)` order:
//!
//! * [`EventQueue`] — the production calendar/timer-wheel queue with O(1)
//!   amortized insert and pop (near-future wheel + far-future overflow
//!   heap). The wheel's events live in one arena of list nodes: a slot is
//!   the head of a list threaded through it, and a popped node is reused
//!   by the next insert, so a run allocates as the arena doubles up to the
//!   most events the wheel ever holds — not once per tick it touches.
//! * `HeapEventQueue` — the original `BinaryHeap` implementation, kept
//!   under `#[cfg(test)]` as the executable reference the wheel is
//!   property-tested against.

use crate::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the wheel slot count. A slot is a 4-byte list head inline in
/// the queue, so the count costs a fresh queue 1 KiB and no allocation; it
/// sets how many events a window holds before they spill to the overflow
/// heap, and with the tick width how long the list a pop scans can get.
const SLOT_BITS: u32 = 8;
/// Number of slots in the calendar wheel.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask mapping an absolute tick to its slot index.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// log2 of the tick width in nanoseconds: ~4.1 µs per tick, giving the
/// wheel a ~1 ms look-ahead window. Narrow on purpose: the dense
/// near-future traffic (link hops, CPU completions, bus transfers) lands
/// in the wheel with at most a handful of events per tick, while timers,
/// keepalives, TTLs and pre-scheduled departures wait in the overflow
/// heap and migrate window-by-window as the cursor advances. Benchmarked
/// against wider windows (up to 33 ms), this geometry wins on
/// wall-clock: a slot's list stays tiny, so the linear-scan minimum
/// extraction at pop is effectively O(1).
const TICK_SHIFT: u32 = 12;
/// Words in the slot-occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Ends a slot's list and the free list: arena indices are `u32`.
const NIL: u32 = u32::MAX;
/// The most nodes the arena may hold, so that every index stays below
/// [`NIL`]. An event that cannot get a node waits in the overflow heap,
/// which every pop compares against the wheel's minimum. Lowered under
/// test to reach that branch.
const MAX_NODES: usize = if cfg!(test) { 64 } else { NIL as usize };

#[derive(Debug)]
struct Scheduled<E> {
    time: Nanos,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// The total-order key: ascending time, insertion order within a time.
    fn key(&self) -> (Nanos, u64) {
        (self.time, self.seq)
    }

    /// The absolute calendar tick this event belongs to. Equal times always
    /// share a tick, so FIFO ties can never straddle the wheel/heap split.
    fn tick(&self) -> u64 {
        self.time.as_nanos() >> TICK_SHIFT
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other.key().cmp(&self.key())
    }
}

/// One wheel event in the arena: its key, its event, and the index of the
/// next node of the same slot — or, once popped, of the next free node.
struct Node<E> {
    time: Nanos,
    seq: u64,
    next: u32,
    /// `Some` while the node is linked into a slot.
    event: Option<E>,
}

impl<E> Node<E> {
    fn key(&self) -> (Nanos, u64) {
        (self.time, self.seq)
    }
}

/// A deterministic future-event list.
///
/// Events are popped in ascending time order; ties are broken by insertion
/// order (FIFO), which makes simulation runs fully reproducible even when
/// many events share a timestamp.
///
/// Internally this is a calendar wheel: a ring of 256 slots, each
/// covering one ~4.1 µs tick, plus an overflow
/// min-heap for events beyond the wheel's look-ahead window (or scheduled
/// in the past relative to the wheel's base — legal, if unusual). Insert
/// and pop are O(1) amortized: a slot is an unsorted list (insert links a
/// node at its head, pop unlinks the unique minimum after a linear scan of
/// the handful of events sharing a tick), and each overflow event migrates
/// into the wheel at most once. The pop order is *exactly* that of a
/// `BinaryHeap` of `(time, seq)` keys — a property test pins the
/// equivalence.
///
/// # Example
///
/// ```
/// use sdnbuf_sim::{EventQueue, Nanos};
/// let mut q = EventQueue::new();
/// q.schedule(Nanos::from_micros(2), "late");
/// q.schedule(Nanos::from_micros(1), "early");
/// q.schedule(Nanos::from_micros(1), "early-second");
/// assert_eq!(q.pop(), Some((Nanos::from_micros(1), "early")));
/// assert_eq!(q.pop(), Some((Nanos::from_micros(1), "early-second")));
/// assert_eq!(q.pop(), Some((Nanos::from_micros(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Every node the wheel has ever needed at once, linked or free.
    nodes: Vec<Node<E>>,
    /// The calendar ring: per slot, the first node of its list. Every slot
    /// holds events of exactly one absolute tick (the window spans `SLOTS`
    /// ticks, so slot index ↔ in-window tick is a bijection).
    heads: [u32; SLOTS],
    /// The first node of the free list.
    free: u32,
    /// One bit per slot: set iff the slot is non-empty.
    occupied: [u64; WORDS],
    /// Absolute tick of the wheel's cursor; all wheel entries have ticks in
    /// `[base_tick, base_tick + SLOTS)`.
    base_tick: u64,
    /// Events outside the wheel window: far-future, or scheduled before
    /// `base_tick` after the cursor moved past their tick.
    far: BinaryHeap<Scheduled<E>>,
    /// Events currently stored in the wheel (not in `far`).
    wheel_len: usize,
    /// Next insertion sequence number.
    seq: u64,
    /// The most events ever pending at once.
    peak_len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            heads: [NIL; SLOTS],
            free: NIL,
            occupied: [0; WORDS],
            base_tick: 0,
            far: BinaryHeap::new(),
            wheel_len: 0,
            seq: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Sets aside the next `n` insertion sequence numbers and returns the
    /// first. The caller holds `n` events of its own, in an order it
    /// knows, and merges them with the queue through [`Self::pop_before`]:
    /// against everything scheduled before and after this call they tie
    /// exactly as if they had been scheduled here.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Links `s` at the head of its tick's list, in a recycled node if
    /// there is one, when the tick is inside the window and a node is to
    /// be had; pushes it onto the overflow heap otherwise. Lists are
    /// unsorted: pop extracts the minimum with a linear scan. Slots cover
    /// one tick, so a list holds only the handful of events of that tick —
    /// scanning beats keeping them sorted under the insert-heavy churn of
    /// same-tick scheduling.
    // One copy for the testbed's dozen scheduling sites: inlined into each,
    // this and the heap's sift-up grew its event loop by a quarter.
    #[inline(never)]
    fn insert(&mut self, s: Scheduled<E>) {
        if self.wheel_len == 0 && self.far.is_empty() {
            // Empty queue: rebase the window to start at this event.
            self.base_tick = s.tick();
        }
        let tick = s.tick();
        if tick >= self.base_tick && tick - self.base_tick < SLOTS as u64 && self.has_node() {
            let slot = (tick & SLOT_MASK) as usize;
            let node = Node {
                time: s.time,
                seq: s.seq,
                next: self.heads[slot],
                event: Some(s.event),
            };
            let idx = self.free;
            if idx == NIL {
                self.heads[slot] = self.nodes.len() as u32;
                self.nodes.push(node);
            } else {
                self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
                self.heads[slot] = idx;
            }
            self.occupied[slot >> 6] |= 1 << (slot & 63);
            self.wheel_len += 1;
        } else {
            self.far.push(s);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Whether the arena has a node to give: a free one, or room for one
    /// more.
    fn has_node(&self) -> bool {
        self.free != NIL || self.nodes.len() < MAX_NODES
    }

    /// The node holding the minimum `(time, seq)` of a non-empty slot, and
    /// the node linked before it ([`NIL`] when it is the head).
    fn slot_min(&self, slot: usize) -> (u32, u32) {
        let (mut min, mut min_prev) = (self.heads[slot], NIL);
        let mut prev = min;
        let mut cur = self.nodes[min as usize].next;
        while cur != NIL {
            if self.nodes[cur as usize].key() < self.nodes[min as usize].key() {
                (min, min_prev) = (cur, prev);
            }
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        (min, min_prev)
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.pop_before((Nanos::MAX, u64::MAX))
    }

    /// [`Self::pop`], but only if the earliest event's `(time, seq)` key
    /// is below `bound`. A miss leaves the cursor where it is, so whatever
    /// the caller schedules before its next call still lands in the wheel.
    // Into the testbed's event loop, its one hot caller: out of line it
    // cost a Section V cell several percent (EXPERIMENTS, PR 22).
    #[inline]
    pub fn pop_before(&mut self, bound: (Nanos, u64)) -> Option<(Nanos, E)> {
        if self.wheel_len == 0 {
            if self.far.peek()?.key() >= bound {
                return None;
            }
            self.rebase_onto_far();
        }
        let slot = self.first_occupied_slot().expect("the wheel is not empty");
        let (min, min_prev) = self.slot_min(slot);
        // An overflow event can only beat the wheel minimum if it was
        // scheduled in the past (before `base_tick`) or found the arena
        // full: equal times share a tick, and far-future ticks strictly
        // exceed every in-window tick.
        let wheel_key = self.nodes[min as usize].key();
        let far_key = self.far.peek().map(Scheduled::key);
        let far_key = far_key.filter(|far| *far < wheel_key);
        if far_key.unwrap_or(wheel_key) >= bound {
            return None;
        }
        // Move the cursor up to the first occupied slot.
        let start = (self.base_tick & SLOT_MASK) as usize;
        self.base_tick += (slot.wrapping_sub(start) & (SLOTS - 1)) as u64;
        if far_key.is_some() {
            let s = self.far.pop().expect("peeked above");
            return Some((s.time, s.event));
        }
        // Unlink the minimum — unique, as seqs are — and put its node at
        // the head of the free list.
        let node = &mut self.nodes[min as usize];
        let next = std::mem::replace(&mut node.next, self.free);
        let (time, event) = (node.time, node.event.take());
        self.free = min;
        if min_prev != NIL {
            self.nodes[min_prev as usize].next = next;
        } else {
            self.heads[slot] = next;
            if next == NIL {
                self.occupied[slot >> 6] &= !(1 << (slot & 63));
            }
        }
        self.wheel_len -= 1;
        event.map(|event| (time, event))
    }

    /// The wheel is empty but the overflow heap is not: restart the window
    /// at the heap's earliest tick and migrate everything that now fits
    /// (every node is free, so at least the earliest event does).
    /// Each event migrates at most once (events never move wheel → heap),
    /// so the total migration cost is amortized O(log n) per event.
    #[inline(never)] // and so out of the loop `pop_before` is inlined into
    fn rebase_onto_far(&mut self) {
        self.base_tick = self.far.peek().expect("caller checked").tick();
        while let Some(f) = self.far.peek() {
            if f.tick() - self.base_tick >= SLOTS as u64 || !self.has_node() {
                break;
            }
            let s = self.far.pop().expect("peeked above");
            self.insert(s);
        }
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        let far_min = self.far.peek().map(Scheduled::key);
        let wheel_min = self
            .first_occupied_slot()
            .map(|slot| self.nodes[self.slot_min(slot).0 as usize].key());
        match (wheel_min, far_min) {
            (Some(w), Some(f)) => Some(w.min(f).0),
            (Some(w), None) => Some(w.0),
            (None, Some(f)) => Some(f.0),
            (None, None) => None,
        }
    }

    /// The first occupied slot in tick order from the cursor. Walks the
    /// occupancy bitmap a word (64 slots) at a time.
    fn first_occupied_slot(&self) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.base_tick & SLOT_MASK) as usize;
        let mut word_idx = start >> 6;
        let mut word = self.occupied[word_idx] & (!0u64 << (start & 63));
        for _ in 0..=WORDS {
            if word != 0 {
                return Some((word_idx << 6) + word.trailing_zeros() as usize);
            }
            word_idx = (word_idx + 1) & (WORDS - 1);
            word = self.occupied[word_idx];
        }
        None
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// The most events that were ever pending at once: the high-water mark
    /// of [`Self::len`] over the queue's life, [`Self::clear`] included.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel_len == 0 && self.far.is_empty()
    }

    /// Takes over `spent`'s node arena and overflow heap, emptied, if this
    /// queue holds neither a node nor an event: what a queue built for the
    /// next run keeps of the last one's is capacity. Its sequence numbers,
    /// cursor and [`Self::peak_len`] stay its own, a fresh queue's.
    pub fn reclaim(&mut self, spent: EventQueue<E>) {
        if self.nodes.is_empty() && self.far.is_empty() {
            let EventQueue {
                mut nodes, mut far, ..
            } = spent;
            nodes.clear();
            far.clear();
            (self.nodes, self.far) = (nodes, far);
        }
    }

    /// Removes all pending events. The arena and the overflow heap keep
    /// their capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.heads = [NIL; SLOTS];
        self.free = NIL;
        self.occupied = [0; WORDS];
        self.far.clear();
        self.wheel_len = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("wheel_len", &self.wheel_len)
            .field("far_len", &self.far.len())
            .field("base_tick", &self.base_tick)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original `BinaryHeap`-backed future-event list, kept as the
    /// executable reference the wheel is held to: the same pop order —
    /// ascending `(time, seq)` — with O(log n) insert and pop.
    #[derive(Default)]
    struct HeapEventQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        seq: u64,
    }

    impl<E> HeapEventQueue<E> {
        fn schedule(&mut self, at: Nanos, event: E) {
            let seq = self.reserve_seqs(1);
            self.heap.push(Scheduled {
                time: at,
                seq,
                event,
            });
        }

        fn pop(&mut self) -> Option<(Nanos, E)> {
            self.heap.pop().map(|s| (s.time, s.event))
        }

        fn reserve_seqs(&mut self, n: u64) -> u64 {
            let first = self.seq;
            self.seq += n;
            first
        }

        /// [`EventQueue::pop_before`] as peek, compare, pop.
        fn pop_before(&mut self, bound: (Nanos, u64)) -> Option<(Nanos, E)> {
            if self.heap.peek()?.key() < bound {
                self.pop()
            } else {
                None
            }
        }

        fn peek_time(&self) -> Option<Nanos> {
            self.heap.peek().map(|s| s.time)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn clear(&mut self) {
            self.heap.clear();
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 9, 3, 7] {
            q.schedule(Nanos::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn equal_times_fifo() {
        let mut q = EventQueue::new();
        let t = Nanos::from_micros(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_stable() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(10), "a");
        q.schedule(Nanos::from_nanos(10), "b");
        assert_eq!(q.pop(), Some((Nanos::from_nanos(10), "a")));
        q.schedule(Nanos::from_nanos(10), "c");
        assert_eq!(q.pop(), Some((Nanos::from_nanos(10), "b")));
        assert_eq!(q.pop(), Some((Nanos::from_nanos(10), "c")));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(4), ());
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::ZERO, 1);
        q.schedule(Nanos::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_spills_to_overflow_and_back() {
        let mut q = EventQueue::new();
        // Window is SLOTS ticks of 2^TICK_SHIFT ns each; schedule well past it.
        let window_ns = (SLOTS as u64) << TICK_SHIFT;
        q.schedule(Nanos::from_nanos(1), "near");
        q.schedule(Nanos::from_nanos(3 * window_ns), "far");
        q.schedule(Nanos::from_nanos(2 * window_ns), "mid");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(1)));
        assert_eq!(q.pop(), Some((Nanos::from_nanos(1), "near")));
        assert_eq!(q.pop(), Some((Nanos::from_nanos(2 * window_ns), "mid")));
        assert_eq!(q.pop(), Some((Nanos::from_nanos(3 * window_ns), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn past_insert_pops_before_wheel_events() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_millis(100), "late");
        // Draining advances the cursor; an insert behind it must still win.
        assert_eq!(q.peek_time(), Some(Nanos::from_millis(100)));
        q.schedule(Nanos::from_millis(99), "behind-window");
        q.schedule(Nanos::from_nanos(5), "way-behind");
        assert_eq!(q.pop(), Some((Nanos::from_nanos(5), "way-behind")));
        assert_eq!(q.pop(), Some((Nanos::from_millis(99), "behind-window")));
        assert_eq!(q.pop(), Some((Nanos::from_millis(100), "late")));
    }

    #[test]
    fn pop_before_holds_at_the_bound_in_the_wheel_and_in_the_overflow() {
        let mut q = EventQueue::new();
        let far = Nanos::from_nanos((3 * SLOTS as u64) << TICK_SHIFT);
        q.schedule(Nanos::from_nanos(1), "near"); // seq 0
        q.schedule(far, "far"); // seq 1
        assert_eq!(q.pop_before((Nanos::from_nanos(1), 0)), None);
        let near = q.pop_before((Nanos::from_nanos(1), 1));
        assert_eq!(near, Some((Nanos::from_nanos(1), "near")));
        // The wheel is empty now; the overflow heap answers for the queue.
        assert_eq!(q.pop_before((far, 1)), None);
        // The miss left the cursor behind: this lands in the wheel and wins.
        q.schedule(Nanos::from_nanos(9), "between"); // seq 2
        assert_eq!(q.pop(), Some((Nanos::from_nanos(9), "between")));
        assert_eq!(q.pop_before((far, 2)), Some((far, "far")));
        assert_eq!(q.pop_before((Nanos::MAX, u64::MAX)), None);
    }

    /// Nanoseconds of one wheel tick.
    const TICK_NS: u64 = 1 << TICK_SHIFT;

    #[test]
    fn unlinking_the_head_the_middle_and_the_tail_of_a_slot() {
        // A slot's list runs from the last event linked to the first, so
        // the offsets within the tick say where along it each pop's
        // minimum sits: [.., first linked] = tail, [last linked, ..] = head.
        for (offsets, unlinked) in [
            ([1u64, 2, 3], "tail, tail, only node"),
            ([3, 2, 1], "head, head, only node"),
            ([3, 1, 2], "middle, head, only node"),
            ([2, 1, 3], "middle, tail, only node"),
        ] {
            let mut q = EventQueue::new();
            for &o in &offsets {
                q.schedule(Nanos::from_nanos(o), o);
            }
            // The next slot stays occupied throughout: the cursor must
            // reach it only once this slot's bit is cleared.
            q.schedule(Nanos::from_nanos(TICK_NS), 99);
            for want in 1..=3 {
                assert_eq!(q.peek_time(), Some(Nanos::from_nanos(want)), "{unlinked}");
                assert_eq!(q.pop(), Some((Nanos::from_nanos(want), want)), "{unlinked}");
                assert_eq!(q.len(), 4 - want as usize, "{unlinked}");
            }
            assert_eq!(q.occupied, [2, 0, 0, 0], "{unlinked}");
            // The three freed nodes take the next three events, here.
            for o in [5, 4, 6] {
                q.schedule(Nanos::from_nanos(o), o);
            }
            assert_eq!(q.nodes.len(), 4, "{unlinked}");
            let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(rest, [4, 5, 6, 99], "{unlinked}");
            assert_eq!(q.occupied, [0; WORDS], "{unlinked}");
        }
    }

    #[test]
    fn nodes_are_recycled_not_grown() {
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.schedule(Nanos::from_nanos(i * TICK_NS / 3), i);
        }
        // 100 000 turns, eight pending throughout, the window moving on.
        let mut last = Nanos::ZERO;
        for i in 8..100_008u64 {
            let (now, _) = q.pop().expect("eight pending");
            assert!(now >= last);
            last = now;
            q.schedule(now + Nanos::from_nanos(1 + i % 7 * TICK_NS), i);
            assert!(q.nodes.len() <= 8, "{} nodes at turn {i}", q.nodes.len());
        }
        assert_eq!((q.len(), q.peak_len()), (8, 8));
        assert!(q.far.is_empty(), "every turn stayed inside the window");
    }

    #[test]
    fn clear_then_reuse() {
        let mut q = EventQueue::new();
        let far = (3 * SLOTS as u64) << TICK_SHIFT;
        for t in [7, 5, 5 + TICK_NS, far, 6] {
            q.schedule(Nanos::from_nanos(t), t);
        }
        // One node on the free list, three linked, one event in the heap.
        assert_eq!(q.pop(), Some((Nanos::from_nanos(5), 5)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!((q.len(), q.peek_time(), q.pop()), (0, None, None));
        assert_eq!(q.peak_len(), 5, "a high-water mark outlives a clear");
        // Nothing of the old contents comes back, and the window restarts
        // wherever the first event of the new contents is.
        for t in [far + 9, far + 3, far + 3, 2 * far] {
            q.schedule(Nanos::from_nanos(t), t);
        }
        assert_eq!((q.nodes.len(), q.far.len()), (3, 1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [far + 3, far + 3, far + 9, 2 * far]);
    }

    #[test]
    fn a_reclaimed_queue_keeps_capacity_not_its_sequence_or_peak() {
        let far = (3 * SLOTS as u64) << TICK_SHIFT;
        let mut spent = EventQueue::new();
        for t in 0..40u64 {
            spent.schedule(Nanos::from_nanos(t << TICK_SHIFT), t);
        }
        spent.schedule(Nanos::from_nanos(far), 99);
        spent.reserve_seqs(1_000);
        spent.pop();
        let capacities = (spent.nodes.capacity(), spent.far.capacity());
        let mut q = EventQueue::new();
        q.reclaim(spent);
        assert_eq!((q.nodes.capacity(), q.far.capacity()), capacities);
        assert_eq!(
            (q.nodes.len(), q.len(), q.peak_len(), q.free),
            (0, 0, 0, NIL)
        );
        assert_eq!(q.reserve_seqs(0), 0, "sequence numbers start over");
        for t in [9u64, 3, 3] {
            q.schedule(Nanos::from_nanos(far + t), t);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!((order, q.peak_len()), (vec![3, 3, 9], 3));
    }

    #[test]
    fn an_event_that_finds_the_arena_full_waits_in_the_overflow_heap() {
        fn schedule(wheel: &mut EventQueue<u64>, heap: &mut HeapEventQueue<u64>, t: u64) {
            wheel.schedule(Nanos::from_nanos(t), t);
            heap.schedule(Nanos::from_nanos(t), t);
        }
        let (mut wheel, mut heap) = (EventQueue::new(), HeapEventQueue::default());
        // Into the window that opens at 0, latest first, until there are no
        // nodes left: the events turned away are earlier than all but one
        // of those in the wheel.
        let n = MAX_NODES as u64 + 40;
        schedule(&mut wheel, &mut heap, 0);
        for i in (1..n).rev() {
            schedule(&mut wheel, &mut heap, i * TICK_NS / 2 + i % 3);
        }
        assert_eq!((wheel.nodes.len(), wheel.far.len()), (MAX_NODES, 40));
        // Past the window: a rebase, too, finds more than the arena takes.
        for i in 0..n {
            let t = (5 * SLOTS as u64 + i / 2) * TICK_NS + i % 5;
            schedule(&mut wheel, &mut heap, t);
        }
        assert_eq!(wheel.len(), 2 * n as usize);
        assert_eq!(wheel.peak_len(), 2 * n as usize);
        for turn in 0..2 * n {
            assert_eq!(wheel.peek_time(), heap.peek_time(), "turn {turn}");
            assert_eq!(wheel.pop(), heap.pop(), "turn {turn}");
            if turn % 4 == 0 {
                // Just after the next event: behind the cursor while the
                // heap is ahead of the wheel, in a freed node once it is not.
                let t = wheel.peek_time().expect("not the last turn").as_nanos() + 1;
                schedule(&mut wheel, &mut heap, t);
            }
        }
        while let Some(event) = heap.pop() {
            assert_eq!(wheel.pop(), Some(event));
        }
        assert_eq!(wheel.pop(), None);
        assert_eq!(wheel.nodes.len(), MAX_NODES);
    }

    #[test]
    fn heap_reference_matches_wheel_on_a_mixed_schedule() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::default();
        let times = [5u64, 5, 1, 1 << 30, 7, 5, 1 << 30, 0, 3, 3];
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(Nanos::from_nanos(t), i);
            heap.schedule(Nanos::from_nanos(t), i);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// One step of an arbitrary queue workout: schedule at some time, or pop.
    #[derive(Clone, Debug)]
    enum QueueOp {
        Schedule(u64),
        /// That many events in the one tick the time falls in: a slot's list
        /// several nodes long, its minimum anywhere along it.
        Burst(u64, u64),
        Pop,
        Clear,
    }

    /// The times of a [`QueueOp::Burst`]: distinct, out of order, one tick.
    fn burst_times(t: u64, n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(move |i| (t & !0xfff) | ((i * 1619) & 0xfff))
    }

    /// One step of the merge a streaming caller runs against the queue:
    /// schedule, reserve sequence numbers, pop only below a `(time, seq)`
    /// bound.
    #[derive(Clone, Debug)]
    enum MergeOp {
        Schedule(u64),
        Burst(u64, u64),
        Clear,
        Reserve(u64),
        PopBefore(u64, u64),
        /// Bound at the earliest pending key itself (must miss) or one
        /// sequence number past it (must hit).
        PopBeforeEarliest {
            past: bool,
        },
    }

    /// Times drawn from ranges that exercise every wheel regime: same-tick
    /// ties (small constants), in-window spread, far-future overflow (beyond
    /// the ~1 ms wheel window), and huge jumps that force rebases. Under
    /// test the arena holds [`MAX_NODES`] = 64 nodes, so bursts and
    /// in-window spreads also fill it and spill to the overflow heap.
    fn queue_op() -> impl Strategy<Value = QueueOp> {
        let burst = |times| (times, 8u64..24).prop_map(|(t, n)| QueueOp::Burst(t, n));
        prop_oneof![
            8 => (0u64..16).prop_map(QueueOp::Schedule),
            8 => (0u64..100_000).prop_map(QueueOp::Schedule),
            8 => (0u64..200_000_000).prop_map(QueueOp::Schedule),
            8 => (0u64..u64::MAX / 4).prop_map(QueueOp::Schedule),
            16 => Just(QueueOp::Pop),
            // Inside the window and beyond it: linked on insert, or on a rebase.
            2 => burst(0u64..100_000),
            1 => burst(0u64..200_000_000),
            1 => Just(QueueOp::Clear),
        ]
    }

    /// [`queue_op`] with two more pops to each of its steps: three events
    /// are popped for every two scheduled, so the queue keeps running empty,
    /// the wheel's nodes are recycled over and over, and the window is
    /// rebased onto the overflow heap again and again.
    fn draining_queue_op() -> impl Strategy<Value = QueueOp> {
        prop_oneof![1 => queue_op(), 2 => Just(QueueOp::Pop)]
    }

    /// The calendar wheel and the `BinaryHeap` reference, fed the same
    /// events. Each event carries the sequence number it was scheduled
    /// under, so a popped event shows which side of a bound's tie it was on.
    #[derive(Default)]
    struct Pair {
        wheel: EventQueue<u64>,
        heap: HeapEventQueue<u64>,
        next_seq: u64,
    }

    impl Pair {
        /// Schedules on both and returns the key the event will pop under.
        fn schedule(&mut self, t: u64) -> (Nanos, u64) {
            let key = (Nanos::from_nanos(t), self.next_seq);
            self.wheel.schedule(key.0, key.1);
            self.heap.schedule(key.0, key.1);
            self.next_seq += 1;
            key
        }

        fn clear(&mut self) {
            self.wheel.clear();
            self.heap.clear();
        }

        /// Every remaining event must come out in the same order.
        fn drain(&mut self) -> Result<(), TestCaseError> {
            loop {
                prop_assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
                let (a, b) = (self.wheel.pop(), self.heap.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    return Ok(());
                }
            }
        }
    }

    /// The wheel is observationally the heap over one workout.
    fn wheel_follows_heap(ops: &[QueueOp]) -> Result<(), TestCaseError> {
        let mut q = Pair::default();
        let mut peak = 0;
        for op in ops {
            match *op {
                QueueOp::Schedule(t) => {
                    q.schedule(t);
                }
                QueueOp::Burst(t, n) => burst_times(t, n).for_each(|t| {
                    q.schedule(t);
                }),
                QueueOp::Pop => {
                    prop_assert_eq!(q.wheel.peek_time(), q.heap.peek_time());
                    prop_assert_eq!(q.wheel.pop(), q.heap.pop());
                }
                QueueOp::Clear => q.clear(),
            }
            peak = peak.max(q.heap.len());
            prop_assert_eq!(q.wheel.len(), q.heap.len());
            prop_assert_eq!(q.wheel.is_empty(), q.heap.len() == 0);
            prop_assert_eq!(q.wheel.peak_len(), peak);
        }
        q.drain()
    }

    /// Bounds are drawn from the same time regimes as the schedules and from
    /// the sequence numbers in use, so they fall below, between and above
    /// pending events and split same-time ties; a miss followed by a schedule
    /// below the bound is an insert behind where an advancing peek would have
    /// left the cursor.
    fn merge_op() -> impl Strategy<Value = MergeOp> {
        let time = prop_oneof![0u64..16, 0u64..100_000, 0u64..200_000_000];
        // Schedules as above; an unbounded pop where those pop.
        let plain = || {
            queue_op().prop_map(|op| match op {
                QueueOp::Schedule(t) => MergeOp::Schedule(t),
                QueueOp::Burst(t, n) => MergeOp::Burst(t, n),
                QueueOp::Pop => MergeOp::PopBefore(u64::MAX, u64::MAX),
                QueueOp::Clear => MergeOp::Clear,
            })
        };
        prop_oneof![
            plain(),
            plain(),
            plain(),
            (time, 0u64..600).prop_map(|(t, seq)| MergeOp::PopBefore(t, seq)),
            (0u64..5).prop_map(MergeOp::Reserve),
            any::<bool>().prop_map(|past| MergeOp::PopBeforeEarliest { past }),
        ]
    }

    proptest! {
        /// The calendar wheel is observationally identical to the BinaryHeap
        /// reference for arbitrary schedule/pop interleavings — including
        /// equal-time FIFO ties, same-tick bursts, far-future overflow spill,
        /// scheduling behind an already-advanced cursor, and a `clear` midway.
        #[test]
        fn wheel_queue_is_equivalent_to_heap_queue(
            ops in proptest::collection::vec(queue_op(), 1..400),
        ) {
            wheel_follows_heap(&ops)?;
        }

        /// `pop_before` on the wheel is peek-compare-pop on the heap, and
        /// `reserve_seqs` hands both the same numbers, under arbitrary
        /// interleavings with schedules.
        #[test]
        fn wheel_pop_before_is_equivalent_to_heap_peek_compare_pop(
            ops in proptest::collection::vec(merge_op(), 1..400),
        ) {
            let mut q = Pair::default();
            let mut pending = std::collections::BTreeSet::new();
            for op in &ops {
                let bound = match *op {
                    MergeOp::Schedule(t) => {
                        pending.insert(q.schedule(t));
                        continue;
                    }
                    MergeOp::Burst(t, n) => {
                        pending.extend(burst_times(t, n).map(|t| q.schedule(t)));
                        continue;
                    }
                    MergeOp::Clear => {
                        q.clear();
                        pending.clear();
                        continue;
                    }
                    MergeOp::Reserve(n) => {
                        prop_assert_eq!(q.wheel.reserve_seqs(n), q.next_seq);
                        prop_assert_eq!(q.heap.reserve_seqs(n), q.next_seq);
                        q.next_seq += n;
                        continue;
                    }
                    MergeOp::PopBefore(t, seq) => (Nanos::from_nanos(t), seq),
                    MergeOp::PopBeforeEarliest { past } => match pending.first() {
                        Some(&(t, seq)) => (t, seq + u64::from(past)),
                        None => continue,
                    },
                };
                // The earliest pending key pops exactly when it is below the
                // bound.
                let due = pending.first().copied().filter(|&key| key < bound);
                prop_assert_eq!(q.wheel.pop_before(bound), due);
                prop_assert_eq!(q.heap.pop_before(bound), due);
                if let Some(key) = due {
                    pending.remove(&key);
                }
                prop_assert_eq!(q.wheel.len(), q.heap.len());
                prop_assert_eq!(q.wheel.peek_time(), q.heap.peek_time());
            }
            q.drain()?;
        }

        /// Many events landing on the exact same nanosecond (and therefore
        /// the same wheel tick) preserve FIFO across both implementations.
        #[test]
        fn wheel_queue_same_tick_ties_match_heap(
            times in proptest::collection::vec(0u64..4, 1..200),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::default();
            for (i, &t) in times.iter().enumerate() {
                wheel.schedule(Nanos::from_nanos(t), i);
                heap.schedule(Nanos::from_nanos(t), i);
            }
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// The same over 20 000 steps of a queue that keeps draining:
        /// thousands of events go through the few nodes the arena ever grows
        /// to.
        #[test]
        fn wheel_queue_is_equivalent_to_heap_queue_over_a_long_draining_run(
            ops in proptest::collection::vec(draining_queue_op(), 20_000..20_001),
        ) {
            wheel_follows_heap(&ops)?;
        }
    }
}
