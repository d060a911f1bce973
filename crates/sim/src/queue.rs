//! The future-event list: a stable priority queue keyed on virtual time.
//!
//! Two implementations share one contract — events pop in ascending
//! `(time, insertion-seq)` order:
//!
//! * [`EventQueue`] — the production calendar/timer-wheel queue with O(1)
//!   amortized insert and pop (near-future wheel + far-future overflow
//!   heap).
//! * [`HeapEventQueue`] — the original `BinaryHeap` implementation, kept as
//!   the executable reference the wheel is property-tested against.

use crate::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the wheel slot count. Kept deliberately small: every slot owns
/// a lazily-allocated bucket, so the slot count bounds both the fresh
/// queue's footprint and the per-run first-touch allocations — a testbed
/// is constructed per run, and chaos sweeps construct thousands.
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
/// against wider windows (up to 33 ms), this geometry wins on both
/// wall-clock and allocations: buckets stay tiny, so the linear-scan
/// minimum extraction at pop is effectively O(1).
const TICK_SHIFT: u32 = 12;
/// Words in the slot-occupancy bitmap.
const WORDS: usize = SLOTS / 64;

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

/// A deterministic future-event list.
///
/// Events are popped in ascending time order; ties are broken by insertion
/// order (FIFO), which makes simulation runs fully reproducible even when
/// many events share a timestamp.
///
/// Internally this is a calendar wheel: a ring of 256 buckets, each
/// covering one ~4.1 µs tick, plus an overflow
/// min-heap for events beyond the wheel's look-ahead window (or scheduled
/// in the past relative to the wheel's base — legal, if unusual). Insert
/// and pop are O(1) amortized: buckets are unsorted (insert is a push,
/// pop extracts the unique minimum with a linear scan of the handful of
/// events sharing a tick), and each overflow event migrates into the
/// wheel at most once. The pop order is *exactly* that of
/// [`HeapEventQueue`] — a property test pins the equivalence.
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
    /// The calendar ring. Every slot holds events of exactly one absolute
    /// tick (the window spans `SLOTS` ticks, so slot index ↔ in-window
    /// tick is a bijection).
    wheel: Vec<Vec<Scheduled<E>>>,
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
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            base_tick: 0,
            far: BinaryHeap::new(),
            wheel_len: 0,
            seq: 0,
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

    fn insert(&mut self, s: Scheduled<E>) {
        if self.wheel_len == 0 && self.far.is_empty() {
            // Empty queue: rebase the window to start at this event.
            self.base_tick = s.tick();
        }
        let tick = s.tick();
        if tick >= self.base_tick && tick - self.base_tick < SLOTS as u64 {
            let slot = (tick & SLOT_MASK) as usize;
            // Buckets are unsorted: insert is a plain push, and pop
            // extracts the minimum with a linear scan. Slots cover one
            // tick, so buckets hold only the handful of events of that
            // tick — scanning beats keeping them sorted under the
            // insert-heavy churn of same-tick scheduling.
            self.wheel[slot].push(s);
            self.occupied[slot >> 6] |= 1 << (slot & 63);
            self.wheel_len += 1;
        } else {
            self.far.push(s);
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.pop_before((Nanos::MAX, u64::MAX))
    }

    /// [`Self::pop`], but only if the earliest event's `(time, seq)` key
    /// is below `bound`. A miss leaves the cursor where it is, so whatever
    /// the caller schedules before its next call still lands in the wheel.
    pub fn pop_before(&mut self, bound: (Nanos, u64)) -> Option<(Nanos, E)> {
        if self.wheel_len == 0 {
            if self.far.peek()?.key() >= bound {
                return None;
            }
            self.rebase_onto_far();
        }
        let slot = self.first_occupied_slot().expect("the wheel is not empty");
        let bucket = &self.wheel[slot];
        let mut min_idx = 0;
        for i in 1..bucket.len() {
            if bucket[i].key() < bucket[min_idx].key() {
                min_idx = i;
            }
        }
        // An overflow event can only beat the wheel minimum if it was
        // scheduled in the past (before `base_tick`): equal times share a
        // tick, and far-future ticks strictly exceed every in-window tick.
        let wheel_key = bucket[min_idx].key();
        let far_key = self.far.peek().map(Scheduled::key);
        let far_key = far_key.filter(|far| *far < wheel_key);
        if far_key.unwrap_or(wheel_key) >= bound {
            return None;
        }
        // Move the cursor up to the first occupied slot.
        let start = (self.base_tick & SLOT_MASK) as usize;
        self.base_tick += (slot.wrapping_sub(start) & (SLOTS - 1)) as u64;
        let s = if far_key.is_some() {
            self.far.pop().expect("peeked above")
        } else {
            let bucket = &mut self.wheel[slot];
            // Seqs are unique, so the minimum is unique: swap_remove's
            // reordering of the remainder can't affect pop order.
            let s = bucket.swap_remove(min_idx);
            if bucket.is_empty() {
                self.occupied[slot >> 6] &= !(1 << (slot & 63));
            }
            self.wheel_len -= 1;
            s
        };
        Some((s.time, s.event))
    }

    /// The wheel is empty but the overflow heap is not: restart the window
    /// at the heap's earliest tick and migrate everything that now fits.
    /// Each event migrates at most once (events never move wheel → heap),
    /// so the total migration cost is amortized O(log n) per event.
    fn rebase_onto_far(&mut self) {
        self.base_tick = self.far.peek().expect("caller checked").tick();
        while let Some(f) = self.far.peek() {
            let tick = f.tick();
            if tick - self.base_tick >= SLOTS as u64 {
                break;
            }
            let s = self.far.pop().expect("peeked above");
            let slot = (tick & SLOT_MASK) as usize;
            self.wheel[slot].push(s);
            self.occupied[slot >> 6] |= 1 << (slot & 63);
            self.wheel_len += 1;
        }
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        let far_min = self.far.peek().map(Scheduled::key);
        let wheel_min = self
            .first_occupied_slot()
            .and_then(|slot| self.wheel[slot].iter().map(Scheduled::key).min());
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

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel_len == 0 && self.far.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        if self.wheel_len > 0 {
            for bucket in &mut self.wheel {
                bucket.clear();
            }
            self.occupied = [0; WORDS];
        }
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

/// The original `BinaryHeap`-backed future-event list.
///
/// Pop order is identical to [`EventQueue`] — ascending `(time, seq)` —
/// but insert/pop are O(log n). Kept as the executable reference for the
/// wheel's equivalence property test; the simulator itself uses
/// [`EventQueue`].
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// See [`EventQueue::reserve_seqs`].
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// See [`EventQueue::pop_before`]: peek, compare, pop.
    pub fn pop_before(&mut self, bound: (Nanos, u64)) -> Option<(Nanos, E)> {
        if self.heap.peek()?.key() < bound {
            self.pop()
        } else {
            None
        }
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn heap_reference_matches_wheel_on_a_mixed_schedule() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
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
}
