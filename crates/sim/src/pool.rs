//! A slab pool with generation-tagged handles and reference counts.
//!
//! The simulator's hot path used to move (and clone) owned packet and
//! message payloads through every hop of the event graph. The pool
//! replaces those owned values with a copyable 8-byte [`PoolHandle`]:
//! payloads are inserted once, passed around by handle, shared across
//! fan-out (flood, duplication faults) by bumping a reference count, and
//! reclaimed in place — the slot's backing allocation is reused by the
//! next occupant via the free list, which runs through the free slots
//! themselves (so releasing and reinserting never allocates).
//!
//! Generation tags make stale handles harmless: releasing the last
//! reference bumps the slot's generation, so a handle that outlives its
//! value can never observe (or free) the slot's next occupant. This is
//! the same defense the flow-granularity buffer uses for recycled
//! OpenFlow buffer ids.

/// A copyable reference to a value in a [`Pool`].
///
/// Handles are 8 bytes and `Copy`; the pool validates the generation tag
/// on every access, so a stale handle (kept past the last release of its
/// slot) yields `None` rather than aliasing the slot's next occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PoolHandle {
    slot: u32,
    gen: u32,
}

impl PoolHandle {
    /// A handle that matches no slot in any pool (generation 0 is never
    /// live). Useful as a sentinel in tests.
    pub const DANGLING: PoolHandle = PoolHandle {
        slot: u32::MAX,
        gen: 0,
    };
}

/// Ends the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<T> {
    /// Odd while occupied, even while free; bumped on every transition.
    gen: u32,
    /// While occupied, the live references to the occupant; while free,
    /// the next free slot ([`NIL`] ends the list). A handle only reaches
    /// an occupied slot (its generation is odd), so the two never mix.
    refs: u32,
    /// The occupant's tag (see [`Pool::set_tag`]).
    tag: Option<u32>,
    val: Option<T>,
}

/// Running counters of a pool's traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Values ever inserted.
    pub inserted: u64,
    /// Values fully reclaimed (last reference released).
    pub reclaimed: u64,
    /// Accesses or releases that presented a stale handle.
    pub stale: u64,
    /// Highest number of simultaneously live values.
    pub peak_live: usize,
}

/// A generational slab pool.
///
/// ```
/// use sdnbuf_sim::Pool;
/// let mut pool: Pool<Vec<u8>> = Pool::new();
/// let h = pool.insert(vec![1, 2, 3]);
/// assert_eq!(pool.get(h).unwrap().len(), 3);
/// pool.retain(h); // share across a fan-out
/// assert_eq!(pool.release(h), None); // one reference still out
/// assert_eq!(pool.release(h), Some(vec![1, 2, 3])); // last one frees
/// assert!(pool.get(h).is_none(), "handle is now stale");
/// ```
#[derive(Debug)]
pub struct Pool<T> {
    slots: Vec<Slot<T>>,
    /// The most recently freed slot, the head of the free list: reuse is
    /// last in, first out.
    free: u32,
    live: usize,
    stats: PoolStats,
}

impl<T> Pool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool {
            slots: Vec::new(),
            free: NIL,
            live: 0,
            stats: PoolStats::default(),
        }
    }

    /// Creates an empty pool with room for `cap` values before growing.
    pub fn with_capacity(cap: usize) -> Self {
        Pool {
            slots: Vec::with_capacity(cap),
            free: NIL,
            live: 0,
            stats: PoolStats::default(),
        }
    }

    /// Stores `val` and returns its handle (reference count 1).
    pub fn insert(&mut self, val: T) -> PoolHandle {
        self.stats.inserted += 1;
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        if self.free != NIL {
            let slot = self.free;
            let s = &mut self.slots[slot as usize];
            self.free = s.refs;
            s.gen = s.gen.wrapping_add(1); // even -> odd: occupied
            s.refs = 1;
            s.tag = None;
            s.val = Some(val);
            PoolHandle { slot, gen: s.gen }
        } else {
            let slot = u32::try_from(self.slots.len())
                .ok()
                .filter(|&slot| slot != NIL)
                .expect("pool overflow");
            self.slots.push(Slot {
                gen: 1,
                refs: 1,
                tag: None,
                val: Some(val),
            });
            PoolHandle { slot, gen: 1 }
        }
    }

    fn slot_of(&self, h: PoolHandle) -> Option<&Slot<T>> {
        self.slots.get(h.slot as usize).filter(|s| s.gen == h.gen)
    }

    /// The value behind `h`, or `None` if the handle is stale.
    pub fn get(&self, h: PoolHandle) -> Option<&T> {
        self.slot_of(h).and_then(|s| s.val.as_ref())
    }

    /// Mutable access to the value behind `h`. The caller is responsible
    /// for not mutating a value that is shared across live references.
    pub fn get_mut(&mut self, h: PoolHandle) -> Option<&mut T> {
        self.slots
            .get_mut(h.slot as usize)
            .filter(|s| s.gen == h.gen)
            .and_then(|s| s.val.as_mut())
    }

    /// The tag travelling with the value behind `h`: `None` until
    /// [`Self::set_tag`], for a stale handle, and for the slot's next
    /// occupant.
    pub fn tag(&self, h: PoolHandle) -> Option<u32> {
        self.slot_of(h).and_then(|s| s.tag)
    }

    /// Tags the value behind `h` with a number of the caller's choosing
    /// that every holder of the handle can read back, such as the index
    /// of a record kept about the value. Ignored if the handle is stale.
    pub fn set_tag(&mut self, h: PoolHandle, tag: u32) {
        let slot = self.slots.get_mut(h.slot as usize);
        if let Some(s) = slot.filter(|s| s.gen == h.gen) {
            s.tag = Some(tag);
        }
    }

    /// Adds a reference to the value behind `h` (fan-out sharing).
    /// Returns `false` (and does nothing) if the handle is stale.
    pub fn retain(&mut self, h: PoolHandle) -> bool {
        match self
            .slots
            .get_mut(h.slot as usize)
            .filter(|s| s.gen == h.gen)
        {
            Some(s) => {
                s.refs += 1;
                true
            }
            None => {
                self.stats.stale += 1;
                false
            }
        }
    }

    /// Drops one reference. Returns the value when this was the last
    /// reference (the slot is reclaimed and `h` becomes stale); `None`
    /// while other references remain or if the handle is already stale.
    pub fn release(&mut self, h: PoolHandle) -> Option<T> {
        let s = match self
            .slots
            .get_mut(h.slot as usize)
            .filter(|s| s.gen == h.gen)
        {
            Some(s) => s,
            None => {
                self.stats.stale += 1;
                return None;
            }
        };
        s.refs -= 1;
        if s.refs > 0 {
            return None;
        }
        s.gen = s.gen.wrapping_add(1); // odd -> even: free
        s.refs = self.free;
        self.free = h.slot;
        let val = s.val.take();
        self.live -= 1;
        self.stats.reclaimed += 1;
        val
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no values are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Running traffic counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Takes over `spent`'s slot storage, emptied, if this pool has never
    /// held a value: what a pool built for the next run keeps of the last
    /// one's is capacity, not its values, generations or counters, so every
    /// handle and statistic reads as a fresh pool's.
    pub fn reclaim(&mut self, spent: Pool<T>) {
        if self.slots.is_empty() {
            let mut slots = spent.slots;
            slots.clear();
            self.slots = slots;
        }
    }
}

impl<T: Clone> Pool<T> {
    /// Takes an owned copy of the value behind `h`, consuming one
    /// reference: moves the value out when `h` holds the last reference,
    /// clones it when the value is still shared. `None` if stale.
    pub fn take(&mut self, h: PoolHandle) -> Option<T> {
        let shared = match self.slot_of(h) {
            Some(s) => s.refs > 1,
            None => {
                self.stats.stale += 1;
                return None;
            }
        };
        if shared {
            let cloned = self.get(h).cloned();
            self.release(h);
            cloned
        } else {
            self.release(h)
        }
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_release_roundtrip() {
        let mut p = Pool::new();
        let h = p.insert("x");
        assert_eq!(p.get(h), Some(&"x"));
        assert_eq!(p.len(), 1);
        assert_eq!(p.release(h), Some("x"));
        assert!(p.is_empty());
        assert_eq!(p.get(h), None, "released handle is stale");
    }

    #[test]
    fn slots_are_reused_and_generations_fence_stale_handles() {
        let mut p = Pool::new();
        let h1 = p.insert(1u32);
        p.release(h1);
        let h2 = p.insert(2u32);
        // Same slot, new generation.
        assert_eq!(p.get(h2), Some(&2));
        assert_eq!(p.get(h1), None, "old handle must not see new occupant");
        assert_eq!(p.release(h1), None, "stale release reclaims nothing");
        assert_eq!(p.get(h2), Some(&2), "new occupant survives stale release");
        assert_eq!(p.stats().stale, 1, "the stale release was counted");
    }

    #[test]
    fn refcount_shares_across_fanout() {
        let mut p = Pool::new();
        let h = p.insert(vec![9u8; 100]);
        assert!(p.retain(h));
        assert!(p.retain(h));
        assert_eq!(p.release(h), None);
        assert_eq!(p.release(h), None);
        assert_eq!(p.release(h).map(|v| v.len()), Some(100));
        assert!(p.is_empty());
    }

    #[test]
    fn take_moves_when_unique_and_clones_when_shared() {
        let mut p = Pool::new();
        let h = p.insert(vec![7u8; 4]);
        p.retain(h);
        let first = p.take(h).unwrap();
        assert_eq!(first, vec![7u8; 4]);
        assert_eq!(p.len(), 1, "one reference still live");
        let second = p.take(h).unwrap();
        assert_eq!(second, vec![7u8; 4]);
        assert!(p.is_empty());
        assert_eq!(p.take(h), None, "now stale");
    }

    #[test]
    fn tag_travels_with_the_value_and_dies_with_it() {
        let mut p = Pool::new();
        let h = p.insert("x");
        assert_eq!(p.tag(h), None, "a fresh value carries no tag");
        p.set_tag(h, 7);
        assert_eq!(p.tag(h), Some(7));
        // Sharing and un-sharing the value leaves its tag alone.
        p.retain(h);
        assert_eq!(p.release(h), None);
        assert_eq!(p.tag(h), Some(7));
        // The last release reclaims the slot: the handle goes stale...
        assert_eq!(p.release(h), Some("x"));
        assert_eq!(p.tag(h), None, "a stale handle reads no tag");
        p.set_tag(h, 9);
        // ...and the slot's next occupant starts untagged.
        let next = p.insert("y");
        assert_eq!(next.slot, h.slot, "the slot was reused");
        assert_eq!(p.tag(next), None, "the tag did not outlive its value");
        assert_eq!(p.tag(h), None);
    }

    #[test]
    fn dangling_matches_nothing() {
        let mut p: Pool<u8> = Pool::new();
        let _ = p.insert(1);
        assert_eq!(p.get(PoolHandle::DANGLING), None);
        assert!(!p.retain(PoolHandle::DANGLING));
    }

    #[test]
    fn stats_track_traffic_and_peak() {
        let mut p = Pool::new();
        let a = p.insert(1);
        let b = p.insert(2);
        p.release(a);
        let c = p.insert(3);
        let s = p.stats();
        assert_eq!(s.inserted, 3);
        assert_eq!(s.reclaimed, 1);
        assert_eq!(s.peak_live, 2);
        p.release(b);
        p.release(c);
        assert_eq!(p.stats().reclaimed, 3);
    }

    #[test]
    fn reuse_is_last_in_first_out() {
        // A fixed script of inserts, shares and releases; the literals are
        // what a side `Vec` free list handed out, so threading the list
        // through the free slots changed no handle.
        let mut p = Pool::new();
        let [a, b, c, d] = [0, 1, 2, 3].map(|v| p.insert(v));
        assert!(p.retain(b));
        for h in [c, a, b, d] {
            p.release(h); // `b` is still shared: it stays live
        }
        let [e, f, g] = [4, 5, 6].map(|v| p.insert(v));
        p.release(b);
        p.release(f);
        let [h, i, j] = [7, 8, 9].map(|v| p.insert(v));
        let handed: Vec<(u32, u32)> = [a, b, c, d, e, f, g, h, i, j]
            .iter()
            .map(|h| (h.slot, h.gen))
            .collect();
        assert_eq!(
            handed,
            [
                (0, 1),
                (1, 1),
                (2, 1),
                (3, 1),
                (3, 3),
                (0, 3),
                (2, 3),
                (0, 5),
                (1, 3),
                (4, 1)
            ]
        );
        assert_eq!(p.len(), 5);
        assert_eq!(
            (p.get(e), p.get(g), p.get(h)),
            (Some(&4), Some(&6), Some(&7))
        );
    }

    #[test]
    fn a_reclaimed_pool_keeps_capacity_and_nothing_else() {
        let mut spent = Pool::new();
        let handles: Vec<PoolHandle> = (0..100).map(|v| spent.insert(v)).collect();
        for &h in &handles[..60] {
            spent.release(h);
        }
        let capacity = spent.slots.capacity();
        let mut p = Pool::new();
        p.reclaim(spent);
        assert_eq!((p.slots.len(), p.slots.capacity()), (0, capacity));
        assert_eq!((p.len(), p.stats()), (0, PoolStats::default()));
        // The first handle is a fresh pool's, and no old handle reaches it.
        let h = p.insert(7);
        assert_eq!((h.slot, h.gen), (0, 1));
        assert_eq!(p.get(handles[60]), None);
        // A pool that has held a value keeps its own storage.
        let mut other = Pool::new();
        other.insert(0);
        p.reclaim(other);
        assert_eq!((p.slots.capacity(), p.get(h)), (capacity, Some(&7)));
    }
}
