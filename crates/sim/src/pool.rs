//! A slab pool with generation-tagged handles and reference counts.
//!
//! The simulator's hot path used to move (and clone) owned packet and
//! message payloads through every hop of the event graph. The pool
//! replaces those owned values with a copyable 8-byte [`PoolHandle`]:
//! payloads are inserted once, passed around by handle, shared across
//! fan-out (flood, duplication faults) by bumping a reference count, and
//! reclaimed in place — the slot's backing allocation is reused by the
//! next occupant via the free list.
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

#[derive(Debug)]
struct Slot<T> {
    /// Odd while occupied, even while free; bumped on every transition.
    gen: u32,
    /// Live references to the current occupant (0 while free).
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
    free: Vec<u32>,
    live: usize,
    stats: PoolStats,
}

impl<T> Pool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            stats: PoolStats::default(),
        }
    }

    /// Creates an empty pool with room for `cap` values before growing.
    pub fn with_capacity(cap: usize) -> Self {
        Pool {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
            stats: PoolStats::default(),
        }
    }

    /// Stores `val` and returns its handle (reference count 1).
    pub fn insert(&mut self, val: T) -> PoolHandle {
        self.stats.inserted += 1;
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.gen = s.gen.wrapping_add(1); // even -> odd: occupied
            s.refs = 1;
            s.tag = None;
            s.val = Some(val);
            PoolHandle { slot, gen: s.gen }
        } else {
            let slot = u32::try_from(self.slots.len()).expect("pool overflow");
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
        let val = s.val.take();
        self.free.push(h.slot);
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
}
