//! A counting global allocator: allocation calls, bytes requested, live
//! bytes and a resettable high-water mark.
//!
//! Counting is *armed* only around the one rep (or tape replay) whose
//! allocations are being reported. Timed reps run disarmed, where every
//! call costs one relaxed flag load on top of the system allocator, so the
//! wall-clock figures are not the figures of an instrumented allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// What the allocator saw while armed since the last [`CountingAlloc::reset`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls (a `realloc` requests its new size).
    pub bytes: u64,
    /// Live bytes relative to the moment counting was reset: allocations
    /// minus frees seen since. Negative when memory allocated before the
    /// reset was freed after it.
    pub live: i64,
    /// High-water mark of `live` — peak heap growth over the reset point.
    pub peak: i64,
}

/// The allocator. All counters are statistics that publish no other data,
/// hence `Relaxed` throughout.
pub struct CountingAlloc {
    armed: AtomicBool,
    calls: AtomicU64,
    bytes: AtomicU64,
    live: AtomicI64,
    peak: AtomicI64,
}

impl CountingAlloc {
    /// A disarmed allocator with zeroed counters.
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            armed: AtomicBool::new(false),
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }

    /// Zeroes every counter; `live` and `peak` restart from the current
    /// heap as their baseline.
    pub fn reset(&self) {
        self.calls.store(0, Relaxed);
        self.bytes.store(0, Relaxed);
        self.live.store(0, Relaxed);
        self.peak.store(0, Relaxed);
    }

    /// Starts counting.
    pub fn arm(&self) {
        self.armed.store(true, Relaxed);
    }

    /// Stops counting; the counters keep their values.
    pub fn disarm(&self) {
        self.armed.store(false, Relaxed);
    }

    /// The counters right now.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
        }
    }

    /// Resets, arms, runs `f`, disarms, and returns what `f` allocated
    /// together with its result.
    pub fn count<T>(&self, f: impl FnOnce() -> T) -> (T, AllocSnapshot) {
        self.reset();
        self.arm();
        let out = f();
        self.disarm();
        (out, self.snapshot())
    }

    fn on_alloc(&self, size: usize) {
        self.calls.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size as u64, Relaxed);
        self.grow(size as i64);
    }

    fn grow(&self, delta: i64) {
        let live = self.live.fetch_add(delta, Relaxed) + delta;
        self.peak.fetch_max(live, Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters never
// touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if self.armed.load(Relaxed) {
            self.on_alloc(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if self.armed.load(Relaxed) {
            self.on_alloc(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if self.armed.load(Relaxed) {
            self.live.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if self.armed.load(Relaxed) {
            self.calls.fetch_add(1, Relaxed);
            self.bytes.fetch_add(new_size as u64, Relaxed);
            self.grow(new_size as i64 - layout.size() as i64);
        }
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test drives its own instance through the `GlobalAlloc` methods,
    // so tests running on parallel threads cannot disturb the counts.
    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn disarmed_counts_nothing() {
        let a = CountingAlloc::new();
        unsafe {
            let p = a.alloc(layout(64));
            a.dealloc(p, layout(64));
        }
        assert_eq!(a.snapshot(), AllocSnapshot::default());
    }

    #[test]
    fn armed_counts_calls_bytes_live_and_peak() {
        let a = CountingAlloc::new();
        a.arm();
        unsafe {
            let p = a.alloc(layout(100));
            let q = a.alloc_zeroed(layout(50));
            assert_eq!(*q, 0);
            assert_eq!(a.snapshot().live, 150);
            a.dealloc(p, layout(100));
            let q = a.realloc(q, layout(50), 80);
            let s = a.snapshot();
            assert_eq!((s.calls, s.bytes, s.live, s.peak), (3, 230, 80, 150));
            a.dealloc(q, layout(80));
        }
        assert_eq!(a.snapshot().live, 0);
        assert_eq!(a.snapshot().peak, 150);
    }

    #[test]
    fn reset_rebases_live_and_peak() {
        let a = CountingAlloc::new();
        a.arm();
        unsafe {
            let before = a.alloc(layout(1000));
            a.reset();
            let p = a.alloc(layout(10));
            // Freeing memory from before the reset takes `live` below the
            // baseline; the peak is unaffected.
            a.dealloc(before, layout(1000));
            let s = a.snapshot();
            assert_eq!((s.calls, s.bytes, s.live, s.peak), (1, 10, -990, 10));
            a.dealloc(p, layout(10));
        }
    }

    #[test]
    fn count_wraps_a_closure_and_disarms() {
        let a = CountingAlloc::new();
        let (v, snap) = a.count(|| unsafe {
            let p = a.alloc(layout(32));
            a.dealloc(p, layout(32));
            7
        });
        assert_eq!(v, 7);
        assert_eq!(
            (snap.calls, snap.bytes, snap.live, snap.peak),
            (1, 32, 0, 32)
        );
        unsafe {
            let p = a.alloc(layout(8));
            a.dealloc(p, layout(8));
        }
        assert_eq!(a.snapshot(), snap, "disarmed after count()");
    }

    #[test]
    fn the_global_instance_sees_real_allocations() {
        // Other tests may allocate concurrently while this one is armed, so
        // only lower bounds are asserted.
        let (len, snap) = crate::GLOBAL.count(|| {
            let v: Vec<u8> = Vec::with_capacity(1 << 20);
            std::hint::black_box(&v).capacity()
        });
        assert!(len >= 1 << 20);
        assert!(snap.calls >= 1);
        assert!(snap.bytes >= 1 << 20);
        assert!(snap.peak >= 1 << 20);
    }
}
