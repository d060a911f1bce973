//! Asserts what the expiry index allocates: a sweep that removes rules
//! allocates its result once, and nothing when the caller brings the
//! result's storage; an empty sweep, `next_expiry` and a hit — on the rule
//! due next or on any other — allocate nothing.
//!
//! The switch polls `next_expiry` after every frame and controller
//! message and sweeps on every timer, so an allocation here is an
//! allocation per packet. A counting wrapper around the system allocator
//! measures the calls directly.
//!
//! One test function in a binary of its own: `#[global_allocator]` is
//! per-binary and a concurrent test would perturb the count.

use sdnbuf_flowtable::{FlowRule, FlowTable};
use sdnbuf_net::PacketBuilder;
use sdnbuf_openflow::{Match, MatchView, PortNo};
use sdnbuf_sim::Nanos;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

fn view_of(port: u16) -> MatchView {
    MatchView::of(PortNo(1), &PacketBuilder::udp().src_port(port).build())
}

/// 64 rules (no actions, so a rule owns no heap), idle timeouts 1..=64 s.
fn fill(t: &mut FlowTable, at: Nanos) {
    for port in 0..64u16 {
        let pkt = PacketBuilder::udp().src_port(port).build();
        let rule = FlowRule::new(Match::exact_from_packet(PortNo(1), &pkt), 1)
            .with_idle_timeout(Nanos::from_secs(u64::from(port) + 1));
        t.insert(at, rule);
    }
}

#[test]
fn expiry_index_allocates_only_the_sweep_result() {
    let mut t = FlowTable::new(64);
    // A first round sizes the index and the sweep's scratch space.
    fill(&mut t, Nanos::ZERO);
    assert_eq!(t.expire(Nanos::from_secs(64)).len(), 64);
    let t0 = Nanos::from_secs(100);
    fill(&mut t, t0);

    let (n, next) = allocations_in(|| t.next_expiry());
    assert_eq!((n, next), (0, Some(t0 + Nanos::from_secs(1))));

    let (n, removed) = allocations_in(|| t.expire(t0));
    assert_eq!(
        (n, removed.len()),
        (0, 0),
        "an empty sweep must not allocate"
    );

    // Port 0's rule is due next (the index's top entry), port 40's is not.
    let h = t0 + Nanos::from_millis(500);
    for port in [0, 40] {
        let view = view_of(port);
        let (n, hit) = allocations_in(|| t.match_packet(h, &view, 100).is_some());
        assert_eq!(
            (n, hit),
            (0, true),
            "a hit on port {port} must not allocate"
        );
    }
    assert_eq!(t.next_expiry(), Some(h + Nanos::from_secs(1)));

    for (now, k) in [
        (h + Nanos::from_secs(1), 1),
        (t0 + Nanos::from_secs(30), 29),
    ] {
        let (n, removed) = allocations_in(|| t.expire(now));
        assert_eq!(removed.len(), k);
        assert_eq!(
            n, 1,
            "a sweep removing {k} rules allocates its result, once"
        );
    }

    // The switch's timer keeps one result buffer for all its sweeps.
    let mut removed = Vec::with_capacity(8);
    let (n, ()) = allocations_in(|| t.expire_into(t0 + Nanos::from_secs(38), &mut removed));
    assert_eq!(
        (n, removed.len()),
        (0, 8),
        "a sweep into a buffer with room must not allocate"
    );
}
