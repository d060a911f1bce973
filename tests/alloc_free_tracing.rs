//! Asserts the *disabled* tracer hot path performs zero heap allocations.
//!
//! Every instrumentation point in the testbed calls `Tracer::emit`; when no
//! sink is attached this must compile down to a branch on an `Option` and
//! nothing else, so untraced runs pay no observability tax. A counting
//! wrapper around the system allocator measures the emit loop directly.
//!
//! The same allocator holds the chaos observer to its claim: digesting a
//! recorded stream allocates nothing, and checking plus digesting a run
//! while it is emitted costs no more than recording it did.
//!
//! This lives in its own integration-test binary (not `observability.rs`)
//! because `#[global_allocator]` is per-binary; the counters are per
//! thread, so the tests of this binary do not see each other.

use sdn_buffer_lab::core::chaos::{execute, run_scenario, Sabotage};
use sdn_buffer_lab::core::observe::events_digest;
use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::sim::ChannelDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations and bytes asked for on this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down may still allocate.
        let _ = ALLOCATED.try_with(|c| {
            let (n, bytes) = c.get();
            c.set((n + 1, bytes + layout.size() as u64));
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `(allocations, bytes)` this thread asked for while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    let after = ALLOCATED.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
}

#[test]
fn disabled_tracer_emit_allocates_nothing() {
    let tracer = Tracer::off();
    assert!(!tracer.is_enabled());
    let kind = EventKind::CtrlMsg {
        dir: ChannelDir::ToController,
        xid: 42,
        bytes: 90,
        label: "packet_in",
        arrive: Nanos::from_micros(12),
    };

    // Warm up once so any lazy runtime allocation happens outside the
    // measured window.
    tracer.emit(Nanos::ZERO, kind);

    let ((), (allocations, _)) = allocated_by(|| {
        for i in 0..100_000u64 {
            tracer.emit(Nanos::from_nanos(i), kind);
        }
    });

    assert_eq!(
        allocations, 0,
        "Tracer::off().emit must not allocate on the heap"
    );
}

/// Plain and crash scenarios of every mechanism (the no-buffer ones put
/// every xid in the checker's full-packet table).
fn scenarios() -> Vec<RunSpec> {
    let mechs = [
        BufferMode::NoBuffer,
        BufferMode::PacketGranularity { capacity: 256 },
        BufferMode::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(20),
        },
    ];
    let mut out = Vec::new();
    for (seed, mech) in (0..12u64).zip(mechs.into_iter().cycle()) {
        out.push(RunSpec::generate(seed, mech));
        out.push(RunSpec::generate_with_crashes(seed, mech));
    }
    out
}

#[test]
fn digesting_a_recorded_stream_allocates_nothing() {
    for scenario in scenarios() {
        let (_, events) = execute(&scenario, Sabotage::none());
        assert!(events.len() > 100, "{scenario}");
        let (digest, (allocations, _)) = allocated_by(|| events_digest(&events));
        assert_eq!(allocations, 0, "{scenario}");
        assert_eq!(digest, run_scenario(&scenario, Sabotage::none()).digest);
    }
}

#[test]
fn checking_and_digesting_a_run_costs_no_more_than_recording_it() {
    for scenario in scenarios() {
        let spec = scenario.to_string();
        let (recorded, recording) = allocated_by(|| execute(&scenario, Sabotage::none()));
        let (report, observing) = allocated_by(|| run_scenario(&scenario, Sabotage::none()));
        assert!(report.violations.is_empty(), "{spec}");
        assert_eq!(report.result, recorded.0, "{spec}");
        assert!(
            observing.0 <= recording.0 && observing.1 <= recording.1,
            "run_scenario asked for {observing:?} (allocations, bytes), execute for \
             {recording:?}: {spec}"
        );
    }
}
