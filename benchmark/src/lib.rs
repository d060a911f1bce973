//! The repository benchmark: host cost per simulated packet on four
//! workloads, end to end and layer by layer.
//!
//! See `README.md` beside this package for how to run it and how to read
//! its output, and `BENCHMARK.json` at the repository root for the
//! contract the numbers are reported under.

#![warn(missing_docs)]

pub mod agree;
pub mod alloc;
pub mod digest;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod protocol;
pub mod replay;
pub mod report;
pub mod stats;
pub mod sweep;
pub mod tape;
pub mod trace;
pub mod workloads;

/// The process-wide allocator. Disarmed except around a counting rep or a
/// counted tape replay.
#[global_allocator]
pub static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// `BENCHMARK.json`: the one place bounds and metric lists are written down.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Serialises the unit tests that arm [`GLOBAL`]: `cargo test` runs tests
/// on parallel threads and they share its counters.
#[cfg(test)]
pub(crate) fn alloc_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while armed must not fail the others as well.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
