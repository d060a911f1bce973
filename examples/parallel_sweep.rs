//! Parallel sweep: the Section IV grid fanned across every CPU, with live
//! progress, and a proof that parallelism does not change the result.
//!
//! ```sh
//! cargo run --release --example parallel_sweep
//! ```
//!
//! Every (buffer, rate, repetition) run is an independent, seeded,
//! single-threaded simulation; the executor only distributes whole runs
//! and merges them back in grid order, so `Serial` and `Auto` produce the
//! same `SweepResult` byte for byte.

use sdn_buffer_lab::core::StderrProgress;
use sdn_buffer_lab::prelude::*;
use std::time::Instant;

fn main() {
    let sweep = RateSweep {
        rates_mbps: vec![20, 40, 60, 80, 100],
        ..RateSweep::paper_section_iv(3)
    };

    let t0 = Instant::now();
    let serial = sweep.run_with(Parallelism::Serial, &StderrProgress::new("serial"));
    let serial_wall = t0.elapsed();

    let t0 = Instant::now();
    let parallel = sweep.run_with(Parallelism::Auto, &StderrProgress::new("auto"));
    let parallel_wall = t0.elapsed();

    assert_eq!(serial, parallel, "parallelism must not change results");

    println!(
        "serial {:.2}s, parallel {:.2}s ({:.1}x), results identical",
        serial_wall.as_secs_f64(),
        parallel_wall.as_secs_f64(),
        serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9),
    );
    for mode in parallel.modes() {
        println!(
            "{:<12} mean flow setup delay {:.3} ms",
            mode.label(),
            parallel
                .sweep_mean_of(mode, Metric::FlowSetupDelay)
                .unwrap_or(f64::NAN),
        );
    }
}
