//! The measurement protocol of one workload: set-up samples, a warm-up
//! rep, a fixed number of timed reps with allocation counting disarmed,
//! and one counting rep.
//!
//! Rep counts are fixed by `--seconds` and a per-workload constant, never
//! by a clock, so two commits measured with the same arguments do
//! identical work.

use crate::alloc::AllocSnapshot;
use crate::metrics::MetricSet;
use crate::stats;
use crate::workloads::{build_inputs, run_rep, Inputs, RepOutcome, Scale, Workload};
use sdnbuf_core::validate::{self, ValidateConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up samples per run; the reported figure is the fastest.
const SETUP_SAMPLES: usize = 11;
/// A set-up sample repeats the build until this much time has passed, so
/// that inputs built in microseconds are still timed over milliseconds.
const SETUP_SAMPLE_FLOOR: Duration = Duration::from_millis(20);
/// Fewest timed reps behind an end-to-end figure, whatever `--seconds`.
const MIN_REPS: usize = 11;
/// Fewest timed reps when only per-layer metrics are wanted: there the
/// reps merely set the denominator of the shares.
const MIN_REPS_TRACED: usize = 5;

/// Timed reps for `--seconds` on `workload`. `layers_only`: the invocation
/// reports per-layer metrics alone and spends half its seconds on timed
/// reps, the rest on the traced pass. `--quick` runs one rep.
pub fn reps_for(workload: Workload, seconds: f64, scale: Scale, layers_only: bool) -> usize {
    let (seconds, floor) = match (scale, layers_only) {
        (Scale::Quick, _) => return 1,
        (Scale::Full, true) => (seconds / 2.0, MIN_REPS_TRACED),
        (Scale::Full, false) => (seconds, MIN_REPS),
    };
    ((seconds / workload.nominal_rep_seconds()).round() as usize).max(floor)
}

/// The verdict of the analytic oracle's default grid (`repro_grid` only).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OracleVerdict {
    /// Differential checks plus metamorphic laws evaluated.
    pub checks: u64,
    /// How many of them failed.
    pub failed: u64,
    /// Largest relative error of any differential check, percent.
    pub err_max_pct: f64,
    /// Wall time of the `validate` call.
    pub wall_s: f64,
}

/// Everything one invocation measured on one workload with tracing off.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// Seconds per input build, one entry per set-up sample.
    pub setup_samples_s: Vec<f64>,
    /// Wall seconds of each part (cell, sweep, block of scenarios) of each
    /// timed rep: `part_walls_s[rep][part]`.
    pub part_walls_s: Vec<Vec<f64>>,
    /// What the warm-up rep computed; every later rep must agree with it.
    pub outcome: RepOutcome,
    /// Allocator counters of the counting rep.
    pub counted: AllocSnapshot,
    /// Checked operations over all reps (and the oracle's checks).
    pub attempted: u64,
    /// Checked operations that failed, plus one per rep that disagreed
    /// with the warm-up rep's digest.
    pub failed: u64,
    /// The oracle's verdict (`repro_grid` only).
    pub oracle: Option<OracleVerdict>,
}

impl Measured {
    /// Data packets one rep offers.
    pub fn packets(&self) -> f64 {
        self.outcome.totals.packets as f64
    }

    /// Wall seconds of each timed rep: the sum of its parts.
    pub fn rep_walls_s(&self) -> Vec<f64> {
        self.part_walls_s
            .iter()
            .map(|parts| parts.iter().sum())
            .collect()
    }

    /// The fastest any timed rep ran part `part`.
    pub fn part_wall_s(&self, part: usize) -> f64 {
        let walls: Vec<f64> = self.part_walls_s.iter().map(|rep| rep[part]).collect();
        stats::fastest(&walls)
    }

    /// The wall time of an undisturbed rep: each part's fastest time over
    /// the timed reps, summed. A rep takes seconds and the box's
    /// interference comes in bursts shorter than that, so whole reps are
    /// rarely clean while each part, somewhere among the reps, is. This is
    /// the numerator of `ns_per_packet` and the denominator of every layer
    /// share.
    pub fn rep_wall_s(&self) -> f64 {
        (0..self.part_walls_s[0].len())
            .map(|part| self.part_wall_s(part))
            .sum()
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> MetricSet {
        let mut m = MetricSet::end_to_end();
        m.set("setup_s", stats::fastest(&self.setup_samples_s));
        m.set("ns_per_packet", self.rep_wall_s() * 1e9 / self.packets());
        m.set(
            "allocs_per_packet",
            self.counted.calls as f64 / self.packets(),
        );
        m.set(
            "alloc_bytes_per_packet",
            self.counted.bytes as f64 / self.packets(),
        );
        m.set("peak_live_bytes", self.counted.peak as f64);
        m
    }
}

/// Hands the heap's free pages back to the system, so that every set-up
/// sample starts from the same state. Most of building 90–350 MB of frames
/// is the kernel handing out fresh pages; whether a build gets fresh pages
/// or recycled ones otherwise depends on what the process freed before —
/// a factor of two on `setup_s` that has nothing to do with the generators.
fn settle_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and only releases memory
        // the allocator itself holds free; glibc documents it thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Builds the inputs `SETUP_SAMPLES` times over and returns the last build
/// with the per-build seconds of every sample.
pub fn timed_setup(workload: Workload, seed: u64, scale: Scale) -> (Inputs, Vec<f64>) {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    let mut inputs = None;
    for _ in 0..SETUP_SAMPLES {
        // Freed outside the timed region, and before the next build so two
        // copies of the largest inputs never coexist.
        drop(inputs.take());
        settle_heap();
        let mut built = Vec::new();
        let start = Instant::now();
        let elapsed = loop {
            built.push(black_box(build_inputs(workload, seed, scale)));
            let elapsed = start.elapsed();
            if elapsed >= SETUP_SAMPLE_FLOOR {
                break elapsed;
            }
        };
        samples.push(elapsed.as_secs_f64() / built.len() as f64);
        inputs = built.pop();
    }
    (inputs.expect("at least one build"), samples)
}

fn run_oracle() -> OracleVerdict {
    let start = Instant::now();
    let report = validate::validate(&ValidateConfig::default());
    let wall_s = start.elapsed().as_secs_f64();
    let err_max = report
        .cells
        .iter()
        .flat_map(|c| &c.checks)
        .map(|c| c.rel_err)
        .filter(|e| e.is_finite())
        .fold(0.0, f64::max);
    OracleVerdict {
        checks: (report.checks() + report.laws.len()) as u64,
        failed: (report.differential_failures() + report.laws_failed()) as u64,
        err_max_pct: err_max * 100.0,
        wall_s,
    }
}

/// Runs the protocol and returns the measurements with the inputs they
/// were taken on (the traced pass reuses them).
pub fn measure(workload: Workload, seed: u64, reps: usize, scale: Scale) -> (Inputs, Measured) {
    let (inputs, setup_samples_s) = timed_setup(workload, seed, scale);

    let outcome = run_rep(&inputs, false);
    let mut attempted = outcome.attempted;
    let mut failed = outcome.failed;
    let mut agree = |rep: &RepOutcome| {
        attempted += rep.attempted;
        failed += rep.failed + u64::from(rep.digest != outcome.digest);
    };

    let mut part_walls_s = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut rep = run_rep(&inputs, false);
        part_walls_s.push(std::mem::take(&mut rep.part_walls_s));
        agree(&rep);
    }

    let (rep, counted) = crate::GLOBAL.count(|| run_rep(&inputs, true));
    agree(&rep);

    let oracle = (workload == Workload::ReproGrid).then(run_oracle);
    if let Some(verdict) = oracle {
        attempted += verdict.checks;
        failed += verdict.failed;
    }

    let measured = Measured {
        workload,
        seed,
        setup_samples_s,
        part_walls_s,
        outcome,
        counted,
        attempted,
        failed,
        oracle,
    };
    (inputs, measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_counts_follow_seconds_not_a_clock() {
        let full = |w, seconds, layers_only| reps_for(w, seconds, Scale::Full, layers_only);
        assert_eq!(full(Workload::Sec4Churn, 36.0, false), 20);
        assert_eq!(full(Workload::Sec4Churn, 36.0, true), 10);
        assert_eq!(full(Workload::ChaosSweep, 18.0, false), 100);
        assert_eq!(full(Workload::Sec5Flows, 0.1, false), MIN_REPS);
        assert_eq!(full(Workload::Sec5Flows, 0.1, true), MIN_REPS_TRACED);
        assert_eq!(reps_for(Workload::Sec5Flows, 60.0, Scale::Quick, false), 1);
    }

    #[test]
    fn protocol_yields_every_end_to_end_metric_nonzero() {
        let _armed = crate::alloc_test_lock();
        let (_, m) = measure(Workload::ChaosSweep, 1, 2, Scale::Quick);
        assert_eq!(m.rep_walls_s().len(), 2);
        let slowest = m.rep_walls_s().into_iter().fold(0.0, f64::max);
        assert!(m.rep_wall_s() > 0.0 && m.rep_wall_s() <= slowest);
        assert_eq!(m.setup_samples_s.len(), SETUP_SAMPLES);
        assert_eq!(m.failed, 0);
        // Warm-up + 2 timed + counting, 100 scenarios each.
        assert_eq!(m.attempted, 400);
        for (name, value, _) in m.end_to_end().iter() {
            assert!(value > 0.0, "{name} = {value}");
        }
    }
}
