//! `--agree`: two sets of runs of the whole suite in one go, and whether
//! they tell the same story.
//!
//! Two sets of runs of the same code must agree on every end-to-end metric
//! within the metric's own bound — otherwise the bound is tighter than the
//! benchmark can resolve — and exactly on everything simulated: operation
//! counts and `simtime.*` values.
//!
//! A set is the median of [`ROUNDS`] runs per workload, the two sets' runs
//! taking turns — the driver's own acceptance test (medians of two sets of
//! ten) in small. One run per set is not enough on a shared box: a whole
//! run now and then lands in a stretch where everything takes a quarter
//! longer.

use crate::layers::traced_pass;
use crate::metrics::{Manifest, MetricSet};
use crate::protocol::{measure, reps_for};
use crate::report::human;
use crate::stats;
use crate::workloads::{Scale, Workload};
use sdnbuf_metrics::Table;

/// Runs per workload behind each set's medians.
pub const ROUNDS: usize = 3;

/// One set's metrics on one workload.
pub struct SetResult {
    /// End-to-end metrics.
    pub end_to_end: MetricSet,
    /// Per-layer metrics.
    pub per_layer: MetricSet,
    /// Failed checked operations and self-checks.
    pub failed: u64,
}

/// Measures `workload` `ROUNDS` times for each of two sets, in turns, and
/// returns the sets: end-to-end medians, and the per-layer metrics of each
/// set's first run (its traced pass is the only one).
pub fn two_sets(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> [SetResult; 2] {
    let reps = reps_for(workload, seconds, scale, false);
    let mut runs: [Vec<MetricSet>; 2] = [Vec::new(), Vec::new()];
    let mut per_layer = [None, None];
    let mut failed = [0; 2];
    for round in 0..ROUNDS {
        for set in 0..2 {
            eprintln!(
                "{}: set {}, run {} of {ROUNDS} ...",
                workload.name(),
                ["A", "B"][set],
                round + 1
            );
            let (inputs, measured) = measure(workload, seed, reps, scale);
            failed[set] += measured.failed;
            if round == 0 {
                let traced = traced_pass(&inputs, &measured, false);
                failed[set] += traced.complaints.len() as u64;
                per_layer[set] = Some(traced.metrics);
            }
            runs[set].push(measured.end_to_end());
        }
    }
    [0, 1].map(|set| {
        let mut end_to_end = MetricSet::end_to_end();
        for (name, _, _) in crate::metrics::END_TO_END {
            let values: Vec<f64> = runs[set].iter().map(|run| run.get(name)).collect();
            end_to_end.set(name, stats::median(&values));
        }
        SetResult {
            end_to_end,
            per_layer: per_layer[set].take().expect("traced in the first round"),
            failed: failed[set],
        }
    })
}

/// How far apart two readings of a lower-is-better metric are: the worse
/// one's excess over the better, as a share of the better.
pub fn disagreement(a: f64, b: f64) -> f64 {
    let (lo, hi) = (a.min(b), a.max(b));
    if lo <= 0.0 {
        return if hi > 0.0 { f64::INFINITY } else { 0.0 };
    }
    hi / lo - 1.0
}

/// How two sets compare on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Every end-to-end pair is within its bound and nothing failed.
    pub within_bounds: bool,
    /// Every `.ops` and `simtime.*` value is identical.
    pub exact: bool,
}

/// Compares two sets on one workload, adding a row per end-to-end metric
/// and per differing count to `table`.
pub fn compare(
    workload: Workload,
    a: &SetResult,
    b: &SetResult,
    manifest: &Manifest,
    table: &mut Table,
) -> Verdict {
    let mut within_bounds = a.failed == 0 && b.failed == 0;
    let mut exact = true;
    for ((name, va, unit), (_, vb, _)) in a.end_to_end.iter().zip(b.end_to_end.iter()) {
        let bound = manifest.bound(name).unwrap_or(0.0);
        let apart = disagreement(va, vb);
        let ok = apart <= bound;
        within_bounds &= ok;
        table.row(vec![
            workload.name().to_owned(),
            name.to_owned(),
            human(va),
            human(vb),
            unit.to_owned(),
            format!("{:.3}", apart * 100.0),
            format!("{:.1}", bound * 100.0),
            if ok { "ok" } else { "DISAGREE" }.to_owned(),
        ]);
    }
    // Everything simulated or counted repeats exactly.
    for ((name, va, unit), (_, vb, _)) in a.per_layer.iter().zip(b.per_layer.iter()) {
        let counted = name.ends_with(".ops") || name.starts_with("simtime.");
        if counted && va != vb {
            exact = false;
            table.row(vec![
                workload.name().to_owned(),
                name.to_owned(),
                human(va),
                human(vb),
                unit.to_owned(),
                "-".to_owned(),
                "exact".to_owned(),
                "DISAGREE".to_owned(),
            ]);
        }
    }
    Verdict {
        within_bounds,
        exact,
    }
}

/// Measures two sets on every workload and prints the comparison. Returns
/// whether the two sets agree.
pub fn run(seed: u64, seconds: f64, scale: Scale) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let sets = Workload::ALL.map(|workload| two_sets(workload, seed, seconds, scale));
    let mut table = Table::new(vec![
        "workload", "metric", "set A", "set B", "unit", "apart %", "bound %", "",
    ]);
    let mut verdict = Verdict {
        within_bounds: true,
        exact: true,
    };
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        let v = compare(workload, &sets[i][0], &sets[i][1], &manifest, &mut table);
        verdict.within_bounds &= v.within_bounds;
        verdict.exact &= v.exact;
    }
    println!("sets are medians of {ROUNDS} runs per workload, taken in turns");
    println!("{table}");
    println!(
        "every .ops and simtime.* value identical across the two sets: {}",
        if verdict.exact { "yes" } else { "NO" }
    );
    let agree = verdict.within_bounds && verdict.exact;
    println!("{}", if agree { "AGREE" } else { "DISAGREE" });
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_symmetric_and_relative_to_the_better_reading() {
        assert_eq!(disagreement(100.0, 100.0), 0.0);
        assert!((disagreement(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((disagreement(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(disagreement(0.0, 0.0), 0.0);
        assert_eq!(disagreement(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn sets_that_differ_beyond_a_bound_or_in_a_count_disagree() {
        let manifest = Manifest {
            run_seconds: 1.0,
            bounds: vec![("ns_per_packet".to_owned(), 0.1)],
        };
        let set = |ns: f64, ops: f64| {
            let mut end_to_end = MetricSet::end_to_end();
            for (name, _, _) in crate::metrics::END_TO_END {
                end_to_end.set(name, 1.0);
            }
            end_to_end.set("ns_per_packet", ns);
            let mut per_layer = MetricSet::per_layer();
            per_layer.set("switch.ops", ops);
            per_layer.set("switch.ns_per_op", ns);
            SetResult {
                end_to_end,
                per_layer,
                failed: 0,
            }
        };
        let headers = vec!["w", "m", "a", "b", "u", "apart", "bound", "ok"];
        let mut t = Table::new(headers.clone());
        let w = Workload::Sec4Churn;
        let (yes, no) = (true, false);
        let v = compare(w, &set(100.0, 5.0), &set(109.0, 5.0), &manifest, &mut t);
        assert_eq!((v.within_bounds, v.exact), (yes, yes));
        assert_eq!(t.len(), 5, "one row per end-to-end metric");
        let mut t = Table::new(headers.clone());
        let v = compare(w, &set(100.0, 5.0), &set(120.0, 5.0), &manifest, &mut t);
        assert_eq!((v.within_bounds, v.exact), (no, yes));
        let mut t = Table::new(headers);
        let v = compare(w, &set(100.0, 5.0), &set(100.0, 6.0), &manifest, &mut t);
        assert_eq!((v.within_bounds, v.exact), (yes, no));
        assert_eq!(t.len(), 6, "the differing count gets a row");
        assert!(t.to_text().contains("switch.ops"));
    }
}
