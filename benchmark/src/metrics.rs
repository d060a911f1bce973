//! The metric registry: every name the benchmark can emit, with its unit.
//!
//! `BENCHMARK.json` lists the same names; a unit test holds the two
//! together. A value can only be stored under a registered name, so a
//! misspelt metric is a panic in the harness, not a silent new column.

/// `(name, unit, better)` of the end-to-end metrics, reported per workload
/// with tracing off.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("ns_per_packet", "ns", "lower"),
    ("allocs_per_packet", "count", "lower"),
    ("alloc_bytes_per_packet", "B", "lower"),
    ("peak_live_bytes", "B", "lower"),
];

/// The layers: this repository's crates and modules. Each reports `ops`,
/// `ns_per_op` and `share`.
pub const LAYERS: [&str; 19] = [
    "workload",
    "net",
    "openflow",
    "sim.queue",
    "sim.pool",
    "sim.link",
    "sim.events",
    "sim.faults",
    "flowtable",
    "switchbuf",
    "switch",
    "controller",
    "metrics",
    "core.testbed",
    "core.executor",
    "core.chaos",
    "core.spans",
    "core.figures",
    "model",
];

/// Layers on the per-packet run path, which also report `allocs_per_op`.
pub const RUN_PATH_LAYERS: [&str; 10] = [
    "net",
    "openflow",
    "sim.queue",
    "sim.pool",
    "sim.events",
    "flowtable",
    "switchbuf",
    "switch",
    "controller",
    "core.testbed",
];

/// `(name, unit, better)` of the named extras.
pub const EXTRAS: [(&str, &str, &str); 34] = [
    ("net.bytes_copied_per_packet", "B", "lower"),
    ("openflow.bytes_to_controller_per_packet", "B", "lower"),
    ("openflow.bytes_to_switch_per_packet", "B", "lower"),
    ("sim.queue.peak_len", "count", "lower"),
    ("sim.pool.peak_live", "count", "lower"),
    ("sim.link.drops", "count", "lower"),
    ("flowtable.hit_ratio", "ratio", "higher"),
    ("flowtable.evictions", "count", "lower"),
    ("flowtable.expiries", "count", "lower"),
    ("flowtable.peak_rules", "count", "lower"),
    ("flowtable.rejects", "count", "lower"),
    ("switchbuf.pkt_in_per_flow", "ratio", "lower"),
    ("switchbuf.fallback_share", "ratio", "lower"),
    ("switchbuf.peak_occupancy", "count", "lower"),
    ("switchbuf.rerequests", "count", "lower"),
    ("switch.fastpath_share", "ratio", "higher"),
    ("core.testbed.new_ns", "ns", "lower"),
    ("core.testbed.events_per_packet", "ratio", "lower"),
    ("core.testbed.ns_per_event", "ns", "lower"),
    ("core.testbed.residual_share", "ratio", "lower"),
    ("core.testbed.trace_overhead_pct", "%", "lower"),
    ("core.testbed.digest_drift", "count", "lower"),
    ("core.executor.busy_overlap", "ratio", "higher"),
    ("core.chaos.scenarios_per_s", "1/s", "higher"),
    ("core.chaos.violations", "count", "lower"),
    ("model.oracle_err_max_pct", "%", "lower"),
    ("model.checks_failed", "count", "lower"),
    ("simtime.flow_setup_ms_mean", "ms", "lower"),
    ("simtime.active_span_s", "s", "lower"),
    ("simtime.delivered_share", "ratio", "higher"),
    ("simtime.ctrl_load_mbps", "Mbps", "lower"),
    ("bench.reps", "count", "higher"),
    ("bench.rep_median_ns_per_packet", "ns", "lower"),
    ("bench.rep_iqr_pct", "%", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for layer in LAYERS {
        out.push((format!("{layer}.ops"), "count", "higher"));
        out.push((format!("{layer}.ns_per_op"), "ns", "lower"));
        out.push((format!("{layer}.share"), "ratio", "lower"));
        if RUN_PATH_LAYERS.contains(&layer) {
            out.push((format!("{layer}.allocs_per_op"), "count", "lower"));
        }
    }
    out.extend(EXTRAS.iter().map(|&(n, u, b)| (n.to_owned(), u, b)));
    out
}

/// Values keyed by registered metric name, in registry order. Every
/// per-layer name starts at 0 — a layer a workload bypasses reports that it
/// did nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSet {
    entries: Vec<(String, f64, &'static str)>,
}

impl MetricSet {
    /// Every end-to-end metric, zeroed.
    pub fn end_to_end() -> MetricSet {
        MetricSet {
            entries: END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_owned(), 0.0, u))
                .collect(),
        }
    }

    /// Every per-layer metric, zeroed.
    pub fn per_layer() -> MetricSet {
        MetricSet {
            entries: per_layer()
                .into_iter()
                .map(|(n, u, _)| (n, 0.0, u))
                .collect(),
        }
    }

    /// Stores `value` under `name`.
    ///
    /// # Panics
    /// When `name` is not registered, or `value` is not finite.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(entry) => entry.1 = value,
            None => panic!("metric {name} is not in the registry"),
        }
    }

    /// The value stored under `name`.
    ///
    /// # Panics
    /// When `name` is not registered.
    pub fn get(&self, name: &str) -> f64 {
        match self.entries.iter().find(|e| e.0 == name) {
            Some(entry) => entry.1,
            None => panic!("metric {name} is not in the registry"),
        }
    }

    /// `(name, value, unit)` in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// What `BENCHMARK.json` fixes beyond the names: how long a run measures
/// and by what share of its value each end-to-end metric may worsen.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// `run_seconds`: the `--seconds` the driver passes.
    pub run_seconds: f64,
    /// `(name, bound)` of every end-to-end metric.
    pub bounds: Vec<(String, f64)>,
}

impl Manifest {
    /// Reads the manifest compiled into the binary.
    pub fn load() -> Result<Manifest, String> {
        let doc = crate::json::parse(crate::MANIFEST)?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(|v| v.as_f64())
            .ok_or("BENCHMARK.json: no run_seconds")?;
        let bounds = doc
            .get("end_to_end")
            .ok_or("BENCHMARK.json: no end_to_end")?
            .items()
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(|v| v.as_str());
                let bound = m.get("bound").and_then(|v| v.as_f64());
                name.zip(bound).map(|(n, b)| (n.to_owned(), b))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: an end_to_end entry lacks name or bound")?;
        Ok(Manifest {
            run_seconds,
            bounds,
        })
    }

    /// The bound of `metric`.
    pub fn bound(&self, metric: &str) -> Option<f64> {
        self.bounds
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, b)| *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn manifest_gives_every_end_to_end_metric_a_bound() {
        let manifest = Manifest::load().unwrap();
        assert!((1.0..=60.0).contains(&manifest.run_seconds));
        for (name, _, _) in END_TO_END {
            let bound = manifest
                .bound(name)
                .unwrap_or_else(|| panic!("{name} has a bound"));
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
        // Set-up time is the noisiest figure and gets the widest bound.
        let widest = manifest.bounds.iter().map(|b| b.1).fold(0.0, f64::max);
        assert_eq!(manifest.bound("setup_s"), Some(widest));
    }

    fn listed(manifest: &Value, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .expect("list present")
            .items()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn registry_and_manifest_list_the_same_metrics() {
        let manifest = json::parse(crate::MANIFEST).expect("BENCHMARK.json parses");
        let own = |names: Vec<(String, &str, &str)>| -> Vec<(String, String, String)> {
            names
                .into_iter()
                .map(|(n, u, b)| (n, u.to_owned(), b.to_owned()))
                .collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_owned(), u, b))
            .collect();
        assert_eq!(listed(&manifest, "end_to_end"), own(e2e));
        assert_eq!(listed(&manifest, "per_layer"), own(per_layer()));
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_caps() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|m| m.0.to_owned())
            .chain(per_layer().into_iter().map(|m| m.0))
            .collect();
        for name in &names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.chars().next().unwrap().is_ascii_alphanumeric()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.len() <= 16);
        assert_eq!(per_layer().len(), 19 * 3 + 10 + 34);
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }

    #[test]
    fn every_bypassed_layer_still_reports() {
        let set = MetricSet::per_layer();
        assert_eq!(set.iter().count(), per_layer().len());
        assert!(set.iter().all(|(_, v, _)| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_names_are_rejected() {
        MetricSet::per_layer().set("flowtable.opz", 1.0);
    }
}
