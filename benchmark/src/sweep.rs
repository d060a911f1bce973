//! `--sweep flows`: one knob varied, the metric and the resources it
//! consumed reported per point, so the knee is on record.
//!
//! The knob is the number of single-packet flows offered to the
//! `buffer-256 @ 50 Mbps` cell; the knee is where the rule set stops
//! fitting the 4 096-rule flow table.

use crate::stats;
use crate::tape::run_traced;
use crate::workloads::Cell;
use sdnbuf_core::{BufferMode, Testbed, WorkloadKind};
use sdnbuf_metrics::Table;
use std::hint::black_box;
use std::time::Instant;

/// Flow counts of the sweep.
pub const FLOWS: [usize; 6] = [1_000, 2_000, 4_000, 8_000, 16_000, 32_000];
/// Timed runs per point.
const RUNS: usize = 7;

/// One point of the sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Flows (= packets) offered.
    pub flows: usize,
    /// Host nanoseconds per packet, fastest run.
    pub ns_per_packet: f64,
    /// Most rules the flow table held.
    pub peak_rules: u64,
    /// Heap high-water mark of one run over its start.
    pub peak_live_bytes: i64,
    /// Events per packet.
    pub events_per_packet: f64,
}

/// Measures one point.
pub fn point(flows: usize, seed: u64, runs: usize) -> Point {
    let cell = Cell::new(
        BufferMode::PacketGranularity { capacity: 256 },
        50,
        WorkloadKind::single_packet_flows(flows),
        seed,
    );
    let run = || Testbed::new(cell.config.clone()).run(&cell.departures);
    black_box(run());
    let walls: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(run());
            start.elapsed().as_secs_f64()
        })
        .collect();
    let (result, counted) = crate::GLOBAL.count(run);
    let traced = run_traced(&cell);
    Point {
        flows,
        ns_per_packet: stats::fastest(&walls) * 1e9 / flows as f64,
        peak_rules: traced.counts.peak_rules,
        peak_live_bytes: counted.peak,
        events_per_packet: result.events_dispatched as f64 / flows as f64,
    }
}

/// Runs the sweep and prints its table.
pub fn run(seed: u64) {
    let mut table = Table::new(vec![
        "flows",
        "ns_per_packet",
        "vs previous",
        "flowtable.peak_rules",
        "peak_live_bytes",
        "bytes/flow",
        "events/packet",
    ]);
    let mut previous: Option<Point> = None;
    for flows in FLOWS {
        eprintln!("sweep: {flows} flows ...");
        let p = point(flows, seed, RUNS);
        table.row(vec![
            p.flows.to_string(),
            format!("{:.1}", p.ns_per_packet),
            previous.map_or("-".to_owned(), |q| {
                format!("x{:.2}", p.ns_per_packet / q.ns_per_packet)
            }),
            p.peak_rules.to_string(),
            p.peak_live_bytes.to_string(),
            format!("{:.0}", p.peak_live_bytes as f64 / flows as f64),
            format!("{:.2}", p.events_per_packet),
        ]);
        previous = Some(p);
    }
    println!("flows sweep, buffer-256 @ 50 Mbps, seed {seed}, fastest of {RUNS} runs per point");
    println!("{table}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_point_reports_the_metric_and_the_resources_it_used() {
        let _armed = crate::alloc_test_lock();
        let p = point(300, 1, 2);
        assert_eq!(p.flows, 300);
        assert!(p.ns_per_packet > 0.0);
        assert_eq!(p.peak_rules, 300, "every flow installs a rule; all fit");
        assert!(
            p.peak_live_bytes > 300 * 1000,
            "at least the frames are live"
        );
        assert!(p.events_per_packet > 5.0);
    }
}
