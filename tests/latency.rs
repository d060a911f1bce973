//! End-to-end tests of the latency-anatomy layer: the span builder's
//! telescoping guarantee over real traced runs, byte-identity of the
//! per-cell latency reports across worker counts, and the flight
//! recorder's replay-to-the-same-violation contract.

use sdn_buffer_lab::core::chaos::{self, Sabotage};
use sdn_buffer_lab::core::spans::{self, LatencyReport, SpanOutcome};
use sdn_buffer_lab::core::{NullSink, RateSweep};
use sdn_buffer_lab::prelude::*;

/// The same scaled-down Section IV cell the observability tests pin: one
/// packet-granularity mechanism at 100 Mbps over single-packet flows.
fn section_iv_cell(repetitions: usize, n_flows: usize) -> RateSweep {
    RateSweep {
        rates_mbps: vec![100],
        buffers: vec![BufferMode::PacketGranularity { capacity: 16 }],
        workload: WorkloadKind::single_packet_flows(n_flows),
        ..RateSweep::paper_section_iv(repetitions)
    }
}

/// The acceptance criterion for the report: on a real traced run, every
/// completed span's nine critical-path phase durations sum *exactly* to
/// its end-to-end flow-setup delay — the decomposition is a partition of
/// the total, not an approximation.
#[test]
fn phase_durations_telescope_to_end_to_end_delay() {
    for (buffer, workload) in [
        (
            BufferMode::PacketGranularity { capacity: 16 },
            WorkloadKind::single_packet_flows(200),
        ),
        (
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(50),
            },
            WorkloadKind::paper_section_v(),
        ),
        (BufferMode::NoBuffer, WorkloadKind::single_packet_flows(200)),
    ] {
        let label = format!("{buffer:?}");
        let (run, events) = Experiment::new(ExperimentConfig {
            buffer,
            workload,
            sending_rate: BitRate::from_mbps(100),
            seed: 7,
            ..ExperimentConfig::default()
        })
        .run_traced();
        assert!(run.flows_completed > 0, "{label}: no flows completed");

        let spans = spans::build_spans(&events);
        let completed: Vec<_> = spans
            .iter()
            .filter(|s| s.outcome == SpanOutcome::Completed)
            .collect();
        assert!(
            completed.len() >= run.flows_completed,
            "{label}: {} completed spans for {} completed flows",
            completed.len(),
            run.flows_completed,
        );
        for span in completed {
            let total = span.total().expect("completed span has a total");
            let phases = span.phases().expect("completed span decomposes");
            let sum: u64 = phases.iter().map(|(_, d)| d.as_nanos()).sum();
            assert_eq!(
                sum,
                total.as_nanos(),
                "{label}: phase sum {} != span total {} ({:?})",
                sum,
                total.as_nanos(),
                phases,
            );
        }
    }
}

/// The report layer is strictly post-hoc: a traced run under the layer
/// produces the same events as one without it, and the per-cell latency
/// JSON is byte-identical whether the sweep ran serially or on 2 or 8
/// workers of the deterministic executor.
#[test]
fn latency_reports_are_identical_across_worker_counts() {
    let sweep = section_iv_cell(3, 40);
    let render = |parallelism: Parallelism| -> String {
        let (_, runs) = sweep.run_traced_with(parallelism, &NullSink);
        let mut out = String::new();
        for (label, rate, report) in spans::latency_by_cell(&runs) {
            out.push_str(&format!("{label}@{rate}:"));
            report.write_json(&mut out);
            out.push('\n');
        }
        out
    };
    let serial = render(Parallelism::Serial);
    let two = render(Parallelism::Fixed(2));
    let eight = render(Parallelism::Fixed(8));
    assert!(
        serial.contains(r#""schema":"latency/v1""#),
        "report JSON must carry its schema tag"
    );
    assert_eq!(serial, two, "serial vs 2 workers must match byte-for-byte");
    assert_eq!(
        serial, eight,
        "serial vs 8 workers must match byte-for-byte"
    );
}

/// Aggregating one report over a whole cell equals merging the per-run
/// reports — the histogram merge is exact, so sweep workers can fold
/// their own cells and the reduction is order-independent within a cell's
/// grid order.
#[test]
fn cell_report_equals_merged_run_reports() {
    let sweep = section_iv_cell(3, 25);
    let (_, runs) = sweep.run_traced_with(Parallelism::Serial, &NullSink);
    let cells = spans::latency_by_cell(&runs);
    assert_eq!(cells.len(), 1, "one mechanism at one rate is one cell");

    let mut merged = LatencyReport::default();
    for run in &runs {
        let mut one = LatencyReport::default();
        one.absorb(&run.events);
        merged.merge(&one);
    }
    let mut a = String::new();
    cells[0].2.write_json(&mut a);
    let mut b = String::new();
    merged.write_json(&mut b);
    assert_eq!(a, b, "cell aggregation must equal pairwise merge");
}

/// Pinned pipeline over the Section IV cell (packet granularity 16, 400
/// single-packet flows, 100 Mbps, seed 42): a traced run, the span
/// builder's fold over the whole stream, and the report rendered to JSON.
/// The check value includes the rendered document's length, so it pins the
/// JSON writer along with the spans.
#[test]
fn pinned_latency_anatomy_of_the_section_iv_cell() {
    let (result, events) = Experiment::new(ExperimentConfig {
        buffer: BufferMode::PacketGranularity { capacity: 16 },
        workload: WorkloadKind::single_packet_flows(400),
        sending_rate: BitRate::from_mbps(100),
        seed: 42,
        ..ExperimentConfig::default()
    })
    .run_traced();
    let report = LatencyReport::from_events(&events);
    let mut json = String::new();
    report.write_json(&mut json);
    assert_eq!(
        result.packets_delivered + report.completed + json.len() as u64,
        6530
    );
    assert_eq!(result.events_dispatched, 4430);
}

/// The flight recorder's contract: the dump a violating chaos scenario
/// ships embeds a replay spec that re-runs to the *same* digest and the
/// *same* violations. Uses the `--broken` sabotage (dead re-request loop)
/// to manufacture a violation deterministically.
#[test]
fn flight_dump_replays_to_the_same_violation() {
    let sabotage = Sabotage::no_rerequest();
    let mech = BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(20),
    };
    let caught = (0..50).find_map(|seed| {
        let scenario = RunSpec::generate(seed, mech);
        let report = chaos::run_scenario(&scenario, sabotage);
        (!report.violations.is_empty()).then_some(scenario)
    });
    let scenario = caught.expect("50 sabotaged scenarios must trip at least one invariant");

    let min = chaos::minimize(&scenario, sabotage);
    let dump = chaos::flight_dump(&min, sabotage);
    assert!(
        !dump.violations.is_empty(),
        "a minimized violating scenario must dump with violations"
    );
    assert!(!dump.tail.is_empty(), "the dump must carry an event tail");

    let replayed: RunSpec = dump.spec.parse().expect("embedded spec must parse");
    let report = chaos::run_scenario(&replayed, sabotage);
    assert_eq!(
        report.digest, dump.digest,
        "replaying the embedded spec must reproduce the dumped digest"
    );
    let dumped: Vec<&str> = dump.violations.iter().map(|v| v.invariant).collect();
    let replayed: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
    assert_eq!(
        dumped, replayed,
        "replaying the embedded spec must reproduce the dumped violations"
    );
}
