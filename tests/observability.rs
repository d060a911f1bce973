//! End-to-end tests of the structured event tracing layer: determinism of
//! the JSONL export across worker counts and runs (a golden file pins the
//! exact byte stream), and the Perfetto timeline's linked flow-setup spans.

use sdn_buffer_lab::core::{observe, NullSink, RateSweep};
use sdn_buffer_lab::prelude::*;

/// A scaled-down Section IV cell: one buffer mechanism, one rate, the
/// single-packet-flow workload the benefit analysis uses. Small enough to
/// keep the golden file reviewable, rich enough to exercise every layer.
fn section_iv_cell(repetitions: usize, n_flows: usize) -> RateSweep {
    RateSweep {
        rates_mbps: vec![100],
        buffers: vec![BufferMode::PacketGranularity { capacity: 16 }],
        workload: WorkloadKind::single_packet_flows(n_flows),
        ..RateSweep::paper_section_iv(repetitions)
    }
}

fn sweep_jsonl(sweep: &RateSweep, parallelism: Parallelism) -> Vec<u8> {
    let (_, runs) = sweep.run_traced_with(parallelism, &NullSink);
    let mut out = Vec::new();
    let lines = observe::export_sweep_jsonl(&runs, &mut out).unwrap();
    assert!(lines > 0, "a traced sweep must produce events");
    out
}

/// The sweep's merged JSONL stream is a pure function of the sweep spec:
/// byte-identical whether cells run serially or on 2 or 8 workers, and
/// across repeated same-seed runs.
#[test]
fn sweep_jsonl_is_identical_across_worker_counts_and_runs() {
    let sweep = section_iv_cell(3, 40);
    let serial = sweep_jsonl(&sweep, Parallelism::Serial);
    let serial_again = sweep_jsonl(&sweep, Parallelism::Serial);
    let two = sweep_jsonl(&sweep, Parallelism::Fixed(2));
    let eight = sweep_jsonl(&sweep, Parallelism::Fixed(8));
    assert_eq!(serial, serial_again, "same-seed reruns must match");
    assert_eq!(serial, two, "serial vs 2 workers must match byte-for-byte");
    assert_eq!(
        serial, eight,
        "serial vs 8 workers must match byte-for-byte"
    );
}

/// The byte-identity guarantee holds under an active fault plan: fault
/// randomness is drawn from each run's own plan-seeded RNG, never from
/// shared or thread-local state, so injected loss, jitter, duplication,
/// reordering, stalls and flaps replay identically at any worker count.
#[test]
fn sweep_jsonl_is_identical_across_worker_counts_under_faults() {
    let mut plan = FaultPlan {
        seed: 9,
        ..FaultPlan::default()
    };
    plan.to_controller.loss = LossModel::Probabilistic(0.1);
    plan.to_controller.jitter = Nanos::from_micros(800);
    plan.to_controller.duplicate = 0.1;
    plan.to_switch.loss = LossModel::Probabilistic(0.05);
    plan.to_switch.reorder = 0.2;
    plan.to_switch.reorder_by = Nanos::from_micros(500);
    plan.stalls = vec![Window::new(Nanos::from_millis(52), Nanos::from_millis(55))];

    let mut sweep = RateSweep {
        rates_mbps: vec![60],
        buffers: vec![
            BufferMode::PacketGranularity { capacity: 64 },
            BufferMode::FlowGranularity {
                capacity: 64,
                timeout: Nanos::from_millis(20),
            },
        ],
        workload: WorkloadKind::CrossSequenced {
            n_flows: 6,
            packets_per_flow: 4,
            group_size: 2,
        },
        base_seed: 7,
        ..RateSweep::paper_section_iv(2)
    };
    sweep.testbed.faults = plan;

    let serial = sweep_jsonl(&sweep, Parallelism::Serial);
    let four = sweep_jsonl(&sweep, Parallelism::Fixed(4));
    assert_eq!(
        serial, four,
        "faulted serial vs 4 workers must match byte-for-byte"
    );
    let text = String::from_utf8(serial).unwrap();
    assert!(
        text.lines().any(|l| l.contains(r#""kind":"ctrl_drop""#)),
        "the fault plan must actually drop something in this sweep"
    );
}

/// Pins the exact JSONL byte stream of a tiny Section IV cell so that
/// accidental changes to event emission order, field order, or encoding are
/// caught in review. Regenerate with `UPDATE_GOLDEN=1 cargo test`.
#[test]
fn sweep_jsonl_matches_golden_file() {
    let sweep = section_iv_cell(1, 4);
    let jsonl = sweep_jsonl(&sweep, Parallelism::Serial);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/section_iv_cell.jsonl"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &jsonl).unwrap();
    }
    let golden = std::fs::read(path).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&jsonl),
        String::from_utf8_lossy(&golden),
        "JSONL drifted from the golden file; if intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test --test observability"
    );
}

/// Every line of the export is a self-contained object carrying the run
/// stamp, so a merged sweep stream can be filtered by cell after the fact.
#[test]
fn every_jsonl_line_is_stamped_with_its_run() {
    let sweep = section_iv_cell(2, 4);
    let jsonl = sweep_jsonl(&sweep, Parallelism::Serial);
    let text = String::from_utf8(jsonl).unwrap();
    let mut reps_seen = [false; 2];
    for line in text.lines() {
        assert!(line.starts_with(r#"{"run":{"mode":"#), "line: {line}");
        assert!(line.ends_with('}'), "line: {line}");
        assert!(line.contains(r#""rate_mbps":100"#), "line: {line}");
        for (rep, seen) in reps_seen.iter_mut().enumerate() {
            if line.contains(&format!(r#""rep":{rep}}}"#)) {
                *seen = true;
            }
        }
    }
    assert!(reps_seen.iter().all(|&s| s), "both repetitions must export");
}

/// The ISSUE's acceptance criterion: a Section V run exports a
/// Perfetto-loadable timeline in which a flow's `packet_in` → `flow_mod` →
/// `packet_out` → buffer drain appear as linked spans (Chrome trace flow
/// events `s`/`t`/`f` sharing one id).
#[test]
fn section_v_timeline_links_flow_setup_spans() {
    let (run, events) = Experiment::new(ExperimentConfig {
        buffer: BufferMode::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(50),
        },
        workload: WorkloadKind::paper_section_v(),
        sending_rate: BitRate::from_mbps(100),
        seed: 1,
        ..ExperimentConfig::default()
    })
    .run_traced();
    assert!(run.flows_completed > 0);

    let mut out = Vec::new();
    observe::export_run_timeline("flow-granularity-256", 100, events, &mut out).unwrap();
    let json = String::from_utf8(out).unwrap();

    // Perfetto-loadable JSON object shape.
    assert!(json.starts_with("{\"traceEvents\":[\n"));
    assert!(json.trim_end().ends_with("}"));
    assert!(json.contains(r#""displayTimeUnit":"ms""#));

    // The named spans of one flow-setup transaction, on their tracks.
    for needle in [
        r#""name":"packet_in","#,
        r#""name":"flow_mod","#,
        r#""name":"packet_out","#,
        r#""name":"buffer_drain","#,
        r#""name":"install_rule","#,
        r#""name":"handle xid"#,
    ] {
        assert!(json.contains(needle), "timeline missing {needle}");
    }

    // Linked flow events: some id must start (`s`), step (`t`), and finish
    // (`f`) — the chain Perfetto draws arrows along.
    let ids_with = |ph: &str| -> Vec<&str> {
        // The finish variant carries `"bp":"e"` between `ph` and `id`.
        let marker = if ph == "f" {
            format!(r#""cat":"flow-setup","ph":"{ph}","bp":"e","id":"#)
        } else {
            format!(r#""cat":"flow-setup","ph":"{ph}","id":"#)
        };
        json.match_indices(&marker)
            .map(|(i, m)| {
                let rest = &json[i + m.len()..];
                &rest[..rest.find(',').unwrap()]
            })
            .collect()
    };
    let starts = ids_with("s");
    let steps = ids_with("t");
    let finishes = ids_with("f");
    assert!(!starts.is_empty(), "no flow-setup start events");
    let linked = starts
        .iter()
        .any(|id| steps.contains(id) && finishes.contains(id));
    assert!(
        linked,
        "no flow id is linked across start/step/finish spans"
    );
    // Finishing edges bind to the enclosing slice so the arrow lands on
    // the drain instant.
    assert!(json.contains(r#""ph":"f","bp":"e""#));
}
