//! End-to-end checks of the experiment-orchestration API through the
//! facade crate: paper presets, typed metrics, keyed lookup, and the executor's
//! determinism and progress guarantees.

use sdn_buffer_lab::core::NullSink;
use sdn_buffer_lab::prelude::*;
use std::sync::Mutex;

fn small_sweep() -> RateSweep {
    RateSweep {
        rates_mbps: vec![20, 60],
        buffers: vec![
            BufferMode::NoBuffer,
            BufferMode::PacketGranularity { capacity: 256 },
        ],
        workload: WorkloadKind::single_packet_flows(40),
        ..RateSweep::paper_section_iv(3)
    }
}

#[test]
fn parallel_sweep_matches_serial_byte_for_byte() {
    let sweep = small_sweep();
    let serial = sweep.run_with(Parallelism::Serial, &NullSink);
    let parallel = sweep.run_with(Parallelism::Fixed(4), &NullSink);
    assert_eq!(serial, parallel);
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

#[test]
fn progress_reaches_total_and_stays_monotonic() {
    let sweep = small_sweep();
    let dones = Mutex::new(Vec::new());
    let sink = |p: &sdn_buffer_lab::core::Progress| dones.lock().unwrap().push((p.done, p.total));
    sweep.run_with(Parallelism::Fixed(3), &sink);
    let dones = dones.into_inner().unwrap();
    assert_eq!(dones.len(), 12); // 2 buffers x 2 rates x 3 reps
    assert!(dones.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(*dones.last().unwrap(), (12, 12));
}

#[test]
fn keyed_lookup_and_metrics_agree_with_fields() {
    let result = small_sweep().run();
    let key = CellKey::new(BufferMode::NoBuffer, 20);
    let cell = result.cell_at(&key).expect("cell exists");
    assert_eq!(cell.label, "no-buffer");
    let mean = result.mean(&key, Metric::PktInCount).expect("cell exists");
    let by_hand: f64 =
        cell.runs.iter().map(|r| r.pkt_in_count as f64).sum::<f64>() / cell.runs.len() as f64;
    assert_eq!(mean, by_hand);
    // Absent cells are None, not a silent 0.0.
    let bogus = CellKey::new(BufferMode::PacketGranularity { capacity: 7 }, 20);
    assert_eq!(result.mean(&bogus, Metric::PktInCount), None);
}

#[test]
fn presets_produce_the_paper_grids() {
    let iv = RateSweep::paper_section_iv(1);
    assert_eq!(iv.rates_mbps, RateSweep::paper_rates());
    assert_eq!(iv.buffers.len(), 3);
    assert_eq!(iv.workload, WorkloadKind::paper_section_iv());
    let v = RateSweep::paper_section_v(1);
    assert_eq!(v.rates_mbps, RateSweep::paper_rates());
    assert_eq!(v.buffers.len(), 2);
    assert_eq!(v.workload, WorkloadKind::paper_section_v());
    // The two grids differ in what they compare, not in how they run.
    assert_eq!((iv.repetitions, iv.base_seed, iv.frame_size), (1, 42, 1000));
    assert_eq!((v.repetitions, v.base_seed, v.frame_size), (1, 42, 1000));
}
