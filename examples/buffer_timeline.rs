//! Looking *inside* a run: how buffer occupancy evolves over time under
//! each mechanism, rendered as sparklines — the dynamics behind the
//! paper's Fig. 13 averages. The timeline is the run's event stream,
//! sampled per window (`observe::sample_series`).
//!
//! ```sh
//! cargo run --release --example buffer_timeline
//! ```

use sdn_buffer_lab::core::observe;
use sdn_buffer_lab::prelude::*;

fn main() {
    println!("Buffer occupancy over time, 50 flows x 20 packets at 90 Mbps:");
    println!();
    for buffer in [
        BufferMode::PacketGranularity { capacity: 256 },
        BufferMode::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(50),
        },
    ] {
        let (run, events) = Experiment::new(ExperimentConfig {
            buffer,
            workload: WorkloadKind::paper_section_v(), // 50 flows x 20 packets
            sending_rate: BitRate::from_mbps(90),
            seed: 1,
            ..ExperimentConfig::default()
        })
        .run_traced();
        let samples = observe::sample_series(&events, Nanos::from_micros(500));
        println!(
            "{:<18} peak {:>3} units  {}",
            run.label,
            run.buffer_peak_occupancy,
            observe::sparkline(&samples, |s| s.occupancy as f64, 64)
        );
    }
    println!();
    println!("Packet granularity hoards units (each awaits its own packet_out and");
    println!("OVS reclaims lazily); the flow-granularity mechanism drains a whole");
    println!("flow per packet_out, so its occupancy stays near zero — the 71.6%");
    println!("utilization-efficiency gain of the paper's Section V.B.5.");
}
