//! Quickstart: assemble the paper's testbed, fire 1000 single-packet flows
//! at it, and print what the measurement taps saw.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sdn_buffer_lab::prelude::*;

fn main() {
    // The Fig. 1 testbed with the OpenFlow default buffer (256 units) —
    // one line per knob you would turn on the real platform.
    let mut experiment = Experiment::new(ExperimentConfig {
        buffer: BufferMode::PacketGranularity { capacity: 256 },
        workload: WorkloadKind::paper_section_iv(), // 1000 single-packet flows
        sending_rate: BitRate::from_mbps(50),
        seed: 1,
        ..ExperimentConfig::default()
    });
    let run = experiment.run();

    println!("mechanism            : {}", run.label);
    println!("sending rate         : {} Mbps", run.sending_rate_mbps);
    println!("active span          : {}", run.active_span);
    println!();
    println!("packets sent         : {}", run.packets_sent);
    println!("packets delivered    : {}", run.packets_delivered);
    println!(
        "flows completed      : {}/{}",
        run.flows_completed, run.flows_total
    );
    println!();
    println!(
        "control path load    : {:.2} Mbps to controller, {:.2} Mbps back",
        run.ctrl_load_to_controller_mbps, run.ctrl_load_to_switch_mbps
    );
    println!(
        "control messages     : {} packet_in, {} flow_mod, {} packet_out",
        run.pkt_in_count, run.flow_mod_count, run.pkt_out_count
    );
    println!(
        "CPU usage            : controller {:.1}%, switch {:.1}%",
        run.controller_cpu_percent, run.switch_cpu_percent
    );
    println!();
    println!("flow setup delay     : {}", run.flow_setup_delay);
    println!("controller delay     : {}", run.controller_delay);
    println!("switch delay         : {}", run.switch_delay);
    println!(
        "buffer utilization   : mean {:.1} units, peak {} units",
        run.buffer_mean_occupancy, run.buffer_peak_occupancy
    );

    // The same comparison the paper makes, as a small sweep: the Section IV
    // preset with a smaller grid, run, and read back by key.
    let sweep = RateSweep {
        rates_mbps: vec![20, 50, 80],
        buffers: vec![
            BufferMode::NoBuffer,
            BufferMode::PacketGranularity { capacity: 256 },
        ],
        workload: WorkloadKind::single_packet_flows(200),
        ..RateSweep::paper_section_iv(2)
    };
    let result = sweep.run();
    println!();
    println!("rate   no-buffer   buffer-256   (flow setup delay, ms)");
    for &rate in &sweep.rates_mbps {
        let at = |mode| {
            result
                .mean(&CellKey::new(mode, rate), Metric::FlowSetupDelay)
                .expect("swept above")
        };
        println!(
            "{rate:>4}   {:>9.3}   {:>10.3}",
            at(BufferMode::NoBuffer),
            at(BufferMode::PacketGranularity { capacity: 256 }),
        );
    }
}
