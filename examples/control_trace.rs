//! Watch the control channel: a readable trace of every OpenFlow message
//! exchanged while three flows set up — handshake, vendor negotiation,
//! `packet_in`/`flow_mod`/`packet_out` transactions — rendered from the
//! structured event stream (`ctrl_msg`, `packet_in_sent`, `buffer_drain`).
//!
//! ```sh
//! cargo run --release --example control_trace
//! ```

use sdn_buffer_lab::core::{ChannelDir, Testbed, TestbedConfig, WorkloadKind};
use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::workload::PktgenConfig;

fn main() {
    let mut testbed = Testbed::new(TestbedConfig::with_buffer(BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(50),
    }));
    let (tracer, sink) = Tracer::recording(0);
    testbed.set_tracer(tracer);

    let departures = WorkloadKind::CrossSequenced {
        n_flows: 3,
        packets_per_flow: 4,
        group_size: 3,
    }
    .generate(
        &PktgenConfig {
            rate: BitRate::from_mbps(90),
            ..PktgenConfig::default()
        },
        1,
    );
    let run = testbed.run(&departures);

    println!("Control channel, 3 flows x 4 packets (flow-granularity buffer):");
    println!();
    // Components stamp events with their near future, so the stream is in
    // call order; a stable sort puts it in time order.
    let mut events = sink.borrow().events().to_vec();
    events.sort_by_key(|event| event.at);
    for event in events {
        let at = event.at.to_string();
        match event.kind {
            EventKind::CtrlMsg {
                dir,
                xid,
                bytes,
                label,
                arrive,
            } => {
                let dir = match dir {
                    ChannelDir::ToController => "sw->ctrl",
                    ChannelDir::ToSwitch => "ctrl->sw",
                };
                println!("{at:>12}  {dir}  xid={xid:<10} {bytes:>5}B  {label} (arrives {arrive})");
            }
            EventKind::PacketInSent {
                xid,
                buffer_id,
                bytes,
            } => println!("{at:>12}  switch    xid={xid:<10} packet_in_sent buf#{buffer_id:x} carrying {bytes}B"),
            EventKind::BufferDrain {
                xid,
                buffer_id,
                released,
                occupancy,
            } => println!(
                "{at:>12}  switch    xid={xid:<10} buffer_drain buf#{buffer_id:x}: {released} released, {occupancy} left"
            ),
            _ => {}
        }
    }
    println!();
    println!(
        "{} packet_ins for 3 flows, {} packets delivered — one request per flow,",
        run.pkt_in_count, run.packets_delivered
    );
    println!("plus the session handshake and the vendor-extension negotiation.");
}
