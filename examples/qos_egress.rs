//! The paper's future work, built: "we can design egress scheduling
//! mechanisms combining with the ingress buffer mechanism … to provide QoS
//! guarantee for different applications."
//!
//! Two traffic classes share the switch's 100 Mbps egress port: a
//! latency-sensitive EF trickle (ToS 0xb8) and a best-effort flood that
//! oversubscribes the port. Proactive rules classify by ToS into OpenFlow
//! `ENQUEUE` actions; the egress is either one FIFO queue or an HTB-style
//! 20/80 Mbps partition.
//!
//! ```sh
//! cargo run --release --example qos_egress
//! ```

use sdn_buffer_lab::core::{QueueConfig, Testbed, TestbedConfig};
use sdn_buffer_lab::metrics::Summary;
use sdn_buffer_lab::net::PacketBuilder;
use sdn_buffer_lab::openflow::{
    msg::{FlowMod, FlowModCommand},
    Action, BufferId, Match, OfpMessage, PortNo, Wildcards,
};
use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::workload::Departure;

const TOS_EF: u8 = 0xb8; // DSCP EF

/// EF trickle + oversubscribing best-effort flood, as explicit departures.
fn workload() -> Vec<Departure> {
    let mut deps = Vec::new();
    // Best effort: 1000-byte frames at ~104 Mbps for 50 ms (oversubscribes
    // the 100 Mbps port).
    let be_gap = Nanos::from_nanos(77_000);
    let mut t = Nanos::ZERO;
    for seq in 0..650usize {
        let mut p = PacketBuilder::udp()
            .src_port(2000)
            .dst_port(9)
            .frame_size(1000)
            .build();
        if let sdn_buffer_lab::net::Payload::Ipv4(ip) = &mut p.payload {
            ip.header.identification = seq as u16;
        }
        deps.push(Departure {
            at: t,
            packet: p,
            flow_index: 1,
            seq_in_flow: seq,
        });
        t += be_gap;
    }
    // EF: small frames every 400 us (~4 Mbps).
    let mut t = Nanos::from_micros(13);
    for seq in 0..125usize {
        let mut p = PacketBuilder::udp()
            .src_port(1000)
            .dst_port(5060)
            .tos(TOS_EF)
            .frame_size(200)
            .build();
        if let sdn_buffer_lab::net::Payload::Ipv4(ip) = &mut p.payload {
            ip.header.identification = seq as u16;
        }
        deps.push(Departure {
            at: t,
            packet: p,
            flow_index: 0,
            seq_in_flow: seq,
        });
        t += Nanos::from_micros(400);
    }
    deps.sort_by_key(|d| d.at);
    deps
}

/// Proactive classification rules: EF by ToS into queue 0, everything else
/// into queue 1. Installed before traffic starts, like a QoS policy.
fn install_rules(testbed: &mut Testbed) {
    let mut ef_match = Match::any();
    ef_match.wildcards = ef_match.wildcards.without(Wildcards::NW_TOS);
    ef_match.nw_tos = TOS_EF;
    let flow_mod = |m: Match, priority: u16, queue_id: u32| {
        OfpMessage::FlowMod(FlowMod {
            match_fields: m,
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority,
            buffer_id: BufferId::NO_BUFFER,
            out_port: PortNo::NONE,
            flags: 0,
            actions: vec![Action::Enqueue {
                port: PortNo(2),
                queue_id,
            }]
            .into(),
        })
    };
    testbed.inject_controller_msg(Nanos::ZERO, flow_mod(ef_match, 200, 0), 1);
    testbed.inject_controller_msg(Nanos::ZERO, flow_mod(Match::any(), 10, 1), 2);
}

struct ClassReport {
    delivered: usize,
    total: usize,
    latency: Summary,
}

fn run(egress_queues: Vec<QueueConfig>) -> [ClassReport; 2] {
    let mut config = TestbedConfig::default();
    // Hosts feed the switch at 1 Gbps so the contended resource is the
    // egress port, not the ingress NIC.
    config.data_link.bandwidth = BitRate::from_gbps(1);
    config.egress_queues = Some(egress_queues);
    let mut testbed = Testbed::new(config);
    install_rules(&mut testbed);
    testbed.keep_packet_log();
    testbed.run(&workload());

    let log = testbed.packet_log();
    [0usize, 1].map(|class| {
        let mut latencies = Vec::new();
        let mut delivered = 0;
        let mut total = 0;
        for trace in log.iter().filter(|t| t.flow_index == class) {
            total += 1;
            if let (Some(enter), Some(done)) = (trace.entered_switch, trace.delivered) {
                delivered += 1;
                latencies.push(done.saturating_sub(enter).as_millis_f64());
            }
        }
        ClassReport {
            delivered,
            total,
            latency: Summary::of(&latencies),
        }
    })
}

fn main() {
    println!("EF trickle (~4 Mbps, ToS 0xb8) + best-effort flood (~104 Mbps)");
    println!("sharing a 100 Mbps egress port.\n");

    let fifo = run(vec![QueueConfig {
        rate: BitRate::from_mbps(100),
        queue_capacity_bytes: 256 * 1024,
    }]);
    let qos = run(vec![
        QueueConfig {
            rate: BitRate::from_mbps(20), // EF reservation
            queue_capacity_bytes: 64 * 1024,
        },
        QueueConfig {
            rate: BitRate::from_mbps(80), // best effort
            queue_capacity_bytes: 256 * 1024,
        },
    ]);

    for (name, report) in [("single FIFO queue", &fifo), ("20/80 HTB partition", &qos)] {
        println!("--- {name} ---");
        for (class, r) in ["EF", "BE"].iter().zip(report.iter()) {
            println!(
                "  {class}: {:>3}/{:<3} delivered, latency mean {:.3} ms, p95 {:.3} ms, max {:.3} ms",
                r.delivered, r.total, r.latency.mean, r.latency.p95, r.latency.max
            );
        }
        println!();
    }
    let improvement = fifo[0].latency.p95 / qos[0].latency.p95.max(1e-9);
    println!("EF p95 latency improves {improvement:.1}x with the egress partition, while");
    println!("the oversubscribed best-effort class keeps its share of the port.");
}
