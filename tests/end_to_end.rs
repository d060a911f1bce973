//! End-to-end integration tests of the whole testbed: packet conservation,
//! mechanism semantics, determinism, and the Section VI TCP scenario.

use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::{core::WorkloadKind as WK, workload};

mod common;
use common::{all_mechanisms, experiment};

#[test]
fn every_mechanism_delivers_every_packet_single_flow_workload() {
    for buffer in all_mechanisms() {
        for rate in [10u64, 50, 100] {
            let r = experiment(buffer, WK::single_packet_flows(200), rate, 7);
            assert_eq!(
                r.packets_delivered, 200,
                "{} at {rate} Mbps lost packets: {r:?}",
                r.label
            );
            assert_eq!(r.flows_completed, 200);
            assert_eq!(r.packets_dropped, 0);
            assert_eq!(r.ctrl_drops, 0);
        }
    }
}

#[test]
fn every_mechanism_delivers_every_packet_multi_packet_flows() {
    for buffer in all_mechanisms() {
        for rate in [20u64, 100] {
            let r = experiment(buffer, WK::paper_section_v(), rate, 3);
            assert_eq!(r.packets_sent, 1000);
            assert_eq!(
                r.packets_delivered, 1000,
                "{} at {rate} Mbps: {:?}",
                r.label, r
            );
            assert_eq!(r.flows_completed, 50);
        }
    }
}

#[test]
fn flow_granularity_sends_one_request_per_flow_with_instant_installs() {
    // With an instantaneous rule-install pipeline the flow_mod takes effect
    // before the packet_out drains the buffer, so Algorithm 1 sends exactly
    // one packet_in per flow — the paper's headline property.
    let mut config = ExperimentConfig {
        buffer: BufferMode::FlowGranularity {
            capacity: 1024,
            timeout: Nanos::from_millis(50),
        },
        workload: WK::CrossSequenced {
            n_flows: 20,
            packets_per_flow: 20,
            group_size: 5,
        },
        sending_rate: BitRate::from_mbps(100),
        seed: 1,
        ..ExperimentConfig::default()
    };
    config.testbed.switch.cost_rule_install = Nanos::ZERO;
    let r = Experiment::new(config).run();
    assert_eq!(r.pkt_in_count, 20, "one packet_in per flow, got {r:?}");
    assert_eq!(r.packets_delivered, 400);
}

#[test]
fn packet_granularity_sends_one_request_per_miss() {
    // Same workload, same instant installs: packet granularity still sends
    // one request per miss-match packet, which at 100 Mbps means several
    // per flow — the redundancy the proposed mechanism removes.
    let mut config = ExperimentConfig {
        buffer: BufferMode::PacketGranularity { capacity: 1024 },
        workload: WK::CrossSequenced {
            n_flows: 20,
            packets_per_flow: 20,
            group_size: 5,
        },
        sending_rate: BitRate::from_mbps(100),
        seed: 1,
        ..ExperimentConfig::default()
    };
    config.testbed.switch.cost_rule_install = Nanos::ZERO;
    let r = Experiment::new(config).run();
    assert!(
        r.pkt_in_count > 20,
        "expected multiple requests per flow, got {}",
        r.pkt_in_count
    );
    assert_eq!(r.packets_delivered, 400);
}

#[test]
fn buffered_mechanisms_shrink_request_messages() {
    let nb = experiment(BufferMode::NoBuffer, WK::single_packet_flows(100), 30, 5);
    let pg = experiment(
        BufferMode::PacketGranularity { capacity: 256 },
        WK::single_packet_flows(100),
        30,
        5,
    );
    // Same number of requests...
    assert_eq!(nb.pkt_in_count, pg.pkt_in_count);
    // ...but far fewer bytes: 146 vs 1018 per message plus responses.
    assert!(pg.ctrl_bytes_to_controller * 4 < nb.ctrl_bytes_to_controller);
    assert!(pg.ctrl_bytes_to_switch * 4 < nb.ctrl_bytes_to_switch);
}

#[test]
fn exhausted_buffer_falls_back_but_loses_nothing() {
    let r = experiment(
        BufferMode::PacketGranularity { capacity: 2 },
        WK::single_packet_flows(100),
        80,
        9,
    );
    assert!(r.buffer_fallbacks > 0, "tiny buffer must exhaust");
    assert_eq!(r.packets_delivered, 100);
}

#[test]
fn determinism_same_seed_same_result() {
    for buffer in all_mechanisms() {
        let a = experiment(buffer, WK::paper_section_v(), 70, 11);
        let b = experiment(buffer, WK::paper_section_v(), 70, 11);
        assert_eq!(a, b, "{} must be deterministic", a.label);
    }
}

#[test]
fn different_seeds_differ_slightly_but_conserve_packets() {
    let a = experiment(
        BufferMode::PacketGranularity { capacity: 256 },
        WK::single_packet_flows(100),
        50,
        1,
    );
    let b = experiment(
        BufferMode::PacketGranularity { capacity: 256 },
        WK::single_packet_flows(100),
        50,
        2,
    );
    // The departure jitter perturbs the run's span (per-flow delays are
    // deterministic at uncongested rates, as on an idle real testbed).
    assert_ne!(a.active_span, b.active_span, "jitter should perturb timing");
    assert_eq!(a.packets_delivered, b.packets_delivered);
}

#[test]
fn flow_granularity_recovers_lost_requests_via_timeout() {
    // Drop every 10th control message. The flow-granularity mechanism
    // re-requests after its timeout (Algorithm 1, lines 12-13), so every
    // packet is still delivered eventually.
    let mut config = ExperimentConfig {
        buffer: BufferMode::FlowGranularity {
            capacity: 1024,
            timeout: Nanos::from_millis(20),
        },
        workload: WK::paper_section_v(),
        sending_rate: BitRate::from_mbps(50),
        seed: 13,
        ..ExperimentConfig::default()
    };
    config.testbed.faults = FaultPlan::every_nth_loss(10);
    let r = Experiment::new(config).run();
    assert!(r.ctrl_drops > 0, "loss injection must fire");
    assert!(r.rerequests > 0, "timeout re-requests must fire");
    assert_eq!(
        r.packets_delivered, r.packets_sent,
        "re-requests must recover all packets: {r:?}"
    );
}

#[test]
fn packet_granularity_strands_buffered_packets_on_loss() {
    // The default mechanism has no re-request: a lost packet_in (or its
    // packet_out) strands the buffered packet forever.
    let mut config = ExperimentConfig {
        buffer: BufferMode::PacketGranularity { capacity: 1024 },
        workload: WK::paper_section_v(),
        sending_rate: BitRate::from_mbps(50),
        seed: 13,
        ..ExperimentConfig::default()
    };
    config.testbed.faults = FaultPlan::every_nth_loss(10);
    let r = Experiment::new(config).run();
    assert!(r.ctrl_drops > 0);
    assert!(
        r.packets_delivered < r.packets_sent,
        "without re-requests some buffered packets must be stranded"
    );
}

#[test]
fn tcp_eviction_scenario_buffers_the_resumed_burst() {
    // Section VI.B: the connection goes idle past the rule's 5 s idle
    // timeout; the resumed burst misses again and the buffer absorbs it.
    let workload = WK::TcpEviction {
        first_burst: 10,
        idle_gap: Nanos::from_secs(6),
        second_burst: 30,
    };
    let r = experiment(
        BufferMode::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(50),
        },
        workload,
        50,
        3,
    );
    assert_eq!(r.packets_sent, 42);
    assert_eq!(r.packets_delivered, 42, "{r:?}");
    // Two rule setups: one per burst (the rule expired in between).
    assert!(
        r.pkt_in_count >= 2,
        "resumed burst must re-request: {}",
        r.pkt_in_count
    );
    assert_eq!(r.flows_completed, 1);
}

#[test]
fn mixed_traffic_is_fully_delivered() {
    let workload = WK::MixedUdpTcp {
        n_udp_flows: 100,
        n_tcp: 5,
        segments_per_tcp: 10,
    };
    for buffer in all_mechanisms() {
        let r = experiment(buffer, workload, 60, 21);
        assert_eq!(
            r.packets_delivered, r.packets_sent,
            "{} lost packets on mixed traffic",
            r.label
        );
    }
}

#[test]
fn flow_setup_includes_controller_round_trip() {
    let r = experiment(
        BufferMode::PacketGranularity { capacity: 256 },
        WK::single_packet_flows(50),
        20,
        5,
    );
    assert_eq!(r.flow_setup_delay.n, 50);
    assert_eq!(r.controller_delay.n, 50);
    assert_eq!(r.switch_delay.n, 50);
    // setup = switch part + controller part (per definition in the paper).
    let reconstructed = r.switch_delay.mean + r.controller_delay.mean;
    assert!(
        (reconstructed - r.flow_setup_delay.mean).abs() < 0.05,
        "setup {} != switch {} + controller {}",
        r.flow_setup_delay.mean,
        r.switch_delay.mean,
        r.controller_delay.mean
    );
}

#[test]
fn workload_generators_feed_the_facade() {
    // The facade's re-exported workload API is usable directly.
    let cfg = workload::PktgenConfig::default();
    let deps = workload::single_packet_flows(&cfg, 10, 1);
    assert_eq!(deps.len(), 10);
    assert!(workload::is_time_ordered(&deps));
}

#[test]
fn controller_probes_generate_background_traffic() {
    let mut config = ExperimentConfig {
        buffer: BufferMode::PacketGranularity { capacity: 256 },
        workload: WK::single_packet_flows(50),
        sending_rate: BitRate::from_mbps(20),
        seed: 4,
        ..ExperimentConfig::default()
    };
    config.testbed.keepalive_interval = Some(Nanos::from_millis(5));
    let with_probes = Experiment::new(config.clone()).run();
    config.testbed.keepalive_interval = None;
    let without = Experiment::new(config).run();
    // Keepalives add control-channel bytes in both directions, and
    // everything still works.
    assert!(with_probes.ctrl_bytes_to_switch > without.ctrl_bytes_to_switch);
    assert!(with_probes.ctrl_bytes_to_controller > without.ctrl_bytes_to_controller);
    assert_eq!(with_probes.packets_delivered, 50);
}

#[test]
fn handshake_negotiates_features_and_flow_buffering() {
    use sdn_buffer_lab::core::{Testbed, TestbedConfig};
    // Flow-granularity switch: the vendor announcement must reach the
    // controller and the controller must learn the switch's features.
    let mut tb = Testbed::new(TestbedConfig::with_buffer(BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(50),
    }));
    let deps = sdn_buffer_lab::workload::single_packet_flows(
        &sdn_buffer_lab::workload::PktgenConfig::default(),
        5,
        1,
    );
    let r = tb.run(&deps);
    assert_eq!(r.packets_delivered, 5);
    let features = tb
        .controller()
        .switch_features()
        .expect("features_reply must have arrived during the handshake");
    assert_eq!(features.n_buffers, 256);
    assert_eq!(features.n_ports, 2);
    // The negotiated miss_send_len survived the handshake's set_config.
    assert_eq!(tb.switch().miss_send_len(), 128);
}

#[test]
fn trace_log_captures_the_control_channel() {
    use sdn_buffer_lab::core::{ChannelDir, Testbed, TestbedConfig};
    let mut tb = Testbed::new(TestbedConfig::with_buffer(BufferMode::PacketGranularity {
        capacity: 64,
    }));
    let (tracer, sink) = Tracer::recording(0);
    tb.set_tracer(tracer);
    let deps = sdn_buffer_lab::workload::single_packet_flows(
        &sdn_buffer_lab::workload::PktgenConfig::default(),
        3,
        1,
    );
    tb.run(&deps);
    let sink = sink.borrow();
    let on_channel: Vec<(ChannelDir, &str)> = sink
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CtrlMsg { dir, label, .. } => Some((dir, label)),
            _ => None,
        })
        .collect();
    // The handshake and the three flow setups must all be visible, each
    // travelling the right way.
    for needle in [
        (ChannelDir::ToSwitch, "hello"),
        (ChannelDir::ToController, "features_reply"),
        (ChannelDir::ToController, "packet_in"),
        (ChannelDir::ToSwitch, "flow_mod"),
        (ChannelDir::ToSwitch, "packet_out"),
    ] {
        assert!(
            on_channel.contains(&needle),
            "missing {needle:?} in trace:\n{on_channel:?}"
        );
    }
    // Every request is filed under a buffer id and drained by its response.
    let count =
        |pred: fn(&EventKind) -> bool| sink.events().iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(
        count(|k| matches!(k, EventKind::PacketInSent { .. })),
        3 + 2
    );
    assert_eq!(count(|k| matches!(k, EventKind::BufferDrain { .. })), 3 + 2);
    assert_eq!(count(|k| matches!(k, EventKind::CtrlDrop { .. })), 0);
    assert_eq!(sink.dropped(), 0);
}

#[test]
fn packet_log_orders_by_flow_and_sequence() {
    use sdn_buffer_lab::core::{Testbed, TestbedConfig};
    let mut tb = Testbed::new(TestbedConfig::default());
    let deps = sdn_buffer_lab::core::WorkloadKind::CrossSequenced {
        n_flows: 3,
        packets_per_flow: 2,
        group_size: 3,
    }
    .generate(&sdn_buffer_lab::workload::PktgenConfig::default(), 1);
    tb.keep_packet_log();
    tb.run(&deps);
    let log = tb.packet_log();
    assert_eq!(log.len(), 6);
    for (i, trace) in log.iter().enumerate() {
        assert_eq!(trace.flow_index, i / 2);
        assert_eq!(trace.seq_in_flow, i % 2);
        assert!(trace.entered_switch.is_some());
        assert!(trace.delivered.is_some());
        assert!(trace.delivered >= trace.left_switch);
        assert!(trace.left_switch >= trace.entered_switch);
    }
}

/// Pinned cell: 400 single-packet flows at 100 Mbps against the 16-unit
/// packet-granularity buffer, seed 42 — one cell of the Section IV sweep.
/// The counts move only when simulated behaviour does.
#[test]
fn pinned_section_iv_cell_delivers_400_in_4430_events() {
    use sdn_buffer_lab::core::{Testbed, TestbedConfig};
    let cfg = TestbedConfig::with_buffer(BufferMode::PacketGranularity { capacity: 16 });
    let departures = workload::single_packet_flows(
        &workload::PktgenConfig {
            rate: BitRate::from_mbps(100),
            ..workload::PktgenConfig::default()
        },
        400,
        42,
    );
    let r = Testbed::new(cfg).run(&departures);
    assert_eq!(r.packets_delivered, 400);
    assert_eq!(r.events_dispatched, 4430);
}

/// Pinned storm: 1000 single-packet flows at 80 Mbps through the
/// flow-granularity buffer while 35 % of control messages are lost in each
/// direction — Algorithm 1's re-request path under sustained loss.
#[test]
fn pinned_retry_storm_of_1000_flows() {
    use sdn_buffer_lab::core::{Testbed, TestbedConfig};
    let mut cfg = TestbedConfig::with_buffer(BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(20),
    });
    cfg.faults.seed = 1234;
    cfg.faults.to_controller.loss = LossModel::Probabilistic(0.35);
    cfg.faults.to_switch.loss = LossModel::Probabilistic(0.35);
    let departures = workload::single_packet_flows(
        &workload::PktgenConfig {
            rate: BitRate::from_mbps(80),
            ..workload::PktgenConfig::default()
        },
        1000,
        7,
    );
    let r = Testbed::new(cfg).run(&departures);
    assert_eq!(r.packets_delivered + r.rerequests, 2284);
    assert_eq!(r.events_dispatched, 11689);
}
