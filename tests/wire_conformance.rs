//! Wire-level conformance: drive a complete flow-setup transaction between
//! the switch and controller models through **encoded OpenFlow bytes**, the
//! way a real TCP control channel would carry them. Every message must
//! survive encode → decode losslessly, and the transaction must still
//! produce the correct forwarding behaviour.

use sdn_buffer_lab::controller::{Controller, ControllerConfig, ControllerOutput};
use sdn_buffer_lab::net::{MacAddr, PacketBuilder};
use sdn_buffer_lab::openflow::OfpMessage;
use sdn_buffer_lab::openflow::PortNo;
use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::sim::EventSink;
use sdn_buffer_lab::switch::{BufferChoice, PacketPool, Switch, SwitchConfig, SwitchOutput};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Serializes a message to wire bytes and parses it back, asserting the
/// round trip is lossless — the "TCP channel" between the two models.
fn over_the_wire(msg: OfpMessage, xid: u32) -> (OfpMessage, u32) {
    let bytes = msg.encode(xid);
    assert_eq!(bytes.len(), msg.wire_len(), "wire_len mismatch for {msg}");
    let (decoded, decoded_xid) = OfpMessage::decode(&bytes).expect("switch emitted invalid bytes");
    assert_eq!(decoded, msg, "lossy wire round trip");
    assert_eq!(decoded_xid, xid);
    (decoded, decoded_xid)
}

#[test]
fn full_flow_setup_transaction_over_encoded_bytes() {
    let mut switch = Switch::new(SwitchConfig {
        buffer: BufferChoice::PacketGranularity { capacity: 256 },
        ..SwitchConfig::default()
    });
    let mut controller = Controller::new(ControllerConfig::default());
    controller.learn(MacAddr::from_host_index(2), PortNo(2));
    let mut pool = PacketPool::new();

    // 1. Handshake messages cross the wire.
    let mut t = Nanos::ZERO;
    for out in controller.initiate_handshake(t, 128) {
        let ControllerOutput::ToSwitch { at, xid, msg } = out;
        let (msg, xid) = over_the_wire(msg, xid);
        for reply in switch.handle_controller_msg(at, msg, xid, &mut pool) {
            if let SwitchOutput::ToController { at, xid, msg } = reply {
                let (msg, xid) = over_the_wire(msg, xid);
                controller.handle_message(at, msg, xid);
                t = t.max(at);
            }
        }
    }
    assert!(controller.switch_features().is_some());

    // 2. A miss-match packet triggers the request/response transaction.
    let pkt = PacketBuilder::udp()
        .src_ip(Ipv4Addr::new(10, 9, 9, 9))
        .frame_size(1000)
        .build();
    let t0 = t + Nanos::from_millis(1);
    let outs = switch.handle_frame(t0, PortNo(1), pool.insert(pkt.clone()), &mut pool);
    let mut forwarded = Vec::new();
    for out in outs {
        match out {
            SwitchOutput::ToController { at, xid, msg } => {
                // packet_in crosses the wire...
                let (msg, xid) = over_the_wire(msg, xid);
                // ...controller decides...
                for ControllerOutput::ToSwitch { at: rat, xid, msg } in
                    controller.handle_message(at, msg, xid)
                {
                    // ...flow_mod + packet_out cross back...
                    let (msg, xid) = over_the_wire(msg, xid);
                    for eff in switch.handle_controller_msg(rat, msg, xid, &mut pool) {
                        if let SwitchOutput::Forward { port, packet, .. } = eff {
                            forwarded.push((port, packet));
                        }
                    }
                }
            }
            SwitchOutput::Forward { port, packet, .. } => forwarded.push((port, packet)),
            SwitchOutput::Drop { .. } => panic!("transaction must not drop"),
        }
    }
    // 3. The miss-match packet came out port 2, byte-identical.
    assert_eq!(forwarded.len(), 1);
    assert_eq!(forwarded[0].0, PortNo(2));
    assert_eq!(pool.get(forwarded[0].1).unwrap(), &pkt);
    // 4. The rule is installed: the next packet of the flow fast-paths.
    let outs = switch.handle_frame(
        t0 + Nanos::from_secs(1),
        PortNo(1),
        pool.insert(pkt.clone()),
        &mut pool,
    );
    assert!(
        matches!(
            &outs[..],
            [SwitchOutput::Forward {
                port: PortNo(2),
                ..
            }]
        ),
        "{outs:?}"
    );
}

#[test]
fn flow_granularity_vendor_negotiation_over_encoded_bytes() {
    let mut switch = Switch::new(SwitchConfig {
        buffer: BufferChoice::FlowGranularity {
            capacity: 128,
            timeout: Nanos::from_millis(25),
        },
        ..SwitchConfig::default()
    });
    let mut controller = Controller::new(ControllerConfig::default());

    // The switch announces; the announcement crosses the wire; the
    // controller's Configure reply crosses back and is accepted.
    let announce = switch.announce_capabilities(Nanos::ZERO);
    assert_eq!(announce.len(), 1);
    let SwitchOutput::ToController { at, xid, msg } = announce.into_iter().next().unwrap() else {
        panic!("announce must be a control message");
    };
    let (msg, xid) = over_the_wire(msg, xid);
    let replies = controller.handle_message(at, msg, xid);
    assert_eq!(
        replies.len(),
        1,
        "controller must acknowledge with Configure"
    );
    let ControllerOutput::ToSwitch { at, xid, msg } = replies.into_iter().next().unwrap();
    let (msg, xid) = over_the_wire(msg, xid);
    let outcome = switch.handle_controller_msg(at, msg, xid, &mut PacketPool::new());
    assert!(
        outcome.is_empty(),
        "flow-granularity switch must accept Configure silently, got {outcome:?}"
    );
}

/// Fuzz-style round-trip coverage of the whole codec: every one of the 14
/// message types the implementation speaks must encode → decode → encode
/// byte-identically for arbitrary field values, and mangled frames —
/// truncated or bit-flipped — must come back as typed [`OfpError`]s, never
/// as panics.
mod wire_props {
    use super::over_the_wire;
    use proptest::prelude::*;
    use sdn_buffer_lab::net::{MacAddr, PacketBuilder, WireFrame};
    use sdn_buffer_lab::openflow::msg::{
        ErrorMsg, FeaturesReply, FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason, PacketIn,
        PacketInReason, PacketOut, PhyPort, SwitchConfig as OfSwitchConfig, Vendor,
    };
    use sdn_buffer_lab::openflow::{
        Action, BufferId, Match, MsgType, OfpError, OfpMessage, PortNo, Wildcards,
        SUPPORTED_ACTIONS,
    };
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    fn arb_buffer_id() -> impl Strategy<Value = BufferId> {
        any::<u32>().prop_map(BufferId::from_wire)
    }

    fn arb_action() -> BoxedStrategy<Action> {
        (any::<u16>(), any::<u16>())
            .prop_map(|(p, m)| Action::Output {
                port: PortNo(p),
                max_len: m,
            })
            .boxed()
    }

    fn arb_match() -> impl Strategy<Value = Match> {
        (
            (
                any::<u32>(),
                any::<u16>(),
                any::<[u8; 6]>(),
                any::<[u8; 6]>(),
            ),
            (
                any::<u16>(),
                any::<u8>(),
                any::<u16>(),
                any::<u8>(),
                any::<u8>(),
            ),
            (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
        )
            .prop_map(
                |((w, inp, src, dst), (vlan, pcp, dlt, tos, proto), (nws, nwd, tps, tpd))| Match {
                    wildcards: Wildcards::from_bits(w),
                    in_port: PortNo(inp),
                    dl_src: MacAddr::new(src),
                    dl_dst: MacAddr::new(dst),
                    dl_vlan: vlan,
                    dl_vlan_pcp: pcp,
                    dl_type: dlt,
                    nw_tos: tos,
                    nw_proto: proto,
                    nw_src: Ipv4Addr::from(nws),
                    nw_dst: Ipv4Addr::from(nwd),
                    tp_src: tps,
                    tp_dst: tpd,
                },
            )
    }

    /// A printable ASCII string that fits a fixed-width NUL-padded wire
    /// field of `max + 1` bytes.
    fn arb_name(max: usize) -> impl Strategy<Value = String> {
        proptest::collection::vec(0x20u8..0x7f, 0..max + 1)
            .prop_map(|b| String::from_utf8(b).expect("printable ASCII"))
    }

    fn arb_phy_port() -> impl Strategy<Value = PhyPort> {
        (any::<u16>(), any::<[u8; 6]>(), arb_name(15)).prop_map(|(p, mac, name)| PhyPort {
            port_no: PortNo(p),
            hw_addr: MacAddr::new(mac),
            name,
        })
    }

    fn arb_flow_removed_reason() -> impl Strategy<Value = FlowRemovedReason> {
        prop_oneof![
            Just(FlowRemovedReason::IdleTimeout),
            Just(FlowRemovedReason::HardTimeout),
            Just(FlowRemovedReason::Delete),
        ]
    }

    /// Every one of the 14 `OfpMessage` variants, with arbitrary fields.
    /// `packet_in` / `packet_out` data: flat bytes, as a decoder holds
    /// them, or gathered from a frame and cut as `miss_send_len` cuts it.
    fn arb_frame_data() -> BoxedStrategy<WireFrame> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..200).prop_map(WireFrame::from),
            (42usize..300, 0usize..400).prop_map(|(size, cut)| {
                PacketBuilder::udp()
                    .frame_size(size)
                    .build()
                    .wire_prefix(cut)
            }),
        ]
        .boxed()
    }

    fn arb_any_message() -> BoxedStrategy<OfpMessage> {
        let data = proptest::collection::vec(any::<u8>(), 0..200);
        let actions = proptest::collection::vec(arb_action(), 0..4);
        prop_oneof![
            Just(OfpMessage::Hello),
            (any::<u16>(), any::<u16>(), data.clone()).prop_map(|(t, c, d)| OfpMessage::Error(
                ErrorMsg {
                    err_type: t,
                    code: c,
                    data: d
                }
            )),
            data.clone().prop_map(OfpMessage::EchoRequest),
            data.clone().prop_map(OfpMessage::EchoReply),
            (any::<u32>(), data.clone())
                .prop_map(|(v, d)| OfpMessage::Vendor(Vendor { vendor: v, data: d })),
            Just(OfpMessage::FeaturesRequest),
            (
                (any::<u64>(), any::<u32>(), any::<u8>()),
                (any::<u32>(), any::<u32>()),
                proptest::collection::vec(arb_phy_port(), 0..4),
            )
                .prop_map(|((dp, nb, nt), (cap, act), ports)| {
                    OfpMessage::FeaturesReply(FeaturesReply {
                        datapath_id: dp,
                        n_buffers: nb,
                        n_tables: nt,
                        capabilities: cap,
                        actions: act,
                        ports,
                    })
                }),
            Just(OfpMessage::GetConfigRequest),
            (any::<u16>(), any::<u16>()).prop_map(|(f, m)| {
                OfpMessage::GetConfigReply(OfSwitchConfig {
                    flags: f,
                    miss_send_len: m,
                })
            }),
            (any::<u16>(), any::<u16>()).prop_map(|(f, m)| {
                OfpMessage::SetConfig(OfSwitchConfig {
                    flags: f,
                    miss_send_len: m,
                })
            }),
            (
                arb_buffer_id(),
                any::<u16>(),
                any::<u16>(),
                any::<bool>(),
                arb_frame_data()
            )
                .prop_map(|(b, t, p, action, data)| {
                    OfpMessage::PacketIn(PacketIn {
                        buffer_id: b,
                        total_len: t,
                        in_port: PortNo(p),
                        reason: if action {
                            PacketInReason::Action
                        } else {
                            PacketInReason::NoMatch
                        },
                        data,
                    })
                }),
            (
                (arb_match(), any::<u64>(), any::<u16>()),
                arb_flow_removed_reason(),
                (any::<u32>(), any::<u32>(), any::<u16>()),
                (any::<u64>(), any::<u64>()),
            )
                .prop_map(|((m, ck, pr), reason, (ds, dn, it), (pc, bc))| {
                    OfpMessage::FlowRemoved(FlowRemoved {
                        match_fields: m,
                        cookie: ck,
                        priority: pr,
                        reason,
                        duration_sec: ds,
                        duration_nsec: dn,
                        idle_timeout: it,
                        packet_count: pc,
                        byte_count: bc,
                    })
                }),
            (
                prop_oneof![Just(BufferId::NO_BUFFER), arb_buffer_id()],
                any::<u16>(),
                actions.clone(),
                arb_frame_data()
            )
                .prop_map(|(b, p, a, data)| {
                    // Data rides along only when unbuffered (spec semantics).
                    let data = if b == BufferId::NO_BUFFER {
                        data
                    } else {
                        WireFrame::new()
                    };
                    OfpMessage::PacketOut(PacketOut {
                        buffer_id: b,
                        in_port: PortNo(p),
                        actions: a.into(),
                        data,
                    })
                }),
            (
                (arb_match(), any::<u64>(), 0u16..5),
                (any::<u16>(), any::<u16>(), any::<u16>()),
                (arb_buffer_id(), any::<u16>(), any::<u16>()),
                actions,
            )
                .prop_map(|((m, ck, cmd), (it, ht, pr), (b, op, fl), a)| {
                    OfpMessage::FlowMod(FlowMod {
                        match_fields: m,
                        cookie: ck,
                        command: match cmd {
                            1 => FlowModCommand::Modify,
                            2 => FlowModCommand::ModifyStrict,
                            3 => FlowModCommand::Delete,
                            4 => FlowModCommand::DeleteStrict,
                            _ => FlowModCommand::Add,
                        },
                        idle_timeout: it,
                        hard_timeout: ht,
                        priority: pr,
                        buffer_id: b,
                        out_port: PortNo(op),
                        flags: fl,
                        actions: a.into(),
                    })
                }),
        ]
        .boxed()
    }

    fn sample_match() -> Match {
        Match {
            wildcards: Wildcards::from_bits(0),
            in_port: PortNo(1),
            dl_src: MacAddr::from_host_index(1),
            dl_dst: MacAddr::from_host_index(2),
            dl_vlan: 0xffff,
            dl_vlan_pcp: 0,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 17,
            nw_src: Ipv4Addr::new(10, 0, 0, 1),
            nw_dst: Ipv4Addr::new(10, 0, 0, 2),
            tp_src: 5000,
            tp_dst: 9,
        }
    }

    /// Deterministic completeness check: one exemplar per message type,
    /// the 14 wire type codes the decoder accepts exactly accounted for,
    /// each surviving the wire and re-encoding byte-identically. The fuzz
    /// tests above explore the field space; this test guarantees none of
    /// the 14 is skipped.
    #[test]
    fn all_fourteen_message_types_round_trip() {
        let port = PhyPort {
            port_no: PortNo(1),
            hw_addr: MacAddr::from_host_index(1),
            name: "eth1".into(),
        };
        let exemplars: Vec<OfpMessage> = vec![
            OfpMessage::Hello,
            OfpMessage::Error(ErrorMsg {
                err_type: 1,
                code: 2,
                data: vec![0xde, 0xad],
            }),
            OfpMessage::EchoRequest(vec![1, 2, 3]),
            OfpMessage::EchoReply(vec![]),
            OfpMessage::Vendor(Vendor {
                vendor: 0x2320,
                data: vec![7; 12],
            }),
            OfpMessage::FeaturesRequest,
            OfpMessage::FeaturesReply(FeaturesReply {
                datapath_id: 0xfeed_beef,
                n_buffers: 256,
                n_tables: 2,
                capabilities: 0x4f,
                actions: SUPPORTED_ACTIONS,
                ports: vec![port],
            }),
            OfpMessage::GetConfigRequest,
            OfpMessage::GetConfigReply(OfSwitchConfig {
                flags: 0,
                miss_send_len: 128,
            }),
            OfpMessage::SetConfig(OfSwitchConfig {
                flags: 1,
                miss_send_len: 0xffff,
            }),
            OfpMessage::PacketIn(PacketIn {
                buffer_id: BufferId::from_wire(7),
                total_len: 1000,
                in_port: PortNo(1),
                reason: PacketInReason::NoMatch,
                data: vec![0xab; 128].into(),
            }),
            OfpMessage::FlowRemoved(FlowRemoved {
                match_fields: sample_match(),
                cookie: 9,
                priority: 100,
                reason: FlowRemovedReason::IdleTimeout,
                duration_sec: 1,
                duration_nsec: 2,
                idle_timeout: 3,
                packet_count: 4,
                byte_count: 5,
            }),
            OfpMessage::PacketOut(PacketOut {
                buffer_id: BufferId::NO_BUFFER,
                in_port: PortNo(1),
                actions: vec![Action::output(PortNo(2))].into(),
                data: vec![0xcc; 64].into(),
            }),
            OfpMessage::FlowMod(FlowMod {
                match_fields: sample_match(),
                cookie: 1,
                command: FlowModCommand::Add,
                idle_timeout: 5,
                hard_timeout: 0,
                priority: 100,
                buffer_id: BufferId::from_wire(7),
                out_port: PortNo(0xffff),
                flags: 1,
                actions: vec![Action::output(PortNo(2))].into(),
            }),
        ];
        let mut seen = BTreeSet::new();
        for (i, msg) in exemplars.into_iter().enumerate() {
            seen.insert(msg.msg_type() as u8);
            let bytes = msg.encode(i as u32);
            let (decoded, _) = over_the_wire(msg, i as u32);
            assert_eq!(decoded.encode(i as u32), bytes, "re-encode not identical");
        }
        let spoken: BTreeSet<u8> = (0..=u8::MAX)
            .filter(|&code| MsgType::from_u8(code).is_ok())
            .collect();
        assert_eq!(seen.len(), 14, "one exemplar per type: {seen:?}");
        assert_eq!(
            seen, spoken,
            "exemplars must span every type the decoder accepts"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// encode → decode → encode is byte-identical for arbitrary
        /// messages of every type, and `wire_len` never lies.
        #[test]
        fn every_message_re_encodes_byte_identically(
            msg in arb_any_message(),
            xid in any::<u32>(),
        ) {
            let bytes = msg.encode(xid);
            prop_assert_eq!(bytes.len(), msg.wire_len());
            let (decoded, decoded_xid) = OfpMessage::decode(&bytes).expect("valid frame");
            prop_assert_eq!(decoded_xid, xid);
            prop_assert_eq!(&decoded, &msg);
            prop_assert_eq!(decoded.encode(xid), bytes);
        }

        /// Cutting a valid frame anywhere strictly short of its full
        /// length yields a typed truncation/length error — never a panic,
        /// never a silently decoded partial message.
        #[test]
        fn truncated_frames_return_typed_errors(
            msg in arb_any_message(),
            cut in any::<prop::sample::Index>(),
        ) {
            let bytes = msg.encode(3);
            let cut = cut.index(bytes.len()); // 0 ≤ cut < len: strictly shorter
            match OfpMessage::decode(&bytes[..cut]) {
                Err(OfpError::Truncated { needed, got }) => {
                    prop_assert!(got < needed, "Truncated{{needed: {needed}, got: {got}}}");
                }
                Err(OfpError::BadLength { claimed, actual }) => {
                    prop_assert!(actual < claimed, "BadLength{{claimed: {claimed}, actual: {actual}}}");
                }
                Err(other) => prop_assert!(
                    false,
                    "truncation must surface as Truncated/BadLength, got {other:?}"
                ),
                Ok((m, _)) => prop_assert!(false, "decoded a truncated frame as {m}"),
            }
        }

        /// Arbitrary single-byte corruption of a valid frame never panics
        /// the decoder; it either still parses or fails with a typed error.
        #[test]
        fn corrupted_frames_never_panic(
            msg in arb_any_message(),
            at in any::<prop::sample::Index>(),
            mask in 1u8..=255,
        ) {
            let mut bytes = msg.encode(9);
            let i = at.index(bytes.len());
            bytes[i] ^= mask;
            let _ = OfpMessage::decode(&bytes);
        }

        /// Pure garbage never panics the decoder either.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let _ = OfpMessage::decode(&bytes);
        }
    }
}

#[test]
fn packet_granularity_switch_rejects_flow_buffer_configure() {
    let mut switch = Switch::new(SwitchConfig {
        buffer: BufferChoice::PacketGranularity { capacity: 16 },
        ..SwitchConfig::default()
    });
    // No announcement from a default-buffer switch...
    assert!(switch.announce_capabilities(Nanos::ZERO).is_empty());
    // ...and a stray Configure gets a wire-valid error back.
    let cfg = OfpMessage::from(sdn_buffer_lab::openflow::FlowBufferExt::Configure {
        enabled: true,
        timeout_ms: 10,
    });
    let (msg, xid) = over_the_wire(cfg, 77);
    let outs = switch.handle_controller_msg(Nanos::ZERO, msg, xid, &mut PacketPool::new());
    match &outs[..] {
        [SwitchOutput::ToController { msg, xid, .. }] => {
            let (decoded, _) = over_the_wire(msg.clone(), *xid);
            assert!(matches!(decoded, OfpMessage::Error(_)));
        }
        other => panic!("{other:?}"),
    }
}

/// The `(direction, label)` of every control message a run puts on the
/// channel, whether it arrives or is dropped.
#[derive(Default)]
struct Traffic(BTreeSet<(&'static str, &'static str)>);

impl EventSink for Traffic {
    fn emit(&mut self, event: Event) {
        if let EventKind::CtrlMsg { dir, label, .. } | EventKind::CtrlDrop { dir, label, .. } =
            event.kind
        {
            self.0.insert((dir.label(), label));
        }
    }
}

/// What runs put on the control channel is the session handshake, the
/// paper's `packet_in` → `flow_mod` / `packet_out` loop, the flow-buffer
/// vendor extension and keep-alive echoes, and nothing else: four cells
/// that between them reach every one of those (both Section IV mechanisms,
/// Section V under channel loss and a stall, and a crash ridden through by
/// a warm standby) carry exactly these fourteen `(direction, label)` pairs.
#[test]
fn runs_carry_exactly_the_fourteen_kinds_of_control_traffic() {
    let cell = |buffer: &str, workload: &str, rate: u64| ExperimentConfig {
        buffer: buffer.parse().expect("mechanism"),
        workload: workload.parse().expect("workload"),
        sending_rate: BitRate::from_mbps(rate),
        ..ExperimentConfig::default()
    };
    let mut faulted = cell("flow:256:20", "v", 50);
    faulted.testbed.faults =
        FaultPlan::parse("fseed=7,c.loss=p:0.1,s.loss=p:0.05,stall=55ms+3ms").expect("plan");
    // CI's failover smoke cell.
    let mut failover = cell("flow:256:20", "cross:6x4/2", 40);
    failover.testbed.faults = FaultPlan::parse("crash=60ms+40ms").expect("plan");
    failover.testbed.failover.standby = true;
    failover.testbed.failover.warm = true;
    failover.testbed.failover.takeover_delay = Nanos::from_millis(8);
    failover.testbed.keepalive_interval = Some(Nanos::from_millis(5));
    failover.testbed.switch.liveness_timeout = Nanos::from_millis(15);

    let traffic = Rc::new(RefCell::new(Traffic::default()));
    for config in [
        cell("none", "iv", 90),
        cell("packet:16", "iv", 100),
        faulted,
        failover,
    ] {
        Experiment::try_new(config)
            .expect("valid cell")
            .run_with_tracer(Tracer::new(traffic.clone()));
    }
    let to_controller = [
        "hello",
        "features_reply",
        "get_config_reply",
        "packet_in",
        "vendor",
        "echo_reply",
    ];
    let to_switch = [
        "hello",
        "features_request",
        "get_config_request",
        "set_config",
        "flow_mod",
        "packet_out",
        "vendor",
        "echo_request",
    ];
    let expected: BTreeSet<_> = (to_controller.iter().map(|&l| ("to_controller", l)))
        .chain(to_switch.iter().map(|&l| ("to_switch", l)))
        .collect();
    assert_eq!(expected.len(), 14);
    assert_eq!(traffic.borrow().0, expected);
}

/// A frame whose payload bytes are shared with every other frame of its
/// workload is, to everything that looks at it, the frame that owns a
/// private copy of them: equality and hashing go by content, flow key and
/// match fields never read the payload, and the wire bytes are the same.
#[test]
fn a_shared_payload_is_the_frame_a_private_copy_is() {
    use sdn_buffer_lab::net::{Bytes, FlowKey, Packet, Payload, Transport};
    use sdn_buffer_lab::openflow::MatchView;
    use sdn_buffer_lab::workload::PktgenConfig;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    fn payload_mut(packet: &mut Packet) -> &mut Bytes {
        match &mut packet.payload {
            Payload::Ipv4(ip) => match &mut ip.transport {
                Transport::Udp(_, p) | Transport::Tcp(_, p) | Transport::Other(_, p) => p,
            },
            other => panic!("generated frames are IPv4: {other:?}"),
        }
    }

    for kind in [
        WorkloadKind::paper_section_v(),
        WorkloadKind::TcpEviction {
            first_burst: 4,
            idle_gap: Nanos::from_millis(1),
            second_burst: 4,
        },
    ] {
        let departures = kind.generate(&PktgenConfig::default(), 1);
        let [.., neighbour, last] = &departures[..] else {
            panic!("{kind}: two departures at least");
        };
        let mut shared = last.packet.clone();
        let mut neighbour = neighbour.packet.clone();
        assert!(Bytes::ptr_eq(
            payload_mut(&mut shared),
            payload_mut(&mut neighbour)
        ));
        let mut private = shared.clone();
        let bytes = payload_mut(&mut private);
        *bytes = Bytes::from(bytes.to_vec());
        assert!(!Bytes::ptr_eq(
            payload_mut(&mut shared),
            payload_mut(&mut private)
        ));

        assert_eq!(shared, private);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&shared), hasher.hash_one(&private));
        assert_eq!(FlowKey::of(&shared), FlowKey::of(&private));
        assert_eq!(
            MatchView::of(PortNo(1), &shared),
            MatchView::of(PortNo(1), &private)
        );
        let wire = shared.encode();
        assert_eq!(wire, private.encode());
        assert_eq!(wire.len(), 1000);
        for packet in [&shared, &private] {
            assert_eq!(&Packet::decode(&wire).expect("own encoding"), packet);
        }
        // Gathered, the two are still one frame, and each comes back from
        // a control-path round trip on the allocation it went out on.
        assert_eq!(shared.wire(), private.wire());
        assert_eq!(shared.wire(), wire);
        assert_eq!(
            hasher.hash_one(shared.wire()),
            hasher.hash_one(private.wire())
        );
        for mut packet in [shared.clone(), private.clone()] {
            let mut back = Packet::decode(&packet.wire()).expect("own encoding");
            assert_eq!(back, packet);
            assert!(Bytes::ptr_eq(
                payload_mut(&mut back),
                payload_mut(&mut packet)
            ));
        }

        // By content, not by construction: other bytes are another frame.
        let mut other = shared.clone();
        let bytes = payload_mut(&mut other);
        *bytes = vec![0xa5; bytes.len()].into();
        assert_ne!(other, shared);
        assert_ne!(other.encode(), wire);
    }
}
