//! Property-based tests for the OpenFlow wire codec: arbitrary messages
//! round-trip losslessly, `wire_len` always equals the encoded length, and
//! the decoder never panics on arbitrary bytes.

use proptest::prelude::*;
use sdnbuf_net::{MacAddr, PacketBuilder, WireFrame, HEADERS_MAX};
use sdnbuf_openflow::{
    msg::{
        ErrorMsg, FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason, PacketIn,
        PacketInReason, PacketOut, Vendor,
    },
    Action, ActionList, BufferId, Match, OfpMessage, PortNo, Wildcards,
};
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

/// What a `packet_in` or a `packet_out` carries, held every way it can be:
/// gathered from a packet (whole, or cut as `miss_send_len` cuts it), flat
/// as the decoder builds it, split at an arbitrary offset, and empty.
fn arb_frame_data() -> impl Strategy<Value = WireFrame> {
    let flat = proptest::collection::vec(any::<u8>(), 0..256);
    prop_oneof![
        Just(WireFrame::new()),
        (42usize..400, 0usize..500).prop_map(|(size, cut)| {
            PacketBuilder::udp()
                .frame_size(size)
                .build()
                .wire_prefix(cut)
        }),
        (54usize..400).prop_map(|size| PacketBuilder::tcp().frame_size(size).build().wire()),
        flat.clone().prop_map(WireFrame::from),
        (flat, any::<prop::sample::Index>()).prop_map(|(bytes, at)| {
            let at = at.index(bytes.len().min(HEADERS_MAX) + 1);
            WireFrame::from_parts(&bytes[..at], bytes[at..].into())
        }),
    ]
}

fn arb_message() -> impl Strategy<Value = OfpMessage> {
    let data = proptest::collection::vec(any::<u8>(), 0..256);
    let actions = proptest::collection::vec(arb_action(), 0..4).prop_map(ActionList::from);
    prop_oneof![
        Just(OfpMessage::Hello),
        Just(OfpMessage::FeaturesRequest),
        Just(OfpMessage::GetConfigRequest),
        data.clone().prop_map(|d| OfpMessage::EchoRequest(d.into())),
        data.clone().prop_map(|d| OfpMessage::EchoReply(d.into())),
        (any::<u16>(), any::<u16>(), data.clone()).prop_map(|(t, c, d)| OfpMessage::Error(
            ErrorMsg {
                err_type: t,
                code: c,
                data: d
            }
        )),
        (any::<u32>(), data.clone()).prop_map(|(v, d)| OfpMessage::Vendor(Vendor {
            vendor: v,
            data: d.into(),
        })),
        (
            arb_buffer_id(),
            any::<u16>(),
            any::<u16>(),
            arb_frame_data()
        )
            .prop_map(|(b, t, p, data)| {
                OfpMessage::PacketIn(PacketIn {
                    buffer_id: b,
                    total_len: t,
                    in_port: PortNo(p),
                    reason: PacketInReason::NoMatch,
                    data,
                })
            }),
        (
            prop_oneof![Just(BufferId::NO_BUFFER), arb_buffer_id()],
            any::<u16>(),
            actions.clone(),
            arb_frame_data()
        )
            .prop_map(|(b, p, a, data)| {
                // Data only rides along when unbuffered (spec semantics).
                let data = if b == BufferId::NO_BUFFER {
                    data
                } else {
                    WireFrame::new()
                };
                OfpMessage::PacketOut(PacketOut {
                    buffer_id: b,
                    in_port: PortNo(p),
                    actions: a,
                    data,
                })
            }),
        (
            arb_match(),
            any::<u64>(),
            0u16..5,
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            arb_buffer_id(),
            any::<u16>(),
            any::<u16>(),
            actions
        )
            .prop_map(
                |(m, ck, cmd, it, ht, pr, b, op, fl, a)| OfpMessage::FlowMod(FlowMod {
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
                    actions: a,
                })
            ),
        (arb_match(), any::<u64>(), any::<u16>()).prop_map(|(m, ck, pr)| {
            OfpMessage::FlowRemoved(FlowRemoved {
                match_fields: m,
                cookie: ck,
                priority: pr,
                reason: FlowRemovedReason::IdleTimeout,
                duration_sec: 1,
                duration_nsec: 2,
                idle_timeout: 3,
                packet_count: 4,
                byte_count: 5,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_round_trip(msg in arb_message(), xid in any::<u32>()) {
        let bytes = msg.encode(xid);
        prop_assert_eq!(bytes.len(), msg.wire_len());
        let (back, back_xid) = OfpMessage::decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
        prop_assert_eq!(back_xid, xid);
    }

    /// 0..=6 actions straddle the in-place ↔ spilled boundary: either
    /// representation must read, compare, clone and encode as the `Vec` it
    /// was built from.
    #[test]
    fn action_list_is_the_vec_it_was_built_from(
        plain in proptest::collection::vec(arb_action(), 0..7),
    ) {
        let collected: ActionList = plain.iter().copied().collect();
        let converted = ActionList::from(plain.clone());
        prop_assert_eq!(&collected[..], &plain[..]);
        prop_assert_eq!(&collected, &converted);
        prop_assert_eq!(&collected, &plain);
        prop_assert_eq!(collected.clone(), converted);
        prop_assert_eq!(format!("{collected:?}"), format!("{plain:?}"));

        prop_assert_eq!(Action::list_len(&collected), Action::list_len(&plain));
        let (mut from_list, mut from_vec) = (Vec::new(), Vec::new());
        Action::encode_list(&collected, &mut from_list);
        Action::encode_list(&plain, &mut from_vec);
        prop_assert_eq!(&from_list, &from_vec);
        prop_assert_eq!(from_list.len(), Action::list_len(&collected));
        let decoded = Action::decode_list(&from_list, from_list.len()).unwrap();
        prop_assert_eq!(decoded, collected);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = OfpMessage::decode(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_messages(
        msg in arb_message(),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in 1u8..=255,
    ) {
        let mut bytes = msg.encode(7);
        let i = flip_at.index(bytes.len());
        bytes[i] ^= flip_bits;
        let _ = OfpMessage::decode(&bytes);
    }

    #[test]
    fn match_round_trip(m in arb_match()) {
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        prop_assert_eq!(Match::decode(&buf).unwrap(), m);
    }

    #[test]
    fn exact_matches_are_self_consistent(
        sport in any::<u16>(),
        dport in any::<u16>(),
        src in any::<u32>(),
        dst in any::<u32>(),
        port in 1u16..100,
    ) {
        use sdnbuf_openflow::MatchView;
        let pkt = PacketBuilder::udp()
            .src_ip(Ipv4Addr::from(src)).dst_ip(Ipv4Addr::from(dst))
            .src_port(sport).dst_port(dport)
            .build();
        let m = Match::exact_from_packet(PortNo(port), &pkt);
        prop_assert!(m.matches(&MatchView::of(PortNo(port), &pkt)));
    }
}
