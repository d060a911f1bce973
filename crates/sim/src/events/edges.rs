//! Events for renderer tests, shared with the crates that render them:
//! every [`EventKind`] variant, its numeric fields at the values where a
//! decimal spelling goes wrong. `sdnbuf-core` holds its stream digest to
//! the JSONL bytes over these.
//!
//! Every function is `#[inline]`, so it is compiled only into the tests
//! that call it: compiled into this crate, the fixture moved how the
//! library's own functions were split and inlined (an `Ord::cmp` of
//! `Nanos` went out of line in `CpuResource::earliest_core`).

use crate::{ChannelDir, Event, EventKind, Nanos};

/// How many [`EventKind`] variants there are. A new variant stops
/// `ordinal` compiling, and `every_variant_renders_like_the_reference`
/// fails until `kind_from` builds it too.
pub const VARIANTS: usize = 29;

/// The position of `kind`'s variant in declaration order.
#[inline]
pub fn ordinal(kind: &EventKind) -> usize {
    match kind {
        EventKind::LinkTx { .. } => 0,
        EventKind::LinkDrop { .. } => 1,
        EventKind::BusTransfer { .. } => 2,
        EventKind::TableMiss { .. } => 3,
        EventKind::PacketInSent { .. } => 4,
        EventKind::FlowRuleInstalled { .. } => 5,
        EventKind::FlowRuleEvicted { .. } => 6,
        EventKind::FlowRuleExpired { .. } => 7,
        EventKind::BufferEnqueue { .. } => 8,
        EventKind::BufferDrain { .. } => 9,
        EventKind::BufferRerequest { .. } => 10,
        EventKind::BufferReconcile { .. } => 11,
        EventKind::BufferFallback { .. } => 12,
        EventKind::BufferExpire { .. } => 13,
        EventKind::BufferGiveUp { .. } => 14,
        EventKind::DegradedEnter { .. } => 15,
        EventKind::DegradedExit { .. } => 16,
        EventKind::AdmissionShed { .. } => 17,
        EventKind::PacketInReceived { .. } => 18,
        EventKind::Decision { .. } => 19,
        EventKind::FlowModSent { .. } => 20,
        EventKind::PacketOutSent { .. } => 21,
        EventKind::CtrlMsg { .. } => 22,
        EventKind::CtrlDrop { .. } => 23,
        EventKind::CtrlCrash { .. } => 24,
        EventKind::CtrlRestart { .. } => 25,
        EventKind::FailoverTakeover { .. } => 26,
        EventKind::EpochBump { .. } => 27,
        EventKind::StaleEpochReject { .. } => 28,
    }
}

/// The variant `ordinal` numbers `variant`, its numeric fields filled
/// from `v` in declaration order (each truncated to the field's width,
/// so `u64::MAX` reads as every type's maximum and `u32::MAX` as the
/// no-buffer sentinel), its flag, direction and label from the rest.
#[inline]
pub fn kind_from(
    variant: usize,
    v: [u64; 4],
    flag: bool,
    dir: ChannelDir,
    label: &'static str,
) -> EventKind {
    let [a, b, c, d] = v;
    match variant {
        0 => EventKind::LinkTx {
            link: label,
            bytes: a as usize,
            arrive: Nanos::from_nanos(b),
        },
        1 => EventKind::LinkDrop {
            link: label,
            bytes: a as usize,
        },
        2 => EventKind::BusTransfer {
            bus: label,
            bytes: a as usize,
            done: Nanos::from_nanos(b),
        },
        3 => EventKind::TableMiss {
            in_port: a as u16,
            bytes: b as usize,
        },
        4 => EventKind::PacketInSent {
            xid: a as u32,
            buffer_id: b as u32,
            bytes: c as usize,
        },
        5 => EventKind::FlowRuleInstalled {
            xid: a as u32,
            effective_at: Nanos::from_nanos(b),
            table_size: c as usize,
        },
        6 => EventKind::FlowRuleEvicted {
            table_size: a as usize,
        },
        7 => EventKind::FlowRuleExpired {
            table_size: a as usize,
        },
        8 => EventKind::BufferEnqueue {
            buffer_id: a as u32,
            occupancy: b as usize,
            fresh: flag,
        },
        9 => EventKind::BufferDrain {
            xid: a as u32,
            buffer_id: b as u32,
            released: c as usize,
            occupancy: d as usize,
        },
        10 => EventKind::BufferRerequest {
            buffer_id: a as u32,
            occupancy: b as usize,
        },
        11 => EventKind::BufferReconcile {
            buffer_id: a as u32,
            occupancy: b as usize,
        },
        12 => EventKind::BufferFallback {
            occupancy: a as usize,
        },
        13 => EventKind::BufferExpire {
            buffer_id: a as u32,
            occupancy: b as usize,
        },
        14 => EventKind::BufferGiveUp {
            buffer_id: a as u32,
            drained: b as usize,
            action: label,
            occupancy: c as usize,
        },
        15 => EventKind::DegradedEnter { giveups: a as u32 },
        16 => EventKind::DegradedExit { suppressed: a },
        17 => EventKind::AdmissionShed {
            xid: a as u32,
            bytes: b as usize,
            buffered: flag,
        },
        18 => EventKind::PacketInReceived {
            xid: a as u32,
            bytes: b as usize,
            buffered: flag,
        },
        19 => EventKind::Decision {
            xid: a as u32,
            action: label,
        },
        20 => EventKind::FlowModSent { xid: a as u32 },
        21 => EventKind::PacketOutSent {
            xid: a as u32,
            buffer_id: b as u32,
        },
        22 => EventKind::CtrlMsg {
            dir,
            xid: a as u32,
            bytes: b as usize,
            label,
            arrive: Nanos::from_nanos(c),
        },
        23 => EventKind::CtrlDrop {
            dir,
            xid: a as u32,
            bytes: b as usize,
            label,
        },
        24 => EventKind::CtrlCrash {
            epoch: a as u32,
            role: label,
        },
        25 => EventKind::CtrlRestart {
            epoch: a as u32,
            role: label,
        },
        26 => EventKind::FailoverTakeover {
            epoch: a as u32,
            sync: label,
        },
        27 => EventKind::EpochBump {
            from: a as u32,
            to: b as u32,
            survivors: c as usize,
        },
        28 => EventKind::StaleEpochReject {
            xid: a as u32,
            buffer_id: b as u32,
            epoch: c as u32,
            current: d as u32,
        },
        _ => panic!("no variant {variant}: raise VARIANTS and build it here"),
    }
}

/// The labels `kind_from` is given, by variant: empty, a message type, a
/// link name and a sync mode.
pub const LABELS: [&str; 4] = ["", "packet_in", "host1->switch", "warm"];

/// Both channel directions.
pub const DIRS: [ChannelDir; 2] = [ChannelDir::ToController, ChannelDir::ToSwitch];

/// The numbers where a decimal spelling can go wrong: zero, each change
/// in the count of digits (`10ᵏ − 1` and `10ᵏ` for k = 1..19), both sides
/// of the two-digit step at 100, and the type maxima.
#[inline]
pub fn edge_values() -> Vec<u64> {
    let mut values = vec![0, 99, 100, 101, u64::from(u32::MAX), u64::MAX];
    for k in 1..20 {
        values.extend([10u64.pow(k) - 1, 10u64.pow(k)]);
    }
    values
}

/// Every variant at every [`edge_values`] value, with both flags and
/// directions.
#[inline]
pub fn every_variant_at_the_edges() -> Vec<Event> {
    let mut events = Vec::new();
    for variant in 0..VARIANTS {
        assert_eq!(
            ordinal(&kind_from(variant, [0; 4], false, DIRS[0], "")),
            variant
        );
        for value in edge_values() {
            for (i, dir) in DIRS.into_iter().enumerate() {
                events.push(Event {
                    at: Nanos::from_nanos(value),
                    kind: kind_from(variant, [value; 4], i == 0, dir, LABELS[variant % 4]),
                });
            }
        }
    }
    events
}
