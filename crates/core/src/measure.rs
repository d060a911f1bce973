//! What a run measures about its workload packets.
//!
//! Every delay the paper reports is a per-flow quantity — first packet in
//! to first packet out (flow setup, switch delay), first packet in to last
//! packet out (Section V's flow forwarding delay) — so a packet's timeline
//! is folded into its flow's [`FlowAgg`] at the moment it is stamped. What
//! is kept per packet is a one-byte [`Mark`]: whether it is its flow's
//! first packet, and which stages were already stamped; its flow is its
//! departure's. A flow's controller round trip sits in its aggregate too,
//! so every per-flow fact is found by flow index. The timelines
//! themselves ([`PacketTrace`]) are written beside the marks only for a run
//! somebody observes (see [`Measurement::keep_log`]).
//!
//! Record `i` is departure `i`'s, always. A frame carries its record as
//! its pool tag, and so does every control message sent on its behalf.

use sdnbuf_net::{FlowKey, IpProto, Packet, Payload};
use sdnbuf_openflow::msg::PacketIn;
use sdnbuf_sim::{FastHashMap, Nanos};
use sdnbuf_switch::{PacketHandle, PacketPool};
use sdnbuf_workload::Departure;
use std::net::Ipv4Addr;

/// A packet's identity on the wire: its flow 5-tuple plus the IPv4
/// identification field the workload stamps per packet — exactly what a
/// capture-based measurement keys on.
type PacketId = (FlowKey, u16);

/// What a departure without a wire identity is logged under. No workload
/// generator emits one; outside `Testbed::run`'s contract it is measured,
/// not refused.
const NO_KEY: FlowKey = FlowKey {
    src_ip: Ipv4Addr::UNSPECIFIED,
    dst_ip: Ipv4Addr::UNSPECIFIED,
    src_port: 0,
    dst_port: 0,
    protocol: IpProto::Other(0),
};

fn packet_id(packet: &Packet) -> Option<PacketId> {
    let key = FlowKey::of(packet)?;
    let ident = match &packet.payload {
        Payload::Ipv4(ip) => ip.header.identification,
        _ => return None,
    };
    Some((key, ident))
}

/// One workload packet's observed timeline (see
/// [`Testbed::packet_log`](crate::Testbed::packet_log)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketTrace {
    /// The packet's flow 5-tuple.
    pub flow: FlowKey,
    /// The packet's IPv4 identification (its serial number in the flow).
    pub ident: u16,
    /// Workload flow index.
    pub flow_index: usize,
    /// Position within the flow.
    pub seq_in_flow: usize,
    /// When it arrived at the switch.
    pub entered_switch: Option<Nanos>,
    /// When it left the switch.
    pub left_switch: Option<Nanos>,
    /// When the destination host received it.
    pub delivered: Option<Nanos>,
}

/// A point of a packet's timeline; the discriminant is its "already
/// stamped" bit in [`Mark::bits`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stage {
    /// Arrived at the switch.
    Entered = 1,
    /// Left the switch.
    Left = 2,
    /// Reached the destination host.
    Delivered = 4,
}

impl Stage {
    fn of(self, trace: &mut PacketTrace) -> &mut Option<Nanos> {
        match self {
            Stage::Entered => &mut trace.entered_switch,
            Stage::Left => &mut trace.left_switch,
            Stage::Delivered => &mut trace.delivered,
        }
    }
}

/// [`Mark::bits`]: the record is packet 0 of its flow.
const FIRST: u8 = 8;
/// [`Mark::bits`] of a flow's first packet that went through the switch.
const FIRST_THROUGH: u8 = FIRST | Stage::Entered as u8 | Stage::Left as u8;

/// What is kept per record: a frame's pool tag indexes this table. The
/// record's flow is its departure's `flow_index`.
#[derive(Clone, Copy)]
struct Mark {
    /// [`FIRST`] and one bit per [`Stage`] already stamped.
    bits: u8,
}

/// What a flow's packets add up to, as far as they have been stamped.
#[derive(Clone, Default)]
struct FlowAgg {
    /// The first packet's entry and exit; both hold once `first_through`.
    first_entered: Nanos,
    first_left: Nanos,
    /// The latest exit of any of its packets (the first's included).
    last_left: Nanos,
    /// The round trip of the flow's first answered `packet_in`; holds once
    /// `answered`.
    controller_rtt: Nanos,
    delivered: u32,
    total: u32,
    /// A departure numbered 0 in the flow has claimed the first packet's
    /// place.
    first_claimed: bool,
    first_through: bool,
    answered: bool,
}

impl FlowAgg {
    /// The flow's delay of one kind, once its first packet went through.
    fn delay(&self, delay: Delay) -> Option<Nanos> {
        if !self.first_through {
            return None;
        }
        let setup = self.first_left.saturating_sub(self.first_entered);
        match delay {
            Delay::Setup => Some(setup),
            Delay::Switch => self
                .answered
                .then(|| setup.saturating_sub(self.controller_rtt)),
            Delay::Forwarding => Some(self.last_left.saturating_sub(self.first_entered)),
        }
    }
}

/// A per-flow delay the paper reports.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Delay {
    /// First packet in to first packet out.
    Setup,
    /// Setup less the controller round trip of the flow's first answered
    /// `packet_in`.
    Switch,
    /// First packet in to last packet out (Section V).
    Forwarding,
}

/// What the one pass over the departures yields besides the marks.
pub(crate) struct Scan {
    /// The slice is in non-decreasing time order.
    pub ordered: bool,
    /// The earliest and the latest departure instant (zero when empty).
    pub earliest: Nanos,
    pub latest: Nanos,
    /// One more than the largest flow index.
    pub flows_total: usize,
}

/// What the run delivered.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Totals {
    pub flows_completed: usize,
    pub packets_delivered: u64,
    pub last_delivery: Option<Nanos>,
}

/// Per-flow delay samples and the delivery totals, side by side: what the
/// aggregates and their reference are compared on.
#[cfg(test)]
#[derive(Debug, Default, PartialEq)]
pub(crate) struct FlowDelays {
    pub setup_ms: Vec<f64>,
    pub forwarding_ms: Vec<f64>,
    pub switch_ms: Vec<f64>,
    pub totals: Totals,
}

/// The measurement state of one run: 1 B per record, 48 B per flow.
#[derive(Default)]
pub(crate) struct Measurement {
    /// One mark per departure, in slice order.
    marks: Vec<Mark>,
    flows: Vec<FlowAgg>,
    /// Wire identity to record: how a give-up drain's `packet_in` finds
    /// its frame's record (see [`Measurement::record_of_drained`]). Left
    /// empty until one is sent.
    record_of: FastHashMap<PacketId, u32>,
    /// The timelines, record by record, when the run is observed.
    log: Option<Vec<PacketTrace>>,
    packets_delivered: u64,
    last_delivery: Option<Nanos>,
}

impl Measurement {
    /// Has the run write every packet's timeline beside its mark. Call
    /// before [`Measurement::begin`].
    pub(crate) fn keep_log(&mut self) {
        self.log.get_or_insert_with(Vec::new);
    }

    /// How many records the run keeps, and how many wire identities are
    /// indexed.
    #[cfg(test)]
    pub(crate) fn sizes(&self) -> (usize, usize) {
        (self.marks.len(), self.record_of.len())
    }

    /// The timelines of an observed run by flow and position; empty
    /// otherwise.
    pub(crate) fn packet_log(&self) -> Vec<PacketTrace> {
        let mut log = self.log.clone().unwrap_or_default();
        log.sort_by_key(|t| (t.flow_index, t.seq_in_flow));
        log
    }

    /// The one pass over the departures, before the first event: what the
    /// injection loop needs to know about the slice, and a blank record per
    /// departure, in slice order — record `i` is departure `i`'s, and
    /// [`Testbed::run`](crate::Testbed::run) tags frame `i` with it.
    pub(crate) fn begin(&mut self, workload: &[Departure]) -> Scan {
        let n = workload.len();
        // Generators number flows in the order they first depart, so the
        // last departure names the last flow or one close to it: sized from
        // it, the per-flow tables are allocated once. Any other numbering
        // grows them.
        let flows_hint = workload.last().map_or(0, |d| d.flow_index + 1);
        self.flows.resize(flows_hint, FlowAgg::default());
        self.marks.reserve(n);
        if let Some(log) = &mut self.log {
            log.reserve(n);
        }
        let mut ordered = true;
        let mut span: Option<(Nanos, Nanos)> = None;
        for d in workload {
            let (earliest, latest) = span.unwrap_or((d.at, d.at));
            ordered &= latest <= d.at;
            span = Some((earliest.min(d.at), latest.max(d.at)));
            if d.flow_index >= self.flows.len() {
                self.flows.resize(d.flow_index + 1, FlowAgg::default());
            }
            let agg = &mut self.flows[d.flow_index];
            agg.total += 1;
            // Were two departures numbered 0 in one flow, the earlier in
            // the slice is its first packet.
            let first = d.seq_in_flow == 0 && !agg.first_claimed;
            agg.first_claimed |= first;
            let bits = if first { FIRST } else { 0 };
            self.marks.push(Mark { bits });
            if let Some(log) = &mut self.log {
                let (key, ident) = packet_id(&d.packet).unwrap_or((NO_KEY, 0));
                log.push(PacketTrace {
                    flow: key,
                    ident,
                    flow_index: d.flow_index,
                    seq_in_flow: d.seq_in_flow,
                    entered_switch: None,
                    left_switch: None,
                    delivered: None,
                });
            }
        }
        let (earliest, latest) = span.unwrap_or_default();
        Scan {
            ordered,
            earliest,
            latest,
            flows_total: self.flows.len(),
        }
    }

    /// Stamps one stage of a workload packet's timeline, first time only,
    /// and folds it into the packet's flow. A frame without a tag is no
    /// workload packet.
    pub(crate) fn stamp(
        &mut self,
        pool: &PacketPool,
        packet: PacketHandle,
        now: Nanos,
        stage: Stage,
        workload: &[Departure],
    ) {
        let Some(record) = pool.tag(packet).map(|tag| tag as usize) else {
            return;
        };
        let departure = &workload[record];
        // The tag names the record; the wire identity only checks it.
        debug_assert_eq!(
            pool.get(packet).and_then(packet_id),
            packet_id(&departure.packet)
        );
        if let Some(log) = &mut self.log {
            // First time only by the timeline's own account, not the
            // mark's: the log is what the marks are tested against.
            stage.of(&mut log[record]).get_or_insert(now);
        }
        let mark = &mut self.marks[record];
        if mark.bits & stage as u8 != 0 {
            return;
        }
        mark.bits |= stage as u8;
        let flow = &mut self.flows[departure.flow_index];
        let first = mark.bits & FIRST != 0;
        match stage {
            Stage::Entered if first => flow.first_entered = now,
            Stage::Entered => {}
            Stage::Left => {
                flow.last_left = flow.last_left.max(now);
                if first {
                    flow.first_left = now;
                }
            }
            Stage::Delivered => {
                flow.delivered += 1;
                self.packets_delivered += 1;
                self.last_delivery = self.last_delivery.max(Some(now));
            }
        }
        if first {
            flow.first_through = mark.bits & FIRST_THROUGH == FIRST_THROUGH;
        }
    }

    /// The record a give-up drain's `packet_in` travels under. Its frame
    /// left the buffer, and its pool tag with it, inside the switch; the
    /// `packet_in` carries the whole frame, found here by its wire identity
    /// (right under [`Testbed::run`](crate::Testbed::run)'s contract). The
    /// index is built, whole, the first time it is needed.
    pub(crate) fn record_of_drained(
        &mut self,
        pin: &PacketIn,
        workload: &[Departure],
    ) -> Option<u32> {
        let id = packet_id(&Packet::decode(&pin.data).ok()?)?;
        if self.record_of.is_empty() {
            self.record_of.reserve(workload.len());
            let ids = workload.iter().enumerate();
            let ids = ids.filter_map(|(i, d)| Some((packet_id(&d.packet)?, i as u32)));
            self.record_of.extend(ids);
        }
        self.record_of.get(&id).copied()
    }

    /// Folds in the controller round trip of an answered `packet_in` sent
    /// on behalf of `record`: its flow keeps the first one.
    pub(crate) fn answered(&mut self, record: u32, rtt: Nanos, workload: &[Departure]) {
        let agg = &mut self.flows[workload[record as usize].flow_index];
        if !agg.answered {
            agg.answered = true;
            agg.controller_rtt = rtt;
        }
    }

    /// What the run delivered, flow by flow.
    pub(crate) fn totals(&self) -> Totals {
        let complete = |f: &&FlowAgg| f.delivered == f.total && f.total > 0;
        Totals {
            flows_completed: self.flows.iter().filter(complete).count(),
            packets_delivered: self.packets_delivered,
            last_delivery: self.last_delivery,
        }
    }

    /// One sample of `delay` per flow that has one, in milliseconds and
    /// flow order.
    pub(crate) fn delays_ms(&self, delay: Delay) -> Vec<f64> {
        let mut samples = Vec::with_capacity(self.flows.len());
        let delays = self.flows.iter().filter_map(|f| f.delay(delay));
        samples.extend(delays.map(Nanos::as_millis_f64));
        samples
    }

    /// Every sample and the totals, from the aggregates.
    #[cfg(test)]
    pub(crate) fn flow_delays(&self) -> FlowDelays {
        FlowDelays {
            setup_ms: self.delays_ms(Delay::Setup),
            forwarding_ms: self.delays_ms(Delay::Forwarding),
            switch_ms: self.delays_ms(Delay::Switch),
            totals: self.totals(),
        }
    }

    /// The extraction the aggregates replaced, kept as their reference:
    /// one pass over the timelines of an observed run, after it. The log
    /// holds no controller round trips; those are the aggregates' own.
    #[cfg(test)]
    pub(crate) fn flow_delays_from_log(&self) -> FlowDelays {
        #[derive(Clone, Default)]
        struct FlowAgg {
            first: Option<(Nanos, Nanos)>,
            last_left: Option<Nanos>,
            delivered: usize,
            total: usize,
        }
        let mut per_flow = vec![FlowAgg::default(); self.flows.len()];
        let mut delays = FlowDelays::default();
        let totals = &mut delays.totals;
        for rec in self.log.as_ref().expect("an observed run") {
            let flow = &mut per_flow[rec.flow_index];
            flow.total += 1;
            if rec.delivered.is_some() {
                flow.delivered += 1;
                totals.packets_delivered += 1;
                totals.last_delivery = totals.last_delivery.max(rec.delivered);
            }
            if rec.seq_in_flow == 0 {
                if let (Some(e), Some(l)) = (rec.entered_switch, rec.left_switch) {
                    flow.first = Some((e, l));
                }
            }
            flow.last_left = flow.last_left.max(rec.left_switch);
        }
        for (flow, agg) in per_flow.iter().zip(&self.flows) {
            if flow.delivered == flow.total && flow.total > 0 {
                delays.totals.flows_completed += 1;
            }
            if let Some((enter, left)) = flow.first {
                let setup = left.saturating_sub(enter);
                delays.setup_ms.push(setup.as_millis_f64());
                if agg.answered {
                    delays
                        .switch_ms
                        .push(setup.saturating_sub(agg.controller_rtt).as_millis_f64());
                }
                if let Some(last) = flow.last_left {
                    delays
                        .forwarding_ms
                        .push(last.saturating_sub(enter).as_millis_f64());
                }
            }
        }
        delays
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_costs_one_byte_and_a_flow_forty_eight() {
        assert_eq!(std::mem::size_of::<Mark>(), 1);
        assert!(std::mem::size_of::<FlowAgg>() <= 48);
    }

    #[test]
    fn a_timer_packet_in_finds_its_record_and_its_flow_keeps_the_first_answer() {
        use sdnbuf_openflow::msg::PacketInReason;
        use sdnbuf_openflow::{BufferId, PortNo};
        let pktgen = sdnbuf_workload::PktgenConfig::default();
        let departures = sdnbuf_workload::cross_sequenced_flows(&pktgen, 3, 4, 1, 1);
        // What the switch sends for a frame it drains on a give-up: all of
        // it, under no buffer id.
        let packet_in = |packet: &Packet| PacketIn {
            buffer_id: BufferId::NO_BUFFER,
            total_len: packet.wire_len() as u16,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: packet.wire(),
        };
        let record = |flow, seq| {
            let i = departures
                .iter()
                .position(|d| (d.flow_index, d.seq_in_flow) == (flow, seq));
            i.expect("a departure") as u32
        };
        let ms = Nanos::from_millis;
        let mut m = Measurement::default();
        m.begin(&departures);
        m.answered(record(1, 0), ms(2), &departures);
        assert_eq!(m.sizes(), (12, 0), "a tagged packet_in needs no index");
        let last = &departures[record(2, 3) as usize].packet;
        assert_eq!(
            m.record_of_drained(&packet_in(last), &departures),
            Some(record(2, 3)),
            "a whole frame names its own record"
        );
        assert_eq!(m.sizes(), (12, 12), "built whole, on the first frame");
        let host = sdnbuf_workload::HostAddr::host1();
        let arp = sdnbuf_net::PacketBuilder::gratuitous_arp(host.mac, host.ip);
        assert_eq!(m.record_of_drained(&packet_in(&arp), &departures), None);
        m.answered(record(2, 3), ms(3), &departures);
        m.answered(record(1, 2), ms(5), &departures);
        let rtts: Vec<_> = m
            .flows
            .iter()
            .map(|f| f.answered.then_some(f.controller_rtt))
            .collect();
        assert_eq!(rtts, [None, Some(ms(2)), Some(ms(3))]);
    }
}
