//! What a run measures about its workload packets.
//!
//! Every delay the paper reports is a per-flow quantity — first packet in
//! to first packet out (flow setup, switch delay), first packet in to last
//! packet out (Section V's flow forwarding delay) — so a packet's timeline
//! is folded into its flow's [`FlowAgg`] at the moment it is stamped. What
//! is kept per packet is a [`Mark`]: which flow, whether it is that flow's
//! first packet, and which stages were already stamped. The timelines
//! themselves ([`PacketTrace`]) are written beside the marks only for a run
//! somebody observes (see [`Measurement::keep_log`]).
//!
//! Record `i` is departure `i`'s, always.

use sdnbuf_net::{FlowKey, IpProto, Packet, Payload};
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

/// What is kept per record: a frame's pool tag indexes this table.
#[derive(Clone, Copy)]
struct Mark {
    /// Workload flow index.
    flow: u32,
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
    delivered: u32,
    total: u32,
    /// The first packet's flow key; `None` until a departure numbered 0 in
    /// the flow claims the place.
    first_key: Option<FlowKey>,
    first_through: bool,
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

/// Per-flow delay samples and the delivery totals.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct FlowDelays {
    pub setup_ms: Vec<f64>,
    pub forwarding_ms: Vec<f64>,
    pub switch_ms: Vec<f64>,
    pub flows_completed: usize,
    pub packets_delivered: u64,
    pub last_delivery: Option<Nanos>,
}

/// The measurement state of one run: 8 B per record, 48 B per flow.
#[derive(Default)]
pub(crate) struct Measurement {
    /// One mark per departure, in slice order.
    marks: Vec<Mark>,
    flows: Vec<FlowAgg>,
    /// Wire identity to record: how a frame without a tag finds its
    /// record (see [`Measurement::stamp`]). Left empty until such a frame
    /// shows up.
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
            let (key, ident) = packet_id(&d.packet).unwrap_or((NO_KEY, 0));
            let agg = &mut self.flows[d.flow_index];
            agg.total += 1;
            // Were two departures numbered 0 in one flow, the earlier in
            // the slice is its first packet.
            let first = d.seq_in_flow == 0 && agg.first_key.is_none();
            if first {
                agg.first_key = Some(key);
            }
            let bits = if first { FIRST } else { 0 };
            // Past 2³² flows the mark names another one: mis-measured, not
            // out of bounds, as the table holds every flow below this one.
            let flow = d.flow_index as u32;
            self.marks.push(Mark { flow, bits });
            if let Some(log) = &mut self.log {
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
    /// and folds it into the packet's flow.
    pub(crate) fn stamp(
        &mut self,
        pool: &mut PacketPool,
        packet: PacketHandle,
        now: Nanos,
        stage: Stage,
        workload: &[Departure],
    ) {
        let record = pool.tag(packet).or_else(|| {
            // A frame the switch rebuilt from `packet_out` bytes sits in a
            // slot of its own: wire identity is all that came back from
            // the controller. Look it up once; the tag serves from here on.
            let id = packet_id(pool.get(packet)?)?;
            if self.record_of.is_empty() {
                // The first such frame of the run (only no-buffer and a
                // full buffer's fallback rebuild frames) indexes every
                // departure by its wire identity, numbered as its tag.
                self.record_of.reserve(workload.len());
                let ids = workload.iter().enumerate();
                let ids = ids.filter_map(|(i, d)| Some((packet_id(&d.packet)?, i as u32)));
                self.record_of.extend(ids);
            }
            let record = *self.record_of.get(&id)?;
            pool.set_tag(packet, record);
            Some(record)
        });
        let Some(record) = record else {
            return;
        };
        if let Some(log) = &mut self.log {
            // First time only by the timeline's own account, not the
            // mark's: the log is what the marks are tested against.
            stage.of(&mut log[record as usize]).get_or_insert(now);
        }
        let mark = &mut self.marks[record as usize];
        if mark.bits & stage as u8 != 0 {
            return;
        }
        mark.bits |= stage as u8;
        let flow = &mut self.flows[mark.flow as usize];
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

    /// Per-flow delay samples from the aggregates. `controller_delay_of_flow`
    /// is the controller round trip of each flow key's first `packet_in`.
    pub(crate) fn flow_delays(
        &self,
        controller_delay_of_flow: &FastHashMap<FlowKey, Nanos>,
    ) -> FlowDelays {
        let samples = || Vec::with_capacity(self.flows.len());
        let mut delays = FlowDelays {
            setup_ms: samples(),
            forwarding_ms: samples(),
            switch_ms: samples(),
            flows_completed: 0,
            packets_delivered: self.packets_delivered,
            last_delivery: self.last_delivery,
        };
        for flow in &self.flows {
            if flow.delivered == flow.total && flow.total > 0 {
                delays.flows_completed += 1;
            }
            let (true, Some(key)) = (flow.first_through, flow.first_key) else {
                continue;
            };
            let setup = flow.first_left.saturating_sub(flow.first_entered);
            delays.setup_ms.push(setup.as_millis_f64());
            if let Some(ctrl) = controller_delay_of_flow.get(&key) {
                delays
                    .switch_ms
                    .push(setup.saturating_sub(*ctrl).as_millis_f64());
            }
            let forwarding = flow.last_left.saturating_sub(flow.first_entered);
            delays.forwarding_ms.push(forwarding.as_millis_f64());
        }
        delays
    }

    /// The extraction the aggregates replaced, kept as their reference:
    /// one pass over the timelines of an observed run, after it.
    #[cfg(test)]
    pub(crate) fn flow_delays_from_log(
        &self,
        controller_delay_of_flow: &FastHashMap<FlowKey, Nanos>,
    ) -> FlowDelays {
        #[derive(Clone, Default)]
        struct FlowAgg {
            first: Option<(Nanos, Nanos, FlowKey)>,
            last_left: Option<Nanos>,
            delivered: usize,
            total: usize,
        }
        let mut per_flow = vec![FlowAgg::default(); self.flows.len()];
        let mut delays = FlowDelays::default();
        for rec in self.log.as_ref().expect("an observed run") {
            let flow = &mut per_flow[rec.flow_index];
            flow.total += 1;
            if rec.delivered.is_some() {
                flow.delivered += 1;
                delays.packets_delivered += 1;
                delays.last_delivery = delays.last_delivery.max(rec.delivered);
            }
            if rec.seq_in_flow == 0 {
                if let (Some(e), Some(l)) = (rec.entered_switch, rec.left_switch) {
                    flow.first = Some((e, l, rec.flow));
                }
            }
            flow.last_left = flow.last_left.max(rec.left_switch);
        }
        for flow in &per_flow {
            if flow.delivered == flow.total && flow.total > 0 {
                delays.flows_completed += 1;
            }
            if let Some((enter, left, key)) = flow.first {
                let setup = left.saturating_sub(enter);
                delays.setup_ms.push(setup.as_millis_f64());
                if let Some(ctrl) = controller_delay_of_flow.get(&key) {
                    delays
                        .switch_ms
                        .push(setup.saturating_sub(*ctrl).as_millis_f64());
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
    fn a_record_costs_eight_bytes_and_a_flow_forty_eight() {
        assert!(std::mem::size_of::<Mark>() <= 8);
        assert!(std::mem::size_of::<FlowAgg>() <= 48);
    }
}
