//! The OpenFlow agent's reply-only side: requests answered from the
//! switch's state without touching the datapath (flow table contents,
//! buffer, session) — queries, keep-alives, and errors.

use super::{split_duration, whole_secs, Switch, SwitchOutput};
use sdnbuf_flowtable::FlowRule;
use sdnbuf_openflow::{
    msg::{self, StatsReply, StatsRequest},
    FlowBufferExt, Match, OfpMessage, PortNo,
};
use sdnbuf_sim::Nanos;

impl Switch {
    /// Answers a control message that costs one `cost_control_misc` of CPU.
    pub(super) fn reply(
        &mut self,
        now: Nanos,
        xid: u32,
        msg: OfpMessage,
        out: &mut Vec<SwitchOutput>,
    ) {
        let at = self.cpu.submit(now, self.config.cost_control_misc);
        out.push(SwitchOutput::ToController { at, xid, msg });
    }

    fn reply_error(
        &mut self,
        now: Nanos,
        xid: u32,
        code: u16,
        data: Vec<u8>,
        out: &mut Vec<SwitchOutput>,
    ) {
        let error = msg::ErrorMsg {
            err_type: 1, // OFPET_BAD_REQUEST
            code,
            data,
        };
        self.reply(now, xid, OfpMessage::Error(error), out)
    }

    /// Handles every control message that only reads the switch.
    pub(super) fn answer(
        &mut self,
        now: Nanos,
        msg: OfpMessage,
        xid: u32,
        out: &mut Vec<SwitchOutput>,
    ) {
        match msg {
            OfpMessage::GetConfigRequest => {
                let config = msg::SwitchConfig {
                    flags: 0,
                    miss_send_len: self.miss_send_len,
                };
                self.reply(now, xid, OfpMessage::GetConfigReply(config), out)
            }
            OfpMessage::EchoRequest(data) => self.reply(now, xid, OfpMessage::EchoReply(data), out),
            OfpMessage::BarrierRequest => self.reply(now, xid, OfpMessage::BarrierReply, out),
            OfpMessage::FeaturesRequest => {
                let ports = (1..=self.config.data_ports as u16)
                    .map(|p| msg::PhyPort {
                        port_no: PortNo(p),
                        hw_addr: sdnbuf_net::MacAddr::from_host_index(0xff00 + u32::from(p)),
                        name: format!("eth{p}"),
                    })
                    .collect();
                let features = msg::FeaturesReply {
                    datapath_id: 1,
                    n_buffers: self.buffer.capacity() as u32,
                    n_tables: 1,
                    capabilities: 0,
                    actions: 0xfff,
                    ports,
                };
                self.reply(now, xid, OfpMessage::FeaturesReply(features), out)
            }
            OfpMessage::StatsRequest(req) => self.answer_stats(now, xid, req, out),
            OfpMessage::QueueGetConfigRequest(port) => {
                let queues = self
                    .config
                    .egress_queue_rates
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| msg::PacketQueue {
                        queue_id: i as u32,
                        min_rate_tenths_percent: r,
                    })
                    .collect();
                let reply = OfpMessage::QueueGetConfigReply { port, queues };
                self.reply(now, xid, reply, out)
            }
            OfpMessage::PortMod(_) => {
                // Port administration is modeled as a no-op acknowledgement
                // (the testbed's ports are always up).
                self.cpu.submit(now, self.config.cost_control_misc);
            }
            ref vendor @ OfpMessage::Vendor(_) => match FlowBufferExt::from_message(vendor) {
                Some(Ok(FlowBufferExt::Configure { .. }))
                    if self.buffer.name() == "flow-granularity" =>
                {
                    // Accepted: acknowledged by silence.
                    self.cpu.submit(now, self.config.cost_control_misc);
                }
                _ => self.reply_error(now, xid, 3, Vec::new(), out), // OFPBRC_BAD_VENDOR
            },
            // Messages a switch should never receive: OFPBRC_BAD_TYPE.
            other => self.reply_error(now, xid, 1, other.encode(xid), out),
        }
    }

    fn answer_stats(
        &mut self,
        now: Nanos,
        xid: u32,
        req: StatsRequest,
        out: &mut Vec<SwitchOutput>,
    ) {
        let per_rule = self.config.cost_control_misc;
        let cost = self.config.cost_control_misc + per_rule * self.table.len() as u64;
        let at = self.cpu.submit(now, cost);
        let matching = |m: &Match| -> Vec<&FlowRule> {
            self.table
                .iter()
                .filter(|r| *m == Match::any() || r.match_fields == *m)
                .collect()
        };
        let reply = match req {
            StatsRequest::Desc => StatsReply::Desc(msg::DescStats {
                mfr_desc: "sdn-buffer-lab".to_owned(),
                hw_desc: "discrete-event switch model".to_owned(),
                sw_desc: format!("sdnbuf-switch ({})", self.buffer.name()),
                serial_num: "0001".to_owned(),
                dp_desc: "Fig.1 testbed switch".to_owned(),
            }),
            StatsRequest::Table => StatsReply::Table(vec![msg::TableStatsEntry {
                table_id: 0,
                name: "main".to_owned(),
                wildcards: sdnbuf_openflow::Wildcards::ALL.bits(),
                max_entries: self.table.capacity() as u32,
                active_count: self.table.len() as u32,
                lookup_count: self.table.lookups(),
                matched_count: self.table.hits(),
            }]),
            StatsRequest::Port { port_no } => {
                let wanted = |p: u16| port_no == PortNo::NONE || port_no.as_u16() == p;
                let entries = self.stats.ports.iter().filter(|(&p, _)| wanted(p));
                StatsReply::Port(
                    entries
                        .map(|(&p, c)| msg::PortStatsEntry {
                            port_no: PortNo(p),
                            rx_packets: c.rx_packets,
                            tx_packets: c.tx_packets,
                            rx_bytes: c.rx_bytes,
                            tx_bytes: c.tx_bytes,
                            rx_dropped: 0,
                            tx_dropped: 0,
                        })
                        .collect(),
                )
            }
            StatsRequest::Flow { match_fields, .. } => StatsReply::Flow(
                matching(&match_fields)
                    .into_iter()
                    .map(|r| {
                        let (duration_sec, duration_nsec) =
                            split_duration(now.saturating_sub(r.installed_at));
                        msg::FlowStatsEntry {
                            table_id: 0,
                            match_fields: r.match_fields,
                            duration_sec,
                            duration_nsec,
                            priority: r.priority,
                            idle_timeout: whole_secs(r.idle_timeout),
                            hard_timeout: whole_secs(r.hard_timeout),
                            cookie: r.cookie,
                            packet_count: r.packet_count,
                            byte_count: r.byte_count,
                            actions: r.actions.clone(),
                        }
                    })
                    .collect(),
            ),
            StatsRequest::Aggregate { match_fields, .. } => {
                let rules = matching(&match_fields);
                StatsReply::Aggregate {
                    packet_count: rules.iter().map(|r| r.packet_count).sum(),
                    byte_count: rules.iter().map(|r| r.byte_count).sum(),
                    flow_count: rules.len() as u32,
                }
            }
        };
        out.push(SwitchOutput::ToController {
            at,
            xid,
            msg: OfpMessage::StatsReply(reply),
        });
    }
}
