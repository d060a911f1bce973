//! The OpenFlow agent's reply-only side: requests answered from the
//! switch's configuration without touching the datapath — queries,
//! keep-alives, and errors.

use super::{Switch, SwitchOutput, COST_CONTROL_MISC, DATA_PORTS};
use crate::BufferChoice;
use sdnbuf_net::MacAddr;
use sdnbuf_openflow::{msg, FlowBufferExt, OfpMessage, PortNo, SUPPORTED_ACTIONS};
use sdnbuf_sim::Nanos;
use sdnbuf_switchbuf::BufferMechanism;
use std::borrow::Cow;

/// What `features_reply` says of the data ports: each one's number, a MAC
/// of its own and its name.
static PORTS: [msg::PhyPort; DATA_PORTS as usize] = [port(1, "eth1"), port(2, "eth2")];

const fn port(p: u16, name: &'static str) -> msg::PhyPort {
    msg::PhyPort {
        port_no: PortNo(p),
        hw_addr: MacAddr::from_host_index(0xff00 + p as u32),
        name: Cow::Borrowed(name),
    }
}

impl Switch {
    /// Answers a control message that costs one [`COST_CONTROL_MISC`] of CPU.
    pub(super) fn reply(
        &mut self,
        now: Nanos,
        xid: u32,
        msg: OfpMessage,
        out: &mut Vec<SwitchOutput>,
    ) {
        let at = self.cpu.submit(now, COST_CONTROL_MISC);
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

    /// Handles every control message that only reads the switch: the
    /// handshake's queries, echoes and the flow-buffer vendor extension.
    /// Anything else is refused with an `error`.
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
            OfpMessage::FeaturesRequest => {
                let features = msg::FeaturesReply {
                    datapath_id: 1,
                    n_buffers: self.buffer.capacity() as u32,
                    n_tables: 1,
                    capabilities: 0,
                    actions: SUPPORTED_ACTIONS,
                    ports: Cow::Borrowed(&PORTS),
                };
                self.reply(now, xid, OfpMessage::FeaturesReply(features), out)
            }
            ref vendor @ OfpMessage::Vendor(_) => match FlowBufferExt::from_message(vendor) {
                Some(Ok(FlowBufferExt::Configure { .. }))
                    if matches!(self.config.buffer, BufferChoice::FlowGranularity { .. }) =>
                {
                    // Accepted: acknowledged by silence.
                    self.cpu.submit(now, COST_CONTROL_MISC);
                }
                _ => self.reply_error(now, xid, 3, Vec::new(), out), // OFPBRC_BAD_VENDOR
            },
            // Messages a switch should never receive: OFPBRC_BAD_TYPE.
            other => self.reply_error(now, xid, 1, other.encode(xid), out),
        }
    }
}
