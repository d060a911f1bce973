//! Control-message descriptions for the structured event stream: the
//! `label` of every `ctrl_msg` / `ctrl_drop` event comes from
//! [`MsgDesc::label`]. The readable control-channel log is a view over
//! that stream (see `examples/control_trace.rs`).

use sdnbuf_openflow::msg::FlowModCommand;
use sdnbuf_openflow::{BufferId, Match, MsgType, OfpMessage, PortNo};

/// A compact, allocation-free description of a control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgDesc {
    /// A `packet_in`: buffer reference, carried bytes, original size, port.
    PacketIn {
        /// Buffer the miss packet was filed under (or `NO_BUFFER`).
        buffer_id: BufferId,
        /// Bytes carried in the message.
        data_len: u32,
        /// Original packet size on the wire.
        total_len: u32,
        /// Ingress port of the miss packet.
        in_port: PortNo,
    },
    /// A `packet_out`: buffer reference, action count, inline data bytes.
    PacketOut {
        /// Buffer the release applies to (or `NO_BUFFER`).
        buffer_id: BufferId,
        /// Number of actions attached.
        actions: u16,
        /// Inline payload bytes (0 when releasing a buffered packet).
        data_len: u32,
    },
    /// A `flow_mod`: command plus the rule's match.
    FlowMod {
        /// Add / modify / delete.
        command: FlowModCommand,
        /// The rule's match fields.
        match_fields: Match,
    },
    /// Any other message, described by its type alone.
    Other(MsgType),
}

impl MsgDesc {
    /// Captures the description of a message (no allocation).
    pub fn of(msg: &OfpMessage) -> MsgDesc {
        match msg {
            OfpMessage::PacketIn(p) => MsgDesc::PacketIn {
                buffer_id: p.buffer_id,
                data_len: p.data.len() as u32,
                total_len: p.total_len as u32,
                in_port: p.in_port,
            },
            OfpMessage::PacketOut(p) => MsgDesc::PacketOut {
                buffer_id: p.buffer_id,
                actions: p.actions.len() as u16,
                data_len: p.data.len() as u32,
            },
            OfpMessage::FlowMod(m) => MsgDesc::FlowMod {
                command: m.command,
                match_fields: m.match_fields,
            },
            other => MsgDesc::Other(other.msg_type()),
        }
    }

    /// The message's snake_case label, as used in the structured event
    /// stream (`ctrl_msg` events).
    pub fn label(self) -> &'static str {
        match self {
            MsgDesc::PacketIn { .. } => "packet_in",
            MsgDesc::PacketOut { .. } => "packet_out",
            MsgDesc::FlowMod { .. } => "flow_mod",
            MsgDesc::Other(t) => match t {
                MsgType::Hello => "hello",
                MsgType::Error => "error",
                MsgType::EchoRequest => "echo_request",
                MsgType::EchoReply => "echo_reply",
                MsgType::Vendor => "vendor",
                MsgType::FeaturesRequest => "features_request",
                MsgType::FeaturesReply => "features_reply",
                MsgType::GetConfigRequest => "get_config_request",
                MsgType::GetConfigReply => "get_config_reply",
                MsgType::SetConfig => "set_config",
                MsgType::PacketIn => "packet_in",
                MsgType::FlowRemoved => "flow_removed",
                MsgType::PortStatus => "port_status",
                MsgType::PacketOut => "packet_out",
                MsgType::FlowMod => "flow_mod",
                MsgType::PortMod => "port_mod",
                MsgType::StatsRequest => "stats_request",
                MsgType::StatsReply => "stats_reply",
                MsgType::BarrierRequest => "barrier_request",
                MsgType::BarrierReply => "barrier_reply",
                MsgType::QueueGetConfigRequest => "queue_get_config_request",
                MsgType::QueueGetConfigReply => "queue_get_config_reply",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptions_capture_the_message_and_label_it() {
        use sdnbuf_openflow::msg::{PacketIn, PacketInReason};
        let pin = OfpMessage::PacketIn(PacketIn {
            buffer_id: BufferId::new(3),
            total_len: 1000,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: vec![0u8; 128].into(),
        });
        let desc = MsgDesc::of(&pin);
        assert_eq!(
            desc,
            MsgDesc::PacketIn {
                buffer_id: BufferId::new(3),
                data_len: 128,
                total_len: 1000,
                in_port: PortNo(1),
            }
        );
        assert_eq!(desc.label(), "packet_in");
        assert_eq!(MsgDesc::of(&OfpMessage::Hello).label(), "hello");
    }
}
