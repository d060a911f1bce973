//! Control-message labels for the structured event stream: the `label` of
//! every `ctrl_msg` / `ctrl_drop` event comes from [`MsgDesc::label`]. The
//! readable control-channel log is a view over that stream (see
//! `examples/control_trace.rs`).

use sdnbuf_openflow::{MsgType, OfpMessage};

/// What the event stream records of a control message: its type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgDesc(MsgType);

impl MsgDesc {
    /// Describes a message (no allocation).
    pub fn of(msg: &OfpMessage) -> MsgDesc {
        MsgDesc(msg.msg_type())
    }

    /// The message's snake_case label, as used in the structured event
    /// stream (`ctrl_msg` events).
    pub fn label(self) -> &'static str {
        match self.0 {
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
            MsgType::PacketOut => "packet_out",
            MsgType::FlowMod => "flow_mod",
            MsgType::StatsRequest => "stats_request",
            MsgType::StatsReply => "stats_reply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptions_capture_the_message_and_label_it() {
        use sdnbuf_openflow::msg::{PacketIn, PacketInReason};
        use sdnbuf_openflow::{BufferId, PortNo};
        let pin = OfpMessage::PacketIn(PacketIn {
            buffer_id: BufferId::new(3),
            total_len: 1000,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: vec![0u8; 128].into(),
        });
        let desc = MsgDesc::of(&pin);
        assert_eq!(desc, MsgDesc(MsgType::PacketIn));
        assert_eq!(desc.label(), "packet_in");
        assert_eq!(MsgDesc::of(&OfpMessage::Hello).label(), "hello");
    }
}
