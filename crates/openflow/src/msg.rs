//! The OpenFlow 1.0 messages the switch and controller exchange, and their
//! binary wire codec.
//!
//! [`OfpMessage`] has one variant per message a run can carry: the session
//! handshake (`hello`, `features`, `get_config` / `set_config`), the
//! paper's request/response loop (`packet_in` → `flow_mod` / `packet_out`),
//! the flow-buffer vendor extension and keep-alive echoes — plus `error`,
//! the reply to hostile input, and `flow_removed`, for rules installed with
//! [`OFPFF_SEND_FLOW_REM`]. Each encodes to the exact byte layout of the
//! OpenFlow 1.0.0 specification and decodes back losslessly. Any other type
//! code decodes to a typed [`OfpError`]. Encoded lengths drive
//! the paper's control-path-load measurements, so they are asserted against
//! the spec's struct sizes in this module's tests.

use crate::wire;
use crate::{
    consts, Action, ActionList, BufferId, FlowBufferExt, Match, MsgType, OfpError, OfpHeader,
    PortNo, FLOW_BUFFER_VENDOR_ID, OFP_HEADER_LEN, OFP_MATCH_LEN,
};
use sdnbuf_net::{MacAddr, WireFrame};
use std::fmt;

/// Why a `packet_in` was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketInReason {
    /// No matching flow (table miss) — the case the whole paper is about.
    NoMatch,
    /// An explicit `output:CONTROLLER` action.
    Action,
}

impl PacketInReason {
    fn as_u8(self) -> u8 {
        match self {
            PacketInReason::NoMatch => 0,
            PacketInReason::Action => 1,
        }
    }

    fn from_u8(v: u8) -> Self {
        if v == 1 {
            PacketInReason::Action
        } else {
            PacketInReason::NoMatch
        }
    }
}

/// A `packet_in` message: the switch's request to the controller for a
/// forwarding decision (the paper's `pkt_in`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PacketIn {
    /// Id of the buffered packet, or [`BufferId::NO_BUFFER`] when the full
    /// packet is in `data`.
    pub buffer_id: BufferId,
    /// Full length of the original frame.
    pub total_len: u16,
    /// Ingress port.
    pub in_port: PortNo,
    /// Why the packet was sent up.
    pub reason: PacketInReason,
    /// Packet bytes: the whole frame without buffering, or the first
    /// `miss_send_len` bytes when buffered.
    pub data: WireFrame,
}

/// A `packet_out` message: the controller instructing the switch to emit a
/// packet (the paper's `pkt_out`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PacketOut {
    /// The buffered packet to release, or [`BufferId::NO_BUFFER`] when the
    /// packet rides in `data`.
    pub buffer_id: BufferId,
    /// The port the packet originally arrived on (`NONE` if generated).
    pub in_port: PortNo,
    /// Actions to apply; empty list drops.
    pub actions: ActionList,
    /// The full packet, only when `buffer_id` is `NO_BUFFER`.
    pub data: WireFrame,
}

/// `flow_mod` commands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror the specification
pub enum FlowModCommand {
    Add,
    Modify,
    ModifyStrict,
    Delete,
    DeleteStrict,
}

impl FlowModCommand {
    fn as_u16(self) -> u16 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::Modify => 1,
            FlowModCommand::ModifyStrict => 2,
            FlowModCommand::Delete => 3,
            FlowModCommand::DeleteStrict => 4,
        }
    }

    fn from_u16(v: u16) -> Self {
        match v {
            1 => FlowModCommand::Modify,
            2 => FlowModCommand::ModifyStrict,
            3 => FlowModCommand::Delete,
            4 => FlowModCommand::DeleteStrict,
            _ => FlowModCommand::Add,
        }
    }
}

/// Send a `flow_removed` when the rule expires (`OFPFF_SEND_FLOW_REM`).
pub const OFPFF_SEND_FLOW_REM: u16 = 1 << 0;

/// A `flow_mod` message: installs, modifies or deletes a flow rule.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FlowMod {
    /// Fields to match.
    pub match_fields: Match,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// What to do.
    pub command: FlowModCommand,
    /// Idle timeout in seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 = none).
    pub hard_timeout: u16,
    /// Rule priority (higher wins).
    pub priority: u16,
    /// If valid, apply this rule's actions to that buffered packet too.
    pub buffer_id: BufferId,
    /// For delete commands: restrict to rules outputting here.
    pub out_port: PortNo,
    /// `OFPFF_*` flags.
    pub flags: u16,
    /// Actions of the rule.
    pub actions: ActionList,
}

/// Why a flow rule was removed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FlowRemovedReason {
    IdleTimeout,
    HardTimeout,
    Delete,
}

impl FlowRemovedReason {
    fn as_u8(self) -> u8 {
        match self {
            FlowRemovedReason::IdleTimeout => 0,
            FlowRemovedReason::HardTimeout => 1,
            FlowRemovedReason::Delete => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => FlowRemovedReason::HardTimeout,
            2 => FlowRemovedReason::Delete,
            _ => FlowRemovedReason::IdleTimeout,
        }
    }
}

/// A `flow_removed` message: the switch notifying rule expiry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FlowRemoved {
    /// The rule's match.
    pub match_fields: Match,
    /// The rule's cookie.
    pub cookie: u64,
    /// The rule's priority.
    pub priority: u16,
    /// Why it was removed.
    pub reason: FlowRemovedReason,
    /// Rule lifetime, seconds part.
    pub duration_sec: u32,
    /// Rule lifetime, nanoseconds part.
    pub duration_nsec: u32,
    /// The rule's idle timeout.
    pub idle_timeout: u16,
    /// Packets matched over the rule's lifetime.
    pub packet_count: u64,
    /// Bytes matched over the rule's lifetime.
    pub byte_count: u64,
}

/// A physical port description in `features_reply`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PhyPort {
    /// Port number.
    pub port_no: PortNo,
    /// MAC address of the port.
    pub hw_addr: MacAddr,
    /// Human-readable name (at most 15 bytes + NUL on the wire).
    pub name: String,
}

/// A `features_reply`: the switch describing itself.
///
/// `n_buffers` is where a real switch advertises how many packets it can
/// buffer — the very resource the paper studies.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FeaturesReply {
    /// Datapath id.
    pub datapath_id: u64,
    /// Max packets the switch can buffer at once.
    pub n_buffers: u32,
    /// Number of flow tables.
    pub n_tables: u8,
    /// Capability bitmap.
    pub capabilities: u32,
    /// Supported-actions bitmap.
    pub actions: u32,
    /// Physical ports.
    pub ports: Vec<PhyPort>,
}

/// Switch configuration (`get_config_reply` / `set_config` body).
///
/// `miss_send_len` is the knob the paper turns: how many bytes of a buffered
/// miss-match packet are sent to the controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SwitchConfig {
    /// Fragment-handling flags (unused by the testbed).
    pub flags: u16,
    /// Bytes of each buffered miss-match packet copied into `packet_in`.
    pub miss_send_len: u16,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            flags: 0,
            miss_send_len: consts::OFP_DEFAULT_MISS_SEND_LEN,
        }
    }
}

/// An `error` message.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ErrorMsg {
    /// High-level error type.
    pub err_type: u16,
    /// Type-specific code.
    pub code: u16,
    /// At least 64 bytes of the offending request.
    pub data: Vec<u8>,
}

/// A vendor/experimenter message.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Vendor {
    /// Vendor id.
    pub vendor: u32,
    /// Opaque vendor payload.
    pub data: Vec<u8>,
}

/// Any OpenFlow 1.0 message this implementation speaks.
///
/// # Example
///
/// ```
/// use sdnbuf_openflow::OfpMessage;
/// let bytes = OfpMessage::Hello.encode(1);
/// assert_eq!(bytes.len(), 8);
/// assert_eq!(OfpMessage::decode(&bytes).unwrap(), (OfpMessage::Hello, 1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names mirror the specification message names
pub enum OfpMessage {
    Hello,
    Error(ErrorMsg),
    EchoRequest(Vec<u8>),
    EchoReply(Vec<u8>),
    Vendor(Vendor),
    FeaturesRequest,
    FeaturesReply(FeaturesReply),
    GetConfigRequest,
    GetConfigReply(SwitchConfig),
    SetConfig(SwitchConfig),
    PacketIn(PacketIn),
    FlowRemoved(FlowRemoved),
    PacketOut(PacketOut),
    FlowMod(FlowMod),
}

impl From<FlowBufferExt> for OfpMessage {
    fn from(ext: FlowBufferExt) -> Self {
        OfpMessage::Vendor(Vendor {
            vendor: FLOW_BUFFER_VENDOR_ID,
            data: ext.encode_payload(),
        })
    }
}

impl OfpMessage {
    /// The message type code of this message.
    pub fn msg_type(&self) -> MsgType {
        match self {
            OfpMessage::Hello => MsgType::Hello,
            OfpMessage::Error(_) => MsgType::Error,
            OfpMessage::EchoRequest(_) => MsgType::EchoRequest,
            OfpMessage::EchoReply(_) => MsgType::EchoReply,
            OfpMessage::Vendor(_) => MsgType::Vendor,
            OfpMessage::FeaturesRequest => MsgType::FeaturesRequest,
            OfpMessage::FeaturesReply(_) => MsgType::FeaturesReply,
            OfpMessage::GetConfigRequest => MsgType::GetConfigRequest,
            OfpMessage::GetConfigReply(_) => MsgType::GetConfigReply,
            OfpMessage::SetConfig(_) => MsgType::SetConfig,
            OfpMessage::PacketIn(_) => MsgType::PacketIn,
            OfpMessage::FlowRemoved(_) => MsgType::FlowRemoved,
            OfpMessage::PacketOut(_) => MsgType::PacketOut,
            OfpMessage::FlowMod(_) => MsgType::FlowMod,
        }
    }

    /// The exact wire length in bytes, without encoding.
    ///
    /// The simulation meters control-path load from this, so it must equal
    /// `self.encode(x).len()` — a property the tests enforce.
    pub fn wire_len(&self) -> usize {
        OFP_HEADER_LEN
            + match self {
                OfpMessage::Hello | OfpMessage::FeaturesRequest | OfpMessage::GetConfigRequest => 0,
                OfpMessage::Error(e) => 4 + e.data.len(),
                OfpMessage::EchoRequest(d) | OfpMessage::EchoReply(d) => d.len(),
                OfpMessage::Vendor(v) => 4 + v.data.len(),
                OfpMessage::FeaturesReply(f) => 24 + f.ports.len() * consts::OFP_PHY_PORT_LEN,
                OfpMessage::GetConfigReply(_) | OfpMessage::SetConfig(_) => 4,
                OfpMessage::PacketIn(p) => 10 + p.data.len(),
                OfpMessage::FlowRemoved(_) => consts::OFP_FLOW_REMOVED_LEN - OFP_HEADER_LEN,
                OfpMessage::PacketOut(p) => 8 + Action::list_len(&p.actions) + p.data.len(),
                OfpMessage::FlowMod(f) => 64 + Action::list_len(&f.actions),
            }
    }

    /// Encodes this message with the given transaction id.
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        let length = self.wire_len();
        let mut buf = Vec::with_capacity(length);
        OfpHeader {
            msg_type: self.msg_type(),
            length: length as u16,
            xid,
        }
        .encode_into(&mut buf);
        match self {
            OfpMessage::Hello | OfpMessage::FeaturesRequest | OfpMessage::GetConfigRequest => {}
            OfpMessage::Error(e) => {
                buf.extend_from_slice(&e.err_type.to_be_bytes());
                buf.extend_from_slice(&e.code.to_be_bytes());
                buf.extend_from_slice(&e.data);
            }
            OfpMessage::EchoRequest(d) | OfpMessage::EchoReply(d) => buf.extend_from_slice(d),
            OfpMessage::Vendor(v) => {
                buf.extend_from_slice(&v.vendor.to_be_bytes());
                buf.extend_from_slice(&v.data);
            }
            OfpMessage::FeaturesReply(f) => {
                buf.extend_from_slice(&f.datapath_id.to_be_bytes());
                buf.extend_from_slice(&f.n_buffers.to_be_bytes());
                buf.push(f.n_tables);
                buf.extend_from_slice(&[0, 0, 0]); // pad
                buf.extend_from_slice(&f.capabilities.to_be_bytes());
                buf.extend_from_slice(&f.actions.to_be_bytes());
                for p in &f.ports {
                    encode_phy_port(&mut buf, p);
                }
            }
            OfpMessage::GetConfigReply(c) | OfpMessage::SetConfig(c) => {
                buf.extend_from_slice(&c.flags.to_be_bytes());
                buf.extend_from_slice(&c.miss_send_len.to_be_bytes());
            }
            OfpMessage::PacketIn(p) => {
                buf.extend_from_slice(&p.buffer_id.as_u32().to_be_bytes());
                buf.extend_from_slice(&p.total_len.to_be_bytes());
                buf.extend_from_slice(&p.in_port.as_u16().to_be_bytes());
                buf.push(p.reason.as_u8());
                buf.push(0); // pad
                p.data.append_to(&mut buf);
            }
            OfpMessage::FlowRemoved(fr) => {
                fr.match_fields.encode_into(&mut buf);
                buf.extend_from_slice(&fr.cookie.to_be_bytes());
                buf.extend_from_slice(&fr.priority.to_be_bytes());
                buf.push(fr.reason.as_u8());
                buf.push(0); // pad
                buf.extend_from_slice(&fr.duration_sec.to_be_bytes());
                buf.extend_from_slice(&fr.duration_nsec.to_be_bytes());
                buf.extend_from_slice(&fr.idle_timeout.to_be_bytes());
                buf.extend_from_slice(&[0, 0]); // pad
                buf.extend_from_slice(&fr.packet_count.to_be_bytes());
                buf.extend_from_slice(&fr.byte_count.to_be_bytes());
            }
            OfpMessage::PacketOut(p) => {
                buf.extend_from_slice(&p.buffer_id.as_u32().to_be_bytes());
                buf.extend_from_slice(&p.in_port.as_u16().to_be_bytes());
                buf.extend_from_slice(&(Action::list_len(&p.actions) as u16).to_be_bytes());
                Action::encode_list(&p.actions, &mut buf);
                p.data.append_to(&mut buf);
            }
            OfpMessage::FlowMod(f) => {
                f.match_fields.encode_into(&mut buf);
                buf.extend_from_slice(&f.cookie.to_be_bytes());
                buf.extend_from_slice(&f.command.as_u16().to_be_bytes());
                buf.extend_from_slice(&f.idle_timeout.to_be_bytes());
                buf.extend_from_slice(&f.hard_timeout.to_be_bytes());
                buf.extend_from_slice(&f.priority.to_be_bytes());
                buf.extend_from_slice(&f.buffer_id.as_u32().to_be_bytes());
                buf.extend_from_slice(&f.out_port.as_u16().to_be_bytes());
                buf.extend_from_slice(&f.flags.to_be_bytes());
                Action::encode_list(&f.actions, &mut buf);
            }
        }
        debug_assert_eq!(buf.len(), length, "wire_len disagrees with encoding");
        buf
    }

    /// Decodes one message; returns it with its transaction id. Trailing
    /// bytes beyond the header's length field are ignored.
    ///
    /// # Errors
    ///
    /// Any [`OfpError`] raised by the header or body codecs.
    pub fn decode(buf: &[u8]) -> Result<(OfpMessage, u32), OfpError> {
        let header = OfpHeader::decode(buf)?;
        let body = &buf[OFP_HEADER_LEN..header.length as usize];
        let msg = match header.msg_type {
            MsgType::Hello => OfpMessage::Hello,
            MsgType::Error => OfpMessage::Error(ErrorMsg {
                err_type: wire::get_u16(body, 0)?,
                code: wire::get_u16(body, 2)?,
                data: body[4.min(body.len())..].to_vec(),
            }),
            MsgType::EchoRequest => OfpMessage::EchoRequest(body.to_vec()),
            MsgType::EchoReply => OfpMessage::EchoReply(body.to_vec()),
            MsgType::Vendor => OfpMessage::Vendor(Vendor {
                vendor: wire::get_u32(body, 0)?,
                data: body[4..].to_vec(),
            }),
            MsgType::FeaturesRequest => OfpMessage::FeaturesRequest,
            MsgType::FeaturesReply => {
                wire::need(body, 24)?;
                let n_ports = (body.len() - 24) / consts::OFP_PHY_PORT_LEN;
                let mut ports = Vec::with_capacity(n_ports);
                for i in 0..n_ports {
                    let at = 24 + i * consts::OFP_PHY_PORT_LEN;
                    ports.push(decode_phy_port(&body[at..])?);
                }
                OfpMessage::FeaturesReply(FeaturesReply {
                    datapath_id: wire::get_u64(body, 0)?,
                    n_buffers: wire::get_u32(body, 8)?,
                    n_tables: wire::get_u8(body, 12)?,
                    capabilities: wire::get_u32(body, 16)?,
                    actions: wire::get_u32(body, 20)?,
                    ports,
                })
            }
            MsgType::GetConfigRequest => OfpMessage::GetConfigRequest,
            MsgType::GetConfigReply | MsgType::SetConfig => {
                let c = SwitchConfig {
                    flags: wire::get_u16(body, 0)?,
                    miss_send_len: wire::get_u16(body, 2)?,
                };
                if header.msg_type == MsgType::SetConfig {
                    OfpMessage::SetConfig(c)
                } else {
                    OfpMessage::GetConfigReply(c)
                }
            }
            MsgType::PacketIn => {
                wire::need(body, 10)?;
                OfpMessage::PacketIn(PacketIn {
                    buffer_id: BufferId::from_wire(wire::get_u32(body, 0)?),
                    total_len: wire::get_u16(body, 4)?,
                    in_port: PortNo(wire::get_u16(body, 6)?),
                    reason: PacketInReason::from_u8(wire::get_u8(body, 8)?),
                    data: body[10..].into(),
                })
            }
            MsgType::FlowRemoved => {
                wire::need(body, consts::OFP_FLOW_REMOVED_LEN - OFP_HEADER_LEN)?;
                OfpMessage::FlowRemoved(FlowRemoved {
                    match_fields: Match::decode(body)?,
                    cookie: wire::get_u64(body, 40)?,
                    priority: wire::get_u16(body, 48)?,
                    reason: FlowRemovedReason::from_u8(wire::get_u8(body, 50)?),
                    duration_sec: wire::get_u32(body, 52)?,
                    duration_nsec: wire::get_u32(body, 56)?,
                    idle_timeout: wire::get_u16(body, 60)?,
                    packet_count: wire::get_u64(body, 64)?,
                    byte_count: wire::get_u64(body, 72)?,
                })
            }
            MsgType::PacketOut => {
                wire::need(body, 8)?;
                let actions_len = wire::get_u16(body, 6)? as usize;
                let actions = Action::decode_list(&body[8..], actions_len)?;
                OfpMessage::PacketOut(PacketOut {
                    buffer_id: BufferId::from_wire(wire::get_u32(body, 0)?),
                    in_port: PortNo(wire::get_u16(body, 4)?),
                    actions,
                    data: body[8 + actions_len..].into(),
                })
            }
            MsgType::FlowMod => {
                wire::need(body, 64)?;
                let actions = Action::decode_list(&body[64..], body.len() - 64)?;
                OfpMessage::FlowMod(FlowMod {
                    match_fields: Match::decode(body)?,
                    cookie: wire::get_u64(body, OFP_MATCH_LEN)?,
                    command: FlowModCommand::from_u16(wire::get_u16(body, 48)?),
                    idle_timeout: wire::get_u16(body, 50)?,
                    hard_timeout: wire::get_u16(body, 52)?,
                    priority: wire::get_u16(body, 54)?,
                    buffer_id: BufferId::from_wire(wire::get_u32(body, 56)?),
                    out_port: PortNo(wire::get_u16(body, 60)?),
                    flags: wire::get_u16(body, 62)?,
                    actions,
                })
            }
        };
        Ok((msg, header.xid))
    }
}

fn encode_phy_port(buf: &mut Vec<u8>, p: &PhyPort) {
    buf.extend_from_slice(&p.port_no.as_u16().to_be_bytes());
    buf.extend_from_slice(&p.hw_addr.octets());
    let mut name = [0u8; 16];
    let n = p.name.len().min(15);
    name[..n].copy_from_slice(&p.name.as_bytes()[..n]);
    buf.extend_from_slice(&name);
    buf.extend_from_slice(&[0u8; 24]); // config..peer, unused
}

fn decode_phy_port(body: &[u8]) -> Result<PhyPort, OfpError> {
    wire::need(body, consts::OFP_PHY_PORT_LEN)?;
    let mut hw = [0u8; 6];
    hw.copy_from_slice(&body[2..8]);
    let raw_name = &body[8..24];
    let name_end = raw_name.iter().position(|&b| b == 0).unwrap_or(16);
    Ok(PhyPort {
        port_no: PortNo(wire::get_u16(body, 0)?),
        hw_addr: hw.into(),
        name: String::from_utf8_lossy(&raw_name[..name_end]).into_owned(),
    })
}

impl fmt::Display for OfpMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfpMessage::PacketIn(p) => write!(
                f,
                "packet_in({}, {}B of {}B, {})",
                p.buffer_id,
                p.data.len(),
                p.total_len,
                p.in_port
            ),
            OfpMessage::PacketOut(p) => {
                write!(f, "packet_out({}, {} actions", p.buffer_id, p.actions.len())?;
                if !p.data.is_empty() {
                    write!(f, ", {}B data", p.data.len())?;
                }
                write!(f, ")")
            }
            OfpMessage::FlowMod(m) => {
                write!(f, "flow_mod({:?}, {})", m.command, m.match_fields)
            }
            other => write!(f, "{}", other.msg_type()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_net::PacketBuilder;

    fn sample_match() -> Match {
        let pkt = PacketBuilder::udp().src_port(7).build();
        Match::exact_from_packet(PortNo(1), &pkt)
    }

    fn round_trip(msg: OfpMessage) {
        let bytes = msg.encode(0x1234_5678);
        assert_eq!(bytes.len(), msg.wire_len(), "wire_len mismatch for {msg}");
        let (back, xid) = OfpMessage::decode(&bytes).unwrap();
        assert_eq!(back, msg);
        assert_eq!(xid, 0x1234_5678);
    }

    /// Every control message lives in the testbed's message pool and is
    /// moved through the handlers by value, so its size is per-message
    /// work: two cache lines hold the largest one, a `packet_out` (an
    /// 80-byte `WireFrame` beside an inline action list).
    #[test]
    fn messages_stay_two_cache_lines() {
        assert!(std::mem::size_of::<OfpMessage>() <= 128);
    }

    #[test]
    fn messages_can_be_shared_across_threads() {
        fn send_and_sync<T: Send + Sync>() {}
        send_and_sync::<OfpMessage>();
    }

    #[test]
    fn hello_and_bodiless_requests_are_bare_headers() {
        for msg in [
            OfpMessage::Hello,
            OfpMessage::FeaturesRequest,
            OfpMessage::GetConfigRequest,
        ] {
            assert_eq!(msg.wire_len(), 8);
            round_trip(msg);
        }
    }

    #[test]
    fn echo_round_trip() {
        round_trip(OfpMessage::EchoRequest(vec![1, 2, 3]));
        round_trip(OfpMessage::EchoReply(vec![]));
    }

    #[test]
    fn error_round_trip() {
        round_trip(OfpMessage::Error(ErrorMsg {
            err_type: 3,
            code: 1,
            data: vec![0xab; 64],
        }));
    }

    #[test]
    fn vendor_round_trip() {
        round_trip(OfpMessage::Vendor(Vendor {
            vendor: FLOW_BUFFER_VENDOR_ID,
            data: FlowBufferExt::Announce {
                capacity: 256,
                timeout_ms: 50,
            }
            .encode_payload(),
        }));
    }

    #[test]
    fn features_reply_round_trip_and_size() {
        let msg = OfpMessage::FeaturesReply(FeaturesReply {
            datapath_id: 0x00_00_00_00_00_00_00_01,
            n_buffers: 256,
            n_tables: 1,
            capabilities: 0,
            actions: crate::SUPPORTED_ACTIONS,
            ports: vec![
                PhyPort {
                    port_no: PortNo(1),
                    hw_addr: MacAddr::from_host_index(1),
                    name: "eth1".to_owned(),
                },
                PhyPort {
                    port_no: PortNo(2),
                    hw_addr: MacAddr::from_host_index(2),
                    name: "eth2".to_owned(),
                },
            ],
        });
        // ofp_switch_features is 32 bytes + 48 per port.
        assert_eq!(msg.wire_len(), 32 + 2 * 48);
        round_trip(msg);
    }

    #[test]
    fn long_port_names_are_truncated_not_lost() {
        let msg = OfpMessage::FeaturesReply(FeaturesReply {
            datapath_id: 1,
            n_buffers: 0,
            n_tables: 1,
            capabilities: 0,
            actions: 0,
            ports: vec![PhyPort {
                port_no: PortNo(1),
                hw_addr: MacAddr::ZERO,
                name: "a-very-long-interface-name".to_owned(),
            }],
        });
        let (back, _) = OfpMessage::decode(&msg.encode(0)).unwrap();
        if let OfpMessage::FeaturesReply(f) = back {
            assert_eq!(f.ports[0].name, "a-very-long-int"); // 15 bytes + NUL
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn switch_config_round_trip_and_size() {
        let c = SwitchConfig {
            flags: 0,
            miss_send_len: 128,
        };
        let msg = OfpMessage::SetConfig(c);
        assert_eq!(msg.wire_len(), consts::OFP_SWITCH_CONFIG_LEN);
        round_trip(msg);
        round_trip(OfpMessage::GetConfigReply(c));
        assert_eq!(SwitchConfig::default().miss_send_len, 128);
    }

    #[test]
    fn packet_in_sizes_match_spec() {
        // Without buffering: full 1000-byte frame rides along -> 1018 bytes.
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        let full = OfpMessage::PacketIn(PacketIn {
            buffer_id: BufferId::NO_BUFFER,
            total_len: 1000,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: pkt.wire(),
        });
        assert_eq!(full.wire_len(), 1018);
        round_trip(full);

        // With buffering: only 128 header bytes -> 146 bytes.
        let buffered = OfpMessage::PacketIn(PacketIn {
            buffer_id: BufferId::new(9),
            total_len: 1000,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: pkt.wire_prefix(128),
        });
        assert_eq!(buffered.wire_len(), 146);
        round_trip(buffered);
    }

    #[test]
    fn packet_out_sizes_match_spec() {
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        // Buffered: no data, one output action -> 16 + 8 = 24 bytes.
        let buffered = OfpMessage::PacketOut(PacketOut {
            buffer_id: BufferId::new(9),
            in_port: PortNo(1),
            actions: vec![Action::output(PortNo(2))].into(),
            data: WireFrame::new(),
        });
        assert_eq!(buffered.wire_len(), 24);
        round_trip(buffered);

        // Unbuffered: whole frame rides along -> 24 + 1000.
        let full = OfpMessage::PacketOut(PacketOut {
            buffer_id: BufferId::NO_BUFFER,
            in_port: PortNo(1),
            actions: vec![Action::output(PortNo(2))].into(),
            data: pkt.encode().into(),
        });
        assert_eq!(full.wire_len(), 1024);
        round_trip(full);
    }

    #[test]
    fn flow_mod_size_matches_spec() {
        let msg = OfpMessage::FlowMod(FlowMod {
            match_fields: sample_match(),
            cookie: 42,
            command: FlowModCommand::Add,
            idle_timeout: 5,
            hard_timeout: 0,
            priority: 100,
            buffer_id: BufferId::NO_BUFFER,
            out_port: PortNo::NONE,
            flags: OFPFF_SEND_FLOW_REM,
            actions: vec![Action::output(PortNo(2))].into(),
        });
        // ofp_flow_mod is 72 bytes + 8 per output action.
        assert_eq!(msg.wire_len(), 80);
        round_trip(msg);
    }

    #[test]
    fn flow_mod_commands_round_trip() {
        for cmd in [
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::ModifyStrict,
            FlowModCommand::Delete,
            FlowModCommand::DeleteStrict,
        ] {
            round_trip(OfpMessage::FlowMod(FlowMod {
                match_fields: Match::any(),
                cookie: 0,
                command: cmd,
                idle_timeout: 0,
                hard_timeout: 0,
                priority: 0,
                buffer_id: BufferId::NO_BUFFER,
                out_port: PortNo::NONE,
                flags: 0,
                actions: ActionList::new(),
            }));
        }
    }

    #[test]
    fn flow_removed_round_trip_and_size() {
        let msg = OfpMessage::FlowRemoved(FlowRemoved {
            match_fields: sample_match(),
            cookie: 7,
            priority: 10,
            reason: FlowRemovedReason::IdleTimeout,
            duration_sec: 30,
            duration_nsec: 500,
            idle_timeout: 5,
            packet_count: 1000,
            byte_count: 1_000_000,
        });
        assert_eq!(msg.wire_len(), consts::OFP_FLOW_REMOVED_LEN);
        round_trip(msg);
        for reason in [
            FlowRemovedReason::IdleTimeout,
            FlowRemovedReason::HardTimeout,
            FlowRemovedReason::Delete,
        ] {
            let _ = reason.as_u8();
            assert_eq!(FlowRemovedReason::from_u8(reason.as_u8()), reason);
        }
    }

    /// The statistics messages are not spoken: a well-formed aggregate
    /// `stats_request` (16) or `stats_reply` (17) — `OFPST_AGGREGATE`, its
    /// body's length — is an unknown message type.
    #[test]
    fn unknown_stats_type_rejected() {
        for (code, body) in [(16u8, 4 + 44), (17, 4 + 24)] {
            let mut bytes = OfpMessage::Hello.encode(1);
            bytes[1] = code;
            let len = OFP_HEADER_LEN + body;
            bytes.resize(len, 0);
            bytes[2..4].copy_from_slice(&(len as u16).to_be_bytes());
            bytes[9] = 2; // OFPST_AGGREGATE
            assert_eq!(
                OfpMessage::decode(&bytes),
                Err(OfpError::UnknownMsgType(code))
            );
        }
    }

    /// `port_status` (12), `port_mod` (15), `barrier_*` (18, 19) and
    /// `queue_get_config_*` (20, 21) are not spoken: a frame of any of them
    /// is a typed error, whatever its body.
    #[test]
    fn unspoken_type_codes_are_unknown() {
        for code in [12u8, 15, 18, 19, 20, 21] {
            for body in [0usize, 4, 64] {
                let mut bytes = OfpMessage::Hello.encode(1);
                bytes[1] = code;
                let len = OFP_HEADER_LEN + body;
                bytes.resize(len, 0);
                bytes[2..4].copy_from_slice(&(len as u16).to_be_bytes());
                assert_eq!(
                    OfpMessage::decode(&bytes),
                    Err(OfpError::UnknownMsgType(code))
                );
            }
        }
    }

    #[test]
    fn packet_in_reason_codes() {
        assert_eq!(PacketInReason::from_u8(0), PacketInReason::NoMatch);
        assert_eq!(PacketInReason::from_u8(1), PacketInReason::Action);
        assert_eq!(PacketInReason::NoMatch.as_u8(), 0);
        assert_eq!(PacketInReason::Action.as_u8(), 1);
    }

    #[test]
    fn display_forms() {
        let pin = OfpMessage::PacketIn(PacketIn {
            buffer_id: BufferId::new(4),
            total_len: 1000,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: vec![0; 128].into(),
        });
        assert_eq!(pin.to_string(), "packet_in(buf#4, 128B of 1000B, port1)");
        assert_eq!(OfpMessage::Hello.to_string(), "Hello");
        let pout = OfpMessage::PacketOut(PacketOut {
            buffer_id: BufferId::new(4),
            in_port: PortNo(1),
            actions: vec![Action::output(PortNo(2))].into(),
            data: WireFrame::new(),
        });
        assert_eq!(pout.to_string(), "packet_out(buf#4, 1 actions)");
    }

    #[test]
    fn from_flow_buffer_ext_builds_vendor() {
        let msg = OfpMessage::from(FlowBufferExt::Configure {
            enabled: true,
            timeout_ms: 25,
        });
        assert_eq!(msg.msg_type(), MsgType::Vendor);
        let ext = FlowBufferExt::from_message(&msg).unwrap().unwrap();
        assert_eq!(
            ext,
            FlowBufferExt::Configure {
                enabled: true,
                timeout_ms: 25
            }
        );
        assert_eq!(FlowBufferExt::from_message(&OfpMessage::Hello), None);
    }

    #[test]
    fn trailing_bytes_ignored() {
        let mut bytes = OfpMessage::Hello.encode(5);
        bytes.extend_from_slice(&[9u8; 10]);
        assert_eq!(OfpMessage::decode(&bytes).unwrap(), (OfpMessage::Hello, 5));
    }
}
