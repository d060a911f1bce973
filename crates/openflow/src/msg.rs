//! OpenFlow 1.0 messages and their binary wire codec.
//!
//! Every variant of [`OfpMessage`] encodes to the exact byte layout of the
//! OpenFlow 1.0.0 specification and decodes back losslessly. Encoded lengths
//! drive the paper's control-path-load measurements, so they are asserted
//! against the spec's struct sizes in this module's tests.

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

/// Why a `port_status` was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum PortReason {
    Add,
    Delete,
    Modify,
}

impl PortReason {
    fn as_u8(self) -> u8 {
        match self {
            PortReason::Add => 0,
            PortReason::Delete => 1,
            PortReason::Modify => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => PortReason::Delete,
            2 => PortReason::Modify,
            _ => PortReason::Add,
        }
    }
}

/// A `port_status` message: the switch announcing a port change.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PortStatus {
    /// What happened to the port.
    pub reason: PortReason,
    /// The port's description.
    pub port: PhyPort,
}

/// A `port_mod` message: the controller changing a port's behaviour.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PortMod {
    /// The port to modify.
    pub port_no: PortNo,
    /// Its MAC address (sanity check against misdirected mods).
    pub hw_addr: MacAddr,
    /// New config bits.
    pub config: u32,
    /// Which config bits to change.
    pub mask: u32,
    /// Features to advertise (0 = unchanged).
    pub advertise: u32,
}

/// One egress queue in a `queue_get_config_reply` — the structure the QoS
/// extension's shaped queues are advertised through. Only the `MIN_RATE`
/// property is modeled (the rate in 1/10 of a percent of the port speed,
/// as the specification defines it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PacketQueue {
    /// Queue id, as selected by the `ENQUEUE` action.
    pub queue_id: u32,
    /// Guaranteed minimum rate in 1/10 % of the port speed (`0xffff` =
    /// disabled).
    pub min_rate_tenths_percent: u16,
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

/// Switch description strings (`OFPST_DESC` reply).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DescStats {
    /// Manufacturer description.
    pub mfr_desc: String,
    /// Hardware description.
    pub hw_desc: String,
    /// Software description.
    pub sw_desc: String,
    /// Serial number.
    pub serial_num: String,
    /// Human-readable datapath description.
    pub dp_desc: String,
}

/// One table's statistics (`OFPST_TABLE` reply entry).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TableStatsEntry {
    /// Table id.
    pub table_id: u8,
    /// Table name.
    pub name: String,
    /// Wildcards the table supports.
    pub wildcards: u32,
    /// Capacity in rules.
    pub max_entries: u32,
    /// Rules currently installed.
    pub active_count: u32,
    /// Packets looked up.
    pub lookup_count: u64,
    /// Packets that hit a rule.
    pub matched_count: u64,
}

/// One port's statistics (`OFPST_PORT` reply entry). Error counters the
/// model cannot produce are carried as zero, as real switches do for
/// counters they do not support.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PortStatsEntry {
    /// The port.
    pub port_no: PortNo,
    /// Packets received on the port.
    pub rx_packets: u64,
    /// Packets transmitted out the port.
    pub tx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Packets dropped on receive.
    pub rx_dropped: u64,
    /// Packets dropped on transmit.
    pub tx_dropped: u64,
}

/// Body of a `stats_request`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StatsRequest {
    /// Switch description strings.
    Desc,
    /// Per-table statistics.
    Table,
    /// Per-port statistics (`PortNo::NONE` = all ports).
    Port {
        /// Port to report, or `NONE` for all.
        port_no: PortNo,
    },
    /// Per-flow statistics matching a pattern.
    Flow {
        /// Flows to report.
        match_fields: Match,
        /// Table to read (0xff = all).
        table_id: u8,
        /// Restrict to flows outputting here (`NONE` = no restriction).
        out_port: PortNo,
    },
    /// Aggregate statistics over matching flows.
    Aggregate {
        /// Flows to aggregate.
        match_fields: Match,
        /// Table to read (0xff = all).
        table_id: u8,
        /// Restrict to flows outputting here.
        out_port: PortNo,
    },
}

/// One entry of a flow-stats reply.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FlowStatsEntry {
    /// Table holding the rule.
    pub table_id: u8,
    /// The rule's match.
    pub match_fields: Match,
    /// Rule lifetime, seconds part.
    pub duration_sec: u32,
    /// Rule lifetime, nanoseconds part.
    pub duration_nsec: u32,
    /// The rule's priority.
    pub priority: u16,
    /// The rule's idle timeout.
    pub idle_timeout: u16,
    /// The rule's hard timeout.
    pub hard_timeout: u16,
    /// The rule's cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// The rule's actions.
    pub actions: ActionList,
}

/// Body of a `stats_reply`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StatsReply {
    /// Switch description.
    Desc(
        /// The description strings.
        DescStats,
    ),
    /// Per-table statistics.
    Table(
        /// One entry per table.
        Vec<TableStatsEntry>,
    ),
    /// Per-port statistics.
    Port(
        /// One entry per reported port.
        Vec<PortStatsEntry>,
    ),
    /// Per-flow statistics.
    Flow(
        /// One entry per matching rule.
        Vec<FlowStatsEntry>,
    ),
    /// Aggregate statistics.
    Aggregate {
        /// Total packets across matching flows.
        packet_count: u64,
        /// Total bytes across matching flows.
        byte_count: u64,
        /// Number of matching flows.
        flow_count: u32,
    },
}

const OFPST_DESC: u16 = 0;
const OFPST_FLOW: u16 = 1;
const OFPST_AGGREGATE: u16 = 2;
const OFPST_TABLE: u16 = 3;
const OFPST_PORT: u16 = 4;
const FLOW_STATS_REQ_BODY: usize = 44;
const FLOW_STATS_ENTRY_FIXED: usize = 88;
const AGG_STATS_REPLY_BODY: usize = 24;
const DESC_STATS_LEN: usize = 256 * 4 + 32;
const TABLE_STATS_ENTRY_LEN: usize = 64;
const PORT_STATS_ENTRY_LEN: usize = 104;
const PORT_STATS_REQ_BODY: usize = 8;

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
    StatsRequest(StatsRequest),
    StatsReply(StatsReply),
    BarrierRequest,
    BarrierReply,
    PortStatus(PortStatus),
    PortMod(PortMod),
    QueueGetConfigRequest(PortNo),
    QueueGetConfigReply {
        /// The port whose queues are described.
        port: PortNo,
        /// Its configured queues.
        queues: Vec<PacketQueue>,
    },
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
            OfpMessage::StatsRequest(_) => MsgType::StatsRequest,
            OfpMessage::StatsReply(_) => MsgType::StatsReply,
            OfpMessage::BarrierRequest => MsgType::BarrierRequest,
            OfpMessage::BarrierReply => MsgType::BarrierReply,
            OfpMessage::PortStatus(_) => MsgType::PortStatus,
            OfpMessage::PortMod(_) => MsgType::PortMod,
            OfpMessage::QueueGetConfigRequest(_) => MsgType::QueueGetConfigRequest,
            OfpMessage::QueueGetConfigReply { .. } => MsgType::QueueGetConfigReply,
        }
    }

    /// The exact wire length in bytes, without encoding.
    ///
    /// The simulation meters control-path load from this, so it must equal
    /// `self.encode(x).len()` — a property the tests enforce.
    pub fn wire_len(&self) -> usize {
        OFP_HEADER_LEN
            + match self {
                OfpMessage::Hello
                | OfpMessage::FeaturesRequest
                | OfpMessage::GetConfigRequest
                | OfpMessage::BarrierRequest
                | OfpMessage::BarrierReply => 0,
                OfpMessage::Error(e) => 4 + e.data.len(),
                OfpMessage::EchoRequest(d) | OfpMessage::EchoReply(d) => d.len(),
                OfpMessage::Vendor(v) => 4 + v.data.len(),
                OfpMessage::FeaturesReply(f) => 24 + f.ports.len() * consts::OFP_PHY_PORT_LEN,
                OfpMessage::GetConfigReply(_) | OfpMessage::SetConfig(_) => 4,
                OfpMessage::PacketIn(p) => 10 + p.data.len(),
                OfpMessage::FlowRemoved(_) => consts::OFP_FLOW_REMOVED_LEN - OFP_HEADER_LEN,
                OfpMessage::PacketOut(p) => 8 + Action::list_len(&p.actions) + p.data.len(),
                OfpMessage::FlowMod(f) => 64 + Action::list_len(&f.actions),
                OfpMessage::StatsRequest(r) => {
                    4 + match r {
                        StatsRequest::Desc | StatsRequest::Table => 0,
                        StatsRequest::Port { .. } => PORT_STATS_REQ_BODY,
                        StatsRequest::Flow { .. } | StatsRequest::Aggregate { .. } => {
                            FLOW_STATS_REQ_BODY
                        }
                    }
                }
                OfpMessage::PortStatus(_) => 8 + consts::OFP_PHY_PORT_LEN,
                OfpMessage::PortMod(_) => 24,
                OfpMessage::QueueGetConfigRequest(_) => 4,
                // Reply: port(2)+pad(6) then per queue: 8-byte queue header
                // + one 16-byte MIN_RATE property.
                OfpMessage::QueueGetConfigReply { queues, .. } => 8 + queues.len() * 24,
                OfpMessage::StatsReply(r) => {
                    4 + match r {
                        StatsReply::Desc(_) => DESC_STATS_LEN,
                        StatsReply::Table(entries) => entries.len() * TABLE_STATS_ENTRY_LEN,
                        StatsReply::Port(entries) => entries.len() * PORT_STATS_ENTRY_LEN,
                        StatsReply::Flow(entries) => entries
                            .iter()
                            .map(|e| FLOW_STATS_ENTRY_FIXED + Action::list_len(&e.actions))
                            .sum(),
                        StatsReply::Aggregate { .. } => AGG_STATS_REPLY_BODY,
                    }
                }
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
            OfpMessage::Hello
            | OfpMessage::FeaturesRequest
            | OfpMessage::GetConfigRequest
            | OfpMessage::BarrierRequest
            | OfpMessage::BarrierReply => {}
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
            OfpMessage::StatsRequest(r) => match r {
                StatsRequest::Desc => {
                    buf.extend_from_slice(&OFPST_DESC.to_be_bytes());
                    buf.extend_from_slice(&[0, 0]); // flags
                }
                StatsRequest::Table => {
                    buf.extend_from_slice(&OFPST_TABLE.to_be_bytes());
                    buf.extend_from_slice(&[0, 0]); // flags
                }
                StatsRequest::Port { port_no } => {
                    buf.extend_from_slice(&OFPST_PORT.to_be_bytes());
                    buf.extend_from_slice(&[0, 0]); // flags
                    buf.extend_from_slice(&port_no.as_u16().to_be_bytes());
                    buf.extend_from_slice(&[0u8; 6]); // pad
                }
                StatsRequest::Flow {
                    match_fields,
                    table_id,
                    out_port,
                }
                | StatsRequest::Aggregate {
                    match_fields,
                    table_id,
                    out_port,
                } => {
                    let kind = if matches!(r, StatsRequest::Flow { .. }) {
                        OFPST_FLOW
                    } else {
                        OFPST_AGGREGATE
                    };
                    buf.extend_from_slice(&kind.to_be_bytes());
                    buf.extend_from_slice(&[0, 0]); // flags
                    match_fields.encode_into(&mut buf);
                    buf.push(*table_id);
                    buf.push(0); // pad
                    buf.extend_from_slice(&out_port.as_u16().to_be_bytes());
                }
            },
            OfpMessage::StatsReply(r) => match r {
                StatsReply::Desc(d) => {
                    buf.extend_from_slice(&OFPST_DESC.to_be_bytes());
                    buf.extend_from_slice(&[0, 0]); // flags
                    for (text, width) in [
                        (&d.mfr_desc, 256usize),
                        (&d.hw_desc, 256),
                        (&d.sw_desc, 256),
                        (&d.serial_num, 32),
                        (&d.dp_desc, 256),
                    ] {
                        let mut field = vec![0u8; width];
                        let n = text.len().min(width - 1);
                        field[..n].copy_from_slice(&text.as_bytes()[..n]);
                        buf.extend_from_slice(&field);
                    }
                }
                StatsReply::Table(entries) => {
                    buf.extend_from_slice(&OFPST_TABLE.to_be_bytes());
                    buf.extend_from_slice(&[0, 0]); // flags
                    for e in entries {
                        buf.push(e.table_id);
                        buf.extend_from_slice(&[0, 0, 0]); // pad
                        let mut name = [0u8; 32];
                        let n = e.name.len().min(31);
                        name[..n].copy_from_slice(&e.name.as_bytes()[..n]);
                        buf.extend_from_slice(&name);
                        buf.extend_from_slice(&e.wildcards.to_be_bytes());
                        buf.extend_from_slice(&e.max_entries.to_be_bytes());
                        buf.extend_from_slice(&e.active_count.to_be_bytes());
                        buf.extend_from_slice(&e.lookup_count.to_be_bytes());
                        buf.extend_from_slice(&e.matched_count.to_be_bytes());
                    }
                }
                StatsReply::Port(entries) => {
                    buf.extend_from_slice(&OFPST_PORT.to_be_bytes());
                    buf.extend_from_slice(&[0, 0]); // flags
                    for e in entries {
                        buf.extend_from_slice(&e.port_no.as_u16().to_be_bytes());
                        buf.extend_from_slice(&[0u8; 6]); // pad
                        for v in [
                            e.rx_packets,
                            e.tx_packets,
                            e.rx_bytes,
                            e.tx_bytes,
                            e.rx_dropped,
                            e.tx_dropped,
                        ] {
                            buf.extend_from_slice(&v.to_be_bytes());
                        }
                        // rx_errors..collisions: unsupported counters are
                        // all-ones per the spec convention? The 1.0 spec
                        // uses -1 for unsupported; we emit 0 for "no
                        // errors observed" on the first two and -1 for the
                        // physical-layer counters the model cannot know.
                        buf.extend_from_slice(&0u64.to_be_bytes()); // rx_errors
                        buf.extend_from_slice(&0u64.to_be_bytes()); // tx_errors
                        for _ in 0..3 {
                            buf.extend_from_slice(&u64::MAX.to_be_bytes());
                        }
                        buf.extend_from_slice(&0u64.to_be_bytes()); // collisions
                    }
                }
                StatsReply::Flow(entries) => {
                    buf.extend_from_slice(&OFPST_FLOW.to_be_bytes());
                    buf.extend_from_slice(&[0, 0]); // flags
                    for e in entries {
                        let len = FLOW_STATS_ENTRY_FIXED + Action::list_len(&e.actions);
                        buf.extend_from_slice(&(len as u16).to_be_bytes());
                        buf.push(e.table_id);
                        buf.push(0); // pad
                        e.match_fields.encode_into(&mut buf);
                        buf.extend_from_slice(&e.duration_sec.to_be_bytes());
                        buf.extend_from_slice(&e.duration_nsec.to_be_bytes());
                        buf.extend_from_slice(&e.priority.to_be_bytes());
                        buf.extend_from_slice(&e.idle_timeout.to_be_bytes());
                        buf.extend_from_slice(&e.hard_timeout.to_be_bytes());
                        buf.extend_from_slice(&[0u8; 6]); // pad
                        buf.extend_from_slice(&e.cookie.to_be_bytes());
                        buf.extend_from_slice(&e.packet_count.to_be_bytes());
                        buf.extend_from_slice(&e.byte_count.to_be_bytes());
                        Action::encode_list(&e.actions, &mut buf);
                    }
                }
                StatsReply::Aggregate {
                    packet_count,
                    byte_count,
                    flow_count,
                } => {
                    buf.extend_from_slice(&OFPST_AGGREGATE.to_be_bytes());
                    buf.extend_from_slice(&[0, 0]); // flags
                    buf.extend_from_slice(&packet_count.to_be_bytes());
                    buf.extend_from_slice(&byte_count.to_be_bytes());
                    buf.extend_from_slice(&flow_count.to_be_bytes());
                    buf.extend_from_slice(&[0, 0, 0, 0]); // pad
                }
            },
            OfpMessage::PortStatus(ps) => {
                buf.push(ps.reason.as_u8());
                buf.extend_from_slice(&[0u8; 7]); // pad
                encode_phy_port(&mut buf, &ps.port);
            }
            OfpMessage::PortMod(pm) => {
                buf.extend_from_slice(&pm.port_no.as_u16().to_be_bytes());
                buf.extend_from_slice(&pm.hw_addr.octets());
                buf.extend_from_slice(&pm.config.to_be_bytes());
                buf.extend_from_slice(&pm.mask.to_be_bytes());
                buf.extend_from_slice(&pm.advertise.to_be_bytes());
                buf.extend_from_slice(&[0u8; 4]); // pad
            }
            OfpMessage::QueueGetConfigRequest(port) => {
                buf.extend_from_slice(&port.as_u16().to_be_bytes());
                buf.extend_from_slice(&[0, 0]); // pad
            }
            OfpMessage::QueueGetConfigReply { port, queues } => {
                buf.extend_from_slice(&port.as_u16().to_be_bytes());
                buf.extend_from_slice(&[0u8; 6]); // pad
                for q in queues {
                    buf.extend_from_slice(&q.queue_id.to_be_bytes());
                    buf.extend_from_slice(&24u16.to_be_bytes()); // queue len
                    buf.extend_from_slice(&[0, 0]); // pad
                                                    // OFPQT_MIN_RATE property.
                    buf.extend_from_slice(&1u16.to_be_bytes());
                    buf.extend_from_slice(&16u16.to_be_bytes());
                    buf.extend_from_slice(&[0u8; 4]); // pad
                    buf.extend_from_slice(&q.min_rate_tenths_percent.to_be_bytes());
                    buf.extend_from_slice(&[0u8; 6]); // pad
                }
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
            MsgType::StatsRequest => {
                let kind = wire::get_u16(body, 0)?;
                match kind {
                    OFPST_DESC => OfpMessage::StatsRequest(StatsRequest::Desc),
                    OFPST_TABLE => OfpMessage::StatsRequest(StatsRequest::Table),
                    OFPST_PORT => {
                        wire::need(body, 4 + PORT_STATS_REQ_BODY)?;
                        OfpMessage::StatsRequest(StatsRequest::Port {
                            port_no: PortNo(wire::get_u16(body, 4)?),
                        })
                    }
                    OFPST_FLOW | OFPST_AGGREGATE => {
                        wire::need(body, 4 + FLOW_STATS_REQ_BODY)?;
                        let match_fields = Match::decode(&body[4..])?;
                        let table_id = wire::get_u8(body, 4 + 40)?;
                        let out_port = PortNo(wire::get_u16(body, 4 + 42)?);
                        if kind == OFPST_FLOW {
                            OfpMessage::StatsRequest(StatsRequest::Flow {
                                match_fields,
                                table_id,
                                out_port,
                            })
                        } else {
                            OfpMessage::StatsRequest(StatsRequest::Aggregate {
                                match_fields,
                                table_id,
                                out_port,
                            })
                        }
                    }
                    other => return Err(OfpError::UnknownStatsType(other)),
                }
            }
            MsgType::StatsReply => {
                let kind = wire::get_u16(body, 0)?;
                match kind {
                    OFPST_DESC => {
                        wire::need(body, 4 + DESC_STATS_LEN)?;
                        let field = |at: usize, width: usize| -> String {
                            let raw = &body[4 + at..4 + at + width];
                            let end = raw.iter().position(|&b| b == 0).unwrap_or(width);
                            String::from_utf8_lossy(&raw[..end]).into_owned()
                        };
                        OfpMessage::StatsReply(StatsReply::Desc(DescStats {
                            mfr_desc: field(0, 256),
                            hw_desc: field(256, 256),
                            sw_desc: field(512, 256),
                            serial_num: field(768, 32),
                            dp_desc: field(800, 256),
                        }))
                    }
                    OFPST_TABLE => {
                        let n = (body.len() - 4) / TABLE_STATS_ENTRY_LEN;
                        let mut entries = Vec::with_capacity(n);
                        for i in 0..n {
                            let at = 4 + i * TABLE_STATS_ENTRY_LEN;
                            let raw_name = &body[at + 4..at + 36];
                            let end = raw_name.iter().position(|&b| b == 0).unwrap_or(32);
                            entries.push(TableStatsEntry {
                                table_id: wire::get_u8(body, at)?,
                                name: String::from_utf8_lossy(&raw_name[..end]).into_owned(),
                                wildcards: wire::get_u32(body, at + 36)?,
                                max_entries: wire::get_u32(body, at + 40)?,
                                active_count: wire::get_u32(body, at + 44)?,
                                lookup_count: wire::get_u64(body, at + 48)?,
                                matched_count: wire::get_u64(body, at + 56)?,
                            });
                        }
                        OfpMessage::StatsReply(StatsReply::Table(entries))
                    }
                    OFPST_PORT => {
                        let n = (body.len() - 4) / PORT_STATS_ENTRY_LEN;
                        let mut entries = Vec::with_capacity(n);
                        for i in 0..n {
                            let at = 4 + i * PORT_STATS_ENTRY_LEN;
                            wire::need(body, at + PORT_STATS_ENTRY_LEN)?;
                            entries.push(PortStatsEntry {
                                port_no: PortNo(wire::get_u16(body, at)?),
                                rx_packets: wire::get_u64(body, at + 8)?,
                                tx_packets: wire::get_u64(body, at + 16)?,
                                rx_bytes: wire::get_u64(body, at + 24)?,
                                tx_bytes: wire::get_u64(body, at + 32)?,
                                rx_dropped: wire::get_u64(body, at + 40)?,
                                tx_dropped: wire::get_u64(body, at + 48)?,
                            });
                        }
                        OfpMessage::StatsReply(StatsReply::Port(entries))
                    }
                    OFPST_FLOW => {
                        let mut entries = Vec::new();
                        let mut at = 4;
                        while at < body.len() {
                            let len = wire::get_u16(body, at)? as usize;
                            if len < FLOW_STATS_ENTRY_FIXED || at + len > body.len() {
                                return Err(OfpError::BadLength {
                                    claimed: len,
                                    actual: body.len() - at,
                                });
                            }
                            let e = &body[at..at + len];
                            entries.push(FlowStatsEntry {
                                table_id: wire::get_u8(e, 2)?,
                                match_fields: Match::decode(&e[4..])?,
                                duration_sec: wire::get_u32(e, 44)?,
                                duration_nsec: wire::get_u32(e, 48)?,
                                priority: wire::get_u16(e, 52)?,
                                idle_timeout: wire::get_u16(e, 54)?,
                                hard_timeout: wire::get_u16(e, 56)?,
                                cookie: wire::get_u64(e, 64)?,
                                packet_count: wire::get_u64(e, 72)?,
                                byte_count: wire::get_u64(e, 80)?,
                                actions: Action::decode_list(
                                    &e[FLOW_STATS_ENTRY_FIXED..],
                                    len - FLOW_STATS_ENTRY_FIXED,
                                )?,
                            });
                            at += len;
                        }
                        OfpMessage::StatsReply(StatsReply::Flow(entries))
                    }
                    OFPST_AGGREGATE => {
                        wire::need(body, 4 + AGG_STATS_REPLY_BODY)?;
                        OfpMessage::StatsReply(StatsReply::Aggregate {
                            packet_count: wire::get_u64(body, 4)?,
                            byte_count: wire::get_u64(body, 12)?,
                            flow_count: wire::get_u32(body, 20)?,
                        })
                    }
                    other => return Err(OfpError::UnknownStatsType(other)),
                }
            }
            MsgType::BarrierRequest => OfpMessage::BarrierRequest,
            MsgType::BarrierReply => OfpMessage::BarrierReply,
            MsgType::PortStatus => {
                wire::need(body, 8 + consts::OFP_PHY_PORT_LEN)?;
                OfpMessage::PortStatus(PortStatus {
                    reason: PortReason::from_u8(wire::get_u8(body, 0)?),
                    port: decode_phy_port(&body[8..])?,
                })
            }
            MsgType::PortMod => {
                wire::need(body, 24)?;
                let mut hw = [0u8; 6];
                hw.copy_from_slice(&body[2..8]);
                OfpMessage::PortMod(PortMod {
                    port_no: PortNo(wire::get_u16(body, 0)?),
                    hw_addr: hw.into(),
                    config: wire::get_u32(body, 8)?,
                    mask: wire::get_u32(body, 12)?,
                    advertise: wire::get_u32(body, 16)?,
                })
            }
            MsgType::QueueGetConfigRequest => {
                OfpMessage::QueueGetConfigRequest(PortNo(wire::get_u16(body, 0)?))
            }
            MsgType::QueueGetConfigReply => {
                wire::need(body, 8)?;
                let port = PortNo(wire::get_u16(body, 0)?);
                let mut queues = Vec::new();
                let mut at = 8;
                while at < body.len() {
                    let queue_id = wire::get_u32(body, at)?;
                    let len = wire::get_u16(body, at + 4)? as usize;
                    if len < 8 || at + len > body.len() {
                        return Err(OfpError::BadLength {
                            claimed: len,
                            actual: body.len() - at,
                        });
                    }
                    // Scan properties for MIN_RATE; ignore others.
                    let mut min_rate = 0xffff;
                    let mut p = at + 8;
                    while p + 8 <= at + len {
                        let ptype = wire::get_u16(body, p)?;
                        let plen = wire::get_u16(body, p + 2)? as usize;
                        if plen < 8 || p + plen > at + len {
                            return Err(OfpError::BadLength {
                                claimed: plen,
                                actual: at + len - p,
                            });
                        }
                        if ptype == 1 && plen >= 16 {
                            min_rate = wire::get_u16(body, p + 8)?;
                        }
                        p += plen;
                    }
                    queues.push(PacketQueue {
                        queue_id,
                        min_rate_tenths_percent: min_rate,
                    });
                    at += len;
                }
                OfpMessage::QueueGetConfigReply { port, queues }
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
    fn hello_and_barriers_are_bare_headers() {
        for msg in [
            OfpMessage::Hello,
            OfpMessage::FeaturesRequest,
            OfpMessage::GetConfigRequest,
            OfpMessage::BarrierRequest,
            OfpMessage::BarrierReply,
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
            actions: 0xfff,
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

    #[test]
    fn stats_round_trips() {
        round_trip(OfpMessage::StatsRequest(StatsRequest::Flow {
            match_fields: Match::any(),
            table_id: 0xff,
            out_port: PortNo::NONE,
        }));
        round_trip(OfpMessage::StatsRequest(StatsRequest::Aggregate {
            match_fields: sample_match(),
            table_id: 0,
            out_port: PortNo(2),
        }));
        round_trip(OfpMessage::StatsReply(StatsReply::Aggregate {
            packet_count: 10,
            byte_count: 10_000,
            flow_count: 3,
        }));
        round_trip(OfpMessage::StatsReply(StatsReply::Flow(vec![
            FlowStatsEntry {
                table_id: 0,
                match_fields: sample_match(),
                duration_sec: 1,
                duration_nsec: 2,
                priority: 3,
                idle_timeout: 4,
                hard_timeout: 5,
                cookie: 6,
                packet_count: 7,
                byte_count: 8,
                actions: vec![Action::output(PortNo(2))].into(),
            },
            FlowStatsEntry {
                table_id: 0,
                match_fields: Match::any(),
                duration_sec: 0,
                duration_nsec: 0,
                priority: 0,
                idle_timeout: 0,
                hard_timeout: 0,
                cookie: 0,
                packet_count: 0,
                byte_count: 0,
                actions: ActionList::new(),
            },
        ])));
    }

    #[test]
    fn desc_table_port_stats_round_trip() {
        round_trip(OfpMessage::StatsRequest(StatsRequest::Desc));
        round_trip(OfpMessage::StatsRequest(StatsRequest::Table));
        round_trip(OfpMessage::StatsRequest(StatsRequest::Port {
            port_no: PortNo::NONE,
        }));
        let desc = OfpMessage::StatsReply(StatsReply::Desc(DescStats {
            mfr_desc: "sdn-buffer-lab".to_owned(),
            hw_desc: "discrete-event model".to_owned(),
            sw_desc: "sdnbuf-switch".to_owned(),
            serial_num: "0001".to_owned(),
            dp_desc: "fig1 testbed switch".to_owned(),
        }));
        // ofp_desc_stats is 1056 bytes.
        assert_eq!(desc.wire_len(), 8 + 4 + 1056);
        round_trip(desc);
        let table = OfpMessage::StatsReply(StatsReply::Table(vec![TableStatsEntry {
            table_id: 0,
            name: "main".to_owned(),
            wildcards: 0x3f_ffff,
            max_entries: 4096,
            active_count: 12,
            lookup_count: 1000,
            matched_count: 900,
        }]));
        assert_eq!(table.wire_len(), 8 + 4 + 64);
        round_trip(table);
        let port = OfpMessage::StatsReply(StatsReply::Port(vec![
            PortStatsEntry {
                port_no: PortNo(1),
                rx_packets: 1000,
                tx_packets: 10,
                rx_bytes: 1_000_000,
                tx_bytes: 10_000,
                rx_dropped: 0,
                tx_dropped: 2,
            },
            PortStatsEntry::default(),
        ]));
        assert_eq!(port.wire_len(), 8 + 4 + 2 * 104);
        round_trip(port);
    }

    #[test]
    fn unknown_stats_type_rejected() {
        let mut bytes = OfpMessage::StatsRequest(StatsRequest::Flow {
            match_fields: Match::any(),
            table_id: 0,
            out_port: PortNo::NONE,
        })
        .encode(0);
        bytes[9] = 9; // stats type -> 9
        assert_eq!(
            OfpMessage::decode(&bytes),
            Err(OfpError::UnknownStatsType(9))
        );
    }

    #[test]
    fn port_status_round_trip_and_size() {
        for reason in [PortReason::Add, PortReason::Delete, PortReason::Modify] {
            let msg = OfpMessage::PortStatus(PortStatus {
                reason,
                port: PhyPort {
                    port_no: PortNo(3),
                    hw_addr: MacAddr::from_host_index(3),
                    name: "eth3".to_owned(),
                },
            });
            // ofp_port_status is 64 bytes.
            assert_eq!(msg.wire_len(), 64);
            round_trip(msg);
        }
    }

    #[test]
    fn port_mod_round_trip_and_size() {
        let msg = OfpMessage::PortMod(PortMod {
            port_no: PortNo(1),
            hw_addr: MacAddr::from_host_index(1),
            config: 0x1,
            mask: 0x1,
            advertise: 0,
        });
        // ofp_port_mod is 32 bytes.
        assert_eq!(msg.wire_len(), 32);
        round_trip(msg);
    }

    #[test]
    fn queue_config_round_trip() {
        round_trip(OfpMessage::QueueGetConfigRequest(PortNo(2)));
        let msg = OfpMessage::QueueGetConfigReply {
            port: PortNo(2),
            queues: vec![
                PacketQueue {
                    queue_id: 0,
                    min_rate_tenths_percent: 200, // 20 % reserved
                },
                PacketQueue {
                    queue_id: 1,
                    min_rate_tenths_percent: 800,
                },
            ],
        };
        assert_eq!(msg.wire_len(), 8 + 8 + 2 * 24);
        round_trip(msg);
    }

    #[test]
    fn truncated_queue_reply_rejected() {
        let msg = OfpMessage::QueueGetConfigReply {
            port: PortNo(2),
            queues: vec![PacketQueue {
                queue_id: 0,
                min_rate_tenths_percent: 100,
            }],
        };
        let mut bytes = msg.encode(1);
        // Corrupt the per-queue length field to overrun.
        bytes[8 + 8 + 4] = 0;
        bytes[8 + 8 + 5] = 200;
        assert!(matches!(
            OfpMessage::decode(&bytes),
            Err(OfpError::BadLength { .. })
        ));
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
