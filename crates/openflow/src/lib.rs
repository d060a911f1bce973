//! An OpenFlow 1.0-style control protocol with a byte-accurate binary wire
//! codec, for `sdn-buffer-lab`.
//!
//! The paper's evaluation measures **control-path load in wire bytes**
//! (`packet_in` messages switch→controller; `flow_mod`/`packet_out`
//! controller→switch), so this crate implements the real OpenFlow 1.0
//! message layouts: an 8-byte common header, the 40-byte match structure,
//! 8-byte output actions, the 18-byte `packet_in` preamble, and so on.
//! Every message encodes to, and decodes from, the exact byte layout of the
//! OpenFlow 1.0.0 specification (the protocol generation Open vSwitch and
//! Floodlight spoke at the time of the paper).
//!
//! Buffer semantics reproduced here:
//!
//! * [`BufferId`] — the opaque id naming a packet parked in switch buffer
//!   memory, with the distinguished [`BufferId::NO_BUFFER`] value
//!   (`0xffff_ffff`) meaning "the full packet travels in the message".
//! * `miss_send_len` ([`SwitchConfig`]) — how many bytes of a buffered
//!   miss-match packet are copied into the `packet_in`.
//! * The [`msg::Vendor`] message carries this reproduction's protocol
//!   extension for the paper's flow-granularity buffer mechanism
//!   ([`FlowBufferExt`]), since Section V notes the mechanism "requires to
//!   extend the OpenFlow protocol".
//!
//! # Example
//!
//! ```
//! use sdnbuf_openflow::{msg, BufferId, Match, OfpMessage, PortNo};
//! use sdnbuf_net::PacketBuilder;
//!
//! let pkt = PacketBuilder::udp().frame_size(1000).build();
//! let pin = OfpMessage::PacketIn(msg::PacketIn {
//!     buffer_id: BufferId::new(7),
//!     total_len: pkt.wire_len() as u16,
//!     in_port: PortNo(1),
//!     reason: msg::PacketInReason::NoMatch,
//!     data: pkt.wire_prefix(128),
//! });
//! let bytes = pin.encode(42);
//! assert_eq!(bytes.len(), 18 + 128); // ofp_packet_in is 18 bytes + data
//! let (back, xid) = OfpMessage::decode(&bytes).unwrap();
//! assert_eq!(xid, 42);
//! assert_eq!(back, pin);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod action_list;
mod buffer_id;
mod consts;
mod error;
mod ext;
mod header;
mod match_fields;
pub mod msg;
mod port;
pub(crate) mod wire;

pub use action::{Action, SUPPORTED_ACTIONS};
pub use action_list::ActionList;
pub use buffer_id::{BufferId, Refusal};
pub use consts::{
    OFP_DEFAULT_MISS_SEND_LEN, OFP_FEATURES_REPLY_LEN, OFP_FLOW_MOD_LEN, OFP_FLOW_REMOVED_LEN,
    OFP_HEADER_LEN, OFP_MATCH_LEN, OFP_PACKET_IN_LEN, OFP_PACKET_OUT_LEN, OFP_PHY_PORT_LEN,
    OFP_SWITCH_CONFIG_LEN, OFP_VERSION,
};
pub use error::OfpError;
pub use ext::{FlowBufferExt, FLOW_BUFFER_VENDOR_ID};
pub use header::{MsgType, OfpHeader};
pub use match_fields::{Match, MatchView, Wildcards};
pub use msg::{OfpMessage, SwitchConfig};
pub use port::PortNo;
