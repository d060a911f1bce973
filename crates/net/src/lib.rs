//! Packet substrate for `sdn-buffer-lab`: Ethernet II, ARP, IPv4, UDP and
//! TCP wire formats with byte-exact encode/decode, plus the 5-tuple
//! [`FlowKey`] the paper's flow-granularity buffer mechanism is keyed on.
//!
//! Every header type round-trips through its wire encoding, and encoded
//! lengths are exact — the evaluation measures control-path load from real
//! message bytes, so sizes must be right. A frame's wire bytes come flat
//! ([`Packet::encode`]) or as a [`WireFrame`], a gather list of its encoded
//! headers and its shared payload that costs no allocation to build, carry
//! or parse back; [`Packet::decode`] reads both alike.
//!
//! # Example
//!
//! ```
//! use sdnbuf_net::{FlowKey, IpProto, Packet, PacketBuilder};
//! use std::net::Ipv4Addr;
//!
//! let pkt = PacketBuilder::udp()
//!     .src_ip(Ipv4Addr::new(10, 0, 0, 1))
//!     .dst_ip(Ipv4Addr::new(10, 0, 0, 2))
//!     .src_port(5000)
//!     .dst_port(9)
//!     .frame_size(1000)
//!     .build();
//! assert_eq!(pkt.wire_len(), 1000);
//!
//! let bytes = pkt.encode();
//! let back = Packet::decode(&bytes).unwrap();
//! assert_eq!(back, pkt);
//!
//! let key = FlowKey::of(&pkt).unwrap();
//! assert_eq!(key.protocol, IpProto::Udp);
//! assert_eq!(key.src_port, 5000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arp;
mod error;
mod ethernet;
mod flowkey;
mod frame;
mod ipv4;
mod mac;
mod packet;
mod tcp;
mod udp;

pub use arp::{ArpOp, ArpPacket};
pub use error::DecodeError;
pub use ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
pub use flowkey::{FlowKey, IpProto};
pub use frame::{FrameBytes, WireFrame, HEADERS_MAX};
pub use ipv4::{Ipv4Header, IPV4_HEADER_LEN};
pub use mac::MacAddr;
pub use packet::{Bytes, Ipv4Packet, Packet, PacketBuilder, Payload, Transport};
pub use tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
pub use udp::{UdpHeader, UDP_HEADER_LEN};

pub(crate) mod wire {
    //! Minimal big-endian cursor helpers shared by the codecs.

    use crate::DecodeError;

    pub fn get_u8(buf: &[u8], at: usize) -> Result<u8, DecodeError> {
        buf.get(at).copied().ok_or(DecodeError::Truncated {
            needed: at + 1,
            got: buf.len(),
        })
    }

    pub fn get_u16(buf: &[u8], at: usize) -> Result<u16, DecodeError> {
        if buf.len() < at + 2 {
            return Err(DecodeError::Truncated {
                needed: at + 2,
                got: buf.len(),
            });
        }
        Ok(u16::from_be_bytes([buf[at], buf[at + 1]]))
    }

    pub fn get_u32(buf: &[u8], at: usize) -> Result<u32, DecodeError> {
        if buf.len() < at + 4 {
            return Err(DecodeError::Truncated {
                needed: at + 4,
                got: buf.len(),
            });
        }
        Ok(u32::from_be_bytes([
            buf[at],
            buf[at + 1],
            buf[at + 2],
            buf[at + 3],
        ]))
    }

    pub fn need(buf: &[u8], len: usize) -> Result<(), DecodeError> {
        if buf.len() < len {
            Err(DecodeError::Truncated {
                needed: len,
                got: buf.len(),
            })
        } else {
            Ok(())
        }
    }
}
