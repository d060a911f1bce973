//! ARP over Ethernet/IPv4 — used by the testbed warm-up so the controller
//! can learn host locations, exactly as Floodlight does from real hosts.

use crate::wire;
use crate::{DecodeError, MacAddr};
use std::fmt;
use std::net::Ipv4Addr;

/// Wire length of an Ethernet/IPv4 ARP packet: 28 bytes.
pub const ARP_LEN: usize = 28;

/// The ARP operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArpOp {
    /// Who-has (1).
    Request,
    /// Is-at (2).
    Reply,
    /// Any other opcode, kept verbatim.
    Other(u16),
}

impl ArpOp {
    /// The 16-bit wire value.
    pub fn as_u16(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
            ArpOp::Other(v) => v,
        }
    }
}

impl From<u16> for ArpOp {
    fn from(v: u16) -> Self {
        match v {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            other => ArpOp::Other(other),
        }
    }
}

impl fmt::Display for ArpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArpOp::Request => write!(f, "request"),
            ArpOp::Reply => write!(f, "reply"),
            ArpOp::Other(v) => write!(f, "op{v}"),
        }
    }
}

/// An ARP packet for IPv4 over Ethernet (HTYPE=1, PTYPE=0x0800).
///
/// # Example
///
/// ```
/// use sdnbuf_net::{ArpOp, ArpPacket, MacAddr};
/// use std::net::Ipv4Addr;
///
/// let arp = ArpPacket::gratuitous(MacAddr::from_host_index(1), Ipv4Addr::new(10, 0, 0, 1));
/// assert_eq!(arp.op, ArpOp::Request);
/// let bytes = arp.encode();
/// assert_eq!(ArpPacket::decode(&bytes).unwrap(), arp);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ArpPacket {
    /// Operation: request or reply.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Builds a gratuitous ARP request announcing `mac` owns `ip` — the
    /// frame hosts emit at testbed start so the controller's learning table
    /// is populated before measurement traffic begins.
    pub fn gratuitous(mac: MacAddr, ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: MacAddr::ZERO,
            target_ip: ip,
        }
    }

    /// The 28-byte wire form.
    pub fn to_bytes(&self) -> [u8; ARP_LEN] {
        let mut b = [0u8; ARP_LEN];
        b[0..2].copy_from_slice(&1u16.to_be_bytes()); // HTYPE: Ethernet
        b[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // PTYPE: IPv4
        b[4] = 6; // HLEN
        b[5] = 4; // PLEN
        b[6..8].copy_from_slice(&self.op.as_u16().to_be_bytes());
        b[8..14].copy_from_slice(&self.sender_mac.octets());
        b[14..18].copy_from_slice(&self.sender_ip.octets());
        b[18..24].copy_from_slice(&self.target_mac.octets());
        b[24..28].copy_from_slice(&self.target_ip.octets());
        b
    }

    /// Encodes to the 28-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes().to_vec()
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input;
    /// [`DecodeError::UnsupportedArp`] for non-Ethernet/IPv4 ARP.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        wire::need(buf, ARP_LEN)?;
        let htype = wire::get_u16(buf, 0)?;
        let ptype = wire::get_u16(buf, 2)?;
        let hlen = wire::get_u8(buf, 4)?;
        let plen = wire::get_u8(buf, 5)?;
        if htype != 1 || ptype != 0x0800 || hlen != 6 || plen != 4 {
            return Err(DecodeError::UnsupportedArp);
        }
        let op = wire::get_u16(buf, 6)?.into();
        let mut sender_mac = [0u8; 6];
        sender_mac.copy_from_slice(&buf[8..14]);
        let sender_ip = Ipv4Addr::new(buf[14], buf[15], buf[16], buf[17]);
        let mut target_mac = [0u8; 6];
        target_mac.copy_from_slice(&buf[18..24]);
        let target_ip = Ipv4Addr::new(buf[24], buf[25], buf[26], buf[27]);
        Ok(ArpPacket {
            op,
            sender_mac: sender_mac.into(),
            sender_ip,
            target_mac: target_mac.into(),
            target_ip,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: MacAddr::new([1, 2, 3, 4, 5, 6]),
            sender_ip: Ipv4Addr::new(10, 0, 0, 1),
            target_mac: MacAddr::new([7, 8, 9, 10, 11, 12]),
            target_ip: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn round_trip() {
        let a = sample();
        let bytes = a.encode();
        assert_eq!(bytes.len(), ARP_LEN);
        assert_eq!(ArpPacket::decode(&bytes).unwrap(), a);
    }

    #[test]
    fn gratuitous_announces_self() {
        let mac = MacAddr::from_host_index(3);
        let ip = Ipv4Addr::new(10, 0, 0, 3);
        let g = ArpPacket::gratuitous(mac, ip);
        assert_eq!(g.sender_ip, g.target_ip);
        assert_eq!(g.sender_mac, mac);
        assert_eq!(g.target_mac, MacAddr::ZERO);
    }

    #[test]
    fn truncated_fails() {
        assert!(matches!(
            ArpPacket::decode(&[0u8; 27]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn non_ethernet_arp_rejected() {
        let mut bytes = sample().encode();
        bytes[1] = 6; // HTYPE = IEEE 802
        assert_eq!(ArpPacket::decode(&bytes), Err(DecodeError::UnsupportedArp));
    }

    #[test]
    fn opcode_conversions() {
        assert_eq!(ArpOp::from(1), ArpOp::Request);
        assert_eq!(ArpOp::from(2), ArpOp::Reply);
        assert_eq!(ArpOp::from(9), ArpOp::Other(9));
        assert_eq!(ArpOp::Other(9).as_u16(), 9);
        assert_eq!(ArpOp::Request.to_string(), "request");
    }
}
