//! Ethernet II framing.

use crate::wire;
use crate::{DecodeError, MacAddr};
use std::fmt;

/// Length of an Ethernet II header (no 802.1Q tag): 14 bytes.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// The EtherType field of an Ethernet II frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
    /// Any other EtherType, kept verbatim.
    Other(u16),
}

impl EtherType {
    /// The 16-bit wire value.
    pub fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Ipv4 => write!(f, "IPv4"),
            EtherType::Arp => write!(f, "ARP"),
            EtherType::Other(v) => write!(f, "0x{v:04x}"),
        }
    }
}

/// An Ethernet II header.
///
/// # Example
///
/// ```
/// use sdnbuf_net::{EthernetHeader, EtherType, MacAddr, ETHERNET_HEADER_LEN};
/// let h = EthernetHeader {
///     dst: MacAddr::BROADCAST,
///     src: MacAddr::from_host_index(1),
///     ethertype: EtherType::Arp,
/// };
/// let mut buf = Vec::new();
/// h.encode_into(&mut buf);
/// assert_eq!(buf.len(), ETHERNET_HEADER_LEN);
/// assert_eq!(EthernetHeader::decode(&buf).unwrap(), h);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload EtherType.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// The 14-byte wire form.
    pub fn to_bytes(&self) -> [u8; ETHERNET_HEADER_LEN] {
        let mut b = [0u8; ETHERNET_HEADER_LEN];
        b[0..6].copy_from_slice(&self.dst.octets());
        b[6..12].copy_from_slice(&self.src.octets());
        b[12..14].copy_from_slice(&self.ethertype.as_u16().to_be_bytes());
        b
    }

    /// Appends the 14-byte wire form to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bytes());
    }

    /// Decodes a header from the start of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if fewer than 14 bytes are present.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        wire::need(buf, ETHERNET_HEADER_LEN)?;
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        let ethertype = wire::get_u16(buf, 12)?.into();
        Ok(EthernetHeader {
            dst: dst.into(),
            src: src.into(),
            ethertype,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EthernetHeader {
        EthernetHeader {
            dst: MacAddr::new([1, 2, 3, 4, 5, 6]),
            src: MacAddr::new([7, 8, 9, 10, 11, 12]),
            ethertype: EtherType::Ipv4,
        }
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(buf.len(), ETHERNET_HEADER_LEN);
        assert_eq!(EthernetHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn wire_layout_is_big_endian() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(&buf[0..6], &[1, 2, 3, 4, 5, 6]);
        assert_eq!(&buf[6..12], &[7, 8, 9, 10, 11, 12]);
        assert_eq!(&buf[12..14], &[0x08, 0x00]);
    }

    #[test]
    fn truncated_fails() {
        let err = EthernetHeader::decode(&[0u8; 13]).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Truncated {
                needed: 14,
                got: 13
            }
        );
    }

    #[test]
    fn ethertype_conversions() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(EtherType::Other(0x1234).as_u16(), 0x1234);
        assert_eq!(EtherType::Ipv4.to_string(), "IPv4");
        assert_eq!(EtherType::Arp.to_string(), "ARP");
        assert_eq!(EtherType::Other(0x88cc).to_string(), "0x88cc");
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        buf.extend_from_slice(&[0xAA; 32]);
        assert_eq!(EthernetHeader::decode(&buf).unwrap(), h);
    }
}
