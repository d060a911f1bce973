//! IPv4 header with RFC 1071 checksum.

use crate::wire;
use crate::DecodeError;
use std::net::Ipv4Addr;

/// Wire length of an IPv4 header without options: 20 bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// An IPv4 header (no options).
///
/// The checksum field is computed on encode and verified on decode, so any
/// corruption introduced between the two is caught.
///
/// # Example
///
/// ```
/// use sdnbuf_net::{Ipv4Header, IPV4_HEADER_LEN};
/// use std::net::Ipv4Addr;
///
/// let h = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 17, 100);
/// let mut buf = Vec::new();
/// h.encode_into(&mut buf);
/// assert_eq!(buf.len(), IPV4_HEADER_LEN);
/// assert_eq!(Ipv4Header::decode(&buf).unwrap(), h);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ipv4Header {
    /// Differentiated services code point + ECN byte.
    pub dscp_ecn: u8,
    /// Total length of the IP packet (header + payload), in bytes.
    pub total_len: u16,
    /// Identification field.
    pub identification: u16,
    /// Flags (3 bits) and fragment offset (13 bits), packed.
    pub flags_fragment: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol number (6 = TCP, 17 = UDP).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Creates a header with common defaults (TTL 64, DF set) for a packet
    /// carrying `payload_len` bytes above IP.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, payload_len: usize) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            identification: 0,
            flags_fragment: 0x4000, // DF
            ttl: 64,
            protocol,
            src,
            dst,
        }
    }

    /// The 20-byte wire form, with a freshly computed checksum.
    pub fn to_bytes(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[1] = self.dscp_ecn;
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.identification.to_be_bytes());
        b[6..8].copy_from_slice(&self.flags_fragment.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.protocol;
        // b[10..12] is the checksum, zero while it is summed.
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&b);
        b[10..12].copy_from_slice(&csum.to_be_bytes());
        b
    }

    /// Appends the 20-byte wire form, with a freshly computed checksum.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bytes());
    }

    /// Decodes and verifies a header from the start of `buf`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`], [`DecodeError::BadIpVersion`],
    /// [`DecodeError::BadIpHeaderLen`] or [`DecodeError::BadChecksum`].
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        wire::need(buf, IPV4_HEADER_LEN)?;
        let vihl = wire::get_u8(buf, 0)?;
        let version = vihl >> 4;
        let ihl = vihl & 0x0f;
        if version != 4 {
            return Err(DecodeError::BadIpVersion(version));
        }
        if ihl != 5 {
            // Options are never emitted by this workspace; reject rather
            // than silently mis-parse.
            return Err(DecodeError::BadIpHeaderLen(ihl));
        }
        let computed = internet_checksum(&buf[..IPV4_HEADER_LEN]);
        if computed != 0 {
            // A valid header sums to zero including its checksum field.
            let found = wire::get_u16(buf, 10)?;
            return Err(DecodeError::BadChecksum { found, computed });
        }
        Ok(Ipv4Header {
            dscp_ecn: wire::get_u8(buf, 1)?,
            total_len: wire::get_u16(buf, 2)?,
            identification: wire::get_u16(buf, 4)?,
            flags_fragment: wire::get_u16(buf, 6)?,
            ttl: wire::get_u8(buf, 8)?,
            protocol: wire::get_u8(buf, 9)?,
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
        })
    }

    /// Payload bytes above the IP header, according to `total_len`.
    pub fn payload_len(&self) -> usize {
        (self.total_len as usize).saturating_sub(IPV4_HEADER_LEN)
    }
}

/// RFC 1071 16-bit one's-complement internet checksum.
pub(crate) fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(192, 168, 1, 20),
            17,
            972,
        )
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(Ipv4Header::decode(&buf).unwrap(), h);
    }

    #[test]
    fn checksum_verifies_to_zero() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        assert_eq!(internet_checksum(&buf), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        buf[8] ^= 0xff; // flip TTL bits
        assert!(matches!(
            Ipv4Header::decode(&buf),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        buf[0] = 0x65; // version 6
        assert_eq!(Ipv4Header::decode(&buf), Err(DecodeError::BadIpVersion(6)));
    }

    #[test]
    fn rejects_options() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        buf[0] = 0x46; // IHL 6 (with options)
        assert_eq!(
            Ipv4Header::decode(&buf),
            Err(DecodeError::BadIpHeaderLen(6))
        );
    }

    #[test]
    fn truncated_fails() {
        assert!(matches!(
            Ipv4Header::decode(&[0x45; 19]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn payload_len_subtracts_header() {
        assert_eq!(sample().payload_len(), 972);
        let tiny = Ipv4Header {
            total_len: 10, // bogus: shorter than the header itself
            ..sample()
        };
        assert_eq!(tiny.payload_len(), 0);
    }

    #[test]
    fn rfc1071_known_vector() {
        // Example from RFC 1071 section 3: bytes 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length() {
        // Odd-length input pads with zero.
        assert_eq!(internet_checksum(&[0xff]), !0xff00);
    }
}
