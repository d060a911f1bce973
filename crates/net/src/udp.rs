//! UDP header.

use crate::wire;
use crate::DecodeError;

/// Wire length of a UDP header: 8 bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header.
///
/// The checksum is carried verbatim (zero = not computed), matching how
/// `pktgen`-generated traffic typically leaves it.
///
/// # Example
///
/// ```
/// use sdnbuf_net::{UdpHeader, UDP_HEADER_LEN};
/// let h = UdpHeader::new(5000, 9, 100);
/// let mut buf = Vec::new();
/// h.encode_into(&mut buf);
/// assert_eq!(buf.len(), UDP_HEADER_LEN);
/// assert_eq!(UdpHeader::decode(&buf).unwrap(), h);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header plus payload, in bytes.
    pub length: u16,
    /// Checksum (zero when unused).
    pub checksum: u16,
}

impl UdpHeader {
    /// Creates a header for a datagram carrying `payload_len` bytes.
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        UdpHeader {
            src_port,
            dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
            checksum: 0,
        }
    }

    /// The 8-byte wire form.
    pub fn to_bytes(&self) -> [u8; UDP_HEADER_LEN] {
        let mut b = [0u8; UDP_HEADER_LEN];
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..6].copy_from_slice(&self.length.to_be_bytes());
        b[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        b
    }

    /// Appends the 8-byte wire form to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bytes());
    }

    /// Decodes from the start of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if fewer than 8 bytes are present.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        wire::need(buf, UDP_HEADER_LEN)?;
        Ok(UdpHeader {
            src_port: wire::get_u16(buf, 0)?,
            dst_port: wire::get_u16(buf, 2)?,
            length: wire::get_u16(buf, 4)?,
            checksum: wire::get_u16(buf, 6)?,
        })
    }

    /// Payload bytes according to the length field.
    pub fn payload_len(&self) -> usize {
        (self.length as usize).saturating_sub(UDP_HEADER_LEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = UdpHeader::new(1234, 80, 500);
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(UdpHeader::decode(&buf).unwrap(), h);
        assert_eq!(h.length, 508);
        assert_eq!(h.payload_len(), 500);
    }

    #[test]
    fn wire_layout() {
        let h = UdpHeader::new(0x0102, 0x0304, 0);
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(buf, vec![1, 2, 3, 4, 0, 8, 0, 0]);
    }

    #[test]
    fn truncated_fails() {
        assert!(matches!(
            UdpHeader::decode(&[0u8; 7]),
            Err(DecodeError::Truncated { needed: 2, .. }) | Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn bogus_length_clamps_payload() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
            length: 3, // shorter than the header
            checksum: 0,
        };
        assert_eq!(h.payload_len(), 0);
    }
}
