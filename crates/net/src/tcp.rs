//! TCP header with a typed flags field.

use crate::wire;
use crate::DecodeError;
use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Wire length of a TCP header without options: 20 bytes.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP control flags, as a typed bit set.
///
/// # Example
///
/// ```
/// use sdnbuf_net::TcpFlags;
/// let synack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(synack.contains(TcpFlags::SYN));
/// assert!(synack.contains(TcpFlags::ACK));
/// assert!(!synack.contains(TcpFlags::FIN));
/// assert_eq!(synack.to_string(), "SYN|ACK");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Creates flags from the raw wire byte.
    pub const fn from_bits(bits: u8) -> Self {
        TcpFlags(bits)
    }

    /// The raw wire byte.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// `true` when every flag in `other` is also set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: [(TcpFlags, &str); 5] = [
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// A TCP header (no options).
///
/// # Example
///
/// ```
/// use sdnbuf_net::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
/// let h = TcpHeader::new(40000, 80, TcpFlags::SYN);
/// let mut buf = Vec::new();
/// h.encode_into(&mut buf);
/// assert_eq!(buf.len(), TCP_HEADER_LEN);
/// assert_eq!(TcpHeader::decode(&buf).unwrap(), h);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum (carried verbatim).
    pub checksum: u16,
    /// Urgent pointer.
    pub urgent: u16,
}

impl TcpHeader {
    /// Creates a header with a 64 KiB window and zeroed sequence numbers.
    pub fn new(src_port: u16, dst_port: u16, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags,
            window: 0xffff,
            checksum: 0,
            urgent: 0,
        }
    }

    /// The 20-byte wire form.
    pub fn to_bytes(&self) -> [u8; TCP_HEADER_LEN] {
        let mut b = [0u8; TCP_HEADER_LEN];
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..12].copy_from_slice(&self.ack.to_be_bytes());
        b[12] = 5 << 4; // data offset 5 words, reserved 0
        b[13] = self.flags.bits();
        b[14..16].copy_from_slice(&self.window.to_be_bytes());
        b[16..18].copy_from_slice(&self.checksum.to_be_bytes());
        b[18..20].copy_from_slice(&self.urgent.to_be_bytes());
        b
    }

    /// Appends the 20-byte wire form to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bytes());
    }

    /// Decodes from the start of `buf`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input;
    /// [`DecodeError::BadLengthField`] when the data offset is below the
    /// 5-word minimum.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        wire::need(buf, TCP_HEADER_LEN)?;
        let offset_words = wire::get_u8(buf, 12)? >> 4;
        if offset_words < 5 {
            return Err(DecodeError::BadLengthField {
                claimed: offset_words as usize * 4,
                actual: TCP_HEADER_LEN,
            });
        }
        Ok(TcpHeader {
            src_port: wire::get_u16(buf, 0)?,
            dst_port: wire::get_u16(buf, 2)?,
            seq: wire::get_u32(buf, 4)?,
            ack: wire::get_u32(buf, 8)?,
            flags: TcpFlags::from_bits(wire::get_u8(buf, 13)?),
            window: wire::get_u16(buf, 14)?,
            checksum: wire::get_u16(buf, 16)?,
            urgent: wire::get_u16(buf, 18)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = TcpHeader {
            src_port: 40000,
            dst_port: 443,
            seq: 0xdead_beef,
            ack: 0x0bad_cafe,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 8192,
            checksum: 0x1234,
            urgent: 0,
        };
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(TcpHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn truncated_fails() {
        assert!(matches!(
            TcpHeader::decode(&[0u8; 19]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = Vec::new();
        TcpHeader::new(1, 2, TcpFlags::SYN).encode_into(&mut buf);
        buf[12] = 4 << 4;
        assert!(matches!(
            TcpHeader::decode(&buf),
            Err(DecodeError::BadLengthField { .. })
        ));
    }

    #[test]
    fn flags_set_operations() {
        let mut f = TcpFlags::SYN;
        f |= TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::RST));
        assert_eq!(f.bits(), 0x12);
        assert_eq!(TcpFlags::from_bits(0x12), f);
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::EMPTY.to_string(), "(none)");
        assert_eq!((TcpFlags::FIN | TcpFlags::ACK).to_string(), "FIN|ACK");
    }
}
