//! The common `ofp_header` and message type codes.

use crate::wire;
use crate::{OfpError, OFP_HEADER_LEN, OFP_VERSION};
use std::fmt;

/// The OpenFlow 1.0 message type codes this implementation speaks. The
/// specification's `port_status` (12), `port_mod` (15), `stats_*` (16, 17),
/// `barrier_*` (18, 19) and `queue_get_config_*` (20, 21) are not among
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // names mirror the specification 1:1
pub enum MsgType {
    Hello = 0,
    Error = 1,
    EchoRequest = 2,
    EchoReply = 3,
    Vendor = 4,
    FeaturesRequest = 5,
    FeaturesReply = 6,
    GetConfigRequest = 7,
    GetConfigReply = 8,
    SetConfig = 9,
    PacketIn = 10,
    FlowRemoved = 11,
    PacketOut = 13,
    FlowMod = 14,
}

impl MsgType {
    /// Parses a wire type code.
    ///
    /// # Errors
    ///
    /// [`OfpError::UnknownMsgType`] for codes this implementation does not
    /// speak.
    pub fn from_u8(v: u8) -> Result<MsgType, OfpError> {
        use MsgType::*;
        Ok(match v {
            0 => Hello,
            1 => Error,
            2 => EchoRequest,
            3 => EchoReply,
            4 => Vendor,
            5 => FeaturesRequest,
            6 => FeaturesReply,
            7 => GetConfigRequest,
            8 => GetConfigReply,
            9 => SetConfig,
            10 => PacketIn,
            11 => FlowRemoved,
            13 => PacketOut,
            14 => FlowMod,
            other => return Err(OfpError::UnknownMsgType(other)),
        })
    }
}

impl fmt::Display for MsgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The 8-byte common header at the front of every OpenFlow message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OfpHeader {
    /// Message type.
    pub msg_type: MsgType,
    /// Total message length including this header.
    pub length: u16,
    /// Transaction id echoed between request and reply.
    pub xid: u32,
}

impl OfpHeader {
    /// Appends the 8-byte wire form. The length field must already include
    /// the header itself.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(OFP_VERSION);
        buf.push(self.msg_type as u8);
        buf.extend_from_slice(&self.length.to_be_bytes());
        buf.extend_from_slice(&self.xid.to_be_bytes());
    }

    /// Decodes and validates the header from the start of `buf`.
    ///
    /// # Errors
    ///
    /// [`OfpError::Truncated`] on short input, [`OfpError::BadVersion`] for
    /// non-1.0 messages, [`OfpError::UnknownMsgType`], and
    /// [`OfpError::BadLength`] when the length field exceeds the bytes
    /// available or is shorter than the header itself.
    pub fn decode(buf: &[u8]) -> Result<OfpHeader, OfpError> {
        wire::need(buf, OFP_HEADER_LEN)?;
        let version = buf[0];
        if version != OFP_VERSION {
            return Err(OfpError::BadVersion(version));
        }
        let msg_type = MsgType::from_u8(buf[1])?;
        let length = wire::get_u16(buf, 2)?;
        if (length as usize) < OFP_HEADER_LEN || length as usize > buf.len() {
            return Err(OfpError::BadLength {
                claimed: length as usize,
                actual: buf.len(),
            });
        }
        let xid = wire::get_u32(buf, 4)?;
        Ok(OfpHeader {
            msg_type,
            length,
            xid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = OfpHeader {
            msg_type: MsgType::PacketIn,
            length: 100,
            xid: 0xdeadbeef,
        };
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        buf.resize(100, 0);
        assert_eq!(OfpHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn all_types_round_trip() {
        let mut spoken = 0;
        for code in 0u8..=u8::MAX {
            match MsgType::from_u8(code) {
                Ok(t) => {
                    assert_eq!(t as u8, code);
                    spoken += 1;
                }
                Err(e) => assert_eq!(e, OfpError::UnknownMsgType(code)),
            }
        }
        assert_eq!(spoken, 14);
        for unspoken in [12, 15, 16, 17, 18, 19, 20, 21, 22] {
            assert!(MsgType::from_u8(unspoken).is_err(), "{unspoken}");
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = vec![0x04, 0, 0, 8, 0, 0, 0, 0];
        assert_eq!(OfpHeader::decode(&buf), Err(OfpError::BadVersion(4)));
        buf[0] = OFP_VERSION;
        assert!(OfpHeader::decode(&buf).is_ok());
    }

    #[test]
    fn rejects_bad_lengths() {
        // Length field larger than the buffer.
        let buf = vec![OFP_VERSION, 0, 0, 16, 0, 0, 0, 0];
        assert_eq!(
            OfpHeader::decode(&buf),
            Err(OfpError::BadLength {
                claimed: 16,
                actual: 8
            })
        );
        // Length field shorter than the header.
        let buf = vec![OFP_VERSION, 0, 0, 4, 0, 0, 0, 0];
        assert!(matches!(
            OfpHeader::decode(&buf),
            Err(OfpError::BadLength { claimed: 4, .. })
        ));
    }

    #[test]
    fn truncated_fails() {
        assert!(matches!(
            OfpHeader::decode(&[1, 0, 0]),
            Err(OfpError::Truncated { .. })
        ));
    }

    #[test]
    fn display_is_debug_name() {
        assert_eq!(MsgType::PacketIn.to_string(), "PacketIn");
    }
}
