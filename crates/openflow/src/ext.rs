//! The vendor/experimenter extension carrying the paper's flow-granularity
//! buffer mechanism negotiation.
//!
//! Section V of the paper notes the proposed mechanism "requires to extend
//! the OpenFlow protocol". OpenFlow's sanctioned extension point in v1.0 is
//! the `OFPT_VENDOR` message; this module defines the payloads a switch and
//! controller exchange to negotiate flow-granularity buffering:
//!
//! * [`FlowBufferExt::Announce`] — switch → controller: "I support
//!   flow-granularity buffering with this capacity and re-request timeout."
//! * [`FlowBufferExt::Configure`] — controller → switch: enable or disable
//!   the mechanism and set the timeout of Algorithm 1, line 12.

use crate::wire;
use crate::OfpError;
use std::borrow::Cow;
use std::sync::{Mutex, PoisonError};

/// Vendor/experimenter id used by this reproduction's extension messages.
pub const FLOW_BUFFER_VENDOR_ID: u32 = 0x00C0_FFEE;

const SUBTYPE_ANNOUNCE: u16 = 1;
const SUBTYPE_CONFIGURE: u16 = 2;
const PAYLOAD_LEN: usize = 12;

/// How many distinct extension payloads [`FlowBufferExt::payload`] keeps
/// for the life of the process (12 B each).
const INTERNED_PAYLOADS: usize = 64;

/// Payload of a flow-granularity-buffer vendor message.
///
/// # Example
///
/// ```
/// use sdnbuf_openflow::{FlowBufferExt, OfpMessage};
///
/// let msg = OfpMessage::from(FlowBufferExt::Announce {
///     capacity: 256,
///     timeout_ms: 50,
/// });
/// let bytes = msg.encode(1);
/// let (back, _) = OfpMessage::decode(&bytes).unwrap();
/// let ext = FlowBufferExt::from_message(&back).unwrap().unwrap();
/// assert_eq!(ext, FlowBufferExt::Announce { capacity: 256, timeout_ms: 50 });
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlowBufferExt {
    /// Switch → controller capability announcement.
    Announce {
        /// Total buffer units available.
        capacity: u32,
        /// Re-request timeout (Algorithm 1, line 12) in milliseconds.
        timeout_ms: u32,
    },
    /// Controller → switch configuration.
    Configure {
        /// Whether flow-granularity buffering is enabled.
        enabled: bool,
        /// Re-request timeout in milliseconds.
        timeout_ms: u32,
    },
}

impl FlowBufferExt {
    /// Encodes the vendor-message payload (excluding the vendor id).
    pub fn encode_payload(&self) -> [u8; PAYLOAD_LEN] {
        let (subtype, word, timeout_ms) = match *self {
            FlowBufferExt::Announce {
                capacity,
                timeout_ms,
            } => (SUBTYPE_ANNOUNCE, capacity, timeout_ms),
            FlowBufferExt::Configure {
                enabled,
                timeout_ms,
            } => (SUBTYPE_CONFIGURE, u32::from(enabled), timeout_ms),
        };
        let mut buf = [0; PAYLOAD_LEN];
        buf[..2].copy_from_slice(&subtype.to_be_bytes());
        // Bytes 2..4 are padding.
        buf[4..8].copy_from_slice(&word.to_be_bytes());
        buf[8..].copy_from_slice(&timeout_ms.to_be_bytes());
        buf
    }

    /// The encoded payload, borrowed for the rest of the process: each
    /// distinct extension is encoded into a payload of its own once, so
    /// the announcement and the configuration every handshake of a run
    /// carries allocate nothing after the first. Past 64 distinct ones, a
    /// payload is owned instead.
    pub fn payload(&self) -> Cow<'static, [u8]> {
        static INTERNED: Mutex<Vec<&'static [u8; PAYLOAD_LEN]>> = Mutex::new(Vec::new());
        let payload = self.encode_payload();
        let mut interned = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&kept) = interned.iter().find(|&&kept| *kept == payload) {
            return Cow::Borrowed(kept);
        }
        if interned.len() == INTERNED_PAYLOADS {
            return Cow::Owned(payload.to_vec());
        }
        let kept: &'static [u8; PAYLOAD_LEN] = Box::leak(Box::new(payload));
        interned.push(kept);
        Cow::Borrowed(kept)
    }

    /// Decodes a vendor-message payload.
    ///
    /// # Errors
    ///
    /// [`OfpError::BadVendorPayload`] for unknown subtypes or wrong sizes.
    pub fn decode_payload(data: &[u8]) -> Result<FlowBufferExt, OfpError> {
        if data.len() != PAYLOAD_LEN {
            return Err(OfpError::BadVendorPayload);
        }
        let subtype = wire::get_u16(data, 0)?;
        match subtype {
            SUBTYPE_ANNOUNCE => Ok(FlowBufferExt::Announce {
                capacity: wire::get_u32(data, 4)?,
                timeout_ms: wire::get_u32(data, 8)?,
            }),
            SUBTYPE_CONFIGURE => {
                let raw = wire::get_u32(data, 4)?;
                if raw > 1 {
                    return Err(OfpError::BadVendorPayload);
                }
                Ok(FlowBufferExt::Configure {
                    enabled: raw == 1,
                    timeout_ms: wire::get_u32(data, 8)?,
                })
            }
            _ => Err(OfpError::BadVendorPayload),
        }
    }

    /// Extracts a flow-buffer extension from a decoded message.
    ///
    /// Returns `None` for messages that are not flow-buffer vendor messages;
    /// `Some(Err(_))` when the message claims to be one but is malformed.
    pub fn from_message(msg: &crate::OfpMessage) -> Option<Result<FlowBufferExt, OfpError>> {
        match msg {
            crate::OfpMessage::Vendor(v) if v.vendor == FLOW_BUFFER_VENDOR_ID => {
                Some(FlowBufferExt::decode_payload(&v.data))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_round_trip() {
        let e = FlowBufferExt::Announce {
            capacity: 256,
            timeout_ms: 50,
        };
        assert_eq!(FlowBufferExt::decode_payload(&e.encode_payload()), Ok(e));
    }

    #[test]
    fn configure_round_trip() {
        for enabled in [true, false] {
            let e = FlowBufferExt::Configure {
                enabled,
                timeout_ms: 10,
            };
            assert_eq!(FlowBufferExt::decode_payload(&e.encode_payload()), Ok(e));
        }
    }

    #[test]
    fn rejects_wrong_size() {
        assert_eq!(
            FlowBufferExt::decode_payload(&[0; 11]),
            Err(OfpError::BadVendorPayload)
        );
        assert_eq!(
            FlowBufferExt::decode_payload(&[0; 13]),
            Err(OfpError::BadVendorPayload)
        );
    }

    #[test]
    fn rejects_unknown_subtype() {
        let mut p = FlowBufferExt::Announce {
            capacity: 1,
            timeout_ms: 1,
        }
        .encode_payload();
        p[1] = 9;
        assert_eq!(
            FlowBufferExt::decode_payload(&p),
            Err(OfpError::BadVendorPayload)
        );
    }

    #[test]
    fn rejects_non_boolean_enable() {
        let mut p = FlowBufferExt::Configure {
            enabled: true,
            timeout_ms: 1,
        }
        .encode_payload();
        p[7] = 2;
        assert_eq!(
            FlowBufferExt::decode_payload(&p),
            Err(OfpError::BadVendorPayload)
        );
    }

    #[test]
    fn a_payload_is_encoded_once_and_borrowed_after() {
        let e = FlowBufferExt::Configure {
            enabled: true,
            timeout_ms: 0x5eed,
        };
        let (Cow::Borrowed(first), Cow::Borrowed(again)) = (e.payload(), e.payload()) else {
            panic!("an extension among the first {INTERNED_PAYLOADS} is borrowed");
        };
        assert!(std::ptr::eq(first, again));
        assert_eq!(first, e.encode_payload());
        // Past the table's size a payload is owned, and still the same bytes.
        for timeout_ms in 0..2 * INTERNED_PAYLOADS as u32 {
            let e = FlowBufferExt::Announce {
                capacity: 7,
                timeout_ms,
            };
            assert_eq!(*e.payload(), e.encode_payload());
        }
    }
}
