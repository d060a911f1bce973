//! OpenFlow 1.0 actions.

use crate::wire;
use crate::{ActionList, OfpError, PortNo};
use std::fmt;

const OFPAT_OUTPUT: u16 = 0;
const OUTPUT_LEN: usize = 8;

/// The `actions` bitmap a `features_reply` advertises: bit `t` set for each
/// action type `t` that [`Action::decode`] accepts — `OUTPUT` alone.
pub const SUPPORTED_ACTIONS: u32 = 1 << OFPAT_OUTPUT;

/// An OpenFlow 1.0 action.
///
/// Only `OUTPUT` is implemented: the action every reactive forwarding
/// decision uses, and the only one a run sends. Every other type decodes
/// to [`OfpError::BadAction`]. An empty action list means *drop*.
///
/// # Example
///
/// ```
/// use sdnbuf_openflow::{Action, PortNo};
/// let a = Action::Output { port: PortNo(2), max_len: 0 };
/// let mut buf = Vec::new();
/// a.encode_into(&mut buf);
/// assert_eq!(buf.len(), a.wire_len());
/// let (back, used) = Action::decode(&buf).unwrap();
/// assert_eq!(back, a);
/// assert_eq!(used, 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward out a port. `max_len` caps bytes sent when the port is
    /// `CONTROLLER`.
    Output {
        /// Destination port.
        port: PortNo,
        /// Max bytes to send when outputting to the controller.
        max_len: u16,
    },
}

impl Action {
    /// Convenience constructor for a plain output action.
    pub fn output(port: PortNo) -> Action {
        Action::Output { port, max_len: 0 }
    }

    /// Encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        OUTPUT_LEN
    }

    /// Appends the wire form.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let Action::Output { port, max_len } = self;
        buf.extend_from_slice(&OFPAT_OUTPUT.to_be_bytes());
        buf.extend_from_slice(&(OUTPUT_LEN as u16).to_be_bytes());
        buf.extend_from_slice(&port.as_u16().to_be_bytes());
        buf.extend_from_slice(&max_len.to_be_bytes());
    }

    /// Decodes one action from the start of `buf`; returns the action and
    /// the bytes consumed.
    ///
    /// # Errors
    ///
    /// [`OfpError::Truncated`] or [`OfpError::BadAction`] for unknown types
    /// or inconsistent length fields.
    pub fn decode(buf: &[u8]) -> Result<(Action, usize), OfpError> {
        let kind = wire::get_u16(buf, 0)?;
        let len = wire::get_u16(buf, 2)?;
        match (kind, len as usize) {
            (OFPAT_OUTPUT, OUTPUT_LEN) => {
                wire::need(buf, OUTPUT_LEN)?;
                Ok((
                    Action::Output {
                        port: PortNo(wire::get_u16(buf, 4)?),
                        max_len: wire::get_u16(buf, 6)?,
                    },
                    OUTPUT_LEN,
                ))
            }
            _ => Err(OfpError::BadAction { kind, len }),
        }
    }

    /// Encodes a whole action list.
    pub fn encode_list(actions: &[Action], buf: &mut Vec<u8>) {
        for a in actions {
            a.encode_into(buf);
        }
    }

    /// Total encoded length of an action list.
    pub fn list_len(actions: &[Action]) -> usize {
        actions.iter().map(Action::wire_len).sum()
    }

    /// Decodes exactly `len` bytes of actions.
    ///
    /// # Errors
    ///
    /// Any per-action decode error, or [`OfpError::Truncated`] if `len`
    /// exceeds the buffer.
    pub fn decode_list(buf: &[u8], len: usize) -> Result<ActionList, OfpError> {
        wire::need(buf, len)?;
        let mut at = 0;
        std::iter::from_fn(|| {
            (at < len).then(|| {
                Action::decode(&buf[at..len]).map(|(action, used)| {
                    at += used;
                    action
                })
            })
        })
        .collect()
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output { port, max_len: 0 } => write!(f, "output:{port}"),
            Action::Output { port, max_len } => write!(f, "output:{port}(max {max_len}B)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_round_trip() {
        let a = Action::Output {
            port: PortNo::CONTROLLER,
            max_len: 128,
        };
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(Action::decode(&buf).unwrap(), (a, 8));
    }

    #[test]
    fn list_round_trip() {
        let actions = vec![
            Action::output(PortNo(2)),
            Action::Output {
                port: PortNo::CONTROLLER,
                max_len: 64,
            },
            Action::output(PortNo::FLOOD),
        ];
        let mut buf = Vec::new();
        Action::encode_list(&actions, &mut buf);
        assert_eq!(buf.len(), Action::list_len(&actions));
        assert_eq!(Action::decode_list(&buf, buf.len()).unwrap(), actions);
    }

    #[test]
    fn empty_list_is_drop() {
        assert_eq!(Action::list_len(&[]), 0);
        assert!(Action::decode_list(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn unknown_action_rejected() {
        let buf = [0x00, 0x63, 0x00, 0x08, 0, 0, 0, 0]; // type 99
        assert_eq!(
            Action::decode(&buf),
            Err(OfpError::BadAction { kind: 99, len: 8 })
        );
    }

    /// A well-formed action of each type code 0..=11 of OpenFlow 1.0 — the
    /// lengths are the specification's — decodes exactly when
    /// `features_reply` advertises its type.
    #[test]
    fn decode_accepts_exactly_the_advertised_actions() {
        const SPEC_LEN: [u16; 12] = [8, 8, 8, 8, 16, 16, 16, 16, 8, 8, 8, 16];
        for (kind, len) in (0u16..).zip(SPEC_LEN) {
            let mut buf = vec![0; usize::from(len)];
            buf[..2].copy_from_slice(&kind.to_be_bytes());
            buf[2..4].copy_from_slice(&len.to_be_bytes());
            let advertised = SUPPORTED_ACTIONS & (1 << kind) != 0;
            match Action::decode(&buf) {
                Ok((_, used)) => assert!(advertised && used == buf.len(), "type {kind}"),
                Err(e) => assert_eq!((advertised, e), (false, OfpError::BadAction { kind, len })),
            }
        }
    }

    #[test]
    fn bad_length_rejected() {
        let buf = [0x00, 0x00, 0x00, 0x04, 0, 0, 0, 0]; // output with len 4
        assert!(matches!(
            Action::decode(&buf),
            Err(OfpError::BadAction { kind: 0, len: 4 })
        ));
    }

    #[test]
    fn truncated_list_rejected() {
        let a = Action::output(PortNo(1));
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        assert!(Action::decode_list(&buf, 16).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Action::output(PortNo(2)).to_string(), "output:port2");
        assert_eq!(
            Action::Output {
                port: PortNo::CONTROLLER,
                max_len: 64
            }
            .to_string(),
            "output:CONTROLLER(max 64B)"
        );
    }
}
