//! Codec errors.

use std::error::Error;
use std::fmt;

/// An error produced while decoding an OpenFlow message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfpError {
    /// The buffer ended before the message was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The version byte was not OpenFlow 1.0 (`0x01`).
    BadVersion(u8),
    /// An unknown message type code.
    UnknownMsgType(u8),
    /// The header length field disagrees with the bytes present.
    BadLength {
        /// Length claimed by the header.
        claimed: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// An action entry was malformed (unknown type or bad length).
    BadAction {
        /// Action type code found.
        kind: u16,
        /// Action length field found.
        len: u16,
    },
    /// A vendor/experimenter payload was malformed.
    BadVendorPayload,
}

impl fmt::Display for OfpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfpError::Truncated { needed, got } => {
                write!(f, "truncated message: needed {needed} bytes, got {got}")
            }
            OfpError::BadVersion(v) => write!(f, "unsupported OpenFlow version {v:#04x}"),
            OfpError::UnknownMsgType(t) => write!(f, "unknown message type {t}"),
            OfpError::BadLength { claimed, actual } => write!(
                f,
                "header length {claimed} disagrees with {actual} bytes present"
            ),
            OfpError::BadAction { kind, len } => {
                write!(f, "malformed action: type {kind}, length {len}")
            }
            OfpError::BadVendorPayload => write!(f, "malformed vendor payload"),
        }
    }
}

impl Error for OfpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(OfpError::Truncated { needed: 8, got: 3 }
            .to_string()
            .contains("needed 8"));
        assert!(OfpError::BadVersion(4).to_string().contains("0x04"));
        assert!(OfpError::UnknownMsgType(99).to_string().contains("99"));
        assert!(OfpError::BadLength {
            claimed: 100,
            actual: 50
        }
        .to_string()
        .contains("100"));
        assert!(OfpError::BadAction { kind: 7, len: 3 }
            .to_string()
            .contains("7"));
        assert!(!OfpError::BadVendorPayload.to_string().is_empty());
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<OfpError>();
    }
}
