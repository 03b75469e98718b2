//! Error values and the five CAN error types.
//!
//! ISO 11898-1 defines five error detection mechanisms (paper §II-B):
//! bit monitoring, bit stuffing, frame (form) check, acknowledgment check
//! and cyclic redundancy check. [`CanErrorKind`] enumerates them; the rest
//! of this module holds the crate's fallible-constructor error types.

use core::fmt;
use std::error::Error;

/// The five CAN error types.
///
/// MichiCAN's counterattack deliberately provokes [`Bit`](CanErrorKind::Bit)
/// and [`Stuff`](CanErrorKind::Stuff) errors in the attacker's transmission
/// (paper §IV-E); the simulator raises all five.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CanErrorKind {
    /// Bit monitoring: a transmitter read back a bus level different from
    /// the level it wrote (outside arbitration and the ACK slot).
    Bit,
    /// Bit stuffing: six consecutive bits of identical level inside the
    /// stuffed region of a frame.
    Stuff,
    /// Frame/form check: a fixed-form field (delimiter, EOF) held an
    /// illegal level.
    Form,
    /// Acknowledgment check: no receiver asserted a dominant ACK slot.
    Ack,
    /// Cyclic redundancy check mismatch.
    Crc,
}

impl CanErrorKind {
    /// All five error kinds.
    pub const ALL: [CanErrorKind; 5] = [
        CanErrorKind::Bit,
        CanErrorKind::Stuff,
        CanErrorKind::Form,
        CanErrorKind::Ack,
        CanErrorKind::Crc,
    ];
}

impl fmt::Display for CanErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CanErrorKind::Bit => "bit monitoring error",
            CanErrorKind::Stuff => "bit stuffing error",
            CanErrorKind::Form => "form error",
            CanErrorKind::Ack => "acknowledgment error",
            CanErrorKind::Crc => "CRC error",
        };
        f.write_str(name)
    }
}

/// An identifier outside the 11-bit CAN 2.0A range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InvalidId {
    /// The rejected raw value.
    pub raw: u16,
}

impl fmt::Display for InvalidId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "identifier 0x{:X} exceeds the 11-bit CAN 2.0A range (max 0x7FF)",
            self.raw
        )
    }
}

impl Error for InvalidId {}

/// A frame that violates CAN 2.0A structural constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvalidFrame {
    /// The payload exceeded 8 bytes.
    PayloadTooLong {
        /// The rejected payload length.
        len: usize,
    },
    /// The DLC exceeded 8.
    DlcTooLarge {
        /// The rejected DLC value.
        dlc: u8,
    },
    /// A remote frame carried a payload.
    RemoteFrameWithData,
}

impl fmt::Display for InvalidFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidFrame::PayloadTooLong { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the CAN 2.0A maximum of 8"
                )
            }
            InvalidFrame::DlcTooLarge { dlc } => {
                write!(f, "DLC {dlc} exceeds the CAN 2.0A maximum of 8")
            }
            InvalidFrame::RemoteFrameWithData => {
                f.write_str("remote frames must not carry a data payload")
            }
        }
    }
}

impl Error for InvalidFrame {}

/// A received bit stream that cannot be decoded into a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeError {
    /// Six consecutive equal levels inside the stuffed region.
    StuffViolation {
        /// Stuffed-stream bit index at which the sixth equal bit arrived.
        position: usize,
    },
    /// The computed CRC-15 did not match the received sequence.
    CrcMismatch {
        /// CRC computed over the received fields.
        computed: u16,
        /// CRC carried in the frame.
        received: u16,
    },
    /// A fixed-form bit held an illegal level.
    FormViolation {
        /// Unstuffed-stream bit index of the offending bit.
        position: usize,
        /// Human-readable field name.
        field: &'static str,
    },
    /// The stream ended before the frame was complete.
    Truncated,
    /// The IDE bit was recessive: extended (29-bit) frames are out of scope.
    ExtendedFrame,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::StuffViolation { position } => {
                write!(f, "stuff violation at stuffed bit {position}")
            }
            DecodeError::CrcMismatch { computed, received } => write!(
                f,
                "CRC mismatch: computed 0x{computed:04X}, received 0x{received:04X}"
            ),
            DecodeError::FormViolation { position, field } => {
                write!(f, "form violation in {field} at bit {position}")
            }
            DecodeError::Truncated => f.write_str("bit stream ended mid-frame"),
            DecodeError::ExtendedFrame => f.write_str("extended (29-bit) frames are not supported"),
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_kinds_are_five() {
        assert_eq!(CanErrorKind::ALL.len(), 5);
    }

    #[test]
    fn displays_are_lowercase_and_concise() {
        assert_eq!(CanErrorKind::Bit.to_string(), "bit monitoring error");
        assert_eq!(CanErrorKind::Stuff.to_string(), "bit stuffing error");
        let id_err = InvalidId { raw: 0x900 };
        assert!(id_err.to_string().contains("0x900"));
        let frame_err = InvalidFrame::PayloadTooLong { len: 9 };
        assert!(frame_err.to_string().contains('9'));
    }

    #[test]
    fn errors_implement_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<InvalidId>();
        assert_error::<InvalidFrame>();
        assert_error::<DecodeError>();
    }

    #[test]
    fn decode_error_messages() {
        assert!(DecodeError::StuffViolation { position: 12 }
            .to_string()
            .contains("12"));
        assert!(DecodeError::CrcMismatch {
            computed: 0x1,
            received: 0x2
        }
        .to_string()
        .contains("0x0001"));
        assert!(DecodeError::Truncated.to_string().contains("mid-frame"));
    }
}
