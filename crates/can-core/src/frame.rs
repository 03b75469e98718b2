//! CAN 2.0A data and remote frames.

use core::fmt;

use crate::errors::InvalidFrame;
use crate::id::CanId;

/// Maximum payload length of a CAN 2.0A frame in bytes.
pub const MAX_PAYLOAD: usize = 8;

/// A CAN 2.0A frame at the application level: identifier, RTR flag, DLC and
/// payload.
///
/// This is the view a classic CAN controller exposes to software (paper
/// §II-C, nodes A/B): the controller itself adds SOF, CRC, ACK, EOF and bit
/// stuffing. Use [`crate::bitstream`] for the wire-level form.
///
/// ```
/// use can_core::{CanFrame, CanId};
///
/// # fn main() -> Result<(), can_core::errors::InvalidFrame> {
/// let frame = CanFrame::builder(CanId::new(0x260).unwrap())
///     .data(&[0x01, 0x02])?
///     .build();
/// assert_eq!(frame.dlc(), 2);
/// assert_eq!(frame.data(), &[0x01, 0x02]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanFrame {
    id: CanId,
    rtr: bool,
    dlc: u8,
    data: [u8; MAX_PAYLOAD],
}

impl CanFrame {
    /// Starts building a data frame with the given identifier.
    pub fn builder(id: CanId) -> CanFrameBuilder {
        CanFrameBuilder {
            id,
            rtr: false,
            dlc: 0,
            data: [0; MAX_PAYLOAD],
        }
    }

    /// Creates a data frame from an identifier and payload.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFrame::PayloadTooLong`] if `payload.len() > 8`.
    pub fn data_frame(id: CanId, payload: &[u8]) -> Result<Self, InvalidFrame> {
        Ok(Self::builder(id).data(payload)?.build())
    }

    /// Creates a remote frame (RTR set) requesting `dlc` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFrame::DlcTooLarge`] if `dlc > 8`.
    pub fn remote_frame(id: CanId, dlc: u8) -> Result<Self, InvalidFrame> {
        if dlc as usize > MAX_PAYLOAD {
            return Err(InvalidFrame::DlcTooLarge { dlc });
        }
        Ok(CanFrame {
            id,
            rtr: true,
            dlc,
            data: [0; MAX_PAYLOAD],
        })
    }

    /// The frame identifier.
    #[inline]
    pub const fn id(&self) -> CanId {
        self.id
    }

    /// Whether the remote transmission request bit is set.
    #[inline]
    pub const fn is_remote(&self) -> bool {
        self.rtr
    }

    /// The data length code (0–8).
    #[inline]
    pub const fn dlc(&self) -> u8 {
        self.dlc
    }

    /// The payload, truncated to the DLC. Empty for remote frames.
    #[inline]
    pub fn data(&self) -> &[u8] {
        if self.rtr {
            &[]
        } else {
            &self.data[..self.dlc as usize]
        }
    }
}

impl fmt::Display for CanFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rtr {
            write!(f, "{} [RTR dlc={}]", self.id, self.dlc)
        } else {
            write!(f, "{} [{}]", self.id, self.dlc)?;
            for byte in self.data() {
                write!(f, " {byte:02X}")?;
            }
            Ok(())
        }
    }
}

/// Builder for [`CanFrame`] (see `C-BUILDER`).
#[derive(Debug, Clone)]
pub struct CanFrameBuilder {
    id: CanId,
    rtr: bool,
    dlc: u8,
    data: [u8; MAX_PAYLOAD],
}

impl CanFrameBuilder {
    /// Sets the payload (implies a data frame and sets DLC to its length).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFrame::PayloadTooLong`] if `payload.len() > 8`.
    pub fn data(mut self, payload: &[u8]) -> Result<Self, InvalidFrame> {
        if payload.len() > MAX_PAYLOAD {
            return Err(InvalidFrame::PayloadTooLong { len: payload.len() });
        }
        self.dlc = payload.len() as u8;
        self.data = [0; MAX_PAYLOAD];
        self.data[..payload.len()].copy_from_slice(payload);
        self.rtr = false;
        Ok(self)
    }

    /// Builds the frame.
    pub fn build(self) -> CanFrame {
        CanFrame {
            id: self.id,
            rtr: self.rtr,
            dlc: self.dlc,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u16) -> CanId {
        CanId::from_raw(raw)
    }

    #[test]
    fn data_frame_round_trip() {
        let frame = CanFrame::data_frame(id(0x173), &[1, 2, 3]).unwrap();
        assert_eq!(frame.id(), id(0x173));
        assert_eq!(frame.dlc(), 3);
        assert_eq!(frame.data(), &[1, 2, 3]);
        assert!(!frame.is_remote());
    }

    #[test]
    fn payload_too_long_rejected() {
        let err = CanFrame::data_frame(id(0), &[0; 9]).unwrap_err();
        assert_eq!(err, InvalidFrame::PayloadTooLong { len: 9 });
    }

    #[test]
    fn remote_frame_has_empty_data() {
        let frame = CanFrame::remote_frame(id(0x321), 4).unwrap();
        assert!(frame.is_remote());
        assert_eq!(frame.dlc(), 4);
        assert_eq!(frame.data(), &[] as &[u8]);
    }

    #[test]
    fn remote_frame_dlc_validation() {
        assert_eq!(
            CanFrame::remote_frame(id(0), 9).unwrap_err(),
            InvalidFrame::DlcTooLarge { dlc: 9 }
        );
        assert!(CanFrame::remote_frame(id(0), 8).is_ok());
    }

    #[test]
    fn unstuffed_length_matches_paper_shapes() {
        // 8-byte frame: 44 overhead + 64 data = 108 unstuffed bits; with
        // stuff bits the paper's "average CAN frame consists of 125 bits".
        let bits = |f: &CanFrame| crate::bitstream::FrameLayout::of(f).total_bits();
        let f8 = CanFrame::data_frame(id(0x7FF), &[0xFF; 8]).unwrap();
        assert_eq!(bits(&f8), 108);
        let f0 = CanFrame::data_frame(id(0), &[]).unwrap();
        assert_eq!(bits(&f0), 44);
        let rtr = CanFrame::remote_frame(id(0), 8).unwrap();
        assert_eq!(bits(&rtr), 44);
    }

    #[test]
    fn builder_overwrites_previous_payload() {
        let frame = CanFrame::builder(id(1))
            .data(&[9; 8])
            .unwrap()
            .data(&[1])
            .unwrap()
            .build();
        assert_eq!(frame.data(), &[1]);
        assert_eq!(frame.dlc(), 1);
    }

    #[test]
    fn display_formats() {
        let f = CanFrame::data_frame(id(0x64), &[0xAB, 0x00]).unwrap();
        assert_eq!(f.to_string(), "0x064 [2] AB 00");
        let r = CanFrame::remote_frame(id(0x64), 2).unwrap();
        assert_eq!(r.to_string(), "0x064 [RTR dlc=2]");
    }

    #[test]
    fn frames_are_hashable_and_copyable() {
        use std::collections::HashSet;
        let f = CanFrame::data_frame(id(5), &[1]).unwrap();
        let copied = f;
        let mut set = HashSet::new();
        set.insert(f);
        assert!(set.contains(&copied));
    }
}
