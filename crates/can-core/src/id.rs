//! The 11-bit CAN 2.0A identifier.
//!
//! CAN frames carry no source or destination address; the identifier encodes
//! both the *meaning* and the *priority* of a message. Lower numeric values
//! win arbitration ("dominant 0 overwrites recessive 1"), which is exactly
//! the property DoS attackers abuse by flooding low identifiers.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::errors::InvalidId;
use crate::level::Level;

/// An 11-bit CAN 2.0A identifier.
///
/// Construction validates the 11-bit range; the inner value is therefore
/// always `<= CanId::MAX_RAW`.
///
/// The derived [`Ord`] is numeric: *smaller is higher priority*. Use
/// [`CanId::outranks`] when priority semantics should be explicit at the
/// call site.
///
/// ```
/// use can_core::CanId;
/// let brake = CanId::new(0x064).unwrap();
/// let infotainment = CanId::new(0x5F0).unwrap();
/// assert!(brake.outranks(infotainment));
/// assert_eq!(format!("{brake}"), "0x064");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CanId(u16);

impl CanId {
    /// Number of identifier bits in a CAN 2.0A (base format) frame.
    pub const BITS: usize = 11;

    /// The largest raw identifier value, `0x7FF`.
    pub const MAX_RAW: u16 = 0x7FF;

    /// The highest-priority identifier, `0x000` — the classic "traditional
    /// DoS" identifier from the paper's threat model.
    pub const HIGHEST_PRIORITY: CanId = CanId(0);

    /// Creates an identifier, validating the 11-bit range.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidId`] if `raw > 0x7FF`.
    ///
    /// ```
    /// use can_core::CanId;
    /// assert!(CanId::new(0x7FF).is_ok());
    /// assert!(CanId::new(0x800).is_err());
    /// ```
    pub const fn new(raw: u16) -> Result<Self, InvalidId> {
        if raw > Self::MAX_RAW {
            Err(InvalidId { raw })
        } else {
            Ok(CanId(raw))
        }
    }

    /// Creates an identifier from a value known to be in range.
    ///
    /// # Panics
    ///
    /// Panics if `raw > 0x7FF`. Prefer [`CanId::new`] for untrusted input;
    /// this is intended for literals in tests and tables.
    pub const fn from_raw(raw: u16) -> Self {
        match Self::new(raw) {
            Ok(id) => id,
            Err(_) => panic!("CAN identifier out of 11-bit range"),
        }
    }

    /// The raw identifier value.
    #[inline]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Returns `true` if `self` wins arbitration against `other`
    /// (numerically smaller ⇒ higher priority).
    ///
    /// Equal identifiers do not outrank each other.
    #[inline]
    pub const fn outranks(self, other: CanId) -> bool {
        self.0 < other.0
    }

    /// The identifier bit at `index`, MSB first (`index 0` is transmitted
    /// first on the wire).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 11`.
    ///
    /// ```
    /// use can_core::{CanId, Level};
    /// let id = CanId::from_raw(0b100_0000_0000);
    /// assert_eq!(id.bit(0), Level::Recessive); // MSB is 1
    /// assert_eq!(id.bit(1), Level::Dominant);
    /// ```
    #[inline]
    pub fn bit(self, index: usize) -> Level {
        assert!(index < Self::BITS, "identifier bit index out of range");
        Level::from_bit((self.0 >> (Self::BITS - 1 - index)) & 1 == 1)
    }

    /// Iterates over the 11 identifier bits in wire order (MSB first).
    pub fn bits(self) -> impl Iterator<Item = Level> {
        (0..Self::BITS).map(move |i| self.bit(i))
    }

    /// Number of trailing (least-significant) dominant bits.
    ///
    /// Relevant to the counterattack analysis (paper §IV-E): if the five
    /// least-significant identifier bits are dominant, a single injected
    /// dominant bit in the RTR slot already produces a stuff error.
    ///
    /// ```
    /// use can_core::CanId;
    /// assert_eq!(CanId::from_raw(0b000_0010_0000).trailing_dominant_bits(), 5);
    /// assert_eq!(CanId::from_raw(0x7FF).trailing_dominant_bits(), 0);
    /// ```
    #[inline]
    pub const fn trailing_dominant_bits(self) -> u32 {
        if self.0 == 0 {
            Self::BITS as u32
        } else {
            let tz = self.0.trailing_zeros();
            if tz > Self::BITS as u32 {
                Self::BITS as u32
            } else {
                tz
            }
        }
    }

    /// The next-lower identifier (higher priority), if any.
    pub const fn higher_priority_neighbor(self) -> Option<CanId> {
        if self.0 == 0 {
            None
        } else {
            Some(CanId(self.0 - 1))
        }
    }

    /// The next-higher identifier (lower priority), if any.
    pub const fn lower_priority_neighbor(self) -> Option<CanId> {
        if self.0 == Self::MAX_RAW {
            None
        } else {
            Some(CanId(self.0 + 1))
        }
    }

    /// Iterates over the whole 11-bit identifier space in priority order.
    pub fn all() -> impl Iterator<Item = CanId> {
        (0..=Self::MAX_RAW).map(CanId)
    }
}

impl TryFrom<u16> for CanId {
    type Error = InvalidId;

    fn try_from(raw: u16) -> Result<Self, InvalidId> {
        CanId::new(raw)
    }
}

impl From<CanId> for u16 {
    fn from(id: CanId) -> u16 {
        id.raw()
    }
}

impl fmt::Display for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:03X}", self.0)
    }
}

impl fmt::LowerHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_validation() {
        assert_eq!(CanId::new(0).unwrap().raw(), 0);
        assert_eq!(CanId::new(0x7FF).unwrap().raw(), 0x7FF);
        assert_eq!(CanId::new(0x800).unwrap_err(), InvalidId { raw: 0x800 });
        assert!(CanId::new(u16::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "out of 11-bit range")]
    fn from_raw_panics_out_of_range() {
        let _ = CanId::from_raw(0x800);
    }

    #[test]
    fn priority_order() {
        let high = CanId::from_raw(0x005);
        let low = CanId::from_raw(0x00F);
        assert!(high.outranks(low));
        assert!(!low.outranks(high));
        assert!(!high.outranks(high));
        assert!(high < low, "Ord mirrors priority: smaller sorts first");
    }

    #[test]
    fn wire_bit_order_is_msb_first() {
        let id = CanId::from_raw(0x173); // 0b001_0111_0011
        let bits: Vec<bool> = id.bits().map(Level::to_bit).collect();
        assert_eq!(
            bits,
            vec![false, false, true, false, true, true, true, false, false, true, true]
        );
        assert_eq!(bits.len(), CanId::BITS);
    }

    #[test]
    fn bit_round_trip_via_bits() {
        for raw in [0u16, 1, 0x173, 0x2AA, 0x555, 0x7FF] {
            let id = CanId::from_raw(raw);
            let rebuilt = id
                .bits()
                .fold(0u16, |acc, level| (acc << 1) | level.to_bit() as u16);
            assert_eq!(rebuilt, raw);
        }
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn bit_index_out_of_range_panics() {
        let _ = CanId::from_raw(0).bit(11);
    }

    #[test]
    fn trailing_dominant_bits_cases() {
        assert_eq!(CanId::from_raw(0x000).trailing_dominant_bits(), 11);
        assert_eq!(CanId::from_raw(0x001).trailing_dominant_bits(), 0);
        assert_eq!(CanId::from_raw(0x020).trailing_dominant_bits(), 5);
        assert_eq!(CanId::from_raw(0x040).trailing_dominant_bits(), 6);
        assert_eq!(CanId::from_raw(0x7C0).trailing_dominant_bits(), 6);
    }

    #[test]
    fn neighbors() {
        assert_eq!(CanId::HIGHEST_PRIORITY.higher_priority_neighbor(), None);
        assert_eq!(
            CanId::from_raw(CanId::MAX_RAW).lower_priority_neighbor(),
            None
        );
        assert_eq!(
            CanId::from_raw(0x100).higher_priority_neighbor(),
            Some(CanId::from_raw(0x0FF))
        );
        assert_eq!(
            CanId::from_raw(0x100).lower_priority_neighbor(),
            Some(CanId::from_raw(0x101))
        );
    }

    #[test]
    fn id_space_size() {
        // CAN 2.0A supports 2048 unique messages (paper §II-A).
        assert_eq!(CanId::all().count(), 2048);
    }

    #[test]
    fn display_and_hex() {
        let id = CanId::from_raw(0x64);
        assert_eq!(id.to_string(), "0x064");
        assert_eq!(format!("{id:x}"), "64");
        assert_eq!(format!("{id:#b}"), "0b1100100");
    }

    #[test]
    fn try_from_u16() {
        assert_eq!(CanId::try_from(0x123u16).unwrap(), CanId::from_raw(0x123));
        assert!(CanId::try_from(0x1000u16).is_err());
        assert_eq!(u16::from(CanId::from_raw(0x42)), 0x42);
    }
}
