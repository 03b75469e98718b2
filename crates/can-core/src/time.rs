//! Bit-time arithmetic.
//!
//! Everything in the paper's evaluation is expressed in *bits* and converted
//! to wall-clock time by multiplying with the nominal bit time of the bus
//! (e.g. 20 µs at 50 kbit/s). These newtypes keep the two domains apart and
//! make the conversion explicit.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, counted in nominal bit times since simulation
/// start.
///
/// ```
/// use can_core::{BitDuration, BitInstant};
/// let t0 = BitInstant::ZERO;
/// let t1 = t0 + BitDuration::bits(35);
/// assert_eq!(t1.elapsed_since(t0), BitDuration::bits(35));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BitInstant(u64);

impl BitInstant {
    /// The origin of simulated time.
    pub const ZERO: BitInstant = BitInstant(0);

    /// Creates an instant at `bits` nominal bit times after the origin.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        BitInstant(bits)
    }

    /// The number of bit times elapsed since the origin.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn elapsed_since(self, earlier: BitInstant) -> BitDuration {
        BitDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be later than `self`"),
        )
    }
}

impl Add<BitDuration> for BitInstant {
    type Output = BitInstant;

    #[inline]
    fn add(self, rhs: BitDuration) -> BitInstant {
        BitInstant(self.0 + rhs.0)
    }
}

impl AddAssign<BitDuration> for BitInstant {
    #[inline]
    fn add_assign(&mut self, rhs: BitDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for BitInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

/// A span of simulated time, counted in nominal bit times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BitDuration(u64);

impl BitDuration {
    /// A zero-length duration.
    pub const ZERO: BitDuration = BitDuration(0);

    /// Creates a duration of `bits` nominal bit times.
    #[inline]
    pub const fn bits(bits: u64) -> Self {
        BitDuration(bits)
    }

    /// The duration length in bit times.
    #[inline]
    pub const fn as_bits(self) -> u64 {
        self.0
    }

    /// Converts this duration to milliseconds on a bus of the given speed.
    ///
    /// ```
    /// use can_core::{BitDuration, BusSpeed};
    /// // The paper's 1248-bit worst-case bus-off time is 24.96 ms at 50 kbit/s.
    /// let d = BitDuration::bits(1248);
    /// assert!((d.as_millis(BusSpeed::K50) - 24.96).abs() < 1e-9);
    /// ```
    #[inline]
    pub fn as_millis(self, speed: BusSpeed) -> f64 {
        self.0 as f64 * speed.bit_time_us() / 1000.0
    }
}

impl Add for BitDuration {
    type Output = BitDuration;

    #[inline]
    fn add(self, rhs: BitDuration) -> BitDuration {
        BitDuration(self.0 + rhs.0)
    }
}

impl AddAssign for BitDuration {
    #[inline]
    fn add_assign(&mut self, rhs: BitDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for BitDuration {
    type Output = BitDuration;

    #[inline]
    fn sub(self, rhs: BitDuration) -> BitDuration {
        BitDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for BitDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

/// Nominal CAN bus speeds used throughout the paper.
///
/// All ECUs on a bus share the same speed, fixed by the OEM at production
/// time (paper §V-A). The nominal bit time is the reciprocal of the speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusSpeed {
    /// 50 kbit/s — the speed of the paper's Arduino Due online evaluation.
    K50,
    /// 125 kbit/s — upper bound for reliable MichiCAN on the Arduino Due.
    K125,
    /// 250 kbit/s.
    K250,
    /// 500 kbit/s — typical powertrain bus; NXP S32K144 evaluation speed.
    K500,
    /// 1 Mbit/s — the CAN 2.0 maximum.
    M1,
}

impl BusSpeed {
    /// All supported speeds, slowest first.
    pub const ALL: [BusSpeed; 5] = [
        BusSpeed::K50,
        BusSpeed::K125,
        BusSpeed::K250,
        BusSpeed::K500,
        BusSpeed::M1,
    ];

    /// The bus speed in bits per second.
    ///
    /// ```
    /// use can_core::BusSpeed;
    /// assert_eq!(BusSpeed::K500.bits_per_second(), 500_000);
    /// ```
    #[inline]
    pub const fn bits_per_second(self) -> u64 {
        match self {
            BusSpeed::K50 => 50_000,
            BusSpeed::K125 => 125_000,
            BusSpeed::K250 => 250_000,
            BusSpeed::K500 => 500_000,
            BusSpeed::M1 => 1_000_000,
        }
    }

    /// The nominal bit time in microseconds.
    ///
    /// ```
    /// use can_core::BusSpeed;
    /// assert_eq!(BusSpeed::K500.bit_time_us(), 2.0);
    /// assert_eq!(BusSpeed::K50.bit_time_us(), 20.0);
    /// ```
    #[inline]
    pub fn bit_time_us(self) -> f64 {
        1e6 / self.bits_per_second() as f64
    }

    /// The nominal bit time in nanoseconds.
    #[inline]
    pub fn bit_time_ns(self) -> f64 {
        1e9 / self.bits_per_second() as f64
    }

    /// Number of whole bit times in the given number of milliseconds.
    ///
    /// Useful for converting message periods (expressed in ms in
    /// communication matrices) into simulator ticks.
    ///
    /// ```
    /// use can_core::BusSpeed;
    /// assert_eq!(BusSpeed::K50.bits_in_millis(10.0), 500);
    /// ```
    #[inline]
    pub fn bits_in_millis(self, millis: f64) -> u64 {
        (millis * self.bits_per_second() as f64 / 1000.0).round() as u64
    }
}

impl fmt::Display for BusSpeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusSpeed::K50 => f.write_str("50 kbit/s"),
            BusSpeed::K125 => f.write_str("125 kbit/s"),
            BusSpeed::K250 => f.write_str("250 kbit/s"),
            BusSpeed::K500 => f.write_str("500 kbit/s"),
            BusSpeed::M1 => f.write_str("1 Mbit/s"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic() {
        let t = BitInstant::from_bits(100);
        let t2 = t + BitDuration::bits(25);
        assert_eq!(t2.bits(), 125);
        assert_eq!(t2.elapsed_since(t), BitDuration::bits(25));
    }

    #[test]
    #[should_panic(expected = "`earlier` must not be later")]
    fn elapsed_since_panics_when_reversed() {
        let _ = BitInstant::from_bits(5).elapsed_since(BitInstant::from_bits(6));
    }

    #[test]
    fn bit_time_values() {
        assert_eq!(BusSpeed::K50.bit_time_us(), 20.0);
        assert_eq!(BusSpeed::K125.bit_time_us(), 8.0);
        assert_eq!(BusSpeed::K250.bit_time_us(), 4.0);
        assert_eq!(BusSpeed::K500.bit_time_us(), 2.0);
        assert_eq!(BusSpeed::M1.bit_time_us(), 1.0);
    }

    #[test]
    fn paper_average_frame_blocking_time() {
        // Paper §IV-A: a 125-bit average frame at 500 kbit/s blocks for 250 µs.
        let d = BitDuration::bits(125);
        assert!((d.as_millis(BusSpeed::K500) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fifty_kbit_frame_time() {
        // Paper §V-E: one CAN message at 50 kbit/s is transmitted within 2.5 ms.
        let d = BitDuration::bits(125);
        assert!((d.as_millis(BusSpeed::K50) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn bits_in_millis_round_trips() {
        assert_eq!(BusSpeed::K500.bits_in_millis(10.0), 5000);
        assert_eq!(BusSpeed::M1.bits_in_millis(0.125), 125);
    }

    #[test]
    fn duration_saturating_sub() {
        let a = BitDuration::bits(3);
        let b = BitDuration::bits(10);
        assert_eq!(a - b, BitDuration::ZERO);
        assert_eq!(b - a, BitDuration::bits(7));
    }

    #[test]
    fn add_assign_on_instant() {
        let mut t = BitInstant::ZERO;
        t += BitDuration::bits(11);
        assert_eq!(t.bits(), 11);
    }

    #[test]
    fn display_formats() {
        assert_eq!(BusSpeed::K50.to_string(), "50 kbit/s");
        assert_eq!(BitInstant::from_bits(7).to_string(), "7 bits");
        assert_eq!(BitDuration::bits(7).to_string(), "7 bits");
    }
}
