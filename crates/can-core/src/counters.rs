//! TEC/REC fault confinement (paper §II-B, Fig. 1b).
//!
//! Every CAN node carries a *transmit error counter* (TEC) and a *receive
//! error counter* (REC). The counters drive the three fault-confinement
//! states:
//!
//! * **error-active** (TEC ≤ 127 and REC ≤ 127): errors are signalled with
//!   *active* error flags — six dominant bits that destroy the ongoing
//!   frame for everyone.
//! * **error-passive** (TEC > 127 or REC > 127): errors are signalled with
//!   *passive* flags — six recessive bits that do not disturb other
//!   traffic; a transmitter additionally suspends for eight bits before
//!   the next transmission.
//! * **bus-off** (TEC ≥ 256): the node stops participating until it has
//!   observed 128 occurrences of eleven consecutive recessive bits.
//!
//! MichiCAN's counterattack walks an attacker down exactly this ladder:
//! 8 × 32 transmit errors = TEC 256 ⇒ bus-off.

use core::fmt;

/// TEC increment on a transmit error.
pub const TEC_ERROR_INCREMENT: u16 = 8;

/// REC increment on an ordinary receive error.
pub const REC_ERROR_INCREMENT: u16 = 1;

/// REC increment when a receiver detects a dominant bit right after sending
/// an error flag.
pub const REC_DOMINANT_AFTER_FLAG_INCREMENT: u16 = 8;

/// Error-passive threshold: a counter strictly above this value makes the
/// node error-passive.
pub const PASSIVE_THRESHOLD: u16 = 127;

/// Bus-off threshold: a TEC at or above this value takes the node off the
/// bus.
pub const BUS_OFF_THRESHOLD: u16 = 256;

/// Number of transmit errors (at +8 each) from a cleared TEC to bus-off —
/// the paper's "32 (re)transmissions".
pub const ERRORS_TO_BUS_OFF: u16 = BUS_OFF_THRESHOLD / TEC_ERROR_INCREMENT;

/// Bits in an error flag (active: dominant; passive: recessive).
pub const ERROR_FLAG_BITS: u32 = 6;

/// Recessive bits in an error delimiter.
pub const ERROR_DELIMITER_BITS: u32 = 8;

/// Extra recessive bits an error-passive node waits after transmitting
/// (suspend transmission).
pub const SUSPEND_BITS: u32 = 8;

/// Number of occurrences of eleven consecutive recessive bits required for
/// bus-off recovery.
pub const RECOVERY_SEQUENCES: u32 = 128;

/// Length of one recovery sequence in bits.
pub const RECOVERY_SEQUENCE_BITS: u32 = 11;

/// Fault-confinement state of a node (Fig. 1b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorState {
    /// TEC ≤ 127 and REC ≤ 127; signals errors with active (dominant) flags.
    ErrorActive,
    /// TEC > 127 or REC > 127; signals errors with passive (recessive)
    /// flags and suspends after transmissions.
    ErrorPassive,
    /// TEC ≥ 256; the node no longer participates in traffic.
    BusOff,
}

impl fmt::Display for ErrorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorState::ErrorActive => f.write_str("error-active"),
            ErrorState::ErrorPassive => f.write_str("error-passive"),
            ErrorState::BusOff => f.write_str("bus-off"),
        }
    }
}

/// The TEC/REC pair of one node, with ISO 11898-1 update rules.
///
/// ```
/// use can_core::{ErrorCounters, ErrorState};
///
/// let mut c = ErrorCounters::new();
/// assert_eq!(c.state(), ErrorState::ErrorActive);
/// for _ in 0..16 {
///     c.on_transmit_error();
/// }
/// assert_eq!(c.state(), ErrorState::ErrorPassive);
/// for _ in 0..16 {
///     c.on_transmit_error();
/// }
/// assert_eq!(c.state(), ErrorState::BusOff);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ErrorCounters {
    tec: u16,
    rec: u16,
}

impl ErrorCounters {
    /// Fresh counters (error-active).
    pub const fn new() -> Self {
        ErrorCounters { tec: 0, rec: 0 }
    }

    /// The transmit error counter.
    #[inline]
    pub const fn tec(&self) -> u16 {
        self.tec
    }

    /// The receive error counter.
    #[inline]
    pub const fn rec(&self) -> u16 {
        self.rec
    }

    /// The fault-confinement state implied by the counters.
    #[inline]
    pub const fn state(&self) -> ErrorState {
        if self.tec >= BUS_OFF_THRESHOLD {
            ErrorState::BusOff
        } else if self.tec > PASSIVE_THRESHOLD || self.rec > PASSIVE_THRESHOLD {
            ErrorState::ErrorPassive
        } else {
            ErrorState::ErrorActive
        }
    }

    /// Applies a transmit error: TEC += 8.
    ///
    /// Returns the new state, so callers can react to the edge into
    /// [`ErrorState::BusOff`].
    pub fn on_transmit_error(&mut self) -> ErrorState {
        self.tec = self.tec.saturating_add(TEC_ERROR_INCREMENT);
        self.state()
    }

    /// Applies a successful transmission: TEC −= 1 (floored at 0).
    pub fn on_transmit_success(&mut self) -> ErrorState {
        self.tec = self.tec.saturating_sub(1);
        self.state()
    }

    /// Applies an ordinary receive error: REC += 1.
    pub fn on_receive_error(&mut self) -> ErrorState {
        self.rec = self.rec.saturating_add(REC_ERROR_INCREMENT);
        self.state()
    }

    /// Applies the "dominant bit detected after sending an error flag"
    /// rule: REC += 8.
    pub fn on_receive_error_severe(&mut self) -> ErrorState {
        self.rec = self.rec.saturating_add(REC_DOMINANT_AFTER_FLAG_INCREMENT);
        self.state()
    }

    /// Applies a successful reception.
    ///
    /// Per ISO 11898-1: if REC was between 1 and 127 it is decremented; if
    /// it was above 127 it is set to a value between 119 and 127 (we use
    /// 127, keeping the node exactly at the passive/active boundary).
    pub fn on_receive_success(&mut self) -> ErrorState {
        if self.rec > PASSIVE_THRESHOLD {
            self.rec = PASSIVE_THRESHOLD;
        } else {
            self.rec = self.rec.saturating_sub(1);
        }
        self.state()
    }

    /// Clears both counters after bus-off recovery.
    pub fn reset_after_recovery(&mut self) {
        self.tec = 0;
        self.rec = 0;
    }

    /// Number of further transmit errors (at +8) until bus-off, assuming no
    /// successful transmissions in between.
    pub fn transmit_errors_until_bus_off(&self) -> u16 {
        if self.tec >= BUS_OFF_THRESHOLD {
            0
        } else {
            (BUS_OFF_THRESHOLD - self.tec).div_ceil(TEC_ERROR_INCREMENT)
        }
    }
}

impl fmt::Display for ErrorCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TEC={} REC={} ({})", self.tec, self.rec, self.state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_counters_are_error_active() {
        let c = ErrorCounters::new();
        assert_eq!(c.tec(), 0);
        assert_eq!(c.rec(), 0);
        assert_eq!(c.state(), ErrorState::ErrorActive);
    }

    #[test]
    fn paper_bus_off_ladder() {
        // Paper §IV-E: after 15 retransmissions (16 errors) the attacker is
        // error-passive; after 32 total it is bus-off.
        let mut c = ErrorCounters::new();
        for i in 1..=15 {
            c.on_transmit_error();
            assert_eq!(c.state(), ErrorState::ErrorActive, "error {i}");
        }
        assert_eq!(c.on_transmit_error(), ErrorState::ErrorPassive);
        assert_eq!(c.tec(), 128);
        for i in 17..=31 {
            c.on_transmit_error();
            assert_eq!(c.state(), ErrorState::ErrorPassive, "error {i}");
        }
        assert_eq!(c.on_transmit_error(), ErrorState::BusOff);
        assert_eq!(c.tec(), 256);
    }

    #[test]
    fn errors_to_bus_off_constant() {
        assert_eq!(ERRORS_TO_BUS_OFF, 32);
    }

    #[test]
    fn tec_decrements_on_success() {
        let mut c = ErrorCounters::new();
        c.on_transmit_error();
        assert_eq!(c.tec(), 8);
        for _ in 0..8 {
            c.on_transmit_success();
        }
        assert_eq!(c.tec(), 0);
        c.on_transmit_success();
        assert_eq!(c.tec(), 0, "TEC floors at zero");
    }

    #[test]
    fn rec_passive_and_recovery_to_boundary() {
        let mut c = ErrorCounters::new();
        for _ in 0..128 {
            c.on_receive_error();
        }
        assert_eq!(c.rec(), 128);
        assert_eq!(c.state(), ErrorState::ErrorPassive);
        c.on_receive_success();
        assert_eq!(c.rec(), 127, "REC above 127 snaps to 127 on good reception");
        assert_eq!(c.state(), ErrorState::ErrorActive);
    }

    #[test]
    fn severe_receive_error_adds_eight() {
        let mut c = ErrorCounters::new();
        c.on_receive_error_severe();
        assert_eq!(c.rec(), 8);
    }

    #[test]
    fn rec_never_causes_bus_off() {
        let mut c = ErrorCounters::new();
        for _ in 0..100_000 {
            c.on_receive_error_severe();
        }
        assert_ne!(c.state(), ErrorState::BusOff, "only the TEC drives bus-off");
        assert_eq!(c.state(), ErrorState::ErrorPassive);
    }

    #[test]
    fn recovery_resets_both_counters() {
        let mut c = ErrorCounters::new();
        for _ in 0..32 {
            c.on_transmit_error();
        }
        assert_eq!(c.state(), ErrorState::BusOff);
        c.reset_after_recovery();
        assert_eq!(c.state(), ErrorState::ErrorActive);
        assert_eq!((c.tec(), c.rec()), (0, 0));
    }

    #[test]
    fn transmit_errors_until_bus_off_counts_down() {
        let mut c = ErrorCounters::new();
        assert_eq!(c.transmit_errors_until_bus_off(), 32);
        c.on_transmit_error();
        assert_eq!(c.transmit_errors_until_bus_off(), 31);
        // A success pushes TEC to 7: still 32 steps of +8 needed to cross
        // 256? 256-7 = 249, ceil(249/8) = 32.
        c.on_transmit_success();
        assert_eq!(c.transmit_errors_until_bus_off(), 32);
    }

    #[test]
    fn tec_saturates_without_overflow() {
        let mut c = ErrorCounters::new();
        for _ in 0..20_000 {
            c.on_transmit_error();
        }
        assert_eq!(c.state(), ErrorState::BusOff);
    }

    #[test]
    fn recovery_constants_match_paper() {
        // "recover into error-active after observing at least 128
        // instances of 11 recessive bits"
        assert_eq!(RECOVERY_SEQUENCES, 128);
        assert_eq!(RECOVERY_SEQUENCE_BITS, 11);
    }

    #[test]
    fn display_mentions_both_counters() {
        let mut c = ErrorCounters::new();
        c.on_transmit_error();
        c.on_receive_error();
        assert_eq!(c.to_string(), "TEC=8 REC=1 (error-active)");
    }
}
