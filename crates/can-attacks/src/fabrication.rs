//! Fabrication attacks (paper §III).
//!
//! "Fabrication attacks inject spoofed CAN messages with valid IDs but
//! arbitrary data. Without message authentication, ECUs accept them as
//! legitimate. To override real messages, the attacker must transmit at a
//! higher frequency."

use can_core::app::Application;
use can_core::{BitInstant, CanFrame, CanId};

/// A fabrication attacker: spoofs a legitimate identifier with attacker-
/// controlled data at `overdrive`× the legitimate period.
#[derive(Debug, Clone)]
pub struct FabricationAttacker {
    frame: CanFrame,
    period_bits: u64,
    next_due: u64,
    injected: u64,
}

impl FabricationAttacker {
    /// Creates an attacker spoofing `victim_id` with `data`, transmitting
    /// `overdrive` times as often as the victim's `victim_period_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `overdrive` is zero or the data exceeds 8 bytes.
    pub fn new(victim_id: CanId, data: &[u8], victim_period_bits: u64, overdrive: u64) -> Self {
        assert!(overdrive > 0, "overdrive must be positive");
        let frame = CanFrame::data_frame(victim_id, data).expect("payload must fit a CAN frame");
        FabricationAttacker {
            frame,
            period_bits: (victim_period_bits / overdrive).max(1),
            next_due: 0,
            injected: 0,
        }
    }

    /// The spoofed frame.
    pub fn frame(&self) -> &CanFrame {
        &self.frame
    }

    /// Frames handed to the controller so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

impl Application for FabricationAttacker {
    fn poll(&mut self, now: BitInstant) -> Option<CanFrame> {
        if now.bits() >= self.next_due {
            self.next_due = now.bits() + self.period_bits;
            self.injected += 1;
            Some(self.frame)
        } else {
            None
        }
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        // Every poll before `next_due` returns `None` and changes nothing.
        Some(BitInstant::from_bits(self.next_due.max(now.bits())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overdrive_shortens_the_period() {
        let id = CanId::from_raw(0x1A0);
        let mut attacker = FabricationAttacker::new(id, &[0xFF; 8], 1_000, 4);
        assert!(attacker.poll(BitInstant::from_bits(0)).is_some());
        assert!(attacker.poll(BitInstant::from_bits(249)).is_none());
        assert!(attacker.poll(BitInstant::from_bits(250)).is_some());
        assert_eq!(attacker.injected(), 2);
    }

    #[test]
    fn next_activity_is_the_next_due_poll() {
        let id = CanId::from_raw(0x1A0);
        let mut attacker = FabricationAttacker::new(id, &[0xFF; 8], 1_000, 4);
        assert_eq!(
            attacker.next_activity(BitInstant::ZERO),
            Some(BitInstant::ZERO),
            "the first spoof is due at once"
        );
        attacker.poll(BitInstant::ZERO).unwrap();
        for t in [1, 100, 249] {
            assert_eq!(
                attacker.next_activity(BitInstant::from_bits(t)),
                Some(BitInstant::from_bits(250))
            );
        }
        // A late poll is due at once.
        assert_eq!(
            attacker.next_activity(BitInstant::from_bits(300)),
            Some(BitInstant::from_bits(300))
        );
    }

    #[test]
    fn spoofed_frame_carries_attacker_data() {
        let id = CanId::from_raw(0x2B0);
        let attacker = FabricationAttacker::new(id, &[0xDE, 0xAD], 500, 1);
        assert_eq!(attacker.frame().id(), id);
        assert_eq!(attacker.frame().data(), &[0xDE, 0xAD]);
    }

    #[test]
    #[should_panic(expected = "overdrive must be positive")]
    fn zero_overdrive_panics() {
        let _ = FabricationAttacker::new(CanId::from_raw(1), &[], 100, 0);
    }
}
