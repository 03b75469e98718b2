//! A CANnon-style bit-level attacker (paper §VI-A).
//!
//! Kulandaivel et al.'s CANnon shows the *offensive* use of the same
//! capability MichiCAN uses defensively: an attacker with bit-level bus
//! access can inject single dominant bits into a victim's transmission,
//! forcing error frames until the victim is bused off — without owning a
//! protocol-compliant controller whose TEC could be attacked back.
//!
//! [`GhostInjector`] implements that attacker as a
//! [`can_core::agent::BitAgent`]: it hunts for SOFs, parses the
//! identifier of the ongoing frame, and pulls the bus dominant right
//! after the victim's arbitration field. It demonstrates the paper's
//! "Attacker Limitations" point: MichiCAN's counterattack is powerless
//! against a GPIO-only adversary (there is no transmit error counter to
//! inflate), which is why access to pin multiplexing must be isolated
//! from compromisable software (paper §III, Fig. 3).

use can_core::agent::BitAgent;
use can_core::watch::{PositionTracker, Tracked, ID_COMPLETE_CNT};
use can_core::{BitDuration, BitInstant, CanId, Level};
use can_obs::{Journal, JournalKind};

/// Destuffed position whose bit triggers the injection: the first bit
/// after the arbitration field.
const INJECT_CNT: u32 = ID_COMPLETE_CNT + 1;

/// Destuffed position at which the ghost leaves the frame.
const LEAVE_CNT: u32 = 20;

/// A bit-level bus-off attacker targeting one victim identifier, on
/// MichiCAN's own wire front end ([`PositionTracker`]) with a different
/// verdict: an identifier match instead of the detection FSM.
#[derive(Debug, Clone)]
pub struct GhostInjector {
    victim: CanId,
    tracker: PositionTracker,
    /// The identifier bits seen so far (positions 2–12), newest lowest.
    id: u16,
    injecting: bool,
    /// Injections performed (each destroys one victim transmission).
    injections: u64,
    /// Causal event journal; disabled (no-op) by default.
    journal: Journal,
    /// Node index stamped on journal events.
    node_label: u32,
}

impl GhostInjector {
    /// Creates an injector that destroys every transmission of `victim`.
    pub fn new(victim: CanId) -> Self {
        GhostInjector {
            victim,
            tracker: PositionTracker::new(),
            id: 0,
            injecting: false,
            injections: 0,
            journal: Journal::disabled(),
            node_label: 0,
        }
    }

    /// Transmissions destroyed so far.
    pub fn injections(&self) -> u64 {
        self.injections
    }

    /// Attaches a causal event journal; `node` is the index stamped on
    /// [`JournalKind::Strike`] events, which join the attacked frame's causal chain.
    pub fn set_journal(&mut self, journal: Journal, node: u32) {
        self.journal = journal;
        self.node_label = node;
    }
}

impl BitAgent for GhostInjector {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        let Tracked::Bit(bit) = self.tracker.push(level) else {
            return;
        };
        let cnt = self.tracker.cnt();
        if cnt <= ID_COMPLETE_CNT {
            self.id = ((self.id << 1) | u16::from(bit.to_bit())) & CanId::MAX_RAW;
        }
        // Inject right after arbitration when the victim matched.
        if cnt == INJECT_CNT && self.id == self.victim.raw() {
            self.injecting = true;
            self.injections += 1;
            if self.journal.is_enabled() {
                self.journal
                    .event(now.bits(), self.node_label, JournalKind::Strike, "ghost");
            }
        }
        if cnt >= LEAVE_CNT {
            self.tracker.leave();
            self.injecting = false;
        }
    }

    fn tx_level(&self) -> Option<Level> {
        self.injecting.then_some(Level::Dominant)
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        // A strike only runs inside a frame.
        self.tracker.next_activity(now)
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        if self.injecting {
            return Some(now);
        }
        let bits = self.tracker.pushes_until(INJECT_CNT, LEAVE_CNT);
        Some(now + BitDuration::bits(bits))
    }

    fn drive_until(&self, now: BitInstant) -> BitInstant {
        // While striking, the pin stays dominant up to and including the
        // bit that brings `cnt` to 20.
        if !self.injecting {
            return now;
        }
        now + BitDuration::bits(self.tracker.dominant_pushes_to(LEAVE_CNT))
    }

    fn skip_idle(&mut self, bits: u64, _from: BitInstant) {
        debug_assert!(!self.injecting);
        self.tracker.skip_idle(bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::bitstream::stuff_frame;
    use can_core::CanFrame;

    fn feed_frame(ghost: &mut GhostInjector, frame: &CanFrame) -> bool {
        let mut t = 0u64;
        for _ in 0..12 {
            ghost.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        let wire = stuff_frame(frame);
        let mut injected = false;
        for &bit in &wire.bits {
            let seen = if ghost.injecting {
                Level::Dominant
            } else {
                bit
            };
            ghost.on_bit(seen, BitInstant::from_bits(t));
            injected |= ghost.injecting;
            t += 1;
        }
        injected
    }

    #[test]
    fn injects_into_the_victim_only() {
        let mut ghost = GhostInjector::new(CanId::from_raw(0x123));
        let victim = CanFrame::data_frame(CanId::from_raw(0x123), &[1; 8]).unwrap();
        let bystander = CanFrame::data_frame(CanId::from_raw(0x124), &[1; 8]).unwrap();
        assert!(feed_frame(&mut ghost, &victim));
        assert!(!feed_frame(&mut ghost, &bystander));
        assert_eq!(ghost.injections(), 1);
    }

    #[test]
    fn releases_the_bus_after_the_window() {
        let mut ghost = GhostInjector::new(CanId::from_raw(0x0F0));
        let victim = CanFrame::data_frame(CanId::from_raw(0x0F0), &[0; 8]).unwrap();
        feed_frame(&mut ghost, &victim);
        assert!(
            ghost.tx_level().is_none(),
            "the pin must be released after the injection window"
        );
    }
}
