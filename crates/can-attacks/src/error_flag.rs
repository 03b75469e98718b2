//! Mid-frame error-flag injection (CANflict peripheral-conflict family).
//!
//! An active error flag is six consecutive dominant bits — the maximal
//! protocol violation. A node with raw bus access can fabricate one at
//! any point inside a frame: every receiver aborts with a stuff/form
//! error, the transmitter takes a bit error (TEC +8), and the frame is
//! retransmitted — over and over, if the attacker keeps triggering on
//! the same identifier. Unlike a protocol-compliant attacker the
//! injector has no error counters of its own, so error confinement never
//! silences it (the paper's "Attacker Limitations" argument, §VI-A).
//!
//! [`ErrorFlagInjector`] fires on a trigger identifier at a configurable
//! destuffed frame position, driving *exactly* six dominant bits.

use can_core::agent::BitAgent;
use can_core::watch::{self, WatchTrigger, ID_COMPLETE_CNT};
use can_core::{BitDuration, BitInstant, CanId, Level};
use can_obs::{Journal, JournalKind};

use crate::victim::VictimWatch;

/// Length of an active error flag in bits (CAN 2.0 §7).
pub const ERROR_FLAG_BITS: u32 = 6;

/// A bit-level attacker that drives a six-dominant-bit error flag
/// mid-frame whenever the trigger identifier is on the bus.
#[derive(Debug, Clone)]
pub struct ErrorFlagInjector {
    /// Destuffed frame position (SOF = 1) of the first flag bit.
    flag_at: u32,
    front: VictimWatch,
    /// Remaining dominant bits of the flag currently being driven.
    flag_left: u32,
    flags: u64,
}

impl ErrorFlagInjector {
    /// Creates an injector that destroys every `trigger` frame with an
    /// error flag starting at destuffed position `flag_at` (SOF = 1).
    ///
    /// # Panics
    ///
    /// Panics if `flag_at <= 12`: the identifier is only complete after
    /// destuffed position 12, so earlier positions cannot be triggered
    /// by identifier.
    pub fn new(trigger: CanId, flag_at: u32) -> Self {
        assert!(
            flag_at > ID_COMPLETE_CNT,
            "flag_at must lie after the arbitration field (destuffed position > 12)"
        );
        ErrorFlagInjector {
            flag_at,
            front: VictimWatch::new(trigger),
            flag_left: 0,
            flags: 0,
        }
    }

    /// Error flags injected so far.
    pub fn flags_injected(&self) -> u64 {
        self.flags
    }

    /// Attaches a causal event journal; `node` is the index stamped on
    /// [`JournalKind::Strike`] events, which join the attacked frame's causal chain.
    pub fn set_journal(&mut self, journal: Journal, node: u32) {
        self.front.set_journal(journal, node);
    }
}

impl BitAgent for ErrorFlagInjector {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        // Mid-flag the frame is already dead; the watch (aborted at the
        // trigger) sees our dominant bits as bus noise that resets its
        // hunt, exactly like the real error flag would.
        let _ = self.front.push(level);
        if self.flag_left > 0 {
            self.flag_left -= 1;
            return;
        }
        // Fire when the *next* destuffed position is the target. If the
        // next wire bit is a stuff bit the count holds, so waiting for
        // `expecting_stuff` to clear lands the first flag bit exactly on
        // destuffed position `flag_at`.
        let watch = self.front.watch();
        if self.front.armed() && watch.cnt() + 1 == self.flag_at && !watch.expecting_stuff() {
            self.flag_left = ERROR_FLAG_BITS;
            self.flags += 1;
            self.front.abort();
            self.front.event(
                now,
                JournalKind::Strike,
                format_args!("error-flag at={}", self.flag_at),
            );
        }
    }

    fn tx_level(&self) -> Option<Level> {
        (self.flag_left > 0).then_some(Level::Dominant)
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        self.front.next_activity(now, self.flag_left > 0)
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        // The flag is decided at the push that leaves `cnt` at
        // `flag_at − 1`.
        let trigger = WatchTrigger::Cnt(self.flag_at - 1);
        self.front.drive_horizon(now, self.flag_left > 0, trigger)
    }

    fn drive_until(&self, now: BitInstant) -> BitInstant {
        // Mid-flag the pin is dominant for every remaining flag bit,
        // whatever the bus does.
        now + BitDuration::bits(u64::from(self.flag_left))
    }

    fn observe_stretch(&mut self, word: u64, len: u32, _own_tx: bool, from: BitInstant) {
        watch::observe_hunting(
            self,
            |a| a.front.quiet_hunt(a.flag_left > 0),
            word,
            len,
            from,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::bitstream::stuff_frame;
    use can_core::watch::FrameWatch;
    use can_core::CanFrame;

    fn feed_frame(attacker: &mut ErrorFlagInjector, frame: &CanFrame) -> Vec<usize> {
        let mut t = 0u64;
        for _ in 0..12 {
            attacker.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        let wire = stuff_frame(frame);
        let mut driven = Vec::new();
        for (i, &bit) in wire.bits.iter().enumerate() {
            let seen = if attacker.tx_level() == Some(Level::Dominant) {
                driven.push(i);
                Level::Dominant
            } else {
                bit
            };
            attacker.on_bit(seen, BitInstant::from_bits(t));
            t += 1;
        }
        driven
    }

    #[test]
    fn drives_exactly_six_consecutive_bits() {
        let mut attacker = ErrorFlagInjector::new(CanId::from_raw(0x173), 20);
        let frame = CanFrame::data_frame(CanId::from_raw(0x173), &[0x55; 8]).unwrap();
        let driven = feed_frame(&mut attacker, &frame);
        assert_eq!(driven.len(), ERROR_FLAG_BITS as usize);
        for pair in driven.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "flag bits must be consecutive");
        }
        assert_eq!(attacker.flags_injected(), 1);
    }

    #[test]
    fn flag_lands_on_the_configured_destuffed_position() {
        // ID 0x173 with this payload: frame from the PR 3 golden vectors,
        // no stuff bits before position 20 except those the destuffer
        // accounts for — verify via a reference watch.
        let flag_at = 16;
        let mut attacker = ErrorFlagInjector::new(CanId::from_raw(0x173), flag_at);
        let frame = CanFrame::data_frame(CanId::from_raw(0x173), &[1, 2, 3]).unwrap();
        let driven = feed_frame(&mut attacker, &frame);

        // Replay the clean wire through a fresh watch and find the wire
        // index of destuffed position `flag_at`.
        let wire = stuff_frame(&frame);
        let mut watch = FrameWatch::new();
        for _ in 0..12 {
            watch.push(Level::Recessive);
        }
        let mut expected = None;
        for (i, &bit) in wire.bits.iter().enumerate() {
            watch.push(bit);
            if watch.cnt() == flag_at {
                expected = Some(i);
                break;
            }
        }
        assert_eq!(driven.first().copied(), expected);
    }

    #[test]
    fn ignores_non_trigger_frames() {
        let mut attacker = ErrorFlagInjector::new(CanId::from_raw(0x173), 13);
        let frame = CanFrame::data_frame(CanId::from_raw(0x174), &[0; 4]).unwrap();
        assert!(feed_frame(&mut attacker, &frame).is_empty());
        assert_eq!(attacker.flags_injected(), 0);
    }

    #[test]
    #[should_panic(expected = "after the arbitration field")]
    fn rejects_pre_arbitration_positions() {
        let _ = ErrorFlagInjector::new(CanId::from_raw(0x001), 12);
    }

    #[test]
    fn quiescent_on_an_idle_bus() {
        let attacker = ErrorFlagInjector::new(CanId::from_raw(0x173), 13);
        assert_eq!(attacker.next_activity(BitInstant::ZERO), None);
    }
}
