//! Frame truncation at a chosen field boundary (CANflict family).
//!
//! The tail of a CAN frame — CRC delimiter, ACK delimiter, end-of-frame —
//! is *fixed-form*: the protocol requires recessive levels there, and a
//! single dominant bit is a form error for every node. An attacker with
//! raw bus access can therefore "truncate" any frame by driving one
//! dominant bit at the boundary of its choice: the frame's payload was
//! fully transmitted, yet no receiver accepts it.
//!
//! [`FrameTruncator`] waits for the victim identifier, tracks the frame
//! through the stuffed region with a [`can_core::watch::FrameWatch`], and
//! forces the
//! recessive-to-dominant conflict at the configured [`TruncateAt`]
//! boundary.

use can_core::agent::BitAgent;
use can_core::watch::WatchTrigger;
use can_core::{BitInstant, CanId, Level};
use can_obs::{Journal, JournalKind};

use crate::victim::VictimWatch;

/// The fixed-form boundary at which a [`FrameTruncator`] strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncateAt {
    /// The CRC delimiter — earliest possible: receivers have the full
    /// CRC but never get to validate the delimiter.
    CrcDelim,
    /// The ACK delimiter — after the ACK slot, so the transmitter saw
    /// its frame acknowledged and still loses it.
    AckDelim,
    /// The first EOF bit — the latest cut that is still a form error for
    /// the transmitter as well as every receiver.
    Eof,
}

impl TruncateAt {
    /// Index within the 10-bit unstuffed frame tail (0 = CRC delimiter).
    fn tail_offset(self) -> u32 {
        match self {
            TruncateAt::CrcDelim => 0,
            TruncateAt::AckDelim => 2,
            TruncateAt::Eof => 3,
        }
    }

    /// Stable name used in scenario labels.
    pub fn label(self) -> &'static str {
        match self {
            TruncateAt::CrcDelim => "crc-delim",
            TruncateAt::AckDelim => "ack-delim",
            TruncateAt::Eof => "eof",
        }
    }
}

/// A bit-level attacker that truncates the victim's frames with one
/// dominant bit at a fixed-form field boundary.
#[derive(Debug, Clone)]
pub struct FrameTruncator {
    at: TruncateAt,
    front: VictimWatch,
    injecting: bool,
}

impl FrameTruncator {
    /// Creates a truncator striking every `victim` frame at `at`.
    pub fn new(victim: CanId, at: TruncateAt) -> Self {
        FrameTruncator {
            at,
            front: VictimWatch::new(victim),
            injecting: false,
        }
    }

    /// Attaches a causal event journal; `node` is the index stamped on
    /// [`JournalKind::Strike`] events, which join the attacked frame's causal chain.
    pub fn set_journal(&mut self, journal: Journal, node: u32) {
        self.front.set_journal(journal, node);
    }
}

impl BitAgent for FrameTruncator {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        if self.injecting {
            // The dominant bit just landed on the fixed-form field; the
            // frame is dead and error flags follow. Hunt for the next one.
            self.injecting = false;
            self.front.abort();
        }
        let _ = self.front.push(level);
        // The next wire bit is the chosen tail boundary: drive it dominant.
        if self.front.armed() && self.front.watch().next_tail_index() == Some(self.at.tail_offset())
        {
            self.injecting = true;
            self.front.event(
                now,
                JournalKind::Strike,
                format_args!("truncate {}", self.at.label()),
            );
        }
    }

    fn tx_level(&self) -> Option<Level> {
        self.injecting.then_some(Level::Dominant)
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        self.front.next_activity(now, self.injecting)
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        // The strike is decided at the push that makes the boundary the
        // next tail bit.
        let trigger = WatchTrigger::TailIndex(self.at.tail_offset());
        self.front.drive_horizon(now, self.injecting, trigger)
    }

    fn skip_idle(&mut self, bits: u64, _from: BitInstant) {
        self.front.skip_idle(bits, self.injecting);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::bitstream::{stuff_frame, FrameField, FrameLayout};
    use can_core::CanFrame;

    fn feed_frame(attacker: &mut FrameTruncator, frame: &CanFrame) -> Vec<usize> {
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

    /// Wire index of the first bit of `field` (tail fields are unstuffed,
    /// so the unstuffed index is offset by the total stuff count).
    fn wire_index_of(frame: &CanFrame, field: FrameField) -> usize {
        let layout = FrameLayout::of(frame);
        let wire = stuff_frame(frame);
        layout.span(field).start + wire.stuff_count()
    }

    #[test]
    fn strikes_the_crc_delimiter() {
        let mut attacker = FrameTruncator::new(CanId::from_raw(0x315), TruncateAt::CrcDelim);
        let frame = CanFrame::data_frame(CanId::from_raw(0x315), &[7; 4]).unwrap();
        let driven = feed_frame(&mut attacker, &frame);
        assert_eq!(driven, vec![wire_index_of(&frame, FrameField::CrcDelim)]);
    }

    #[test]
    fn strikes_the_ack_delimiter() {
        let mut attacker = FrameTruncator::new(CanId::from_raw(0x315), TruncateAt::AckDelim);
        let frame = CanFrame::data_frame(CanId::from_raw(0x315), &[7; 4]).unwrap();
        let driven = feed_frame(&mut attacker, &frame);
        assert_eq!(driven, vec![wire_index_of(&frame, FrameField::AckDelim)]);
    }

    #[test]
    fn strikes_the_first_eof_bit() {
        let mut attacker = FrameTruncator::new(CanId::from_raw(0x315), TruncateAt::Eof);
        let frame = CanFrame::data_frame(CanId::from_raw(0x315), &[7; 4]).unwrap();
        let driven = feed_frame(&mut attacker, &frame);
        assert_eq!(driven, vec![wire_index_of(&frame, FrameField::Eof)]);
    }

    #[test]
    fn ignores_bystander_frames() {
        let mut attacker = FrameTruncator::new(CanId::from_raw(0x315), TruncateAt::CrcDelim);
        let frame = CanFrame::data_frame(CanId::from_raw(0x316), &[7; 4]).unwrap();
        assert!(feed_frame(&mut attacker, &frame).is_empty());
    }

    #[test]
    fn handles_the_trailing_stuff_bit_after_the_crc() {
        // Find a frame whose stuffed region ends in a five-bit run, which
        // forces one trailing stuff bit before the CRC delimiter — the
        // boundary the truncator must still hit exactly.
        let mut found = false;
        for raw in 0..0x200u16 {
            let frame = CanFrame::data_frame(CanId::from_raw(raw), &[raw as u8]).unwrap();
            let wire = stuff_frame(&frame);
            let layout = FrameLayout::of(&frame);
            let delim_unstuffed = layout.span(FrameField::CrcDelim).start;
            if wire
                .stuff_positions
                .last()
                .is_some_and(|&p| p == delim_unstuffed + wire.stuff_count() - 1)
            {
                let mut attacker = FrameTruncator::new(frame.id(), TruncateAt::CrcDelim);
                let driven = feed_frame(&mut attacker, &frame);
                assert_eq!(driven, vec![wire_index_of(&frame, FrameField::CrcDelim)]);
                found = true;
                break;
            }
        }
        assert!(found, "no frame with a trailing stuff bit in the scan");
    }

    #[test]
    fn quiescent_on_an_idle_bus() {
        let attacker = FrameTruncator::new(CanId::from_raw(0x173), TruncateAt::Eof);
        assert_eq!(attacker.next_activity(BitInstant::ZERO), None);
    }
}
