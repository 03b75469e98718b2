//! Shared wire observers for bit-level bus participants.
//!
//! Every bit-level agent needs the same front end: hunt for a SOF after
//! ≥ 11 recessive bits, destuff the stuffed region and count destuffed
//! positions. This module packages it twice, at two depths, so downstream
//! crates only implement their *policy* on top:
//!
//! * [`PositionTracker`] is Algorithm 1's front end (paper §IV-C/D), for
//!   MichiCAN and the CANnon-style ghost.
//! * [`FrameWatch`] also accumulates the arbitration field and tracks the
//!   frame through its unstuffed tail (CRC delimiter, ACK, EOF), which the
//!   CANflict-style zoo attackers in `can-attacks` strike on. Destuffing
//!   formally ends after the CRC sequence, and a naive destuffer would
//!   mistake the ≥ 8 recessive tail bits for stuff violations.
//!
//! Both carry the closed forms the packed kernel asks for: the quiet test
//! and `skip_idle` of an idle hunt, and a drive-horizon bound under
//! arbitrary input.

use crate::bitstream::{Destuffed, Destuffer, FrameLayout, MIN_INTERFRAME_RECESSIVE, STUFF_RUN};
use crate::id::CanId;
use crate::level::Level;
use crate::time::BitInstant;

/// Destuffed position (1-based, SOF = 1) of the last identifier bit: the
/// arbitration winner is known once [`FrameWatch::cnt`] reaches this.
pub const ID_COMPLETE_CNT: u32 = 12;

/// One hunting step, shared by both observers (Algorithm 1's `cnt_sof`):
/// whether `level` opens a frame, a dominant bit after at least 11
/// recessive ones. Any other dominant bit (a frame joined late) resets
/// the run; the caller resets it on a SOF.
fn hunt(recessive_run: &mut u32, level: Level) -> bool {
    if level.is_recessive() {
        *recessive_run = recessive_run.saturating_add(1);
        false
    } else if *recessive_run >= MIN_INTERFRAME_RECESSIVE as u32 {
        true
    } else {
        *recessive_run = 0;
        false
    }
}

/// A hunt's recessive run after `bits` more recessive bits: the closed
/// form of as many [`hunt`] steps.
fn credit_idle(recessive_run: u32, bits: u64) -> u32 {
    recessive_run.saturating_add(u32::try_from(bits).unwrap_or(u32::MAX))
}

/// What one pushed wire bit amounted to for a [`PositionTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracked {
    /// Hunting for a SOF.
    Idle,
    /// This dominant bit opened a frame (`cnt` is now 1).
    Sof,
    /// A destuffed bit advanced `cnt`.
    Bit(Level),
    /// A stuff bit or a stuff violation: `cnt` holds. Algorithm 1 keeps
    /// counting through a violation, since the six equal levels are its
    /// own injection or an error flag.
    Held,
}

/// Algorithm 1's wire front end (paper §IV-C/D), shared by MichiCAN and
/// the CANnon-style ghost: hunt a SOF after ≥ 11 recessive bits, then
/// destuff and count destuffed positions (SOF = 1) until the owner
/// [leaves](PositionTracker::leave) the frame, which both owners do at
/// position 20. Bit stuffing guarantees no false SOF in the rest of a
/// frame, so it needs nothing more.
#[derive(Debug, Clone, Default)]
pub struct PositionTracker {
    in_frame: bool,
    /// Recessive run while hunting (`cnt_sof`).
    recessive_run: u32,
    /// Destuffed frame position, SOF = 1 (`cnt`); 0 while hunting.
    cnt: u32,
    destuffer: Destuffer,
}

impl PositionTracker {
    /// A tracker with no history, hunting for a SOF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Destuffed position within the current frame (SOF = 1); 0 when
    /// hunting.
    pub fn cnt(&self) -> u32 {
        self.cnt
    }

    /// Feeds one sampled wire bit.
    pub fn push(&mut self, level: Level) -> Tracked {
        if !self.in_frame {
            if !hunt(&mut self.recessive_run, level) {
                return Tracked::Idle;
            }
            self.in_frame = true;
            self.recessive_run = 0;
            self.cnt = 1;
            self.destuffer.reset();
            // The destuffer must know about the SOF for run counting.
            let _ = self.destuffer.push(Level::Dominant);
            return Tracked::Sof;
        }
        match self.destuffer.push(level) {
            Destuffed::Bit(bit) => {
                self.cnt += 1;
                Tracked::Bit(bit)
            }
            Destuffed::StuffBit | Destuffed::Violation => Tracked::Held,
        }
    }

    /// Leaves the frame and hunts again with no recessive credit. Bit
    /// stuffing guarantees no false SOF within the rest of the frame.
    pub fn leave(&mut self) {
        self.in_frame = false;
        self.recessive_run = 0;
        self.cnt = 0;
    }

    /// The quiet test behind [`crate::agent::BitAgent::next_activity`]:
    /// hunting on an idle bus only counts recessive bits, which
    /// [`PositionTracker::skip_idle`] does in closed form, so `None`;
    /// inside a frame every bit matters.
    pub fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        self.in_frame.then_some(now)
    }

    /// Closed-form equivalent of pushing `bits` recessive bits while
    /// hunting.
    pub fn skip_idle(&mut self, bits: u64) {
        debug_assert!(!self.in_frame, "skip_idle inside a frame");
        self.recessive_run = credit_idle(self.recessive_run, bits);
    }

    /// The least number of further pushes after which `cnt` could reach
    /// `start`, for arbitrary input, when the owner leaves each frame at
    /// position `end`: the basis of a drive horizon. Each push advances
    /// `cnt` by at most one, and a SOF needs 11 recessive bits first.
    /// Once past `start`, the frame must be left (at least one more
    /// counted push), a full SOF hunted, and the count climbed again.
    pub fn pushes_until(&self, start: u32, end: u32) -> u64 {
        let (start, cnt) = (u64::from(start), u64::from(self.cnt));
        let sof_idle = MIN_INTERFRAME_RECESSIVE as u64;
        if !self.in_frame {
            sof_idle.saturating_sub(u64::from(self.recessive_run)) + start
        } else if cnt < start {
            start - cnt
        } else {
            u64::from(end).saturating_sub(cnt).max(1) + sof_idle + start
        }
    }

    /// How many pushes, each sampling dominant, bring `cnt` to `end` (at
    /// least one): the length of a forced dominant run that lasts until
    /// the owner leaves the frame there. The owner's own drive makes every
    /// sample dominant, so the destuffer fixes the count; the one
    /// violation counts nothing, as a stuff bit does not.
    pub fn dominant_pushes_to(&self, end: u32) -> u64 {
        let bits = end.saturating_sub(self.cnt).max(1);
        self.destuffer.pushes_for_bits(Level::Dominant, bits)
    }
}

/// What one pushed wire bit amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchEvent {
    /// Bus idle (or hunting for enough recessive bits before a SOF).
    Idle,
    /// This dominant bit opened a frame (`cnt` is now 1).
    Sof,
    /// A destuffed payload bit was consumed (`cnt` advanced).
    Bit(Level),
    /// A stuff bit was consumed (`cnt` unchanged).
    Stuff,
    /// An unstuffed tail bit (CRC delimiter / ACK / EOF) was consumed.
    Tail,
    /// This bit completed the EOF; the watch is hunting again.
    FrameEnd,
    /// Six equal levels inside the stuffed region. The frame is dead
    /// (error flags follow); the watch aborted back to hunting. Carries
    /// the destuffed position at which the violation was observed.
    Violation(u32),
}

/// A wire moment a bit-level agent strikes on, as
/// [`FrameWatch::pushes_until`] measures it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchTrigger {
    /// A push that leaves [`FrameWatch::cnt`] at this destuffed position
    /// (SOF = 1), or the stuff bit right after it.
    Cnt(u32),
    /// A push after which [`FrameWatch::next_tail_index`] is this index.
    TailIndex(u32),
    /// A push after which [`FrameWatch::expecting_recessive_stuff`] holds.
    RecessiveStuff,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WatchState {
    /// Hunting: counting recessive bits toward a SOF-arming threshold.
    BusIdle,
    /// Inside the stuffed region (SOF through CRC sequence).
    Stuffed,
    /// A run of five ended exactly at the last CRC bit: one more stuff
    /// bit is on the wire before the CRC delimiter.
    TrailingStuff,
    /// The unstuffed tail; counts down the 10 remaining bits
    /// (CRC delimiter, ACK slot, ACK delimiter, 7 × EOF).
    Tail { left: u32 },
}

/// Length of the unstuffed frame tail: CRC delimiter + ACK slot + ACK
/// delimiter + EOF.
const TAIL_BITS: u32 = 10;

/// Incremental observer of one CAN wire, from the perspective of a
/// bit-level agent with no controller: SOF hunting, destuffing, field
/// accumulation and frame-end tracking.
#[derive(Debug, Clone)]
pub struct FrameWatch {
    state: WatchState,
    recessive_run: u32,
    destuffer: Destuffer,
    /// Destuffed frame position, SOF = 1. Stuff bits do not advance it.
    cnt: u32,
    id_acc: u16,
    id_bits: u8,
    rtr: bool,
    dlc_acc: u8,
    layout: Option<FrameLayout>,
    /// Level of the most recent wire bit (for stuff-bit prediction).
    last_level: Option<Level>,
    /// Recessive run inside the tail, carried into hunting at frame end
    /// so back-to-back frames re-arm exactly like a real controller.
    tail_recessive: u32,
}

impl Default for FrameWatch {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameWatch {
    /// A watch with no history, hunting for a SOF.
    pub fn new() -> Self {
        FrameWatch {
            state: WatchState::BusIdle,
            recessive_run: 0,
            destuffer: Destuffer::new(),
            cnt: 0,
            id_acc: 0,
            id_bits: 0,
            rtr: false,
            dlc_acc: 0,
            layout: None,
            last_level: None,
            tail_recessive: 0,
        }
    }

    /// Whether the watch is hunting (no frame in progress).
    pub fn is_idle(&self) -> bool {
        self.state == WatchState::BusIdle
    }

    /// Destuffed position within the current frame (SOF = 1); 0 when idle.
    pub fn cnt(&self) -> u32 {
        self.cnt
    }

    /// The frame's identifier, once all 11 arbitration bits are in.
    pub fn id(&self) -> Option<CanId> {
        (self.id_bits == 11).then(|| CanId::from_raw(self.id_acc))
    }

    /// The frame's layout, known once the DLC is complete (`cnt ≥ 19`).
    pub fn layout(&self) -> Option<FrameLayout> {
        self.layout
    }

    /// Whether the *next* wire bit will be a stuff bit.
    pub fn expecting_stuff(&self) -> bool {
        matches!(self.state, WatchState::Stuffed | WatchState::TrailingStuff)
            && self.destuffer.expecting_stuff()
    }

    /// Whether the next wire bit will be a **recessive** stuff bit — the
    /// only kind a dominant-drive attacker can overwrite into a stuff
    /// error (a dominant stuff bit is already at the attacker's level).
    pub fn expecting_recessive_stuff(&self) -> bool {
        self.expecting_stuff() && self.last_level == Some(Level::Dominant)
    }

    /// Index of the tail bit the *next* wire bit will occupy (0 = CRC
    /// delimiter), or `None` while not at/inside the tail.
    pub fn next_tail_index(&self) -> Option<u32> {
        match self.state {
            WatchState::Tail { left } => Some(TAIL_BITS - left),
            _ => None,
        }
    }

    /// The least number of further pushes after which `trigger` could
    /// fire, for arbitrary input: the basis of a bit-level agent's
    /// [`crate::agent::BitAgent::drive_horizon`]. `eligible` says whether
    /// the frame in progress can still qualify for the agent's strike;
    /// one that cannot must end first, and the next frame counts from its
    /// SOF. Rows (DESIGN.md §12):
    ///
    /// * hunting with a recessive run `r`: the `(11 − r)⁺` bits that arm a
    ///   SOF, then the trigger's position in a fresh frame;
    /// * in the stuffed region: a push advances `cnt` by at most one, so
    ///   the distance to the position; otherwise a violation on the next
    ///   push re-arms the hunt from zero (ending through the tail is
    ///   slower);
    /// * in the tail: its remaining bits, one more recessive bit (the tail
    ///   credits at most 10 toward the next SOF), then the fresh frame.
    pub fn pushes_until(&self, trigger: WatchTrigger, eligible: bool) -> u64 {
        let sof_idle = MIN_INTERFRAME_RECESSIVE as u64;
        let min_region = FrameLayout::for_payload(0).stuffed_region_bits() as u64;
        let stuff_run = STUFF_RUN as u64;
        // Pushes from the hunt's end to the trigger in a frame that has not
        // started (its SOF is the first). The DLC is unknown there, so a
        // tail index sits behind the shortest stuffed region, and a
        // recessive stuff bit is due after the SOF plus four dominant bits.
        let fresh = match trigger {
            WatchTrigger::Cnt(c) => u64::from(c),
            WatchTrigger::TailIndex(i) => min_region + u64::from(i),
            WatchTrigger::RecessiveStuff => stuff_run,
        };
        let rehunt = 1 + sof_idle + fresh;
        let cnt = u64::from(self.cnt);
        match (self.state, trigger) {
            (WatchState::BusIdle, _) => {
                sof_idle.saturating_sub(u64::from(self.recessive_run)) + fresh
            }
            (WatchState::Tail { left }, WatchTrigger::TailIndex(i))
                if eligible && TAIL_BITS - left < i =>
            {
                u64::from(i - (TAIL_BITS - left))
            }
            (WatchState::Tail { left }, _) => u64::from(left) + 1 + fresh,
            _ if !eligible => rehunt,
            // At `cnt == c` a pending stuff bit still lets the trigger fire.
            (WatchState::Stuffed, WatchTrigger::Cnt(c)) if cnt <= u64::from(c) => {
                (u64::from(c) - cnt).max(1)
            }
            (WatchState::Stuffed, WatchTrigger::TailIndex(i)) => {
                let region = self
                    .layout
                    .map_or(min_region, |l| l.stuffed_region_bits() as u64);
                // A long frame may be abandoned for a shorter one.
                (region + u64::from(i) - cnt).min(rehunt)
            }
            (WatchState::TrailingStuff, WatchTrigger::Cnt(c)) if cnt == u64::from(c) => 1,
            (WatchState::TrailingStuff, WatchTrigger::TailIndex(i)) => 1 + u64::from(i),
            (_, WatchTrigger::RecessiveStuff) => match self.destuffer.run() {
                (Some(Level::Dominant), run) if run < STUFF_RUN => stuff_run - run as u64,
                // This stuff bit passes; a fresh dominant run follows it.
                (Some(Level::Dominant), _) => 1 + stuff_run,
                // A recessive run: a dominant (stuff) bit starts the run.
                _ => stuff_run,
            },
            _ => rehunt,
        }
    }

    /// Abandons the current frame and returns to hunting with no
    /// recessive history (used after a strike destroys the frame: the
    /// ≥ 11 recessive bits of error delimiter + intermission re-arm the
    /// hunt before the next SOF).
    pub fn abort(&mut self) {
        self.state = WatchState::BusIdle;
        self.recessive_run = 0;
        self.cnt = 0;
    }

    /// Closed-form equivalent of pushing `bits` recessive bus bits while
    /// hunting. Panics (debug) if a frame is in progress — callers gate
    /// this on [`FrameWatch::is_idle`] via their `next_activity` seam.
    pub fn skip_idle(&mut self, bits: u64) {
        debug_assert!(self.is_idle(), "skip_idle outside a quiescent window");
        self.recessive_run = credit_idle(self.recessive_run, bits);
        self.last_level = Some(Level::Recessive);
    }

    fn enter_frame(&mut self) {
        self.state = WatchState::Stuffed;
        self.recessive_run = 0;
        self.destuffer.reset();
        let _ = self.destuffer.push(Level::Dominant);
        self.cnt = 1;
        self.id_acc = 0;
        self.id_bits = 0;
        self.rtr = false;
        self.dlc_acc = 0;
        self.layout = None;
        self.tail_recessive = 0;
    }

    /// Feeds one sampled wire bit.
    pub fn push(&mut self, level: Level) -> WatchEvent {
        let event = self.push_inner(level);
        self.last_level = Some(level);
        event
    }

    fn push_inner(&mut self, level: Level) -> WatchEvent {
        match self.state {
            WatchState::BusIdle => {
                if hunt(&mut self.recessive_run, level) {
                    self.enter_frame();
                    WatchEvent::Sof
                } else {
                    WatchEvent::Idle
                }
            }
            WatchState::Stuffed => match self.destuffer.push(level) {
                Destuffed::Violation => {
                    let at = self.cnt;
                    self.abort();
                    WatchEvent::Violation(at)
                }
                Destuffed::StuffBit => WatchEvent::Stuff,
                Destuffed::Bit(bit) => {
                    self.cnt += 1;
                    self.on_payload_bit(bit);
                    WatchEvent::Bit(bit)
                }
            },
            WatchState::TrailingStuff => match self.destuffer.push(level) {
                Destuffed::Violation => {
                    let at = self.cnt;
                    self.abort();
                    WatchEvent::Violation(at)
                }
                _ => {
                    self.state = WatchState::Tail { left: TAIL_BITS };
                    WatchEvent::Stuff
                }
            },
            WatchState::Tail { left } => {
                if level.is_recessive() {
                    self.tail_recessive = self.tail_recessive.saturating_add(1);
                } else {
                    self.tail_recessive = 0;
                }
                let left = left - 1;
                if left == 0 {
                    // Frame complete: hunt again, crediting the recessive
                    // tail run (ACK delimiter + EOF on a clean frame) so
                    // the 3-bit intermission suffices before the next SOF.
                    self.state = WatchState::BusIdle;
                    self.recessive_run = self.tail_recessive;
                    self.cnt = 0;
                    WatchEvent::FrameEnd
                } else {
                    self.state = WatchState::Tail { left };
                    WatchEvent::Tail
                }
            }
        }
    }

    fn on_payload_bit(&mut self, bit: Level) {
        match self.cnt {
            2..=12 => {
                self.id_acc = (self.id_acc << 1) | bit.to_bit() as u16;
                self.id_bits += 1;
            }
            13 => self.rtr = bit.to_bit(),
            16..=19 => {
                self.dlc_acc = (self.dlc_acc << 1) | bit.to_bit() as u8;
                if self.cnt == 19 {
                    // DLC values 9..15 mean 8 data bytes (ISO 11898-1);
                    // remote frames carry no data regardless of DLC.
                    let data_bytes = if self.rtr {
                        0
                    } else {
                        self.dlc_acc.min(8) as usize
                    };
                    self.layout = Some(FrameLayout::for_payload(data_bytes));
                }
            }
            _ => {}
        }
        // End of the stuffed region: the CRC sequence is complete.
        if let Some(layout) = self.layout {
            if self.cnt as usize == layout.stuffed_region_bits() {
                self.state = if self.destuffer.expecting_stuff() {
                    WatchState::TrailingStuff
                } else {
                    WatchState::Tail { left: TAIL_BITS }
                };
                self.tail_recessive = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::stuff_frame;
    use crate::frame::CanFrame;

    fn feed_idle(watch: &mut FrameWatch, bits: usize) {
        for _ in 0..bits {
            assert_eq!(watch.push(Level::Recessive), WatchEvent::Idle);
        }
    }

    #[test]
    fn walks_a_complete_frame_and_rearms() {
        let frame = CanFrame::data_frame(CanId::from_raw(0x173), &[0xDE, 0xAD]).unwrap();
        let wire = stuff_frame(&frame);
        let mut watch = FrameWatch::new();
        feed_idle(&mut watch, 12);

        let mut events = Vec::new();
        for &bit in &wire.bits {
            events.push(watch.push(bit));
        }
        assert_eq!(events[0], WatchEvent::Sof);
        assert_eq!(*events.last().unwrap(), WatchEvent::FrameEnd);
        assert!(!events.contains(&WatchEvent::Violation(0)));
        assert!(watch.is_idle());
        // ACK delimiter + EOF = 8 recessive bits credited toward re-arm:
        // the 3-bit intermission completes the 11 needed before a SOF.
        feed_idle(&mut watch, 3);
        assert_eq!(watch.push(Level::Dominant), WatchEvent::Sof);
    }

    #[test]
    fn accumulates_id_and_layout() {
        let frame = CanFrame::data_frame(CanId::from_raw(0x2A5), &[1, 2, 3]).unwrap();
        let wire = stuff_frame(&frame);
        let mut watch = FrameWatch::new();
        feed_idle(&mut watch, 12);
        for &bit in &wire.bits {
            watch.push(bit);
        }
        // Replay a second frame and probe mid-frame state during it.
        feed_idle(&mut watch, 3);
        let mut id_at_12 = None;
        let mut layout_at_19 = None;
        for &bit in &wire.bits {
            watch.push(bit);
            if watch.cnt() == 12 && id_at_12.is_none() {
                id_at_12 = watch.id();
            }
            if watch.cnt() == 19 && layout_at_19.is_none() {
                layout_at_19 = watch.layout();
            }
        }
        assert_eq!(id_at_12, Some(CanId::from_raw(0x2A5)));
        assert_eq!(layout_at_19, Some(FrameLayout::for_payload(3)));
    }

    #[test]
    fn predicts_recessive_stuff_bits() {
        // ID 0x000: SOF + 11 dominant bits force recessive stuff bits at
        // wire positions 5 and 11.
        let frame = CanFrame::data_frame(CanId::from_raw(0), &[]).unwrap();
        let wire = stuff_frame(&frame);
        let mut watch = FrameWatch::new();
        feed_idle(&mut watch, 12);
        let mut predicted = Vec::new();
        for (i, &bit) in wire.bits.iter().enumerate() {
            if watch.expecting_recessive_stuff() {
                predicted.push(i);
            }
            watch.push(bit);
        }
        assert_eq!(&predicted[..2], &[5, 11]);
        for &p in &predicted {
            assert_eq!(wire.bits[p], Level::Recessive, "wire bit {p}");
            assert!(wire.stuff_positions.contains(&p), "wire bit {p}");
        }
    }

    #[test]
    fn tail_indices_line_up_with_the_layout() {
        let frame = CanFrame::data_frame(CanId::from_raw(0x315), &[9; 4]).unwrap();
        let wire = stuff_frame(&frame);
        let mut watch = FrameWatch::new();
        feed_idle(&mut watch, 12);
        let mut first_tail_wire_index = None;
        for (i, &bit) in wire.bits.iter().enumerate() {
            if watch.next_tail_index() == Some(0) && first_tail_wire_index.is_none() {
                first_tail_wire_index = Some(i);
            }
            watch.push(bit);
        }
        // Tail bit 0 is the CRC delimiter: unstuffed index 34 + d, offset
        // by every stuff bit inserted before it.
        let layout = FrameLayout::of(&frame);
        let expected = layout.stuffed_region_bits() + wire.stuff_count();
        assert_eq!(first_tail_wire_index, Some(expected));
    }

    #[test]
    fn six_equal_bits_abort_to_hunting() {
        let mut watch = FrameWatch::new();
        feed_idle(&mut watch, 12);
        watch.push(Level::Dominant); // SOF
        for _ in 0..4 {
            watch.push(Level::Dominant);
        }
        // Sixth dominant: stuff violation at the current position.
        assert_eq!(watch.push(Level::Dominant), WatchEvent::Violation(5));
        assert!(watch.is_idle());
        // Error delimiter + intermission re-arm the hunt.
        feed_idle(&mut watch, 11);
        assert_eq!(watch.push(Level::Dominant), WatchEvent::Sof);
    }

    #[test]
    fn skip_idle_matches_bitwise_replay() {
        let mut skipped = FrameWatch::new();
        let mut replayed = FrameWatch::new();
        skipped.skip_idle(500);
        for _ in 0..500 {
            replayed.push(Level::Recessive);
        }
        let frame = CanFrame::data_frame(CanId::from_raw(0x111), &[7]).unwrap();
        let wire = stuff_frame(&frame);
        for &bit in &wire.bits {
            assert_eq!(skipped.push(bit), replayed.push(bit));
        }
        assert_eq!(skipped.id(), replayed.id());
    }

    #[test]
    fn tracker_counts_destuffed_positions_until_it_leaves() {
        // 0x000 forces recessive stuff bits inside SOF + identifier.
        let frame = CanFrame::data_frame(CanId::from_raw(0), &[0; 8]).unwrap();
        let wire = stuff_frame(&frame);
        let mut tracker = PositionTracker::new();
        for _ in 0..5 {
            assert_eq!(tracker.push(Level::Recessive), Tracked::Idle);
        }
        // Too little idle: a dominant bit is not a SOF.
        assert_eq!(tracker.push(Level::Dominant), Tracked::Idle);
        tracker.skip_idle(11);
        assert_eq!(tracker.next_activity(BitInstant::ZERO), None);
        let mut held = 0;
        for &bit in &wire.bits {
            match tracker.push(bit) {
                Tracked::Held => held += 1,
                Tracked::Idle => unreachable!("the SOF opened a frame"),
                _ => {}
            }
            if tracker.cnt() == 20 {
                break;
            }
        }
        assert!(tracker.next_activity(BitInstant::ZERO).is_some());
        assert!(held > 0, "stuff bits hold the count");
        tracker.leave();
        assert_eq!(tracker.next_activity(BitInstant::ZERO), None);
        // Leaving gives no recessive credit: a full hunt precedes the SOF.
        assert_eq!(tracker.pushes_until(13, 20), 11 + 13);
    }

    #[test]
    fn tracker_bounds_match_a_dominant_drive() {
        let mut tracker = PositionTracker::new();
        tracker.skip_idle(11);
        assert_eq!(tracker.push(Level::Dominant), Tracked::Sof);
        assert_eq!(tracker.pushes_until(13, 20), 12);
        // Drive dominant from position 1: count the pushes to position 20.
        let predicted = tracker.dominant_pushes_to(20);
        let mut pushes = 0;
        while tracker.cnt() < 20 {
            tracker.push(Level::Dominant);
            pushes += 1;
        }
        assert_eq!(pushes, predicted);
        // Past the arming position: leave, hunt, count up again.
        assert_eq!(tracker.pushes_until(13, 20), 1 + 11 + 13);
    }
}
