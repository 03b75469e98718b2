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
use can_core::bitstream::{Destuffed, Destuffer, MIN_INTERFRAME_RECESSIVE};
use can_core::{BitDuration, BitInstant, CanId, Level};
use can_obs::{Journal, JournalKind};

/// Destuffed position whose bit triggers the injection: the first bit
/// after the arbitration field.
const INJECT_CNT: u32 = 13;

/// Destuffed position at which the ghost leaves the frame.
const LEAVE_CNT: u32 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GhostState {
    BusIdle,
    InFrame,
}

/// A bit-level bus-off attacker targeting one victim identifier.
#[derive(Debug, Clone)]
pub struct GhostInjector {
    victim: CanId,
    state: GhostState,
    recessive_run: u32,
    destuffer: Destuffer,
    /// Destuffed frame position, SOF = 1.
    cnt: u32,
    /// Identifier bits accumulated so far.
    id_acc: u16,
    id_bits: u8,
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
            state: GhostState::BusIdle,
            recessive_run: 0,
            destuffer: Destuffer::new(),
            cnt: 0,
            id_acc: 0,
            id_bits: 0,
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

    fn enter_frame(&mut self) {
        self.state = GhostState::InFrame;
        self.recessive_run = 0;
        self.destuffer.reset();
        let _ = self.destuffer.push(Level::Dominant);
        self.cnt = 1;
        self.id_acc = 0;
        self.id_bits = 0;
    }

    fn leave_frame(&mut self) {
        self.state = GhostState::BusIdle;
        self.recessive_run = 0;
        self.injecting = false;
    }
}

impl BitAgent for GhostInjector {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        match self.state {
            GhostState::BusIdle => {
                if level.is_recessive() {
                    self.recessive_run = self.recessive_run.saturating_add(1);
                } else if self.recessive_run >= MIN_INTERFRAME_RECESSIVE as u32 {
                    self.enter_frame();
                } else {
                    self.recessive_run = 0;
                }
            }
            GhostState::InFrame => {
                match self.destuffer.push(level) {
                    Destuffed::StuffBit | Destuffed::Violation => return,
                    Destuffed::Bit(bit) => {
                        self.cnt += 1;
                        if (2..=12).contains(&self.cnt) {
                            self.id_acc = (self.id_acc << 1) | bit.to_bit() as u16;
                            self.id_bits += 1;
                        }
                    }
                }
                // Inject right after arbitration when the victim matched.
                if self.cnt == INJECT_CNT && self.id_bits == 11 && self.id_acc == self.victim.raw()
                {
                    self.injecting = true;
                    self.injections += 1;
                    if self.journal.is_enabled() {
                        self.journal.event(
                            now.bits(),
                            self.node_label,
                            JournalKind::Strike,
                            "ghost",
                        );
                    }
                }
                if self.cnt >= LEAVE_CNT {
                    self.leave_frame();
                }
            }
        }
    }

    fn tx_level(&self) -> Option<Level> {
        if self.injecting {
            Some(Level::Dominant)
        } else {
            None
        }
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        // Hunting on an idle bus only counts recessive bits (closed form
        // in `skip_idle`); mid-frame every bit matters.
        match self.state {
            GhostState::BusIdle if !self.injecting => None,
            _ => Some(now),
        }
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        // The injection is decided at the bit that brings `cnt` to 13, and
        // each bit advances `cnt` by at most one. Violations do not leave
        // the frame; reaching `cnt == 20` does, with no recessive credit,
        // so a later frame needs the full 11-bit hunt before its SOF.
        if self.injecting {
            return Some(now);
        }
        let sof_idle = MIN_INTERFRAME_RECESSIVE as u32;
        let bits = match self.state {
            GhostState::BusIdle => sof_idle.saturating_sub(self.recessive_run) + INJECT_CNT,
            GhostState::InFrame if self.cnt < INJECT_CNT => INJECT_CNT - self.cnt,
            GhostState::InFrame => (LEAVE_CNT - self.cnt) + sof_idle + INJECT_CNT,
        };
        Some(now + BitDuration::bits(u64::from(bits)))
    }

    fn drive_until(&self, now: BitInstant) -> BitInstant {
        // While striking, the pin stays dominant up to and including the
        // bit that brings `cnt` to 20; its own drive makes every sample
        // dominant, so the destuffer fixes how many bits that takes.
        if !self.injecting {
            return now;
        }
        let bits = LEAVE_CNT.saturating_sub(self.cnt).max(1);
        now + BitDuration::bits(self.destuffer.pushes_for_bits(Level::Dominant, bits))
    }

    fn skip_idle(&mut self, bits: u64, _from: BitInstant) {
        debug_assert!(matches!(self.state, GhostState::BusIdle) && !self.injecting);
        self.recessive_run = self
            .recessive_run
            .saturating_add(u32::try_from(bits).unwrap_or(u32::MAX));
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
