//! Bit-level bus access for software-defined defenses.
//!
//! An integrated CAN controller with pin multiplexing gives software two —
//! and only two — low-level capabilities (paper §IV-B):
//!
//! 1. sample the `CAN_RX` line once per nominal bit time, and
//! 2. drive the `CAN_TX` line while multiplexing is enabled.
//!
//! [`BitAgent`] captures exactly this contract. `michican` and other
//! defenses implement it; the simulator (or, on hardware, a timer
//! interrupt) calls it. The defense never sees frames, nodes or the
//! simulator — only bits, like real firmware.

use crate::level::Level;
use crate::packed;
use crate::time::{BitDuration, BitInstant};

/// A software component with per-bit access to the bus, as granted by a
/// pin-multiplexed integrated CAN controller.
///
/// The driver (simulator or ISR) calls [`BitAgent::on_bit`] once per
/// nominal bit time with the sampled bus level, then reads
/// [`BitAgent::tx_level`] for the level to contribute to the *next* bit
/// time. Returning `None` models an unmultiplexed `CAN_TX` pin (no
/// contribution); `Some(level)` models a multiplexed, driven pin.
///
/// The one-bit delay between a sample and the earliest possible reaction is
/// physical: controllers sample at ~70 % of the bit time, so a level change
/// decided at the sample point is only observed by other nodes from the
/// following bit onwards (§IV-C).
///
/// The simulator's accelerated engines read three promises, each of which
/// defaults to none: [`BitAgent::next_activity`] (quiet while the bus
/// stays recessive), [`BitAgent::drive_horizon`] (drives nothing, whatever
/// the bus does) and [`BitAgent::drive_until`] (drives dominant while it
/// samples dominant).
pub trait BitAgent {
    /// Processes the bus level sampled in the current bit time.
    fn on_bit(&mut self, level: Level, now: BitInstant);

    /// The level this agent drives during the next bit time, or `None` when
    /// its `CAN_TX` pin is not multiplexed.
    fn tx_level(&self) -> Option<Level>;

    /// Informs the agent whether its own node's controller is currently
    /// transmitting a frame.
    ///
    /// A distributed defense must not counterattack its own transmissions;
    /// on hardware this is known from the controller's TX-mailbox status.
    /// The default implementation ignores the hint.
    fn set_own_transmission(&mut self, _transmitting: bool) {}

    /// The earliest bit time at or after `now` at which this agent may
    /// drive the bus or needs per-bit processing, assuming the bus stays
    /// recessive until then.
    ///
    /// Part of the simulator's *quiescence contract*: returning `Some(t)`
    /// with `t > now` (or `None`, "never") promises that for every bit in
    /// `[now, t)` the agent drives nothing (`tx_level() == None` or
    /// recessive), so the simulator may hand it that many recessive
    /// samples through one [`BitAgent::skip_idle`] call. The conservative
    /// default `Some(now)` disables skip-ahead around this agent.
    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        Some(now)
    }

    /// The earliest bit time at or after `now` at which this agent may
    /// drive a non-recessive level onto the bus — i.e. at which
    /// [`BitAgent::tx_level`] may first return `Some(Level::Dominant)` —
    /// **regardless of what the agent observes in between**.
    ///
    /// This is the agent's side of the packed kernel's stretch-negotiation
    /// contract (DESIGN.md §11). Unlike [`BitAgent::next_activity`], the
    /// promise must hold for *arbitrary* bus input: the simulator keeps
    /// delivering every bit inside a packed stretch, through one
    /// [`BitAgent::observe_stretch`] call, but it resolves the wired-AND
    /// for the whole stretch up front, so the
    /// agent's TX contribution must be recessive for every bit strictly
    /// before the returned instant. `None` means the agent never drives (a
    /// pure observer). The conservative default `Some(now)` keeps the
    /// simulator in per-bit lockstep around this agent.
    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        Some(now)
    }

    /// The end of the agent's forced dominant run from `now`: returning
    /// `t` promises that [`BitAgent::tx_level`] is `Some(Level::Dominant)`
    /// at every bit of `[now, t)`, **provided each of those bits samples
    /// dominant**.
    ///
    /// This is the other half of the packed kernel's drive negotiation
    /// (DESIGN.md §11). The condition is what makes the run closed-form:
    /// the agent's own dominant drive makes the wired-AND dominant, so the
    /// input it conditions on is exactly the input it gets, as long as no
    /// channel fault flips a bit inside the run (the simulator ends every
    /// stretch before a fault-stack flip). The simulator ORs the run into
    /// the stretch's wired-AND word and delivers the bits through
    /// [`BitAgent::observe_stretch`]. An agent whose observation draws
    /// randomness per bit, or otherwise may not see the bus level, must
    /// keep the default `now`, which makes no promise.
    fn drive_until(&self, now: BitInstant) -> BitInstant {
        now
    }

    /// Advances the agent over `bits` consecutive recessive bus bits
    /// starting at `from`.
    ///
    /// Must be exactly equivalent to `bits` successive calls of
    /// `set_own_transmission(false)` + `on_bit(Level::Recessive, t)` for
    /// `t` in `[from, from + bits)`. Only called inside a window that
    /// [`BitAgent::next_activity`] declared quiet. The default observes
    /// the gap as all-recessive stretches of at most one word
    /// ([`BitAgent::observe_stretch`] of a zero word), so an agent whose
    /// observation hunts a word at a time skips idle bits in closed form
    /// without overriding this.
    fn skip_idle(&mut self, bits: u64, from: BitInstant) {
        let mut done = 0;
        while done < bits {
            let len = (bits - done).min(u64::from(packed::WORD_BITS));
            self.observe_stretch(0, len as u32, false, from + BitDuration::bits(done));
            done += len;
        }
    }

    /// Observes the `len` bus levels of one packed stretch starting at
    /// `from`: bit `i` is [`packed::level_at`]`(word, i)`, and `own_tx`
    /// is the own-transmission hint for the whole stretch.
    ///
    /// Must be exactly equivalent to `len` successive calls of
    /// `set_own_transmission(own_tx)` + `on_bit(level_at(word, i), t)`
    /// for `t` in `[from, from + len)`. Only called inside a stretch in
    /// which the agent's drive is known: declared drive-free by
    /// [`BitAgent::drive_horizon`], declared dominant by
    /// [`BitAgent::drive_until`], or overridden by a transmitter fault on
    /// its node; or, through the default [`BitAgent::skip_idle`], inside
    /// a quiet idle gap.
    ///
    /// The default replays the bits one by one: the reference every
    /// override must equal. The agents on the two wire front ends of
    /// [`crate::watch`] override it in closed form: MichiCAN's handler,
    /// its supervised form and the CANnon-style ghost on the
    /// [`PositionTracker`](crate::watch::PositionTracker), and the four
    /// CANflict-style attackers on the
    /// [`FrameWatch`](crate::watch::FrameWatch). While quiet, their SOF
    /// hunt consumes a word at a time
    /// ([`Hunt::hunt_word`](crate::watch::Hunt::hunt_word)), and only the
    /// frame bits they act on run per bit. An agent whose observation
    /// draws randomness per bit can still draw per bit and hand each run
    /// of bits it delivers on to a closed-form observation, as the
    /// simulator's pin-fault wrapper does.
    fn observe_stretch(&mut self, word: u64, len: u32, own_tx: bool, from: BitInstant) {
        for i in 0..len {
            self.set_own_transmission(own_tx);
            self.on_bit(
                packed::level_at(word, i),
                from + BitDuration::bits(u64::from(i)),
            );
        }
    }
}

impl<T: BitAgent + ?Sized> BitAgent for Box<T> {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        (**self).on_bit(level, now);
    }

    fn tx_level(&self) -> Option<Level> {
        (**self).tx_level()
    }

    fn set_own_transmission(&mut self, transmitting: bool) {
        (**self).set_own_transmission(transmitting);
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        (**self).next_activity(now)
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        (**self).drive_horizon(now)
    }

    fn drive_until(&self, now: BitInstant) -> BitInstant {
        (**self).drive_until(now)
    }

    fn skip_idle(&mut self, bits: u64, from: BitInstant) {
        (**self).skip_idle(bits, from);
    }

    fn observe_stretch(&mut self, word: u64, len: u32, own_tx: bool, from: BitInstant) {
        (**self).observe_stretch(word, len, own_tx, from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logs every call, to check the default `observe_stretch` replay.
    #[derive(Default)]
    struct Log(Vec<(bool, Level, u64)>, bool);

    impl BitAgent for Log {
        fn on_bit(&mut self, level: Level, now: BitInstant) {
            self.0.push((self.1, level, now.bits()));
        }

        fn tx_level(&self) -> Option<Level> {
            None
        }

        fn set_own_transmission(&mut self, transmitting: bool) {
            self.1 = transmitting;
        }
    }

    #[test]
    fn default_observe_stretch_replays_each_bit() {
        let mut log = Log::default();
        // Dominant mask: bits 0 and 2 dominant.
        log.observe_stretch(0b101, 4, true, BitInstant::from_bits(10));
        let levels: Vec<_> = log.0.iter().map(|&(_, l, _)| l).collect();
        assert_eq!(
            levels,
            [
                Level::Dominant,
                Level::Recessive,
                Level::Dominant,
                Level::Recessive
            ]
        );
        assert!(log.0.iter().all(|&(own, _, _)| own));
        let times: Vec<_> = log.0.iter().map(|&(_, _, t)| t).collect();
        assert_eq!(times, [10, 11, 12, 13]);
    }

    #[test]
    fn default_skip_idle_replays_recessive_bits() {
        let mut log = Log(Vec::new(), true);
        log.skip_idle(130, BitInstant::from_bits(5));
        assert_eq!(log.0.len(), 130);
        for (i, &(own, level, t)) in log.0.iter().enumerate() {
            assert_eq!((own, level, t), (false, Level::Recessive, 5 + i as u64));
        }
    }

    #[test]
    fn bit_agent_is_object_safe() {
        let mut agents: Vec<Box<dyn BitAgent>> = vec![Box::new(Log::default())];
        for agent in &mut agents {
            agent.on_bit(Level::Recessive, BitInstant::ZERO);
            assert!(agent.tx_level().is_none());
        }
    }
}
