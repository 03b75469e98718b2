//! Passive frame taps: N observers per bus without N nodes.
//!
//! A [`FrameTap`] is a purely passive observer attached to the simulator
//! via [`crate::builder::SimBuilder::tap`]. Whenever a frame completes on
//! the bus — a transmitter finishing its EOF
//! ([`EventKind::TransmissionSucceeded`](crate::event::EventKind)) or a
//! receiver validating a frame with no live transmitter
//! ([`EventKind::FrameReceived`](crate::event::EventKind), e.g. a
//! ghost-injected frame) — every tap sees that frame exactly once, stamped
//! with the completion bit time.
//!
//! Taps exist so many concurrent intrusion detectors can observe one bus in
//! a single run: unlike a monitoring [`Node`](crate::node::Node), a tap has
//! no controller, never drives the bus, cannot ACK, and adds no per-bit
//! work beyond the delivery call on completion bits.
//!
//! ## Determinism contract
//!
//! Taps are fed exclusively from the lockstep bit path. The packed kernel
//! only ever skips or packs stretches where no frame completes — its
//! receiver dry-run stops *before* any parser event — so a tap observes
//! the identical `(frame, instant)` sequence in both sim modes (lockstep,
//! packed) and at any shard count. In return a
//! tap must be passive: it cannot influence the bus, the nodes, or the
//! schedule. Its one hook into time is [`FrameTap::next_activity`], which
//! participates in the idle-gap quiescence handshake: returning
//! `Some(instant)` bounds closed-form skips so the simulator re-enters
//! lockstep no later than `instant` (useful for taps that maintain
//! time-windowed internal state); returning `None` (the default) declares
//! the tap frame-driven and never constrains acceleration.

use can_core::{BitInstant, CanFrame};

/// A passive observer of completed frames on the bus.
///
/// Implementors receive every completed frame once via
/// [`FrameTap::on_frame`]; see the [module docs](self) for the delivery
/// and determinism contract.
pub trait FrameTap {
    /// Called once per completed frame, at the frame's completion bit.
    fn on_frame(&mut self, frame: &CanFrame, now: BitInstant);

    /// The earliest future instant at which this tap wants the simulator
    /// back in lockstep, or `None` when the tap is purely frame-driven.
    ///
    /// Contract (same as [`can_core::app::Application::next_activity`]):
    /// the returned instant must be strictly after `now` to permit a skip;
    /// `Some(now)` vetoes acceleration for the current bit.
    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        let _ = now;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingTap(usize);

    impl FrameTap for CountingTap {
        fn on_frame(&mut self, _frame: &CanFrame, _now: BitInstant) {
            self.0 += 1;
        }
    }

    #[test]
    fn default_next_activity_is_none() {
        let tap = CountingTap(0);
        assert_eq!(tap.next_activity(BitInstant::ZERO), None);
    }
}
