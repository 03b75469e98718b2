//! The frame-level interface a classic CAN controller exposes to software.
//!
//! Applications on nodes A/B of the paper's hardware taxonomy (§II-C) can
//! only hand complete frames to the controller and receive complete frames
//! back — no bit-level access. [`Application`] captures that interface;
//! benign ECUs, restbus replayers and attackers all implement it.

use crate::frame::CanFrame;
use crate::time::BitInstant;

/// ECU application software talking to a CAN controller at frame
/// granularity.
///
/// The driving controller calls [`Application::poll`] once per bit time to
/// collect frames to enqueue for transmission, and the `on_*` callbacks as
/// bus events occur. Implementations should be cheap in `poll` — it runs at
/// bit rate.
///
/// The simulator's accelerated engines skip polls on two promises, both
/// of which default to none: [`Application::next_activity`] (the polls
/// return `None`) and [`Application::repost_until`] (the polls only
/// re-post a frame the node holds, and [`Application::settle_reposts`]
/// catches up on what they would have counted).
pub trait Application {
    /// Polls for a frame to enqueue for transmission, if any.
    ///
    /// Returning `Some` repeatedly enqueues multiple frames; the controller
    /// buffers them and transmits in CAN priority order.
    fn poll(&mut self, now: BitInstant) -> Option<CanFrame>;

    /// The earliest bit time at or after `now` at which this application
    /// may return `Some` from [`Application::poll`], assuming no frames
    /// arrive in between.
    ///
    /// This is the application's half of the simulator's *quiescence
    /// contract*: if `next_activity(now)` returns `Some(t)` with `t > now`
    /// (or `None`, meaning "never"), then every `poll` in `[now, t)` must
    /// return `None` **without observable state change**, so the driver may
    /// skip those polls entirely. Implementations that cannot promise this
    /// keep the conservative default `Some(now)`, which disables
    /// skip-ahead around them.
    ///
    /// A poll may also be skipped when all it would do is re-post a frame
    /// the node already holds in that mailbox or is transmitting (e.g. a
    /// saturating attacker re-posting one fixed frame every bit). This is
    /// sound because the controller reads its mailboxes only at bits the
    /// driver runs in lockstep — a transmission start, the end of a
    /// transmission (success, error or arbitration loss) and a restart
    /// flush — and lockstep polls every application before the controller
    /// samples, so the frame is back in place whenever it is read.
    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        Some(now)
    }

    /// The end of the application's re-post run from `now`: returning `t`
    /// promises that every [`Application::poll`] in `[now, t)` returns
    /// `Some` of a frame the node already holds, and changes no state
    /// except counters that [`Application::settle_reposts`] can bring up
    /// to date afterwards.
    ///
    /// This is the re-post case of the quiescence contract above, for an
    /// application that stays busy (its `next_activity` keeps returning
    /// `now`), such as a defender flooding one fixed frame. The packed
    /// kernel then skips those polls inside a stretch and settles them in
    /// one call at commit. Every lockstep bit still polls as usual. The
    /// default `now` makes no promise.
    fn repost_until(&self, now: BitInstant) -> BitInstant {
        now
    }

    /// Settles `polls` polls that the driver skipped inside a window
    /// declared by [`Application::repost_until`]: the application applies
    /// in one step whatever those polls would have counted. The driver
    /// skips [`MAX_ENQUEUE_PER_BIT`] polls per bit, since each of them
    /// would have returned `Some`. The default does nothing.
    fn settle_reposts(&mut self, _polls: u64) {}

    /// A complete, valid frame (sent by another node) was received.
    fn on_frame(&mut self, _frame: &CanFrame, _now: BitInstant) {}

    /// One of this node's own frames completed transmission successfully.
    fn on_transmit_success(&mut self, _frame: &CanFrame, _now: BitInstant) {}

    /// This node's controller entered bus-off.
    fn on_bus_off(&mut self, _now: BitInstant) {}

    /// This node's controller recovered from bus-off into error-active.
    fn on_recovered(&mut self, _now: BitInstant) {}
}

/// How many times the driver polls an application per bit while each
/// poll returns `Some`; guards against runaway flooding applications
/// stalling the simulator.
pub const MAX_ENQUEUE_PER_BIT: usize = 8;

/// An application that never transmits and ignores all traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentApplication;

impl Application for SilentApplication {
    fn poll(&mut self, _now: BitInstant) -> Option<CanFrame> {
        None
    }

    fn next_activity(&self, _now: BitInstant) -> Option<BitInstant> {
        None
    }
}

/// An application that transmits a fixed frame at a fixed period.
///
/// The first transmission is enqueued at `offset`; subsequent ones every
/// `period_bits`. This is the building block for restbus replay and for
/// the paper's "ECU configured to send CAN ID 0x173".
#[derive(Debug, Clone)]
pub struct PeriodicSender {
    frame: CanFrame,
    period_bits: u64,
    next_due: u64,
}

impl PeriodicSender {
    /// Creates a sender for `frame` every `period_bits`, first due at
    /// `offset_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `period_bits` is zero.
    pub fn new(frame: CanFrame, period_bits: u64, offset_bits: u64) -> Self {
        assert!(period_bits > 0, "period must be positive");
        PeriodicSender {
            frame,
            period_bits,
            next_due: offset_bits,
        }
    }

    /// The frame this sender transmits.
    pub fn frame(&self) -> &CanFrame {
        &self.frame
    }
}

impl Application for PeriodicSender {
    fn poll(&mut self, now: BitInstant) -> Option<CanFrame> {
        if now.bits() >= self.next_due {
            self.next_due += self.period_bits;
            Some(self.frame)
        } else {
            None
        }
    }

    fn next_activity(&self, _now: BitInstant) -> Option<BitInstant> {
        Some(BitInstant::from_bits(self.next_due))
    }
}

/// An application that answers remote frames (RTR) for its identifier
/// with a data frame — the classic CAN request/response pattern.
#[derive(Debug, Clone)]
pub struct RemoteResponder {
    id: crate::id::CanId,
    payload: [u8; 8],
    dlc: usize,
    pending: u32,
}

impl RemoteResponder {
    /// Creates a responder serving `payload` for RTR requests on `id`.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds 8 bytes.
    pub fn new(id: crate::id::CanId, payload: &[u8]) -> Self {
        assert!(payload.len() <= 8, "payload too long");
        let mut data = [0u8; 8];
        data[..payload.len()].copy_from_slice(payload);
        RemoteResponder {
            id,
            payload: data,
            dlc: payload.len(),
            pending: 0,
        }
    }
}

impl Application for RemoteResponder {
    fn poll(&mut self, _now: BitInstant) -> Option<CanFrame> {
        if self.pending > 0 {
            self.pending -= 1;
            Some(
                CanFrame::data_frame(self.id, &self.payload[..self.dlc])
                    .expect("validated payload"),
            )
        } else {
            None
        }
    }

    fn on_frame(&mut self, frame: &CanFrame, _now: BitInstant) {
        if frame.is_remote() && frame.id() == self.id {
            self.pending += 1;
        }
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        if self.pending > 0 {
            Some(now)
        } else {
            // Idle until the next remote request — which arrives via
            // `on_frame`, i.e. only on a non-quiescent bus.
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::CanId;

    fn frame() -> CanFrame {
        CanFrame::data_frame(CanId::from_raw(0x173), &[0xAA; 8]).unwrap()
    }

    #[test]
    fn silent_application_stays_silent() {
        let mut app = SilentApplication;
        for t in 0..100 {
            assert!(app.poll(BitInstant::from_bits(t)).is_none());
        }
    }

    #[test]
    fn periodic_sender_respects_offset_and_period() {
        let mut app = PeriodicSender::new(frame(), 100, 10);
        assert!(app.poll(BitInstant::from_bits(9)).is_none());
        assert!(app.poll(BitInstant::from_bits(10)).is_some());
        assert!(app.poll(BitInstant::from_bits(11)).is_none());
        assert!(app.poll(BitInstant::from_bits(109)).is_none());
        assert!(app.poll(BitInstant::from_bits(110)).is_some());
    }

    #[test]
    fn periodic_sender_catches_up_one_per_poll() {
        let mut app = PeriodicSender::new(frame(), 10, 0);
        // A large time jump releases backlogged frames one poll at a time.
        assert!(app.poll(BitInstant::from_bits(35)).is_some());
        assert!(app.poll(BitInstant::from_bits(35)).is_some());
        assert!(app.poll(BitInstant::from_bits(35)).is_some());
        assert!(app.poll(BitInstant::from_bits(35)).is_some());
        assert!(app.poll(BitInstant::from_bits(35)).is_none());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = PeriodicSender::new(frame(), 0, 0);
    }

    #[test]
    fn remote_responder_answers_requests() {
        use crate::id::CanId;
        let mut responder = RemoteResponder::new(CanId::from_raw(0x321), &[0xCA, 0xFE]);
        assert!(responder.poll(BitInstant::ZERO).is_none());
        let request = CanFrame::remote_frame(CanId::from_raw(0x321), 2).unwrap();
        responder.on_frame(&request, BitInstant::ZERO);
        let answer = responder.poll(BitInstant::from_bits(1)).unwrap();
        assert_eq!(answer.id().raw(), 0x321);
        assert_eq!(answer.data(), &[0xCA, 0xFE]);
        assert!(responder.poll(BitInstant::from_bits(2)).is_none());
    }

    #[test]
    fn remote_responder_ignores_other_ids_and_data_frames() {
        use crate::id::CanId;
        let mut responder = RemoteResponder::new(CanId::from_raw(0x321), &[1]);
        let other_rtr = CanFrame::remote_frame(CanId::from_raw(0x322), 1).unwrap();
        let own_data = CanFrame::data_frame(CanId::from_raw(0x321), &[9]).unwrap();
        responder.on_frame(&other_rtr, BitInstant::ZERO);
        responder.on_frame(&own_data, BitInstant::ZERO);
        assert!(responder.poll(BitInstant::from_bits(1)).is_none());
    }

    #[test]
    fn application_is_object_safe() {
        let mut apps: Vec<Box<dyn Application>> = vec![
            Box::new(SilentApplication),
            Box::new(PeriodicSender::new(frame(), 5, 0)),
        ];
        let mut polled = 0;
        for app in &mut apps {
            if app.poll(BitInstant::ZERO).is_some() {
                polled += 1;
            }
        }
        assert_eq!(polled, 1);
    }
}
