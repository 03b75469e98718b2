//! # parrot — the Parrot baseline defense (Dagan & Wool, ESCAR 2016)
//!
//! Parrot is the closest prior work MichiCAN compares against (§I, §V):
//! a *software-only* anti-spoofing defense in which each ECU monitors the
//! bus for frames carrying its own identifier. Lacking bit-level access,
//! Parrot:
//!
//! 1. can only detect a spoof after the **first complete instance** of the
//!    spoofed frame has been received (the attacker's first message goes
//!    through unopposed), and
//! 2. counterattacks by **flooding**: it transmits back-to-back frames
//!    with the same identifier and an all-dominant payload, hoping to
//!    collide with the attacker's next instances. During the flood the bus
//!    load approaches 100 % (the paper computes 125/128 ≈ 97.7 %).
//!
//! Both deficiencies are exactly what MichiCAN's arbitration-phase
//! detection and synchronized single-frame injection remove. The
//! implementation here is protocol-compliant: the flood raises the
//! attacker's TEC through data-field bit errors, but — unlike MichiCAN —
//! the collisions also destroy Parrot's own frames, so Parrot's TEC climbs
//! in lock-step (quantified by the comparison benches).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use can_core::app::Application;
use can_core::{BitInstant, CanFrame, CanId};
use can_obs::{Journal, JournalKind, Recorder};

/// Running counters of a [`ParrotDefender`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParrotStats {
    /// Complete spoofed instances observed (each one reached every ECU —
    /// the detection cost Parrot pays and MichiCAN does not).
    pub spoofs_observed: u64,
    /// Counterattack frames handed to the controller.
    pub flood_frames: u64,
    /// Floods started.
    pub floods: u64,
}

/// Pre-interned metric keys (built once in [`ParrotDefender::set_recorder`]
/// so the flood's per-bit poll never formats).
#[derive(Debug, Clone)]
struct ParrotKeys {
    recorder: Recorder,
    flood_frames: String,
    reaction_latency: String,
    spoofs_observed: String,
    floods: String,
}

/// The Parrot defense as an ECU application.
///
/// `own_id` is the identifier this ECU legitimately transmits; any
/// complete received frame with that identifier must have been spoofed
/// (identifiers are unique per ECU).
#[derive(Debug, Clone)]
pub struct ParrotDefender {
    own_id: CanId,
    /// The flood's counterattack frame, built once.
    counter_frame: CanFrame,
    /// This ECU's legitimate frame, built once.
    own_frame: CanFrame,
    /// Legitimate periodic transmission of this ECU, if any.
    own_period_bits: Option<u64>,
    next_own_due: u64,
    /// Remaining flood window in bit times (refreshed per detection).
    flood_until: Option<u64>,
    flood_window_bits: u64,
    /// The current flood has handed its frame to the controller, so its
    /// further polls only re-post it.
    flood_posted: bool,
    stats: ParrotStats,
    /// Metrics sink and its keys; `None` (no-op) by default.
    keys: Option<ParrotKeys>,
    /// Causal event journal; disabled (no-op) by default.
    journal: Journal,
    /// Node index used in metric labels.
    node_label: u32,
    /// Bit time of the spoof detection that opened the current flood, for
    /// the detection→first-counter-frame reaction-latency histogram.
    detected_at: Option<u64>,
}

impl ParrotDefender {
    /// Creates a Parrot defender for `own_id`, flooding for
    /// `flood_window_bits` after each detected spoof instance.
    pub fn new(own_id: CanId, flood_window_bits: u64) -> Self {
        ParrotDefender {
            own_id,
            // All-dominant payload: maximally aggressive in the data field.
            counter_frame: CanFrame::data_frame(own_id, &[0u8; 8])
                .expect("valid counterattack frame"),
            // Legitimate payload distinct from the counterattack.
            own_frame: CanFrame::data_frame(own_id, &[0xA5; 8]).expect("valid frame"),
            own_period_bits: None,
            next_own_due: 0,
            flood_until: None,
            flood_window_bits,
            flood_posted: false,
            stats: ParrotStats::default(),
            keys: None,
            journal: Journal::disabled(),
            node_label: 0,
            detected_at: None,
        }
    }

    /// Attaches a metrics recorder; `node` is the index used in metric
    /// labels (`parrot_*{node="<node>"}`).
    pub fn set_recorder(&mut self, recorder: Recorder, node: u32) {
        self.keys = recorder.is_enabled().then(|| {
            let reaction_latency = format!("parrot_reaction_latency_bits{{node=\"{node}\"}}");
            recorder.declare_histogram(&reaction_latency, can_obs::DEFAULT_BUCKETS);
            ParrotKeys {
                flood_frames: format!("parrot_flood_frames_total{{node=\"{node}\"}}"),
                reaction_latency,
                spoofs_observed: format!("parrot_spoofs_observed_total{{node=\"{node}\"}}"),
                floods: format!("parrot_floods_total{{node=\"{node}\"}}"),
                recorder,
            }
        });
        self.node_label = node;
    }

    /// Attaches a causal event journal; `node` is the index stamped on
    /// journal events. Spoof detections and the flood window (Parrot's
    /// "injection") join the causal chain of the frame that provoked them.
    pub fn set_journal(&mut self, journal: Journal, node: u32) {
        self.journal = journal;
        self.node_label = node;
    }

    /// Adds this ECU's legitimate periodic transmission of `own_id`.
    ///
    /// # Panics
    ///
    /// Panics if `period_bits` is zero.
    pub fn with_own_traffic(mut self, period_bits: u64) -> Self {
        assert!(period_bits > 0, "period must be positive");
        self.own_period_bits = Some(period_bits);
        self
    }

    /// The defender's counters.
    pub fn stats(&self) -> ParrotStats {
        self.stats
    }

    /// Whether a flood is currently active.
    fn is_flooding(&self, now: BitInstant) -> bool {
        self.flood_until.is_some_and(|until| now.bits() < until)
    }
}

impl Application for ParrotDefender {
    fn poll(&mut self, now: BitInstant) -> Option<CanFrame> {
        if self.is_flooding(now) {
            // Keep the mailbox saturated: the controller transmits
            // back-to-back, colliding with every attacker retransmission.
            self.stats.flood_frames += 1;
            if let Some(keys) = &self.keys {
                keys.recorder.inc(&keys.flood_frames);
                if let Some(detected) = self.detected_at.take() {
                    keys.recorder
                        .observe(&keys.reaction_latency, now.bits().saturating_sub(detected));
                }
            }
            self.flood_posted = true;
            return Some(self.counter_frame);
        }
        if self.flood_until.take().is_some() && self.journal.is_enabled() {
            self.journal.event(
                now.bits(),
                self.node_label,
                JournalKind::InjectionEnd,
                "flood",
            );
        }
        if let Some(period) = self.own_period_bits {
            if now.bits() >= self.next_own_due {
                self.next_own_due = now.bits() + period;
                return Some(self.own_frame);
            }
        }
        None
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        // Any pending flood window — even one that has already expired but
        // not yet been lazily cleared by `poll` — means the next poll can
        // mutate state, so it must not be skipped.
        if self.flood_until.is_some() {
            return Some(now);
        }
        self.own_period_bits
            .map(|_| BitInstant::from_bits(self.next_own_due.max(now.bits())))
    }

    fn repost_until(&self, now: BitInstant) -> BitInstant {
        // Once the flood's frame is in the controller, every poll before
        // the window closes re-posts it and counts one flood frame. The
        // first poll of a flood (which posts the frame and may observe the
        // reaction latency) and the poll that closes the window (journal
        // event) stay per-bit.
        match self.flood_until {
            Some(until) if self.flood_posted => BitInstant::from_bits(until.max(now.bits())),
            _ => now,
        }
    }

    fn settle_reposts(&mut self, polls: u64) {
        self.stats.flood_frames += polls;
        if let Some(keys) = &self.keys {
            keys.recorder.add(&keys.flood_frames, polls);
        }
    }

    fn on_frame(&mut self, frame: &CanFrame, now: BitInstant) {
        if frame.id() == self.own_id {
            // A complete foreign frame with our identifier: spoofing.
            self.stats.spoofs_observed += 1;
            if let Some(keys) = &self.keys {
                keys.recorder.inc(&keys.spoofs_observed);
                if self.flood_until.is_none() {
                    keys.recorder.inc(&keys.floods);
                    self.detected_at = Some(now.bits());
                }
            }
            if self.journal.is_enabled() {
                self.journal
                    .event(now.bits(), self.node_label, JournalKind::Detection, "spoof");
                if self.flood_until.is_none() {
                    self.journal.event(
                        now.bits(),
                        self.node_label,
                        JournalKind::InjectionStart,
                        "flood",
                    );
                }
            }
            if self.flood_until.is_none() {
                self.stats.floods += 1;
                self.flood_posted = false;
            }
            self.flood_until = Some(now.bits() + self.flood_window_bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spoof() -> CanFrame {
        CanFrame::data_frame(CanId::from_raw(0x173), &[0xFF; 8]).unwrap()
    }

    #[test]
    fn quiet_until_first_spoof_instance() {
        let mut parrot = ParrotDefender::new(CanId::from_raw(0x173), 5_000);
        for t in 0..1_000 {
            assert!(parrot.poll(BitInstant::from_bits(t)).is_none());
        }
        assert_eq!(parrot.stats().floods, 0);
    }

    #[test]
    fn first_complete_spoof_starts_the_flood() {
        let mut parrot = ParrotDefender::new(CanId::from_raw(0x173), 5_000);
        parrot.on_frame(&spoof(), BitInstant::from_bits(500));
        assert!(parrot.is_flooding(BitInstant::from_bits(501)));
        let frame = parrot.poll(BitInstant::from_bits(501)).unwrap();
        assert_eq!(frame.id().raw(), 0x173);
        assert_eq!(frame.data(), &[0u8; 8], "all-dominant payload");
        assert_eq!(parrot.stats().floods, 1);
        assert_eq!(parrot.stats().spoofs_observed, 1);
    }

    #[test]
    fn flood_expires_after_the_window() {
        let mut parrot = ParrotDefender::new(CanId::from_raw(0x173), 1_000);
        parrot.on_frame(&spoof(), BitInstant::from_bits(0));
        assert!(parrot.poll(BitInstant::from_bits(999)).is_some());
        assert!(parrot.poll(BitInstant::from_bits(1_000)).is_none());
        assert!(!parrot.is_flooding(BitInstant::from_bits(1_000)));
    }

    #[test]
    fn repeated_spoofs_extend_the_window_without_new_flood_count() {
        let mut parrot = ParrotDefender::new(CanId::from_raw(0x173), 1_000);
        parrot.on_frame(&spoof(), BitInstant::from_bits(0));
        parrot.on_frame(&spoof(), BitInstant::from_bits(800));
        assert!(parrot.is_flooding(BitInstant::from_bits(1_500)));
        assert_eq!(parrot.stats().floods, 1, "one logical flood");
        assert_eq!(parrot.stats().spoofs_observed, 2);
    }

    #[test]
    fn own_traffic_flows_outside_floods() {
        let mut parrot = ParrotDefender::new(CanId::from_raw(0x173), 1_000).with_own_traffic(500);
        let f = parrot.poll(BitInstant::from_bits(0)).unwrap();
        assert_eq!(f.data(), &[0xA5; 8]);
        assert!(parrot.poll(BitInstant::from_bits(1)).is_none());
        assert!(parrot.poll(BitInstant::from_bits(500)).is_some());
    }

    #[test]
    fn recorder_captures_spoofs_and_reaction_latency() {
        let mut parrot = ParrotDefender::new(CanId::from_raw(0x173), 1_000);
        let recorder = Recorder::enabled();
        parrot.set_recorder(recorder.clone(), 2);
        parrot.on_frame(&spoof(), BitInstant::from_bits(100));
        assert!(parrot.poll(BitInstant::from_bits(140)).is_some());
        assert!(parrot.poll(BitInstant::from_bits(141)).is_some());
        let reg = recorder.into_registry();
        assert_eq!(reg.counter("parrot_spoofs_observed_total{node=\"2\"}"), 1);
        assert_eq!(reg.counter("parrot_floods_total{node=\"2\"}"), 1);
        assert_eq!(reg.counter("parrot_flood_frames_total{node=\"2\"}"), 2);
        let latency = reg
            .histogram("parrot_reaction_latency_bits{node=\"2\"}")
            .unwrap();
        assert_eq!(latency.count(), 1, "latency measured once per flood");
        assert_eq!(latency.max(), Some(40));
    }

    #[test]
    fn journal_captures_flood_lifecycle() {
        let mut parrot = ParrotDefender::new(CanId::from_raw(0x173), 100);
        let journal = Journal::enabled();
        parrot.set_journal(journal.clone(), 2);
        parrot.on_frame(&spoof(), BitInstant::from_bits(50));
        assert!(parrot.poll(BitInstant::from_bits(60)).is_some());
        assert!(parrot.poll(BitInstant::from_bits(200)).is_none());
        let export = journal.export_jsonl();
        for kind in [
            JournalKind::Detection,
            JournalKind::InjectionStart,
            JournalKind::InjectionEnd,
        ] {
            assert!(
                export.contains(&format!("\"kind\":\"{kind}\"")),
                "missing {kind} in:\n{export}"
            );
        }
    }

    #[test]
    fn flood_reposts_settle_exactly_like_the_polls_they_skip() {
        use can_core::app::MAX_ENQUEUE_PER_BIT;
        let at = BitInstant::from_bits;
        let build = || {
            let mut parrot = ParrotDefender::new(CanId::from_raw(0x173), 1_000);
            let recorder = Recorder::enabled();
            parrot.set_recorder(recorder.clone(), 2);
            parrot.on_frame(&spoof(), at(100));
            (parrot, recorder)
        };
        let (mut polled, polled_metrics) = build();
        let (mut settled, settled_metrics) = build();
        let poll_bit = |parrot: &mut ParrotDefender, bit: u64| {
            for _ in 0..MAX_ENQUEUE_PER_BIT {
                assert!(parrot.poll(at(bit)).is_some());
            }
        };
        // The flood's first poll posts the frame and observes the
        // reaction latency: no re-post run yet.
        assert_eq!(settled.repost_until(at(101)), at(101));
        poll_bit(&mut polled, 101);
        poll_bit(&mut settled, 101);
        // From then on every poll before the window closes is a re-post.
        assert_eq!(settled.repost_until(at(102)), at(1_100));
        for bit in 102..1_100 {
            poll_bit(&mut polled, bit);
        }
        settled.settle_reposts(998 * MAX_ENQUEUE_PER_BIT as u64);
        assert_eq!(polled.stats(), settled.stats());
        assert_eq!(
            polled_metrics.snapshot_json(),
            settled_metrics.snapshot_json()
        );
        // The poll that closes the window stays per-bit, and the next
        // flood starts without a re-post run.
        assert_eq!(settled.repost_until(at(1_100)), at(1_100));
        assert!(settled.poll(at(1_100)).is_none());
        settled.on_frame(&spoof(), at(2_000));
        assert_eq!(settled.repost_until(at(2_001)), at(2_001));
    }

    #[test]
    fn foreign_ids_do_not_trigger() {
        let mut parrot = ParrotDefender::new(CanId::from_raw(0x173), 1_000);
        let other = CanFrame::data_frame(CanId::from_raw(0x064), &[0; 8]).unwrap();
        parrot.on_frame(&other, BitInstant::from_bits(0));
        assert_eq!(parrot.stats().spoofs_observed, 0);
        assert!(!parrot.is_flooding(BitInstant::from_bits(1)));
    }
}
