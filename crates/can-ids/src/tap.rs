//! Detectors as passive bus taps.
//!
//! [`DetectorTap`] adapts any [`Detector`] to `can_sim`'s
//! [`FrameTap`](can_sim::FrameTap) attachment point, so N detectors can
//! observe one simulated bus in a single run without occupying nodes.
//! The tap is a cheap-clone shared handle (the `Recorder`/`Journal`
//! idiom): a bench keeps one clone for reading results while a second
//! clone is boxed into [`can_sim::SimBuilder::tap`], avoiding any
//! downcasting to get alerts back out of the simulator.
//!
//! The tap adds the run-level concerns the detector itself should not
//! carry:
//!
//! * **Scheduled arming** — [`DetectorTap::with_arm_at`] ends training at
//!   a fixed sim time: the first observed frame at or after the deadline
//!   arms the detector before being judged. Arming is frame-driven, so it
//!   is byte-identical across lockstep/fast-forward/packed.
//! * **can-obs metrics** — `ids_frames_observed_total` /
//!   `ids_alerts_total` counters labeled by detector variant.
//! * **Journal emission** — every alert lands in the causal
//!   [`Journal`](can_obs::Journal) as a [`can_obs::JournalKind::IdsAlert`] event at
//!   the triggering frame's completion bit, inheriting that frame's
//!   `frame_seq`/`chain_id` so alert chains reconstruct.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use can_core::{BitInstant, CanFrame};
use can_obs::{Journal, JournalKind, Recorder};
use can_sim::FrameTap;

use crate::detector::{Alert, Detector, IdsPhase};

struct TapState {
    label: String,
    detector: Box<dyn Detector>,
    /// Pending scheduled arming deadline, in bits.
    arm_at: Option<u64>,
    /// Completion times of every observed frame.
    observed: Vec<u64>,
    alerts: Vec<Alert>,
    recorder: Option<Recorder>,
    frames_key: String,
    alerts_key: String,
    journal: Option<(Journal, u32)>,
}

/// A [`Detector`] attached to the bus as a passive frame tap.
///
/// Cloning shares the underlying state: results read from any clone.
#[derive(Clone)]
pub struct DetectorTap {
    state: Rc<RefCell<TapState>>,
}

impl fmt::Debug for DetectorTap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.borrow();
        f.debug_struct("DetectorTap")
            .field("label", &state.label)
            .field("observed", &state.observed.len())
            .field("alerts", &state.alerts.len())
            .finish()
    }
}

impl DetectorTap {
    /// Wraps a detector under a stable variant label (used in metric
    /// series and journal details).
    pub fn new(label: impl Into<String>, detector: Box<dyn Detector>) -> Self {
        let label = label.into();
        let frames_key = format!("ids_frames_observed_total{{detector=\"{label}\"}}");
        let alerts_key = format!("ids_alerts_total{{detector=\"{label}\"}}");
        DetectorTap {
            state: Rc::new(RefCell::new(TapState {
                label,
                detector,
                arm_at: None,
                observed: Vec::new(),
                alerts: Vec::new(),
                recorder: None,
                frames_key,
                alerts_key,
                journal: None,
            })),
        }
    }

    /// Schedules training to end at `at_bits`: the first frame completing
    /// at or after the deadline arms the detector before being judged.
    pub fn with_arm_at(self, at_bits: u64) -> Self {
        self.state.borrow_mut().arm_at = Some(at_bits);
        self
    }

    /// Attaches a metrics recorder for the per-variant counters.
    pub fn with_recorder(self, recorder: Recorder) -> Self {
        self.state.borrow_mut().recorder = Some(recorder);
        self
    }

    /// Attaches a causal journal; alert events are stamped with `node`
    /// (a pseudo-node id for the observer, conventionally one past the
    /// bus's real nodes).
    pub fn with_journal(self, journal: Journal, node: u32) -> Self {
        self.state.borrow_mut().journal = Some((journal, node));
        self
    }

    /// A second handle boxed for [`can_sim::SimBuilder::tap`].
    pub fn as_frame_tap(&self) -> Box<dyn FrameTap> {
        Box::new(self.clone())
    }

    /// The variant label.
    pub fn label(&self) -> String {
        self.state.borrow().label.clone()
    }

    /// The detector's current phase.
    pub fn phase(&self) -> IdsPhase {
        self.state.borrow().detector.phase()
    }

    /// All alerts so far.
    pub fn alerts(&self) -> Vec<Alert> {
        self.state.borrow().alerts.clone()
    }

    /// Frames observed so far.
    pub fn frames_observed(&self) -> u64 {
        self.state.borrow().observed.len() as u64
    }

    /// Frames observed with completion time in `[from_bits, to_bits)`.
    pub fn frames_observed_in(&self, from_bits: u64, to_bits: u64) -> u64 {
        self.state
            .borrow()
            .observed
            .iter()
            .filter(|&&t| t >= from_bits && t < to_bits)
            .count() as u64
    }

    /// Alerts raised with completion time in `[from_bits, to_bits)`.
    pub fn alerts_in(&self, from_bits: u64, to_bits: u64) -> u64 {
        self.state
            .borrow()
            .alerts
            .iter()
            .filter(|a| a.at.bits() >= from_bits && a.at.bits() < to_bits)
            .count() as u64
    }

    /// Completion time of the first alert at or after `from_bits`.
    pub fn first_alert_at_or_after(&self, from_bits: u64) -> Option<u64> {
        self.state
            .borrow()
            .alerts
            .iter()
            .map(|a| a.at.bits())
            .find(|&t| t >= from_bits)
    }
}

impl FrameTap for DetectorTap {
    fn on_frame(&mut self, frame: &CanFrame, now: BitInstant) {
        let state = &mut *self.state.borrow_mut();
        if let Some(deadline) = state.arm_at {
            if now.bits() >= deadline {
                state.arm_at = None;
                if state.detector.phase() == IdsPhase::Training {
                    state.detector.arm();
                    if let Some((journal, node)) = &state.journal {
                        journal.event(now.bits(), *node, JournalKind::IdsArmed, &state.label);
                    }
                }
            }
        }
        state.observed.push(now.bits());
        if let Some(recorder) = &state.recorder {
            recorder.inc(&state.frames_key);
        }
        if let Some(alert) = state.detector.observe(frame, now) {
            if let Some(recorder) = &state.recorder {
                recorder.inc(&state.alerts_key);
            }
            if let Some((journal, node)) = &state.journal {
                let detail = format!(
                    "{} {} id=0x{:03X}",
                    state.label,
                    alert.kind.label(),
                    alert.id.raw()
                );
                journal.event(now.bits(), *node, JournalKind::IdsAlert, &detail);
            }
            state.alerts.push(alert);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zscore::ZScoreIds;
    use can_core::CanId;

    fn frame(id: u16) -> CanFrame {
        CanFrame::data_frame(CanId::from_raw(id), &[0]).unwrap()
    }

    #[test]
    fn shared_handle_reads_what_the_boxed_clone_observed() {
        let tap = DetectorTap::new("zscore[test]", Box::new(ZScoreIds::new(2, 6.0)));
        let mut boxed = tap.as_frame_tap();
        for k in 0..4u64 {
            boxed.on_frame(&frame(0x100), BitInstant::from_bits(k * 600));
        }
        assert_eq!(tap.frames_observed(), 4);
        assert_eq!(tap.phase(), IdsPhase::Armed, "auto-armed after training");
        // 100-bit interval against a learned 600-bit period: far outside
        // the 6σ band (σ floor = 30 bits).
        boxed.on_frame(&frame(0x100), BitInstant::from_bits(3 * 600 + 100));
        assert_eq!(tap.alerts().len(), 1, "compressed interval alerts");
        assert_eq!(tap.first_alert_at_or_after(0), Some(3 * 600 + 100));
    }

    #[test]
    fn scheduled_arming_fires_on_the_first_frame_past_the_deadline() {
        let journal = Journal::enabled();
        let tap = DetectorTap::new("zscore[test]", Box::new(ZScoreIds::new(50, 6.0)))
            .with_arm_at(2_000)
            .with_journal(journal.clone(), 9);
        let mut boxed = tap.as_frame_tap();
        for k in 0..3u64 {
            boxed.on_frame(&frame(0x100), BitInstant::from_bits(k * 600));
        }
        assert_eq!(tap.phase(), IdsPhase::Training, "deadline not reached");
        boxed.on_frame(&frame(0x100), BitInstant::from_bits(2_300));
        assert_eq!(tap.phase(), IdsPhase::Armed, "armed at the deadline");
        let export = journal.export_jsonl();
        assert!(
            export.contains(JournalKind::IdsArmed.name()),
            "arming journaled: {export}"
        );
    }

    #[test]
    fn metrics_and_journal_wiring_emit_per_variant_series() {
        let recorder = Recorder::enabled();
        let journal = Journal::enabled();
        let tap = DetectorTap::new("zscore[train=2,z=6]", Box::new(ZScoreIds::new(2, 6.0)))
            .with_recorder(recorder.clone())
            .with_journal(journal.clone(), 9);
        let mut boxed = tap.as_frame_tap();
        for k in 0..4u64 {
            boxed.on_frame(&frame(0x100), BitInstant::from_bits(k * 600));
        }
        boxed.on_frame(&frame(0x100), BitInstant::from_bits(3 * 600 + 50));
        recorder
            .with_registry(|registry| {
                assert_eq!(
                    registry.counter("ids_frames_observed_total{detector=\"zscore[train=2,z=6]\"}"),
                    5
                );
                assert_eq!(
                    registry.counter("ids_alerts_total{detector=\"zscore[train=2,z=6]\"}"),
                    1
                );
            })
            .unwrap();
        let export = journal.export_jsonl();
        assert!(
            export.contains(JournalKind::IdsAlert.name()),
            "alert journaled: {export}"
        );
        assert!(export.contains("zscore"), "label in detail: {export}");
    }
}
