//! Sliding-window frequency detector (in the spirit of Ohira et al.,
//! the paper's reference \[15\]).
//!
//! Keeps a per-identifier count of frames within a sliding window; a
//! count above the threshold raises an alert. Flooding DoS attacks — the
//! paper's suspension attacks — inject far above any legitimate period
//! and trip this reliably, but only after `threshold` complete frames
//! have already traversed the bus.

use std::collections::{HashMap, VecDeque};

use can_core::{BitInstant, CanFrame, CanId};

use crate::detector::{Alert, AlertKind, Detector, IdsPhase};

/// A sliding-window per-identifier frequency detector.
#[derive(Debug, Clone)]
pub struct FrequencyIds {
    window_bits: u64,
    threshold: usize,
    history: HashMap<CanId, VecDeque<u64>>,
}

impl FrequencyIds {
    /// Creates a detector alerting when more than `threshold` frames of
    /// one identifier arrive within `window_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` or `threshold` is zero.
    pub fn new(window_bits: u64, threshold: usize) -> Self {
        assert!(window_bits > 0, "window must be positive");
        assert!(threshold > 0, "threshold must be positive");
        FrequencyIds {
            window_bits,
            threshold,
            history: HashMap::new(),
        }
    }

    /// Records a received frame; returns `true` if the identifier's rate
    /// is now anomalous.
    pub fn observe(&mut self, id: CanId, now: BitInstant) -> bool {
        let entry = self.history.entry(id).or_default();
        let horizon = now.bits().saturating_sub(self.window_bits);
        while entry.front().is_some_and(|&t| t < horizon) {
            entry.pop_front();
        }
        entry.push_back(now.bits());
        entry.len() > self.threshold
    }
}

impl Detector for FrequencyIds {
    fn observe(&mut self, frame: &CanFrame, now: BitInstant) -> Option<Alert> {
        FrequencyIds::observe(self, frame.id(), now).then_some(Alert {
            at: now,
            id: frame.id(),
            kind: AlertKind::Frequency,
        })
    }

    /// A frequency detector has no training phase: armed from birth.
    fn phase(&self) -> IdsPhase {
        IdsPhase::Armed
    }

    fn arm(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u16) -> CanId {
        CanId::from_raw(raw)
    }

    #[test]
    fn periodic_traffic_stays_quiet() {
        // 1 frame per 500 bits, window 5000 → 10-11 frames per window.
        let mut ids = FrequencyIds::new(5_000, 15);
        for k in 0..100 {
            assert!(
                !ids.observe(id(0x100), BitInstant::from_bits(k * 500)),
                "period traffic below threshold must not alert"
            );
        }
    }

    #[test]
    fn flooding_alerts_after_threshold_frames() {
        let mut ids = FrequencyIds::new(5_000, 10);
        let mut first_alert = None;
        for k in 0..40u64 {
            // Back-to-back ~130-bit frames.
            if ids.observe(id(0x000), BitInstant::from_bits(k * 130)) && first_alert.is_none() {
                first_alert = Some(k);
            }
        }
        assert_eq!(
            first_alert,
            Some(10),
            "alert fires on the frame exceeding the threshold"
        );
    }

    #[test]
    fn window_expiry_clears_old_frames() {
        let mut ids = FrequencyIds::new(1_000, 3);
        for k in 0..3u64 {
            ids.observe(id(0x50), BitInstant::from_bits(k * 100));
        }
        assert_eq!(ids.history[&id(0x50)].len(), 3);
        // Far in the future: the old burst has left the window.
        assert!(!ids.observe(id(0x50), BitInstant::from_bits(10_000)));
        assert_eq!(ids.history[&id(0x50)].len(), 1);
    }

    #[test]
    fn identifiers_are_tracked_independently() {
        let mut ids = FrequencyIds::new(1_000, 2);
        assert!(!ids.observe(id(1), BitInstant::from_bits(0)));
        assert!(!ids.observe(id(2), BitInstant::from_bits(1)));
        assert!(!ids.observe(id(1), BitInstant::from_bits(2)));
        assert!(!ids.observe(id(2), BitInstant::from_bits(3)));
        assert!(ids.observe(id(1), BitInstant::from_bits(4)));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = FrequencyIds::new(0, 1);
    }
}
