//! The uniform detector interface every timing/frequency IDS implements.
//!
//! A [`Detector`] observes *completed frames only* — the interface a
//! classic CAN controller exposes to software (paper §II-C) — stamped
//! with their sim-time completion instant, and emits typed [`Alert`]s.
//! The trait is the common currency of the bake-off: the
//! [`registry`](crate::registry) enumerates named parameter grids over
//! it, and [`DetectorTap`](crate::tap::DetectorTap) attaches any number
//! of detectors to one simulated bus as passive taps, the one way a
//! detector joins a bus.
//!
//! Because detectors only ever see whole frames, their detection latency
//! is lower-bounded by one complete frame — the structural fact behind
//! the paper's Table I "not real-time" classification, which
//! `bench::idsbench` measures instead of asserting.

use can_core::{BitInstant, CanFrame, CanId};

/// Which detector family raised an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Sliding-window frequency threshold exceeded.
    Frequency,
    /// Inter-arrival time outside the learned tolerance band.
    Interval,
    /// CUSUM statistic over inter-arrival residuals crossed its decision
    /// threshold.
    Cusum,
    /// Shannon entropy of the identifier window left the learned band.
    Entropy,
    /// Inter-arrival z-score beyond the configured multiple of the
    /// learned standard deviation.
    ZScore,
}

impl AlertKind {
    /// Stable lowercase label (journal details, table cells).
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::Frequency => "frequency",
            AlertKind::Interval => "interval",
            AlertKind::Cusum => "cusum",
            AlertKind::Entropy => "entropy",
            AlertKind::ZScore => "zscore",
        }
    }
}

/// A timestamped IDS alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// When the alert fired (completion time of the triggering frame).
    pub at: BitInstant,
    /// The identifier concerned.
    pub id: CanId,
    /// Which detector family fired.
    pub kind: AlertKind,
}

/// Phase of a trainable detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdsPhase {
    /// Learning the clean-traffic baseline; no alerts are raised.
    Training,
    /// Baseline frozen; anomalies raise alerts.
    Armed,
}

/// A frame-level intrusion detector.
///
/// Implementations must be deterministic: the alert sequence is a pure
/// function of the observed `(frame, instant)` sequence, independent of
/// wall clock, iteration order of any internal map, or how the simulator
/// reached each instant (lockstep, fast-forward or packed).
pub trait Detector {
    /// Observes one completed frame; returns the alert it triggered, if
    /// any. Training-phase observations never alert.
    fn observe(&mut self, frame: &CanFrame, now: BitInstant) -> Option<Alert>;

    /// The detector's current phase. Detectors without a training phase
    /// report [`IdsPhase::Armed`] from construction.
    fn phase(&self) -> IdsPhase;

    /// Ends training and freezes the learned baseline. Idempotent; a
    /// no-op for detectors without a training phase.
    fn arm(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_kind_labels_are_stable_and_unique() {
        let kinds = [
            AlertKind::Frequency,
            AlertKind::Interval,
            AlertKind::Cusum,
            AlertKind::Entropy,
            AlertKind::ZScore,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }
}
