//! Mean/stddev z-score detector on inter-arrival times.
//!
//! The simplest member of the timing family: training learns each
//! identifier's inter-arrival mean and standard deviation; once armed, a
//! frame whose interval deviates more than `z · σ` from the mean alerts
//! immediately. Unlike [`CusumIds`](crate::cusum::CusumIds) there is no
//! accumulation — each frame is judged on its own — so the detector is
//! fast on gross anomalies and blind to slow drifts, the classic
//! trade-off the bake-off table makes visible.

use can_core::{BitInstant, CanFrame, CanId};

use crate::baseline::InterArrival;
use crate::detector::{Alert, AlertKind, Detector, IdsPhase};

/// A per-identifier inter-arrival z-score detector.
#[derive(Debug, Clone)]
pub struct ZScoreIds {
    baseline: InterArrival<()>,
    z_threshold: f64,
}

impl ZScoreIds {
    /// Creates a detector training on `training_samples` intervals per
    /// identifier and alerting when `|interval − µ| > z_threshold · σ`.
    ///
    /// # Panics
    ///
    /// Panics if `training_samples < 2` or the threshold is not positive.
    pub fn new(training_samples: usize, z_threshold: f64) -> Self {
        let baseline = InterArrival::new(training_samples);
        assert!(z_threshold > 0.0, "z threshold must be positive");
        ZScoreIds {
            baseline,
            z_threshold,
        }
    }

    /// Records a frame of `id` at `now`; returns `true` for an interval
    /// beyond the z-score band (armed phase only).
    pub fn observe(&mut self, id: CanId, now: BitInstant) -> bool {
        let Some(seen) = self.baseline.observe(id, now) else {
            return false;
        };
        // No full training baseline for this identifier: its appearance
        // after training is itself anomalous.
        if !seen.trained {
            return true;
        }
        seen.interval.is_some_and(|interval| {
            (interval as f64 - seen.mean).abs() > self.z_threshold * seen.sigma
        })
    }
}

impl Detector for ZScoreIds {
    fn observe(&mut self, frame: &CanFrame, now: BitInstant) -> Option<Alert> {
        ZScoreIds::observe(self, frame.id(), now).then_some(Alert {
            at: now,
            id: frame.id(),
            kind: AlertKind::ZScore,
        })
    }

    fn phase(&self) -> IdsPhase {
        self.baseline.phase()
    }

    fn arm(&mut self) {
        self.baseline.arm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u16) -> CanId {
        CanId::from_raw(raw)
    }

    fn trained(period: u64) -> ZScoreIds {
        let mut ids = ZScoreIds::new(4, 6.0);
        for k in 0..6u64 {
            ids.observe(id(0x100), BitInstant::from_bits(k * period));
        }
        ids.arm();
        ids
    }

    #[test]
    fn nominal_period_stays_quiet() {
        let mut ids = trained(600);
        for k in 6..30u64 {
            assert!(!ids.observe(id(0x100), BitInstant::from_bits(k * 600)));
        }
    }

    #[test]
    fn small_jitter_stays_quiet() {
        let mut ids = trained(600);
        let mut t = 5 * 600;
        for jitter in [-50i64, 40, -30, 60, 0] {
            t += (600 + jitter) as u64;
            assert!(!ids.observe(id(0x100), BitInstant::from_bits(t)));
        }
    }

    #[test]
    fn compressed_interval_alerts_on_first_frame() {
        let mut ids = trained(600);
        // σ floor = 30 bits; 6σ band = ±180; a 200-bit interval is 400
        // bits off the mean.
        assert!(ids.observe(id(0x100), BitInstant::from_bits(5 * 600 + 200)));
    }

    #[test]
    fn suspension_gap_alerts() {
        let mut ids = trained(600);
        assert!(ids.observe(id(0x100), BitInstant::from_bits(100_000)));
    }

    #[test]
    fn unknown_identifier_after_training_alerts() {
        let mut ids = trained(600);
        assert!(ids.observe(id(0x064), BitInstant::from_bits(10_000)));
    }
}
