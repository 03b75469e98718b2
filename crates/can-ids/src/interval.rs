//! Inter-arrival anomaly detector.
//!
//! Learns each identifier's transmission period during a training phase,
//! then flags frames whose inter-arrival time deviates beyond a tolerance
//! band — the classic timing-based spoofing detector (a fabrication
//! attacker transmitting at a higher frequency than the victim compresses
//! the inter-arrival times).

use can_core::{BitInstant, CanFrame, CanId};

use crate::baseline::InterArrival;
use crate::detector::{Alert, AlertKind, Detector, IdsPhase};

/// An inter-arrival anomaly detector.
#[derive(Debug, Clone)]
pub struct IntervalIds {
    baseline: InterArrival<()>,
    tolerance_fraction: f64,
}

impl IntervalIds {
    /// Creates a detector that trains on `training_samples` intervals per
    /// identifier and alerts when an interval deviates more than
    /// `tolerance_fraction` (e.g. 0.5 = ±50 %) from the learned mean.
    ///
    /// # Panics
    ///
    /// Panics if `training_samples < 2` or the tolerance is not positive.
    pub fn new(training_samples: usize, tolerance_fraction: f64) -> Self {
        let baseline = InterArrival::new(training_samples);
        assert!(tolerance_fraction > 0.0, "tolerance must be positive");
        IntervalIds {
            baseline,
            tolerance_fraction,
        }
    }

    /// Records a frame; returns `true` for an anomalous inter-arrival
    /// time (armed phase only). An identifier armed early with only some
    /// training intervals is judged against their partial mean.
    pub fn observe(&mut self, id: CanId, now: BitInstant) -> bool {
        let Some(seen) = self.baseline.observe(id, now) else {
            return false;
        };
        match seen.interval {
            Some(interval) if seen.mean > 0.0 => {
                (interval as f64 - seen.mean).abs() > seen.mean * self.tolerance_fraction
            }
            // Unknown identifier appearing after training: anomalous.
            _ => !seen.trained,
        }
    }
}

impl Detector for IntervalIds {
    fn observe(&mut self, frame: &CanFrame, now: BitInstant) -> Option<Alert> {
        IntervalIds::observe(self, frame.id(), now).then_some(Alert {
            at: now,
            id: frame.id(),
            kind: AlertKind::Interval,
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

    fn trained(period: u64) -> IntervalIds {
        let mut ids = IntervalIds::new(4, 0.5);
        for k in 0..6u64 {
            ids.observe(id(0x100), BitInstant::from_bits(k * period));
        }
        ids.arm();
        ids
    }

    #[test]
    fn trains_then_arms() {
        let mut ids = IntervalIds::new(3, 0.5);
        assert_eq!(ids.phase(), IdsPhase::Training);
        for k in 0..5u64 {
            ids.observe(id(0x100), BitInstant::from_bits(k * 500));
        }
        assert_eq!(ids.phase(), IdsPhase::Armed, "auto-arms after training");
    }

    #[test]
    fn nominal_period_stays_quiet() {
        let mut ids = trained(500);
        for k in 6..20u64 {
            assert!(!ids.observe(id(0x100), BitInstant::from_bits(k * 500)));
        }
    }

    #[test]
    fn overdriven_spoofing_alerts() {
        let mut ids = trained(500);
        // Attacker injects at 4× the victim's rate: intervals of ~125.
        let mut t = 20 * 500;
        let mut alerts = 0;
        for _ in 0..8 {
            if ids.observe(id(0x100), BitInstant::from_bits(t)) {
                alerts += 1;
            }
            t += 125;
        }
        assert!(alerts >= 7, "compressed intervals must alert: {alerts}");
    }

    #[test]
    fn suspension_gap_alerts() {
        let mut ids = trained(500);
        // The victim falls silent (DoS'd) and reappears much later.
        assert!(ids.observe(id(0x100), BitInstant::from_bits(100_000)));
    }

    #[test]
    fn jitter_within_tolerance_is_accepted() {
        let mut ids = trained(500);
        // Continue from the last training observation (k = 5 ⇒ t = 2500).
        let mut t = 5 * 500;
        for jitter in [-100i64, 80, -60, 120, 0] {
            t += (500 + jitter) as u64;
            assert!(
                !ids.observe(id(0x100), BitInstant::from_bits(t)),
                "±{jitter} bits is within the ±50 % band"
            );
        }
    }
}
