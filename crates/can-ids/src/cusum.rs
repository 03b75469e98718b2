//! Two-sided CUSUM detector over inter-arrival residuals.
//!
//! The classic sequential change-point detector of the timing-IDS
//! literature (Pollicino/Stabili/Marchetti's comparison): per identifier,
//! training learns the inter-arrival mean and standard deviation; once
//! armed, every interval's standardized residual `z = (x − µ)/σ` feeds
//! two one-sided cumulative sums
//!
//! ```text
//! S⁺ ← max(0, S⁺ + z − k)      (intervals stretching: suspension)
//! S⁻ ← max(0, S⁻ − z − k)      (intervals compressing: fabrication)
//! ```
//!
//! with slack `k = 0.5σ`. Crossing the decision threshold `h` (in σ
//! units) raises an alert and resets both sums, so a sustained attack
//! re-alerts after re-accumulating rather than latching forever.
//!
//! A small deviation accumulates over several frames before crossing;
//! a gross one (flooding at a fraction of the learned period) crosses on
//! the first or second anomalous frame. Either way the decision waits
//! for *complete frames* — the Table I latency floor.

use can_core::{BitInstant, CanFrame, CanId};

use crate::baseline::InterArrival;
use crate::detector::{Alert, AlertKind, Detector, IdsPhase};

/// CUSUM slack per sample, in σ units.
const SLACK_SIGMA: f64 = 0.5;

/// A per-identifier two-sided CUSUM detector on inter-arrival times.
#[derive(Debug, Clone)]
pub struct CusumIds {
    /// Each identifier's `(S⁺, S⁻)`.
    baseline: InterArrival<(f64, f64)>,
    threshold_sigma: f64,
}

impl CusumIds {
    /// Creates a detector training on `training_samples` intervals per
    /// identifier, alerting when either cumulative sum exceeds
    /// `threshold_sigma` (the decision threshold `h`, in σ units).
    ///
    /// # Panics
    ///
    /// Panics if `training_samples < 2` or the threshold is not positive.
    pub fn new(training_samples: usize, threshold_sigma: f64) -> Self {
        let baseline = InterArrival::new(training_samples);
        assert!(threshold_sigma > 0.0, "threshold must be positive");
        CusumIds {
            baseline,
            threshold_sigma,
        }
    }

    /// Records a frame of `id` at `now`; returns `true` when either
    /// cumulative sum crossed the decision threshold.
    pub fn observe(&mut self, id: CanId, now: BitInstant) -> bool {
        let Some(seen) = self.baseline.observe(id, now) else {
            return false;
        };
        // An identifier without a full training baseline: its very
        // appearance is the anomaly.
        if !seen.trained {
            return true;
        }
        let Some(interval) = seen.interval else {
            return false;
        };
        let (s_pos, s_neg) = seen.state;
        let z = (interval as f64 - seen.mean) / seen.sigma;
        *s_pos = (*s_pos + z - SLACK_SIGMA).max(0.0);
        *s_neg = (*s_neg - z - SLACK_SIGMA).max(0.0);
        if *s_pos > self.threshold_sigma || *s_neg > self.threshold_sigma {
            *s_pos = 0.0;
            *s_neg = 0.0;
            true
        } else {
            false
        }
    }
}

impl Detector for CusumIds {
    fn observe(&mut self, frame: &CanFrame, now: BitInstant) -> Option<Alert> {
        CusumIds::observe(self, frame.id(), now).then_some(Alert {
            at: now,
            id: frame.id(),
            kind: AlertKind::Cusum,
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

    fn trained(period: u64) -> CusumIds {
        let mut ids = CusumIds::new(4, 4.0);
        for k in 0..6u64 {
            ids.observe(id(0x100), BitInstant::from_bits(k * period));
        }
        ids.arm();
        ids
    }

    #[test]
    fn trains_then_auto_arms() {
        let mut ids = CusumIds::new(3, 4.0);
        assert_eq!(ids.phase(), IdsPhase::Training);
        for k in 0..5u64 {
            ids.observe(id(0x100), BitInstant::from_bits(k * 500));
        }
        assert_eq!(ids.phase(), IdsPhase::Armed);
    }

    #[test]
    fn nominal_period_never_accumulates() {
        let mut ids = trained(600);
        for k in 6..60u64 {
            assert!(!ids.observe(id(0x100), BitInstant::from_bits(k * 600)));
        }
    }

    #[test]
    fn small_jitter_stays_quiet() {
        let mut ids = trained(600);
        let mut t = 5 * 600;
        for jitter in [-20i64, 15, -10, 25, 0, -15, 20, 10] {
            t += (600 + jitter) as u64;
            assert!(
                !ids.observe(id(0x100), BitInstant::from_bits(t)),
                "jitter {jitter} must not alert"
            );
        }
    }

    #[test]
    fn compressed_intervals_alert_within_a_few_frames() {
        let mut ids = trained(600);
        // 3× overdrive: intervals of 200 bits, z ≈ −13 per frame.
        let mut t = 5 * 600;
        let mut first_alert = None;
        for k in 0..10u64 {
            t += 200;
            if ids.observe(id(0x100), BitInstant::from_bits(t)) && first_alert.is_none() {
                first_alert = Some(k);
            }
        }
        let first = first_alert.expect("flood must alert");
        assert!(first <= 2, "alert within 3 flood frames, got {first}");
    }

    #[test]
    fn unknown_identifier_after_training_alerts_immediately() {
        let mut ids = trained(600);
        assert!(ids.observe(id(0x064), BitInstant::from_bits(10_000)));
    }

    #[test]
    fn alert_resets_the_statistic() {
        let mut ids = trained(600);
        // A mild drift (intervals of 520 bits, z ≈ −2.7) accumulates
        // ~2.2σ per frame: the sum crosses h = 4 every second frame and
        // resets in between, so a 20-frame drift alerts repeatedly but
        // not on every frame.
        let mut t = 5 * 600;
        let mut alerts = 0;
        for _ in 0..20 {
            t += 520;
            if ids.observe(id(0x100), BitInstant::from_bits(t)) {
                alerts += 1;
            }
        }
        assert!(
            alerts >= 2,
            "sustained drift must re-alert after reset, got {alerts}"
        );
        assert!(alerts < 20, "reset must debounce per-frame alerts");
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        let _ = CusumIds::new(4, 0.0);
    }
}
