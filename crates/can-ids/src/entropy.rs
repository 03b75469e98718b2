//! Entropy-window detector over the bus identifier distribution.
//!
//! Maintains a sliding window of the last `window` frame identifiers and
//! computes its Shannon entropy `H = −Σ p·log₂p` (in bits). Training
//! learns the clean-traffic baseline entropy; once armed, a window whose
//! entropy deviates from the baseline by more than the configured band
//! alerts. Flooding collapses the distribution onto the attacker's
//! identifier (entropy drops); toggling and random-identifier injection
//! widen it (entropy rises) — both directions trip the band.
//!
//! Unlike the per-identifier timing detectors, entropy is a *bus-level*
//! statistic: it needs no per-identifier baseline, so it also catches
//! attacks on identifiers never seen in training — at the cost of the
//! slowest latency in the family (a whole window must turn over before
//! the statistic moves far).
//!
//! Identifier counts live in a `BTreeMap` so the floating-point summation
//! order — and therefore the emitted alert sequence — is identical across
//! processes, shard counts and sim modes.

use std::collections::{BTreeMap, VecDeque};

use can_core::{BitInstant, CanFrame};

use crate::detector::{Alert, AlertKind, Detector, IdsPhase};

/// A sliding-window Shannon-entropy detector on identifiers.
#[derive(Debug, Clone)]
pub struct EntropyIds {
    phase: IdsPhase,
    window: usize,
    band_millibits: u32,
    recent: VecDeque<u16>,
    counts: BTreeMap<u16, u32>,
    /// Entropy observations collected while training.
    training_entropy: Vec<f64>,
    /// Baseline entropy, frozen at arm time (`None` until the first
    /// armed window when training saw no full window).
    baseline: Option<f64>,
}

impl EntropyIds {
    /// Creates a detector over a `window`-frame identifier window,
    /// alerting when the entropy deviates from the learned baseline by
    /// more than `band_millibits` thousandths of a bit.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` or the band is zero.
    pub fn new(window: usize, band_millibits: u32) -> Self {
        assert!(window >= 2, "window must cover at least two frames");
        assert!(band_millibits > 0, "band must be positive");
        EntropyIds {
            phase: IdsPhase::Training,
            window,
            band_millibits,
            recent: VecDeque::with_capacity(window),
            counts: BTreeMap::new(),
            training_entropy: Vec::new(),
            baseline: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> IdsPhase {
        self.phase
    }

    /// Ends training: freezes the baseline at the mean training entropy.
    pub fn arm(&mut self) {
        if self.phase == IdsPhase::Armed {
            return;
        }
        if !self.training_entropy.is_empty() {
            self.baseline = Some(
                self.training_entropy.iter().sum::<f64>() / self.training_entropy.len() as f64,
            );
        }
        self.phase = IdsPhase::Armed;
    }

    /// Entropy of the current window, once it is full.
    fn window_entropy(&self) -> Option<f64> {
        (self.recent.len() == self.window).then(|| {
            let n = self.recent.len() as f64;
            -self
                .counts
                .values()
                .map(|&c| {
                    let p = f64::from(c) / n;
                    p * p.log2()
                })
                .sum::<f64>()
        })
    }

    fn push(&mut self, raw_id: u16) {
        if self.recent.len() == self.window {
            if let Some(old) = self.recent.pop_front() {
                if let Some(count) = self.counts.get_mut(&old) {
                    *count -= 1;
                    if *count == 0 {
                        self.counts.remove(&old);
                    }
                }
            }
        }
        self.recent.push_back(raw_id);
        *self.counts.entry(raw_id).or_insert(0) += 1;
    }

    /// Records a frame; returns `true` when the armed window entropy
    /// left the learned band.
    fn observe_id(&mut self, raw_id: u16) -> bool {
        self.push(raw_id);
        let Some(entropy) = self.window_entropy() else {
            return false;
        };
        match self.phase {
            IdsPhase::Training => {
                self.training_entropy.push(entropy);
                // Auto-arm once a full window's worth of entropy
                // observations established the baseline.
                if self.training_entropy.len() >= self.window {
                    self.arm();
                }
                false
            }
            IdsPhase::Armed => {
                let baseline = *self.baseline.get_or_insert(entropy);
                (entropy - baseline).abs() * 1_000.0 > f64::from(self.band_millibits)
            }
        }
    }
}

impl Detector for EntropyIds {
    fn observe(&mut self, frame: &CanFrame, now: BitInstant) -> Option<Alert> {
        self.observe_id(frame.id().raw()).then_some(Alert {
            at: now,
            id: frame.id(),
            kind: AlertKind::Entropy,
        })
    }

    fn phase(&self) -> IdsPhase {
        EntropyIds::phase(self)
    }

    fn arm(&mut self) {
        EntropyIds::arm(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds an alternating two-identifier mix until armed.
    fn trained(window: usize) -> EntropyIds {
        let mut ids = EntropyIds::new(window, 400);
        let mut k = 0;
        while ids.phase() == IdsPhase::Training {
            ids.observe_id(if k % 2 == 0 { 0x173 } else { 0x300 });
            k += 1;
            assert!(k < 10_000, "training must terminate");
        }
        ids
    }

    #[test]
    fn balanced_mix_trains_to_one_bit() {
        let ids = trained(16);
        let entropy = ids.window_entropy().unwrap();
        assert!((entropy - 1.0).abs() < 1e-9, "H = {entropy}");
    }

    #[test]
    fn steady_mix_stays_quiet() {
        let mut ids = trained(16);
        for k in 0..100 {
            assert!(!ids.observe_id(if k % 2 == 0 { 0x173 } else { 0x300 }));
        }
    }

    #[test]
    fn flood_collapses_entropy_and_alerts() {
        let mut ids = trained(16);
        let mut first_alert = None;
        for k in 0..32 {
            if ids.observe_id(0x064) && first_alert.is_none() {
                first_alert = Some(k);
            }
        }
        let first = first_alert.expect("flood must alert");
        assert!(first <= 16, "alert within one window, got {first}");
    }

    #[test]
    fn widened_distribution_alerts_too() {
        let mut ids = trained(16);
        let mut alerted = false;
        for k in 0..32u16 {
            // Four balanced identifiers: H → 2.0 bits vs baseline 1.0.
            alerted |= ids.observe_id(0x100 + (k % 4));
        }
        assert!(alerted, "entropy rise must alert");
    }

    #[test]
    fn baseline_freezes_at_arm_time() {
        let mut ids = EntropyIds::new(8, 400);
        for _ in 0..4 {
            ids.observe_id(0x111);
        }
        ids.arm();
        assert_eq!(ids.phase(), IdsPhase::Armed);
        // No full training window: the first armed window sets the
        // baseline, and a same-shape window stays quiet.
        for _ in 0..16 {
            assert!(!ids.observe_id(0x111));
        }
    }
}
