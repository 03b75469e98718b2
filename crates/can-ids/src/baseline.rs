//! The learned inter-arrival baseline under every timing detector.
//!
//! [`IntervalIds`](crate::interval::IntervalIds),
//! [`CusumIds`](crate::cusum::CusumIds) and
//! [`ZScoreIds`](crate::zscore::ZScoreIds) are different decision rules
//! on one baseline (Pollicino/Stabili/Marchetti's framing): per
//! identifier, training collects inter-arrival intervals; arming freezes
//! their mean and (floored) standard deviation. [`InterArrival`] owns that
//! lifecycle, so a rule only judges an armed frame.

use std::collections::HashMap;

use can_core::{BitInstant, CanId};

use crate::detector::IdsPhase;

/// Fraction of the learned mean used as the σ floor, so perfectly
/// periodic training traffic (σ ≈ 0) keeps a usable residual scale.
const SIGMA_FLOOR_FRACTION: f64 = 0.05;

#[derive(Debug, Clone, Default)]
struct Track<E> {
    last_seen: Option<u64>,
    /// Intervals collected during training.
    samples: Vec<u64>,
    mean: f64,
    sigma: f64,
    /// The decision rule's own per-identifier state.
    state: E,
}

/// Per-identifier inter-arrival baselines with a shared training phase.
///
/// Training ends on [`arm`](Self::arm), or automatically once every
/// identifier seen has `training_samples` intervals — so one identifier
/// too slow (or seen once) to collect them holds the whole detector in
/// training until it is armed explicitly.
#[derive(Debug, Clone)]
pub(crate) struct InterArrival<E> {
    phase: IdsPhase,
    training_samples: usize,
    tracks: HashMap<CanId, Track<E>>,
}

/// One armed frame as its decision rule sees it.
pub(crate) struct Armed<'a, E> {
    /// Bits since the identifier's previous frame; `None` on its first.
    pub(crate) interval: Option<u64>,
    /// Frozen mean interval; 0 without training samples.
    pub(crate) mean: f64,
    /// Frozen σ, floored at 5 % of the mean and at one bit; 0 without
    /// training samples.
    pub(crate) sigma: f64,
    /// Whether the identifier collected its full `training_samples`.
    pub(crate) trained: bool,
    /// The rule's per-identifier state.
    pub(crate) state: &'a mut E,
}

impl<E: Default> InterArrival<E> {
    /// A baseline training on `training_samples` intervals per identifier.
    ///
    /// # Panics
    ///
    /// Panics if `training_samples < 2`.
    pub(crate) fn new(training_samples: usize) -> Self {
        assert!(
            training_samples >= 2,
            "need at least two training intervals"
        );
        InterArrival {
            phase: IdsPhase::Training,
            training_samples,
            tracks: HashMap::new(),
        }
    }

    pub(crate) fn phase(&self) -> IdsPhase {
        self.phase
    }

    /// Ends training: freezes each identifier's mean/σ. Idempotent.
    pub(crate) fn arm(&mut self) {
        if self.phase == IdsPhase::Armed {
            return;
        }
        for track in self.tracks.values_mut() {
            if track.samples.is_empty() {
                continue;
            }
            let n = track.samples.len() as f64;
            let mean = track.samples.iter().sum::<u64>() as f64 / n;
            let var = track
                .samples
                .iter()
                .map(|&x| {
                    let d = x as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / n;
            track.mean = mean;
            track.sigma = var.sqrt().max(mean * SIGMA_FLOOR_FRACTION).max(1.0);
        }
        self.phase = IdsPhase::Armed;
    }

    /// Records a frame of `id` at `now`. While training, keeps its
    /// interval (auto-arming once every identifier has enough) and returns
    /// `None`; once armed, returns the frame for the rule to judge.
    pub(crate) fn observe(&mut self, id: CanId, now: BitInstant) -> Option<Armed<'_, E>> {
        let track = self.tracks.entry(id).or_default();
        let interval = track.last_seen.map(|last| now.bits().saturating_sub(last));
        track.last_seen = Some(now.bits());
        if self.phase == IdsPhase::Training {
            if let Some(interval) = interval {
                track.samples.push(interval);
            }
            let training_samples = self.training_samples;
            if self
                .tracks
                .values()
                .all(|t| t.samples.len() >= training_samples)
            {
                self.arm();
            }
            return None;
        }
        let track = self.tracks.get_mut(&id).expect("track inserted above");
        Some(Armed {
            interval,
            mean: track.mean,
            sigma: track.sigma,
            trained: track.samples.len() >= self.training_samples,
            state: &mut track.state,
        })
    }
}
