//! The detector registry: every detector family in this crate,
//! enumerable by stable name with its parameter grid.
//!
//! Mirrors `can_attacks::registry`: benches and the `experiments ids`
//! runner never hard-code detector constructors — the registry maps each
//! family to the variants worth sweeping, so adding a detector here
//! automatically grows every downstream bake-off table, differential pin
//! and CI smoke run.
//!
//! Parameters are integers (`Copy + Eq + Hash`, no floats) so variant
//! tables can be `'static` and labels are exact; constructors convert to
//! the detectors' native units (fractions, σ, millibits) at
//! [`DetectorVariant::instantiate`] time.

use crate::cusum::CusumIds;
use crate::detector::Detector;
use crate::entropy::EntropyIds;
use crate::frequency::FrequencyIds;
use crate::interval::IntervalIds;
use crate::zscore::ZScoreIds;

/// Parameters of one registry variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorParams {
    /// [`FrequencyIds`]: sliding-window rate threshold.
    Frequency {
        /// Window width in bus bits.
        window_bits: u64,
        /// Per-identifier frame count above which the rate is anomalous.
        threshold: u32,
    },
    /// [`IntervalIds`]: inter-arrival tolerance band.
    Interval {
        /// Training intervals per identifier.
        training: u32,
        /// Tolerance band around the learned mean, in percent.
        tol_percent: u32,
    },
    /// [`CusumIds`]: cumulative sum over inter-arrival residuals.
    Cusum {
        /// Training intervals per identifier.
        training: u32,
        /// Decision threshold `h`, in σ units.
        h_sigma: u32,
    },
    /// [`ZScoreIds`]: per-frame standardized deviation.
    ZScore {
        /// Training intervals per identifier.
        training: u32,
        /// Alerting deviation, in σ units.
        z: u32,
    },
    /// [`EntropyIds`]: identifier-distribution entropy window.
    Entropy {
        /// Window width in frames.
        window: u32,
        /// Alerting band around the baseline, in millibits of entropy.
        band_millibits: u32,
    },
}

/// One named, parameterized entry of the detector registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetectorVariant {
    /// Stable registry name of the detector family (e.g. `"cusum"`).
    pub detector: &'static str,
    /// This variant's parameters.
    pub params: DetectorParams,
}

impl DetectorVariant {
    /// Stable variant label: the family name plus its distinguishing
    /// parameters, usable in reports, journals and differential pins.
    pub fn label(&self) -> String {
        match self.params {
            DetectorParams::Frequency {
                window_bits,
                threshold,
            } => format!("{}[win={window_bits},thr={threshold}]", self.detector),
            DetectorParams::Interval {
                training,
                tol_percent,
            } => format!("{}[train={training},tol={tol_percent}%]", self.detector),
            DetectorParams::Cusum { training, h_sigma } => {
                format!("{}[train={training},h={h_sigma}]", self.detector)
            }
            DetectorParams::ZScore { training, z } => {
                format!("{}[train={training},z={z}]", self.detector)
            }
            DetectorParams::Entropy {
                window,
                band_millibits,
            } => format!("{}[win={window},band={band_millibits}]", self.detector),
        }
    }

    /// Builds the detector.
    pub fn instantiate(&self) -> Box<dyn Detector> {
        match self.params {
            DetectorParams::Frequency {
                window_bits,
                threshold,
            } => Box::new(FrequencyIds::new(window_bits, threshold as usize)),
            DetectorParams::Interval {
                training,
                tol_percent,
            } => Box::new(IntervalIds::new(
                training as usize,
                f64::from(tol_percent) / 100.0,
            )),
            DetectorParams::Cusum { training, h_sigma } => {
                Box::new(CusumIds::new(training as usize, f64::from(h_sigma)))
            }
            DetectorParams::ZScore { training, z } => {
                Box::new(ZScoreIds::new(training as usize, f64::from(z)))
            }
            DetectorParams::Entropy {
                window,
                band_millibits,
            } => Box::new(EntropyIds::new(window as usize, band_millibits)),
        }
    }
}

/// The full registry: every detector family with its swept variants, in
/// stable enumeration order (the bake-off table's row order).
pub const REGISTRY: &[(&str, &[DetectorParams])] = &[
    (
        "frequency",
        &[DetectorParams::Frequency {
            window_bits: 5_000,
            threshold: 10,
        }],
    ),
    (
        "interval",
        &[DetectorParams::Interval {
            training: 8,
            tol_percent: 50,
        }],
    ),
    (
        "cusum",
        &[
            DetectorParams::Cusum {
                training: 8,
                h_sigma: 8,
            },
            DetectorParams::Cusum {
                training: 8,
                h_sigma: 4,
            },
        ],
    ),
    ("zscore", &[DetectorParams::ZScore { training: 8, z: 6 }]),
    (
        "entropy",
        &[DetectorParams::Entropy {
            window: 16,
            band_millibits: 400,
        }],
    ),
];

/// All detector family names, in registry order.
pub fn detector_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _)| *name).collect()
}

/// The swept variants of one detector family, or `None` for an unknown
/// name.
pub fn variants_for(detector: &str) -> Option<Vec<DetectorVariant>> {
    REGISTRY
        .iter()
        .find(|(name, _)| *name == detector)
        .map(|(name, grid)| {
            grid.iter()
                .map(|&params| DetectorVariant {
                    detector: name,
                    params,
                })
                .collect()
        })
}

/// Every variant of every detector family, in registry order.
pub fn all_variants() -> Vec<DetectorVariant> {
    REGISTRY
        .iter()
        .flat_map(|(name, grid)| {
            grid.iter().map(|&params| DetectorVariant {
                detector: name,
                params,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::IdsPhase;
    use can_core::{BitInstant, CanFrame, CanId};

    #[test]
    fn registry_is_enumerable_and_labeled_uniquely() {
        let variants = all_variants();
        assert!(variants.len() >= 6, "expected a sweepable grid");
        let mut labels: Vec<String> = variants.iter().map(DetectorVariant::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), all_variants().len(), "labels must be unique");
    }

    #[test]
    fn every_variant_instantiates_and_arms() {
        let frame = CanFrame::data_frame(CanId::from_raw(0x173), &[0]).unwrap();
        for variant in all_variants() {
            let mut detector = variant.instantiate();
            detector.arm();
            assert_eq!(detector.phase(), IdsPhase::Armed, "{}", variant.label());
            // A single frame after arming never panics.
            let _ = detector.observe(&frame, BitInstant::from_bits(100));
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(variants_for("not-a-detector").is_none());
        assert!(detector_names().contains(&"cusum"));
        assert_eq!(detector_names().len(), REGISTRY.len());
    }

    #[test]
    fn family_selection_matches_registry_grid() {
        let cusum = variants_for("cusum").unwrap();
        assert_eq!(cusum.len(), 2);
        assert!(cusum.iter().all(|v| v.detector == "cusum"));
    }
}
