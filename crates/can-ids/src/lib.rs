//! # can-ids — frame-level intrusion-detection baselines
//!
//! The paper's Table I classifies IDS approaches \[15\]–\[17\] as backward
//! compatible but **not real-time** and **without eradication**. This
//! crate implements the classic timing/frequency detector family so that
//! the classification can be *measured* instead of asserted:
//!
//! * [`frequency`] — a sliding-window rate detector (flooding DoS shows
//!   up as an abnormal per-identifier or bus-wide frame rate);
//! * [`interval`] — an inter-arrival anomaly detector (spoofing shows up
//!   as frames arriving far off the learned period);
//! * [`cusum`] — a two-sided CUSUM over inter-arrival residuals (the
//!   sequential change-point detector of the timing-IDS literature);
//! * [`zscore`] — a per-frame mean/stddev z-score detector;
//! * [`entropy`] — a Shannon-entropy window over the identifier
//!   distribution.
//!
//! All five implement the uniform [`Detector`] trait ([`detector`]):
//! observe completed frames with sim-time timestamps, emit typed
//! [`Alert`]s. The interval, CUSUM and z-score detectors are three
//! decision rules on one learned inter-arrival baseline. The [`registry`]
//! enumerates stable detector names with parameter grids (mirroring
//! `can_attacks::registry`), and [`tap`] attaches any number of
//! detectors to one simulated bus as passive [`DetectorTap`] observers —
//! the substrate of `bench::idsbench`'s detector × defense bake-off.
//!
//! Detectors observe *complete frames only* (the interface a classic
//! controller exposes, paper §II-C) — which is precisely why their
//! detection latency is lower-bounded by whole frames, while MichiCAN
//! decides inside the identifier field of the *first* malicious frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
pub mod cusum;
pub mod detector;
pub mod entropy;
pub mod frequency;
pub mod interval;
pub mod registry;
pub mod tap;
pub mod zscore;

pub use cusum::CusumIds;
pub use detector::{Alert, AlertKind, Detector, IdsPhase};
pub use entropy::EntropyIds;
pub use frequency::FrequencyIds;
pub use interval::IntervalIds;
pub use registry::{all_variants, detector_names, variants_for, DetectorParams, DetectorVariant};
pub use tap::DetectorTap;
pub use zscore::ZScoreIds;

/// Everything needed to build, attach and interrogate detectors:
/// `use can_ids::prelude::*;`.
pub mod prelude {
    pub use crate::cusum::CusumIds;
    pub use crate::detector::{Alert, AlertKind, Detector, IdsPhase};
    pub use crate::entropy::EntropyIds;
    pub use crate::frequency::FrequencyIds;
    pub use crate::interval::IntervalIds;
    pub use crate::registry::{
        all_variants, detector_names, variants_for, DetectorParams, DetectorVariant,
    };
    pub use crate::tap::DetectorTap;
    pub use crate::zscore::ZScoreIds;
}
