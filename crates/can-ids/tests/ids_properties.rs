//! Property tests for the IDS baselines: no false positives on compliant
//! periodic traffic; guaranteed detection of sufficiently aggressive
//! floods.

use can_core::{BitInstant, CanId};
use can_ids::{Detector, FrequencyIds, IntervalIds};
use proptest::prelude::*;

proptest! {
    /// Periodic traffic below the frequency threshold never alerts,
    /// regardless of period, phase and identifier.
    #[test]
    fn frequency_ids_has_no_false_positives(
        raw in 0u16..=CanId::MAX_RAW,
        period in 600u64..10_000,
        phase in 0u64..5_000,
        window in 1_000u64..20_000,
    ) {
        // Threshold chosen above the max frames/window for this period.
        let threshold = (window / period + 2) as usize;
        let mut ids = FrequencyIds::new(window, threshold);
        for k in 0..200u64 {
            let alert = ids.observe(
                CanId::from_raw(raw),
                BitInstant::from_bits(phase + k * period),
            );
            prop_assert!(!alert, "false positive at frame {}", k);
        }
    }

    /// A flood always alerts within threshold+1 frames, for any window and
    /// threshold configuration it physically fits in.
    #[test]
    fn frequency_ids_always_catches_floods(
        raw in 0u16..=CanId::MAX_RAW,
        threshold in 2usize..40,
        frame_gap in 100u64..140,
    ) {
        let window = (threshold as u64 + 2) * 140;
        let mut ids = FrequencyIds::new(window, threshold);
        let mut alerted_at = None;
        for k in 0..(threshold as u64 + 4) {
            if ids.observe(CanId::from_raw(raw), BitInstant::from_bits(k * frame_gap)) {
                alerted_at = Some(k);
                break;
            }
        }
        prop_assert_eq!(
            alerted_at,
            Some(threshold as u64),
            "the (threshold+1)-th frame in the window must alert"
        );
    }

    /// The interval detector accepts jitter strictly inside its tolerance
    /// band and flags intervals strictly outside it.
    #[test]
    fn interval_ids_band_is_respected(
        period in 500u64..5_000,
        tolerance in 0.2f64..0.8,
    ) {
        let mut ids = IntervalIds::new(4, tolerance);
        // Train with observations at 0, period, …, 5·period.
        let mut last = 0u64;
        for k in 0..6u64 {
            last = k * period;
            ids.observe(CanId::from_raw(0x100), BitInstant::from_bits(last));
        }
        ids.arm();

        // Inside the band: accepted.
        let inside = (period as f64 * (1.0 + tolerance * 0.5)) as u64;
        last += inside;
        prop_assert!(!ids.observe(CanId::from_raw(0x100), BitInstant::from_bits(last)));

        // Far outside the band: flagged.
        let outside = (period as f64 * (1.0 + tolerance * 3.0)) as u64;
        last += outside;
        prop_assert!(ids.observe(CanId::from_raw(0x100), BitInstant::from_bits(last)));
    }
}
