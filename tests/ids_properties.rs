//! Property coverage for the timing-IDS detector family: for *arbitrary*
//! periods, training depths, thresholds and benign-noise interleavings,
//!
//! * CUSUM and entropy complete the train → arm → detect lifecycle —
//!   quiet on the traffic they trained on, alerting within a bounded
//!   number of frames once the distribution shifts; and
//! * attaching the full registry detector grid as passive taps never
//!   perturbs the simulation: lockstep and the packed bus kernel stay
//!   byte-identical with every tap installed.

use bench::differential::check_equivalence;
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BitInstant, BusSpeed, CanFrame, CanId};
use can_ids::registry::all_variants;
use can_ids::{CusumIds, Detector, DetectorTap, EntropyIds, IdsPhase, ZScoreIds};
use can_sim::{Node, SimBuilder};
use proptest::prelude::*;

fn frame(id: u16) -> CanFrame {
    CanFrame::data_frame(CanId::from_raw(id), &[0]).unwrap()
}

const VICTIM: u16 = 0x100;
const NOISE: u16 = 0x2A0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CUSUM lifecycle under random interleavings: trained on a clean
    /// period with benign noise frames woven in at random offsets, it
    /// stays quiet on continued clean traffic and alerts on the victim
    /// identifier within three frames of a 5× flood.
    #[test]
    fn cusum_trains_arms_and_detects_under_random_interleavings(
        period in 300u64..1_200,
        training in 3usize..8,
        h_sigma in 2u32..9,
        noise_phase in 0u64..500,
    ) {
        let mut ids = CusumIds::new(training, f64::from(h_sigma));
        let noise_period = period * 2 + 61;

        // Train: victim at `period`, noise interleaved at its own period.
        let train_frames = (training + 2) as u64;
        for k in 0..train_frames {
            Detector::observe(&mut ids, &frame(VICTIM), BitInstant::from_bits(k * period));
            Detector::observe(
                &mut ids,
                &frame(NOISE),
                BitInstant::from_bits(noise_phase + k * noise_period),
            );
        }
        ids.arm();
        prop_assert_eq!(ids.phase(), IdsPhase::Armed);

        // Continued clean victim traffic must stay quiet.
        let mut t = (train_frames - 1) * period;
        for _ in 0..10 {
            t += period;
            let alert = Detector::observe(&mut ids, &frame(VICTIM), BitInstant::from_bits(t));
            prop_assert!(
                alert.is_none(),
                "clean post-arm victim traffic alerted at {t}"
            );
        }

        // A 5× flood of the victim id alerts within three frames.
        let flood_interval = (period / 5).max(1);
        let mut victim_alert = None;
        for k in 0..6u64 {
            t += flood_interval;
            if let Some(alert) = Detector::observe(&mut ids, &frame(VICTIM), BitInstant::from_bits(t)) {
                prop_assert_eq!(alert.id, CanId::from_raw(VICTIM));
                victim_alert = Some(k);
                break;
            }
        }
        let first = victim_alert.expect("a 5x flood must alert");
        prop_assert!(first <= 2, "alert within 3 flood frames, got frame {first}");
    }

    /// Entropy lifecycle: trained on an alternating two-identifier stream
    /// (entropy 1 bit), a single-identifier flood collapses the window
    /// entropy to 0 and must alert within two windows.
    #[test]
    fn entropy_trains_arms_and_detects_distribution_collapse(
        window in 6usize..20,
        band_millibits in 300u32..700,
        period in 100u64..500,
    ) {
        let mut ids = EntropyIds::new(window, band_millibits);
        let mut t = 0u64;
        // Train on strict alternation until auto-armed.
        let mut k = 0u64;
        while ids.phase() == IdsPhase::Training {
            let id = if k.is_multiple_of(2) { VICTIM } else { NOISE };
            Detector::observe(&mut ids, &frame(id), BitInstant::from_bits(t));
            t += period;
            k += 1;
            prop_assert!(k < 10_000, "training must converge");
        }

        // Continued alternation stays quiet.
        for k in 0..(window as u64 * 2) {
            let id = if k.is_multiple_of(2) { VICTIM } else { NOISE };
            let alert = Detector::observe(&mut ids, &frame(id), BitInstant::from_bits(t));
            prop_assert!(alert.is_none(), "balanced traffic alerted");
            t += period;
        }

        // Flood one identifier: entropy collapses 1 bit -> 0 bits, which
        // exceeds any band below 1000 millibits within two windows.
        let mut alerted = false;
        for _ in 0..(window * 2) {
            if Detector::observe(&mut ids, &frame(VICTIM), BitInstant::from_bits(t)).is_some() {
                alerted = true;
                break;
            }
            t += period / 2;
        }
        prop_assert!(alerted, "distribution collapse must alert");
    }

    /// Bounded jitter is business as usual: a z-score detector trained on
    /// a noisy-but-bounded period never alerts while the jitter stays
    /// well inside its band.
    #[test]
    fn zscore_tolerates_bounded_jitter(
        period in 400u64..1_000,
        jitter_seed in any::<u64>(),
    ) {
        let mut ids = ZScoreIds::new(6, 6.0);
        // σ floor is 5% of the mean; keep jitter within ±2σ of it.
        let jitter_cap = period / 10;
        let mut state = jitter_seed | 1;
        let mut next_jitter = move || {
            // SplitMix64 step — deterministic per seed.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % (jitter_cap.max(1))
        };
        let mut t = 0u64;
        for _ in 0..40 {
            t += period + next_jitter();
            let alert = Detector::observe(&mut ids, &frame(VICTIM), BitInstant::from_bits(t));
            prop_assert!(alert.is_none(), "bounded jitter alerted at {t}");
        }
    }

    /// Passive taps never perturb the kernel: with the full registry grid
    /// attached, both execution modes agree on every observable
    /// surface, for arbitrary payloads and phase offsets.
    #[test]
    fn taps_preserve_mode_equivalence(
        payload in proptest::collection::vec(any::<u8>(), 0..=8),
        offset in 0u64..400,
    ) {
        check_equivalence(
            |recorder| {
                let victim_frame = CanFrame::data_frame(CanId::from_raw(0x173), &payload).unwrap();
                let mut builder = SimBuilder::new(BusSpeed::K500)
                    .recorder(recorder)
                    .node(Node::new(
                        "victim",
                        Box::new(PeriodicSender::new(victim_frame, 600, offset)),
                    ))
                    .node(Node::new("rx", Box::new(SilentApplication)));
                for variant in all_variants() {
                    let tap = DetectorTap::new(variant.label(), variant.instantiate());
                    builder = builder.tap(tap.as_frame_tap());
                }
                builder.build()
            },
            15_000,
        )
        .unwrap();
    }
}
