//! Soundness of the defender's drive horizon: for arbitrary bus input,
//! `tx_level()` stays `None` at every bit before the horizon the agent
//! declared — the promise the packed kernel resolves whole stretches on.

use can_core::agent::BitAgent;
use can_core::bitstream::stuff_frame;
use can_core::{BitInstant, BusSpeed, CanFrame, CanId, Level};
use can_sim::{FaultyAgent, PinFaultConfig};
use michican::prelude::*;
use proptest::prelude::*;

/// (start, end) counterattack positions: the default, the release
/// positions of the injection-width ablation, and odd shapes (a late or
/// early start, an empty or inverted window).
const WINDOWS: [(u32, u32); 13] = [
    (13, 20),
    (13, 14),
    (13, 15),
    (13, 16),
    (13, 17),
    (13, 18),
    (13, 19),
    (13, 22),
    (12, 20),
    (15, 18),
    (13, 13),
    (16, 14),
    (2, 25),
];

/// One piece of bus input.
type Segment = (u8, u16, usize, u64);

/// Expands segments into bus levels: idle runs, whole stuffed frames,
/// frames cut short by an error flag, and raw noise.
fn bus_levels(segments: &[Segment]) -> Vec<Level> {
    let level = |bit: bool| {
        if bit {
            Level::Recessive
        } else {
            Level::Dominant
        }
    };
    let mut bits = Vec::new();
    for &(kind, id, len, noise) in segments {
        match kind {
            0 => bits.extend(std::iter::repeat_n(Level::Recessive, len)),
            1 | 2 => {
                let payload = noise.to_le_bytes();
                let frame = CanFrame::data_frame(CanId::from_raw(id), &payload[..len % 9]).unwrap();
                let wire = stuff_frame(&frame);
                if kind == 1 {
                    bits.extend(&wire.bits);
                } else {
                    bits.extend(&wire.bits[..(8 + len).min(wire.bits.len())]);
                    bits.extend(std::iter::repeat_n(Level::Dominant, 6));
                }
            }
            _ => bits.extend((0..len).map(|i| level(noise >> (i % 64) & 1 == 1))),
        }
    }
    bits
}

/// Feeds `levels` (wired-AND with the agent's own drive) and checks every
/// declared horizon; returns the number of bits the agent drove.
fn check_horizons(agent: &mut dyn BitAgent, levels: &[Level], own_mask: u64) -> u64 {
    let mut quiet_until = 0u64;
    let mut driven = 0;
    for (t, &input) in levels.iter().enumerate() {
        let now = BitInstant::from_bits(t as u64);
        if let Some(h) = agent.drive_horizon(now) {
            assert!(h >= now, "horizon {h:?} before now {now:?}");
            quiet_until = quiet_until.max(h.bits());
        } else {
            quiet_until = u64::MAX;
        }
        let tx = agent.tx_level();
        if (t as u64) < quiet_until {
            assert_eq!(tx, None, "drove at bit {t} before horizon {quiet_until}");
        }
        if tx.is_some() {
            driven += 1;
        }
        let bus = input & tx.unwrap_or(Level::Recessive);
        agent.set_own_transmission(own_mask >> (t % 64) & 1 == 1);
        agent.on_bit(bus, now);
    }
    driven
}

fn handler(window: usize) -> MichiCan {
    let (start, end) = WINDOWS[window];
    let list = EcuList::from_raw(&[0x173, 0x2A0]);
    MichiCan::with_config(
        DetectionFsm::for_ecu(&list, 0),
        MichiCanConfig {
            prevention_enabled: true,
            counterattack_start: start,
            counterattack_end: end,
        },
    )
}

/// A watchdog that degrades after one failed counterattack and re-arms
/// after two clean frames, so prevention flips often inside a run.
fn supervised(window: usize) -> SupervisedMichiCan {
    SupervisedMichiCan::new(
        handler(window),
        HealthConfig {
            max_counterattack_failures: 1,
            rearm_clean_frames: 2,
            max_backoff_exponent: 1,
            ..HealthConfig::default()
        },
        SyncConfig::typical(BusSpeed::K500),
    )
}

fn pin_faults() -> PinFaultConfig {
    PinFaultConfig {
        sample_flip_prob: 0.02,
        missed_bit_prob: 0.02,
        sof_delay_prob: 0.3,
        sof_delay_bits: 3,
    }
}

fn arb_segments() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec(
        (0u8..4, 0u16..=CanId::MAX_RAW, 0usize..24, any::<u64>()),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn michican_never_drives_before_its_horizon(
        segments in arb_segments(),
        window in 0usize..WINDOWS.len(),
        own_mask in any::<u64>(),
    ) {
        let levels = bus_levels(&segments);
        check_horizons(&mut handler(window), &levels, own_mask & 0x0F0F);
    }

    #[test]
    fn supervised_michican_never_drives_before_its_horizon(
        segments in arb_segments(),
        window in 0usize..WINDOWS.len(),
        own_mask in any::<u64>(),
    ) {
        let levels = bus_levels(&segments);
        check_horizons(&mut supervised(window), &levels, own_mask & 0x0F0F);
    }

    #[test]
    fn faulty_pin_michican_never_drives_before_its_horizon(
        segments in arb_segments(),
        window in 0usize..WINDOWS.len(),
        seed in any::<u64>(),
    ) {
        let levels = bus_levels(&segments);
        let mut bare = FaultyAgent::new(handler(window), pin_faults(), seed);
        check_horizons(&mut bare, &levels, 0);
        let mut watched = FaultyAgent::new(supervised(window), pin_faults(), seed);
        check_horizons(&mut watched, &levels, 0);
    }
}

#[test]
fn horizon_is_tight_enough_to_pack_and_the_check_is_not_vacuous() {
    // Back-to-back spoofed frames: the defender must strike, so the
    // soundness check sees real drives.
    let spoof = (1, 0x173, 8, 0xFFFF_0000_FFFF_0000);
    let segments: Vec<Segment> = (0..20).flat_map(|_| [(0, 0, 14, 0), spoof]).collect();
    let levels = bus_levels(&segments);
    let mut defender = handler(0);
    assert!(check_horizons(&mut defender, &levels, 0) > 20 * 6);
    assert_eq!(defender.stats().counterattacks, 20);

    // Between strikes the horizon reaches far past one bit. From reset:
    // 11 recessive bits, the SOF, then positions 2..=13 before the drive.
    let mut idle = handler(0);
    let at = BitInstant::from_bits(0);
    assert_eq!(idle.drive_horizon(at), Some(BitInstant::from_bits(11 + 13)));
    for t in 0..11 {
        idle.on_bit(Level::Recessive, BitInstant::from_bits(t));
    }
    let at = BitInstant::from_bits(11);
    assert_eq!(idle.drive_horizon(at), Some(BitInstant::from_bits(11 + 13)));
}
