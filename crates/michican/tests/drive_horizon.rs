//! Soundness of the defender's drive promises, the two the packed kernel
//! resolves whole stretches on: for arbitrary bus input, `tx_level()`
//! stays `None` at every bit before the declared drive horizon, and it is
//! `Some(Dominant)` at every bit of a declared forced run that samples
//! dominant (`drive_until`).

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

/// Feeds `levels` (wired-AND with the agent's own drive) and checks every
/// declared forced run: inside `[now, drive_until(now))` the agent must
/// drive dominant, so the bus it samples is dominant too. With
/// `gap_phase`, the agent misses the tick of every bit `t` with
/// `t % 64 == gap_phase`; a missed tick voids the runs declared before it
/// (the simulator never packs across one). Returns the number of bits
/// inside declared runs.
fn check_forced_runs(
    agent: &mut dyn BitAgent,
    levels: &[Level],
    own_mask: u64,
    gap_phase: Option<u64>,
) -> u64 {
    let mut forced_until = 0u64;
    let mut forced = 0;
    for (t, &input) in levels.iter().enumerate() {
        let t = t as u64;
        if gap_phase == Some(t % 64) {
            forced_until = 0;
            continue;
        }
        let now = BitInstant::from_bits(t);
        let until = agent.drive_until(now);
        assert!(until >= now, "run end {until:?} before now {now:?}");
        forced_until = forced_until.max(until.bits());
        let tx = agent.tx_level();
        if t < forced_until {
            assert_eq!(
                tx,
                Some(Level::Dominant),
                "released at bit {t} inside a run to {forced_until}"
            );
            forced += 1;
        }
        let bus = input & tx.unwrap_or(Level::Recessive);
        agent.set_own_transmission(own_mask >> (t % 64) & 1 == 1);
        agent.on_bit(bus, now);
    }
    forced
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

/// A watchdog that degrades on one failed counterattack or one missed
/// tick and re-arms after one clean frame. Its oscillator drifts
/// `drift_ppm` (from 12 500 ppm on, sync is lost a dozen or two bits after
/// each SOF, so inside an injection), its eradication watch lasts
/// `horizon` bits, and with `exhausted = Some(w)` its episode budget is
/// zero per `w`-bit window, so the first rollover withdraws prevention.
fn watched(
    window: usize,
    drift_ppm: f64,
    horizon: u32,
    exhausted: Option<u64>,
) -> SupervisedMichiCan {
    let budget = HealthConfig {
        max_counterattack_failures: 1,
        max_missed_ticks: 0,
        eradication_horizon: horizon,
        rearm_clean_frames: 1,
        max_backoff_exponent: 0,
        ..HealthConfig::default()
    };
    let config = match exhausted {
        Some(bits) => HealthConfig {
            episode_window_bits: bits,
            max_episodes_per_window: 0,
            ..budget
        },
        None => budget,
    };
    SupervisedMichiCan::new(
        handler(window),
        config,
        SyncConfig {
            drift_ppm,
            ..SyncConfig::typical(BusSpeed::K500)
        },
    )
}

/// Eradication-watch lengths: none, shorter than the error delimiter, the
/// default, and one that reaches past the next frame's arbitration. A
/// watch also closes at the eighth recessive bit after the release, which
/// precedes every SOF, so its deadline cannot yet land inside the next
/// injection; the supervisor caps its runs there all the same.
const HORIZONS: [u32; 4] = [0, 5, 24, 40];

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn michican_drives_dominant_through_its_forced_runs(
        segments in arb_segments(),
        window in 0usize..WINDOWS.len(),
        own_mask in any::<u64>(),
    ) {
        let levels = bus_levels(&segments);
        check_forced_runs(&mut handler(window), &levels, own_mask & 0x0F0F, None);
    }

    #[test]
    fn supervised_michican_drives_dominant_through_its_forced_runs(
        segments in arb_segments(),
        window in 0usize..WINDOWS.len(),
        own_mask in any::<u64>(),
    ) {
        let levels = bus_levels(&segments);
        check_forced_runs(&mut supervised(window), &levels, own_mask & 0x0F0F, None);
    }

    #[test]
    fn a_watchdog_that_cuts_injections_never_breaks_a_forced_run(
        segments in arb_segments(),
        window in 0usize..WINDOWS.len(),
        drift_ppm in 12_500u32..23_000,
        horizon in 0usize..HORIZONS.len(),
    ) {
        let levels = bus_levels(&segments);
        let mut agent = watched(window, f64::from(drift_ppm), HORIZONS[horizon], None);
        check_forced_runs(&mut agent, &levels, 0, None);
    }

    #[test]
    fn a_watchdog_that_misses_ticks_never_breaks_a_forced_run(
        segments in arb_segments(),
        window in 0usize..WINDOWS.len(),
        gap_phase in 0u64..64,
        exhausted in any::<bool>(),
    ) {
        let levels = bus_levels(&segments);
        let mut agent = watched(window, 100.0, 24, exhausted.then_some(37));
        check_forced_runs(&mut agent, &levels, 0, Some(gap_phase));
    }
}

#[test]
fn forced_runs_cover_injections_and_stop_where_the_watchdog_withdraws() {
    let spoof = (1, 0x173, 8, 0xFFFF_0000_FFFF_0000);
    let segments: Vec<Segment> = (0..20).flat_map(|_| [(0, 0, 14, 0), spoof]).collect();
    let levels = bus_levels(&segments);

    // Every injected bit lies inside a declared run, and the first run
    // covers the whole default window: position 13 to 20 on dominant
    // input, with one violation that does not count.
    let mut defender = handler(0);
    let forced = check_forced_runs(&mut defender, &levels, 0, None);
    assert_eq!(defender.stats().counterattacks, 20);
    assert!(forced >= 20 * 7, "only {forced} bits inside forced runs");

    // With a drift that loses sync inside the injection, the supervisor
    // declares a shorter run than its handler, ending at the lost bit.
    let mut agent = watched(0, 18_750.0, 24, None);
    let mut cut = 0;
    for (t, &input) in levels.iter().enumerate() {
        let now = BitInstant::from_bits(t as u64);
        if agent.handler().is_injecting()
            && agent.drive_until(now) < agent.handler().drive_until(now)
        {
            cut += 1;
        }
        let bus = input & agent.tx_level().unwrap_or(Level::Recessive);
        agent.on_bit(bus, now);
    }
    assert!(cut > 0, "no run was cut");
    assert!(agent.stats().sync_losses > 0);
    check_forced_runs(&mut watched(0, 18_750.0, 24, None), &levels, 0, None);

    // An exhausted episode budget withdraws prevention at the first window
    // rollover; rolling over at each bit of the first injection, the
    // supervisor's runs stop before the rollover.
    let mut probe = handler(0);
    let start = (0..levels.len() as u64)
        .find(|&t| {
            let now = BitInstant::from_bits(t);
            let bus = levels[t as usize] & probe.tx_level().unwrap_or(Level::Recessive);
            probe.on_bit(bus, now);
            probe.is_injecting()
        })
        .expect("the first spoof is attacked");
    for offset in 1..=8 {
        let mut agent = watched(0, 100.0, 24, Some(start + offset));
        check_forced_runs(&mut agent, &levels, 0, None);
        assert_eq!(agent.handler().stats().counterattacks, 1);
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
