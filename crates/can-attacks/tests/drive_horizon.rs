//! Soundness of the bit-level attackers' drive promises, the two the
//! packed kernel resolves whole stretches on: for arbitrary bus input,
//! `tx_level()` stays `None` at every bit before the horizon the attacker
//! declared, and it is `Some(Dominant)` at every bit of a declared forced
//! run that samples dominant (`drive_until`: the error-flag injector,
//! the adaptive racer and the ghost).

use can_attacks::{
    AdaptiveRacer, ErrorFlagInjector, FrameTruncator, GhostInjector, StuffBitOverwrite, TruncateAt,
};
use can_core::agent::BitAgent;
use can_core::bitstream::{stuff_frame, Destuffed, Destuffer};
use can_core::{BitInstant, CanFrame, CanId, Level};
use proptest::prelude::*;

const VICTIM: u16 = 0x173;

/// `flag_at` values: the registry's, the earliest legal one, a late one,
/// and two that end exactly on a stuffed region (DLC 0 and 1).
const FLAG_AT: [u32; 5] = [13, 25, 35, 43, 60];

const TRUNCATE_AT: [TruncateAt; 3] = [TruncateAt::CrcDelim, TruncateAt::AckDelim, TruncateAt::Eof];

/// `(lead, fallback_at)` pairs: the registry's, a strike right after
/// arbitration, a late fallback racing far ahead of its kills, and one
/// between.
const RACER: [(u32, u32); 4] = [(5, 20), (0, 13), (50, 60), (0, 40)];

/// One piece of bus input: (kind, identifier, length, noise).
type Segment = (u8, u16, usize, u64);

fn level(recessive: bool) -> Level {
    if recessive {
        Level::Recessive
    } else {
        Level::Dominant
    }
}

/// The frame a segment carries: the victim's identifier or a bystander's,
/// DLC 0–8, a random or all-dominant payload.
fn segment_frame(id: u16, len: usize, noise: u64) -> CanFrame {
    let id = if noise & 1 == 0 {
        VICTIM
    } else {
        id & CanId::MAX_RAW
    };
    let payload = if noise >> 1 & 1 == 0 {
        noise.to_le_bytes()
    } else {
        [0; 8]
    };
    CanFrame::data_frame(CanId::from_raw(id), &payload[..len % 9]).unwrap()
}

/// Expands segments into bus levels: idle runs (often exactly the 1 or 11
/// bits that arm a SOF), whole stuffed frames, frames cut at a destuffed
/// position and followed by dominant bits (a fixed count, or exactly up to
/// the stuff violation), and raw noise.
fn bus_levels(segments: &[Segment]) -> Vec<Level> {
    let mut bits = Vec::new();
    for &(kind, id, len, noise) in segments {
        match kind {
            0 | 1 => {
                let run = match noise % 4 {
                    0 => 1,
                    1 => 11,
                    _ => len,
                };
                bits.extend(std::iter::repeat_n(Level::Recessive, run));
            }
            2..=4 => bits.extend(&stuff_frame(&segment_frame(id, len, noise)).bits),
            5 | 6 => {
                let wire = stuff_frame(&segment_frame(id, len, noise)).bits;
                // Cut after destuffed position `cut_at` (SOF = 1).
                let cut_at = 12 + (noise >> 8) as usize % 28;
                let mut destuffer = Destuffer::new();
                let mut cnt = 0;
                for &bit in &wire {
                    bits.push(bit);
                    if let Destuffed::Bit(_) = destuffer.push(bit) {
                        cnt += 1;
                    }
                    if cnt == cut_at {
                        break;
                    }
                }
                match (noise >> 16) % 8 {
                    7 => {
                        for _ in 0..7 {
                            bits.push(Level::Dominant);
                            if destuffer.push(Level::Dominant) == Destuffed::Violation {
                                break;
                            }
                        }
                    }
                    flag => bits.extend(std::iter::repeat_n(Level::Dominant, flag as usize)),
                }
            }
            _ => bits.extend((0..len).map(|i| level(noise >> (i % 64) & 1 == 1))),
        }
    }
    bits
}

/// Feeds `levels` (wired-AND with the attacker's own drive) and checks
/// every declared horizon; returns the number of bits the attacker drove.
fn check_horizons(agent: &mut dyn BitAgent, levels: &[Level]) -> Result<u64, TestCaseError> {
    let mut quiet_until = 0u64;
    let mut driven = 0;
    for (t, &input) in levels.iter().enumerate() {
        let now = BitInstant::from_bits(t as u64);
        match agent.drive_horizon(now) {
            Some(h) => {
                prop_assert!(h >= now, "horizon {h:?} before now {now:?}");
                quiet_until = quiet_until.max(h.bits());
            }
            None => quiet_until = u64::MAX,
        }
        let tx = agent.tx_level();
        if (t as u64) < quiet_until {
            prop_assert_eq!(
                tx,
                None,
                "drove at bit {} before horizon {}",
                t,
                quiet_until
            );
        }
        if tx.is_some() {
            driven += 1;
        }
        agent.on_bit(input & tx.unwrap_or(Level::Recessive), now);
    }
    Ok(driven)
}

/// Feeds `levels` (wired-AND with the attacker's own drive) and checks
/// every declared forced run: inside `[now, drive_until(now))` the
/// attacker must drive dominant. Returns the number of bits inside
/// declared runs.
fn check_forced_runs(agent: &mut dyn BitAgent, levels: &[Level]) -> Result<u64, TestCaseError> {
    let mut forced_until = 0u64;
    let mut forced = 0;
    for (t, &input) in levels.iter().enumerate() {
        let now = BitInstant::from_bits(t as u64);
        let until = agent.drive_until(now);
        prop_assert!(until >= now, "run end {until:?} before now {now:?}");
        forced_until = forced_until.max(until.bits());
        let tx = agent.tx_level();
        if (t as u64) < forced_until {
            prop_assert_eq!(
                tx,
                Some(Level::Dominant),
                "released at bit {} inside a run to {}",
                t,
                forced_until
            );
            forced += 1;
        }
        agent.on_bit(input & tx.unwrap_or(Level::Recessive), now);
    }
    Ok(forced)
}

fn arb_segments() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec(
        (0u8..8, 0u16..=CanId::MAX_RAW, 0usize..24, any::<u64>()),
        1..80,
    )
}

fn victim() -> CanId {
    CanId::from_raw(VICTIM)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stuff_overwrite_never_drives_before_its_horizon(segments in arb_segments()) {
        let levels = bus_levels(&segments);
        for skip in 0..=2 {
            check_horizons(&mut StuffBitOverwrite::new(victim(), skip), &levels)?;
        }
    }

    #[test]
    fn error_flag_never_drives_before_its_horizon(segments in arb_segments()) {
        let levels = bus_levels(&segments);
        for flag_at in FLAG_AT {
            check_horizons(&mut ErrorFlagInjector::new(victim(), flag_at), &levels)?;
        }
    }

    #[test]
    fn error_flag_drives_dominant_through_its_forced_runs(segments in arb_segments()) {
        let levels = bus_levels(&segments);
        for flag_at in FLAG_AT {
            check_forced_runs(&mut ErrorFlagInjector::new(victim(), flag_at), &levels)?;
        }
    }

    #[test]
    fn adaptive_racer_drives_dominant_through_its_forced_runs(segments in arb_segments()) {
        let levels = bus_levels(&segments);
        for (lead, fallback_at) in RACER {
            check_forced_runs(&mut AdaptiveRacer::new(victim(), 0, lead, fallback_at), &levels)?;
        }
    }

    #[test]
    fn ghost_drives_dominant_through_its_forced_runs(segments in arb_segments()) {
        let levels = bus_levels(&segments);
        check_forced_runs(&mut GhostInjector::new(victim()), &levels)?;
    }

    #[test]
    fn truncator_never_drives_before_its_horizon(segments in arb_segments()) {
        let levels = bus_levels(&segments);
        for at in TRUNCATE_AT {
            check_horizons(&mut FrameTruncator::new(victim(), at), &levels)?;
        }
    }

    #[test]
    fn adaptive_racer_never_drives_before_its_horizon(segments in arb_segments()) {
        let levels = bus_levels(&segments);
        for probe_frames in [0, 1, 3] {
            for (lead, fallback_at) in RACER {
                let mut racer = AdaptiveRacer::new(victim(), probe_frames, lead, fallback_at);
                check_horizons(&mut racer, &levels)?;
            }
        }
    }

    #[test]
    fn ghost_never_drives_before_its_horizon(segments in arb_segments()) {
        let levels = bus_levels(&segments);
        check_horizons(&mut GhostInjector::new(victim()), &levels)?;
    }
}

#[test]
fn the_check_is_not_vacuous_and_horizons_reach_past_one_bit() {
    // Back-to-back victim frames: every attacker strikes, so the
    // soundness check sees real drives.
    let victim_frame = (2, VICTIM, 8, 0);
    let segments: Vec<Segment> = (0..20)
        .flat_map(|_| [(0, 0, 14, 2), victim_frame])
        .collect();
    let levels = bus_levels(&segments);
    let attackers: [(&str, Box<dyn BitAgent>); 5] = [
        (
            "stuff-overwrite",
            Box::new(StuffBitOverwrite::new(victim(), 0)),
        ),
        ("error-flag", Box::new(ErrorFlagInjector::new(victim(), 25))),
        (
            "truncate",
            Box::new(FrameTruncator::new(victim(), TruncateAt::Eof)),
        ),
        (
            "adaptive-racer",
            Box::new(AdaptiveRacer::new(victim(), 1, 5, 20)),
        ),
        ("ghost", Box::new(GhostInjector::new(victim()))),
    ];
    for (name, mut attacker) in attackers {
        let driven = check_horizons(attacker.as_mut(), &levels).unwrap();
        assert!(driven >= 19, "{name} drove only {driven} bits");
    }

    // Each flag (the injector's and the racer's) is one declared forced
    // run of six bits, and each ghost strike one run to destuffed
    // position 20.
    let mut injector = ErrorFlagInjector::new(victim(), 25);
    let forced = check_forced_runs(&mut injector, &levels).unwrap();
    assert_eq!(forced, injector.flags_injected() * 6);
    assert!(injector.flags_injected() >= 19);
    let mut racer = AdaptiveRacer::new(victim(), 0, 5, 20);
    let forced = check_forced_runs(&mut racer, &levels).unwrap();
    assert!(racer.strikes() >= 19);
    assert_eq!(forced, racer.strikes() * 6);
    let mut ghost = GhostInjector::new(victim());
    let forced = check_forced_runs(&mut ghost, &levels).unwrap();
    assert!(ghost.injections() >= 19);
    assert!(forced >= ghost.injections() * 7, "{forced} forced bits");

    // From reset: 11 recessive bits arm the hunt, then the SOF is the
    // first of the trigger position's pushes.
    let at = BitInstant::ZERO;
    let horizon = |agent: &dyn BitAgent| agent.drive_horizon(at).unwrap().bits();
    assert_eq!(horizon(&ErrorFlagInjector::new(victim(), 25)), 11 + 24);
    assert_eq!(
        horizon(&FrameTruncator::new(victim(), TruncateAt::Eof)),
        11 + 34 + 3
    );
    assert_eq!(horizon(&AdaptiveRacer::new(victim(), 0, 5, 20)), 11 + 19);
    assert_eq!(horizon(&AdaptiveRacer::new(victim(), 3, 5, 20)), 11 + 12);
    assert_eq!(horizon(&StuffBitOverwrite::new(victim(), 0)), 11 + 12);
    assert_eq!(horizon(&GhostInjector::new(victim())), 11 + 13);
}
