//! Closed-form observation of the agents on the two wire front ends: from
//! random reachable states, `observe_stretch(word, len, own_tx, from)`
//! must equal `len` × (`set_own_transmission(own_tx)` + `on_bit`), and,
//! from every such state that `next_activity` declares quiet,
//! `skip_idle(k, from)` must equal `k` × (`set_own_transmission(false)` +
//! `on_bit(Recessive)`). Both hold on MichiCAN's handler, the supervised
//! defender (typical sync, a drift that loses sync inside a frame, and
//! windows short enough to roll over inside a stretch), the CANnon-style
//! ghost and the four CANflict-style `FrameWatch` attackers — on the full
//! `Debug` state (statistics included), every drive promise, the recorder
//! snapshot and the journal.

use can_attacks::{
    AdaptiveRacer, ErrorFlagInjector, FrameTruncator, GhostInjector, StuffBitOverwrite, TruncateAt,
};
use can_core::agent::BitAgent;
use can_core::bitstream::stuff_frame;
use can_core::{packed, BitDuration, BitInstant, BusSpeed, CanFrame, CanId, Level};
use can_obs::{Journal, Recorder};
use michican::prelude::*;
use proptest::prelude::*;

/// Detected by the monitor FSM (below the lowest listed id).
const ATTACK_ID: u16 = 0x064;
/// A listed, benign id.
const BENIGN_ID: u16 = 0x173;
/// The bit-level attackers' victim.
const VICTIM: u16 = 0x2A0;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Handler,
    /// Supervised with this health and sync configuration.
    Supervised(HealthConfig, SyncConfig),
    Ghost,
    StuffOverwrite,
    /// Its flag starts at destuffed position 16.
    ErrorFlag,
    /// Cuts at the ACK delimiter, inside the unstuffed tail.
    Truncator,
    /// Probes one victim frame, then strikes.
    Racer,
}

fn kinds() -> [Kind; 9] {
    let typical = SyncConfig::typical(BusSpeed::K500);
    // Loses sync 15 ticks after a hard sync: inside Algorithm 1's window.
    let drifting = SyncConfig {
        drift_ppm: 20_000.0,
        ..typical
    };
    let short_windows = HealthConfig {
        missed_tick_window: 37,
        episode_window_bits: 70,
        max_episodes_per_window: 1,
        ..HealthConfig::default()
    };
    [
        Kind::Handler,
        Kind::Supervised(HealthConfig::default(), typical),
        Kind::Supervised(HealthConfig::default(), drifting),
        Kind::Supervised(short_windows, typical),
        Kind::Ghost,
        Kind::StuffOverwrite,
        Kind::ErrorFlag,
        Kind::Truncator,
        Kind::Racer,
    ]
}

/// A bit agent whose whole state, statistics included, prints.
trait Agent: BitAgent + std::fmt::Debug {}

impl<T: BitAgent + std::fmt::Debug> Agent for T {}

/// One agent under test with its own recorder and journal.
struct Observed {
    agent: Box<dyn Agent>,
    recorder: Recorder,
    journal: Journal,
}

impl Observed {
    fn new(kind: Kind) -> Self {
        let (recorder, journal) = (Recorder::enabled(), Journal::enabled());
        let handler = || {
            let list = EcuList::from_raw(&[BENIGN_ID, VICTIM]);
            MichiCan::new(DetectionFsm::for_monitor(&list))
        };
        let victim = CanId::from_raw(VICTIM);
        let agent: Box<dyn Agent> = match kind {
            Kind::Handler => {
                let mut handler = handler();
                handler.set_recorder(recorder.clone(), 2);
                handler.set_journal(journal.clone(), 2);
                Box::new(handler)
            }
            Kind::Supervised(health, sync) => {
                let mut supervised = SupervisedMichiCan::new(handler(), health, sync);
                supervised.set_recorder(recorder.clone(), 2);
                supervised.set_journal(journal.clone(), 2);
                Box::new(supervised)
            }
            Kind::Ghost => {
                let mut ghost = GhostInjector::new(victim);
                ghost.set_journal(journal.clone(), 2);
                Box::new(ghost)
            }
            Kind::StuffOverwrite => {
                let mut attacker = StuffBitOverwrite::new(victim, 0);
                attacker.set_journal(journal.clone(), 2);
                Box::new(attacker)
            }
            Kind::ErrorFlag => {
                let mut attacker = ErrorFlagInjector::new(victim, 16);
                attacker.set_journal(journal.clone(), 2);
                Box::new(attacker)
            }
            Kind::Truncator => {
                let mut attacker = FrameTruncator::new(victim, TruncateAt::AckDelim);
                attacker.set_journal(journal.clone(), 2);
                Box::new(attacker)
            }
            Kind::Racer => {
                let mut racer = AdaptiveRacer::new(victim, 1, 2, 18);
                racer.set_journal(journal.clone(), 2);
                racer.set_recorder(&recorder, 2);
                Box::new(racer)
            }
        };
        Observed {
            agent,
            recorder,
            journal,
        }
    }

    fn is_injecting(&self) -> bool {
        self.agent.tx_level() == Some(Level::Dominant)
    }

    /// Everything observable, with the drive promises at `now`.
    fn fingerprint(&self, now: BitInstant) -> String {
        let agent = &self.agent;
        format!(
            "{agent:?}\ntx {:?} next {:?} horizon {:?} until {:?}\n{}\n{}",
            agent.tx_level(),
            agent.next_activity(now),
            agent.drive_horizon(now),
            agent.drive_until(now),
            self.recorder.snapshot_json(),
            self.journal.export_jsonl(),
        )
    }
}

/// A piece of the wire prefix, drawn from `(selector, entropy)`.
fn segment_bits(selector: u8, entropy: u64) -> (Vec<Level>, bool, u64) {
    let own = entropy >> 63 == 1;
    // Entropy bits: 0–3 pick the id (8–18 a random one), 20– the payload,
    // 40–43 the DLC, 48–55 where selector 4 cuts the frame, 63 `own`.
    let frame = |entropy: u64| {
        let id = match (entropy & 0xF) % 5 {
            _ if selector == 6 => VICTIM,
            0 | 1 => ATTACK_ID,
            2 => BENIGN_ID,
            3 => VICTIM,
            _ => ((entropy >> 8) & 0x7FF) as u16,
        };
        let payload = (entropy >> 20).to_le_bytes();
        let dlc = ((entropy >> 40) & 0xF) as usize % 9;
        let frame = CanFrame::data_frame(CanId::from_raw(id), &payload[..dlc]).unwrap();
        stuff_frame(&frame).bits
    };
    match selector {
        // Bus idle.
        0 => (vec![Level::Recessive; (entropy % 30) as usize], own, 0),
        // A whole frame.
        1 => (frame(entropy), own, 0),
        // An error flag and its delimiter.
        2 => {
            let mut bits = vec![Level::Dominant; 6];
            bits.extend([Level::Recessive; 8]);
            (bits, own, 0)
        }
        // Missed ticks: the timer skips `gap` bit times.
        3 => (Vec::new(), own, 1 + entropy % 40),
        // A frame cut off anywhere, often mid-injection.
        4 => {
            let mut bits = frame(entropy);
            bits.truncate(((entropy >> 48) & 0xFF) as usize % (bits.len() + 1));
            (bits, own, 0)
        }
        // The attackers' victim; `reach` cuts it (`strike_cut`).
        6 => (frame(entropy), own, 0),
        // Raw random levels.
        5 => {
            let len = (entropy >> 58) as u32 + 1;
            let bits = (0..len).map(|i| packed::level_at(entropy, i)).collect();
            (bits, own, 0)
        }
        _ => unreachable!("selector {selector}"),
    }
}

/// Where `reach` cuts selector 6's victim frame: `k` bits into the
/// agent's first drive (`k = 0` right after it decides to strike), so
/// mid-strike or mid-flag, or `k` bits before the frame's end if it has
/// not driven, so inside the unstuffed tail.
fn strike_cut(entropy: u64) -> usize {
    ((entropy >> 48) % 8) as usize
}

/// Two identical agents fed one prefix bit by bit, the bus being the input
/// wired-AND their own drive. Returns the pair and the next tick.
fn reach(kind: Kind, prefix: &[(u8, u64)]) -> (Observed, Observed, u64) {
    let (mut stretch, mut stepped) = (Observed::new(kind), Observed::new(kind));
    let mut t = 0u64;
    for &(selector, entropy) in prefix {
        let (bits, own, gap) = segment_bits(selector, entropy);
        t += gap;
        let cut = (selector == 6).then(|| strike_cut(entropy));
        let mut driven = 0;
        for (i, &input) in bits.iter().enumerate() {
            let drive = stretch.agent.tx_level().unwrap_or(Level::Recessive);
            if let Some(k) = cut {
                let struck = drive.is_dominant() || driven > 0;
                if (struck && driven == k) || (!struck && bits.len() - i == k) {
                    break;
                }
            }
            driven += usize::from(drive.is_dominant());
            let bus = input & drive;
            for side in [&mut stretch, &mut stepped] {
                side.agent.set_own_transmission(own);
                side.agent.on_bit(bus, BitInstant::from_bits(t));
            }
            t += 1;
        }
    }
    (stretch, stepped, t)
}

/// Feeds one stretch both ways and compares everything observable. While
/// injecting, the stretch opens with the agent's forced dominant run, as
/// the packed kernel delivers it.
fn check_stretch(
    kind: Kind,
    prefix: &[(u8, u64)],
    word: u64,
    len: u32,
    own_tx: bool,
) -> Result<(), TestCaseError> {
    let (mut stretch, mut stepped, t) = reach(kind, prefix);
    let from = BitInstant::from_bits(t);
    let forced = stretch.agent.drive_until(from).bits() - t;
    let word = word | packed::low_mask(forced.min(u64::from(len)) as u32);
    stretch.agent.observe_stretch(word, len, own_tx, from);
    for i in 0..len {
        stepped.agent.set_own_transmission(own_tx);
        let now = from + BitDuration::bits(u64::from(i));
        stepped.agent.on_bit(packed::level_at(word, i), now);
    }
    let end = from + BitDuration::bits(u64::from(len));
    prop_assert_eq!(
        stretch.fingerprint(end),
        stepped.fingerprint(end),
        "{:?}: word {:#x} len {} own {} from {}",
        kind,
        word,
        len,
        own_tx,
        t
    );
    Ok(())
}

/// From a reached state, skips `k` idle bits both ways after `gap` missed
/// ticks, when the agent is quiet there, and compares everything
/// observable. Returns whether it was quiet.
fn check_skip(kind: Kind, prefix: &[(u8, u64)], gap: u64, k: u64) -> Result<bool, TestCaseError> {
    let (mut skip, mut stepped, t) = reach(kind, prefix);
    let from = BitInstant::from_bits(t + gap);
    if skip.agent.next_activity(from) == Some(from) {
        return Ok(false);
    }
    skip.agent.skip_idle(k, from);
    for i in 0..k {
        stepped.agent.set_own_transmission(false);
        let now = from + BitDuration::bits(i);
        stepped.agent.on_bit(Level::Recessive, now);
    }
    let end = from + BitDuration::bits(k);
    prop_assert_eq!(
        skip.fingerprint(end),
        stepped.fingerprint(end),
        "{:?}: skip {} from {} after a {}-tick gap",
        kind,
        k,
        t + gap,
        gap
    );
    Ok(true)
}

/// A stretch word: dense, sparse (runs of 11 recessive bits, so SOFs), or
/// all recessive.
fn stretch_word(draws: (u64, u64, u64), density: u8) -> u64 {
    let (a, b, c) = draws;
    match density {
        0 => a,
        1 => a & b,
        2 => a & b & c,
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn observe_stretch_equals_the_per_bit_replay(
        prefix in proptest::collection::vec((0u8..7, any::<u64>()), 0..14),
        draws in (any::<u64>(), any::<u64>(), any::<u64>()),
        density in 0u8..4,
        len in 1u32..=64,
        own_tx in any::<bool>(),
    ) {
        let word = stretch_word(draws, density);
        for kind in kinds() {
            check_stretch(kind, &prefix, word, len, own_tx)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn skip_idle_equals_the_per_bit_replay(
        prefix in proptest::collection::vec((0u8..7, any::<u64>()), 0..14),
        k in 1u64..=4096,
        gap in 0u64..3,
    ) {
        for kind in kinds() {
            check_skip(kind, &prefix, gap, k)?;
        }
    }
}

/// The forced-run case, pinned: a stretch entered while the counterattack
/// or an attacker's strike holds the bus dominant (the ghost's and the
/// stuff-bit overwrite's strikes, an error flag, a truncated tail), run
/// past the release and on into the next hunt. The racer probes one whole
/// victim frame first.
#[test]
fn a_stretch_entered_while_injecting_matches() {
    let attack = (1u8, 0u64); // an ATTACK_ID frame, no payload
    let victim = (1u8, 3u64); // a VICTIM frame, no payload
    for kind in kinds() {
        let (target, probe) = match kind {
            Kind::Handler | Kind::Supervised(..) => (attack, None),
            Kind::Racer => (victim, Some([(0, 12), victim])),
            _ => (victim, None),
        };
        let wire = segment_bits(target.0, target.1).0.len() as u64;
        let mut injecting = 0;
        for cut in 0..wire {
            let mut prefix = probe.map_or(Vec::new(), Vec::from);
            prefix.extend([(0, 12), target_cut(target, cut)]);
            let (agent, _, _) = reach(kind, &prefix);
            if !agent.is_injecting() {
                continue;
            }
            injecting += 1;
            for len in [1, 5, 20, 64] {
                check_stretch(kind, &prefix, 0, len, false).unwrap();
                check_stretch(kind, &prefix, 0x5555_0000_0000_0000, len, true).unwrap();
            }
        }
        assert!(injecting > 0, "{kind:?} never injected");
    }
}

/// Prevention changes and sync losses inside the frame the handler
/// parses. A first counterattack exhausts a one-episode budget; a second
/// attack frame follows it, with the 70-bit episode window at every phase,
/// so the rollover that restores prevention falls before, inside and after
/// its identifier. The drifting clock loses sync at the 15th tick of every
/// frame.
#[test]
fn rollovers_and_sync_losses_inside_a_frame_match() {
    // An ATTACK_ID frame with eight data bytes.
    let mut wire = vec![Level::Recessive; 11];
    wire.extend(segment_bits(1, 8 << 40).0);
    let word = packed::pack_word(&wire[..64]);
    for kind in kinds() {
        if !matches!(kind, Kind::Supervised(..)) {
            continue;
        }
        for idle in 12..100 {
            // Idle in pieces of at most 29 bits, then the first attack.
            let mut prefix: Vec<(u8, u64)> = vec![(0, 29); idle / 29];
            prefix.extend([(0, idle as u64 % 29), (1, 0)]);
            check_stretch(kind, &prefix, word, 64, false).unwrap();
        }
    }
}

/// `target`'s frame cut after `cut` bits (selector 4's encoding).
fn target_cut(target: (u8, u64), cut: u64) -> (u8, u64) {
    (4, target.1 | (cut << 48))
}
