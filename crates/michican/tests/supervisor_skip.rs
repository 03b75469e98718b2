//! Closed-form idle skipping of the supervised defender: from every state
//! in which `next_activity` declares it quiet, `skip_idle(k)` must equal
//! `k` × (`set_own_transmission(false)` + `on_bit(Recessive)`) on the full
//! `Debug` state and the journal, and stay equal through the attack frames
//! that follow — detection, injection, re-arm and degrade included.

use can_core::agent::BitAgent;
use can_core::bitstream::stuff_frame;
use can_core::{BitInstant, BusSpeed, CanFrame, CanId, Level};
use can_obs::Journal;
use michican::prelude::*;
use proptest::prelude::*;

/// Detected by the monitor FSM (below the lowest listed id).
const ATTACK_ID: u16 = 0x064;
/// A listed, benign id.
const BENIGN_ID: u16 = 0x173;

fn agent(config: HealthConfig) -> SupervisedMichiCan {
    let list = EcuList::from_raw(&[BENIGN_ID, 0x2A0]);
    SupervisedMichiCan::new(
        MichiCan::new(DetectionFsm::for_monitor(&list)),
        config,
        SyncConfig::typical(BusSpeed::K500),
    )
}

/// Two identically built defenders fed the same bus: `skip` takes the
/// closed-form path, `step` the per-bit one.
struct Pair {
    skip: SupervisedMichiCan,
    step: SupervisedMichiCan,
    journals: [Journal; 2],
    /// The next tick.
    t: u64,
}

impl Pair {
    fn new(config: HealthConfig) -> Self {
        let (mut skip, mut step) = (agent(config), agent(config));
        let journals = [Journal::enabled(), Journal::enabled()];
        skip.set_journal(journals[0].clone(), 3);
        step.set_journal(journals[1].clone(), 3);
        Pair {
            skip,
            step,
            journals,
            t: 0,
        }
    }

    /// One bit on both; the bus is `input` wired-AND the defender's drive.
    fn bit(&mut self, input: Level) {
        let tx = self.skip.tx_level();
        assert_eq!(tx, self.step.tx_level(), "drive diverged at {}", self.t);
        let bus = input & tx.unwrap_or(Level::Recessive);
        let now = BitInstant::from_bits(self.t);
        for agent in [&mut self.skip, &mut self.step] {
            agent.set_own_transmission(false);
            agent.on_bit(bus, now);
        }
        self.t += 1;
    }

    fn idle(&mut self, bits: u64) {
        for _ in 0..bits {
            self.bit(Level::Recessive);
        }
    }

    /// Idles until both defenders declare themselves quiet.
    fn settle(&mut self) {
        while self.quiet().is_none() {
            self.bit(Level::Recessive);
        }
    }

    /// `Some(())` when both are quiet at the next tick (they must agree).
    fn quiet(&self) -> Option<()> {
        let now = BitInstant::from_bits(self.t);
        let quiet = self.skip.next_activity(now).is_none();
        assert_eq!(quiet, self.step.next_activity(now).is_none());
        quiet.then_some(())
    }

    /// Skips `k` bits from tick `from` (≥ the next tick; a larger value
    /// models missed ticks): closed form on one side, per bit on the
    /// other. Then checks the two states are equal.
    fn skip_from(&mut self, from: u64, k: u64) {
        assert!(from >= self.t);
        assert!(self.quiet().is_some(), "skip outside a quiet window");
        let start = BitInstant::from_bits(from);
        self.skip.skip_idle(k, start);
        for i in 0..k {
            self.step.set_own_transmission(false);
            self.step
                .on_bit(Level::Recessive, BitInstant::from_bits(from + i));
        }
        if k > 0 {
            self.t = from + k;
        }
        self.assert_equal("after the skip");
    }

    fn assert_equal(&self, at: &str) {
        assert_eq!(
            format!("{:?}", self.skip),
            format!("{:?}", self.step),
            "state {at}"
        );
        assert_eq!(
            self.journals[0].export_jsonl(),
            self.journals[1].export_jsonl(),
            "journal {at}"
        );
    }

    /// An attack frame; the bus shows the defender's injection, then the
    /// attacker's error flag and delimiter when `eradicated`, else a frame
    /// that shrugs the injection off (no 8-bit recessive gap in time).
    fn attack(&mut self, eradicated: bool) -> bool {
        self.idle(12);
        let frame = CanFrame::data_frame(CanId::from_raw(ATTACK_ID), &[0; 8]).unwrap();
        let mut injected = false;
        for &bit in &stuff_frame(&frame).bits {
            if self.skip.handler().is_injecting() {
                injected = true;
                break;
            }
            self.bit(bit);
        }
        if !injected {
            self.idle(12);
            return false;
        }
        while self.skip.handler().is_injecting() {
            self.bit(Level::Dominant);
        }
        if eradicated {
            (0..6).for_each(|_| self.bit(Level::Dominant));
            self.idle(8);
        } else {
            for k in 0..40 {
                self.bit(if k % 4 == 0 {
                    Level::Recessive
                } else {
                    Level::Dominant
                });
            }
        }
        true
    }

    fn benign(&mut self) {
        self.idle(12);
        let frame = CanFrame::data_frame(CanId::from_raw(BENIGN_ID), &[1, 2]).unwrap();
        for &bit in &stuff_frame(&frame).bits {
            self.bit(bit);
        }
    }
}

/// How the defender got into the state the skip starts from.
#[derive(Debug, Clone, Copy)]
enum Setup {
    Fresh,
    /// Degraded (detect-only) with some clean frames already counted.
    Degraded,
    /// Degraded, then re-armed.
    Rearmed,
    /// Armed with the episode budget used up.
    BudgetExhausted,
}

const SETUPS: [Setup; 4] = [
    Setup::Fresh,
    Setup::Degraded,
    Setup::Rearmed,
    Setup::BudgetExhausted,
];

fn config(missed_window: u64, episode_window: u64) -> HealthConfig {
    HealthConfig {
        max_counterattack_failures: 1,
        rearm_clean_frames: 3,
        max_backoff_exponent: 1,
        missed_tick_window: missed_window,
        episode_window_bits: episode_window,
        max_episodes_per_window: 2,
        ..HealthConfig::default()
    }
}

fn prepared(setup: Setup, missed_window: u64, episode_window: u64) -> Pair {
    let mut pair = Pair::new(config(missed_window, episode_window));
    match setup {
        Setup::Fresh => {}
        Setup::Degraded => {
            assert!(pair.attack(false));
            pair.benign();
            pair.benign();
            pair.idle(12);
            assert!(matches!(
                pair.skip.state(),
                HealthState::DetectOnly { seen, .. } if seen > 0
            ));
        }
        Setup::Rearmed => {
            assert!(pair.attack(false));
            for _ in 0..4 {
                pair.benign();
            }
            pair.idle(12);
            assert_eq!(pair.skip.stats().rearms, 1);
            assert_eq!(pair.skip.state(), HealthState::Armed);
        }
        Setup::BudgetExhausted => {
            assert!(pair.attack(true));
            assert!(pair.attack(true));
            if episode_window > 1_000 {
                assert!(!pair.skip.prevention_active(), "budget not exhausted");
            }
        }
    }
    pair.settle();
    pair.assert_equal("before the skip");
    pair
}

/// The first tick at which a `window`-bit window rolls over after `t`,
/// given contiguous ticks from 0 (the window restarts at multiples).
fn next_rollover(t: u64, window: u64) -> u64 {
    (t / window + 1) * window
}

/// The bus after the skip: an attack frame (whose detection, injection,
/// re-arm or degrade must match), benign traffic and another attack.
fn follow_up(pair: &mut Pair) {
    pair.attack(false);
    pair.benign();
    pair.attack(true);
    pair.idle(3);
    pair.assert_equal("after the follow-up traffic");
}

#[test]
fn skip_matches_per_bit_replay_across_window_boundaries() {
    const WINDOWS: [u64; 3] = [1, 7, 2_000];
    const K: u64 = 40;
    for setup in SETUPS {
        for missed in WINDOWS {
            for episode in WINDOWS {
                // Place each window's boundary before, at, inside and just
                // after a skip of `K` bits.
                for window in [missed, episode] {
                    for offset in [-1i64, 0, 1, K as i64 / 2, K as i64 - 1, K as i64] {
                        let mut pair = prepared(setup, missed, episode);
                        let roll = next_rollover(pair.t, window) as i64;
                        let from = roll - offset;
                        let Ok(from) = u64::try_from(from) else {
                            continue;
                        };
                        if from < pair.t {
                            continue;
                        }
                        // Reach `from` per bit: still quiet.
                        pair.idle(from - pair.t);
                        pair.skip_from(from, K);
                        follow_up(&mut pair);
                    }
                }
            }
        }
    }
}

#[test]
fn skip_lengths_around_the_window_size() {
    for setup in SETUPS {
        for window in [1u64, 7, 2_000] {
            for k in [0u64, 1, 2, 6, 7, 8, 13, 14, 15, 1_999, 2_000, 2_001, 4_001] {
                let mut pair = prepared(setup, window, window);
                let from = pair.t;
                pair.skip_from(from, k);
                follow_up(&mut pair);
            }
        }
    }
}

#[test]
fn budget_window_rollover_inside_a_skip_restores_prevention() {
    let mut pair = prepared(Setup::BudgetExhausted, 2_000, 2_000);
    assert!(!pair.skip.prevention_active());
    let from = pair.t;
    pair.skip_from(from, 2_000);
    assert!(
        pair.skip.prevention_active(),
        "rollover re-synced prevention"
    );
    // Armed again: the next attack is countered on both sides.
    let before = pair.skip.handler().stats().counterattacks;
    assert!(pair.attack(true));
    assert_eq!(pair.skip.handler().stats().counterattacks, before + 1);
    pair.assert_equal("after the attack");
}

#[test]
fn a_tick_gap_before_the_skip_is_accounted_like_per_bit() {
    // A gap of 20 ticks exceeds `max_missed_ticks`, so the first skipped
    // bit degrades — on both paths, journal included.
    for setup in SETUPS {
        let mut pair = prepared(setup, 2_000, 2_000);
        pair.idle(1); // a first tick, so the gap is measured from it
        let degradations = pair.skip.stats().degradations;
        let from = pair.t + 20;
        pair.skip_from(from, 50);
        assert!(pair.skip.stats().missed_ticks >= 20);
        if matches!(
            setup,
            Setup::Fresh | Setup::Rearmed | Setup::BudgetExhausted
        ) {
            assert_eq!(pair.skip.stats().degradations, degradations + 1);
        }
        follow_up(&mut pair);
    }
}

/// One piece of bus input: idle run, benign frame, attack frame (failed
/// or eradicated), or a skip of the given length where quiet.
type Segment = (u8, u16);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_traffic_with_skips_matches_per_bit(
        segments in proptest::collection::vec((0u8..5, 0u16..3_000), 1..24),
        missed in 1u64..3_000,
        episode in 1u64..3_000,
    ) {
        let segments: Vec<Segment> = segments;
        let mut pair = Pair::new(config(missed, episode));
        for (kind, len) in segments {
            match kind {
                0 => pair.idle(u64::from(len % 40)),
                1 => pair.benign(),
                2 => {
                    pair.attack(false);
                }
                3 => {
                    pair.attack(true);
                }
                _ => {
                    pair.settle();
                    let from = pair.t + u64::from(len % 3);
                    pair.skip_from(from, u64::from(len));
                }
            }
        }
        pair.assert_equal("at the end");
    }
}
