//! An adaptive attacker that races the defender's reaction window.
//!
//! MichiCAN's counterattack lands a few bits after its detection point
//! (paper §IV-E): the defender must finish classifying the identifier
//! before it may drive the bus. That latency is *observable on the wire*
//! — the counterattack surfaces as a stuff violation at a characteristic
//! destuffed position. [`AdaptiveRacer`] measures it: for a configurable
//! number of probe frames it watches the victim identifier passively and
//! records where frames die; then it starts striking its own error flag
//! `lead` bits *before* the earliest observed kill position, racing the
//! defender to the frame.
//!
//! The racer keeps its measurement in an internal [`can_obs::Histogram`]
//! so its decisions are self-contained and deterministic; an optional
//! [`can_obs::Recorder`] mirror exports the observations and strike
//! counts for analysis without ever influencing behavior.

use can_core::agent::BitAgent;
use can_core::{BitDuration, BitInstant, CanId, Level};
use can_obs::{Histogram, Journal, JournalKind, Recorder, DEFAULT_BUCKETS};

use crate::error_flag::ERROR_FLAG_BITS;
use crate::victim::VictimWatch;
use can_core::bitstream::MIN_INTERFRAME_RECESSIVE;
use can_core::watch::{self, WatchEvent, WatchTrigger, ID_COMPLETE_CNT};

/// Earliest destuffed position the racer will ever strike at: the bit
/// right after the arbitration field (it must see the whole identifier
/// to know the frame is worth attacking).
pub const EARLIEST_STRIKE_CNT: u32 = ID_COMPLETE_CNT + 1;

/// Cap on an unarmed racer's target position. A lost race can move the
/// target down to [`EARLIEST_STRIKE_CNT`] only after a frame arms at
/// `cnt == 12` and dies on the next push; with the 11-bit hunt and 12
/// positions of the next frame, that strike is this many pushes after the
/// hunt's end, as a strike at this position would be.
const LOST_RACE_REACH: u32 =
    ID_COMPLETE_CNT + 1 + MIN_INTERFRAME_RECESSIVE as u32 + EARLIEST_STRIKE_CNT - 1;

/// Pre-interned metric keys (built once in [`AdaptiveRacer::set_recorder`]
/// so the per-bit path never formats).
#[derive(Debug, Clone)]
struct RacerKeys {
    recorder: Recorder,
    observed: String,
    strikes: String,
    losses: String,
}

/// A bit-level attacker that measures the defender's reaction latency on
/// the wire and times its injection to beat the counterattack window.
#[derive(Debug, Clone)]
pub struct AdaptiveRacer {
    /// Victim frames to observe passively before striking.
    probe_frames: u32,
    /// Bits to strike ahead of the earliest observed kill position.
    lead: u32,
    /// Strike position used when probing observed no kills (an undefended
    /// victim: any mid-frame position works).
    fallback_at: u32,
    front: VictimWatch,
    probes_seen: u32,
    /// Destuffed positions at which observed victim frames died.
    observed: Histogram,
    flag_left: u32,
    strikes: u64,
    keys: Option<RacerKeys>,
}

impl AdaptiveRacer {
    /// Creates a racer against `victim` that probes `probe_frames` frames,
    /// then strikes `lead` bits before the earliest observed kill —
    /// falling back to `fallback_at` when probing saw no kills.
    ///
    /// # Panics
    ///
    /// Panics if `fallback_at <= 12` (see [`EARLIEST_STRIKE_CNT`]).
    pub fn new(victim: CanId, probe_frames: u32, lead: u32, fallback_at: u32) -> Self {
        assert!(
            fallback_at >= EARLIEST_STRIKE_CNT,
            "fallback_at must lie after the arbitration field (destuffed position > 12)"
        );
        AdaptiveRacer {
            probe_frames,
            lead,
            fallback_at,
            front: VictimWatch::new(victim),
            probes_seen: 0,
            observed: Histogram::new(DEFAULT_BUCKETS),
            flag_left: 0,
            strikes: 0,
            keys: None,
        }
    }

    /// Attaches a causal event journal; `node` is the index stamped on
    /// events. Probe outcomes ([`JournalKind::Probe`]) and strikes ([`JournalKind::Strike`])
    /// join the causal chain of the victim frame they concern.
    pub fn set_journal(&mut self, journal: Journal, node: u32) {
        self.front.set_journal(journal, node);
    }

    /// Mirrors the racer's measurements into `recorder` under keys labeled
    /// with `node`. Purely observational: behavior is unchanged whether or
    /// not a recorder is attached or enabled.
    pub fn set_recorder(&mut self, recorder: &Recorder, node: u32) {
        let observed = format!("adaptive_racer_observed_kill_bits{{node=\"{node}\"}}");
        recorder.declare_histogram(&observed, DEFAULT_BUCKETS);
        self.keys = Some(RacerKeys {
            recorder: recorder.clone(),
            observed,
            strikes: format!("adaptive_racer_strikes_total{{node=\"{node}\"}}"),
            losses: format!("adaptive_racer_races_lost_total{{node=\"{node}\"}}"),
        });
    }

    /// Whether the racer is still in its passive probing phase.
    pub fn probing(&self) -> bool {
        self.probes_seen < self.probe_frames
    }

    /// The destuffed position the racer strikes at once probing ends.
    ///
    /// `earliest observed kill − lead`, clamped to just past arbitration;
    /// the fallback when no kill was observed.
    fn strike_at(&self) -> u32 {
        match self.observed.min() {
            Some(min) => {
                let min = u32::try_from(min).unwrap_or(u32::MAX);
                min.saturating_sub(self.lead).max(EARLIEST_STRIKE_CNT)
            }
            None => self.fallback_at,
        }
    }

    /// Error flags driven so far.
    pub fn strikes(&self) -> u64 {
        self.strikes
    }

    fn record_kill(&mut self, at: u32) {
        self.observed.observe(u64::from(at));
        if let Some(keys) = &self.keys {
            keys.recorder.observe(&keys.observed, u64::from(at));
        }
    }
}

impl BitAgent for AdaptiveRacer {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        let (event, was_armed) = self.front.push(level);
        if self.flag_left > 0 {
            self.flag_left -= 1;
            return;
        }
        match event {
            // A victim frame died without us: the defender's
            // counterattack (or another error) landed at `at`.
            WatchEvent::Violation(at) if was_armed => {
                self.record_kill(at);
                if self.probing() {
                    self.probes_seen += 1;
                    self.front
                        .event(now, JournalKind::Probe, format_args!("kill={at}"));
                } else {
                    // A victim frame died before the planned position in
                    // strike mode: a race lost to the defender.
                    if let Some(keys) = &self.keys {
                        keys.recorder.inc(&keys.losses);
                    }
                    self.front
                        .event(now, JournalKind::Probe, format_args!("lost={at}"));
                }
            }
            // A victim frame survived untouched; probing learns from
            // that too (no kill observed ⇒ nothing to race).
            WatchEvent::FrameEnd if was_armed && self.probing() => {
                self.probes_seen += 1;
                self.front
                    .event(now, JournalKind::Probe, format_args!("survived"));
            }
            _ => {}
        }
        let watch = self.front.watch();
        if self.front.armed()
            && !self.probing()
            && watch.cnt() + 1 == self.strike_at()
            && !watch.expecting_stuff()
        {
            self.flag_left = ERROR_FLAG_BITS;
            self.strikes += 1;
            if let Some(keys) = &self.keys {
                keys.recorder.inc(&keys.strikes);
            }
            self.front.event(
                now,
                JournalKind::Strike,
                format_args!("adaptive at={}", self.strike_at()),
            );
            self.front.abort();
        }
    }

    fn tx_level(&self) -> Option<Level> {
        (self.flag_left > 0).then_some(Level::Dominant)
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        self.front.next_activity(now, self.flag_left > 0)
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        if self.flag_left > 0 {
            return Some(now);
        }
        // A strike is decided at the push that leaves `cnt` at
        // `strike_at − 1`. Kills of armed frames re-target later frames,
        // as early as `EARLIEST_STRIKE_CNT`.
        let lost_race = self
            .front
            .watch()
            .pushes_until(WatchTrigger::Cnt(EARLIEST_STRIKE_CNT - 1), false);
        let bits = if self.probing() {
            // No strike in this frame; probing may end with it.
            lost_race
        } else if self.front.armed() {
            let strike = WatchTrigger::Cnt(self.strike_at() - 1);
            self.front.pushes_until(strike).min(lost_race)
        } else {
            let strike = WatchTrigger::Cnt((self.strike_at() - 1).min(LOST_RACE_REACH));
            self.front.pushes_until(strike)
        };
        Some(now + BitDuration::bits(bits))
    }

    fn drive_until(&self, now: BitInstant) -> BitInstant {
        // Mid-flag the pin is dominant for every remaining flag bit,
        // whatever the bus does.
        now + BitDuration::bits(u64::from(self.flag_left))
    }

    fn observe_stretch(&mut self, word: u64, len: u32, _own_tx: bool, from: BitInstant) {
        watch::observe_hunting(
            self,
            |a| a.front.quiet_hunt(a.flag_left > 0),
            word,
            len,
            from,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::bitstream::stuff_frame;
    use can_core::watch::FrameWatch;
    use can_core::CanFrame;

    /// Feeds a frame, killing it at destuffed position `kill_at` (the
    /// "defender") unless the racer strikes first. Returns what ended the
    /// frame: `Some(true)` racer struck, `Some(false)` defender killed.
    fn feed_contested(
        racer: &mut AdaptiveRacer,
        frame: &CanFrame,
        kill_at: Option<u32>,
    ) -> Option<bool> {
        let mut t = 0u64;
        for _ in 0..20 {
            racer.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        // Reference watch to locate destuffed positions on the wire.
        let mut reference = FrameWatch::new();
        for _ in 0..20 {
            reference.push(Level::Recessive);
        }
        let wire = stuff_frame(frame);
        let mut outcome = None;
        for &bit in &wire.bits {
            if racer.tx_level() == Some(Level::Dominant) {
                // Racer strike: drive the flag to completion, then stop.
                while racer.tx_level() == Some(Level::Dominant) {
                    racer.on_bit(Level::Dominant, BitInstant::from_bits(t));
                    t += 1;
                }
                outcome = Some(true);
                break;
            }
            reference.push(bit);
            racer.on_bit(bit, BitInstant::from_bits(t));
            t += 1;
            if kill_at.is_some_and(|k| reference.cnt() == k) {
                // Defender kill: six dominant bits starting next bit.
                for _ in 0..6 {
                    racer.on_bit(Level::Dominant, BitInstant::from_bits(t));
                    t += 1;
                }
                outcome = Some(false);
                break;
            }
        }
        // Error delimiter / interframe space.
        for _ in 0..14 {
            racer.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        outcome
    }

    #[test]
    fn probes_then_beats_the_observed_kill_position() {
        let victim = CanId::from_raw(0x173);
        let frame = CanFrame::data_frame(victim, &[0xA5; 8]).unwrap();
        let mut racer = AdaptiveRacer::new(victim, 2, 5, 25);
        // Two probe frames killed by a "defender" flooding from destuffed
        // bit 21 on. On the wire the violation completes once the run
        // reaches six — at destuffed position 25 for this frame.
        assert_eq!(feed_contested(&mut racer, &frame, Some(20)), Some(false));
        assert_eq!(feed_contested(&mut racer, &frame, Some(20)), Some(false));
        assert!(!racer.probing());
        assert_eq!(racer.strike_at(), 20, "min(25) - lead(5)");
        // Third frame: the racer strikes before the defender's trigger.
        assert_eq!(feed_contested(&mut racer, &frame, Some(20)), Some(true));
        assert_eq!(racer.strikes(), 1);
    }

    #[test]
    fn falls_back_when_probing_sees_no_kills() {
        let victim = CanId::from_raw(0x0B4);
        let frame = CanFrame::data_frame(victim, &[1, 2]).unwrap();
        let mut racer = AdaptiveRacer::new(victim, 1, 3, 30);
        assert_eq!(feed_contested(&mut racer, &frame, None), None);
        assert!(!racer.probing());
        assert_eq!(racer.strike_at(), 30);
        assert_eq!(feed_contested(&mut racer, &frame, None), Some(true));
        assert_eq!(racer.strikes(), 1);
    }

    #[test]
    fn counts_lost_races() {
        let victim = CanId::from_raw(0x173);
        let frame = CanFrame::data_frame(victim, &[0; 8]).unwrap();
        let mut racer = AdaptiveRacer::new(victim, 1, 0, 25);
        let recorder = Recorder::enabled();
        racer.set_recorder(&recorder, 0);
        assert_eq!(feed_contested(&mut racer, &frame, Some(30)), Some(false));
        let after_probe = racer.strike_at();
        // A much faster defender beats the racer's planned position.
        assert_eq!(feed_contested(&mut racer, &frame, Some(14)), Some(false));
        let lost = "adaptive_racer_races_lost_total{node=\"0\"}";
        assert_eq!(recorder.into_registry().counter(lost), 1);
        // The loss also tightens the next strike.
        assert!(racer.strike_at() < after_probe);
    }

    #[test]
    fn clamps_to_the_post_arbitration_floor() {
        let victim = CanId::from_raw(0x001);
        let frame = CanFrame::data_frame(victim, &[]).unwrap();
        let mut racer = AdaptiveRacer::new(victim, 1, 50, 20);
        assert_eq!(feed_contested(&mut racer, &frame, Some(14)), Some(false));
        assert_eq!(racer.strike_at(), EARLIEST_STRIKE_CNT);
    }

    #[test]
    fn recorder_mirror_does_not_change_behavior() {
        let victim = CanId::from_raw(0x173);
        let frame = CanFrame::data_frame(victim, &[0xA5; 8]).unwrap();
        let mut plain = AdaptiveRacer::new(victim, 1, 2, 25);
        let recorder = Recorder::enabled();
        let mut mirrored = AdaptiveRacer::new(victim, 1, 2, 25);
        mirrored.set_recorder(&recorder, 7);
        for kill in [Some(20), Some(20), Some(18)] {
            assert_eq!(
                feed_contested(&mut plain, &frame, kill),
                feed_contested(&mut mirrored, &frame, kill)
            );
        }
        assert_eq!(plain.strikes(), mirrored.strikes());
        assert_eq!(plain.strike_at(), mirrored.strike_at());
        // And the mirror actually exported the measurement.
        let registry = recorder.into_registry();
        let hist = registry
            .histogram("adaptive_racer_observed_kill_bits{node=\"7\"}")
            .expect("observed-kill histogram exported");
        assert_eq!(hist.count(), 2, "one probe kill + one lost race");
        assert!(hist.min().is_some());
    }
}
