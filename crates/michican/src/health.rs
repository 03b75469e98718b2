//! Health watchdog and graceful degradation for the MichiCAN defender.
//!
//! The paper's design assumes the defender's own substrate is healthy: the
//! timer interrupt fires every bit, the sampling point stays inside the
//! bit, and a counterattack reliably destroys the attacked frame. On real
//! hardware each of these can fail — interrupts get masked, oscillators
//! drift, marginal transceivers miss the injection window. A defense that
//! keeps counterattacking with a broken clock is itself a bus hazard: it
//! would inject dominant bits at the wrong positions and destroy
//! legitimate frames.
//!
//! [`SupervisedMichiCan`] wraps the [`MichiCan`] handler with a watchdog
//! that observes, from bit-level observables only (the same pin access the
//! defense itself has):
//!
//! * **missed ticks** — gaps in the per-bit timestamps (the timer
//!   interrupt did not fire),
//! * **sync loss** — accumulated oscillator drift pushing the sampling
//!   point out of the bit (tracked with [`SoftSync`], hard-synced at every
//!   observed SOF),
//! * **counterattack failures** — an injection window that is not followed
//!   by the attacked transmitter's error-recovery gap, i.e. the attacked
//!   frame (or its retransmission) survived.
//!
//! On repeated trouble the watchdog **degrades to detect-only mode**
//! (prevention off, detection running), then **re-arms with capped
//! exponential backoff**: prevention returns after `N` consecutive clean
//! frames, where `N` doubles on every degradation up to a cap, and resets
//! after a long healthy streak. Independent of health, a **counterattack
//! budget** bounds injection episodes per time window so that even a
//! pathological detector can never load the bus worse than the Parrot
//! baseline it is compared against (§V-E).
//!
//! ```text
//!                 fault threshold exceeded
//!      ┌─────────┐ ───────────────────────► ┌─────────────┐
//!      │  Armed  │                           │ Detect-only │
//!      └─────────┘ ◄─────────────────────── └─────────────┘
//!                 N consecutive clean frames
//!                 (N = base · 2^k, k capped)
//! ```

use can_core::agent::BitAgent;
use can_core::bitstream::MIN_INTERFRAME_RECESSIVE;
use can_core::{BitInstant, Level};
use can_obs::{Journal, JournalKind, Recorder};
use serde::{Deserialize, Serialize};

use crate::handler::MichiCan;
use crate::sync::{SoftSync, SyncConfig};

/// Tuning knobs of the health watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Consecutive counterattack failures that trigger degradation.
    pub max_counterattack_failures: u32,
    /// Bits after an injection release within which the attacked
    /// transmitter's error-recovery gap (≥ 8 recessive bits) must begin
    /// for the counterattack to count as successful.
    pub eradication_horizon: u32,
    /// Missed ticks within one tick window that trigger degradation.
    pub max_missed_ticks: u32,
    /// Length of the missed-tick accounting window, in bit times.
    pub missed_tick_window: u64,
    /// Consecutive clean frames required before re-arming prevention
    /// (base value; doubles per degradation).
    pub rearm_clean_frames: u32,
    /// Cap on the backoff doubling (`N ≤ rearm_clean_frames · 2^cap`).
    pub max_backoff_exponent: u32,
    /// Clean frames while armed after which the backoff resets to base.
    pub backoff_reset_frames: u32,
    /// Length of the counterattack budget window, in bit times.
    pub episode_window_bits: u64,
    /// Maximum counterattack episodes per budget window. With ~8 dominant
    /// bits per episode this caps the defender-induced bus load at
    /// `8 · max / window` — far below a Parrot defender, which occupies
    /// the bus with whole spoofed frames.
    pub max_episodes_per_window: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            max_counterattack_failures: 3,
            eradication_horizon: 24,
            max_missed_ticks: 16,
            missed_tick_window: 2_000,
            rearm_clean_frames: 8,
            max_backoff_exponent: 5,
            backoff_reset_frames: 64,
            // One full worst-case eradication is 32 episodes ≈ 1250 bits
            // (Table III); the budget must not cut an eradication short,
            // while 48 · 8 / 2000 = 19 % duty stays far below Parrot.
            episode_window_bits: 2_000,
            max_episodes_per_window: 48,
        }
    }
}

impl HealthConfig {
    /// The worst-case fraction of bus time the counterattack budget
    /// allows the defender to occupy (episodes × ~8 dominant bits per
    /// window).
    pub fn max_injection_duty(&self) -> f64 {
        if self.episode_window_bits == 0 {
            0.0
        } else {
            (self.max_episodes_per_window as f64 * 8.0) / self.episode_window_bits as f64
        }
    }
}

/// Why the watchdog degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DegradeReason {
    /// Too many consecutive counterattack failures.
    CounterattackFailures,
    /// Too many missed per-bit ticks within the accounting window.
    MissedTicks,
    /// The sampling point drifted out of the bit.
    SyncLoss,
}

/// The watchdog's prevention state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Prevention armed (subject to the episode budget).
    Armed,
    /// Detect-only fallback: prevention disabled until `needed`
    /// consecutive clean frames are observed.
    DetectOnly {
        /// Consecutive clean frames required to re-arm.
        needed: u32,
        /// Consecutive clean frames observed so far.
        seen: u32,
    },
}

/// Running counters of the watchdog.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthStats {
    /// Ticks that never arrived (timestamp gaps).
    pub missed_ticks: u64,
    /// Times the sampling point left the bit.
    pub sync_losses: u64,
    /// Injection episodes followed by the expected error-recovery gap.
    pub counterattack_successes: u64,
    /// Injection episodes after which the attacked frame survived.
    pub counterattack_failures: u64,
    /// Transitions into detect-only mode.
    pub degradations: u64,
    /// Degradations by reason, in occurrence order.
    pub degrade_reasons: Vec<DegradeReason>,
    /// Transitions back to armed.
    pub rearms: u64,
    /// Times the episode budget withdrew prevention for the remainder of
    /// a window.
    pub budget_suppressions: u64,
    /// Frames observed without any fault indication.
    pub clean_frames: u64,
}

/// [`MichiCan`] under a health watchdog: same [`BitAgent`] contract, but
/// prevention is withdrawn when the defender's own substrate misbehaves
/// and restored with capped exponential backoff once it is clean again.
#[derive(Debug, Clone)]
pub struct SupervisedMichiCan {
    handler: MichiCan,
    config: HealthConfig,
    sync: SoftSync,
    stats: HealthStats,
    state: HealthState,
    /// Exponent `k` of the re-arm backoff (`N = base · 2^k`).
    backoff_exponent: u32,
    /// Clean frames since the last re-arm (for backoff reset).
    armed_clean_streak: u32,
    /// Consecutive counterattack failures.
    consecutive_failures: u32,
    /// Timestamp of the previous tick, if any.
    last_tick: Option<u64>,
    /// Missed ticks in the current accounting window.
    window_missed: u32,
    /// Start of the missed-tick window.
    missed_window_start: u64,
    /// Consecutive recessive bits observed (SOF/hard-sync hunting).
    idle_run: u32,
    /// Open eradication watch: deadline bit time.
    watch_deadline: Option<u64>,
    /// Recessive run observed since the injection release under watch.
    watch_recessive_run: u32,
    /// Episode budget: window start and episodes counted in it.
    episode_window_start: u64,
    episodes_in_window: u32,
    /// Fault epoch: incremented on every fault indication; frames
    /// spanning an epoch change are not clean.
    fault_epoch: u64,
    /// Fault epoch at the previous SOF.
    frame_epoch: u64,
    /// Whether a frame is currently being observed (between SOFs).
    in_frame: bool,
    /// Metrics sink for watchdog events; disabled (no-op) by default.
    recorder: Recorder,
    /// Metric keys interned once in [`SupervisedMichiCan::set_recorder`];
    /// `Some` iff the recorder is enabled.
    keys: Option<HealthKeys>,
    /// Causal event journal for watchdog transitions; disabled by default.
    journal: Journal,
    /// Node index used in metric labels and journal events.
    node_label: u32,
}

/// Pre-formatted watchdog metric keys, so an event never formats a label.
#[derive(Debug, Clone)]
struct HealthKeys {
    /// Indexed by `DegradeReason as usize`.
    degradations: [String; 3],
    rearms: String,
    budget_suppressions: String,
    counterattack_successes: String,
    counterattack_failures: String,
}

impl HealthKeys {
    fn for_node(node: u32) -> Self {
        let reasons = [
            DegradeReason::CounterattackFailures,
            DegradeReason::MissedTicks,
            DegradeReason::SyncLoss,
        ];
        HealthKeys {
            degradations: reasons.map(|reason| {
                let why = degrade_reason_label(reason);
                format!("michican_degradations_total{{node=\"{node}\",reason=\"{why}\"}}")
            }),
            rearms: format!("michican_rearms_total{{node=\"{node}\"}}"),
            budget_suppressions: format!("michican_budget_suppressions_total{{node=\"{node}\"}}"),
            counterattack_successes: format!(
                "michican_counterattack_success_total{{node=\"{node}\"}}"
            ),
            counterattack_failures: format!(
                "michican_counterattack_failure_total{{node=\"{node}\"}}"
            ),
        }
    }
}

impl SupervisedMichiCan {
    /// Wraps `handler` with a watchdog using typical sync parameters for
    /// the handler's bus speed.
    pub fn new(handler: MichiCan, config: HealthConfig, sync: SyncConfig) -> Self {
        SupervisedMichiCan {
            handler,
            config,
            sync: SoftSync::new(sync),
            stats: HealthStats::default(),
            state: HealthState::Armed,
            backoff_exponent: 0,
            armed_clean_streak: 0,
            consecutive_failures: 0,
            last_tick: None,
            window_missed: 0,
            missed_window_start: 0,
            idle_run: MIN_INTERFRAME_RECESSIVE as u32,
            watch_deadline: None,
            watch_recessive_run: 0,
            episode_window_start: 0,
            episodes_in_window: 0,
            fault_epoch: 0,
            frame_epoch: 0,
            in_frame: false,
            recorder: Recorder::disabled(),
            keys: None,
            journal: Journal::disabled(),
            node_label: 0,
        }
    }

    /// Attaches a metrics recorder to the watchdog *and* the wrapped
    /// handler; `node` is the index used in metric labels.
    pub fn set_recorder(&mut self, recorder: Recorder, node: u32) {
        self.handler.set_recorder(recorder.clone(), node);
        self.keys = recorder.is_enabled().then(|| HealthKeys::for_node(node));
        self.recorder = recorder;
        self.node_label = node;
    }

    /// Attaches a causal event journal to the watchdog *and* the wrapped
    /// handler; degrade/re-arm transitions join the bus frame's causal
    /// chain so an episode reconstructs end to end.
    pub fn set_journal(&mut self, journal: Journal, node: u32) {
        self.handler.set_journal(journal.clone(), node);
        self.journal = journal;
        self.node_label = node;
    }

    /// The wrapped handler.
    pub fn handler(&self) -> &MichiCan {
        &self.handler
    }

    /// The watchdog statistics.
    pub fn stats(&self) -> &HealthStats {
        &self.stats
    }

    /// The current prevention state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Whether prevention is currently active (armed and within budget).
    pub fn prevention_active(&self) -> bool {
        self.handler.config().prevention_enabled
    }

    /// The current re-arm requirement (`N = base · 2^k`, capped).
    fn rearm_requirement(&self) -> u32 {
        let k = self.backoff_exponent.min(self.config.max_backoff_exponent);
        self.config.rearm_clean_frames.saturating_mul(1 << k)
    }

    fn sync_handler_prevention(&mut self) {
        let armed = matches!(self.state, HealthState::Armed);
        let within_budget = self.episodes_in_window < self.config.max_episodes_per_window;
        self.handler.set_prevention(armed && within_budget);
    }

    fn record_fault(&mut self) {
        self.fault_epoch += 1;
    }

    fn degrade(&mut self, reason: DegradeReason) {
        self.record_fault();
        if let HealthState::DetectOnly { seen, .. } = &mut self.state {
            // Already degraded: restart the clean-frame count; the
            // backoff does not double again until the next armed episode.
            *seen = 0;
            return;
        }
        self.stats.degradations += 1;
        self.stats.degrade_reasons.push(reason);
        let why = degrade_reason_label(reason);
        if let Some(keys) = &self.keys {
            self.recorder.inc(&keys.degradations[reason as usize]);
        }
        if self.journal.is_enabled() {
            self.journal.event(
                self.last_tick.unwrap_or(0),
                self.node_label,
                JournalKind::Degraded,
                why,
            );
        }
        self.state = HealthState::DetectOnly {
            needed: self.rearm_requirement(),
            seen: 0,
        };
        self.backoff_exponent = (self.backoff_exponent + 1).min(self.config.max_backoff_exponent);
        self.consecutive_failures = 0;
        self.watch_deadline = None;
        self.sync_handler_prevention();
    }

    fn rearm(&mut self) {
        self.stats.rearms += 1;
        if let Some(keys) = &self.keys {
            self.recorder.inc(&keys.rearms);
        }
        if self.journal.is_enabled() {
            self.journal.event(
                self.last_tick.unwrap_or(0),
                self.node_label,
                JournalKind::Rearmed,
                "",
            );
        }
        self.state = HealthState::Armed;
        self.armed_clean_streak = 0;
        self.consecutive_failures = 0;
        self.sync_handler_prevention();
    }

    /// Accounts for the frame that just ended (a new SOF was observed).
    fn close_frame(&mut self) {
        if !self.in_frame {
            return;
        }
        let clean = self.fault_epoch == self.frame_epoch;
        if clean {
            self.stats.clean_frames += 1;
            match &mut self.state {
                HealthState::DetectOnly { needed, seen } => {
                    *seen += 1;
                    if *seen >= *needed {
                        self.rearm();
                    }
                }
                HealthState::Armed => {
                    self.armed_clean_streak = self.armed_clean_streak.saturating_add(1);
                    if self.armed_clean_streak >= self.config.backoff_reset_frames {
                        self.backoff_exponent = 0;
                    }
                }
            }
        } else if let HealthState::DetectOnly { seen, .. } = &mut self.state {
            *seen = 0;
        }
    }

    fn track_missed_ticks(&mut self, now: u64) {
        if now.saturating_sub(self.missed_window_start) >= self.config.missed_tick_window {
            self.missed_window_start = now;
            self.window_missed = 0;
        }
        if let Some(last) = self.last_tick {
            let gap = now.saturating_sub(last).saturating_sub(1);
            if gap > 0 {
                self.stats.missed_ticks += gap;
                self.window_missed = self
                    .window_missed
                    .saturating_add(gap.min(u32::MAX as u64) as u32);
                self.record_fault();
                if self.in_frame {
                    // The timer free-ran through the gap: drift accumulated.
                    for _ in 0..gap.min(10_000) {
                        self.sync.advance_bit();
                    }
                }
                if self.window_missed > self.config.max_missed_ticks {
                    self.degrade(DegradeReason::MissedTicks);
                }
            }
        }
        self.last_tick = Some(now);
    }

    fn track_sync(&mut self, level: Level, _now: u64) {
        let sof_edge = level.is_dominant() && self.idle_run >= MIN_INTERFRAME_RECESSIVE as u32;
        if level.is_recessive() {
            self.idle_run = self.idle_run.saturating_add(1);
        } else {
            self.idle_run = 0;
        }
        if sof_edge {
            self.close_frame();
            self.in_frame = true;
            self.frame_epoch = self.fault_epoch;
            self.sync.hard_sync();
            return;
        }
        if !self.in_frame {
            // Bus idle: the bit timer is disarmed until the next SOF edge
            // interrupt, so no drift accumulates.
            return;
        }
        self.sync.advance_bit();
        if !self.sync.is_sample_valid() {
            self.stats.sync_losses += 1;
            // The device re-initializes its timer after detecting the
            // loss; detection of further losses re-arms from here.
            self.sync.hard_sync();
            self.degrade(DegradeReason::SyncLoss);
        }
        if self.idle_run >= MIN_INTERFRAME_RECESSIVE as u32 {
            // The frame (and its intermission) is over.
            self.close_frame();
            self.in_frame = false;
        }
    }

    fn track_episode_budget(&mut self, started: bool, released: bool, now: u64) {
        if now.saturating_sub(self.episode_window_start) >= self.config.episode_window_bits {
            self.episode_window_start = now;
            self.episodes_in_window = 0;
            self.sync_handler_prevention();
        }
        if started {
            self.episodes_in_window += 1;
            if self.episodes_in_window >= self.config.max_episodes_per_window {
                self.stats.budget_suppressions += 1;
                if let Some(keys) = &self.keys {
                    self.recorder.inc(&keys.budget_suppressions);
                }
            }
        }
        // The budget is applied when the pin is released, never mid-episode:
        // the last in-budget counterattack completes, then prevention rests
        // until the window rolls over.
        if released {
            self.sync_handler_prevention();
        }
    }

    fn track_eradication(&mut self, level: Level, released: bool, now: u64) {
        if released {
            self.watch_deadline = Some(now + self.config.eradication_horizon as u64);
            self.watch_recessive_run = 0;
        }
        let Some(deadline) = self.watch_deadline else {
            return;
        };
        if level.is_recessive() {
            self.watch_recessive_run += 1;
            if self.watch_recessive_run >= 8 {
                // Error delimiter reached: the attacked frame died.
                self.stats.counterattack_successes += 1;
                self.consecutive_failures = 0;
                self.watch_deadline = None;
                if let Some(keys) = &self.keys {
                    self.recorder.inc(&keys.counterattack_successes);
                }
                return;
            }
        } else {
            self.watch_recessive_run = 0;
        }
        if now >= deadline {
            // No error-recovery gap in time: the frame survived the
            // injection.
            self.stats.counterattack_failures += 1;
            if let Some(keys) = &self.keys {
                self.recorder.inc(&keys.counterattack_failures);
            }
            self.consecutive_failures += 1;
            self.watch_deadline = None;
            self.record_fault();
            if self.consecutive_failures >= self.config.max_counterattack_failures {
                self.degrade(DegradeReason::CounterattackFailures);
            }
        }
    }
}

/// Stable label-value for a [`DegradeReason`].
fn degrade_reason_label(reason: DegradeReason) -> &'static str {
    match reason {
        DegradeReason::CounterattackFailures => "counterattack-failures",
        DegradeReason::MissedTicks => "missed-ticks",
        DegradeReason::SyncLoss => "sync-loss",
    }
}

impl BitAgent for SupervisedMichiCan {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        let t = now.bits();
        self.track_missed_ticks(t);
        self.track_sync(level, t);

        let was_injecting = self.handler.is_injecting();
        self.handler.on_bit(level, now);
        let started = !was_injecting && self.handler.is_injecting();
        let released = was_injecting && !self.handler.is_injecting();

        self.track_episode_budget(started, released, t);
        self.track_eradication(level, released, t);
    }

    fn tx_level(&self) -> Option<Level> {
        self.handler.tx_level()
    }

    fn set_own_transmission(&mut self, transmitting: bool) {
        self.handler.set_own_transmission(transmitting);
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        // Between frames with no eradication watch open, a recessive bit
        // only counts: the idle run, the tick timestamp and the two
        // window rollovers, all closed-form in `skip_idle`. The handler
        // must be quiet too (hunting a SOF, not injecting).
        if self.in_frame || self.watch_deadline.is_some() {
            return Some(now);
        }
        self.handler.next_activity(now)
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        // Supervision only gates whether the inner handler runs; it never
        // drives the bus itself, so the handler's promise is ours.
        self.handler.drive_horizon(now)
    }

    fn drive_until(&self, now: BitInstant) -> BitInstant {
        // The handler's forced run holds only while the watchdog leaves
        // prevention on. Inside the run the ticks are contiguous and every
        // sample is dominant, so the watchdog can only withdraw prevention
        // at a missed tick or a SOF edge on the first bit (closing a frame
        // may re-arm under an exhausted budget), at a sync loss, at the
        // deadline of an eradication watch still open, or at an
        // episode-window rollover. The run stops before the first bit
        // where one of them could fire.
        let t = now.bits();
        let mut until = self.handler.drive_until(now).bits();
        let gap = self.last_tick.is_some_and(|last| t > last + 1);
        if until <= t || gap || self.idle_run >= MIN_INTERFRAME_RECESSIVE as u32 {
            return now;
        }
        if let Some(deadline) = self.watch_deadline {
            until = until.min(deadline);
        }
        let rollover = self
            .episode_window_start
            .saturating_add(self.config.episode_window_bits);
        until = until.min(rollover);
        if self.in_frame {
            let mut sync = self.sync.clone();
            if let Some(lost) = (t..until).find(|_| {
                sync.advance_bit();
                !sync.is_sample_valid()
            }) {
                until = lost;
            }
        }
        BitInstant::from_bits(until.max(t))
    }

    fn skip_idle(&mut self, bits: u64, from: BitInstant) {
        if bits == 0 {
            return;
        }
        // The first tick may follow a gap (a crashed MCU's frozen timer),
        // whose missed-tick accounting may degrade: run it as a normal bit.
        self.set_own_transmission(false);
        self.on_bit(Level::Recessive, from);
        let rest = bits - 1;
        if rest == 0 {
            return;
        }
        // The remaining ticks `first..=last` are contiguous recessive bits
        // outside a frame: no gap, no SOF, no episode, no watch.
        debug_assert!(!self.in_frame && self.watch_deadline.is_none());
        let first = from.bits() + 1;
        let last = from.bits() + rest;
        if let Some(start) = window_start_after(
            self.missed_window_start,
            self.config.missed_tick_window,
            first,
            last,
        ) {
            self.missed_window_start = start;
            self.window_missed = 0;
        }
        if let Some(start) = window_start_after(
            self.episode_window_start,
            self.config.episode_window_bits,
            first,
            last,
        ) {
            self.episode_window_start = start;
            self.episodes_in_window = 0;
            self.sync_handler_prevention();
        }
        self.idle_run = self
            .idle_run
            .saturating_add(u32::try_from(rest).unwrap_or(u32::MAX));
        self.last_tick = Some(last);
        self.handler.skip_idle(rest, BitInstant::from_bits(first));
    }
}

/// The start of a `window`-bit accounting window after the contiguous
/// ticks `first..=last`, or `None` when none of them rolls it over.
///
/// Per tick `t`, the window restarts at `t` once `t - start >= window`
/// (saturating), as in `track_missed_ticks` and `track_episode_budget`.
fn window_start_after(start: u64, window: u64, first: u64, last: u64) -> Option<u64> {
    if window == 0 {
        // Every tick rolls the window over.
        return Some(last);
    }
    let roll = start.checked_add(window)?.max(first);
    (roll <= last).then(|| roll + (last - roll) / window * window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcuList;
    use crate::fsm::DetectionFsm;
    use can_core::bitstream::stuff_frame;
    use can_core::{BusSpeed, CanFrame, CanId};

    fn supervised(config: HealthConfig) -> SupervisedMichiCan {
        let list = EcuList::from_raw(&[0x173]);
        SupervisedMichiCan::new(
            MichiCan::new(DetectionFsm::for_ecu(&list, 0)),
            config,
            SyncConfig::typical(BusSpeed::K500),
        )
    }

    /// Feeds idle + an attack frame; if the supervisor injects, feeds what
    /// the bus would show (dominant during injection, then error flag +
    /// delimiter if `eradicated`, else the rest of the frame).
    fn feed_attack(agent: &mut SupervisedMichiCan, t: &mut u64, eradicated: bool) -> bool {
        for _ in 0..12 {
            agent.on_bit(Level::Recessive, BitInstant::from_bits(*t));
            *t += 1;
        }
        let attack = CanFrame::data_frame(CanId::from_raw(0x064), &[0; 8]).unwrap();
        let wire = stuff_frame(&attack);
        let mut injected = false;
        let mut i = 0;
        while i < wire.bits.len() {
            if agent.handler().is_injecting() {
                injected = true;
                break;
            }
            agent.on_bit(wire.bits[i], BitInstant::from_bits(*t));
            *t += 1;
            i += 1;
        }
        if !injected {
            return false;
        }
        // Injection in progress: the bus shows dominant while the pin is
        // held.
        while agent.handler().is_injecting() {
            agent.on_bit(Level::Dominant, BitInstant::from_bits(*t));
            *t += 1;
        }
        if eradicated {
            // Attacker's error flag (6 dominant) then delimiter (8
            // recessive) — the expected recovery gap.
            for _ in 0..6 {
                agent.on_bit(Level::Dominant, BitInstant::from_bits(*t));
                *t += 1;
            }
            for _ in 0..8 {
                agent.on_bit(Level::Recessive, BitInstant::from_bits(*t));
                *t += 1;
            }
        } else {
            // The frame shrugs the injection off and keeps toggling well
            // past the horizon (no ≥8-bit recessive gap).
            for k in 0..40u64 {
                let lvl = if k % 4 == 0 {
                    Level::Recessive
                } else {
                    Level::Dominant
                };
                agent.on_bit(lvl, BitInstant::from_bits(*t));
                *t += 1;
            }
        }
        true
    }

    fn feed_benign_frame(agent: &mut SupervisedMichiCan, t: &mut u64) {
        for _ in 0..12 {
            agent.on_bit(Level::Recessive, BitInstant::from_bits(*t));
            *t += 1;
        }
        let benign = CanFrame::data_frame(CanId::from_raw(0x173), &[1, 2]).unwrap();
        agent.set_own_transmission(true);
        for &bit in &stuff_frame(&benign).bits {
            agent.on_bit(bit, BitInstant::from_bits(*t));
            *t += 1;
        }
        agent.set_own_transmission(false);
    }

    #[test]
    fn successful_counterattacks_stay_armed() {
        let mut agent = supervised(HealthConfig::default());
        let mut t = 0;
        for _ in 0..5 {
            assert!(feed_attack(&mut agent, &mut t, true));
        }
        assert_eq!(agent.stats().counterattack_successes, 5);
        assert_eq!(agent.stats().counterattack_failures, 0);
        assert_eq!(agent.state(), HealthState::Armed);
        assert!(agent.prevention_active());
    }

    #[test]
    fn repeated_failures_degrade_to_detect_only() {
        let config = HealthConfig {
            max_counterattack_failures: 3,
            ..HealthConfig::default()
        };
        let mut agent = supervised(config);
        let mut t = 0;
        for _ in 0..3 {
            assert!(feed_attack(&mut agent, &mut t, false));
        }
        assert_eq!(agent.stats().counterattack_failures, 3);
        assert!(matches!(agent.state(), HealthState::DetectOnly { .. }));
        assert!(!agent.prevention_active());
        assert_eq!(
            agent.stats().degrade_reasons,
            vec![DegradeReason::CounterattackFailures]
        );
        // Detect-only: the next attack is detected but not injected.
        assert!(!feed_attack(&mut agent, &mut t, false));
        assert!(agent.handler().stats().attacks_detected > 3);
    }

    #[test]
    fn clean_frames_rearm_with_backoff() {
        let config = HealthConfig {
            max_counterattack_failures: 1,
            rearm_clean_frames: 4,
            ..HealthConfig::default()
        };
        let mut agent = supervised(config);
        let mut t = 0;
        assert!(feed_attack(&mut agent, &mut t, false));
        assert!(matches!(
            agent.state(),
            HealthState::DetectOnly { needed: 4, .. }
        ));

        // Four clean frames + the SOF of a fifth close them out.
        for _ in 0..5 {
            feed_benign_frame(&mut agent, &mut t);
        }
        assert_eq!(agent.state(), HealthState::Armed);
        assert_eq!(agent.stats().rearms, 1);
        assert!(agent.prevention_active());

        // Second degradation: the requirement doubles.
        assert!(feed_attack(&mut agent, &mut t, false));
        assert!(matches!(
            agent.state(),
            HealthState::DetectOnly { needed: 8, .. }
        ));
    }

    #[test]
    fn backoff_requirement_is_capped() {
        let config = HealthConfig {
            rearm_clean_frames: 8,
            max_backoff_exponent: 3,
            ..HealthConfig::default()
        };
        let mut agent = supervised(config);
        agent.backoff_exponent = 40; // simulate many degradations
        assert_eq!(agent.rearm_requirement(), 8 * 8);
    }

    #[test]
    fn missed_ticks_trigger_degradation() {
        let config = HealthConfig {
            max_missed_ticks: 4,
            missed_tick_window: 10_000,
            ..HealthConfig::default()
        };
        let mut agent = supervised(config);
        let mut t = 0u64;
        // Healthy ticks.
        for _ in 0..20 {
            agent.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        assert!(agent.prevention_active());
        // Five separate one-bit gaps.
        for _ in 0..5 {
            t += 1; // the missing tick
            agent.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        assert_eq!(agent.stats().missed_ticks, 5);
        assert!(matches!(agent.state(), HealthState::DetectOnly { .. }));
        assert_eq!(
            agent.stats().degrade_reasons,
            vec![DegradeReason::MissedTicks]
        );
    }

    #[test]
    fn sync_loss_within_an_overlong_frame_degrades() {
        // A defender with a terrible oscillator hard-syncs at SOF but
        // drifts out of the bit inside a long frame with no further sync
        // edges. (On an idle bus the timer is disarmed, so drift only
        // matters between a SOF and the positions the defense samples.)
        let list = EcuList::from_raw(&[0x173]);
        let mut agent = SupervisedMichiCan::new(
            MichiCan::new(DetectionFsm::for_ecu(&list, 0)),
            HealthConfig {
                // Keep counterattack accounting out of this test's way.
                max_counterattack_failures: u32::MAX,
                ..HealthConfig::default()
            },
            SyncConfig {
                speed: BusSpeed::K500,
                drift_ppm: 5_000.0,
                sample_point: 0.70,
                fudge_ns: 0.0,
            },
        );
        let mut t = 0u64;
        for _ in 0..12 {
            agent.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        agent.on_bit(Level::Dominant, BitInstant::from_bits(t)); // SOF
        t += 1;
        // (1 - 0.7) / 0.005 = 60 bits to the edge; keep the frame busy
        // (never 11 consecutive recessive) so the timer stays armed.
        for k in 0..120u64 {
            let lvl = if k % 3 == 0 {
                Level::Dominant
            } else {
                Level::Recessive
            };
            agent.on_bit(lvl, BitInstant::from_bits(t));
            t += 1;
        }
        assert!(agent.stats().sync_losses >= 1);
        assert!(matches!(agent.state(), HealthState::DetectOnly { .. }));
        assert!(agent
            .stats()
            .degrade_reasons
            .contains(&DegradeReason::SyncLoss));
    }

    #[test]
    fn idle_bus_never_desyncs() {
        // Between frames the bit timer is disarmed (it re-arms on the SOF
        // edge interrupt), so arbitrarily long idle must not degrade even
        // a high-drift oscillator.
        let list = EcuList::from_raw(&[0x173]);
        let mut agent = SupervisedMichiCan::new(
            MichiCan::new(DetectionFsm::for_ecu(&list, 0)),
            HealthConfig::default(),
            SyncConfig {
                speed: BusSpeed::K500,
                drift_ppm: 5_000.0,
                sample_point: 0.70,
                fudge_ns: 0.0,
            },
        );
        for t in 0..10_000u64 {
            agent.on_bit(Level::Recessive, BitInstant::from_bits(t));
        }
        assert_eq!(agent.stats().sync_losses, 0);
        assert_eq!(agent.state(), HealthState::Armed);
    }

    #[test]
    fn episode_budget_bounds_injection_rate() {
        let config = HealthConfig {
            episode_window_bits: 10_000,
            max_episodes_per_window: 3,
            // Failures must not degrade in this test.
            max_counterattack_failures: u32::MAX,
            ..HealthConfig::default()
        };
        let mut agent = supervised(config);
        let mut t = 0;
        let mut injected = 0;
        for _ in 0..10 {
            if feed_attack(&mut agent, &mut t, true) {
                injected += 1;
            }
        }
        assert_eq!(injected, 3, "budget caps episodes per window");
        assert!(agent.stats().budget_suppressions >= 1);
        assert_eq!(
            agent.state(),
            HealthState::Armed,
            "budget exhaustion is not a degradation"
        );
        // A new window restores the budget. The bus idles into the next
        // window with contiguous ticks (a timestamp jump would — rightly —
        // look like a dead timer to the watchdog).
        for _ in 0..10_001u64 {
            agent.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        assert!(feed_attack(&mut agent, &mut t, true));
    }

    #[test]
    fn injection_duty_stays_below_parrot() {
        // Parrot answers every spoof with a full counter-frame: under
        // saturation it adds ≥ 50 % bus load. The budget's worst case must
        // stay clearly below that.
        let config = HealthConfig::default();
        assert!(config.max_injection_duty() < 0.5);
        assert!(config.max_injection_duty() > 0.0);
    }

    #[test]
    fn healthy_streak_resets_backoff() {
        let config = HealthConfig {
            max_counterattack_failures: 1,
            rearm_clean_frames: 2,
            backoff_reset_frames: 4,
            ..HealthConfig::default()
        };
        let mut agent = supervised(config);
        let mut t = 0;
        assert!(feed_attack(&mut agent, &mut t, false));
        for _ in 0..3 {
            feed_benign_frame(&mut agent, &mut t);
        }
        assert_eq!(agent.state(), HealthState::Armed);
        assert_eq!(agent.rearm_requirement(), 4, "backoff doubled once");
        // A long healthy streak resets the requirement to base.
        for _ in 0..6 {
            feed_benign_frame(&mut agent, &mut t);
        }
        assert_eq!(agent.rearm_requirement(), 2);
    }

    #[test]
    fn recorder_captures_watchdog_events() {
        let config = HealthConfig {
            max_counterattack_failures: 1,
            rearm_clean_frames: 2,
            ..HealthConfig::default()
        };
        let mut agent = supervised(config);
        let recorder = Recorder::enabled();
        agent.set_recorder(recorder.clone(), 0);
        let mut t = 0;
        assert!(feed_attack(&mut agent, &mut t, false));
        for _ in 0..3 {
            feed_benign_frame(&mut agent, &mut t);
        }
        assert_eq!(agent.state(), HealthState::Armed);
        let reg = recorder.into_registry();
        assert_eq!(
            reg.counter(
                "michican_degradations_total{node=\"0\",reason=\"counterattack-failures\"}"
            ),
            1
        );
        assert_eq!(reg.counter("michican_rearms_total{node=\"0\"}"), 1);
        assert_eq!(
            reg.counter("michican_counterattack_failure_total{node=\"0\"}"),
            1
        );
        // The wrapped handler shares the recorder.
        assert_eq!(reg.counter("michican_detections_total{node=\"0\"}"), 1);
    }

    #[test]
    fn journal_captures_degrade_and_rearm() {
        let config = HealthConfig {
            max_counterattack_failures: 1,
            rearm_clean_frames: 2,
            ..HealthConfig::default()
        };
        let mut agent = supervised(config);
        let journal = Journal::enabled();
        agent.set_journal(journal.clone(), 0);
        let mut t = 0;
        assert!(feed_attack(&mut agent, &mut t, false));
        for _ in 0..3 {
            feed_benign_frame(&mut agent, &mut t);
        }
        assert_eq!(agent.state(), HealthState::Armed);
        let export = journal.export_jsonl();
        let kind = |kind: JournalKind| format!("\"kind\":\"{kind}\"");
        assert!(export.contains(&kind(JournalKind::Degraded)));
        assert!(export.contains("counterattack-failures"));
        assert!(export.contains(&kind(JournalKind::Rearmed)));
        // The wrapped handler shares the journal.
        assert!(export.contains(&kind(JournalKind::InjectionStart)));
    }

    #[test]
    fn busy_while_a_frame_or_eradication_watch_is_open() {
        let config = HealthConfig {
            max_counterattack_failures: 1,
            rearm_clean_frames: 2,
            ..HealthConfig::default()
        };
        let mut agent = supervised(config);
        let mut t = 0u64;
        let (mut open_bits, mut watch_bits, mut quiet_bits) = (0, 0, 0);
        let mut bit = |agent: &mut SupervisedMichiCan, level: Level| {
            let now = BitInstant::from_bits(t);
            let open = agent.in_frame || agent.watch_deadline.is_some();
            if open {
                assert_eq!(agent.next_activity(now), Some(now), "busy at {t}");
                open_bits += 1;
                watch_bits += u32::from(agent.watch_deadline.is_some());
            } else if agent.next_activity(now).is_none() {
                quiet_bits += 1;
            }
            let bus = level & agent.tx_level().unwrap_or(Level::Recessive);
            agent.on_bit(bus, now);
            t += 1;
        };
        let attack = CanFrame::data_frame(CanId::from_raw(0x064), &[0; 8]).unwrap();
        let benign = CanFrame::data_frame(CanId::from_raw(0x173), &[1, 2]).unwrap();
        for round in 0..6 {
            (0..20).for_each(|_| bit(&mut agent, Level::Recessive));
            let frame = if round % 3 == 2 { &benign } else { &attack };
            for &level in &stuff_frame(frame).bits {
                bit(&mut agent, level);
            }
            // Eradicated on even rounds: the attacker's error flag and
            // delimiter; otherwise the bus keeps toggling.
            for k in 0..30 {
                let level = if round % 2 == 0 && (6..14).contains(&k) || k % 4 == 0 {
                    Level::Recessive
                } else {
                    Level::Dominant
                };
                bit(&mut agent, level);
            }
        }
        assert!(open_bits > 0 && watch_bits > 0 && quiet_bits > 0);
    }

    #[test]
    fn passthrough_of_agent_contract() {
        let mut agent = supervised(HealthConfig::default());
        assert_eq!(agent.tx_level(), None);
        agent.set_own_transmission(true);
        agent.on_bit(Level::Recessive, BitInstant::ZERO);
        assert_eq!(agent.tx_level(), None);
    }
}
