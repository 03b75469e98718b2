//! The MichiCAN interrupt handler — Algorithm 1 of the paper.
//!
//! One invocation per nominal bit time (on hardware: a timer interrupt
//! resynchronized at each SOF, §IV-C; in simulation: one
//! [`BitAgent::on_bit`] call). Per invocation the handler:
//!
//! 1. reads `CAN_RX` (the sampled bus level),
//! 2. hunts for a SOF — a falling edge after ≥ 11 recessive bits — when
//!    outside a frame,
//! 3. inside a frame, removes stuff bits and tracks the destuffed bit
//!    position `cnt` (SOF = position 1),
//! 4. runs the detection FSM over the 11 identifier bits (positions 2–12),
//!    stopping as soon as it decides,
//! 5. on a malicious verdict, enables `CAN_TX` multiplexing at position 13
//!    (the RTR bit) and pulls the bus dominant until position 20,
//!    provoking a bit or stuff error in the attacker's transmission,
//! 6. at position 20 releases the pin and returns to SOF hunting (bit
//!    stuffing guarantees no false SOF inside the remainder of a frame).
//!
//! The published pseudocode's stuff-bit bookkeeping (lines 6–15) contains
//! index ambiguities; this implementation follows the *described* behaviour
//! of §IV-D ("MichiCAN needs to remove [stuff bits] before appending them
//! to a frame array") using the same destuffing rule as a CAN controller.
//! Steps 2, 3 and 6 are the wire front end
//! [`can_core::watch::PositionTracker`], which the CANnon-style ghost
//! attacker shares; this module is the policy on top of it.
//!
//! A packed stretch, or an idle gap through the trait's default
//! [`BitAgent::skip_idle`], reaches the handler in
//! [`BitAgent::observe_stretch`] calls. Its hunting bits only count a
//! recessive run, so the tracker hunts them a word at a time; the frame
//! bits from the SOF to position 20 take the per-bit path, so every FSM
//! step, injection and journal event keeps its bit time.

use can_core::agent::BitAgent;
use can_core::watch::{self, Hunt, PositionTracker, Tracked};
use can_core::{BitDuration, BitInstant, Level};
use can_obs::{Journal, JournalKind, Recorder};

use crate::fsm::{DetectionFsm, FsmCursor, FsmStep};

/// Destuffed frame position of the RTR bit (SOF = 1): where the
/// counterattack starts.
pub const COUNTERATTACK_START: u32 = 13;

/// Destuffed frame position at which the counterattack releases the bus.
pub const COUNTERATTACK_END: u32 = 20;

/// Tuning knobs of a [`MichiCan`] instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MichiCanConfig {
    /// When `false`, the handler only detects (IDS mode) and never touches
    /// `CAN_TX`.
    pub prevention_enabled: bool,
    /// Destuffed position at which the counterattack starts (default: the
    /// RTR bit, 13).
    pub counterattack_start: u32,
    /// Destuffed position at which the counterattack ends (default 20).
    /// `tests/busoff_ladder.rs` pins the injection-width ablation over it.
    pub counterattack_end: u32,
}

impl Default for MichiCanConfig {
    fn default() -> Self {
        MichiCanConfig {
            prevention_enabled: true,
            counterattack_start: COUNTERATTACK_START,
            counterattack_end: COUNTERATTACK_END,
        }
    }
}

/// Running counters of a [`MichiCan`] instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MichiCanStats {
    /// Frames whose SOF was observed.
    pub frames_monitored: u64,
    /// Frames flagged malicious by the FSM.
    pub attacks_detected: u64,
    /// Counterattacks actually launched (prevention enabled, not own
    /// transmission).
    pub counterattacks: u64,
    /// Detections suppressed because the node itself was transmitting.
    pub suppressed_own: u64,
    /// FSM decision bit positions (1-based identifier bit) of each
    /// detection, for latency statistics.
    pub detection_positions: Vec<u8>,
}

impl MichiCanStats {
    /// Mean detection bit position over all detections, if any.
    pub fn mean_detection_position(&self) -> Option<f64> {
        if self.detection_positions.is_empty() {
            None
        } else {
            Some(
                self.detection_positions
                    .iter()
                    .map(|&p| p as u64)
                    .sum::<u64>() as f64
                    / self.detection_positions.len() as f64,
            )
        }
    }
}

/// The MichiCAN defense: detection FSM + synchronized bit-level
/// counterattack, implementing [`BitAgent`].
///
/// ```
/// use can_core::agent::BitAgent;
/// use can_core::{BitDuration, BitInstant, Level};
/// use michican::config::EcuList;
/// use michican::fsm::DetectionFsm;
/// use michican::handler::MichiCan;
///
/// let list = EcuList::from_raw(&[0x005, 0x00F]);
/// let mut defender = MichiCan::new(DetectionFsm::for_ecu(&list, 1));
/// // Feed an idle bus: the defender never drives.
/// for t in 0..20 {
///     defender.on_bit(Level::Recessive, BitInstant::from_bits(t));
///     assert!(defender.tx_level().is_none());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct MichiCan {
    fsm: DetectionFsm,
    config: MichiCanConfig,
    /// SOF hunt and destuffed frame position (`cnt_sof`, `cnt`).
    tracker: PositionTracker,
    cursor: FsmCursor,
    /// Algorithm 1's malicious flag.
    start_counterattack: bool,
    /// `CAN_TX` multiplexing currently enabled and driven dominant.
    injecting: bool,
    own_transmission: bool,
    stats: MichiCanStats,
    /// Metrics sink; disabled (no-op) by default.
    recorder: Recorder,
    /// Causal event journal; disabled (no-op) by default and independent
    /// of the recorder — either sink can be enabled without the other.
    journal: Journal,
    /// Node index used in metric labels and journal events.
    node_label: u32,
    /// Metric keys interned once in [`MichiCan::set_recorder`], so the
    /// per-bit hot path never formats label strings. `Some` iff the
    /// recorder is enabled.
    keys: Option<MetricKeys>,
    /// Bit time of the pending detection, for the detection→injection
    /// reaction-latency histogram. Only maintained when recording.
    detected_at: Option<u64>,
}

/// Pre-formatted metric key strings. Several are incremented per frame or
/// per FSM step, so the label `format!` must happen once, not per event —
/// the key *text* is unchanged, keeping metric snapshots byte-identical.
#[derive(Debug, Clone)]
struct MetricKeys {
    frames_monitored: String,
    fsm_steps: String,
    suppressed_own: String,
    detections: String,
    detection_position: String,
    counterattacks: String,
    reaction_latency: String,
}

impl MetricKeys {
    fn for_node(node: u32) -> Self {
        MetricKeys {
            frames_monitored: format!("michican_frames_monitored_total{{node=\"{node}\"}}"),
            fsm_steps: format!("michican_fsm_steps_total{{node=\"{node}\"}}"),
            suppressed_own: format!("michican_suppressed_own_total{{node=\"{node}\"}}"),
            detections: format!("michican_detections_total{{node=\"{node}\"}}"),
            detection_position: format!("michican_detection_position_bits{{node=\"{node}\"}}"),
            counterattacks: format!("michican_counterattacks_total{{node=\"{node}\"}}"),
            reaction_latency: format!("michican_reaction_latency_bits{{node=\"{node}\"}}"),
        }
    }
}

impl MichiCan {
    /// Creates a defender with the default configuration.
    pub fn new(fsm: DetectionFsm) -> Self {
        Self::with_config(fsm, MichiCanConfig::default())
    }

    /// Creates a defender with an explicit configuration.
    pub fn with_config(fsm: DetectionFsm, config: MichiCanConfig) -> Self {
        let cursor = fsm.start();
        MichiCan {
            fsm,
            config,
            tracker: PositionTracker::new(),
            cursor,
            start_counterattack: false,
            injecting: false,
            own_transmission: false,
            stats: MichiCanStats::default(),
            recorder: Recorder::disabled(),
            journal: Journal::disabled(),
            node_label: 0,
            keys: None,
            detected_at: None,
        }
    }

    /// Attaches a metrics recorder; `node` is the index used in metric
    /// labels (`michican_*{node="<node>"}`). The
    /// reaction-latency histogram is declared up front so it appears in
    /// snapshots even before the first detection.
    pub fn set_recorder(&mut self, recorder: Recorder, node: u32) {
        if recorder.is_enabled() {
            let keys = MetricKeys::for_node(node);
            recorder.declare_histogram(&keys.reaction_latency, can_obs::DEFAULT_BUCKETS);
            self.keys = Some(keys);
        } else {
            self.keys = None;
        }
        self.recorder = recorder;
        self.node_label = node;
    }

    /// Attaches a causal event journal; `node` is the index stamped on
    /// journal events. Detection and injection-window events are emitted
    /// with the current bus frame's causal ids, so a whole
    /// strike→detection→counterattack episode shares one `chain_id`.
    pub fn set_journal(&mut self, journal: Journal, node: u32) {
        self.journal = journal;
        self.node_label = node;
    }

    /// The attached recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &MichiCanStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &MichiCanConfig {
        &self.config
    }

    /// Enables or disables prevention at runtime. Disabling releases the
    /// `CAN_TX` pin immediately; detection keeps running (IDS mode). Used
    /// by the health watchdog to fall back to detect-only mode.
    pub fn set_prevention(&mut self, enabled: bool) {
        self.config.prevention_enabled = enabled;
        if !enabled {
            self.injecting = false;
        }
    }

    /// Whether a counterattack is in progress (the `CAN_TX` pin is
    /// multiplexed and pulled dominant).
    pub fn is_injecting(&self) -> bool {
        self.injecting
    }

    /// The detection FSM in use.
    pub fn fsm(&self) -> &DetectionFsm {
        &self.fsm
    }

    /// Whether the handler is hunting a SOF (not parsing a frame).
    pub(crate) fn is_hunting(&self) -> bool {
        self.tracker.is_hunting()
    }

    /// The SOF hunt, while the handler is hunting.
    pub(crate) fn hunting(&mut self) -> Option<&mut Hunt> {
        self.tracker.hunting()
    }

    fn enter_frame(&mut self) {
        self.cursor = self.fsm.start();
        self.start_counterattack = false;
        self.stats.frames_monitored += 1;
        if let Some(keys) = &self.keys {
            self.recorder.inc(&keys.frames_monitored);
        }
    }

    fn leave_frame(&mut self) {
        self.tracker.leave();
        self.injecting = false;
    }

    /// One destuffed frame bit, at the tracker's position `cnt`.
    fn handle_frame_bit(&mut self, level: Level, now: BitInstant) {
        let cnt = self.tracker.cnt();
        // Identifier bits occupy destuffed positions 2..=12. The FSM stops
        // running as soon as it decides (Algorithm 1 line 11).
        if (2..=12).contains(&cnt) && self.cursor.decision().is_none() {
            let step = self.fsm.step(&mut self.cursor, level);
            if let Some(keys) = &self.keys {
                self.recorder.inc(&keys.fsm_steps);
            }
            if let FsmStep::Malicious = step {
                if self.own_transmission {
                    // The frame on the bus is this ECU's own transmission
                    // (e.g. its periodic 0x173): never self-attack.
                    self.stats.suppressed_own += 1;
                    if let Some(keys) = &self.keys {
                        self.recorder.inc(&keys.suppressed_own);
                    }
                } else {
                    self.start_counterattack = true;
                    self.stats.attacks_detected += 1;
                    let position = self.cursor.bits_consumed();
                    self.stats.detection_positions.push(position);
                    if let Some(keys) = &self.keys {
                        self.recorder.inc(&keys.detections);
                        self.recorder
                            .observe(&keys.detection_position, u64::from(position));
                        self.detected_at = Some(now.bits());
                    }
                    if self.journal.is_enabled() {
                        self.journal.event(
                            now.bits(),
                            self.node_label,
                            JournalKind::Detection,
                            &format!("pos={position}"),
                        );
                    }
                }
            }
        }

        if cnt == self.config.counterattack_start {
            if self.start_counterattack && !self.own_transmission {
                if self.config.prevention_enabled {
                    // Enable CAN_TX multiplexing and pull the bus low
                    // (Algorithm 1 lines 20–23).
                    self.injecting = true;
                    self.stats.counterattacks += 1;
                    if let Some(keys) = &self.keys {
                        self.recorder.inc(&keys.counterattacks);
                        if let Some(detected) = self.detected_at.take() {
                            self.recorder.observe(
                                &keys.reaction_latency,
                                now.bits().saturating_sub(detected),
                            );
                        }
                    }
                    if self.journal.is_enabled() {
                        self.journal.event(
                            now.bits(),
                            self.node_label,
                            JournalKind::InjectionStart,
                            "",
                        );
                    }
                }
                self.start_counterattack = false;
            }
        } else if cnt >= self.config.counterattack_end {
            // Disable multiplexing and finish frame processing (lines
            // 16–19). Bit stuffing guarantees no false SOF within the rest
            // of the frame.
            if self.injecting && self.journal.is_enabled() {
                self.journal
                    .event(now.bits(), self.node_label, JournalKind::InjectionEnd, "");
            }
            self.leave_frame();
        }
    }
}

impl BitAgent for MichiCan {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        match self.tracker.push(level) {
            Tracked::Sof => self.enter_frame(),
            Tracked::Bit(bit) => self.handle_frame_bit(bit, now),
            Tracked::Idle | Tracked::Held => {}
        }
    }

    fn tx_level(&self) -> Option<Level> {
        if self.injecting {
            Some(Level::Dominant)
        } else {
            None
        }
    }

    fn set_own_transmission(&mut self, transmitting: bool) {
        self.own_transmission = transmitting;
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        // An injection only runs inside a frame, so the tracker's quiet
        // test covers it.
        self.tracker.next_activity(now)
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        // While injecting, the counterattack drives dominant immediately.
        // Otherwise injection arms only inside `on_bit`, at the bit whose
        // destuffed position reaches `counterattack_start`, and drives from
        // the bit after. The bound deliberately ignores the FSM verdict,
        // `own_transmission` and `prevention_enabled`: a supervisor may
        // flip prevention inside a stretch.
        if self.injecting {
            return Some(now);
        }
        let bits = self.tracker.pushes_until(
            self.config.counterattack_start,
            self.config.counterattack_end,
        );
        Some(now + BitDuration::bits(bits))
    }

    fn drive_until(&self, now: BitInstant) -> BitInstant {
        // While injecting, the pin stays dominant up to and including the
        // sample whose destuffed count reaches `counterattack_end` (the
        // count already passed `counterattack_start`, so the next counted
        // sample past the end releases).
        if !self.injecting {
            return now;
        }
        now + BitDuration::bits(
            self.tracker
                .dominant_pushes_to(self.config.counterattack_end),
        )
    }

    fn observe_stretch(&mut self, word: u64, len: u32, own_tx: bool, from: BitInstant) {
        self.own_transmission = own_tx;
        watch::observe_hunting(self, MichiCan::hunting, word, len, from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcuList;
    use can_core::bitstream::stuff_frame;
    use can_core::{CanFrame, CanId};

    fn defender_for(list: &[u16], index: usize) -> MichiCan {
        let list = EcuList::from_raw(list);
        MichiCan::new(DetectionFsm::for_ecu(&list, index))
    }

    /// Feeds a frame's wire bits preceded by bus idle; returns the bit
    /// index (within the frame) at which injection began, if any.
    fn feed_frame(defender: &mut MichiCan, frame: &CanFrame) -> Option<usize> {
        let mut t = 0u64;
        for _ in 0..12 {
            defender.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        let wire = stuff_frame(frame);
        let mut injection_start = None;
        for (i, &bit) in wire.bits.iter().enumerate() {
            // Once injecting, the defender would see its own dominant
            // level on the bus.
            let seen = if defender.is_injecting() {
                Level::Dominant
            } else {
                bit
            };
            defender.on_bit(seen, BitInstant::from_bits(t));
            if defender.is_injecting() && injection_start.is_none() {
                injection_start = Some(i);
            }
            t += 1;
        }
        injection_start
    }

    #[test]
    fn benign_frame_is_not_attacked() {
        let mut defender = defender_for(&[0x005, 0x173], 1);
        let benign = CanFrame::data_frame(CanId::from_raw(0x005), &[1, 2, 3]).unwrap();
        assert_eq!(feed_frame(&mut defender, &benign), None);
        assert_eq!(defender.stats().frames_monitored, 1);
        assert_eq!(defender.stats().attacks_detected, 0);
    }

    #[test]
    fn spoofed_own_id_triggers_counterattack_at_rtr() {
        let mut defender = defender_for(&[0x005, 0x173], 1);
        let spoof = CanFrame::data_frame(CanId::from_raw(0x173), &[0xFF; 8]).unwrap();
        let start = feed_frame(&mut defender, &spoof).expect("must counterattack");
        // 0x173 = 00101110011: no stuff bits inside SOF+ID (max run 3), so
        // the wire index of the RTR bit is 12; injection begins when the
        // RTR sample is processed, i.e. the defender drives from the next
        // bit on. `feed_frame` observes `is_injecting` after processing
        // index `i`, so start == 12.
        assert_eq!(start, 12);
        assert_eq!(defender.stats().attacks_detected, 1);
        assert_eq!(defender.stats().counterattacks, 1);
    }

    #[test]
    fn dos_id_triggers_counterattack() {
        let mut defender = defender_for(&[0x173], 0);
        let dos = CanFrame::data_frame(CanId::from_raw(0x064), &[0; 8]).unwrap();
        assert!(feed_frame(&mut defender, &dos).is_some());
        assert_eq!(defender.stats().attacks_detected, 1);
    }

    #[test]
    fn miscellaneous_id_is_ignored() {
        let mut defender = defender_for(&[0x173], 0);
        let misc = CanFrame::data_frame(CanId::from_raw(0x500), &[0; 2]).unwrap();
        assert_eq!(feed_frame(&mut defender, &misc), None);
        assert_eq!(defender.stats().attacks_detected, 0);
    }

    #[test]
    fn injection_window_length_is_bounded() {
        let mut defender = defender_for(&[0x173], 0);
        // Idle, then attack frame; count injected bits.
        for t in 0..12 {
            defender.on_bit(Level::Recessive, BitInstant::from_bits(t));
        }
        let wire = stuff_frame(&CanFrame::data_frame(CanId::from_raw(0x064), &[0; 8]).unwrap());
        let mut injected = 0;
        for (i, &bit) in wire.bits.iter().enumerate() {
            let seen = if defender.is_injecting() {
                injected += 1;
                Level::Dominant
            } else {
                bit
            };
            defender.on_bit(seen, BitInstant::from_bits(12 + i as u64));
        }
        // §IV-E: 6 dominant bits suffice; destuffed counting across the
        // injection stretches the window slightly (stuff-skips), but it
        // must stay well below the attacker's error-flag end.
        assert!((6..=9).contains(&injected), "injected {injected} bits");
        assert!(
            !defender.is_injecting(),
            "pin released by frame position 20"
        );
    }

    #[test]
    fn own_transmission_is_never_attacked() {
        let mut defender = defender_for(&[0x173], 0);
        defender.set_own_transmission(true);
        let own = CanFrame::data_frame(CanId::from_raw(0x173), &[0x11; 8]).unwrap();
        assert_eq!(feed_frame(&mut defender, &own), None);
        assert_eq!(defender.stats().suppressed_own, 1);
        assert_eq!(defender.stats().counterattacks, 0);
    }

    #[test]
    fn detection_only_mode_never_drives() {
        let list = EcuList::from_raw(&[0x173]);
        let mut ids_mode = MichiCan::with_config(
            DetectionFsm::for_ecu(&list, 0),
            MichiCanConfig {
                prevention_enabled: false,
                ..MichiCanConfig::default()
            },
        );
        let dos = CanFrame::data_frame(CanId::from_raw(0x001), &[0; 8]).unwrap();
        assert_eq!(feed_frame(&mut ids_mode, &dos), None);
        assert_eq!(ids_mode.stats().attacks_detected, 1, "still detects");
        assert_eq!(ids_mode.stats().counterattacks, 0);
    }

    #[test]
    fn sof_requires_eleven_recessive_bits() {
        let mut defender = defender_for(&[0x173], 0);
        // Only 5 idle bits before a dominant edge: not a SOF.
        for t in 0..5 {
            defender.on_bit(Level::Recessive, BitInstant::from_bits(t));
        }
        defender.on_bit(Level::Dominant, BitInstant::from_bits(5));
        assert_eq!(defender.stats().frames_monitored, 0);
        // Now a proper gap: SOF recognized.
        for t in 6..18 {
            defender.on_bit(Level::Recessive, BitInstant::from_bits(t));
        }
        defender.on_bit(Level::Dominant, BitInstant::from_bits(18));
        assert_eq!(defender.stats().frames_monitored, 1);
    }

    #[test]
    fn handler_rearms_for_retransmissions() {
        // Detect, inject, then see the attacker's error frame and the
        // retransmission — the handler must detect again.
        let mut defender = defender_for(&[0x173], 0);
        let attack = CanFrame::data_frame(CanId::from_raw(0x064), &[0; 8]).unwrap();
        assert!(feed_frame(&mut defender, &attack).is_some());
        // Error flag (6 dominant) + delimiter (8 recessive) + IFS (3).
        let mut t = 1000;
        for _ in 0..6 {
            defender.on_bit(Level::Dominant, BitInstant::from_bits(t));
            t += 1;
        }
        for _ in 0..11 {
            defender.on_bit(Level::Recessive, BitInstant::from_bits(t));
            t += 1;
        }
        // Retransmission.
        let wire = stuff_frame(&attack);
        for &bit in &wire.bits[..14] {
            let seen = if defender.is_injecting() {
                Level::Dominant
            } else {
                bit
            };
            defender.on_bit(seen, BitInstant::from_bits(t));
            t += 1;
        }
        assert_eq!(defender.stats().attacks_detected, 2);
        assert_eq!(defender.stats().counterattacks, 2);
    }

    #[test]
    fn recorder_captures_detection_and_reaction_latency() {
        let mut defender = defender_for(&[0x005, 0x173], 1);
        let recorder = Recorder::enabled();
        defender.set_recorder(recorder.clone(), 1);
        let spoof = CanFrame::data_frame(CanId::from_raw(0x173), &[0xFF; 8]).unwrap();
        feed_frame(&mut defender, &spoof).expect("must counterattack");
        let reg = recorder.into_registry();
        assert_eq!(reg.counter("michican_detections_total{node=\"1\"}"), 1);
        assert_eq!(reg.counter("michican_counterattacks_total{node=\"1\"}"), 1);
        assert_eq!(
            reg.counter("michican_frames_monitored_total{node=\"1\"}"),
            1
        );
        let latency = reg
            .histogram("michican_reaction_latency_bits{node=\"1\"}")
            .unwrap();
        assert_eq!(latency.count(), 1);
        // Detection happens inside the identifier (positions 2..=12),
        // injection at the RTR bit (destuffed position 13): the gap is at
        // most 11 bit times plus stuffing.
        assert!(latency.max().unwrap() <= 16);
    }

    #[test]
    fn journal_captures_episode_without_a_recorder() {
        // The journal is an independent sink: with no recorder attached,
        // detection and the injection window must still be journaled.
        let mut defender = defender_for(&[0x005, 0x173], 1);
        let journal = can_obs::Journal::enabled();
        defender.set_journal(journal.clone(), 1);
        let spoof = CanFrame::data_frame(CanId::from_raw(0x173), &[0xFF; 8]).unwrap();
        feed_frame(&mut defender, &spoof).expect("must counterattack");
        let export = journal.export_jsonl();
        for kind in [
            JournalKind::Detection,
            JournalKind::InjectionStart,
            JournalKind::InjectionEnd,
        ] {
            assert!(
                export.contains(&format!("\"kind\":\"{kind}\"")),
                "missing {kind} in:\n{export}"
            );
        }
    }

    #[test]
    fn disabled_recorder_leaves_stats_identical() {
        let run = |with_recorder: bool| {
            let mut defender = defender_for(&[0x173], 0);
            if with_recorder {
                defender.set_recorder(Recorder::disabled(), 0);
            }
            let dos = CanFrame::data_frame(CanId::from_raw(0x064), &[0; 8]).unwrap();
            feed_frame(&mut defender, &dos);
            defender.stats().clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn detection_positions_are_recorded() {
        let mut defender = defender_for(&[0x400], 0);
        // 0x000 decides after the first identifier bit... but a decision
        // can only be as early as the FSM's pruning allows. Record and
        // check bounds.
        let attack = CanFrame::data_frame(CanId::from_raw(0x000), &[0; 8]).unwrap();
        feed_frame(&mut defender, &attack);
        let positions = &defender.stats().detection_positions;
        assert_eq!(positions.len(), 1);
        assert!((1..=11).contains(&positions[0]));
        assert!(defender.stats().mean_detection_position().is_some());
    }
}
