//! The timing-IDS bake-off: every registry detector against every
//! defense × scenario cell, in one table.
//!
//! Table I of the paper classifies IDS approaches \[15\]–\[17\] as
//! backward compatible but *not real-time* and *without eradication*.
//! This bench measures that classification: the full
//! [`can_ids::registry`] detector grid rides along every cell of a
//! defense-comparison grid as passive [`DetectorTap`]s, so a single run
//! yields per-detector detection latency and false-positive rate next to
//! the in-controller defense's reaction latency and eradication count.
//!
//! Cell shape: the victim ECU owns identifier 0x173 and transmits
//! periodically; a second benign sender keeps the identifier
//! distribution non-trivial (so the entropy detector has a baseline
//! worth the name); the attacker — instantiated from
//! [`can_attacks::registry`] and gated behind [`IDS_ATTACK_START_BITS`]
//! — starts mid-run, after every trainable detector has been armed at
//! [`IDS_ARM_AT_BITS`]; a silent receiver completes the bus. Defenses
//! reuse the zoo's [`ZooDefense`] column set (none / michican / parrot).
//!
//! Cells fan out with [`crate::runner::ExperimentPlan`], so the table is
//! byte-identical at any `--shards` count and in both simulation modes
//! (pinned by `tests/differential_fast_forward.rs`).
//!
//! The table's honesty invariant ([`assert_ids_honesty`]): a frame-level
//! detector only sees *completed* frames, so its detection latency can
//! never undercut one whole frame ([`ONE_FRAME_BITS`]) — while MichiCAN,
//! deciding inside the identifier field of the first malicious frame,
//! must come in under it on the same cells.

use can_attacks::registry::{variants_for, AttackAgent, AttackVariant};
use can_attacks::{DosKind, SuspensionAttacker};
use can_core::app::{Application, PeriodicSender, SilentApplication};
use can_core::{BitInstant, CanFrame, CanId};
use can_ids::registry::{
    all_variants as all_detectors, variants_for as detector_variants_for, DetectorVariant,
};
use can_ids::DetectorTap;
use can_obs::{Journal, Recorder};
use can_sim::{bus_off_episodes, ErrorRole, EventKind, Node, NodeId, SimBuilder, Simulator};
use michican::prelude::*;

use crate::attackzoo::{
    mount_victim, ZooDefense, ZOO_HORIZON_BITS, ZOO_VICTIM_ID, ZOO_VICTIM_PAYLOAD,
    ZOO_VICTIM_PERIOD_BITS,
};
use crate::runner::{ExecOpts, ExperimentPlan};
use crate::scenarios::TABLE2_SPEED;

/// The victim ECU's identifier: the zoo's, since both mount the victim
/// through [`mount_victim`].
pub const IDS_VICTIM_ID: u16 = ZOO_VICTIM_ID;

/// Bits between victim transmissions (the zoo's).
pub const IDS_VICTIM_PERIOD_BITS: u64 = ZOO_VICTIM_PERIOD_BITS;

/// The victim's payload (the zoo's all-dominant one).
pub const IDS_VICTIM_PAYLOAD: [u8; 8] = ZOO_VICTIM_PAYLOAD;

/// A second benign sender: keeps the identifier distribution non-trivial
/// so the entropy baseline is meaningful.
pub const IDS_BENIGN_ID: u16 = 0x300;

/// Bits between benign-sender transmissions.
pub const IDS_BENIGN_PERIOD_BITS: u64 = 800;

/// Run horizon per cell, in bus bits (the zoo's).
pub const IDS_HORIZON_BITS: u64 = ZOO_HORIZON_BITS;

/// Sim time at which every trainable detector is armed (training ends).
pub const IDS_ARM_AT_BITS: u64 = 12_000;

/// Sim time before which the attacker is gated silent. Training and
/// arming both complete on clean traffic, so false positives and
/// detection latency are measured against a trained detector.
pub const IDS_ATTACK_START_BITS: u64 = 16_000;

/// The shortest possible complete frame on the wire (a 0-byte data frame
/// before stuffing): the frame-level detector latency floor.
pub const ONE_FRAME_BITS: u64 = 44;

/// Pseudo-node id under which detector-tap journal events are stamped
/// (one past the bus's four real nodes).
pub const IDS_TAP_JOURNAL_NODE: u32 = 4;

/// The traffic a bake-off cell runs: clean, or one registry attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdsScenario {
    /// Benign traffic only — the false-positive floor.
    Clean,
    /// One controller-level registry attack, gated behind
    /// [`IDS_ATTACK_START_BITS`].
    Attack(AttackVariant),
}

impl IdsScenario {
    /// Stable row label.
    pub fn label(&self) -> String {
        match self {
            IdsScenario::Clean => "clean".to_string(),
            IdsScenario::Attack(variant) => variant.label(),
        }
    }
}

/// The bake-off scenario list: clean plus every controller-level attack
/// family a frame-level IDS can plausibly observe (bit-level adversaries
/// never complete an own frame, so there is nothing for a frame-level
/// detector to see).
pub fn ids_scenarios() -> Vec<IdsScenario> {
    let mut scenarios = vec![IdsScenario::Clean];
    for family in ["fabrication", "dos-traditional", "dos-targeted", "toggling"] {
        let variants = variants_for(family).expect("registry family exists");
        scenarios.extend(variants.into_iter().map(IdsScenario::Attack));
    }
    scenarios
}

/// One cell of the bake-off grid: a scenario against a defense. Every
/// selected detector observes every cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdsCell {
    /// The traffic scenario.
    pub scenario: IdsScenario,
    /// The defense on the victim node.
    pub defense: ZooDefense,
}

/// The full cell grid: every scenario × every defense, in scenario-major
/// order (the table's row order).
pub fn ids_cells() -> Vec<IdsCell> {
    ids_scenarios()
        .into_iter()
        .flat_map(|scenario| ZooDefense::ALL.map(|defense| IdsCell { scenario, defense }))
        .collect()
}

/// The detector grid for a `--detectors` selection: one registry family
/// by name, or the full grid for `"all"`. `None` for an unknown name.
pub fn detector_grid_for(detectors: &str) -> Option<Vec<DetectorVariant>> {
    if detectors == "all" {
        return Some(all_detectors());
    }
    detector_variants_for(detectors)
}

/// An application gated silent until a fixed sim time: before
/// `start_bits` it never polls a frame out of `inner` and advertises the
/// gate as its quiescence horizon; from `start_bits` on it is `inner`.
/// Receive-side callbacks always forward (the wrapped attacker may probe
/// passively while gated).
struct DelayedApp {
    inner: Box<dyn Application>,
    start_bits: u64,
}

impl Application for DelayedApp {
    fn poll(&mut self, now: BitInstant) -> Option<CanFrame> {
        if now.bits() < self.start_bits {
            None
        } else {
            self.inner.poll(now)
        }
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        if now.bits() < self.start_bits {
            Some(BitInstant::from_bits(self.start_bits))
        } else {
            self.inner.next_activity(now)
        }
    }

    fn on_frame(&mut self, frame: &CanFrame, now: BitInstant) {
        self.inner.on_frame(frame, now);
    }

    fn on_transmit_success(&mut self, frame: &CanFrame, now: BitInstant) {
        self.inner.on_transmit_success(frame, now);
    }

    fn on_bus_off(&mut self, now: BitInstant) {
        self.inner.on_bus_off(now);
    }

    fn on_recovered(&mut self, now: BitInstant) {
        self.inner.on_recovered(now);
    }
}

/// One detector's column of a bake-off cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorOutcome {
    /// The detector variant's stable label.
    pub detector: String,
    /// Frames the detector observed over the whole run.
    pub frames_observed: u64,
    /// Bits from the attack's first transmitted bit to the detector's
    /// first alert at or after it (`None` on clean cells or when the
    /// detector never alerted).
    pub detection_latency_bits: Option<u64>,
    /// Alerts inside the false-positive window: armed-to-attack-start on
    /// attack cells, armed-to-horizon on clean cells.
    pub false_alerts: u64,
    /// Frames observed inside the same window (the false-alert base).
    pub window_frames: u64,
    /// False alerts per 1000 observed window frames (integer, exact).
    pub fp_per_1k_frames: u64,
}

/// Outcome of one bake-off cell: the defense-side measurements plus one
/// [`DetectorOutcome`] per attached detector, in registry order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdsOutcome {
    /// The scenario's stable label.
    pub scenario: String,
    /// The defense's stable label.
    pub defense: &'static str,
    /// First bit of the attacker's first transmission at or after the
    /// gate (`None` on clean cells, or when the defense silenced the
    /// attacker before it ever started).
    pub attack_start_bits: Option<u64>,
    /// MichiCAN's reaction: bits from attack start to the first
    /// transmitter-side error the counterattack provokes on the attacker
    /// node (`None` for other defenses or when it never fired).
    pub defense_latency_bits: Option<u64>,
    /// Bus-off episodes inflicted on the attacker ("eradication").
    pub attacker_bus_offs: usize,
    /// Per-detector columns, in selection order.
    pub detectors: Vec<DetectorOutcome>,
}

/// One assembled bake-off cell, ready to run.
pub struct IdsSim {
    /// The assembled four-node simulator with all taps installed.
    pub sim: Simulator,
    /// Shared handles to the attached detector taps, in selection order.
    pub taps: Vec<DetectorTap>,
    /// The victim ECU's node id.
    pub victim_node: NodeId,
    /// The attacker's node id (a silent placeholder on clean cells, so
    /// node numbering — and thus the event stream shape — is identical
    /// across scenarios).
    pub attacker_node: NodeId,
    /// The second benign sender's node id.
    pub benign_node: NodeId,
    /// The silent receiver's node id.
    pub rx_node: NodeId,
}

/// Assembles one bake-off cell: victim (+defense), gated attacker,
/// benign sender, receiver — and one passive [`DetectorTap`] per
/// selected detector variant, all observing the same bus in this single
/// run. Pure with respect to `recorder`/`journal`. The recorder carries
/// the bus's, the defense's and every detector's series.
///
/// The causal event [`Journal`] is threaded through the bus, the defense
/// (node 0), the attacker (node 1) and every detector tap
/// ([`IDS_TAP_JOURNAL_NODE`]) — detector alerts land as `ids_alert`
/// events at the triggering frame's completion bit, inheriting its
/// `frame_seq`/`chain_id`, so an attack-frame → alert chain reconstructs
/// from the export.
pub fn build_ids_cell_observed(
    cell: &IdsCell,
    detectors: &[DetectorVariant],
    recorder: Recorder,
    journal: Journal,
) -> IdsSim {
    let victim = CanId::from_raw(IDS_VICTIM_ID);

    let mut builder = SimBuilder::new(TABLE2_SPEED)
        .recorder(recorder.clone())
        .journal(journal.clone());

    // Node 0: the victim ECU (and, when defended, the defense).
    let victim_node = builder.node_id();
    builder = mount_victim(builder, cell.defense, &recorder, &journal);

    // Node 1: the attacker, gated behind the start deadline — or a
    // silent placeholder on clean cells.
    let attacker_node = builder.node_id();
    builder = match cell.scenario {
        IdsScenario::Clean => builder.node(Node::new("attacker-idle", Box::new(SilentApplication))),
        IdsScenario::Attack(variant) => {
            match variant.instantiate_observed(victim, IDS_VICTIM_PERIOD_BITS, &journal, 1) {
                AttackAgent::App(app) => builder.node(Node::new(
                    "attacker",
                    Box::new(DelayedApp {
                        inner: app,
                        start_bits: IDS_ATTACK_START_BITS,
                    }),
                )),
                // Bit-level adversaries are excluded from ids_scenarios()
                // (nothing for a frame-level detector to observe), but
                // keep custom grids honest: mount ungated.
                AttackAgent::Bit(agent) => builder.node(
                    Node::new("attacker-bitlevel", Box::new(SilentApplication)).with_agent(agent),
                ),
            }
        }
    };

    // Node 2: the second benign sender.
    let benign_node = builder.node_id();
    let benign_frame = CanFrame::data_frame(CanId::from_raw(IDS_BENIGN_ID), &[0x55; 4])
        .expect("valid benign frame");
    builder = builder.node(Node::new(
        "benign-0x300",
        Box::new(PeriodicSender::new(
            benign_frame,
            IDS_BENIGN_PERIOD_BITS,
            200,
        )),
    ));

    // Node 3: a silent receiver (acknowledges and counts delivery).
    let rx_node = builder.node_id();
    builder = builder.node(Node::new("rx", Box::new(SilentApplication)));

    // The detector taps: passive multi-tap attachment, one shared handle
    // kept per variant, a boxed clone installed on the bus.
    let mut taps = Vec::with_capacity(detectors.len());
    for variant in detectors {
        let tap = DetectorTap::new(variant.label(), variant.instantiate())
            .with_arm_at(IDS_ARM_AT_BITS)
            .with_recorder(recorder.clone())
            .with_journal(journal.clone(), IDS_TAP_JOURNAL_NODE);
        builder = builder.tap(tap.as_frame_tap());
        taps.push(tap);
    }

    IdsSim {
        sim: builder.build(),
        taps,
        victim_node,
        attacker_node,
        benign_node,
        rx_node,
    }
}

fn attack_start(sim: &Simulator, attacker: NodeId) -> Option<u64> {
    sim.events()
        .iter()
        .find(|e| {
            e.node == attacker
                && e.at.bits() >= IDS_ATTACK_START_BITS
                && matches!(e.kind, EventKind::TransmissionStarted { .. })
        })
        .map(|e| e.at.bits())
}

fn michican_kill(sim: &Simulator, attacker: NodeId, from_bits: u64) -> Option<u64> {
    sim.events()
        .iter()
        .find(|e| {
            e.node == attacker
                && e.at.bits() >= from_bits
                && matches!(
                    e.kind,
                    EventKind::ErrorDetected {
                        role: ErrorRole::Transmitter,
                        ..
                    }
                )
        })
        .map(|e| e.at.bits())
}

/// Runs one bake-off cell for `horizon_bits`.
pub fn run_ids_cell(
    cell: &IdsCell,
    detectors: &[DetectorVariant],
    horizon_bits: u64,
    opts: &ExecOpts,
) -> IdsOutcome {
    let IdsSim {
        mut sim,
        taps,
        attacker_node,
        ..
    } = build_ids_cell_observed(cell, detectors, opts.recorder.clone(), opts.journal.clone());

    opts.run(&mut sim, horizon_bits);

    let start = attack_start(&sim, attacker_node);
    let defense_latency_bits = match (cell.defense, start) {
        (ZooDefense::MichiCan, Some(start)) => {
            michican_kill(&sim, attacker_node, start).map(|kill| kill - start)
        }
        _ => None,
    };
    let attacker_bus_offs = bus_off_episodes(sim.events(), attacker_node).len();

    // The false-positive window: armed detectors judging clean traffic.
    let fp_window_end = start.unwrap_or(horizon_bits);
    let detector_outcomes = taps
        .iter()
        .map(|tap| {
            let false_alerts = tap.alerts_in(IDS_ARM_AT_BITS, fp_window_end);
            let window_frames = tap.frames_observed_in(IDS_ARM_AT_BITS, fp_window_end);
            DetectorOutcome {
                detector: tap.label(),
                frames_observed: tap.frames_observed(),
                detection_latency_bits: start
                    .and_then(|s| tap.first_alert_at_or_after(s).map(|alert| alert - s)),
                false_alerts,
                window_frames,
                fp_per_1k_frames: (false_alerts * 1_000)
                    .checked_div(window_frames)
                    .unwrap_or(0),
            }
        })
        .collect();

    IdsOutcome {
        scenario: cell.scenario.label(),
        defense: cell.defense.label(),
        attack_start_bits: start,
        defense_latency_bits,
        attacker_bus_offs,
        detectors: detector_outcomes,
    }
}

/// Runs the bake-off grid fanned out on `opts.shards` workers; outcomes
/// come back in grid order and per-cell registries/journals merge in
/// index order, so the result — and any metrics snapshot or journal
/// export — is byte-identical for every shard count and mode.
pub fn run_ids_with(
    cells: Vec<IdsCell>,
    detectors: Vec<DetectorVariant>,
    horizon_bits: u64,
    opts: &ExecOpts,
) -> Vec<IdsOutcome> {
    ExperimentPlan::new(cells, 0).run_with(opts, |_index, _seed, cell, cell_opts| {
        run_ids_cell(&cell, &detectors, horizon_bits, cell_opts)
    })
}

/// Renders the bake-off table in the `experiments` stdout format: one
/// row per scenario × defense × detector, with the cell-level defense
/// columns repeated on each of its detector rows.
pub fn render_ids_table(outcomes: &[IdsOutcome]) -> String {
    let mut out = String::new();
    out.push_str(
        "scenario             defense   detector                  frames  ids-latency  false  fp/1k  def-latency  atk-busoff\n",
    );
    for o in outcomes {
        let def_latency = o
            .defense_latency_bits
            .map_or("-".to_string(), |b| b.to_string());
        for d in &o.detectors {
            let latency = d
                .detection_latency_bits
                .map_or("-".to_string(), |b| b.to_string());
            out.push_str(&format!(
                "{:<20} {:<9} {:<25} {:>6} {:>11} {:>6} {:>6} {:>11} {:>11}\n",
                o.scenario,
                o.defense,
                d.detector,
                d.frames_observed,
                latency,
                d.false_alerts,
                d.fp_per_1k_frames,
                def_latency,
                o.attacker_bus_offs,
            ));
        }
    }
    out
}

/// The bake-off's honesty invariant (Table I, measured): a frame-level
/// detector's latency can never undercut one complete frame, while
/// MichiCAN's in-frame reaction must, wherever both fired on the same
/// cell.
///
/// # Panics
///
/// Panics when either half of the invariant is violated.
pub fn assert_ids_honesty(outcomes: &[IdsOutcome]) {
    for o in outcomes {
        if o.attack_start_bits.is_none() {
            continue;
        }
        for d in &o.detectors {
            if let Some(latency) = d.detection_latency_bits {
                assert!(
                    latency >= ONE_FRAME_BITS,
                    "{} on {}/{}: frame-level latency {latency} bits undercuts one frame",
                    d.detector,
                    o.scenario,
                    o.defense
                );
            }
        }
        if let Some(kill) = o.defense_latency_bits {
            assert!(
                kill < ONE_FRAME_BITS,
                "michican on {}: in-frame reaction took {kill} bits (≥ one frame)",
                o.scenario
            );
        }
    }
}

// ---------------------------------------------------------------------
// The focused flood duel (absorbed from the old `ids_compare` module):
// one flooding attack, IDS-via-tap vs MichiCAN, in single runs.
// ---------------------------------------------------------------------

/// Outcome of one defense-vs-flood run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseLatency {
    /// Bits from the first attack bit to the defense's detection instant.
    pub detection_latency_bits: Option<u64>,
    /// Attack frames that fully traversed the bus before detection.
    pub frames_before_detection: u64,
    /// Whether the attacker ended up eradicated (bus-off).
    pub eradicated: bool,
    /// Attack frames delivered over the whole run.
    pub total_attack_frames_delivered: u64,
}

const FLOOD_SPEED: can_core::BusSpeed = can_core::BusSpeed::K500;
const FLOOD_ATTACK_ID: u16 = 0x064;
const FLOOD_PERIOD_BITS: u64 = 400;

fn flood_attacker() -> Box<dyn Application> {
    Box::new(SuspensionAttacker::new(
        DosKind::Targeted {
            id: CanId::from_raw(FLOOD_ATTACK_ID),
        },
        FLOOD_PERIOD_BITS,
    ))
}

fn first_tx_start(sim: &Simulator, attacker: NodeId) -> Option<u64> {
    sim.events()
        .iter()
        .find(|e| e.node == attacker && matches!(e.kind, EventKind::TransmissionStarted { .. }))
        .map(|e| e.at.bits())
}

fn delivered_attack_frames(sim: &Simulator, observer: NodeId, until: Option<u64>) -> u64 {
    sim.events()
        .iter()
        .filter(|e| {
            e.node == observer
                && until.is_none_or(|t| e.at.bits() <= t)
                && matches!(&e.kind, EventKind::FrameReceived { frame }
                    if frame.id() == CanId::from_raw(FLOOD_ATTACK_ID))
        })
        .count() as u64
}

/// Runs the flooding attack against the classic frame-level IDS pair (the
/// registry's `frequency` and `interval` variants, the typical 500 kbit/s
/// configuration), attached as passive taps — one simulation, no rebuild.
pub fn flood_ids_defense(run_bits: u64) -> DefenseLatency {
    let builder = SimBuilder::new(FLOOD_SPEED);
    let attacker = builder.node_id();
    let builder = builder.node(Node::new("attacker", flood_attacker()));
    let rx = builder.node_id();
    let builder = builder.node(Node::new("rx", Box::new(SilentApplication)));

    let [frequency, interval] = ["frequency", "interval"].map(|family| {
        let variant = detector_variants_for(family).expect("registry family")[0];
        DetectorTap::new(variant.detector, variant.instantiate())
    });
    let mut sim = builder
        .tap(frequency.as_frame_tap())
        .tap(interval.as_frame_tap())
        .build();
    sim.run(run_bits);

    let start = first_tx_start(&sim, attacker);
    let first_alert = [&frequency, &interval]
        .iter()
        .filter_map(|tap| tap.first_alert_at_or_after(0))
        .min();

    DefenseLatency {
        detection_latency_bits: match (first_alert, start) {
            (Some(alert), Some(start)) => Some(alert.saturating_sub(start)),
            _ => None,
        },
        frames_before_detection: delivered_attack_frames(&sim, rx, first_alert),
        eradicated: sim
            .events()
            .iter()
            .any(|e| e.node == attacker && matches!(e.kind, EventKind::BusOff)),
        total_attack_frames_delivered: delivered_attack_frames(&sim, rx, None),
    }
}

/// Runs the same flood against MichiCAN.
pub fn flood_michican_defense(run_bits: u64) -> DefenseLatency {
    let builder = SimBuilder::new(FLOOD_SPEED);
    let attacker = builder.node_id();
    let builder = builder.node(Node::new("attacker", flood_attacker()));
    let list = EcuList::from_raw(&[IDS_VICTIM_ID]);
    let observer = builder.node_id();
    let mut sim = builder
        .node(
            Node::new("defender", Box::new(SilentApplication))
                .with_agent(Box::new(MichiCan::new(DetectionFsm::for_ecu(&list, 0)))),
        )
        .build();
    sim.run(run_bits);

    let start = first_tx_start(&sim, attacker);
    let first_kill = start.and_then(|s| michican_kill(&sim, attacker, s));

    DefenseLatency {
        detection_latency_bits: match (first_kill, start) {
            (Some(kill), Some(start)) => Some(kill.saturating_sub(start)),
            _ => None,
        },
        frames_before_detection: delivered_attack_frames(&sim, observer, first_kill),
        eradicated: sim
            .events()
            .iter()
            .any(|e| e.node == attacker && matches!(e.kind, EventKind::BusOff)),
        total_attack_frames_delivered: delivered_attack_frames(&sim, observer, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_scenario_defense_pair() {
        let cells = ids_cells();
        let scenarios = ids_scenarios();
        assert_eq!(cells.len(), scenarios.len() * ZooDefense::ALL.len());
        assert!(scenarios.contains(&IdsScenario::Clean));
        assert!(scenarios.len() >= 5, "clean + four attack families");
    }

    #[test]
    fn detector_selection_mirrors_the_registry() {
        assert_eq!(
            detector_grid_for("all").unwrap().len(),
            all_detectors().len()
        );
        assert_eq!(detector_grid_for("cusum").unwrap().len(), 2);
        assert!(detector_grid_for("not-a-detector").is_none());
    }

    #[test]
    fn delayed_app_gates_poll_and_advertises_the_gate() {
        let frame = CanFrame::data_frame(CanId::from_raw(0x100), &[0]).unwrap();
        let mut app = DelayedApp {
            inner: Box::new(PeriodicSender::new(frame, 100, 0)),
            start_bits: 1_000,
        };
        assert!(app.poll(BitInstant::from_bits(999)).is_none());
        assert_eq!(
            app.next_activity(BitInstant::from_bits(0)),
            Some(BitInstant::from_bits(1_000)),
            "the gate is the quiescence horizon"
        );
        assert!(app.poll(BitInstant::from_bits(1_000)).is_some());
    }

    #[test]
    fn one_attack_cell_measures_latency_above_the_frame_floor() {
        let cell = IdsCell {
            scenario: IdsScenario::Attack(variants_for("dos-targeted").unwrap()[0]),
            defense: ZooDefense::Undefended,
        };
        let detectors = detector_grid_for("cusum").unwrap();
        let outcome = run_ids_cell(&cell, &detectors, IDS_HORIZON_BITS, &ExecOpts::new());
        let start = outcome.attack_start_bits.expect("the flood starts");
        assert!(
            start >= IDS_ATTACK_START_BITS,
            "the gate held until {start}"
        );
        let latency = outcome.detectors[0]
            .detection_latency_bits
            .expect("an un-defended flood of an unseen id must alert");
        assert!(latency >= ONE_FRAME_BITS, "frame floor: {latency}");
        assert_ids_honesty(&[outcome]);
    }

    #[test]
    fn clean_cell_has_no_attack_and_a_quiet_fp_window() {
        let cell = IdsCell {
            scenario: IdsScenario::Clean,
            defense: ZooDefense::Undefended,
        };
        let detectors = detector_grid_for("interval").unwrap();
        let outcome = run_ids_cell(&cell, &detectors, IDS_HORIZON_BITS, &ExecOpts::new());
        assert_eq!(outcome.attack_start_bits, None);
        assert_eq!(outcome.detectors[0].detection_latency_bits, None);
        assert_eq!(
            outcome.detectors[0].false_alerts, 0,
            "trained interval detector must not alert on its own training traffic"
        );
        assert!(outcome.detectors[0].window_frames > 0);
    }
}
