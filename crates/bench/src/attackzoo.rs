//! The adversary-zoo outcome table: every registry attack against every
//! defense, with eradication / bus-off / detection-latency columns.
//!
//! This is the defense-comparison surface the paper's Table II does not
//! cover: beyond the controller-level spoofing/DoS attackers, the zoo
//! includes CANflict-style bit-level adversaries (stuff-bit overwrite,
//! mid-frame error flags, frame truncation, adaptive racing) that no
//! error-confinement counterattack can bus off — the table shows exactly
//! where each defense's coverage ends.
//!
//! Scenario shape (one cell = one attack variant × one defense): the
//! victim ECU owns identifier 0x173 and transmits periodically; the
//! attacker is instantiated from [`can_attacks::registry`]; a silent
//! receiver completes the bus. Defenses: MichiCAN on the victim node,
//! the Parrot baseline as the victim's application, or none.
//!
//! Cells are fanned out with [`crate::runner::ExperimentPlan`], so the
//! table is byte-identical at any `--shards` count and in both
//! simulation modes (pinned by `tests/differential_fast_forward.rs`).

use can_attacks::registry::{all_variants, variants_for, AttackAgent, AttackParams, AttackVariant};
use can_attacks::AdaptiveRacer;
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{CanFrame, CanId};
use can_obs::{Journal, Recorder};
use can_sim::{bus_off_episodes, EventKind, Node, NodeId, SimBuilder, Simulator};
use michican::prelude::*;
use parrot::ParrotDefender;

use crate::runner::{ExecOpts, ExperimentPlan};
use crate::scenarios::TABLE2_SPEED;

/// The victim ECU's identifier (the paper's defender id).
pub const ZOO_VICTIM_ID: u16 = 0x173;

/// Bits between victim transmissions.
pub const ZOO_VICTIM_PERIOD_BITS: u64 = 600;

/// The victim's payload. All-dominant data maximizes stuff bits, so every
/// registry attack (including stuff-bit overwrite) has something to hit.
pub const ZOO_VICTIM_PAYLOAD: [u8; 8] = [0x00; 8];

/// Default run horizon per cell, in bus bits.
pub const ZOO_HORIZON_BITS: u64 = 40_000;

/// The defense mounted on the victim node in one zoo cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZooDefense {
    /// No defense: the attack's raw effect.
    Undefended,
    /// MichiCAN on the victim's integrated controller.
    MichiCan,
    /// The Parrot flooding baseline as the victim's application.
    Parrot,
}

impl ZooDefense {
    /// All defenses, in table column order.
    pub const ALL: [ZooDefense; 3] = [
        ZooDefense::Undefended,
        ZooDefense::MichiCan,
        ZooDefense::Parrot,
    ];

    /// Stable column label.
    pub fn label(self) -> &'static str {
        match self {
            ZooDefense::Undefended => "none",
            ZooDefense::MichiCan => "michican",
            ZooDefense::Parrot => "parrot",
        }
    }
}

/// One cell of the zoo table: an attack variant against a defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZooCell {
    /// The attack variant.
    pub variant: AttackVariant,
    /// The defense on the victim node.
    pub defense: ZooDefense,
}

/// The full cell grid: every registry variant × every defense, in
/// registry order (the table's row order).
pub fn zoo_cells() -> Vec<ZooCell> {
    cells_of(all_variants())
}

/// The cell grid restricted to one attack family, or `None` for an
/// unknown name (`"all"` selects the full grid).
pub fn zoo_cells_for(attack: &str) -> Option<Vec<ZooCell>> {
    if attack == "all" {
        return Some(zoo_cells());
    }
    variants_for(attack).map(cells_of)
}

fn cells_of(variants: Vec<AttackVariant>) -> Vec<ZooCell> {
    variants
        .into_iter()
        .flat_map(|variant| ZooDefense::ALL.map(|defense| ZooCell { variant, defense }))
        .collect()
}

/// Outcome of one zoo cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooOutcome {
    /// The attack variant's stable label.
    pub attack: String,
    /// The defense's stable label.
    pub defense: &'static str,
    /// Whether the attacker is bit-level (controller-less).
    pub bit_level: bool,
    /// Attack instances detected by the defense (0 for none).
    pub detections: u64,
    /// Bus-off episodes inflicted on the attacker ("eradication"; always
    /// 0 for bit-level attackers — they have no error counters).
    pub attacker_bus_offs: usize,
    /// Transmission attempts within the attacker's first bus-off episode
    /// (the paper's "within 32 attempts" pin), if any.
    pub first_episode_attempts: Option<u32>,
    /// Bus-off episodes suffered by the victim node.
    pub victim_bus_offs: usize,
    /// Median detection→injection reaction latency in bits, if measured.
    pub reaction_p50_bits: Option<u64>,
    /// Victim frames delivered intact to the receiver node.
    pub victim_frames_delivered: usize,
}

/// One assembled zoo cell, ready to run: the simulator, the internal
/// defense/attacker probe recorder, and the three node ids.
pub struct ZooSim {
    /// The assembled three-node simulator.
    pub sim: Simulator,
    /// Always-enabled probe carrying the defense's (and the adaptive
    /// racer's) metric series.
    pub probe: Recorder,
    /// The victim ECU's node id.
    pub victim_node: NodeId,
    /// The attacker's node id.
    pub attacker_node: NodeId,
    /// The silent receiver's node id.
    pub rx_node: NodeId,
}

/// Adds the victim ECU as the next node (node 0 in the zoo and the IDS
/// bake-off): the periodic [`ZOO_VICTIM_ID`] sender and, when defended,
/// the defense. MichiCAN rides the sender's node as its agent, and Parrot
/// replaces the sender as the node's application (it sends the victim's
/// own traffic). The defense reports to `probe` and `journal` as node 0.
pub fn mount_victim(
    builder: SimBuilder,
    defense: ZooDefense,
    probe: &Recorder,
    journal: &Journal,
) -> SimBuilder {
    let victim = CanId::from_raw(ZOO_VICTIM_ID);
    let frame = CanFrame::data_frame(victim, &ZOO_VICTIM_PAYLOAD).expect("valid victim frame");
    let sender = || Box::new(PeriodicSender::new(frame, ZOO_VICTIM_PERIOD_BITS, 0));
    match defense {
        ZooDefense::Undefended => builder.node(Node::new("victim-0x173", sender())),
        ZooDefense::MichiCan => {
            let list = EcuList::from_raw(&[ZOO_VICTIM_ID]);
            let mut handler = MichiCan::new(DetectionFsm::for_ecu(&list, 0));
            handler.set_recorder(probe.clone(), 0);
            handler.set_journal(journal.clone(), 0);
            builder.node(Node::new("victim-0x173", sender()).with_agent(Box::new(handler)))
        }
        ZooDefense::Parrot => {
            let mut parrot =
                ParrotDefender::new(victim, 5_000).with_own_traffic(ZOO_VICTIM_PERIOD_BITS);
            parrot.set_recorder(probe.clone(), 0);
            parrot.set_journal(journal.clone(), 0);
            builder.node(Node::new("victim-0x173", Box::new(parrot)))
        }
    }
}

/// Assembles one zoo cell (victim + attacker + receiver) around the given
/// simulation recorder and causal event [`Journal`]. Pure with respect to
/// both sinks: the same cell always builds the same bus, so differential
/// checks can hand this fresh sinks per execution mode.
///
/// The journal is threaded through the bus (frame lifecycle), the defense
/// (detection / injection / watchdog events at node 0) and the attacker
/// (strike / probe events at node 1) — every event of one attack episode
/// shares the attacked frame's `chain_id`, so a complete
/// strike→detection→counterattack chain can be reconstructed from the
/// export.
pub fn build_zoo_cell_observed(cell: &ZooCell, recorder: Recorder, journal: Journal) -> ZooSim {
    let victim = CanId::from_raw(ZOO_VICTIM_ID);
    // Internal probe: always enabled so detection/latency columns are
    // populated regardless of the caller's recorder. Merged into the cell
    // recorder after the run (a no-op when that recorder is disabled).
    let probe = Recorder::enabled();

    let mut builder = SimBuilder::new(TABLE2_SPEED)
        .recorder(recorder)
        .journal(journal.clone());

    // Node 0: the victim ECU (and, when defended, the defense).
    let victim_node = builder.node_id();
    builder = mount_victim(builder, cell.defense, &probe, &journal);

    // Node 1: the attacker.
    let attacker_node = builder.node_id();
    let agent = match cell.variant.params {
        // Built directly (not via the registry) so the racer's latency
        // measurements reach the probe recorder.
        AttackParams::Adaptive {
            probe_frames,
            lead,
            fallback_at,
        } => {
            let mut racer = AdaptiveRacer::new(victim, probe_frames, lead, fallback_at);
            racer.set_recorder(&probe, 1);
            racer.set_journal(journal.clone(), 1);
            AttackAgent::Bit(Box::new(racer))
        }
        _ => cell
            .variant
            .instantiate_observed(victim, ZOO_VICTIM_PERIOD_BITS, &journal, 1),
    };
    builder = match agent {
        AttackAgent::Bit(agent) => builder
            .node(Node::new("attacker-bitlevel", Box::new(SilentApplication)).with_agent(agent)),
        AttackAgent::App(app) => builder.node(Node::new("attacker", app)),
    };

    // Node 2: a silent receiver (acknowledges and counts delivery).
    let rx_node = builder.node_id();
    let sim = builder
        .node(Node::new("rx", Box::new(SilentApplication)))
        .build();

    ZooSim {
        sim,
        probe,
        victim_node,
        attacker_node,
        rx_node,
    }
}

/// Runs one zoo cell for `horizon_bits`.
pub fn run_zoo_cell(cell: &ZooCell, horizon_bits: u64, opts: &ExecOpts) -> ZooOutcome {
    let victim = CanId::from_raw(ZOO_VICTIM_ID);
    let ZooSim {
        mut sim,
        probe,
        victim_node,
        attacker_node,
        rx_node,
    } = build_zoo_cell_observed(cell, opts.recorder.clone(), opts.journal.clone());

    opts.run(&mut sim, horizon_bits);

    let victim_frames_delivered = sim
        .events()
        .iter()
        .filter(|e| {
            e.node == rx_node
                && matches!(&e.kind, EventKind::FrameReceived { frame } if frame.id() == victim)
        })
        .count();
    let attacker_episodes = bus_off_episodes(sim.events(), attacker_node);
    let victim_episodes = bus_off_episodes(sim.events(), victim_node);

    let (detections, reaction_p50_bits) = probe
        .with_registry(|registry| {
            let detections = match cell.defense {
                ZooDefense::Undefended => 0,
                ZooDefense::MichiCan => registry.counter("michican_detections_total{node=\"0\"}"),
                ZooDefense::Parrot => registry.counter("parrot_spoofs_observed_total{node=\"0\"}"),
            };
            let latency_key = match cell.defense {
                ZooDefense::Undefended => None,
                ZooDefense::MichiCan => Some("michican_reaction_latency_bits{node=\"0\"}"),
                ZooDefense::Parrot => Some("parrot_reaction_latency_bits{node=\"0\"}"),
            };
            let p50 = latency_key
                .and_then(|key| registry.histogram(key))
                .and_then(|h| h.quantile(0.5))
                .map(|q| q as u64);
            (detections, p50)
        })
        .expect("the probe recorder is enabled");

    // Export the defense/attacker series alongside the cell's can_* series.
    opts.recorder.merge_registry(&probe.into_registry());

    ZooOutcome {
        attack: cell.variant.label(),
        defense: cell.defense.label(),
        bit_level: cell.variant.bit_level(),
        detections,
        attacker_bus_offs: attacker_episodes.len(),
        first_episode_attempts: attacker_episodes.first().map(|e| e.attempts),
        victim_bus_offs: victim_episodes.len(),
        reaction_p50_bits,
        victim_frames_delivered,
    }
}

/// Runs the full zoo grid (or one family via [`zoo_cells_for`]) fanned
/// out on `opts.shards` workers; outcomes come back in grid order and
/// per-cell registries merge in index order, so the result — and any
/// metrics snapshot — is byte-identical for every shard count and mode.
pub fn run_zoo_with(cells: Vec<ZooCell>, horizon_bits: u64, opts: &ExecOpts) -> Vec<ZooOutcome> {
    ExperimentPlan::new(cells, 0).run_with(opts, |_index, _seed, cell, cell_opts| {
        run_zoo_cell(&cell, horizon_bits, cell_opts)
    })
}

/// Renders the outcome table in the `experiments` stdout format.
pub fn render_zoo_table(outcomes: &[ZooOutcome]) -> String {
    let mut out = String::new();
    out.push_str(
        "attack                         defense   class  detect  atk-busoff  1st-era  vic-busoff  react-p50  delivered\n",
    );
    for o in outcomes {
        let era = o
            .first_episode_attempts
            .map_or("-".to_string(), |a| a.to_string());
        let p50 = o
            .reaction_p50_bits
            .map_or("-".to_string(), |b| b.to_string());
        out.push_str(&format!(
            "{:<30} {:<9} {:<6} {:>6} {:>11} {:>8} {:>11} {:>10} {:>10}\n",
            o.attack,
            o.defense,
            if o.bit_level { "bit" } else { "frame" },
            o.detections,
            o.attacker_bus_offs,
            era,
            o.victim_bus_offs,
            p50,
            o.victim_frames_delivered,
        ));
    }
    out
}

/// A quick structural sanity check used by the smoke tests: the grid must
/// contain at least four bit-level attack families beyond ghost.
pub fn assert_zoo_coverage(outcomes: &[ZooOutcome]) {
    let bit_rows = outcomes.iter().filter(|o| o.bit_level).count();
    assert!(
        bit_rows >= 4 * ZooDefense::ALL.len(),
        "expected at least four bit-level families × defenses, got {bit_rows} rows"
    );
    // Bit-level attackers have no controller: no defense may ever claim a
    // bus-off against one. This is the zoo's honesty invariant.
    for o in outcomes {
        if o.bit_level {
            assert_eq!(
                o.attacker_bus_offs, 0,
                "bit-level attacker {} reported bused off",
                o.attack
            );
        }
    }
}
