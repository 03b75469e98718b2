//! Reusable experiment scenarios — the six Table II experiments, the
//! multi-attacker sweep and the on-vehicle ParkSense test, built exactly
//! as described in paper §V.

use can_attacks::{DosKind, SuspensionAttacker, TogglingAttacker};
use can_core::app::SilentApplication;
use can_core::{BusSpeed, CanId};
use can_sim::{
    bus_off_episodes, DurationStats, ErrorRole, Event, EventKind, Node, NodeId, SimBuilder,
};
use can_trace::TimelineEvent;
use michican::prelude::*;
use restbus::{
    pacifica_matrix, vehicle_matrix, ParkSense, ReplayApp, Vehicle, ATTACK_ID, PARKSENSE_ID,
};

use crate::runner::{ExecOpts, ExperimentPlan};

/// The bus speed of the paper's online evaluation (Table II).
pub const TABLE2_SPEED: BusSpeed = BusSpeed::K50;

/// The defender ECU's identifier in all Table II experiments.
pub const DEFENDER_ID: u16 = 0x173;

/// Lifts simulator events into the [`TimelineEvent`]s of the Fig. 6
/// logic-analyzer view: transmission start and success, transmitter-side
/// errors, bus-off and recovery. Every other event is dropped.
pub fn timeline_events(events: &[Event]) -> Vec<TimelineEvent> {
    events
        .iter()
        .filter_map(|e| {
            let (node, at) = (e.node, e.at);
            match &e.kind {
                EventKind::TransmissionStarted { .. } => {
                    Some(TimelineEvent::TransmissionStarted { node, at })
                }
                EventKind::TransmissionSucceeded { .. } => {
                    Some(TimelineEvent::TransmissionSucceeded { node, at })
                }
                EventKind::ErrorDetected {
                    role: ErrorRole::Transmitter,
                    ..
                } => Some(TimelineEvent::TransmitError { node, at }),
                EventKind::BusOff => Some(TimelineEvent::BusOff { node, at }),
                EventKind::Recovered => Some(TimelineEvent::Recovered { node, at }),
                _ => None,
            }
        })
        .collect()
}

/// Description of one Table II experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment number (1–6).
    pub number: u8,
    /// Attacker identifiers.
    pub attacker_ids: Vec<u16>,
    /// Whether benign Veh. D restbus traffic is replayed.
    pub restbus: bool,
    /// Attack class label for the report.
    pub kind: &'static str,
}

/// The paper's six experiments (§V-C).
pub fn table2_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            number: 1,
            attacker_ids: vec![0x173],
            restbus: true,
            kind: "spoofing",
        },
        Experiment {
            number: 2,
            attacker_ids: vec![0x173],
            restbus: false,
            kind: "spoofing",
        },
        Experiment {
            number: 3,
            attacker_ids: vec![0x064],
            restbus: true,
            kind: "DoS",
        },
        Experiment {
            number: 4,
            attacker_ids: vec![0x064],
            restbus: false,
            kind: "DoS",
        },
        Experiment {
            number: 5,
            attacker_ids: vec![0x066, 0x067],
            restbus: false,
            kind: "2×DoS",
        },
        Experiment {
            number: 6,
            attacker_ids: vec![0x050, 0x051],
            restbus: false,
            kind: "toggling",
        },
    ]
}

/// Result of one experiment run: per-attacker bus-off statistics.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The experiment.
    pub experiment: Experiment,
    /// Per attacker identifier: its bus-off duration statistics.
    pub per_attacker: Vec<(u16, Option<DurationStats>)>,
    /// Observed bus load over the full capture.
    pub bus_load: f64,
}

/// Identifiers that must not appear in replayed restbus traffic (they are
/// reserved for attackers and the defender in the experiments).
fn reserved_ids() -> Vec<u16> {
    vec![0x050, 0x051, 0x064, 0x066, 0x067, 0x173]
}

/// The Veh. D restbus matrix at 50 kbit/s with reserved identifiers
/// removed and periods stretched 40× (the paper's Veh. D recordings stem
/// from 500 kbit/s buses; replaying them verbatim on a 50 kbit/s bus would
/// exceed 100 % load — the stretch keeps the replay at the light level at
/// which, like in the paper, "only few benign messages interrupt the
/// bus-off attempt").
pub fn restbus_matrix() -> restbus::CommMatrix {
    let full = vehicle_matrix(Vehicle::D, 0, TABLE2_SPEED);
    let reserved = reserved_ids();
    let messages: Vec<restbus::Message> = full
        .messages()
        .iter()
        .filter(|m| !reserved.contains(&m.id.raw()))
        .map(|m| {
            let mut m = m.clone();
            m.period_ms *= 40;
            m
        })
        .collect();
    restbus::CommMatrix::new("veh-d/bus-0@50k", TABLE2_SPEED, messages)
}

/// Builds the defender's ECU list for an experiment: the restbus
/// identifiers (when replayed) plus the defender's own 0x173.
fn defender_ecu_list(with_restbus: bool) -> EcuList {
    let mut ids = vec![CanId::from_raw(DEFENDER_ID)];
    if with_restbus {
        ids.extend(restbus_matrix().ids());
    }
    EcuList::new(ids).expect("experiment identifier sets are valid")
}

/// Configures the simulator for one Table II experiment, with the recorder
/// and journal of `opts` attached. Returns the builder — callers may add a
/// signal trace before `build()` (Fig. 6's VCD export) — and the attacker
/// node ids (in `attacker_ids` order).
pub fn experiment_builder(exp: &Experiment, opts: &ExecOpts) -> (SimBuilder, Vec<NodeId>) {
    let mut builder = SimBuilder::new(TABLE2_SPEED)
        .recorder(opts.recorder.clone())
        .journal(opts.journal.clone());

    let mut attacker_nodes = Vec::new();
    if exp.number == 6 {
        // One attacker node toggling between the two identifiers.
        attacker_nodes.push(builder.node_id());
        builder = builder.node(Node::new(
            "attacker-toggle",
            Box::new(TogglingAttacker::new(
                CanId::from_raw(exp.attacker_ids[0]),
                CanId::from_raw(exp.attacker_ids[1]),
                200,
            )),
        ));
    } else {
        for (i, &raw) in exp.attacker_ids.iter().enumerate() {
            attacker_nodes.push(builder.node_id());
            builder = builder.node(Node::new(
                format!("attacker-{raw:03x}"),
                Box::new(SuspensionAttacker::new(
                    DosKind::Targeted {
                        id: CanId::from_raw(raw),
                    },
                    // Staggered periods so multi-attacker schedules drift
                    // across each other over the capture (the paper's two
                    // Experiment 5 patterns both occur).
                    1_500 + 37 * i as u64,
                )),
            ));
        }
    }

    if exp.restbus {
        builder = builder.node(Node::new(
            "restbus-veh-d",
            Box::new(ReplayApp::for_matrix(&restbus_matrix())),
        ));
    }

    // The defender ECU owns 0x173 and runs MichiCAN. It does not transmit
    // during the capture: the paper's tight Experiment 1/2 deviations
    // (σ ≤ 2.6 ms) imply episodes free of owner/spoofer identifier
    // collisions, which lockstep-damage both parties (see
    // tests/id_collision.rs for that phenomenon).
    let list = defender_ecu_list(exp.restbus);
    let index = list
        .index_of(CanId::from_raw(DEFENDER_ID))
        .expect("defender id is in the list");
    let defender_node = builder.node_id();
    let mut handler = MichiCan::new(DetectionFsm::for_ecu(&list, index));
    handler.set_journal(opts.journal.clone(), defender_node as u32);
    let builder = builder.node(
        Node::new("defender-0x173", Box::new(SilentApplication)).with_agent(Box::new(handler)),
    );

    (builder, attacker_nodes)
}

/// Runs one Table II experiment for `capture_ms` (the paper records 2 s)
/// under `opts` — metrics recorder (per-node TEC/REC, error frames by
/// type, bus utilization), journal and simulation mode — and extracts
/// bus-off statistics.
pub fn run_experiment_with(
    exp: &Experiment,
    capture_ms: f64,
    opts: &ExecOpts,
) -> ExperimentOutcome {
    let (builder, attackers) = experiment_builder(exp, opts);
    let mut sim = builder.build();
    opts.run_millis(&mut sim, capture_ms);

    let per_attacker = if exp.number == 6 {
        // One node, two identifiers: all episodes belong to the node; the
        // paper reports a single row per identifier with identical stats.
        let episodes = bus_off_episodes(sim.events(), attackers[0]);
        let stats = DurationStats::from_durations(episodes.iter().map(|e| e.duration()));
        exp.attacker_ids.iter().map(|&id| (id, stats)).collect()
    } else {
        attackers
            .iter()
            .zip(&exp.attacker_ids)
            .map(|(&node, &id)| {
                let episodes = bus_off_episodes(sim.events(), node);
                (
                    id,
                    DurationStats::from_durations(episodes.iter().map(|e| e.duration())),
                )
            })
            .collect()
    };

    ExperimentOutcome {
        experiment: exp.clone(),
        per_attacker,
        bus_load: sim.observed_bus_load(),
    }
}

/// Runs all six Table II experiments for `capture_ms` each, fanned out on
/// `opts.shards` workers.
///
/// The experiments are seed-free (their builders are fully deterministic),
/// so the plan's master seed is irrelevant; cells, per-experiment
/// registries and journals are still reduced in experiment order, making
/// the report, snapshot and journal export identical for every shard count
/// and simulation mode.
pub fn run_table2_with(capture_ms: f64, opts: &ExecOpts) -> Vec<ExperimentOutcome> {
    ExperimentPlan::new(table2_experiments(), 0).run_with(opts, |_index, _seed, exp, cell_opts| {
        run_experiment_with(&exp, capture_ms, cell_opts)
    })
}

/// Runs [`run_multi_attacker_with`] for every count in `counts` on
/// `opts.shards` workers, returning `(count, eradication_bits)` pairs in
/// input order; per-count registries and journals merge in input order.
pub fn run_multi_attacker_scan_with(
    counts: &[usize],
    horizon_bits: u64,
    opts: &ExecOpts,
) -> Vec<(usize, Option<u64>)> {
    ExperimentPlan::new(counts.to_vec(), 0).run_with(opts, |_index, _seed, count, cell_opts| {
        (
            count,
            run_multi_attacker_with(count, horizon_bits, cell_opts),
        )
    })
}

/// Multi-attacker sweep (§V-C, "Experiments with more than two
/// attackers"): `count` saturating attackers; returns the total bits from
/// the first attack bit until the last attacker enters bus-off, or `None`
/// if not all attackers were eradicated within the horizon.
///
/// The event log is drained every bit instead of accumulated, so memory
/// stays flat no matter how long the horizon is (large scans used to
/// retain the full log just to find two timestamps).
pub fn run_multi_attacker_with(count: usize, horizon_bits: u64, opts: &ExecOpts) -> Option<u64> {
    let mut builder = SimBuilder::new(TABLE2_SPEED)
        .recorder(opts.recorder.clone())
        .journal(opts.journal.clone());
    let mut attackers = Vec::new();
    for i in 0..count {
        let id = 0x066 + i as u16;
        attackers.push(builder.node_id());
        builder = builder.node(Node::new(
            format!("attacker-{id:03x}"),
            Box::new(SuspensionAttacker::new(
                DosKind::Targeted {
                    id: CanId::from_raw(id),
                },
                2_000 + 41 * i as u64,
            )),
        ));
    }
    let list = defender_ecu_list(false);
    let index = list.index_of(CanId::from_raw(DEFENDER_ID)).unwrap();
    let defender_node = builder.node_id();
    let mut handler = MichiCan::new(DetectionFsm::for_ecu(&list, index));
    handler.set_journal(opts.journal.clone(), defender_node as u32);
    let mut sim = builder
        .node(Node::new("defender", Box::new(SilentApplication)).with_agent(Box::new(handler)))
        .build();

    // Stop as soon as every attacker has gone bus-off once. Track the two
    // timestamps of interest while draining, then drop the drained batch.
    // The loop advances one mode-dependent quantum at a time (one bit in
    // lockstep, a whole idle gap under fast-forward); events carry their
    // own timestamps, so the drained view is identical either way.
    let mut remaining: std::collections::HashSet<NodeId> = attackers.iter().copied().collect();
    let mut first_start: Option<u64> = None;
    let mut last_off: Option<u64> = None;
    let mut batch = Vec::new();
    while sim.now().bits() < horizon_bits {
        let left = horizon_bits - sim.now().bits();
        opts.advance(&mut sim, left);
        sim.take_events_into(&mut batch);
        for e in batch.drain(..) {
            match e.kind {
                EventKind::TransmissionStarted { .. }
                    if first_start.is_none() && attackers.contains(&e.node) =>
                {
                    first_start = Some(e.at.bits());
                }
                EventKind::BusOff => {
                    remaining.remove(&e.node);
                    let at = e.at.bits();
                    last_off = Some(last_off.map_or(at, |v| v.max(at)));
                }
                _ => {}
            }
        }
        if remaining.is_empty() {
            break;
        }
    }
    if !remaining.is_empty() {
        return None;
    }
    Some(last_off? - first_start?)
}

/// Outcome of the on-vehicle ParkSense scenario (§V-F).
#[derive(Debug, Clone)]
pub struct ParkSenseOutcome {
    /// Whether the dashboard would show "PARKSENSE UNAVAILABLE".
    pub became_unavailable: bool,
    /// Milliseconds into the run at which availability was lost, if it was.
    pub unavailable_at_ms: Option<f64>,
    /// Bus-off episodes inflicted on the attacker.
    pub attacker_bus_offs: usize,
    /// Attempts within the first bus-off episode (the paper's "within 32
    /// transmission attempts").
    pub first_episode_attempts: Option<u32>,
    /// ParkSense status frames delivered during the run.
    pub status_frames_received: usize,
}

/// Runs the Pacifica ParkSense scenario at 500 kbit/s for `run_ms` under
/// `opts`, with or without the MichiCAN dongle on the OBD-II port.
pub fn run_parksense_with(defended: bool, run_ms: f64, opts: &ExecOpts) -> ParkSenseOutcome {
    let speed = BusSpeed::K500;
    let matrix = pacifica_matrix(speed);
    let mut builder = SimBuilder::new(speed)
        .recorder(opts.recorder.clone())
        .journal(opts.journal.clone());

    // One node per sending ECU for full arbitration fidelity.
    let senders: Vec<String> = matrix.by_sender().keys().map(|s| s.to_string()).collect();
    for sender in &senders {
        builder = builder.node(Node::new(
            sender.clone(),
            Box::new(ReplayApp::for_sender(&matrix, sender)),
        ));
    }

    // The attacker floods 0x25F from the OBD-II port.
    let attacker = builder.node_id();
    builder = builder.node(Node::new(
        "obd-attacker",
        Box::new(SuspensionAttacker::saturating(DosKind::Targeted {
            id: ATTACK_ID,
        })),
    ));

    // The MichiCAN dongle (Arduino Due on the OBD-II splitter) knows the
    // full matrix but owns no identifier, so it watches the DoS range
    // only: adopting a list member's id would attack its owner.
    if defended {
        let list = EcuList::new(matrix.ids()).expect("matrix ids are unique");
        let fsm = DetectionFsm::for_monitor(&list);
        let dongle_node = builder.node_id();
        let mut handler = MichiCan::new(fsm);
        handler.set_journal(opts.journal.clone(), dongle_node as u32);
        builder = builder.node(
            Node::new("michican-dongle", Box::new(SilentApplication)).with_agent(Box::new(handler)),
        );
    }

    let mut sim = builder.build();
    opts.run_millis(&mut sim, run_ms);

    // Feed the ParkSense availability model from the frames delivered to
    // one fixed observer (the IPC node — a dashboard would sit there).
    let observer = senders
        .iter()
        .position(|s| s != "parksense")
        .expect("the matrix has non-parksense senders");
    let mut parksense = ParkSense::with_default_timeout();
    let mut status_frames = 0usize;
    let mut became_unavailable = false;
    let mut unavailable_at = None;
    let mut cursor = 0usize;
    let events = sim.events();
    let total_bits = sim.now().bits();
    let ms_per_bit = speed.bit_time_us() / 1000.0;
    for t in 0..total_bits {
        let now_ms = t as f64 * ms_per_bit;
        while cursor < events.len() && events[cursor].at.bits() <= t {
            if events[cursor].node == observer {
                if let EventKind::FrameReceived { frame } = &events[cursor].kind {
                    if frame.id() == PARKSENSE_ID {
                        parksense.on_frame(frame.id(), now_ms);
                        status_frames += 1;
                    }
                }
            }
            cursor += 1;
        }
        if !parksense.is_available(now_ms) && !became_unavailable {
            became_unavailable = true;
            unavailable_at = Some(now_ms);
        }
    }

    let episodes = bus_off_episodes(sim.events(), attacker);
    ParkSenseOutcome {
        became_unavailable,
        unavailable_at_ms: unavailable_at,
        attacker_bus_offs: episodes.len(),
        first_episode_attempts: episodes.first().map(|e| e.attempts),
        status_frames_received: status_frames,
    }
}
