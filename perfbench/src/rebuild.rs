//! The grid cells, rebuilt from the same public constructors the `bench`
//! entry points use, so the traced run can put timed wrappers (see
//! [`crate::wrap`]) around every `Application`, `BitAgent` and
//! `FrameTap` the cell is made of — or a capture tap and a bus-trace
//! ring for the replay.
//!
//! Each builder mirrors one `bench` cell function line for line and
//! computes the same outcome type; the traced run checks that outcome
//! against the `bench` function's own, so any drift in the mirror shows
//! up as a failed cell rather than as a wrong measurement.

use std::cell::RefCell;
use std::rc::Rc;

use bench::attackzoo::{
    ZooCell, ZooDefense, ZooOutcome, ZOO_VICTIM_ID, ZOO_VICTIM_PAYLOAD, ZOO_VICTIM_PERIOD_BITS,
};
use bench::campaign::{CellOutcome, FaultSpec, Traffic, ATTACK_ID_RAW};
use bench::idsbench::{
    DetectorOutcome, IdsCell, IdsOutcome, IdsScenario, IDS_ARM_AT_BITS, IDS_ATTACK_START_BITS,
    IDS_BENIGN_ID, IDS_BENIGN_PERIOD_BITS, IDS_TAP_JOURNAL_NODE, IDS_VICTIM_ID, IDS_VICTIM_PAYLOAD,
    IDS_VICTIM_PERIOD_BITS,
};
use bench::runner::{derive_seed, ExecOpts};
use bench::scenarios::TABLE2_SPEED;
use can_attacks::registry::{AttackAgent, AttackParams};
use can_attacks::{AdaptiveRacer, DosKind, SuspensionAttacker};
use can_core::agent::BitAgent;
use can_core::app::{Application, PeriodicSender, SilentApplication};
use can_core::{BitInstant, BusSpeed, CanFrame, CanId, Level};
use can_ids::{DetectorTap, DetectorVariant};
use can_obs::Recorder;
use can_sim::{
    bus_off_episodes, ErrorRole, EventKind, FaultModel, FaultyAgent, FrameTap, Node, NodeId,
    SimBuilder, Simulator, TxFault,
};
use michican::prelude::*;
use parrot::ParrotDefender;

use crate::wrap::{TallyHandle, TimedAgent, TimedApp, TimedTap};

/// The layer a wrapped trait object belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Frame-level applications: restbus, periodic senders, silent
    /// receivers, controller-level attackers.
    App,
    /// The MichiCAN bit handler (`michican`).
    MichiCan,
    /// Bit-level adversaries (`can_attacks`).
    Attacks,
    /// The Parrot defender (an application; its per-bit seam is `poll`).
    Parrot,
    /// IDS detector taps (`can_ids`).
    Ids,
}

/// Completed frames a capture tap saw, in completion order.
pub type Captured = Rc<RefCell<Vec<CanFrame>>>;

struct CaptureTap(Captured);

impl FrameTap for CaptureTap {
    fn on_frame(&mut self, frame: &CanFrame, _now: BitInstant) {
        self.0.borrow_mut().push(*frame);
    }
}

/// How a rebuilt cell is instrumented.
#[derive(Default)]
pub struct Wiring {
    wrap: bool,
    /// Every wrapper's tally, with its layer.
    pub tallies: Vec<(Layer, TallyHandle)>,
    capture: Option<(Captured, usize)>,
}

impl Wiring {
    /// Every trait object wrapped in a timed forwarder.
    pub fn wrapped() -> Wiring {
        Wiring {
            wrap: true,
            ..Wiring::default()
        }
    }

    /// No wrappers, but a capture tap and a bus-trace ring of
    /// `ring_bits` bits, for the replay.
    pub fn capturing(ring_bits: usize) -> (Wiring, Captured) {
        let frames = Captured::default();
        let wiring = Wiring {
            capture: Some((frames.clone(), ring_bits)),
            ..Wiring::default()
        };
        (wiring, frames)
    }

    fn app(&mut self, layer: Layer, app: Box<dyn Application>) -> Box<dyn Application> {
        if !self.wrap {
            return app;
        }
        let (app, tally) = TimedApp::wrap(app);
        self.tallies.push((layer, tally));
        app
    }

    fn agent(&mut self, layer: Layer, agent: Box<dyn BitAgent>) -> Box<dyn BitAgent> {
        if !self.wrap {
            return agent;
        }
        let (agent, tally) = TimedAgent::new(agent);
        self.tallies.push((layer, tally));
        Box::new(agent)
    }

    fn tap(&mut self, tap: Box<dyn FrameTap>) -> Box<dyn FrameTap> {
        if !self.wrap {
            return tap;
        }
        let (tap, tally) = TimedTap::wrap(tap);
        self.tallies.push((Layer::Ids, tally));
        tap
    }

    fn finish(&self, builder: SimBuilder) -> SimBuilder {
        match &self.capture {
            Some((frames, ring)) => builder
                .tap(Box::new(CaptureTap(frames.clone())))
                .trace_ring(*ring),
            None => builder,
        }
    }
}

// ---------------------------------------------------------------------
// Campaign (mirrors `bench::campaign::try_run_cell_with`).
// ---------------------------------------------------------------------

#[derive(Clone)]
struct SharedDefender(Rc<RefCell<SupervisedMichiCan>>);

impl BitAgent for SharedDefender {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        self.0.borrow_mut().on_bit(level, now);
    }

    fn tx_level(&self) -> Option<Level> {
        self.0.borrow().tx_level()
    }

    fn set_own_transmission(&mut self, transmitting: bool) {
        self.0.borrow_mut().set_own_transmission(transmitting);
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        self.0.borrow().next_activity(now)
    }

    fn skip_idle(&mut self, bits: u64, from: BitInstant) {
        self.0.borrow_mut().skip_idle(bits, from);
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        self.0.borrow().drive_horizon(now)
    }
}

/// One campaign cell; returns its outcome and the finished simulator.
pub fn campaign_cell(
    (traffic, fault): (Traffic, FaultSpec),
    seed: u64,
    run_ms: f64,
    opts: &ExecOpts,
    wiring: &mut Wiring,
) -> (CellOutcome, Simulator) {
    let recorder = &opts.recorder;
    let speed = BusSpeed::K500;
    let run_bits = speed.bits_in_millis(run_ms);
    let (matrix, flaky_msg) = crate::workload::campaign_matrix(speed);

    let mut builder = SimBuilder::new(speed)
        .recorder(recorder.clone())
        .journal(opts.journal.clone())
        .node(Node::new(
            "restbus",
            wiring.app(
                Layer::App,
                Box::new(restbus::ReplayApp::for_matrix(&matrix)),
            ),
        ));
    let monitor = builder.node_id();
    builder = builder.node(Node::new(
        "monitor",
        wiring.app(Layer::App, Box::new(SilentApplication)),
    ));

    let flaky_frame = CanFrame::data_frame(flaky_msg.id, &vec![0x5A; flaky_msg.dlc as usize])
        .expect("the matrix frame is valid");
    let flaky_period = speed.bits_in_millis(flaky_msg.period_ms as f64);
    let mut flaky_node = Node::new(
        "flaky",
        wiring.app(
            Layer::App,
            Box::new(PeriodicSender::new(flaky_frame, flaky_period.max(1), 40)),
        ),
    );
    match fault {
        FaultSpec::StuckDominantTx => {
            flaky_node = flaky_node.with_tx_fault(TxFault::stuck_dominant(
                run_bits * 3 / 10,
                run_bits * 7 / 20,
            ));
        }
        FaultSpec::BabblingTx => {
            flaky_node = flaky_node.with_tx_fault(TxFault::babbling(
                run_bits * 3 / 10,
                run_bits * 2 / 5,
                0.3,
                derive_seed(seed, 101),
            ));
        }
        FaultSpec::CrashRestartTx => {
            flaky_node =
                flaky_node.with_tx_fault(TxFault::crash_restart(run_bits / 4, run_bits / 2));
        }
        _ => {}
    }
    let flaky = builder.node_id();
    builder = builder.node(flaky_node);

    match fault {
        FaultSpec::BitErrors { ber } => {
            builder = builder.fault(FaultModel::random(ber, derive_seed(seed, 102)));
        }
        FaultSpec::Burst(params) => {
            builder = builder.fault(FaultModel::bursty(params, derive_seed(seed, 103)));
        }
        _ => {}
    }

    let mut ids = matrix.ids();
    ids.push(flaky_msg.id);
    let list = EcuList::new(ids).expect("campaign ids are distinct");
    let defender = SharedDefender(Rc::new(RefCell::new(SupervisedMichiCan::new(
        MichiCan::new(DetectionFsm::for_monitor(&list)),
        HealthConfig::default(),
        SyncConfig::typical(speed),
    ))));
    // The pin fault stays outside the wrapper: `michican` time is the
    // handler's own.
    let handler = wiring.agent(Layer::MichiCan, Box::new(defender.clone()));
    let agent: Box<dyn BitAgent> = match fault {
        FaultSpec::DefenderPin(config) => {
            Box::new(FaultyAgent::new(handler, config, derive_seed(seed, 104)))
        }
        _ => handler,
    };
    let defender_node = builder.node_id();
    builder = builder.node(
        Node::new(
            "michican",
            wiring.app(Layer::App, Box::new(SilentApplication)),
        )
        .with_agent(agent),
    );
    defender
        .0
        .borrow_mut()
        .set_recorder(recorder.clone(), defender_node as u32);
    defender
        .0
        .borrow_mut()
        .set_journal(opts.journal.clone(), defender_node as u32);

    let attacker = match traffic {
        Traffic::Attack => {
            let id = builder.node_id();
            let app = SuspensionAttacker::saturating(DosKind::Targeted {
                id: CanId::from_raw(ATTACK_ID_RAW),
            })
            .with_payload(&[0xFF; 8]);
            builder = builder.node(Node::new("attacker", wiring.app(Layer::App, Box::new(app))));
            Some(id)
        }
        Traffic::Benign => None,
    };

    let mut sim = wiring.finish(builder).build();
    opts.run(&mut sim, run_bits);

    let mut benign_delivered = 0u64;
    let mut attack_delivered = 0u64;
    let mut benign_bus_offs = 0u64;
    let mut eradications = 0u64;
    for e in sim.events() {
        match &e.kind {
            EventKind::FrameReceived { frame } if e.node == monitor => {
                if frame.id().raw() == ATTACK_ID_RAW {
                    attack_delivered += 1;
                } else {
                    benign_delivered += 1;
                }
            }
            EventKind::BusOff => {
                if Some(e.node) == attacker {
                    eradications += 1;
                } else if e.node != flaky || fault == FaultSpec::CrashRestartTx {
                    benign_bus_offs += 1;
                }
            }
            _ => {}
        }
    }

    let supervised = defender.0.borrow();
    let outcome = CellOutcome {
        traffic,
        fault,
        benign_delivered,
        attack_delivered,
        eradications,
        benign_bus_offs,
        attacks_detected: supervised.handler().stats().attacks_detected,
        counterattacks: supervised.handler().stats().counterattacks,
        degradations: supervised.stats().degradations,
        rearms: supervised.stats().rearms,
        armed_at_end: supervised.state() == HealthState::Armed,
        bus_load: sim.observed_bus_load(),
    };
    drop(supervised);
    (outcome, sim)
}

// ---------------------------------------------------------------------
// IDS bake-off (mirrors `bench::idsbench::build_ids_cell_observed` and
// `run_ids_cell`).
// ---------------------------------------------------------------------

/// An application gated silent until a fixed sim time (the bake-off's
/// attacker gate).
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

/// The victim node shared by the zoo and bake-off cells.
fn victim_node(
    defense: ZooDefense,
    victim: CanId,
    frame: CanFrame,
    period: u64,
    probe: &Recorder,
    journal: &can_obs::Journal,
    wiring: &mut Wiring,
) -> Node {
    match defense {
        ZooDefense::Undefended => Node::new(
            "victim-0x173",
            wiring.app(Layer::App, Box::new(PeriodicSender::new(frame, period, 0))),
        ),
        ZooDefense::MichiCan => {
            let list = EcuList::from_raw(&[victim.raw()]);
            let mut handler = MichiCan::new(DetectionFsm::for_ecu(&list, 0));
            handler.set_recorder(probe.clone(), 0);
            handler.set_journal(journal.clone(), 0);
            Node::new(
                "victim-0x173",
                wiring.app(Layer::App, Box::new(PeriodicSender::new(frame, period, 0))),
            )
            .with_agent(wiring.agent(Layer::MichiCan, Box::new(handler)))
        }
        ZooDefense::Parrot => {
            let mut parrot = ParrotDefender::new(victim, 5_000).with_own_traffic(period);
            parrot.set_recorder(probe.clone(), 0);
            parrot.set_journal(journal.clone(), 0);
            Node::new("victim-0x173", wiring.app(Layer::Parrot, Box::new(parrot)))
        }
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

/// One bake-off cell; returns its outcome and the finished simulator.
pub fn ids_cell(
    cell: &IdsCell,
    detectors: &[DetectorVariant],
    horizon_bits: u64,
    opts: &ExecOpts,
    wiring: &mut Wiring,
) -> (IdsOutcome, Simulator) {
    let journal = opts.journal.clone();
    let victim = CanId::from_raw(IDS_VICTIM_ID);
    let probe = Recorder::enabled();
    let mut builder = SimBuilder::new(TABLE2_SPEED)
        .recorder(opts.recorder.clone())
        .journal(journal.clone());

    let frame = CanFrame::data_frame(victim, &IDS_VICTIM_PAYLOAD).expect("valid victim frame");
    builder = builder.node(victim_node(
        cell.defense,
        victim,
        frame,
        IDS_VICTIM_PERIOD_BITS,
        &probe,
        &journal,
        wiring,
    ));

    let attacker_node = builder.node_id();
    builder = match cell.scenario {
        IdsScenario::Clean => builder.node(Node::new(
            "attacker-idle",
            wiring.app(Layer::App, Box::new(SilentApplication)),
        )),
        IdsScenario::Attack(variant) => {
            match variant.instantiate_observed(victim, IDS_VICTIM_PERIOD_BITS, &journal, 1) {
                AttackAgent::App(app) => builder.node(Node::new(
                    "attacker",
                    wiring.app(
                        Layer::App,
                        Box::new(DelayedApp {
                            inner: app,
                            start_bits: IDS_ATTACK_START_BITS,
                        }),
                    ),
                )),
                AttackAgent::Bit(agent) => builder.node(
                    Node::new(
                        "attacker-bitlevel",
                        wiring.app(Layer::App, Box::new(SilentApplication)),
                    )
                    .with_agent(wiring.agent(Layer::Attacks, agent)),
                ),
            }
        }
    };

    let benign_frame = CanFrame::data_frame(CanId::from_raw(IDS_BENIGN_ID), &[0x55; 4])
        .expect("valid benign frame");
    builder = builder.node(Node::new(
        "benign-0x300",
        wiring.app(
            Layer::App,
            Box::new(PeriodicSender::new(
                benign_frame,
                IDS_BENIGN_PERIOD_BITS,
                200,
            )),
        ),
    ));
    builder = builder.node(Node::new(
        "rx",
        wiring.app(Layer::App, Box::new(SilentApplication)),
    ));

    let mut taps = Vec::with_capacity(detectors.len());
    for variant in detectors {
        let tap = DetectorTap::new(variant.label(), variant.instantiate())
            .with_arm_at(IDS_ARM_AT_BITS)
            .with_recorder(probe.clone())
            .with_journal(journal.clone(), IDS_TAP_JOURNAL_NODE);
        builder = builder.tap(wiring.tap(tap.as_frame_tap()));
        taps.push(tap);
    }

    let mut sim = wiring.finish(builder).build();
    opts.run(&mut sim, horizon_bits);

    let start = attack_start(&sim, attacker_node);
    let defense_latency_bits = match (cell.defense, start) {
        (ZooDefense::MichiCan, Some(start)) => {
            michican_kill(&sim, attacker_node, start).map(|kill| kill - start)
        }
        _ => None,
    };
    let attacker_bus_offs = bus_off_episodes(sim.events(), attacker_node).len();
    let fp_window_end = start.unwrap_or(horizon_bits);
    let detectors = taps
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
    opts.recorder.merge_registry(&probe.into_registry());

    let outcome = IdsOutcome {
        scenario: cell.scenario.label(),
        defense: cell.defense.label(),
        attack_start_bits: start,
        defense_latency_bits,
        attacker_bus_offs,
        detectors,
    };
    (outcome, sim)
}

// ---------------------------------------------------------------------
// Attack zoo (mirrors `bench::attackzoo::build_zoo_cell_observed` and
// `run_zoo_cell`).
// ---------------------------------------------------------------------

/// One zoo cell; returns its outcome and the finished simulator.
pub fn zoo_cell(
    cell: &ZooCell,
    horizon_bits: u64,
    opts: &ExecOpts,
    wiring: &mut Wiring,
) -> (ZooOutcome, Simulator) {
    let journal = opts.journal.clone();
    let victim = CanId::from_raw(ZOO_VICTIM_ID);
    let probe = Recorder::enabled();
    let mut builder = SimBuilder::new(TABLE2_SPEED)
        .recorder(opts.recorder.clone())
        .journal(journal.clone());

    let victim_node_id = builder.node_id();
    let frame = CanFrame::data_frame(victim, &ZOO_VICTIM_PAYLOAD).expect("valid victim frame");
    builder = builder.node(victim_node(
        cell.defense,
        victim,
        frame,
        ZOO_VICTIM_PERIOD_BITS,
        &probe,
        &journal,
        wiring,
    ));

    let attacker_node = builder.node_id();
    let agent = match cell.variant.params {
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
        AttackAgent::Bit(agent) => builder.node(
            Node::new(
                "attacker-bitlevel",
                wiring.app(Layer::App, Box::new(SilentApplication)),
            )
            .with_agent(wiring.agent(Layer::Attacks, agent)),
        ),
        AttackAgent::App(app) => builder.node(Node::new("attacker", wiring.app(Layer::App, app))),
    };

    let rx_node = builder.node_id();
    builder = builder.node(Node::new(
        "rx",
        wiring.app(Layer::App, Box::new(SilentApplication)),
    ));
    let mut sim = wiring.finish(builder).build();
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
    let victim_episodes = bus_off_episodes(sim.events(), victim_node_id);
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
    opts.recorder.merge_registry(&probe.into_registry());

    let outcome = ZooOutcome {
        attack: cell.variant.label(),
        defense: cell.defense.label(),
        bit_level: cell.variant.bit_level(),
        detections,
        attacker_bus_offs: attacker_episodes.len(),
        first_episode_attempts: attacker_episodes.first().map(|e| e.attempts),
        victim_bus_offs: victim_episodes.len(),
        reaction_p50_bits,
        victim_frames_delivered,
    };
    (outcome, sim)
}
