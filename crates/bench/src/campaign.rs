//! Fault-injection campaign: a seeded scenario × fault grid over the
//! full simulated vehicle bus.
//!
//! The paper evaluates MichiCAN on a clean breadboard bus; this module
//! asks what happens when the substrate misbehaves. Each campaign cell
//! runs the Veh. D restbus (with or without a saturating DoS attacker and
//! always with a supervised MichiCAN dongle) under one fault regime:
//! iid or bursty channel bit errors, a stuck-dominant / babbling /
//! crash-restarting transmitter, or sampling faults on the defender's own
//! pin. Every cell is seeded, so the same seed produces a byte-identical
//! report — the campaign is a regression artifact, not a statistical
//! estimate.
//!
//! Three invariants are checked on the cells at or below the documented
//! sporadic-fault threshold ([`SPORADIC_BER_THRESHOLD`]):
//!
//! 1. **no benign bus-off** — sporadic channel faults never walk a benign
//!    transmitter to bus-off (the +8/−1 TEC ladder needs a sustained
//!    error rate, cf. §IV-E's robustness argument);
//! 2. **eradication still succeeds** — the defender buses the attacker
//!    off despite sporadic faults;
//! 3. **the defender stays silent on benign traffic** — zero
//!    counterattacks in attack-free cells.
//!
//! Cells above the threshold are reported but not asserted: they document
//! where the defense degrades (and show the health watchdog withdrawing
//! prevention rather than flailing).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use can_attacks::{DosKind, SuspensionAttacker};
use can_core::agent::BitAgent;
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BitInstant, BusSpeed, CanFrame, CanId, Level};
use can_obs::{Journal, Recorder};
use can_sim::{
    BurstParams, EventKind, FaultModel, FaultyAgent, Node, NodeId, PinFaultConfig, SimBuilder,
    Simulator, TxFault,
};
use michican::prelude::*;
use restbus::{vehicle_matrix, CommMatrix, Message, Vehicle};

use crate::runner::{derive_seed, ExecOpts, ExperimentPlan};

/// Documented sporadic-fault threshold: iid channel BERs at or below this
/// rate must not disturb benign delivery or eradication (invariants 1–3).
pub const SPORADIC_BER_THRESHOLD: f64 = 1e-5;

/// The identifier the DoS attacker floods (kept out of the restbus).
pub const ATTACK_ID_RAW: u16 = 0x041;

/// Traffic on the bus during a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Restbus only — the defender must stay silent.
    Benign,
    /// Restbus plus a saturating targeted DoS attacker.
    Attack,
}

impl Traffic {
    fn name(self) -> &'static str {
        match self {
            Traffic::Benign => "benign",
            Traffic::Attack => "attack",
        }
    }
}

/// One fault regime of the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// No faults (the control cell).
    Clean,
    /// Iid channel bit errors at the given BER.
    BitErrors {
        /// Per-bit flip probability on the wired-AND bus.
        ber: f64,
    },
    /// Gilbert–Elliott bursty channel errors.
    Burst(BurstParams),
    /// A benign transmitter whose driver sticks dominant for a window
    /// (fractions of the run).
    StuckDominantTx,
    /// A benign transmitter babbling random dominant bits for a window.
    BabblingTx,
    /// A benign transmitter that crashes mid-run and restarts later.
    CrashRestartTx,
    /// Sampling faults on the defender's own pin (jitter, missed bit
    /// interrupts, delayed SOF hard-sync).
    DefenderPin(PinFaultConfig),
}

impl FaultSpec {
    /// Stable cell label (used in the report and in invariant messages).
    pub fn name(&self) -> String {
        match self {
            FaultSpec::Clean => "clean".into(),
            FaultSpec::BitErrors { ber } => format!("iid ber={ber:.0e}"),
            FaultSpec::Burst(p) => format!("burst mean={:.0e}", p.mean_ber()),
            FaultSpec::StuckDominantTx => "stuck-dominant tx".into(),
            FaultSpec::BabblingTx => "babbling tx".into(),
            FaultSpec::CrashRestartTx => "crash-restart tx".into(),
            FaultSpec::DefenderPin(_) => "defender pin".into(),
        }
    }

    /// Whether the invariants apply to this cell: the fault regime is at
    /// or below the documented sporadic threshold (or does not corrupt
    /// bus levels at all).
    fn below_threshold(&self) -> bool {
        match self {
            FaultSpec::Clean | FaultSpec::CrashRestartTx => true,
            FaultSpec::BitErrors { ber } => *ber <= SPORADIC_BER_THRESHOLD,
            FaultSpec::Burst(p) => p.mean_ber() <= SPORADIC_BER_THRESHOLD,
            // A jammed or babbling medium is a gross fault by definition.
            FaultSpec::StuckDominantTx | FaultSpec::BabblingTx => false,
            FaultSpec::DefenderPin(c) => {
                c.sample_flip_prob <= SPORADIC_BER_THRESHOLD
                    && c.missed_bit_prob <= SPORADIC_BER_THRESHOLD
            }
        }
    }
}

/// The default fault grid: one control cell, channel faults straddling
/// the threshold, the three transmitter faults, and defender pin faults.
pub fn default_grid() -> Vec<FaultSpec> {
    vec![
        FaultSpec::Clean,
        FaultSpec::BitErrors {
            ber: SPORADIC_BER_THRESHOLD,
        },
        FaultSpec::BitErrors { ber: 1e-3 },
        FaultSpec::Burst(BurstParams {
            p_good_to_bad: 2e-4,
            p_bad_to_good: 0.1,
            ber_good: 0.0,
            ber_bad: 0.25,
        }),
        FaultSpec::StuckDominantTx,
        FaultSpec::BabblingTx,
        FaultSpec::CrashRestartTx,
        FaultSpec::DefenderPin(PinFaultConfig {
            sample_flip_prob: SPORADIC_BER_THRESHOLD,
            missed_bit_prob: SPORADIC_BER_THRESHOLD,
            sof_delay_prob: 0.0,
            sof_delay_bits: 0,
        }),
    ]
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; every cell derives its own sub-seeds from it.
    pub seed: u64,
    /// Simulated wall time per cell, in milliseconds at 500 kbit/s.
    pub run_ms: f64,
    /// Worker count for the grid (1 = serial reference path). The report
    /// is byte-identical for every value — cells are seeded by grid index
    /// and reduced in grid order (see [`crate::runner`]).
    pub shards: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x00D5_2025,
            run_ms: 200.0,
            shards: 1,
        }
    }
}

/// Measured outcome of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Traffic regime of the cell.
    pub traffic: Traffic,
    /// Fault regime of the cell.
    pub fault: FaultSpec,
    /// Benign frames delivered to the monitor node.
    pub benign_delivered: u64,
    /// Attack frames delivered to the monitor node.
    pub attack_delivered: u64,
    /// Times the attacker was forced to bus-off.
    pub eradications: u64,
    /// Bus-off events on benign nodes (restbus, monitor, flaky sender).
    pub benign_bus_offs: u64,
    /// Frames the defender flagged as attacks.
    pub attacks_detected: u64,
    /// Counterattacks the defender launched.
    pub counterattacks: u64,
    /// Times the health watchdog fell back to detect-only.
    pub degradations: u64,
    /// Times the watchdog re-armed prevention.
    pub rearms: u64,
    /// Whether prevention was armed when the run ended.
    pub armed_at_end: bool,
    /// Observed bus load over the run.
    pub bus_load: f64,
}

impl CellOutcome {
    /// Stable cell label (`traffic/fault`).
    pub fn label(&self) -> String {
        format!("{}/{}", self.traffic.name(), self.fault.name())
    }
}

/// One invariant broken by a below-threshold cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Label of the offending cell.
    pub cell: String,
    /// Which invariant broke.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

/// The full campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Master seed the campaign ran with.
    pub seed: u64,
    /// Per-cell simulated time, milliseconds.
    pub run_ms: f64,
    /// Every cell outcome, in grid order.
    pub cells: Vec<CellOutcome>,
    /// Invariant violations among below-threshold cells (empty = pass).
    pub violations: Vec<InvariantViolation>,
}

impl CampaignReport {
    /// Renders the deterministic text report (same seed → identical
    /// bytes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "seed 0x{:08X}, {} ms per cell, {} cells ({} below threshold ber<={:.0e})",
            self.seed,
            self.run_ms,
            self.cells.len(),
            self.cells
                .iter()
                .filter(|c| c.fault.below_threshold())
                .count(),
            SPORADIC_BER_THRESHOLD,
        );
        let _ = writeln!(
            out,
            "{:<8} {:<18} {:>6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6}",
            "traffic",
            "fault",
            "thr",
            "benign",
            "attack",
            "erad",
            "b-off",
            "det",
            "cntr",
            "deg",
            "armed",
            "load"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<8} {:<18} {:>6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>5} {:>6} {:>5.1}%",
                c.traffic.name(),
                c.fault.name(),
                if c.fault.below_threshold() { "<=" } else { ">" },
                c.benign_delivered,
                c.attack_delivered,
                c.eradications,
                c.benign_bus_offs,
                c.attacks_detected,
                c.counterattacks,
                c.degradations,
                if c.armed_at_end { "yes" } else { "no" },
                c.bus_load * 100.0,
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "invariants: OK (all below-threshold cells clean)");
        } else {
            let _ = writeln!(out, "invariants: {} VIOLATION(S)", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  {} — {}: {}", v.cell, v.invariant, v.detail);
            }
        }
        out
    }
}

/// A clonable handle to the supervised defender, so the campaign can read
/// its statistics after the simulator consumed the agent.
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

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        self.0.borrow().drive_horizon(now)
    }

    fn drive_until(&self, now: BitInstant) -> BitInstant {
        self.0.borrow().drive_until(now)
    }

    fn observe_stretch(&mut self, word: u64, len: u32, own_tx: bool, from: BitInstant) {
        self.0.borrow_mut().observe_stretch(word, len, own_tx, from);
    }
}

/// A campaign cell whose scenario could not be constructed.
///
/// Construction failures are pure functions of the cell's parameters (a
/// malformed matrix, an invalid frame, duplicate identifiers) — rerunning
/// the same cell deterministically fails the same way, so a sweep
/// supervisor must classify them as **fatal** (quarantine immediately)
/// rather than retryable, in contrast to panics and timeouts which get a
/// bounded retry. [`CellBuildError::is_retryable`] encodes that contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellBuildError {
    /// Which construction stage failed (`matrix`, `frame`, `ecu-list`).
    pub stage: &'static str,
    /// Human-readable cause.
    pub detail: String,
}

impl CellBuildError {
    fn new(stage: &'static str, detail: impl std::fmt::Display) -> Self {
        CellBuildError {
            stage,
            detail: detail.to_string(),
        }
    }

    /// Whether a supervisor should retry the cell. Always `false`:
    /// scenario construction is deterministic, so a failed build never
    /// heals on retry — only panics and timeouts are worth retrying.
    pub fn is_retryable(&self) -> bool {
        false
    }
}

impl std::fmt::Display for CellBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell construction failed at {}: {}",
            self.stage, self.detail
        )
    }
}

impl std::error::Error for CellBuildError {}

/// Runs one cell of the campaign under `opts`.
///
/// # Panics
///
/// Panics if the cell scenario cannot be constructed; supervised callers
/// (the sweep engine) use [`try_run_cell_with`] instead and classify the
/// error.
pub fn run_cell_with(
    traffic: Traffic,
    fault: FaultSpec,
    seed: u64,
    run_ms: f64,
    opts: &ExecOpts,
) -> CellOutcome {
    match try_run_cell_with(traffic, fault, seed, run_ms, opts) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`run_cell_with`]: scenario-construction failures come
/// back as [`CellBuildError`] instead of panicking, so a sweep supervisor
/// can classify them (fatal, never retried) separately from panics and
/// timeouts (retryable). The recorder is attached to the simulator and the
/// supervised defender; the defender's metrics are labelled with its node
/// index on the cell's bus, matching the simulator's `can_*` series.
pub fn try_run_cell_with(
    traffic: Traffic,
    fault: FaultSpec,
    seed: u64,
    run_ms: f64,
    opts: &ExecOpts,
) -> Result<CellOutcome, CellBuildError> {
    let mut cell = build_cell(traffic, fault, seed, run_ms, &opts.recorder, &opts.journal)?;
    let run_bits = BusSpeed::K500.bits_in_millis(run_ms);
    opts.run(&mut cell.sim, run_bits);
    Ok(cell_outcome(cell))
}

/// A campaign cell, built but not yet run: its simulator plus the
/// handles its outcome reads after the run.
pub struct Cell {
    /// The cell's bus; run it for the cell's `run_ms`.
    pub sim: Simulator,
    traffic: Traffic,
    fault: FaultSpec,
    defender: SharedDefender,
    monitor: NodeId,
    flaky: NodeId,
    attacker: Option<NodeId>,
}

impl Cell {
    /// A copy of the supervised defender in its current state (before the
    /// run: as built).
    pub fn defender(&self) -> SupervisedMichiCan {
        self.defender.0.borrow().clone()
    }
}

/// Builds one campaign cell with `recorder` and `journal` attached to the
/// simulator and the supervised defender. Fault windows are placed
/// relative to `run_ms`, as in [`run_cell_with`].
pub fn build_cell(
    traffic: Traffic,
    fault: FaultSpec,
    seed: u64,
    run_ms: f64,
    recorder: &Recorder,
    journal: &Journal,
) -> Result<Cell, CellBuildError> {
    build_cell_wrapped(traffic, fault, seed, run_ms, recorder, journal, |agent| {
        agent
    })
}

/// [`build_cell`], with the defender's bus agent passed through `wrap`
/// before it joins the bus (`perfbase` records what the defender sees).
pub fn build_cell_wrapped(
    traffic: Traffic,
    fault: FaultSpec,
    seed: u64,
    run_ms: f64,
    recorder: &Recorder,
    journal: &Journal,
    wrap: impl FnOnce(Box<dyn BitAgent>) -> Box<dyn BitAgent>,
) -> Result<Cell, CellBuildError> {
    let speed = BusSpeed::K500;
    let run_bits = speed.bits_in_millis(run_ms);

    // Veh. D restbus minus the attack id; the highest id goes to a
    // dedicated "flaky" node so transmitter faults have a victim that is
    // a real matrix participant.
    let full = vehicle_matrix(Vehicle::D, 0, speed);
    let mut messages: Vec<Message> = full
        .messages()
        .iter()
        .filter(|m| m.id.raw() != ATTACK_ID_RAW)
        .cloned()
        .collect();
    let flaky_index = messages
        .iter()
        .enumerate()
        .max_by_key(|(_, m)| m.id.raw())
        .map(|(i, _)| i)
        .ok_or_else(|| CellBuildError::new("matrix", "restbus matrix is empty"))?;
    let flaky_msg = messages.remove(flaky_index);
    let matrix = CommMatrix::new("veh-d-campaign", speed, messages);

    let mut builder = SimBuilder::new(speed)
        .recorder(recorder.clone())
        .journal(journal.clone())
        .node(Node::new(
            "restbus",
            Box::new(restbus::ReplayApp::for_matrix(&matrix)),
        ));
    let monitor = builder.node_id();
    builder = builder.node(Node::new("monitor", Box::new(SilentApplication)));

    // The flaky node periodically sends the message carved out above.
    let flaky_frame = CanFrame::data_frame(flaky_msg.id, &vec![0x5A; flaky_msg.dlc as usize])
        .map_err(|e| CellBuildError::new("frame", e))?;
    let flaky_period = speed.bits_in_millis(flaky_msg.period_ms as f64);
    let mut flaky_node = Node::new(
        "flaky",
        Box::new(PeriodicSender::new(flaky_frame, flaky_period.max(1), 40)),
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

    // Channel faults on the wired-AND medium.
    match fault {
        FaultSpec::BitErrors { ber } => {
            builder = builder.fault(FaultModel::random(ber, derive_seed(seed, 102)));
        }
        FaultSpec::Burst(params) => {
            builder = builder.fault(FaultModel::bursty(params, derive_seed(seed, 103)));
        }
        _ => {}
    }

    // The supervised MichiCAN dongle (monitor mode: it owns no id).
    let mut ids = matrix.ids();
    ids.push(flaky_msg.id);
    let list = EcuList::new(ids).map_err(|e| CellBuildError::new("ecu-list", e))?;
    let defender = SharedDefender(Rc::new(RefCell::new(SupervisedMichiCan::new(
        MichiCan::new(DetectionFsm::for_monitor(&list)),
        HealthConfig::default(),
        SyncConfig::typical(speed),
    ))));
    let agent: Box<dyn BitAgent> = match fault {
        FaultSpec::DefenderPin(config) => Box::new(FaultyAgent::new(
            defender.clone(),
            config,
            derive_seed(seed, 104),
        )),
        _ => Box::new(defender.clone()),
    };
    let defender_node = builder.node_id();
    builder =
        builder.node(Node::new("michican", Box::new(SilentApplication)).with_agent(wrap(agent)));
    defender
        .0
        .borrow_mut()
        .set_recorder(recorder.clone(), defender_node as u32);
    defender
        .0
        .borrow_mut()
        .set_journal(journal.clone(), defender_node as u32);

    let attacker = match traffic {
        Traffic::Attack => {
            let id = builder.node_id();
            builder = builder.node(Node::new(
                "attacker",
                Box::new(
                    SuspensionAttacker::saturating(DosKind::Targeted {
                        id: CanId::from_raw(ATTACK_ID_RAW),
                    })
                    .with_payload(&[0xFF; 8]),
                ),
            ));
            Some(id)
        }
        Traffic::Benign => None,
    };

    Ok(Cell {
        sim: builder.build(),
        traffic,
        fault,
        defender,
        monitor,
        flaky,
        attacker,
    })
}

/// Reduces a finished cell run to its outcome row.
fn cell_outcome(cell: Cell) -> CellOutcome {
    let Cell {
        sim,
        traffic,
        fault,
        defender,
        monitor,
        flaky,
        attacker,
    } = cell;
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
                    // The flaky node's own bus-off under its own stuck /
                    // babbling driver is the fault, not collateral.
                    benign_bus_offs += 1;
                }
            }
            _ => {}
        }
    }

    let supervised = defender.0.borrow();
    CellOutcome {
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
    }
}

/// Runs the full campaign (grid = [`default_grid`] × benign/attack) on
/// `config.shards` workers and checks the three invariants on the
/// below-threshold cells. Each cell's seed is fixed by its grid index, and
/// outcomes, per-cell registries and journals are reduced in grid order
/// (see [`ExperimentPlan::run_with`]), so the report, the merged snapshot
/// and the journal export are byte-identical for every shard count and
/// simulation mode. The worker count comes from `config.shards` (the
/// campaign's own parameter), not from `opts`.
pub fn run_campaign_with(config: &CampaignConfig, opts: &ExecOpts) -> CampaignReport {
    let grid: Vec<(Traffic, FaultSpec)> = [Traffic::Benign, Traffic::Attack]
        .into_iter()
        .flat_map(|traffic| {
            default_grid()
                .into_iter()
                .map(move |fault| (traffic, fault))
        })
        .collect();
    let run_ms = config.run_ms;
    let cells = ExperimentPlan::new(grid, config.seed).run_with(
        &opts.clone().with_shards(config.shards),
        |_index, seed, (traffic, fault), cell_opts| {
            run_cell_with(traffic, fault, seed, run_ms, cell_opts)
        },
    );

    let mut violations = Vec::new();
    for c in cells.iter().filter(|c| c.fault.below_threshold()) {
        if c.benign_bus_offs > 0 {
            violations.push(InvariantViolation {
                cell: c.label(),
                invariant: "no benign bus-off",
                detail: format!("{} benign bus-off event(s)", c.benign_bus_offs),
            });
        }
        match c.traffic {
            Traffic::Attack => {
                if c.eradications == 0 {
                    violations.push(InvariantViolation {
                        cell: c.label(),
                        invariant: "eradication below threshold",
                        detail: "attacker never bused off".into(),
                    });
                }
            }
            Traffic::Benign => {
                if c.counterattacks > 0 {
                    violations.push(InvariantViolation {
                        cell: c.label(),
                        invariant: "defender silent on benign traffic",
                        detail: format!("{} counterattack(s) launched", c.counterattacks),
                    });
                }
            }
        }
    }

    CampaignReport {
        seed: config.seed,
        run_ms: config.run_ms,
        cells,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CampaignConfig {
        CampaignConfig {
            run_ms: 60.0,
            ..CampaignConfig::default()
        }
    }

    fn run_quick() -> CampaignReport {
        run_campaign_with(&quick(), &ExecOpts::new())
    }

    #[test]
    fn report_is_byte_identical_for_the_same_seed() {
        let a = run_quick().render();
        let b = run_quick().render();
        assert_eq!(a, b);
    }

    #[test]
    fn invariants_hold_below_threshold() {
        let report = run_quick();
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
    }

    #[test]
    fn clean_cells_behave_like_the_availability_experiment() {
        let report = run_quick();
        let cell = |traffic, name: &str| {
            report
                .cells
                .iter()
                .find(|c| c.traffic == traffic && c.fault.name() == name)
                .unwrap()
                .clone()
        };
        let benign = cell(Traffic::Benign, "clean");
        assert!(benign.benign_delivered > 50, "restbus delivers");
        assert_eq!(benign.counterattacks, 0);
        assert!(benign.armed_at_end);

        let attack = cell(Traffic::Attack, "clean");
        assert!(attack.eradications >= 1, "attacker eradicated");
        assert_eq!(attack.attack_delivered, 0, "no spoof completes");
        assert!(attack.counterattacks >= 1);
    }

    #[test]
    fn grid_straddles_the_threshold() {
        let grid = default_grid();
        assert!(grid.iter().any(|f| f.below_threshold()));
        assert!(grid.iter().any(|f| !f.below_threshold()));
        // Labels are unique (the report would be ambiguous otherwise).
        let mut names: Vec<String> = grid.iter().map(FaultSpec::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), grid.len());
    }
}
