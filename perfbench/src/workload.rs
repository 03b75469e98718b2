//! The three workloads: their inputs, their timed grid run through the
//! public `bench` entry points, and the lockstep serial reference each run
//! is checked against.

use bench::attackzoo::{self, ZooCell};
use bench::campaign::{self, CampaignConfig};
use bench::idsbench::{self, IdsCell};
use bench::runner::{ExecOpts, SimMode};
use can_core::BusSpeed;
use can_ids::DetectorVariant;
use can_obs::{Journal, Recorder};
use restbus::{vehicle_matrix, CommMatrix, Vehicle};

/// Bus bits per IDS bake-off cell (the bake-off's default horizon).
pub const IDS_HORIZON_BITS: u64 = idsbench::IDS_HORIZON_BITS;
/// Bus bits per attack-zoo cell (the zoo's default horizon). A 400k-bit
/// horizon scales the journal, its exports and the chrome trace with the
/// simulation (about 4 s and 158 MiB per grid instead of 0.3 s and
/// 35 MiB), so it does not make the simulation outweigh the exports.
pub const ZOO_HORIZON_BITS: u64 = attackzoo::ZOO_HORIZON_BITS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    Ids,
    ZooObserved,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Campaign, Workload::Ids, Workload::ZooObserved];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Ids => "ids",
            Workload::ZooObserved => "zoo-observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The inputs of one workload, built from `--seed`.
pub struct Inputs {
    pub workload: Workload,
    /// The campaign's master seed; the IDS and zoo grids take no seed.
    pub campaign: CampaignConfig,
    pub ids_cells: Vec<IdsCell>,
    pub detectors: Vec<DetectorVariant>,
    pub zoo_cells: Vec<ZooCell>,
}

/// The campaign's restbus matrix, exactly as a campaign cell derives it:
/// Veh. D minus the attack id, with the highest remaining id split off
/// for the flaky node.
pub fn campaign_matrix(speed: BusSpeed) -> (CommMatrix, restbus::Message) {
    let full = vehicle_matrix(Vehicle::D, 0, speed);
    let mut messages: Vec<restbus::Message> = full
        .messages()
        .iter()
        .filter(|m| m.id.raw() != campaign::ATTACK_ID_RAW)
        .cloned()
        .collect();
    let flaky_index = messages
        .iter()
        .enumerate()
        .max_by_key(|(_, m)| m.id.raw())
        .map(|(i, _)| i)
        .expect("the Veh. D matrix is not empty");
    let flaky = messages.remove(flaky_index);
    (CommMatrix::new("veh-d-campaign", speed, messages), flaky)
}

impl Inputs {
    /// One set-up pass: exactly the inputs the workload's grid entry point
    /// takes before its first cell — the campaign configuration derived
    /// from the seed, the bake-off's cell list and detector grid, the
    /// zoo's cell list. Matrices, FSMs and simulators are built inside
    /// each cell by the entry points, so they count in `wall_s` only.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        let mut inputs = Inputs {
            workload,
            campaign: CampaignConfig {
                seed,
                shards: 1,
                ..CampaignConfig::default()
            },
            ids_cells: Vec::new(),
            detectors: Vec::new(),
            zoo_cells: Vec::new(),
        };
        match workload {
            Workload::Campaign => {}
            Workload::Ids => {
                inputs.ids_cells = idsbench::ids_cells();
                inputs.detectors = can_ids::all_variants();
            }
            Workload::ZooObserved => inputs.zoo_cells = attackzoo::zoo_cells(),
        }
        inputs
    }

    pub fn cell_count(&self) -> usize {
        match self.workload {
            Workload::Campaign => campaign::default_grid().len() * 2,
            Workload::Ids => self.ids_cells.len(),
            Workload::ZooObserved => self.zoo_cells.len(),
        }
    }

    /// Simulated bus bits per cell.
    pub fn bits_per_cell(&self) -> u64 {
        match self.workload {
            Workload::Campaign => BusSpeed::K500.bits_in_millis(self.campaign.run_ms),
            Workload::Ids => IDS_HORIZON_BITS,
            Workload::ZooObserved => ZOO_HORIZON_BITS,
        }
    }

    pub fn grid_bits(&self) -> u64 {
        self.bits_per_cell() * self.cell_count() as u64
    }

    /// Runs the whole grid serially through the public `bench` entry
    /// point in `mode`.
    pub fn run_grid(&self, mode: SimMode) -> GridOutput {
        let opts = ExecOpts::new().with_mode(mode);
        match self.workload {
            Workload::Campaign => {
                let report = campaign::run_campaign_with(&self.campaign, &opts);
                GridOutput {
                    cells: report.cells.iter().map(|c| format!("{c:?}")).collect(),
                    artifacts: vec![report.render()],
                }
            }
            Workload::Ids => {
                let outcomes = idsbench::run_ids_with(
                    self.ids_cells.clone(),
                    self.detectors.clone(),
                    IDS_HORIZON_BITS,
                    &opts,
                );
                GridOutput {
                    cells: outcomes.iter().map(|o| format!("{o:?}")).collect(),
                    artifacts: vec![idsbench::render_ids_table(&outcomes)],
                }
            }
            Workload::ZooObserved => {
                let opts = opts
                    .with_recorder(Recorder::enabled())
                    .with_journal(Journal::enabled());
                let outcomes =
                    attackzoo::run_zoo_with(self.zoo_cells.clone(), ZOO_HORIZON_BITS, &opts);
                let snapshot = opts.recorder.snapshot_json();
                let export = opts.journal.export_jsonl();
                let chrome = can_trace::chrome_trace_json(&export)
                    .expect("a journal export always converts");
                GridOutput {
                    cells: outcomes.iter().map(|o| format!("{o:?}")).collect(),
                    artifacts: vec![
                        attackzoo::render_zoo_table(&outcomes),
                        snapshot,
                        export,
                        chrome,
                    ],
                }
            }
        }
    }
}

/// What one grid run produced: each cell's rendered outcome, plus the
/// grid-level artifacts (rendered table; on `zoo-observed` also the
/// metrics snapshot, journal export and chrome trace).
pub struct GridOutput {
    pub cells: Vec<String>,
    pub artifacts: Vec<String>,
}

/// A compact, comparable digest of a grid run (kept per repetition
/// instead of the multi-megabyte artifacts themselves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub cells: Vec<u64>,
    pub artifacts: Vec<u64>,
}

pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

impl GridOutput {
    pub fn digest(&self) -> Digest {
        Digest {
            cells: self.cells.iter().map(|c| fnv64(c.as_bytes())).collect(),
            artifacts: self.artifacts.iter().map(|a| fnv64(a.as_bytes())).collect(),
        }
    }
}

impl Digest {
    /// Cells of `self` that fail against `reference`: a cell fails when
    /// its rendered outcome differs; when any grid-level artifact differs
    /// (which no single cell can be blamed for) every cell fails.
    pub fn failed_cells(&self, reference: &Digest) -> usize {
        if self.artifacts != reference.artifacts || self.cells.len() != reference.cells.len() {
            return reference.cells.len();
        }
        self.cells
            .iter()
            .zip(&reference.cells)
            .filter(|(a, b)| a != b)
            .count()
    }
}
