//! Forced work rides the packed kernel: MichiCAN's injections and the
//! zoo attackers' flags and strikes join the wired-AND as known dominant
//! runs (`BitAgent::drive_until`), stuck-dominant and babbling TX faults as
//! their own drive words, and Parrot's flood re-posts settle in closed
//! form (`Application::repost_until`). These counts pin that on the three
//! benchmark grids, built through the public cell builders with no
//! wrappers in between.
//!
//! Each grid's summed kernel telemetry is pinned exactly as well: how an
//! agent *observes* a stretch (closed form or bit by bit) must not move
//! where the kernel ends one, so a change to an agent's observation path
//! that moves any of these counts has changed what the agent promised.

use bench::attackzoo::{build_zoo_cell_observed, zoo_cells, ZOO_HORIZON_BITS};
use bench::campaign::{build_cell, default_grid, CampaignConfig, Traffic};
use bench::idsbench::{build_ids_cell_observed, ids_cells, IDS_HORIZON_BITS};
use bench::runner::derive_seed;
use can_core::BusSpeed;
use can_obs::{Journal, Recorder};
use can_sim::{FallbackCause, KernelTelemetry};

fn count(telemetry: &KernelTelemetry, causes: &[FallbackCause]) -> u64 {
    causes.iter().map(|&c| telemetry.fallback_count(c)).sum()
}

/// The campaign grid's [`Decisions`] at seed 1.
const CAMPAIGN_DECISIONS: [u64; 12] = [
    71_853, 515_603, 1_012_544, 88_197, 290, 0, 6_719, 5_505, 21_903, 9_665, 23_981, 3_790,
];
/// The ids grid's [`Decisions`].
const IDS_DECISIONS: [u64; 12] = [
    15_679, 344_400, 239_921, 12_998, 0, 0, 1_776, 0, 5_850, 2_467, 5_251, 335,
];
/// The zoo grid's [`Decisions`].
const ZOO_DECISIONS: [u64; 12] = [
    58_617, 866_232, 635_151, 56_684, 0, 0, 2_935, 3_224, 14_822, 6_882, 28_568, 2_186,
];

/// A grid's kernel decisions: lockstep, skipped and packed bits, committed
/// stretches, then every fallback count in [`FallbackCause::ALL`] order.
#[derive(Debug, Default, PartialEq, Eq)]
struct Decisions([u64; 12]);

impl Decisions {
    fn add(&mut self, telemetry: &KernelTelemetry) {
        let counts = [
            telemetry.lockstep_bits(),
            telemetry.skipped_bits(),
            telemetry.packed_bits(),
            telemetry.stretches(),
        ]
        .into_iter()
        .chain(FallbackCause::ALL.map(|c| telemetry.fallback_count(c)));
        for (total, n) in self.0.iter_mut().zip(counts) {
            *total += n;
        }
    }
}

#[test]
fn campaign_injections_and_tx_faults_ride_the_packed_kernel() {
    let config = CampaignConfig {
        seed: 1,
        ..CampaignConfig::default()
    };
    let run_bits = BusSpeed::K500.bits_in_millis(config.run_ms);
    let grid = [Traffic::Benign, Traffic::Attack]
        .into_iter()
        .flat_map(|traffic| default_grid().into_iter().map(move |f| (traffic, f)));
    let mut forced = 0;
    let mut decisions = Decisions::default();
    for (index, (traffic, fault)) in grid.enumerate() {
        let seed = derive_seed(config.seed, index);
        let mut cell = build_cell(
            traffic,
            fault,
            seed,
            config.run_ms,
            &Recorder::disabled(),
            &Journal::disabled(),
        )
        .expect("campaign cells build");
        cell.sim.run_packed(run_bits);
        decisions.add(cell.sim.kernel_telemetry());
        forced += count(
            cell.sim.kernel_telemetry(),
            &[FallbackCause::AgentDrive, FallbackCause::NodeFault],
        );
    }
    // 72,135 while injections and TX-fault windows ran in lockstep.
    assert!(
        forced <= 18_000,
        "{forced} agent-drive + node-fault fallbacks over the campaign grid"
    );
    assert_eq!(decisions, Decisions(CAMPAIGN_DECISIONS));
}

#[test]
fn parrot_floods_ride_the_packed_kernel_in_the_ids_grid() {
    let detectors = can_ids::all_variants();
    let mut app_polls = 0;
    let mut decisions = Decisions::default();
    for cell in ids_cells() {
        let mut ids =
            build_ids_cell_observed(&cell, &detectors, Recorder::disabled(), Journal::disabled());
        ids.sim.run_packed(IDS_HORIZON_BITS);
        decisions.add(ids.sim.kernel_telemetry());
        app_polls += count(ids.sim.kernel_telemetry(), &[FallbackCause::AppPoll]);
    }
    // 43,434 while every flooded bit polled Parrot in lockstep.
    assert!(
        app_polls <= 10_000,
        "{app_polls} app-poll fallbacks over the ids grid"
    );
    assert_eq!(decisions, Decisions(IDS_DECISIONS));
}

#[test]
fn parrot_floods_and_strikes_ride_the_packed_kernel_in_the_zoo_grid() {
    let mut app_polls = 0;
    let mut lockstep = 0;
    let mut decisions = Decisions::default();
    for cell in zoo_cells() {
        let mut zoo = build_zoo_cell_observed(&cell, Recorder::disabled(), Journal::disabled());
        zoo.sim.run_packed(ZOO_HORIZON_BITS);
        let telemetry = zoo.sim.kernel_telemetry();
        decisions.add(telemetry);
        app_polls += count(telemetry, &[FallbackCause::AppPoll]);
        lockstep += telemetry.lockstep_bits();
    }
    // 40,176 while every flooded bit polled Parrot in lockstep.
    assert!(
        app_polls <= 10_000,
        "{app_polls} app-poll fallbacks over the zoo grid"
    );
    // 127,916 while floods, flags, strikes and injections ran in lockstep.
    assert!(
        lockstep <= 70_000,
        "{lockstep} lockstep bits over the zoo grid"
    );
    assert_eq!(decisions, Decisions(ZOO_DECISIONS));
}
