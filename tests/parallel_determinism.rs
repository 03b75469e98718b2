//! Differential tests for the parallel experiment engine's determinism
//! contract (`bench::runner`): for any master seed, the report produced
//! with N worker shards must be *byte-identical* to the serial (shards=1)
//! reference — seeds derive from cell index, never completion order, and
//! results reduce in index order.

use bench::campaign::{run_campaign_with, CampaignConfig};
use bench::detection::run_sweep_with;
use bench::runner::ExecOpts;
use bench::scenarios::{run_multi_attacker_scan_with, run_table2_with};

const MASTER_SEEDS: [u64; 3] = [0x00D5_2025, 42, 0xDEAD_BEEF];
const SHARD_COUNTS: [usize; 2] = [2, 8];

fn sharded(shards: usize) -> ExecOpts {
    ExecOpts::new().with_shards(shards)
}

#[test]
fn campaign_report_is_byte_identical_across_shard_counts() {
    for seed in MASTER_SEEDS {
        let serial = run_campaign_with(
            &CampaignConfig {
                seed,
                run_ms: 30.0,
                shards: 1,
            },
            &ExecOpts::new(),
        )
        .render();
        for shards in SHARD_COUNTS {
            let parallel = run_campaign_with(
                &CampaignConfig {
                    seed,
                    run_ms: 30.0,
                    shards,
                },
                &ExecOpts::new(),
            )
            .render();
            assert_eq!(
                parallel, serial,
                "campaign report diverged: seed={seed:#x} shards={shards}"
            );
        }
    }
}

#[test]
fn fsm_sweep_summary_is_identical_across_shard_counts() {
    for seed in MASTER_SEEDS {
        let serial = run_sweep_with(120, seed, 50..=150, &ExecOpts::new());
        let serial_text = format!("{serial:?}");
        for shards in SHARD_COUNTS {
            let parallel = run_sweep_with(120, seed, 50..=150, &sharded(shards));
            assert_eq!(
                parallel, serial,
                "sweep summary diverged: seed={seed:#x} shards={shards}"
            );
            assert_eq!(
                format!("{parallel:?}"),
                serial_text,
                "sweep summary rendering diverged: seed={seed:#x} shards={shards}"
            );
        }
    }
}

#[test]
fn table2_outcomes_are_identical_across_shard_counts() {
    let serial = run_table2_with(200.0, &ExecOpts::new());
    for shards in SHARD_COUNTS {
        let parallel = run_table2_with(200.0, &sharded(shards));
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.experiment.number, s.experiment.number);
            assert_eq!(p.per_attacker, s.per_attacker, "shards={shards}");
            assert_eq!(p.bus_load, s.bus_load, "shards={shards}");
        }
    }
}

#[test]
fn multi_attacker_scan_is_identical_across_shard_counts() {
    let counts = [1usize, 2, 3];
    let serial = run_multi_attacker_scan_with(&counts, 20_000, &ExecOpts::new());
    for shards in SHARD_COUNTS {
        assert_eq!(
            run_multi_attacker_scan_with(&counts, 20_000, &sharded(shards)),
            serial,
            "shards={shards}"
        );
    }
}
