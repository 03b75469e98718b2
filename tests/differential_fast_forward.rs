//! Differential proof of the packed kernel's byte-identity guarantees:
//! every scenario family is driven once in lockstep and once under the
//! packed bus kernel, and every observable surface — events, signal
//! trace, metrics snapshot, outcome — must match byte for byte across
//! both modes.
//!
//! (The file name predates the packed kernel absorbing idle
//! fast-forward; it is kept so the test ids stay stable.)

use bench::attackzoo::{build_zoo_cell_observed, run_zoo_with, zoo_cells, ZooCell};
use bench::campaign::{run_campaign_with, CampaignConfig};
use bench::differential::{check_equivalence, check_outcome, fingerprint};
use bench::runner::ExecOpts;
use bench::scenarios::{
    experiment_builder, run_multi_attacker_scan_with, run_parksense_with, run_table2_with,
    table2_experiments,
};
use can_obs::{parse_export, Journal, JournalKind, Recorder};

fn lockstep(recorder: &Recorder) -> ExecOpts {
    ExecOpts::new().with_recorder(recorder.clone())
}

fn packed(recorder: &Recorder) -> ExecOpts {
    ExecOpts::new().with_recorder(recorder.clone()).packed()
}

#[test]
fn every_table2_cell_is_bit_identical_under_acceleration() {
    // Cell-level fingerprints: clock, busy bits, event log, metrics.
    for exp in table2_experiments() {
        check_equivalence(
            |recorder| {
                experiment_builder(&exp, &ExecOpts::new().with_recorder(recorder))
                    .0
                    .build()
            },
            25_000,
        )
        .unwrap_or_else(|divergence| {
            panic!("experiment {}: {divergence}", exp.number);
        });
    }
}

#[test]
fn table2_report_and_metrics_are_identical_under_acceleration() {
    // Outcome-level: the full (reduced-capture) Table II report plus the
    // merged metrics snapshot.
    let lock_recorder = Recorder::enabled();
    let lock = run_table2_with(400.0, &lockstep(&lock_recorder));
    let packed_recorder = Recorder::enabled();
    let pk = run_table2_with(400.0, &packed(&packed_recorder));
    check_outcome("table2 packed", &lock, &pk).unwrap();
    assert_eq!(
        lock_recorder.snapshot_json(),
        packed_recorder.snapshot_json(),
        "table2 metrics snapshot diverged under the packed kernel"
    );
}

#[test]
fn campaign_report_and_metrics_are_identical_under_acceleration() {
    let config = CampaignConfig {
        seed: 0x00D5_2025,
        run_ms: 30.0,
        shards: 1,
    };
    let lock_recorder = Recorder::enabled();
    let lock = run_campaign_with(&config, &lockstep(&lock_recorder));
    let packed_recorder = Recorder::enabled();
    let pk = run_campaign_with(&config, &packed(&packed_recorder));
    assert_eq!(lock, pk, "campaign report diverged under the packed kernel");
    assert_eq!(
        lock_recorder.snapshot_json(),
        packed_recorder.snapshot_json(),
        "campaign metrics snapshot diverged under the packed kernel"
    );
}

#[test]
fn multi_attacker_scan_is_identical_under_acceleration() {
    let counts = [1usize, 2, 3];
    let lock_recorder = Recorder::enabled();
    let lock = run_multi_attacker_scan_with(&counts, 60_000, &lockstep(&lock_recorder));
    let packed_recorder = Recorder::enabled();
    let pk = run_multi_attacker_scan_with(&counts, 60_000, &packed(&packed_recorder));
    assert_eq!(
        lock, pk,
        "multi-attacker scan diverged under the packed kernel"
    );
    assert_eq!(
        lock_recorder.snapshot_json(),
        packed_recorder.snapshot_json(),
        "multi-attacker metrics snapshot diverged under the packed kernel"
    );
    // The scan must actually resolve (all attackers eradicated) for the
    // comparison to mean anything.
    assert!(lock.iter().all(|(_, bits)| bits.is_some()));
}

#[test]
fn parksense_outcomes_are_identical_under_acceleration() {
    for defended in [false, true] {
        let lock_recorder = Recorder::enabled();
        let lock = run_parksense_with(defended, 40.0, &lockstep(&lock_recorder));
        let packed_recorder = Recorder::enabled();
        let pk = run_parksense_with(defended, 40.0, &packed(&packed_recorder));
        check_outcome(&format!("parksense packed defended={defended}"), &lock, &pk).unwrap();
        assert_eq!(
            lock_recorder.snapshot_json(),
            packed_recorder.snapshot_json(),
            "parksense metrics snapshot diverged under the packed kernel (defended={defended})"
        );
    }
}

#[test]
fn every_zoo_cell_is_bit_identical_under_acceleration() {
    // The adversary-zoo differential pin: every registry attack variant ×
    // every defense, fingerprinted (clock, busy bits, events, metrics)
    // across lockstep and the packed kernel. Bit-level attackers exercise
    // the BitAgent drive_horizon/skip_idle seams under mid-frame
    // intervention, which is exactly where the packed kernel is most
    // likely to diverge.
    let cells = zoo_cells();
    assert!(cells.len() >= 36, "registry shrank: {} cells", cells.len());
    for cell in cells {
        check_equivalence(
            |recorder| build_zoo_cell_observed(&cell, recorder, Journal::disabled()).sim,
            20_000,
        )
        .unwrap_or_else(|divergence| {
            panic!(
                "zoo cell {} vs {}: {divergence}",
                cell.variant.label(),
                cell.defense.label()
            );
        });
    }
}

#[test]
fn zoo_table_is_identical_across_modes_and_shards() {
    // Outcome-level pin: the full per-attack outcome table and the merged
    // metrics snapshot must be byte-identical in both modes and at any
    // shard count (`experiments attacks --attacks all --shards N`).
    let run = |opts: ExecOpts| {
        let recorder = Recorder::enabled();
        let outcomes = run_zoo_with(zoo_cells(), 20_000, &opts.with_recorder(recorder.clone()));
        (outcomes, recorder.snapshot_json())
    };
    let (lock, lock_snapshot) = run(ExecOpts::new());
    for (label, opts) in [
        ("packed", ExecOpts::new().packed()),
        ("4 shards", ExecOpts::new().with_shards(4)),
        ("packed + 3 shards", ExecOpts::new().packed().with_shards(3)),
    ] {
        let (outcomes, snapshot) = run(opts);
        assert_eq!(lock, outcomes, "zoo outcomes diverged under {label}");
        assert_eq!(
            lock_snapshot, snapshot,
            "zoo metrics snapshot diverged under {label}"
        );
    }
    let table = bench::attackzoo::render_zoo_table(&lock);
    bench::attackzoo::assert_zoo_coverage(&lock);
    for cell in zoo_cells() {
        assert!(
            table.contains(&cell.variant.label()),
            "table is missing {}",
            cell.variant.label()
        );
    }
}

#[test]
fn zoo_cells_cover_every_registry_variant_against_every_defense() {
    use can_attacks::registry::all_variants;
    let cells = zoo_cells();
    let variants = all_variants();
    assert_eq!(cells.len(), variants.len() * 3);
    for variant in &variants {
        let defenses: Vec<&str> = cells
            .iter()
            .filter(|c: &&ZooCell| c.variant.label() == variant.label())
            .map(|c| c.defense.label())
            .collect();
        assert_eq!(
            defenses,
            ["none", "michican", "parrot"],
            "{}",
            variant.label()
        );
    }
}

// ---------------------------------------------------------------------------
// Causal journal determinism (DESIGN.md §13): the canonical export must be
// byte-identical across both SimModes and at any shard count, for
// every scenario family that runs under ExecOpts.
// ---------------------------------------------------------------------------

/// Runs `run` with an enabled journal in `opts` and returns the canonical
/// export.
fn journal_of(opts: ExecOpts, run: impl Fn(&ExecOpts)) -> String {
    let journal = Journal::enabled();
    run(&opts.with_journal(journal.clone()));
    journal.export_jsonl()
}

#[test]
fn table2_journal_is_byte_identical_across_modes_and_shards() {
    let run = |opts: ExecOpts| {
        journal_of(opts, |o| {
            run_table2_with(400.0, o);
        })
    };
    let base = run(ExecOpts::new());
    assert!(base.lines().count() > 1, "table2 journal must not be empty");
    for (label, opts) in [
        ("packed", ExecOpts::new().packed()),
        ("4 shards", ExecOpts::new().with_shards(4)),
        ("packed + 4 shards", ExecOpts::new().packed().with_shards(4)),
    ] {
        assert_eq!(base, run(opts), "table2 journal diverged under {label}");
    }
}

#[test]
fn campaign_journal_is_byte_identical_across_modes_and_shards() {
    let run = |shards: usize, opts: ExecOpts| {
        let config = CampaignConfig {
            seed: 0x00D5_2025,
            run_ms: 30.0,
            shards,
        };
        journal_of(opts, |o| {
            run_campaign_with(&config, o);
        })
    };
    let base = run(1, ExecOpts::new());
    assert!(
        base.lines().count() > 1,
        "campaign journal must not be empty"
    );
    for (label, shards, opts) in [
        ("packed", 1, ExecOpts::new().packed()),
        ("4 shards", 4, ExecOpts::new()),
    ] {
        assert_eq!(
            base,
            run(shards, opts),
            "campaign journal diverged under {label}"
        );
    }
}

#[test]
fn multi_attacker_journal_is_byte_identical_across_modes_and_shards() {
    let run = |opts: ExecOpts| {
        journal_of(opts, |o| {
            run_multi_attacker_scan_with(&[1, 2, 3], 60_000, o);
        })
    };
    let base = run(ExecOpts::new());
    assert!(
        base.lines().count() > 1,
        "multi-attacker journal must not be empty"
    );
    for (label, opts) in [
        ("packed", ExecOpts::new().packed()),
        ("4 shards", ExecOpts::new().with_shards(4)),
    ] {
        assert_eq!(
            base,
            run(opts),
            "multi-attacker journal diverged under {label}"
        );
    }
}

#[test]
fn parksense_journal_is_byte_identical_across_modes() {
    for defended in [false, true] {
        let run = |opts: ExecOpts| {
            journal_of(opts, |o| {
                run_parksense_with(defended, 40.0, o);
            })
        };
        let base = run(ExecOpts::new());
        assert!(
            base.lines().count() > 1,
            "parksense journal must not be empty (defended={defended})"
        );
        assert_eq!(
            base,
            run(ExecOpts::new().packed()),
            "parksense journal diverged under packed (defended={defended})"
        );
    }
}

#[test]
fn a_zoo_cell_reconstructs_the_attack_chain_by_chain_id() {
    // The acceptance pin for causal linkage: a fabrication attack against
    // MichiCAN must leave a chain in the journal that reads as one episode
    // — spoofed frame on the wire (frame_start opens the chain), the
    // defense spotting it (detection), the counterattack window opening
    // (inject_start) and the spoofed frame dying (frame_error), all under
    // one chain_id.
    let cell = zoo_cells()
        .into_iter()
        .find(|c| c.variant.label() == "fabrication[x2]" && c.defense.label() == "michican")
        .expect("fabrication vs michican cell in the registry");
    let journal = Journal::enabled();
    run_zoo_with(
        vec![cell],
        20_000,
        &ExecOpts::new().with_journal(journal.clone()),
    );
    let (events, dropped) = parse_export(&journal.export_jsonl()).unwrap();
    assert!(dropped.is_empty(), "journal dropped events: {dropped:?}");

    let mut chains: std::collections::BTreeMap<u64, Vec<JournalKind>> =
        std::collections::BTreeMap::new();
    for event in &events {
        if event.chain_id != 0 {
            chains.entry(event.chain_id).or_default().push(event.kind);
        }
    }
    let complete = chains.values().any(|kinds| {
        [
            JournalKind::Detection,
            JournalKind::InjectionStart,
            JournalKind::FrameError,
        ]
        .iter()
        .all(|k| kinds.contains(k))
    });
    assert!(
        complete,
        "no chain links detection -> counterattack -> destroyed frame; chains: {chains:?}"
    );
}

// ---------------------------------------------------------------------------
// Timing-IDS bake-off differential pins: detector taps are passive and
// frame-driven, so attaching the full registry grid must not perturb the
// packed kernel — the outcome table, the metrics snapshot and the
// journal export all stay byte-identical across modes and shard counts.
// ---------------------------------------------------------------------------

#[test]
fn every_ids_cell_is_bit_identical_under_acceleration_with_taps_attached() {
    use bench::idsbench::{build_ids_cell_observed, ids_cells};
    use can_ids::registry::all_variants;
    let detectors = all_variants();
    for cell in ids_cells() {
        check_equivalence(
            |recorder| {
                build_ids_cell_observed(&cell, &detectors, recorder, Journal::disabled()).sim
            },
            20_000,
        )
        .unwrap_or_else(|divergence| {
            panic!(
                "ids cell {} vs {}: {divergence}",
                cell.scenario.label(),
                cell.defense.label()
            );
        });
    }
}

#[test]
fn ids_table_is_identical_across_modes_and_shards() {
    use bench::idsbench::{ids_cells, render_ids_table, run_ids_with};
    use can_ids::registry::all_variants;
    let run = |opts: ExecOpts| {
        let recorder = Recorder::enabled();
        let outcomes = run_ids_with(
            ids_cells(),
            all_variants(),
            20_000,
            &opts.with_recorder(recorder.clone()),
        );
        (outcomes, recorder.snapshot_json())
    };
    let (lock, lock_snapshot) = run(ExecOpts::new());
    for (label, opts) in [
        ("packed", ExecOpts::new().packed()),
        ("4 shards", ExecOpts::new().with_shards(4)),
        ("packed + 3 shards", ExecOpts::new().packed().with_shards(3)),
    ] {
        let (outcomes, snapshot) = run(opts);
        assert_eq!(lock, outcomes, "ids outcomes diverged under {label}");
        assert_eq!(
            lock_snapshot, snapshot,
            "ids metrics snapshot diverged under {label}"
        );
    }
    bench::idsbench::assert_ids_honesty(&lock);
    let table = render_ids_table(&lock);
    for variant in all_variants() {
        assert!(
            table.contains(&variant.label()),
            "table is missing {}",
            variant.label()
        );
    }
}

#[test]
fn ids_journal_is_byte_identical_across_modes_and_shards() {
    use bench::idsbench::{ids_cells, run_ids_with};
    use can_ids::registry::all_variants;
    let run = |opts: ExecOpts| {
        journal_of(opts, |o| {
            run_ids_with(ids_cells(), all_variants(), 20_000, o);
        })
    };
    let base = run(ExecOpts::new());
    assert!(
        base.contains(can_obs::JournalKind::IdsAlert.name()),
        "ids journal must carry alert events"
    );
    for (label, opts) in [
        ("packed", ExecOpts::new().packed()),
        ("4 shards", ExecOpts::new().with_shards(4)),
        ("packed + 4 shards", ExecOpts::new().packed().with_shards(4)),
    ] {
        assert_eq!(base, run(opts), "ids journal diverged under {label}");
    }
}

#[test]
fn ids_journal_and_snapshot_are_byte_identical_across_modes_and_shards() {
    // Both sinks on at once, as `experiments ids --metrics-out
    // --journal-out` runs the bake-off: the per-cell recorder and journal
    // are made and merged side by side, so neither export may depend on
    // the mode or the shard count.
    use bench::idsbench::{ids_cells, render_ids_table, run_ids_with};
    use can_ids::registry::all_variants;
    let run = |opts: ExecOpts| {
        let opts = opts
            .with_recorder(Recorder::enabled())
            .with_journal(Journal::enabled());
        let outcomes = run_ids_with(ids_cells(), all_variants(), 20_000, &opts);
        (
            render_ids_table(&outcomes),
            opts.recorder.snapshot_json(),
            opts.journal.export_jsonl(),
        )
    };
    let (table, snapshot, journal) = run(ExecOpts::new());
    assert!(
        snapshot.contains("bench_cells_total"),
        "the snapshot counts the bake-off's cells"
    );
    assert!(
        journal.contains(can_obs::JournalKind::IdsAlert.name()),
        "the journal carries detector alerts"
    );
    for (label, opts) in [
        ("packed", ExecOpts::new().packed()),
        ("2 shards", ExecOpts::new().with_shards(2)),
        ("packed + 2 shards", ExecOpts::new().packed().with_shards(2)),
    ] {
        let (t, s, j) = run(opts);
        assert_eq!(table, t, "ids table diverged under {label}");
        assert_eq!(snapshot, s, "ids metrics snapshot diverged under {label}");
        assert_eq!(journal, j, "ids journal diverged under {label}");
    }
}

#[test]
fn fingerprints_capture_trace_surfaces() {
    // A traced, noisy, attacked bus: the fingerprint must carry the trace
    // surfaces and the two modes must still agree on all of them.
    use can_core::app::{PeriodicSender, SilentApplication};
    use can_core::{BusSpeed, CanFrame, CanId};
    use can_sim::{FaultModel, Node, SimBuilder};
    use michican::prelude::*;

    let build = |recorder: Recorder| {
        let frame = CanFrame::data_frame(CanId::from_raw(0x064), &[0xAB; 8]).unwrap();
        let list = EcuList::from_raw(&[0x173]);
        SimBuilder::new(BusSpeed::K500)
            .recorder(recorder)
            .node(Node::new(
                "attacker",
                Box::new(PeriodicSender::new(frame, 2_500, 0)),
            ))
            .node(
                Node::new("defender", Box::new(SilentApplication))
                    .with_agent(Box::new(MichiCan::new(DetectionFsm::for_ecu(&list, 0)))),
            )
            .fault(FaultModel::random(1e-4, 0xFF00))
            .trace()
            .build()
    };

    check_equivalence(build, 40_000).unwrap();

    // And the fingerprint itself records the trace (guards against the
    // comparison silently degrading to a trace-free check).
    let recorder = Recorder::enabled();
    let mut sim = build(recorder.clone());
    sim.run(5_000);
    let fp = fingerprint(&sim, &recorder);
    assert_eq!(fp.trace_recorded, Some(5_000));
    assert_eq!(fp.trace.as_ref().map(Vec::len), Some(5_000));
    assert!(!fp.events.is_empty());
}
