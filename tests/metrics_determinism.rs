//! Differential tests for the observability plane's determinism contract
//! (`can-obs` + `bench::runner::ExperimentPlan::run_with`): the merged
//! metrics registry of a sharded run must be *byte-identical* to the
//! serial (shards=1) reference — per-cell registries are fresh, cells are
//! seeded by index, and registries merge in cell index order. Also locks
//! the zero-cost contract: a disabled recorder records nothing and leaves
//! every measured artifact untouched, and the one-stream contract: every
//! defense event the counters count is in the journal, exactly once.

use std::collections::{BTreeMap, BTreeSet};

use bench::campaign::{run_campaign_with, CampaignConfig};
use bench::detection::run_sweep_with;
use bench::obs::run_reaction_probe;
use bench::runner::ExecOpts;
use can_obs::{Journal, JournalKind, Recorder};

fn metered(recorder: &Recorder) -> ExecOpts {
    ExecOpts::new().with_recorder(recorder.clone())
}

const SHARD_COUNTS: [usize; 2] = [2, 4];

fn quick_config(shards: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 0x00D5_2025,
        run_ms: 30.0,
        shards,
    }
}

#[test]
fn metered_campaign_snapshot_is_byte_identical_across_shard_counts() {
    let serial = Recorder::enabled();
    let serial_report = run_campaign_with(&quick_config(1), &metered(&serial)).render();
    let serial_json = serial.snapshot_json();
    assert!(
        serial_json.contains("michican_reaction_latency_bits"),
        "campaign snapshot carries the defender's latency histogram"
    );
    for shards in SHARD_COUNTS {
        let parallel = Recorder::enabled();
        let parallel_report =
            run_campaign_with(&quick_config(shards), &metered(&parallel)).render();
        assert_eq!(parallel_report, serial_report, "report, shards={shards}");
        assert_eq!(
            parallel.snapshot_json(),
            serial_json,
            "merged metrics snapshot diverged: shards={shards}"
        );
    }
}

#[test]
fn metered_sweep_snapshot_is_byte_identical_across_shard_counts() {
    let serial = Recorder::enabled();
    let serial_sweep = run_sweep_with(120, 42, 50..=150, &metered(&serial));
    let serial_json = serial.snapshot_json();
    for shards in SHARD_COUNTS {
        let parallel = Recorder::enabled();
        let parallel_sweep =
            run_sweep_with(120, 42, 50..=150, &metered(&parallel).with_shards(shards));
        assert_eq!(parallel_sweep, serial_sweep, "shards={shards}");
        assert_eq!(
            parallel.snapshot_json(),
            serial_json,
            "merged sweep snapshot diverged: shards={shards}"
        );
    }
}

#[test]
fn full_metrics_export_path_is_deterministic() {
    // The exact --metrics-out composition for `experiments detection`: the
    // metered sweep (sharded) followed by the serial reaction probe, all
    // merged into one root recorder.
    let snapshot = |shards: usize| {
        let recorder = Recorder::enabled();
        run_sweep_with(60, 7, 50..=150, &metered(&recorder).with_shards(shards));
        run_reaction_probe(&recorder, 30.0);
        recorder.snapshot_json()
    };
    let serial = snapshot(1);
    for shards in SHARD_COUNTS {
        assert_eq!(snapshot(shards), serial, "shards={shards}");
    }
}

#[test]
fn disabled_recorder_records_nothing_and_perturbs_nothing() {
    // Nothing recorded…
    let disabled = Recorder::disabled();
    let report = run_campaign_with(&quick_config(1), &metered(&disabled));
    assert!(disabled.into_registry().is_empty());

    // …and the measured artifact is identical to the unmetered run, and to
    // a run metered with an enabled recorder.
    let baseline = run_campaign_with(&quick_config(1), &ExecOpts::new());
    assert_eq!(report, baseline, "disabled metering must not perturb cells");
    let enabled = Recorder::enabled();
    let enabled_report = run_campaign_with(&quick_config(1), &metered(&enabled));
    assert_eq!(
        enabled_report, baseline,
        "enabled metering must not perturb cells"
    );

    let sweep_metered = run_sweep_with(60, 7, 50..=150, &metered(&Recorder::disabled()));
    let sweep_plain = run_sweep_with(60, 7, 50..=150, &ExecOpts::new());
    assert_eq!(sweep_metered, sweep_plain);
}

#[test]
fn snapshot_carries_the_acceptance_series() {
    let recorder = Recorder::enabled();
    run_reaction_probe(&recorder, 40.0);
    let json = recorder.snapshot_json();
    for series in [
        "can_node_tec{",
        "can_node_rec{",
        "can_errors_total{",
        "michican_fsm_steps_total{",
        "michican_detections_total{",
        "michican_reaction_latency_bits{",
        "parrot_reaction_latency_bits{",
        "\"p50\"",
        "\"p95\"",
        "\"p99\"",
    ] {
        assert!(json.contains(series), "snapshot is missing {series}");
    }
}

#[test]
fn journal_defense_events_agree_with_the_counters() {
    // The journal is the only defense-event stream: for every MichiCAN
    // node of the packed campaign grid, each counted detection,
    // counterattack, degradation and re-arm appears as exactly one
    // journal event, and the metrics snapshot carries aggregates only.
    let recorder = Recorder::enabled();
    let journal = Journal::enabled();
    let config = CampaignConfig {
        run_ms: 60.0,
        ..quick_config(2)
    };
    run_campaign_with(
        &config,
        &metered(&recorder).with_journal(journal.clone()).packed(),
    );

    let snapshot = recorder.snapshot_json();
    assert!(snapshot.contains("\"schema\": \"can-obs/v2\""));
    assert!(!snapshot.contains("\"traces"), "no trace sink in v2");

    let mut journaled: BTreeMap<(u32, JournalKind), u64> = BTreeMap::new();
    journal
        .with_store(|store| {
            assert!(store.dropped().is_empty(), "journal must be lossless");
            for event in store.canonical_events() {
                for kind in [
                    JournalKind::Detection,
                    JournalKind::InjectionStart,
                    JournalKind::Degraded,
                    JournalKind::Rearmed,
                ] {
                    if event.kind == kind {
                        *journaled.entry((event.node, kind)).or_default() += 1;
                    }
                }
            }
        })
        .expect("journal is enabled");

    let registry = recorder.into_registry();
    let mut counted: BTreeMap<(u32, JournalKind), u64> = BTreeMap::new();
    for (key, value) in registry.counters() {
        let kind = match key.split('{').next() {
            Some("michican_detections_total") => JournalKind::Detection,
            Some("michican_counterattacks_total") => JournalKind::InjectionStart,
            Some("michican_degradations_total") => JournalKind::Degraded,
            Some("michican_rearms_total") => JournalKind::Rearmed,
            _ => continue,
        };
        let node = key
            .split("node=\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no node label in {key}"));
        *counted.entry((node, kind)).or_default() += value;
    }

    let nodes: BTreeSet<u32> = counted.keys().map(|&(node, _)| node).collect();
    assert!(!nodes.is_empty(), "the grid has a MichiCAN defender");
    for kind in [
        JournalKind::Detection,
        JournalKind::InjectionStart,
        JournalKind::Degraded,
        JournalKind::Rearmed,
    ] {
        assert!(
            nodes
                .iter()
                .any(|&node| counted.get(&(node, kind)) > Some(&0)),
            "the grid exercises {kind}"
        );
    }
    assert_eq!(journaled, counted, "journal events vs counters, per node");
}
