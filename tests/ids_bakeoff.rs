//! End-to-end coverage of the timing-IDS bake-off (`bench::idsbench`):
//! grid shape, the Table I honesty invariant measured on real cells, the
//! and the ported IDS-vs-MichiCAN flood pins.

use bench::idsbench::{
    assert_ids_honesty, detector_grid_for, flood_ids_defense, flood_michican_defense, ids_cells,
    ids_scenarios, render_ids_table, run_ids_with, IdsScenario, IDS_HORIZON_BITS, ONE_FRAME_BITS,
};
use bench::runner::ExecOpts;
use can_ids::registry::{all_variants, detector_names};

const FLOOD_RUN: u64 = 40_000;

#[test]
fn grid_is_scenarios_times_defenses_with_every_detector_attached() {
    let scenarios = ids_scenarios();
    assert!(scenarios.contains(&IdsScenario::Clean));
    assert!(
        scenarios.len() >= 5,
        "clean + at least four attack families, got {}",
        scenarios.len()
    );
    let cells = ids_cells();
    assert_eq!(
        cells.len(),
        scenarios.len() * 3,
        "three defenses per scenario"
    );

    let outcomes = run_ids_with(
        cells.clone(),
        all_variants(),
        IDS_HORIZON_BITS,
        &ExecOpts::new(),
    );
    assert_eq!(outcomes.len(), cells.len());
    for outcome in &outcomes {
        assert_eq!(
            outcome.detectors.len(),
            all_variants().len(),
            "every registry detector observes every cell"
        );
    }

    // Table I, measured: frame-level detectors never undercut one whole
    // frame; MichiCAN's in-frame reaction always does.
    assert_ids_honesty(&outcomes);
    let michican_kills: Vec<u64> = outcomes
        .iter()
        .filter_map(|o| o.defense_latency_bits)
        .collect();
    assert!(
        !michican_kills.is_empty(),
        "michican must fire on at least one attack cell"
    );
    assert!(michican_kills.iter().all(|&kill| kill < ONE_FRAME_BITS));
    let detector_latencies: Vec<u64> = outcomes
        .iter()
        .filter(|o| o.attack_start_bits.is_some())
        .flat_map(|o| o.detectors.iter().filter_map(|d| d.detection_latency_bits))
        .collect();
    assert!(
        !detector_latencies.is_empty(),
        "at least one detector must fire on an attack cell"
    );
    assert!(detector_latencies.iter().all(|&l| l >= ONE_FRAME_BITS));

    // Clean cells are the false-positive floor: a trained grid must stay
    // quiet on the traffic it trained on.
    for outcome in outcomes.iter().filter(|o| o.scenario == "clean") {
        for d in &outcome.detectors {
            assert_eq!(
                d.false_alerts, 0,
                "{} false-alerted on clean traffic ({})",
                d.detector, outcome.defense
            );
        }
    }

    let table = render_ids_table(&outcomes);
    for variant in all_variants() {
        assert!(table.contains(&variant.label()));
    }
}

#[test]
fn detector_selection_accepts_registry_names_and_rejects_unknowns() {
    assert_eq!(
        detector_grid_for("all").unwrap().len(),
        all_variants().len()
    );
    for name in detector_names() {
        let grid = detector_grid_for(name).unwrap();
        assert!(!grid.is_empty());
        assert!(grid.iter().all(|v| v.detector == name));
    }
    assert!(detector_grid_for("not-a-detector").is_none());
    assert!(detector_grid_for("").is_none());
}

#[test]
fn ids_detects_late_and_never_eradicates() {
    let ids = flood_ids_defense(FLOOD_RUN);
    let latency = ids.detection_latency_bits.expect("the flood must alert");
    assert!(
        latency > 1_000,
        "IDS needs many complete frames: {latency} bits"
    );
    assert!(ids.frames_before_detection >= 5);
    assert!(!ids.eradicated, "an IDS cannot bus the attacker off");
    assert!(
        ids.total_attack_frames_delivered > 50,
        "the flood continues after detection"
    );
}

#[test]
fn michican_detects_within_the_first_frame_and_eradicates() {
    let michican = flood_michican_defense(FLOOD_RUN);
    let latency = michican
        .detection_latency_bits
        .expect("the counterattack must fire");
    assert!(
        latency < 25,
        "MichiCAN kills within the first frame's control field: {latency} bits"
    );
    assert_eq!(michican.frames_before_detection, 0);
    assert!(michican.eradicated);
    assert_eq!(
        michican.total_attack_frames_delivered, 0,
        "not one attack frame may complete"
    );
}

#[test]
fn michican_is_orders_of_magnitude_faster() {
    let ids = flood_ids_defense(FLOOD_RUN);
    let michican = flood_michican_defense(FLOOD_RUN);
    let ratio = ids.detection_latency_bits.unwrap() as f64
        / michican.detection_latency_bits.unwrap() as f64;
    assert!(ratio > 50.0, "latency ratio {ratio:.0}× must be dramatic");
}
