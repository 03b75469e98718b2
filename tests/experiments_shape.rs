//! Shape assertions for the paper's evaluation (fast versions of the
//! `experiments` binary's runs): who wins, by what factor, and where the
//! crossovers fall — the reproduction contract of EXPERIMENTS.md.

use bench::runner::ExecOpts;
use bench::scenarios::{
    run_experiment_with, run_multi_attacker_with, run_parksense_with, table2_experiments,
    TABLE2_SPEED,
};
use bench::{busload, detection};

/// Serial, lockstep, no sinks: the plain reproduction run.
fn plain() -> ExecOpts {
    ExecOpts::new()
}

#[test]
fn table2_clean_experiments_match_theory_envelope() {
    // Experiments 2 and 4 (single attacker, no restbus): every episode
    // lands in the theoretical [best, worst]+margin envelope and shows
    // essentially no variance.
    for number in [2u8, 4] {
        let exp = table2_experiments()
            .into_iter()
            .find(|e| e.number == number)
            .unwrap();
        let outcome = run_experiment_with(&exp, 500.0, &plain());
        let (_, stats) = &outcome.per_attacker[0];
        let stats = stats.expect("episodes must complete");
        let mean = stats.mean_millis(TABLE2_SPEED);
        assert!(
            (21.0..=27.5).contains(&mean),
            "exp {number}: mean {mean:.1} ms outside the paper band (24.2-24.9 ± model delta)"
        );
        assert!(
            stats.std_millis(TABLE2_SPEED) < 1.0,
            "exp {number}: clean runs are near-deterministic"
        );
    }
}

#[test]
fn table2_restbus_increases_variance_not_floor() {
    // Experiment 3 vs 4: restbus traffic raises variance and max, while
    // the minimum stays at the clean episode length.
    let exps = table2_experiments();
    let with = run_experiment_with(&exps[2], 1_000.0, &plain()); // exp 3
    let without = run_experiment_with(&exps[3], 1_000.0, &plain()); // exp 4
    let s_with = with.per_attacker[0].1.expect("episodes");
    let s_without = without.per_attacker[0].1.expect("episodes");
    assert!(
        s_with.std_bits > s_without.std_bits,
        "restbus must add variance"
    );
    assert!(
        s_with.max_bits > s_without.max_bits,
        "interrupted episodes run longer"
    );
    assert!(
        s_with.min_bits <= s_without.min_bits + 50,
        "uninterrupted episodes stay at the clean length"
    );
}

#[test]
fn experiment5_grows_by_half_not_double() {
    // Paper: "the mean bus-off time grows by around 50 % due to the
    // retransmissions getting intertwined … the bus-off time does not
    // double."
    let exps = table2_experiments();
    let two = run_experiment_with(&exps[4], 1_500.0, &plain()); // exp 5
    let single = run_experiment_with(&exps[3], 1_500.0, &plain()); // exp 4 baseline
    let base = single.per_attacker[0].1.unwrap().mean_bits;
    let first = two.per_attacker[0].1.expect("0x066 episodes").mean_bits;
    let second = two.per_attacker[1].1.expect("0x067 episodes").mean_bits;
    let ratio = first / base;
    assert!(
        (1.25..=1.85).contains(&ratio),
        "growth ratio {ratio:.2} should be ≈ 1.5"
    );
    assert!(
        second < first,
        "paper: the second attacker's bus-off time is slightly smaller"
    );
}

#[test]
fn multi_attacker_crossover_at_five() {
    // Paper: A = 4 still fits the 5000-bit deadline budget; A = 5 renders
    // the bus inoperable.
    let four = run_multi_attacker_with(4, 60_000, &plain()).expect("A=4 eradicated");
    let five = run_multi_attacker_with(5, 60_000, &plain()).expect("A=5 eradicated");
    assert!(four <= 5_000, "A=4 total {four} bits must fit the deadline");
    assert!(
        five > 5_000,
        "A=5 total {five} bits must exceed the deadline"
    );
    // Sub-linear growth: 4 attackers take far less than 4× one attacker.
    let one = run_multi_attacker_with(1, 60_000, &plain()).unwrap();
    assert!(four < one * 4, "intertwining keeps growth sub-linear");
}

#[test]
fn detection_sweep_shape() {
    let sweep = detection::run_sweep_with(100, 2026, detection::PAPER_IVN_SIZES, &plain());
    assert_eq!(sweep.detection_rate, 1.0);
    assert_eq!(sweep.false_positive_rate, 0.0);
    assert!((8.0..10.0).contains(&sweep.mean_detection_position));

    // Monotone growth with IVN size (the paper's stated trend).
    let small = detection::run_sweep_with(60, 1, 10..=10, &plain());
    let large = detection::run_sweep_with(60, 1, 300..=300, &plain());
    assert!(small.mean_detection_position < large.mean_detection_position);
}

#[test]
fn michican_beats_parrot_on_load_and_self_damage() {
    let michican = busload::michican_load(300.0);
    let parrot = busload::parrot_load(500.0);
    assert!(michican.attacker_bused_off);
    assert_eq!(michican.defender_tec, 0);
    assert!(parrot.defender_tec > 0, "parrot wounds itself");
    assert!(
        parrot.overall > michican.overall * 1.5,
        "paper: MichiCAN's bus load is at least 2× lower during bus-off \
         attempts (parrot {:.2} vs michican {:.2} overall)",
        parrot.overall,
        michican.overall
    );
}

#[test]
fn parksense_outcome_flips_with_the_dongle() {
    let undefended = run_parksense_with(false, 400.0, &plain());
    let defended = run_parksense_with(true, 400.0, &plain());
    assert!(
        undefended.became_unavailable,
        "attack works when undefended"
    );
    assert!(!defended.became_unavailable, "MichiCAN restores ParkSense");
    assert!(defended.attacker_bus_offs >= 1);
    assert!(defended.status_frames_received > undefended.status_frames_received);
}
