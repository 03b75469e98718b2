//! End-to-end checks of the bit-level adversary zoo: error-flag injection
//! accounting on the can-obs surface, in-simulation adaptivity of the
//! racing attacker, registry enumeration as the `experiments attacks`
//! runner consumes it, and how much of each zoo cell the packed kernel
//! resolves word-at-a-time.

use bench::attackzoo::{build_zoo_cell_observed, zoo_cells, ZooDefense, ZOO_HORIZON_BITS};
use can_attacks::error_flag::ERROR_FLAG_BITS;
use can_attacks::registry::{all_variants, attack_names, variants_for};
use can_attacks::{AdaptiveRacer, ErrorFlagInjector, GhostInjector};
use can_core::agent::BitAgent;
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::bitstream::stuff_frame;
use can_core::{BitInstant, BusSpeed, CanFrame, CanId, Level};
use can_obs::{Journal, Recorder};
use can_sim::{bus_off_episodes, FallbackCause, Node, SimBuilder};

const VICTIM_ID: u16 = 0x173;

fn victim_frame() -> CanFrame {
    CanFrame::data_frame(CanId::from_raw(VICTIM_ID), &[0x00; 8]).unwrap()
}

#[test]
fn error_flag_injector_drives_exactly_six_dominant_bits() {
    // Open loop against the victim's golden bitstream: the injector must
    // drive exactly ERROR_FLAG_BITS consecutive dominant bits and nothing
    // else, regardless of what the rest of the frame looks like.
    let mut attacker = ErrorFlagInjector::new(CanId::from_raw(VICTIM_ID), 25);
    let mut t = 0u64;
    for _ in 0..12 {
        attacker.on_bit(Level::Recessive, BitInstant::from_bits(t));
        t += 1;
    }
    let wire = stuff_frame(&victim_frame());
    let mut driven = Vec::new();
    for (i, &bit) in wire.bits.iter().enumerate() {
        let seen = if attacker.tx_level() == Some(Level::Dominant) {
            driven.push(i);
            Level::Dominant
        } else {
            bit
        };
        attacker.on_bit(seen, BitInstant::from_bits(t));
        t += 1;
    }
    assert_eq!(
        driven.len(),
        ERROR_FLAG_BITS as usize,
        "exactly six dominant bits: {driven:?}"
    );
    assert!(
        driven.windows(2).all(|w| w[1] == w[0] + 1),
        "the flag is consecutive: {driven:?}"
    );
    assert_eq!(attacker.flags_injected(), 1);
}

#[test]
fn error_flag_injection_is_accounted_as_real_can_errors() {
    // In a live simulation the injected flag must surface on the can-obs
    // error counters exactly as the protocol prescribes: six equal bits
    // are a stuff violation for every node — charged to the victim in its
    // transmitter role and to the bystanders in their receiver role — and
    // the victim's bus-off ladder still runs on the standard 32-attempt
    // error-confinement rule while the attacker stays untouchable.
    let recorder = Recorder::enabled();
    let builder = SimBuilder::new(BusSpeed::K500).recorder(recorder.clone());
    let victim_node = builder.node_id();
    let mut sim = builder
        .node(Node::new(
            "victim",
            Box::new(PeriodicSender::new(victim_frame(), 600, 0)),
        ))
        .node(
            Node::new("attacker", Box::new(SilentApplication)).with_agent(Box::new(
                ErrorFlagInjector::new(CanId::from_raw(VICTIM_ID), 25),
            )),
        )
        .node(Node::new("rx", Box::new(SilentApplication)))
        .build();
    sim.run(30_000);

    let registry = recorder.into_registry();
    let key = |node: usize, kind: &str, role: &str| {
        format!("can_errors_total{{node=\"{node}\",kind=\"{kind}\",role=\"{role}\"}}")
    };
    let victim_tx_stuff = registry.counter(&key(victim_node, "stuff", "tx"));
    assert!(
        victim_tx_stuff > 0,
        "the transmitter must see the flag as a stuff violation"
    );
    assert!(
        registry.counter(&key(2, "stuff", "rx")) > 0,
        "receivers must see the flag as a stuff violation"
    );
    // The error is never charged to the transmitter as a receiver, and
    // never to the victim twice.
    assert_eq!(registry.counter(&key(victim_node, "stuff", "rx")), 0);

    let episodes = bus_off_episodes(sim.events(), victim_node);
    assert!(!episodes.is_empty(), "the victim must be forced off");
    for episode in &episodes {
        assert_eq!(episode.attempts, 32, "TEC +8 per destroyed attempt");
    }
    // Every destroyed attempt is one tx-side stuff error: the counter and
    // the episode ladder must agree.
    assert_eq!(
        victim_tx_stuff,
        32 * episodes.len() as u64,
        "one stuff error per destroyed attempt"
    );
    // The attacker's host controller only ever *receives* — its REC
    // saturates at error-passive and no counterattack can bus it off.
    assert!(
        bus_off_episodes(sim.events(), 1).is_empty(),
        "the bit-level attacker stays on the bus"
    );
}

#[test]
fn adaptive_racer_learns_kill_positions_in_simulation() {
    // A ghost injector kills the victim's frames early (right after
    // arbitration). The racer probes two frames, measures where those
    // kills complete on the wire, then strikes ahead of the observed
    // minimum — all visible through its own metric series.
    let probe = Recorder::enabled();
    let mut racer = AdaptiveRacer::new(CanId::from_raw(VICTIM_ID), 2, 2, 40);
    racer.set_recorder(&probe, 1);
    let mut sim = SimBuilder::new(BusSpeed::K500)
        .node(Node::new(
            "victim",
            Box::new(PeriodicSender::new(victim_frame(), 600, 0)),
        ))
        .node(Node::new("racer", Box::new(SilentApplication)).with_agent(Box::new(racer)))
        .node(
            Node::new("ghost", Box::new(SilentApplication))
                .with_agent(Box::new(GhostInjector::new(CanId::from_raw(VICTIM_ID)))),
        )
        .node(Node::new("rx", Box::new(SilentApplication)))
        .build();
    sim.run(30_000);

    let registry = probe.into_registry();
    let observed = registry
        .histogram("adaptive_racer_observed_kill_bits{node=\"1\"}")
        .expect("the kill-position histogram is declared");
    assert!(
        observed.count() >= 2,
        "at least the two probe kills must be measured: {}",
        observed.count()
    );
    let min = observed.min().expect("kills were observed");
    assert!(
        min < 40,
        "the ghost kills early, far before the fallback position: {min}"
    );
    assert!(
        registry.counter("adaptive_racer_strikes_total{node=\"1\"}") > 0,
        "after probing the racer must strike at its learned position"
    );
}

#[test]
fn registry_enumeration_matches_the_experiments_surface() {
    // The `experiments attacks --attacks all` runner enumerates exactly
    // this registry; pin the surface the CI smoke run depends on.
    let names = attack_names();
    for family in [
        "stuff-overwrite",
        "error-flag",
        "truncate",
        "adaptive-racer",
    ] {
        assert!(names.contains(&family), "new bit-level family {family}");
    }
    let variants = all_variants();
    assert!(variants.len() >= 12, "registry shrank: {}", variants.len());
    let bit_level_families: std::collections::HashSet<&str> = variants
        .iter()
        .filter(|v| v.bit_level())
        .map(|v| v.attack)
        .collect();
    assert!(
        bit_level_families.len() >= 4,
        "at least four bit-level families beyond ghost: {bit_level_families:?}"
    );
    // Selection works per family and rejects unknowns, exactly as the
    // `--attacks` flag resolves them.
    for name in &names {
        let family = variants_for(name).expect("every listed name resolves");
        assert!(!family.is_empty());
    }
    assert!(variants_for("not-an-attack").is_none());
    // The bench grid multiplies variants by the three defense columns.
    assert_eq!(
        bench::attackzoo::zoo_cells().len(),
        variants.len() * 3,
        "every variant appears once per defense column"
    );
}

#[test]
fn zoo_cells_ride_the_packed_kernel() {
    // Bit-level attackers declare position-derived drive horizons, so the
    // bits between a SOF and the strike resolve as packed words instead
    // of one-bit stretches; the fabrication attacker declares its next
    // due poll, so the kernel stops polling it every bit. Error frames
    // (flag, wait for recessive, delimiter) ride the kernel as `Signal`
    // stretches, so the controller refuses only at its event bits.
    let mut short_cap = 0;
    let mut controller = 0;
    for cell in zoo_cells() {
        let label = format!("{} vs {}", cell.variant.label(), cell.defense.label());
        let mut zoo = build_zoo_cell_observed(&cell, Recorder::disabled(), Journal::disabled());
        zoo.sim.run_packed(ZOO_HORIZON_BITS);
        let telemetry = zoo.sim.kernel_telemetry();
        short_cap += telemetry.fallback_count(FallbackCause::ShortCap);
        controller += telemetry.fallback_count(FallbackCause::Controller);
        if cell.variant.bit_level() {
            assert!(telemetry.packed_bits() > 0, "{label}: no packed bits");
        }
        if cell.variant.attack == "fabrication" && cell.defense != ZooDefense::Parrot {
            let app_polls = telemetry.fallback_count(FallbackCause::AppPoll);
            assert!(
                app_polls * 100 <= ZOO_HORIZON_BITS,
                "{label}: {app_polls} app-poll fallbacks in {ZOO_HORIZON_BITS} bits"
            );
        }
    }
    assert!(
        short_cap <= 15_000,
        "{short_cap} short-cap fallbacks over the zoo grid"
    );
    // 187,281 while every error-signalling bit ran in lockstep; 13,904
    // with `Signal` stretches.
    assert!(
        controller <= 20_000,
        "{controller} controller fallbacks over the zoo grid"
    );
}
