//! End-to-end validation of the paper's core claim: a MichiCAN-equipped
//! ECU forces an attacking ECU into bus-off within 32 transmission
//! attempts, in ≈ 1248 bit times (§IV-E, §V-C).

use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BusSpeed, CanFrame, CanId, ErrorState};
use can_sim::{bus_off_episodes, EventKind, Node, SimBuilder, Simulator};
use michican::prelude::*;
use michican::prevention;

fn frame(id: u16, data: &[u8]) -> CanFrame {
    CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
}

/// Builds a simulator with one attacker and one MichiCAN defender ECU
/// configured by `config`. The defender's own identifier list is
/// `[0x173]`; everything below it that is not legitimate is a DoS attack.
fn attack_setup(attacker_frame: CanFrame, config: MichiCanConfig) -> (Simulator, usize, usize) {
    let list = EcuList::from_raw(&[0x173]);
    let builder = SimBuilder::new(BusSpeed::K50);
    let attacker = builder.node_id();
    let builder = builder.node(Node::new(
        "attacker",
        Box::new(PeriodicSender::new(attacker_frame, 400, 0)),
    ));
    let defender = builder.node_id();
    let sim = builder
        .node(
            Node::new("defender", Box::new(SilentApplication)).with_agent(Box::new(
                MichiCan::with_config(DetectionFsm::for_ecu(&list, 0), config),
            )),
        )
        .build();
    (sim, attacker, defender)
}

#[test]
fn dos_attacker_is_bused_off_in_32_attempts() {
    let (mut sim, attacker, _) = attack_setup(frame(0x064, &[0; 8]), MichiCanConfig::default());
    let hit = sim.run_until(10_000, |e| matches!(e.kind, EventKind::BusOff));
    assert!(hit.is_some(), "attacker must reach bus-off");

    let episodes = bus_off_episodes(sim.events(), attacker);
    assert_eq!(episodes.len(), 1);
    let ep = &episodes[0];
    assert_eq!(
        ep.attempts, 32,
        "paper: 32 (re)transmissions to bus-off, got {}",
        ep.attempts
    );
    let bits = ep.duration().as_bits();
    // Theoretical clean worst case: 1248 bits. The simulator's emergent
    // timing (exact injection width, flag superposition) may differ by a
    // few bits per attempt; the paper's own measurement was 24.9 ± 0.45 ms
    // = 1245 ± 22 bits at 50 kbit/s.
    assert!(
        (1100..=1400).contains(&bits),
        "bus-off time {bits} bits outside the expected envelope"
    );
}

#[test]
fn spoofing_attacker_is_bused_off() {
    // The attacker spoofs the defender's own identifier 0x173.
    let (mut sim, attacker, _) = attack_setup(frame(0x173, &[0xFF; 8]), MichiCanConfig::default());
    let hit = sim.run_until(10_000, |e| matches!(e.kind, EventKind::BusOff));
    assert!(hit.is_some(), "spoofing attacker must reach bus-off");
    let episodes = bus_off_episodes(sim.events(), attacker);
    assert_eq!(episodes[0].attempts, 32);
}

#[test]
fn attacker_walks_the_error_state_ladder() {
    let (mut sim, attacker, _) = attack_setup(frame(0x050, &[0x11; 8]), MichiCanConfig::default());
    sim.run_until(10_000, |e| matches!(e.kind, EventKind::BusOff));

    // Collect the attacker's error-state transitions in order.
    let states: Vec<ErrorState> = sim
        .events()
        .iter()
        .filter(|e| e.node == attacker)
        .filter_map(|e| match e.kind {
            EventKind::ErrorStateChanged { state } => Some(state),
            _ => None,
        })
        .collect();
    assert_eq!(
        states,
        vec![ErrorState::ErrorPassive, ErrorState::BusOff],
        "Fig. 1b: active → passive → bus-off"
    );
}

#[test]
fn defender_counters_are_untouched() {
    // "the legitimate node's TEC remains unaffected by the counterattack"
    let (mut sim, _, defender) = attack_setup(frame(0x064, &[0; 8]), MichiCanConfig::default());
    sim.run_until(10_000, |e| matches!(e.kind, EventKind::BusOff));
    assert_eq!(
        sim.node(defender).controller().counters().tec(),
        0,
        "GPIO injection must not raise the defender's TEC"
    );
    assert_ne!(
        sim.node(defender).controller().error_state(),
        ErrorState::BusOff
    );
}

#[test]
fn no_complete_attack_frame_ever_reaches_an_application() {
    let (mut sim, _, _) = attack_setup(frame(0x001, &[0xAA; 8]), MichiCanConfig::default());
    sim.run_until(10_000, |e| matches!(e.kind, EventKind::BusOff));
    assert!(
        !sim.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::FrameReceived { .. })),
        "every attack frame must be destroyed before completion"
    );
    assert!(!sim
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::TransmissionSucceeded { .. })),);
}

#[test]
fn attacker_recovers_and_is_bused_off_again() {
    // Persistent attacker: after 128 × 11 recessive bits it recovers and
    // the defense repeats (paper §V-E: short periodic bus-load spikes).
    let (mut sim, attacker, _) = attack_setup(frame(0x064, &[0; 8]), MichiCanConfig::default());
    sim.run(40_000); // 0.8 s at 50 kbit/s
    let episodes = bus_off_episodes(sim.events(), attacker);
    assert!(
        episodes.len() >= 2,
        "expected repeated bus-off episodes, got {}",
        episodes.len()
    );
    for ep in &episodes {
        assert_eq!(ep.attempts, 32);
    }
    let recoveries = sim
        .events()
        .iter()
        .filter(|e| e.node == attacker && matches!(e.kind, EventKind::Recovered))
        .count();
    assert!(recoveries >= 1);
}

#[test]
fn michican_stats_reflect_the_episode() {
    let (mut sim, _, defender) = attack_setup(frame(0x064, &[0; 8]), MichiCanConfig::default());
    sim.run_until(10_000, |e| matches!(e.kind, EventKind::BusOff));
    // Downcast-free access: the agent trait has no stats, so go through
    // the concrete node API is not possible here; instead verify via event
    // counts that 32 error flags were provoked.
    let attacker_errors = sim
        .events()
        .iter()
        .filter(|e| {
            e.node == 0
                && matches!(
                    e.kind,
                    EventKind::ErrorDetected {
                        role: can_sim::ErrorRole::Transmitter,
                        ..
                    }
                )
        })
        .count();
    assert_eq!(attacker_errors, 32);
    let _ = defender;
}

#[test]
fn theory_and_simulation_agree_on_scale() {
    let theory = prevention::single_attacker_total(prevention::WORST_CASE_FLAG_START);
    let (mut sim, attacker, _) = attack_setup(frame(0x064, &[0; 8]), MichiCanConfig::default());
    sim.run_until(10_000, |e| matches!(e.kind, EventKind::BusOff));
    let measured = bus_off_episodes(sim.events(), attacker)[0]
        .duration()
        .as_bits();
    let ratio = measured as f64 / theory as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "simulated/theoretical = {ratio:.3} (measured {measured}, theory {theory})"
    );
}

#[test]
fn injection_width_ablation_pins_each_release_position() {
    // Algorithm 1 drives CAN_TX dominant up to destuffed position 20
    // (`counterattack_end`). Against this worst-case shape (recessive
    // identifier LSB, DLC 1) a release at 17 or earlier never buses the
    // attacker off; from 18 on it does, and each later release position
    // costs the episode 16 more bits.
    let attack = frame(0x065, &[0x00]);
    let episode_bits = |counterattack_end| {
        let config = MichiCanConfig {
            counterattack_end,
            ..MichiCanConfig::default()
        };
        let (mut sim, attacker, _) = attack_setup(attack, config);
        sim.run_until(8_000, |e| matches!(e.kind, EventKind::BusOff))?;
        bus_off_episodes(sim.events(), attacker)
            .first()
            .map(|ep| ep.duration().as_bits())
    };
    for end in 14..=17 {
        assert_eq!(episode_bits(end), None, "release at {end}: no bus-off");
    }
    for (end, bits) in [(18, 1_293), (19, 1_309), (20, 1_325), (22, 1_357)] {
        assert_eq!(episode_bits(end), Some(bits), "release at {end}");
    }
}
