//! Property-level equivalence: for *arbitrary* node sets, fault stacks
//! and attack shapes, lockstep and packed-kernel runs are byte-identical
//! — plus regression pins proving that the packed kernel's idle skips
//! never jump over a fault-window boundary or a suspend expiry, and that
//! packed stretches break exactly at mid-word fault onsets and agent
//! intervention points, and that a saturating DoS attacker with a fixed
//! identifier rides the packed kernel instead of pinning it to lockstep,
//! that a supervised defender lets the kernel skip idle gaps, and that
//! receivers in one parser state share one dry run per stretch.
//!
//! (The file name predates the packed kernel absorbing idle
//! fast-forward; it is kept so the test ids stay stable.)

use bench::campaign::{build_cell, FaultSpec as CampaignFault, Traffic};
use bench::differential::check_equivalence;
use can_attacks::{DosKind, SuspensionAttacker};
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BusSpeed, CanFrame, CanId, ErrorState};
use can_obs::{Journal, Recorder};
use can_sim::{
    ControllerConfig, EventKind, FallbackCause, FaultModel, FaultStack, Node, SimBuilder,
    Simulator, TxFault,
};
use michican::prelude::*;
use parrot::ParrotDefender;
use proptest::prelude::*;

fn frame(id: u16, data: &[u8]) -> CanFrame {
    CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
}

/// Distinct (id, period, payload) sender configurations with enough slack
/// for real idle gaps (the idle-skip path must have something to skip).
fn arb_senders() -> impl Strategy<Value = Vec<(u16, u64, Vec<u8>)>> {
    proptest::collection::btree_map(
        0x080u16..=CanId::MAX_RAW,
        (900u64..6_000, proptest::collection::vec(any::<u8>(), 0..=8)),
        1..5,
    )
    .prop_map(|m| {
        m.into_iter()
            .map(|(id, (period, payload))| (id, period, payload))
            .collect()
    })
}

/// 0–2 random channel-fault layers.
fn arb_faults() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..4, any::<u64>()), 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized benign/attacked buses under randomized fault stacks:
    /// lockstep and the packed kernel agree on every observable surface.
    #[test]
    fn random_buses_are_bit_identical_under_acceleration(
        senders in arb_senders(),
        faults in arb_faults(),
        attack in any::<bool>(),
    ) {
        let build = |recorder: Recorder| {
            let mut builder = SimBuilder::new(BusSpeed::K500).recorder(recorder);
            for (i, (id, period, payload)) in senders.iter().enumerate() {
                builder = builder.node(Node::new(
                    format!("ecu{i}"),
                    Box::new(PeriodicSender::new(
                        frame(*id, payload),
                        *period,
                        (i as u64) * 53,
                    )),
                ));
            }
            if attack {
                let list = EcuList::from_raw(&[0x173]);
                builder = builder
                    .node(Node::new(
                        "attacker",
                        Box::new(PeriodicSender::new(frame(0x064, &[0; 8]), 2_000, 0)),
                    ))
                    .node(
                        Node::new("defender", Box::new(SilentApplication)).with_agent(
                            Box::new(MichiCan::new(DetectionFsm::for_ecu(&list, 0))),
                        ),
                    );
            } else {
                builder = builder.node(Node::new("rx", Box::new(SilentApplication)));
            }
            let mut stack = FaultStack::new();
            for &(kind, seed) in &faults {
                // Derive the layer shape from the random tuple: mixed
                // BERs and a scripted flip, all seed-dependent.
                stack.push(match kind {
                    0 => FaultModel::random(1e-5, seed),
                    1 => FaultModel::random(1e-4, seed),
                    2 => FaultModel::scripted(vec![seed % 18_000]),
                    _ => FaultModel::random(5e-4, seed),
                });
            }
            builder.faults(stack).build()
        };
        check_equivalence(build, 18_000).unwrap();
    }
}

const ERROR_RUN_BITS: u64 = 12_000;

/// Identifier shared by the colliding pair (below every random sender).
const COLLIDING_ID: u16 = 0x050;

/// Identifier a Parrot defender owns and a spoofer sends (below every
/// random sender, above the colliding pair).
const PARROT_ID: u16 = 0x060;

/// Babbling duties of the TX-fault shapes `1..=3` ([`ErrorSources::tx_kind`]).
const BABBLE_DUTY: [f64; 3] = [0.0, 0.3, 1.0];

/// The error sources of one [`error_bus`].
#[derive(Debug, Clone, Copy)]
struct ErrorSources {
    /// Low four bits: a TX fault window `(start, len)`, BER 1e-3 channel
    /// faults, a pair of senders that share an identifier (their
    /// collisions drive both error-passive) and a saturating DoS attacker
    /// against a MichiCAN monitor.
    mask: u8,
    /// The TX fault's shape: stuck dominant (0), or babbling at the
    /// duties of [`BABBLE_DUTY`] (1..=3).
    tx_kind: u8,
    /// Put the TX fault on the MichiCAN monitor's node, when there is
    /// one, instead of on a dedicated node.
    fault_on_michican: bool,
    /// A Parrot defender flooding against a spoofer of its identifier:
    /// none (0), a flood that outlasts the run (1), or that flood with a
    /// crash window `(start, len)` on the Parrot node (2).
    parrot: u8,
}

impl ErrorSources {
    /// Whether the bus certainly sees protocol errors (a duty-0 babble
    /// drives nothing, and a 0.3 one may stay recessive).
    fn certain_errors(self) -> bool {
        self.mask & !1 != 0 || matches!(self.tx_kind, 0 | 3) || self.parrot != 0
    }
}

/// A bus of random senders plus the error sources of `sources`.
fn error_bus(
    senders: &[(u16, u64, Vec<u8>)],
    sources: ErrorSources,
    (start, len): (u64, u64),
    seed: u64,
    recorder: Recorder,
) -> Simulator {
    let tx_fault = || match sources.tx_kind {
        0 => TxFault::stuck_dominant(start, start + len),
        kind => TxFault::babbling(start, start + len, BABBLE_DUTY[kind as usize - 1], seed),
    };
    let mut builder = SimBuilder::new(BusSpeed::K500).recorder(recorder.clone());
    for (i, (id, period, payload)) in senders.iter().enumerate() {
        builder = builder.node(Node::new(
            format!("ecu{i}"),
            Box::new(PeriodicSender::new(
                frame(*id, payload),
                *period,
                (i as u64) * 53,
            )),
        ));
    }
    builder = builder.node(Node::new("rx", Box::new(SilentApplication)));
    let fault_on_michican = sources.fault_on_michican && sources.mask & 8 != 0;
    if sources.mask & 1 != 0 && !fault_on_michican {
        builder =
            builder.node(Node::new("flaky", Box::new(SilentApplication)).with_tx_fault(tx_fault()));
    }
    if sources.mask & 2 != 0 {
        builder = builder.fault(FaultModel::random(1e-3, seed));
    }
    if sources.mask & 4 != 0 {
        for (name, payload) in [("owner", [0xFF; 8]), ("twin", [0x00; 8])] {
            builder = builder.node(Node::new(
                name,
                Box::new(PeriodicSender::new(frame(COLLIDING_ID, &payload), 300, 0)),
            ));
        }
    }
    if sources.mask & 8 != 0 {
        let ids: Vec<u16> = senders.iter().map(|(id, _, _)| *id).collect();
        let list = EcuList::from_raw(&ids);
        let mut michican = Node::new("michican", Box::new(SilentApplication))
            .with_agent(Box::new(MichiCan::new(DetectionFsm::for_monitor(&list))));
        if sources.mask & 1 != 0 && fault_on_michican {
            michican = michican.with_tx_fault(tx_fault());
        }
        builder = builder
            .node(Node::new(
                "attacker",
                Box::new(
                    SuspensionAttacker::saturating(DosKind::Traditional).with_payload(&[0xFF; 8]),
                ),
            ))
            .node(michican);
    }
    if sources.parrot != 0 {
        let mut parrot =
            ParrotDefender::new(CanId::from_raw(PARROT_ID), ERROR_RUN_BITS).with_own_traffic(1_000);
        parrot.set_recorder(recorder, builder.node_id() as u32);
        let mut node = Node::new("parrot", Box::new(parrot));
        if sources.parrot == 2 {
            node = node.with_tx_fault(TxFault::crash_restart(start, start + len));
        }
        builder = builder.node(node).node(Node::new(
            "spoofer",
            Box::new(PeriodicSender::new(frame(PARROT_ID, &[0xFF; 8]), 800, 100)),
        ));
    }
    builder.build()
}

/// Runs `sources` under both engines and checks that error frames ride
/// the packed kernel as `Signal` stretches.
fn check_error_bus(
    senders: &[(u16, u64, Vec<u8>)],
    sources: ErrorSources,
    window: (u64, u64),
    seed: u64,
) -> Result<(), TestCaseError> {
    let build = |recorder: Recorder| error_bus(senders, sources, window, seed, recorder);
    check_equivalence(build, ERROR_RUN_BITS).map_err(TestCaseError)?;

    let mut sim = build(Recorder::disabled());
    sim.run_packed(ERROR_RUN_BITS);
    let telemetry = sim.kernel_telemetry();
    let signal = telemetry
        .role_bits()
        .iter()
        .find(|(label, _)| *label == "signal")
        .map_or(0, |(_, bits)| *bits);
    if sources.certain_errors() {
        prop_assert!(signal > 0, "no signal stretch: {}", telemetry.to_json());
    }
    if sources.mask & 4 != 0 {
        prop_assert!(
            sim.events().iter().any(|e| matches!(
                e.kind,
                EventKind::ErrorStateChanged {
                    state: ErrorState::ErrorPassive
                }
            )),
            "the colliding pair must turn error-passive"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Error-heavy buses, every case with at least one error source:
    /// error frames ride the packed kernel as `Signal` stretches and stay
    /// byte-identical to lockstep, through superposed flags, passive
    /// flags, suspend transmission and bus-off; stuck-dominant and
    /// babbling windows (on their own node or on an injecting MichiCAN
    /// node) ride it as known drive words, and a Parrot flood's re-posts
    /// settle in closed form, also when the run or a crash cuts it.
    #[test]
    fn error_frames_are_bit_identical_under_acceleration(
        senders in arb_senders(),
        mask in 1u8..16,
        tx_kind in 0u8..4,
        fault_on_michican in any::<bool>(),
        parrot in 0u8..3,
        window in (500u64..8_000, 8u64..200),
        seed in any::<u64>(),
    ) {
        let sources = ErrorSources { mask, tx_kind, fault_on_michican, parrot };
        check_error_bus(&senders, sources, window, seed)?;
    }
}

#[test]
fn every_forced_drive_shape_is_bit_identical_under_acceleration() {
    // One deterministic case per forced-drive shape the proptest above
    // draws at random: each babbling duty and the stuck window, on a
    // dedicated node and on the injecting MichiCAN node, and both Parrot
    // floods (cut by the run's horizon, and by a crash mid-flood).
    let senders = vec![
        (0x0A0, 1_100, vec![0x12, 0x34]),
        (0x1B0, 2_300, vec![0xFF; 8]),
        (0x2C0, 3_700, vec![]),
    ];
    let mut cases = Vec::new();
    for tx_kind in 0..4 {
        for fault_on_michican in [false, true] {
            cases.push(ErrorSources {
                mask: 1 | 8,
                tx_kind,
                fault_on_michican,
                parrot: 0,
            });
        }
    }
    for parrot in [1, 2] {
        cases.push(ErrorSources {
            mask: 2,
            tx_kind: 0,
            fault_on_michican: false,
            parrot,
        });
    }
    for sources in cases {
        check_error_bus(&senders, sources, (2_000, 150), 7)
            .unwrap_or_else(|e| panic!("{sources:?}: {e}"));
    }

    // The Parrot flood is still running when the run ends: its last bit
    // still counts flood frames, so the settled count is exact up to it.
    let sources = ErrorSources {
        mask: 2,
        tx_kind: 0,
        fault_on_michican: false,
        parrot: 1,
    };
    let recorder = Recorder::enabled();
    let mut sim = error_bus(&senders, sources, (2_000, 150), 7, recorder.clone());
    let flood_frames = || {
        recorder
            .with_registry(|registry| {
                registry
                    .counters()
                    .filter(|(key, _)| key.starts_with("parrot_flood_frames_total"))
                    .map(|(_, frames)| frames)
                    .sum::<u64>()
            })
            .unwrap()
    };
    sim.run_packed(ERROR_RUN_BITS - 1);
    let before = flood_frames();
    sim.run_packed(1);
    assert!(flood_frames() > before, "the flood ended before the run");
}

#[test]
fn forced_dominant_bits_on_an_idle_bus_count_busy() {
    // A transceiver stuck dominant, or babbling, from power-on: every
    // controller is still integrating, so no node is busy and the forced
    // dominant bits alone make the bus busy, bit by bit.
    for babble in [false, true] {
        let build = |recorder: Recorder| {
            let fault = if babble {
                TxFault::babbling(0, 300, 0.5, 3)
            } else {
                TxFault::stuck_dominant(0, 300)
            };
            SimBuilder::new(BusSpeed::K500)
                .recorder(recorder)
                .node(Node::new("flaky", Box::new(SilentApplication)).with_tx_fault(fault))
                .node(Node::new("rx", Box::new(SilentApplication)))
                .build()
        };
        check_equivalence(build, 1_000).unwrap();
        let mut sim = build(Recorder::disabled());
        sim.run_packed(1_000);
        assert!(sim.busy_bits() > 0, "babble={babble}: no busy bit");
    }
}

#[test]
fn skip_ahead_never_jumps_a_tx_fault_window_boundary() {
    // A stuck-dominant pin window opens at bit 2 000, deep inside an idle
    // stretch (the only sender is quiet from ~150 to 4 000). A skip that
    // overshoots the boundary would swallow the resulting error burst.
    let build = |recorder: Recorder| {
        SimBuilder::new(BusSpeed::K500)
            .recorder(recorder)
            .node(Node::new(
                "tx",
                Box::new(PeriodicSender::new(frame(0x100, &[0x11; 4]), 4_000, 0)),
            ))
            .node(Node::new("rx", Box::new(SilentApplication)))
            .node(
                Node::new("flaky", Box::new(SilentApplication))
                    .with_tx_fault(TxFault::stuck_dominant(2_000, 2_100)),
            )
            .build()
    };
    check_equivalence(build, 8_000).unwrap();

    // The boundary really sits in skipped territory: the window produces
    // protocol errors shortly after bit 2 000 (a jumped boundary would
    // leave this region silent and the assertion above vacuous).
    let mut sim = build(Recorder::disabled());
    sim.run_packed(8_000);
    assert!(sim.kernel_telemetry().skipped_bits() > 0);
    assert!(
        sim.events().iter().any(|e| {
            matches!(e.kind, EventKind::ErrorDetected { .. })
                && (2_000..2_300).contains(&e.at.bits())
        }),
        "the stuck-dominant window must be observed at its opening bit"
    );
}

#[test]
fn skip_ahead_never_jumps_a_scripted_channel_flip() {
    // A single scripted channel flip at bit 2 500 lands in an otherwise
    // idle stretch: the spurious dominant bit reads as a SOF and ends in a
    // stuff error a few bits later. The idle skip must stop exactly at the
    // scripted bit to reproduce it.
    let build = |recorder: Recorder| {
        SimBuilder::new(BusSpeed::K500)
            .recorder(recorder)
            .node(Node::new(
                "tx",
                Box::new(PeriodicSender::new(frame(0x100, &[0x22; 4]), 6_000, 0)),
            ))
            .node(Node::new("rx", Box::new(SilentApplication)))
            .fault(FaultModel::scripted(vec![2_500]))
            .build()
    };
    check_equivalence(build, 6_000).unwrap();

    let mut sim = build(Recorder::disabled());
    sim.run_packed(6_000);
    assert!(sim.kernel_telemetry().skipped_bits() > 0);
    assert!(
        sim.events().iter().any(|e| {
            matches!(e.kind, EventKind::ErrorDetected { .. })
                && (2_500..2_600).contains(&e.at.bits())
        }),
        "the scripted flip must surface as an error right after bit 2500"
    );
}

#[test]
fn skip_ahead_never_jumps_a_suspend_expiry() {
    // A lone single-shot transmitter with nobody to acknowledge walks into
    // error-passive and from then on serves an 8-bit suspend-transmission
    // penalty after every attempt, followed by a long idle gap until its
    // next period. The skip horizon must include the suspend expiry (and
    // the queued next attempt), or retransmission timing drifts.
    let build = |recorder: Recorder| {
        SimBuilder::new(BusSpeed::K500)
            .recorder(recorder)
            .node(Node::with_config(
                "lone",
                Box::new(PeriodicSender::new(frame(0x0A0, &[0x33; 2]), 1_000, 0)),
                ControllerConfig {
                    ack_enabled: true,
                    retransmit: false,
                },
            ))
            .build()
    };
    check_equivalence(build, 40_000).unwrap();

    let mut sim = build(Recorder::disabled());
    sim.run_packed(40_000);
    assert!(sim.kernel_telemetry().skipped_bits() > 0);
    let ack_errors = sim
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ErrorDetected { .. }))
        .count();
    assert!(
        ack_errors >= 30,
        "every period must produce exactly one attempt + ACK error: {ack_errors}"
    );
    assert!(
        sim.node(0).controller().counters().tec() >= 96,
        "the transmitter must have reached the error-passive regime"
    );
}

#[test]
fn packed_stretches_break_at_mid_word_channel_flips() {
    // Scripted channel flips timed to land *inside* frame bodies — deep in
    // territory the packed kernel would otherwise resolve as one 64-bit
    // word. The fault-stack horizon must cap every stretch at the scripted
    // bit so the flip (and the error frame it provokes) replays exactly.
    let build = |recorder: Recorder| {
        SimBuilder::new(BusSpeed::K500)
            .recorder(recorder)
            .node(Node::new(
                "tx",
                Box::new(PeriodicSender::new(frame(0x0C4, &[0x5A; 8]), 500, 0)),
            ))
            .node(Node::new("rx", Box::new(SilentApplication)))
            // Bit 30 lands mid-arbitration of the first frame, 1 060 and
            // 2_585 inside later frame bodies at unaligned word offsets.
            .fault(FaultModel::scripted(vec![30, 1_060, 2_585]))
            .build()
    };
    check_equivalence(build, 6_000).unwrap();

    let mut sim = build(Recorder::disabled());
    sim.run_packed(6_000);
    assert!(
        sim.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::ErrorDetected { .. })),
        "the mid-frame flips must provoke observable protocol errors"
    );
}

#[test]
fn packed_stretches_break_at_agent_intervention_boundaries() {
    // A spoofing attacker and a MichiCan defender: the defender's
    // injection start is an agent drive that must cap the packed stretch
    // at exactly the right bit — one bit late and the error frame shifts,
    // diverging every downstream surface.
    let build = |recorder: Recorder| {
        let list = EcuList::from_raw(&[0x173]);
        SimBuilder::new(BusSpeed::K500)
            .recorder(recorder)
            .node(Node::new(
                "victim",
                Box::new(PeriodicSender::new(frame(0x173, &[0x11; 8]), 3_000, 0)),
            ))
            .node(Node::new(
                "attacker",
                Box::new(PeriodicSender::new(frame(0x173, &[0xFF; 8]), 3_000, 1_500)),
            ))
            .node(
                Node::new("defender", Box::new(SilentApplication))
                    .with_agent(Box::new(MichiCan::new(DetectionFsm::for_ecu(&list, 0)))),
            )
            .build()
    };
    check_equivalence(build, 20_000).unwrap();

    let mut sim = build(Recorder::disabled());
    sim.run_packed(20_000);
    assert!(
        sim.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::ErrorDetected { .. })),
        "the defender's injections must destroy the spoofed frames"
    );
}

/// One saturating-attacker scenario: two benign senders, a listener, the
/// flooding attacker (optionally crashing and restarting mid-run) and an
/// optional MichiCAN monitor that knows the benign ids.
#[derive(Debug, Clone, Copy)]
struct DosCase {
    kind: DosKind,
    retransmit: bool,
    ber: Option<f64>,
    crash_restart: bool,
    defended: bool,
}

const DOS_RUN_BITS: u64 = 6_000;

fn dos_sim(case: DosCase, recorder: Recorder) -> Simulator {
    let mut builder = SimBuilder::new(BusSpeed::K500)
        .recorder(recorder)
        .node(Node::new(
            "victim",
            Box::new(PeriodicSender::new(frame(0x260, &[0x11; 8]), 700, 0)),
        ))
        .node(Node::new(
            "ecu",
            Box::new(PeriodicSender::new(frame(0x3A0, &[0x22; 4]), 1_100, 250)),
        ))
        .node(Node::new("rx", Box::new(SilentApplication)));
    let mut attacker = Node::with_config(
        "attacker",
        Box::new(SuspensionAttacker::saturating(case.kind).with_payload(&[0xFF; 8])),
        ControllerConfig {
            ack_enabled: true,
            retransmit: case.retransmit,
        },
    );
    if case.crash_restart {
        attacker = attacker.with_tx_fault(TxFault::crash_restart(1_500, 2_600));
    }
    builder = builder.node(attacker);
    if case.defended {
        let list = EcuList::from_raw(&[0x260, 0x3A0]);
        builder = builder.node(
            Node::new("michican", Box::new(SilentApplication))
                .with_agent(Box::new(MichiCan::new(DetectionFsm::for_monitor(&list)))),
        );
    }
    if let Some(ber) = case.ber {
        builder = builder.fault(FaultModel::random(ber, 0xD05));
    }
    builder.build()
}

fn dos_cases() -> Vec<DosCase> {
    let kinds = [
        DosKind::Traditional,
        DosKind::Targeted {
            id: CanId::from_raw(0x25F),
        },
        DosKind::Random {
            below: CanId::from_raw(0x260),
        },
    ];
    let mut cases = Vec::new();
    for kind in kinds {
        for retransmit in [true, false] {
            for ber in [None, Some(1e-3), Some(2e-2)] {
                for crash_restart in [false, true] {
                    for defended in [false, true] {
                        cases.push(DosCase {
                            kind,
                            retransmit,
                            ber,
                            crash_restart,
                            defended,
                        });
                    }
                }
            }
        }
    }
    cases
}

#[test]
fn saturating_dos_attackers_are_bit_identical_under_acceleration() {
    // The fixed-id attackers skip their re-posts under the packed kernel;
    // every mailbox read must still see the frame lockstep would have
    // re-posted — across arbitration wins and losses, defender-destroyed
    // attempts, bus-off, single-shot mode, channel errors and an MCU
    // restart that flushes the mailbox.
    let cases = dos_cases();
    assert_eq!(cases.len(), 72);
    for case in cases {
        check_equivalence(|recorder| dos_sim(case, recorder), DOS_RUN_BITS)
            .unwrap_or_else(|e| panic!("{case:?}: {e}"));
    }
}

#[test]
fn fixed_id_saturating_attacker_stops_forcing_lockstep() {
    let case = DosCase {
        kind: DosKind::Targeted {
            id: CanId::from_raw(0x25F),
        },
        retransmit: true,
        ber: None,
        crash_restart: false,
        defended: true,
    };
    let mut sim = dos_sim(case, Recorder::disabled());
    sim.run_packed(DOS_RUN_BITS);
    assert!(
        sim.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::BusOff)),
        "the defender must drive the attacker to bus-off"
    );
    let telemetry = sim.kernel_telemetry();
    let app_polls = telemetry.fallback_count(FallbackCause::AppPoll);
    assert!(
        app_polls * 100 <= DOS_RUN_BITS,
        "app-poll fallbacks {app_polls} exceed 1% of {DOS_RUN_BITS} bits"
    );
    assert!(
        telemetry.packed_bits() > telemetry.lockstep_bits(),
        "packed {} vs lockstep {} bits",
        telemetry.packed_bits(),
        telemetry.lockstep_bits()
    );
}

#[test]
fn random_id_attacker_still_polls_every_bit() {
    // Random ids draw from the attacker's RNG on every poll, so those
    // polls are not no-ops: every bit stays lockstep, and the attacker's
    // due poll is the refusing seam on most of them (the rest are
    // refused earlier in node order, e.g. by error signalling).
    let case = DosCase {
        kind: DosKind::Random {
            below: CanId::from_raw(0x260),
        },
        retransmit: true,
        ber: None,
        crash_restart: false,
        defended: true,
    };
    let mut sim = dos_sim(case, Recorder::disabled());
    sim.run_packed(DOS_RUN_BITS);
    let telemetry = sim.kernel_telemetry();
    assert_eq!(telemetry.lockstep_bits(), DOS_RUN_BITS);
    let app_polls = telemetry.fallback_count(FallbackCause::AppPoll);
    assert!(
        app_polls * 4 >= DOS_RUN_BITS * 3,
        "expected app-poll fallbacks on most bits, got {app_polls} in {DOS_RUN_BITS} bits"
    );
}

#[test]
fn benign_clean_campaign_cell_idle_skips_under_supervision() {
    // The supervised MichiCAN dongle is quiet between frames, so the
    // packed kernel skips the campaign's idle gaps instead of stepping
    // the watchdog through them bit by bit.
    let run_ms = 60.0;
    let bits = BusSpeed::K500.bits_in_millis(run_ms);
    let build = |recorder: Recorder| {
        let journal = Journal::disabled();
        build_cell(
            Traffic::Benign,
            CampaignFault::Clean,
            7,
            run_ms,
            &recorder,
            &journal,
        )
        .unwrap()
        .sim
    };
    check_equivalence(build, bits).unwrap();
    let mut sim = build(Recorder::disabled());
    sim.run_packed(bits);
    let telemetry = sim.kernel_telemetry();
    assert!(
        telemetry.skipped_bits() > 0,
        "no idle skip on a defended bus: {}",
        telemetry.to_json()
    );
}

/// One periodic sender, four silent receivers and a silent node carrying
/// a supervised MichiCAN, optionally under iid channel bit errors.
fn shared_parse_bus(ber: Option<f64>, recorder: Recorder) -> Simulator {
    let list = EcuList::from_raw(&[0x0A5]);
    let mut builder = SimBuilder::new(BusSpeed::K500)
        .recorder(recorder)
        .node(Node::new(
            "sender",
            Box::new(PeriodicSender::new(frame(0x0A5, &[0x3C; 8]), 700, 11)),
        ));
    for i in 0..4 {
        builder = builder.node(Node::new(format!("rx{i}"), Box::new(SilentApplication)));
    }
    builder = builder.node(
        Node::new("michican", Box::new(SilentApplication)).with_agent(Box::new(
            SupervisedMichiCan::new(
                MichiCan::new(DetectionFsm::for_monitor(&list)),
                HealthConfig::default(),
                SyncConfig::typical(BusSpeed::K500),
            ),
        )),
    );
    if let Some(ber) = ber {
        builder = builder.fault(FaultModel::random(ber, 0x5EED));
    }
    builder.build()
}

#[test]
fn receivers_in_one_parser_state_share_one_dry_run() {
    const BITS: u64 = 30_000;
    for ber in [None, Some(1e-3), Some(2e-2)] {
        check_equivalence(|recorder| shared_parse_bus(ber, recorder), BITS)
            .unwrap_or_else(|e| panic!("ber {ber:?}: {e}"));
    }
    // On the clean bus every node follows the same frame from the same
    // SOF: one dry run per stretch attempt with receivers, and the other
    // four receivers plus the sender's monitor parser copy it.
    let mut sim = shared_parse_bus(None, Recorder::disabled());
    sim.run_packed(BITS);
    let t = sim.kernel_telemetry();
    let attempts = t.stretches() + t.fallback_count(FallbackCause::ReceiverDryRun);
    assert!(t.parses_run() > 0);
    assert!(
        t.parses_run() <= attempts,
        "{} dry runs in {attempts} stretch attempts",
        t.parses_run()
    );
    assert_eq!(
        t.parses_copied(),
        5 * t.parses_run(),
        "{} copies for {} dry runs",
        t.parses_copied(),
        t.parses_run()
    );
}
