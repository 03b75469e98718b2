//! End-to-end property tests across the whole stack: for *any* attack
//! shape in the detection range, eradication follows the same 32-attempt
//! ladder; for any benign configuration, nothing is ever flagged.

use can_core::agent::BitAgent;
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::bitstream::stuff_frame;
use can_core::{BusSpeed, CanFrame, CanId, Level};
use can_sim::{bus_off_episodes, EventKind, Node, SimBuilder};
use michican::analysis::depth_profile;
use michican::detect::detection_range;
use michican::prelude::*;
use proptest::prelude::*;

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..=8)
}

/// Text spliced into candump logs by `candump_damage_is_a_typed_error`:
/// 2-, 3- and 4-byte characters, the format's own separators and a sign,
/// which `from_str_radix` would take as part of a number.
const INSERTS: [&str; 9] = ["é", "€", "😀", "0", "#", " ", "\n", "R", "+"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any attacker identifier below the defender's own, with any payload,
    /// is bused off in exactly 32 attempts within the theoretical
    /// envelope.
    #[test]
    fn any_dos_shape_is_eradicated(
        attacker_raw in 0u16..0x173,
        payload in arb_payload(),
    ) {
        let frame = CanFrame::data_frame(CanId::from_raw(attacker_raw), &payload).unwrap();
        let list = EcuList::from_raw(&[0x173]);
        let builder = SimBuilder::new(BusSpeed::K500);
        let attacker = builder.node_id();
        let mut sim = builder
            .node(Node::new(
                "attacker",
                Box::new(PeriodicSender::new(frame, 400, 0)),
            ))
            .node(
                Node::new("defender", Box::new(SilentApplication))
                    .with_agent(Box::new(MichiCan::new(DetectionFsm::for_ecu(&list, 0)))),
            )
            .build();
        let hit = sim.run_until(8_000, |e| matches!(e.kind, EventKind::BusOff));
        prop_assert!(hit.is_some(), "attacker 0x{attacker_raw:03X} must be bused off");
        let ep = &bus_off_episodes(sim.events(), attacker)[0];
        prop_assert_eq!(ep.attempts, 32);
        let bits = ep.duration().as_bits();
        prop_assert!(
            (1_000..=1_500).contains(&bits),
            "episode {} bits outside the envelope", bits
        );
        // No attack frame ever completed.
        let any_delivered = sim
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::FrameReceived { .. }));
        prop_assert!(!any_delivered);
    }

    /// Benign traffic with any identifier NOT in the defender's detection
    /// range flows without a single error.
    #[test]
    fn any_benign_id_flows_untouched(
        sender_raw in 0x174u16..=CanId::MAX_RAW,
        payload in arb_payload(),
    ) {
        let frame = CanFrame::data_frame(CanId::from_raw(sender_raw), &payload).unwrap();
        let list = EcuList::from_raw(&[0x173]);
        let mut sim = SimBuilder::new(BusSpeed::K500)
            .node(Node::new(
                "benign",
                Box::new(PeriodicSender::new(frame, 400, 0)),
            ))
            .node(
                Node::new("defender", Box::new(SilentApplication))
                    .with_agent(Box::new(MichiCan::new(DetectionFsm::for_ecu(&list, 0)))),
            )
            .build();
        sim.run(4_000);
        let any_errors = sim
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::ErrorDetected { .. }));
        prop_assert!(!any_errors);
        let delivered = sim
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FrameReceived { .. }))
            .count();
        prop_assert!(delivered >= 5, "traffic must flow: {}", delivered);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The handler's counterattack decision agrees with the FSM's
    /// classification for every frame shape: feeding a frame's exact wire
    /// bits to the handler injects iff the FSM says malicious.
    #[test]
    fn handler_agrees_with_fsm(
        id_raw in 0u16..=CanId::MAX_RAW,
        payload in arb_payload(),
        list_seed in proptest::collection::btree_set(0u16..=CanId::MAX_RAW, 1..12),
    ) {
        let ids: Vec<CanId> = list_seed.into_iter().map(CanId::from_raw).collect();
        let list = EcuList::new(ids).unwrap();
        let fsm = DetectionFsm::for_ecu(&list, list.len() - 1);
        let expected = fsm.classify(CanId::from_raw(id_raw));

        let mut handler = MichiCan::new(fsm);
        let frame = CanFrame::data_frame(CanId::from_raw(id_raw), &payload).unwrap();
        let wire = stuff_frame(&frame);
        let mut t = 0u64;
        for _ in 0..12 {
            handler.on_bit(Level::Recessive, can_core::BitInstant::from_bits(t));
            t += 1;
        }
        let mut injected = false;
        for &bit in &wire.bits {
            let seen = if handler.is_injecting() { Level::Dominant } else { bit };
            handler.on_bit(seen, can_core::BitInstant::from_bits(t));
            injected |= handler.is_injecting();
            t += 1;
        }
        prop_assert_eq!(injected, expected,
            "handler/FSM divergence for id 0x{:03X}", id_raw);
    }

    /// Analytic depth profile equals the exhaustive walk for random
    /// detection ranges.
    #[test]
    fn depth_profile_is_exact(
        list_seed in proptest::collection::btree_set(0u16..=CanId::MAX_RAW, 2..24),
        pick in any::<u8>(),
    ) {
        let ids: Vec<CanId> = list_seed.into_iter().map(CanId::from_raw).collect();
        let list = EcuList::new(ids).unwrap();
        let index = pick as usize % list.len();
        let set = detection_range(&list, index);
        let fsm = DetectionFsm::from_set(&set);
        let profile = depth_profile(&fsm);

        let mut sum = 0u64;
        let mut count = 0u64;
        for id in CanId::all() {
            if fsm.classify(id) {
                sum += fsm.decision_position(id) as u64;
                count += 1;
            }
        }
        prop_assert_eq!(profile.malicious_ids, count);
        if count > 0 {
            prop_assert!(
                (profile.mean_malicious_depth - sum as f64 / count as f64).abs() < 1e-9
            );
        }
        prop_assert_eq!(count as usize, set.len());
    }

    /// candump logs round-trip arbitrary frames.
    #[test]
    fn candump_round_trip(
        entries in proptest::collection::vec(
            (0u16..=CanId::MAX_RAW, arb_payload(), 0.0f64..10_000.0),
            0..40,
        )
    ) {
        use can_trace::{parse_log, write_log, LogEntry};
        let log: Vec<LogEntry> = entries
            .into_iter()
            .map(|(raw, payload, ts)| LogEntry {
                timestamp_s: (ts * 1e6).round() / 1e6, // candump precision
                interface: "vcan0".to_string(),
                frame: CanFrame::data_frame(CanId::from_raw(raw), &payload).unwrap(),
            })
            .collect();
        let text = write_log(&log);
        let parsed = parse_log(&text).unwrap();
        prop_assert_eq!(parsed, log);
    }

    /// Damaged candump logs — truncated at any byte, flipped bytes,
    /// inserted characters (multi-byte ones included) — parse, or fail
    /// with a `ParseError` naming one of their lines; never panic.
    #[test]
    fn candump_damage_is_a_typed_error(
        entries in proptest::collection::vec(
            (0u16..=CanId::MAX_RAW, arb_payload(), any::<bool>()),
            1..12,
        ),
        cuts in proptest::collection::vec(any::<u64>(), 1..6),
        flips in proptest::collection::vec((any::<u64>(), 1u8..=255), 1..6),
        inserts in proptest::collection::vec((any::<u64>(), 0usize..INSERTS.len()), 1..6),
    ) {
        use can_trace::{parse_log, write_log, LogEntry};
        let log: Vec<LogEntry> = entries
            .into_iter()
            .enumerate()
            .map(|(i, (raw, payload, remote))| {
                let id = CanId::from_raw(raw);
                let frame = if remote {
                    CanFrame::remote_frame(id, payload.len() as u8).unwrap()
                } else {
                    CanFrame::data_frame(id, &payload).unwrap()
                };
                LogEntry { timestamp_s: i as f64 * 0.01, interface: "vcan0".to_string(), frame }
            })
            .collect();
        let text = write_log(&log);
        let bytes = text.as_bytes();
        let mut damaged = Vec::new();
        for cut in cuts {
            let cut = (cut % (bytes.len() as u64 + 1)) as usize;
            damaged.push(String::from_utf8_lossy(&bytes[..cut]).into_owned());
        }
        for (at, mask) in flips {
            let mut flipped = bytes.to_vec();
            flipped[(at % bytes.len() as u64) as usize] ^= mask;
            damaged.push(String::from_utf8_lossy(&flipped).into_owned());
        }
        for (at, which) in inserts {
            // The written log is ASCII, so every byte index is a char
            // boundary.
            let mut inserted = text.clone();
            inserted.insert_str((at % (text.len() as u64 + 1)) as usize, INSERTS[which]);
            damaged.push(inserted);
        }
        for source in &damaged {
            if let Err(e) = parse_log(source) {
                prop_assert!(
                    (1..=source.lines().count()).contains(&e.line),
                    "{e} in {source:?}"
                );
            }
        }
    }

    /// Mini-DBC emit/parse round-trips arbitrary matrices.
    #[test]
    fn dbc_round_trip(
        defs in proptest::collection::btree_map(
            0u16..=CanId::MAX_RAW,
            (1u32..5_000, 0u8..=8),
            1..32,
        )
    ) {
        use restbus::dbc::{emit_dbc, parse_dbc};
        use restbus::{CommMatrix, Message};
        let messages: Vec<Message> = defs
            .into_iter()
            .enumerate()
            .map(|(i, (raw, (period, dlc)))| Message {
                id: CanId::from_raw(raw),
                period_ms: period,
                dlc,
                sender: format!("ecu{i}"),
                name: format!("MSG_{raw:03X}"),
            })
            .collect();
        let matrix = CommMatrix::new("prop", BusSpeed::K500, messages);
        let parsed = parse_dbc("prop", BusSpeed::K500, &emit_dbc(&matrix)).unwrap();
        prop_assert_eq!(parsed.messages(), matrix.messages());
    }
}
