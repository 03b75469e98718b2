//! Property coverage for the bit-level adversary zoo: for *arbitrary*
//! victim payloads, strike parameters and phase offsets,
//!
//! * the victim's error counters follow CAN error confinement — a
//!   transmitter whose every attempt is destroyed on the wire reaches
//!   bus-off in exactly 32 attempts (TEC +8 per bit/form error), never
//!   more, never fewer; and
//! * lockstep and the packed bus kernel stay byte-identical even though
//!   the attacker intervenes mid-frame — i.e. in the middle of what the
//!   packed kernel would otherwise resolve as one 64-bit word.

use bench::differential::check_equivalence;
use can_attacks::{FrameTruncator, StuffBitOverwrite, TruncateAt};
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BusSpeed, CanFrame, CanId};
use can_obs::Recorder;
use can_sim::{bus_off_episodes, Node, SimBuilder, Simulator};
use proptest::prelude::*;

const VICTIM_ID: u16 = 0x173;
const PERIOD_BITS: u64 = 600;

/// A three-node zoo bus: periodic victim, one bit-level attacker, silent
/// receiver. Returns the simulator and the victim's node id.
fn build_bus(
    payload: &[u8],
    offset: u64,
    agent: Box<dyn can_core::agent::BitAgent>,
    recorder: Recorder,
) -> (Simulator, usize) {
    let victim = CanId::from_raw(VICTIM_ID);
    let frame = CanFrame::data_frame(victim, payload).unwrap();
    let builder = SimBuilder::new(BusSpeed::K500).recorder(recorder);
    let victim_node = builder.node_id();
    let sim = builder
        .node(Node::new(
            "victim",
            Box::new(PeriodicSender::new(frame, PERIOD_BITS, offset)),
        ))
        .node(Node::new("attacker", Box::new(SilentApplication)).with_agent(agent))
        .node(Node::new("rx", Box::new(SilentApplication)))
        .build();
    (sim, victim_node)
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..=8)
}

fn arb_truncate_at() -> impl Strategy<Value = TruncateAt> {
    (0u8..3).prop_map(|i| match i {
        0 => TruncateAt::CrcDelim,
        1 => TruncateAt::AckDelim,
        _ => TruncateAt::Eof,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Stuff-bit overwrite and error confinement: whether or not the
    /// random payload offers an overwritable stuff bit, every bus-off
    /// episode the victim suffers must span exactly 32 destroyed attempts,
    /// and the victim's TEC must stay within the error-confinement range.
    #[test]
    fn stuff_overwrite_victims_follow_error_confinement(
        payload in arb_payload(),
        skip in 0u32..3,
        offset in 0u64..400,
    ) {
        let attacker = StuffBitOverwrite::new(CanId::from_raw(VICTIM_ID), skip);
        let (mut sim, victim_node) =
            build_bus(&payload, offset, Box::new(attacker), Recorder::disabled());
        sim.run(60_000);
        for episode in bus_off_episodes(sim.events(), victim_node) {
            prop_assert_eq!(
                episode.attempts, 32,
                "TEC +8 per destroyed attempt reaches 256 in exactly 32 attempts"
            );
        }
        prop_assert!(sim.node(victim_node).controller().counters().tec() <= 256);
    }

    /// Frame truncation and error confinement, at every fixed-form
    /// boundary the truncator knows about.
    #[test]
    fn truncated_victims_follow_error_confinement(
        payload in arb_payload(),
        at in arb_truncate_at(),
        offset in 0u64..400,
    ) {
        let attacker = FrameTruncator::new(CanId::from_raw(VICTIM_ID), at);
        let (mut sim, victim_node) =
            build_bus(&payload, offset, Box::new(attacker), Recorder::disabled());
        sim.run(60_000);
        let episodes = bus_off_episodes(sim.events(), victim_node);
        prop_assert!(
            !episodes.is_empty(),
            "a fixed-form strike needs no stuff bits: every attempt dies"
        );
        for episode in episodes {
            prop_assert_eq!(episode.attempts, 32);
        }
        prop_assert!(sim.node(victim_node).controller().counters().tec() <= 256);
    }

    /// Mid-word intervention differential: a stuff-bit overwrite lands
    /// deep inside a frame body — unaligned territory the packed kernel
    /// would otherwise resolve as whole 64-bit words — and both
    /// execution modes must still agree on every observable surface.
    #[test]
    fn lockstep_equals_packed_under_stuff_overwrite(
        payload in arb_payload(),
        skip in 0u32..3,
        offset in 0u64..400,
    ) {
        check_equivalence(
            |recorder| {
                let attacker = StuffBitOverwrite::new(CanId::from_raw(VICTIM_ID), skip);
                build_bus(&payload, offset, Box::new(attacker), recorder).0
            },
            20_000,
        )
        .unwrap();
    }

    /// Same differential for the truncator, whose strike position (late in
    /// the frame, at a fixed-form boundary) exercises stretch capping at
    /// the opposite end of the frame from the stuff-bit overwrite.
    #[test]
    fn lockstep_equals_packed_under_truncation(
        payload in arb_payload(),
        at in arb_truncate_at(),
        offset in 0u64..400,
    ) {
        check_equivalence(
            |recorder| {
                let attacker = FrameTruncator::new(CanId::from_raw(VICTIM_ID), at);
                build_bus(&payload, offset, Box::new(attacker), recorder).0
            },
            20_000,
        )
        .unwrap();
    }
}
