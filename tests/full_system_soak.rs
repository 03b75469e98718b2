//! Everything-together soak: restbus traffic, a remote-frame
//! request/response pair, a frame-level IDS, a MichiCAN defender, channel
//! noise AND a persistent DoS attacker on one bus — global invariants
//! must hold simultaneously.

use can_attacks::{DosKind, SuspensionAttacker};
use can_core::app::{PeriodicSender, RemoteResponder, SilentApplication};
use can_core::{BusSpeed, CanFrame, CanId, ErrorState};
use can_ids::{variants_for, DetectorTap};
use can_sim::{bus_off_episodes, EventKind, FaultModel, Node, SimBuilder};
use michican::prelude::*;
use restbus::{pacifica_matrix, ReplayApp};

#[test]
fn the_whole_stack_coexists() {
    let speed = BusSpeed::K500;
    let matrix = pacifica_matrix(speed);
    let mut builder = SimBuilder::new(speed);

    // Restbus: the Pacifica chassis traffic split per sender.
    let mut node_names = Vec::new();
    for sender in matrix.by_sender().keys() {
        node_names.push((builder.node_id(), sender.to_string()));
        builder = builder.node(Node::new(
            sender.to_string(),
            Box::new(ReplayApp::for_sender(&matrix, sender)),
        ));
    }

    // A request/response pair on a dedicated identifier. It outranks the
    // attacker (0x0C8 < 0x0CF), so requests can interrupt error-active
    // retransmission gaps — Table III's c_{h,a} path, exercised live.
    // (A lowest-priority service id would legitimately starve while the
    // bus is at war ~50 % of the time.)
    let service_id = CanId::from_raw(0x0C8);
    let responder = builder.node_id();
    builder = builder.node(Node::new(
        "diag-service",
        Box::new(RemoteResponder::new(service_id, &[0xCA, 0xFE, 0xBA, 0xBE])),
    ));
    let request = CanFrame::remote_frame(service_id, 4).unwrap();
    builder = builder.node(Node::new(
        "diag-tester",
        Box::new(PeriodicSender::new(
            request,
            speed.bits_in_millis(40.0),
            500,
        )),
    ));

    // A frame-level IDS: a silent node plus the registry's typical
    // 500 kbit/s detector pair as passive taps (observe, never transmit).
    builder = builder.node(Node::new("ids", Box::new(SilentApplication)));
    let [frequency, interval] = ["frequency", "interval"].map(|family| {
        let variant = variants_for(family).expect("registry family")[0];
        DetectorTap::new(variant.detector, variant.instantiate())
    });
    builder = builder
        .tap(frequency.as_frame_tap())
        .tap(interval.as_frame_tap());

    // The MichiCAN dongle, aware of the whole matrix + the service id.
    // It owns no identifier of its own, so it watches the DoS range only:
    // claiming a list member's id would counterattack the owner's
    // legitimate frames and bus it off.
    let mut all_ids = matrix.ids();
    all_ids.push(service_id);
    let list = EcuList::new(all_ids).unwrap();
    let defender = builder.node_id();
    builder = builder.node(
        Node::new("michican", Box::new(SilentApplication))
            .with_agent(Box::new(MichiCan::new(DetectionFsm::for_monitor(&list)))),
    );

    // The attacker: saturating targeted DoS one step above the brake
    // pressure message.
    let attacker = builder.node_id();
    builder = builder.node(Node::new(
        "attacker",
        Box::new(
            SuspensionAttacker::saturating(DosKind::Targeted {
                id: CanId::from_raw(0x0CF),
            })
            .with_payload(&[0xBA; 8]),
        ),
    ));

    // A soak run must not grow memory with run length: trace the bus
    // through a fixed-size ring instead of an unbounded vector. Mild
    // channel noise on top.
    const TRACE_CAPACITY: usize = 10_000;
    let mut sim = builder
        .fault(FaultModel::random(2e-5, 0x50AC))
        .trace_ring(TRACE_CAPACITY)
        .build();

    sim.run_millis(300.0);

    // 0. The ring trace stayed bounded while still recording every bit.
    let trace = sim.trace().unwrap();
    assert_eq!(
        trace.len(),
        TRACE_CAPACITY,
        "ring retains exactly its capacity"
    );
    assert_eq!(
        trace.recorded(),
        sim.now().bits(),
        "every simulated bit was recorded"
    );
    assert!(
        trace.recorded() > TRACE_CAPACITY as u64 * 10,
        "the soak really wrapped the ring many times"
    );
    let snapshot = trace.snapshot();
    assert_eq!(snapshot.len(), TRACE_CAPACITY);
    // The attacker is still at war at the end of the run, so the recent
    // window must contain bus activity (dominant bits).
    assert!(
        snapshot.iter().any(|l| l.is_dominant()),
        "the retained window shows live bus traffic"
    );

    // 1. The attacker is repeatedly eradicated and never completes a frame.
    let episodes = bus_off_episodes(sim.events(), attacker);
    assert!(episodes.len() >= 10, "eradications: {}", episodes.len());
    let attack_delivered = sim
        .events()
        .iter()
        .filter(|e| {
            matches!(&e.kind, EventKind::FrameReceived { frame }
                if frame.id().raw() == 0x0CF)
        })
        .count();
    assert_eq!(attack_delivered, 0);

    // 2. No benign node is ever bused off (noise + defense are harmless).
    for (node, name) in &node_names {
        assert_ne!(
            sim.node(*node).controller().error_state(),
            ErrorState::BusOff,
            "benign node {name} must survive"
        );
    }
    assert_ne!(
        sim.node(responder).controller().error_state(),
        ErrorState::BusOff
    );
    assert_eq!(sim.node(defender).controller().counters().tec(), 0);

    // 3. The request/response service keeps working through everything.
    let responses = sim
        .events()
        .iter()
        .filter(|e| {
            e.node == responder
                && matches!(&e.kind, EventKind::TransmissionSucceeded { frame }
                    if frame.id() == service_id && !frame.is_remote())
        })
        .count();
    assert!(responses >= 4, "diagnostic responses flowed: {responses}");

    // 4. Benign traffic flows at a healthy rate despite the ongoing war.
    let benign_delivered = sim
        .events()
        .iter()
        .filter(|e| e.node == defender && matches!(e.kind, EventKind::FrameReceived { .. }))
        .count();
    assert!(
        benign_delivered > 150,
        "benign frames at the defender: {benign_delivered}"
    );

    // 5. The taps saw every completed frame and never the attacker's:
    //    MichiCAN destroys each attempt inside its identifier, before a
    //    frame-level detector could observe it.
    for tap in [&frequency, &interval] {
        assert_eq!(
            tap.frames_observed() as usize,
            benign_delivered,
            "{} observed every frame the defender received",
            tap.label()
        );
        assert!(
            tap.alerts().iter().all(|a| a.id.raw() != 0x0CF),
            "{} alerted on a frame that never completed",
            tap.label()
        );
    }
}
