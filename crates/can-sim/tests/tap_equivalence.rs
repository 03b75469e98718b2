//! Passive frame taps observe the identical `(frame, instant)` sequence
//! in both sim modes, and exactly one delivery happens per completed
//! bus frame.

use std::cell::RefCell;
use std::rc::Rc;

use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BitInstant, BusSpeed, CanFrame, CanId};
use can_sim::{EventKind, FrameTap, Node, SimBuilder, Simulator};

type TapLog = Rc<RefCell<Vec<(u64, u16, Vec<u8>)>>>;

struct RecordingTap {
    log: TapLog,
}

impl FrameTap for RecordingTap {
    fn on_frame(&mut self, frame: &CanFrame, now: BitInstant) {
        self.log
            .borrow_mut()
            .push((now.bits(), frame.id().raw(), frame.data().to_vec()));
    }
}

fn frame(id: u16, data: &[u8]) -> CanFrame {
    CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
}

fn build_with_taps(tap_count: usize) -> (Simulator, Vec<TapLog>) {
    let mut builder = SimBuilder::new(BusSpeed::K125)
        .node(Node::new(
            "a",
            Box::new(PeriodicSender::new(frame(0x0C0, &[1; 8]), 777, 13)),
        ))
        .node(Node::new(
            "b",
            Box::new(PeriodicSender::new(frame(0x2C0, &[2; 4]), 1_111, 29)),
        ))
        .node(Node::new("rx", Box::new(SilentApplication)));
    let mut logs = Vec::new();
    for _ in 0..tap_count {
        let log: TapLog = Rc::new(RefCell::new(Vec::new()));
        logs.push(log.clone());
        builder = builder.tap(Box::new(RecordingTap { log }));
    }
    (builder.build(), logs)
}

const RUN_BITS: u64 = 30_000;

#[test]
fn tap_sees_one_delivery_per_completed_frame() {
    let (mut sim, logs) = build_with_taps(1);
    sim.run(RUN_BITS);
    let log = logs[0].borrow();
    assert!(!log.is_empty(), "no frames observed");
    let completions: Vec<(u64, u16)> = sim
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TransmissionSucceeded { frame } => Some((e.at.bits(), frame.id().raw())),
            _ => None,
        })
        .collect();
    let tapped: Vec<(u64, u16)> = log.iter().map(|(at, id, _)| (*at, *id)).collect();
    assert_eq!(tapped, completions);
}

#[test]
fn tap_log_is_identical_across_lockstep_and_packed() {
    let (mut lockstep, lockstep_logs) = build_with_taps(1);
    lockstep.run(RUN_BITS);
    let reference = lockstep_logs[0].borrow().clone();
    assert!(!reference.is_empty());

    let (mut packed, packed_logs) = build_with_taps(1);
    packed.run_packed(RUN_BITS);
    assert_eq!(*packed_logs[0].borrow(), reference, "packed diverged");
}

#[test]
fn many_taps_on_one_bus_see_the_same_sequence() {
    let (mut sim, logs) = build_with_taps(4);
    assert_eq!(sim.tap_count(), 4);
    sim.run(RUN_BITS);
    let reference = logs[0].borrow().clone();
    assert!(!reference.is_empty());
    for log in &logs[1..] {
        assert_eq!(*log.borrow(), reference);
    }
}

struct HorizonTap {
    wake: u64,
}

impl FrameTap for HorizonTap {
    fn on_frame(&mut self, _frame: &CanFrame, _now: BitInstant) {}

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        (now.bits() < self.wake).then(|| BitInstant::from_bits(self.wake))
    }
}

#[test]
fn tap_horizon_bounds_idle_skips_without_changing_events() {
    let build = |with_horizon: bool| {
        let mut builder = SimBuilder::new(BusSpeed::K125)
            .node(Node::new(
                "a",
                Box::new(PeriodicSender::new(frame(0x0C0, &[1; 2]), 5_000, 13)),
            ))
            .node(Node::new("rx", Box::new(SilentApplication)));
        if with_horizon {
            builder = builder.tap(Box::new(HorizonTap { wake: 2_500 }));
        }
        builder.build()
    };
    let mut plain = build(false);
    plain.run_packed(RUN_BITS);
    let mut bounded = build(true);
    bounded.run_packed(RUN_BITS);
    assert_eq!(plain.events(), bounded.events());
    assert!(bounded.kernel_telemetry().skipped_bits() > 0);
}
