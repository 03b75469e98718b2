//! The packed engine against the lockstep reference on buses that
//! exercise the seams a quiet bus never reaches: a crashed node frozen
//! mid-frame, and channel-fault stacks mixing scripted and pre-drawn
//! random flips.

use can_core::agent::BitAgent;
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BitInstant, BusSpeed, CanFrame, CanId, Level};
use can_obs::{Journal, Recorder};
use can_sim::{BurstParams, FaultModel, FaultStack, Node, SimBuilder, Simulator, TxFault};

fn frame(id: u16, data: &[u8]) -> CanFrame {
    CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
}

/// Runs `bits` bits with each engine and asserts the packed run leaves
/// everything the lockstep run leaves: clock, events, bus load, trace,
/// metrics snapshot and journal export.
fn assert_engines_agree(build: impl Fn() -> Simulator, bits: u64) -> [Simulator; 2] {
    let mut lockstep = build();
    let mut packed = build();
    lockstep.run(bits);
    packed.run_packed(bits);
    assert_eq!(lockstep.now(), packed.now(), "clock");
    assert_eq!(lockstep.events(), packed.events(), "events");
    assert_eq!(lockstep.busy_bits(), packed.busy_bits(), "busy bits");
    assert_eq!(
        lockstep.observed_bus_load(),
        packed.observed_bus_load(),
        "bus load"
    );
    assert_eq!(
        lockstep.trace().map(|t| t.snapshot()),
        packed.trace().map(|t| t.snapshot()),
        "trace"
    );
    assert_eq!(
        lockstep.recorder().snapshot_json(),
        packed.recorder().snapshot_json(),
        "metrics snapshot"
    );
    assert_eq!(
        lockstep.journal().export_jsonl(),
        packed.journal().export_jsonl(),
        "journal"
    );
    [lockstep, packed]
}

/// An observer that wants every bit (so the bus never skips idle gaps)
/// but never drives (so packed stretches stay open).
struct Watcher;

impl BitAgent for Watcher {
    fn on_bit(&mut self, _level: Level, _now: BitInstant) {}

    fn tx_level(&self) -> Option<Level> {
        None
    }

    fn drive_horizon(&self, _now: BitInstant) -> Option<BitInstant> {
        None
    }
}

/// A sender and a receiver; the receiver crashes at `down_at` and
/// restarts 1 500 bits later. Crash instants inside a frame freeze the
/// receiver's controller in a busy state for the whole window. With
/// `watched`, a third node's [`Watcher`] turns the idle gaps into packed
/// stretches.
fn crashing_receiver(down_at: u64, watched: bool) -> Simulator {
    let builder = SimBuilder::new(BusSpeed::K500)
        .recorder(Recorder::enabled())
        .journal(Journal::enabled())
        .trace()
        .node(Node::new(
            "sender",
            Box::new(PeriodicSender::new(frame(0x0C4, &[0x5A; 8]), 400, 20)),
        ))
        .node(
            Node::new("receiver", Box::new(SilentApplication))
                .with_tx_fault(TxFault::crash_restart(down_at, down_at + 1_500)),
        );
    if watched {
        builder
            .node(Node::new("watcher", Box::new(SilentApplication)).with_agent(Box::new(Watcher)))
            .build()
    } else {
        builder.build()
    }
}

#[test]
fn crash_frozen_mid_frame_counts_as_busy_in_every_engine() {
    // Instants before, at and inside frames, during the ACK slot and in
    // the interframe gap; at least one must freeze a busy controller.
    let mut froze_busy = false;
    for down_at in [10, 21, 40, 130, 131, 150, 250, 421, 600, 999] {
        for watched in [false, true] {
            let [lockstep, ..] =
                assert_engines_agree(|| crashing_receiver(down_at, watched), 6_000);
            assert!(
                lockstep.busy_bits() > 0,
                "crash at {down_at}: traffic flows"
            );
        }
        let mut probe = crashing_receiver(down_at, false);
        probe.run(down_at + 1);
        froze_busy |= probe.node(1).controller().is_busy();
    }
    assert!(froze_busy, "some crash instant must freeze a busy receiver");
}

/// Three senders and a monitor under a mixed channel-fault stack: a
/// scripted burst of flips, a background random BER and a bursty
/// channel, applied in that order.
fn faulty_bus(seed: u64) -> Simulator {
    let stack = FaultStack::new()
        .layer(FaultModel::scripted(vec![1_000, 1_003, 5_555, 20_000]))
        .layer(FaultModel::random(2e-4, seed))
        .layer(FaultModel::bursty(
            BurstParams {
                p_good_to_bad: 1e-4,
                p_bad_to_good: 0.1,
                ber_good: 0.0,
                ber_bad: 0.2,
            },
            seed ^ 0x5EED,
        ));
    SimBuilder::new(BusSpeed::K500)
        .recorder(Recorder::enabled())
        .journal(Journal::enabled())
        .trace()
        .faults(stack)
        .node(Node::new(
            "a",
            Box::new(PeriodicSender::new(frame(0x0A0, &[1; 8]), 700, 0)),
        ))
        .node(Node::new(
            "b",
            Box::new(PeriodicSender::new(frame(0x1B0, &[2; 3]), 1_100, 57)),
        ))
        .node(Node::new(
            "c",
            Box::new(PeriodicSender::new(frame(0x2C0, &[]), 2_900, 400)),
        ))
        .node(Node::new("monitor", Box::new(SilentApplication)))
        .build()
}

#[test]
fn mixed_fault_stack_is_identical_under_acceleration() {
    for seed in [1, 2, 3] {
        let [lockstep, packed] = assert_engines_agree(|| faulty_bus(seed), 60_000);
        let errors = lockstep
            .events()
            .iter()
            .filter(|e| matches!(e.kind, can_sim::EventKind::ErrorDetected { .. }))
            .count();
        assert!(errors > 0, "seed {seed}: the channel destroys frames");
        // The pre-drawn schedules let the kernel both skip and pack.
        let t = packed.kernel_telemetry();
        assert!(t.skipped_bits() > 0, "seed {seed}");
        assert!(t.packed_bits() > 10_000, "seed {seed}: {}", t.packed_bits());
    }
}
