//! Replay ns/op: the frames and bus levels one cell produced, fed again
//! through the public codec, parser, controller and FSM entry points, so
//! each stage's cost per operation is measured in isolation.

use std::hint::black_box;
use std::time::Instant;

use can_core::bitstream::{decode_frame, stuff_frame, unstuffed_bits, FrameLayout};
use can_core::crc::checksum;
use can_core::{BitInstant, CanFrame, Level};
use can_sim::{Controller, ControllerConfig, RxEvent, RxParser, StepOutput};
use michican::fsm::{DetectionFsm, FsmStep};

use crate::stats;

/// CRC field length of a CAN 2.0A frame.
const CRC_BITS: usize = 15;

/// Per-operation costs measured by the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub rx_parser_ns_per_bit: f64,
    pub controller_ns_per_bit: f64,
    pub fsm_step_ns: f64,
    pub stuff_frame_ns: f64,
    pub decode_frame_ns: f64,
    pub crc15_ns: f64,
    pub frames_completed: u64,
}

/// Median nanoseconds per operation of `round`, which performs `ops`
/// operations; rounds repeat until at least 20 ms and 5 rounds passed.
fn ns_per_op(ops: u64, mut round: impl FnMut()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let mut per_op = Vec::new();
    let start = Instant::now();
    while per_op.len() < 5 || start.elapsed().as_millis() < 20 {
        let t = Instant::now();
        round();
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    stats::median(&per_op)
}

/// Replays `frames` (completed on the bus) and `bus` (every sampled bus
/// level of the run) through each stage; `fsm` is the cell defender's
/// detection FSM.
pub fn measure(frames: &[CanFrame], bus: &[Level], fsm: &DetectionFsm) -> Replay {
    let wires: Vec<Vec<Level>> = frames.iter().map(|f| stuff_frame(f).bits).collect();

    let parsed_bits: u64 = {
        let mut bits = 0u64;
        for wire in &wires {
            let mut parser = RxParser::new();
            for &bit in wire {
                bits += 1;
                if matches!(parser.push(bit), RxEvent::Done(_) | RxEvent::Fault(_)) {
                    break;
                }
            }
        }
        bits
    };
    let rx_parser_ns_per_bit = ns_per_op(parsed_bits, || {
        for wire in &wires {
            let mut parser = RxParser::new();
            for &bit in wire {
                if matches!(
                    black_box(parser.push(bit)),
                    RxEvent::Done(_) | RxEvent::Fault(_)
                ) {
                    break;
                }
            }
        }
    });

    let controller_ns_per_bit = ns_per_op(bus.len() as u64, || {
        let mut controller = Controller::new(ControllerConfig::default());
        let mut out = StepOutput::default();
        for (i, &level) in bus.iter().enumerate() {
            out.clear();
            controller.on_sample_into(level, BitInstant::from_bits(i as u64), &mut out);
        }
        black_box(&out);
    });

    let fsm_steps: u64 = {
        let mut steps = 0u64;
        for frame in frames {
            let mut cursor = fsm.start();
            for bit in frame.id().bits() {
                steps += 1;
                if fsm.step(&mut cursor, bit) != FsmStep::Undecided {
                    break;
                }
            }
        }
        steps
    };
    let fsm_step_ns = ns_per_op(fsm_steps, || {
        for frame in frames {
            let mut cursor = fsm.start();
            for bit in frame.id().bits() {
                if black_box(fsm.step(&mut cursor, bit)) != FsmStep::Undecided {
                    break;
                }
            }
        }
    });

    let n = frames.len() as u64;
    let stuff_frame_ns = ns_per_op(n, || {
        for frame in frames {
            black_box(stuff_frame(black_box(frame)));
        }
    });
    let decode_frame_ns = ns_per_op(n, || {
        for wire in &wires {
            black_box(decode_frame(black_box(wire)).ok());
        }
    });
    let crc_inputs: Vec<Vec<Level>> = frames
        .iter()
        .map(|f| {
            let mut raw = unstuffed_bits(f);
            raw.truncate(FrameLayout::of(f).stuffed_region_bits() - CRC_BITS);
            raw
        })
        .collect();
    let crc15_ns = ns_per_op(n, || {
        for bits in &crc_inputs {
            black_box(checksum(black_box(bits)));
        }
    });

    Replay {
        rx_parser_ns_per_bit,
        controller_ns_per_bit,
        fsm_step_ns,
        stuff_frame_ns,
        decode_frame_ns,
        crc15_ns,
        frames_completed: n,
    }
}
