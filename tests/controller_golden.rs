//! Golden digest of the lockstep controller: every bit of two seeded
//! scripts, hashed.
//!
//! * For each `ack_enabled` × `retransmit` setting, one controller under
//!   test shares a bus with an acknowledging peer and random noise
//!   (single dominant bits and dominant bursts, at a rate that changes
//!   every few thousand bits). Both post frames from a small identifier
//!   set, so mailbox overwrites, retransmissions of the same frame and
//!   newer payloads under a retried identifier all occur; the controller
//!   under test is reset once mid-run.
//! * A three-node bus on which node 0 floods the lowest identifier while
//!   the other two post periodic frames, under rare noise.
//!
//! Each bit folds the controller's drive level, the bus level, the whole
//! [`StepOutput`], both error counters and the fault-confinement state
//! into an FNV-1a digest. The expected digests were recorded from the
//! controller as it stood before its step was rewritten to run in place
//! and before retransmissions reused their encoded wire.

use can_core::{BitInstant, CanFrame, CanId, Level};
use can_sim::{Controller, ControllerConfig, EventKind, StepOutput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bits each lone-controller script runs.
const LONE_BITS: u64 = 120_000;
/// Bits the three-node script runs.
const BUS_BITS: u64 = 100_000;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// How often each event kind fired, to show the scripts reach them.
#[derive(Debug, Default)]
struct Reached {
    succeeded: u32,
    received: u32,
    arbitration_lost: u32,
    errors: u32,
    bus_off: u32,
    recovered: u32,
}

impl Reached {
    fn count(&mut self, out: &StepOutput) {
        for event in &out.events {
            match event {
                EventKind::TransmissionSucceeded { .. } => self.succeeded += 1,
                EventKind::FrameReceived { .. } => self.received += 1,
                EventKind::ArbitrationLost { .. } => self.arbitration_lost += 1,
                EventKind::ErrorDetected { .. } => self.errors += 1,
                EventKind::BusOff => self.bus_off += 1,
                EventKind::Recovered => self.recovered += 1,
                _ => {}
            }
        }
    }
}

/// Samples one bit on every controller and folds each one's view into
/// `digest`.
fn tick(
    nodes: &mut [Controller],
    noise: Level,
    t: u64,
    out: &mut StepOutput,
    digest: &mut Fnv,
    reached: &mut Reached,
) {
    let drives: Vec<Level> = nodes.iter().map(Controller::tx_level).collect();
    let bus = Level::wired_and(drives.iter().copied().chain([noise]));
    for (node, drive) in nodes.iter_mut().zip(drives) {
        out.clear();
        node.on_sample_into(bus, BitInstant::from_bits(t), out);
        reached.count(out);
        let counters = node.counters();
        digest.write(&[u8::from(drive.is_dominant()), u8::from(bus.is_dominant())]);
        digest.write(format!("{out:?}").as_bytes());
        digest.write(&counters.tec().to_le_bytes());
        digest.write(&counters.rec().to_le_bytes());
        digest.write(format!("{:?}", node.error_state()).as_bytes());
    }
}

/// A frame with an identifier from `ids` and a payload from a small set,
/// so an identifier is often re-posted with the same or another payload.
fn post(rng: &mut StdRng, ids: &[u16]) -> CanFrame {
    let id = ids[rng.random_range(0..ids.len())];
    let len = rng.random_range(0..=8usize);
    let fill = rng.random_range(0..3u8);
    let data: Vec<u8> = (0..len)
        .map(|i| fill.wrapping_mul(0x55) ^ i as u8)
        .collect();
    CanFrame::data_frame(CanId::from_raw(id), &data).unwrap()
}

/// Random bus noise: single dominant bits at a per-phase rate, plus
/// dominant bursts of up to 24 bits.
struct Noise {
    rate: f64,
    burst: u32,
}

impl Noise {
    fn level(&mut self, rng: &mut StdRng, t: u64) -> Level {
        if t.is_multiple_of(4_000) {
            self.rate = [0.0, 0.0, 0.0005, 0.003, 0.02, 0.15][rng.random_range(0..6usize)];
        }
        if self.burst == 0 && self.rate > 0.0 && rng.random_bool(self.rate / 10.0) {
            self.burst = rng.random_range(1..=24);
        }
        if self.burst > 0 {
            self.burst -= 1;
            Level::Dominant
        } else if rng.random_bool(self.rate) {
            Level::Dominant
        } else {
            Level::Recessive
        }
    }
}

fn lone_digest(config: ControllerConfig, seed: u64) -> (u64, Reached) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes = [
        Controller::new(config),
        Controller::new(ControllerConfig::default()),
    ];
    let mut noise = Noise {
        rate: 0.0,
        burst: 0,
    };
    let (mut out, mut digest, mut reached) =
        (StepOutput::default(), Fnv::new(), Reached::default());
    for t in 0..LONE_BITS {
        if t == LONE_BITS / 2 {
            nodes[0].reset();
        }
        if rng.random_bool(0.004) {
            nodes[0].enqueue(post(&mut rng, &[0x120, 0x121, 0x3F0]));
        }
        if rng.random_bool(0.002) {
            nodes[1].enqueue(post(&mut rng, &[0x0A0, 0x2B0]));
        }
        let level = noise.level(&mut rng, t);
        tick(&mut nodes, level, t, &mut out, &mut digest, &mut reached);
    }
    (digest.0, reached)
}

fn flood_digest(seed: u64) -> (u64, Reached) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<Controller> = (0..3)
        .map(|_| Controller::new(ControllerConfig::default()))
        .collect();
    let (mut out, mut digest, mut reached) =
        (StepOutput::default(), Fnv::new(), Reached::default());
    let mut flood_counter = 0u8;
    for t in 0..BUS_BITS {
        if nodes[0].pending_count() == 0 {
            // A fresh payload every fourth frame; retries repeat it.
            flood_counter = flood_counter.wrapping_add(1);
            let data = [flood_counter / 4; 2];
            nodes[0].enqueue(CanFrame::data_frame(CanId::from_raw(0x001), &data).unwrap());
        }
        if t.is_multiple_of(700) {
            nodes[1].enqueue(post(&mut rng, &[0x100, 0x101]));
        }
        if t.is_multiple_of(1_100) {
            nodes[2].enqueue(post(&mut rng, &[0x100, 0x200]));
        }
        let noise = if rng.random_bool(0.001) {
            Level::Dominant
        } else {
            Level::Recessive
        };
        tick(&mut nodes, noise, t, &mut out, &mut digest, &mut reached);
    }
    (digest.0, reached)
}

#[test]
fn lone_controllers_match_their_golden_digests() {
    let mut digests = Vec::new();
    for (seed, (ack_enabled, retransmit)) in
        [(true, true), (true, false), (false, true), (false, false)]
            .into_iter()
            .enumerate()
    {
        let config = ControllerConfig {
            ack_enabled,
            retransmit,
        };
        let (digest, reached) = lone_digest(config, 0xC0DE + seed as u64);
        assert!(
            reached.succeeded > 0
                && reached.received > 0
                && reached.arbitration_lost > 0
                && reached.errors > 0
                && reached.bus_off > 0
                && reached.recovered > 0,
            "{config:?}: {reached:?}"
        );
        digests.push(digest);
    }
    assert_eq!(
        digests,
        [
            2_912_991_095_318_402_292,
            5_382_154_931_750_759_715,
            16_667_781_408_657_976_149,
            14_366_023_014_710_107_302,
        ]
    );
}

#[test]
fn a_flooded_three_node_bus_matches_its_golden_digest() {
    let (digest, reached) = flood_digest(0xF100D);
    assert!(
        reached.succeeded > 0
            && reached.received > 0
            && reached.arbitration_lost > 0
            && reached.errors > 0,
        "{reached:?}"
    );
    assert_eq!(digest, 2_769_244_644_554_277_561, "{reached:?}");
}
