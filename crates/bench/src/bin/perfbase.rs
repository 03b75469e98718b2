//! Performance baseline: measures simulator throughput for the CI speed
//! gates and writes the results as JSON.
//!
//! ```text
//! perfbase [--quick] [--out <path>]
//! ```
//!
//! * `--quick` shrinks every workload (CI smoke configuration);
//! * `--out` sets the JSON path (default `BENCH_sim.json`).
//!
//! The JSON records raw simulator bits/sec on a Veh. D restbus bus, the
//! same bus with a recorder or journal attached, disabled and enabled (CI
//! requires the disabled recorder to keep ≥ 0.8× the plain rate), lockstep
//! vs packed-kernel throughput at 10/30/60/90 % busload (the 10 % row
//! must clear a 3× speedup, the 30 % row 5×), and the kernel
//! self-telemetry of one 30 %-load bus under both engines, and the frame
//! codec's unit costs: the receive parser fed one bit per call and one
//! 64-bit word per call (CI requires the word path to be ≥ 3× cheaper per
//! bit), and `stuff_frame`. It also records the supervised MichiCAN
//! defender's cost per observed bit in one campaign cell, with packed
//! stretches observed in closed form and replayed bit by bit (CI requires
//! the closed form to be ≥ 2× cheaper). Every rate is the median of
//! [`REPEATS`] runs.
//! Rates depend on the host; end-to-end timings of the experiment grids
//! are perfbench's (`BENCHMARK.json`).

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use bench::campaign::{build_cell_wrapped, CampaignConfig, FaultSpec, Traffic};
use bench::runner::derive_seed;
use bench::scenarios::restbus_matrix;
use can_core::agent::BitAgent;
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::bitstream::{encode_frame, stuff_frame, PackedWire};
use can_core::{packed, BitDuration, BitInstant, BusSpeed, CanFrame, CanId, Level};
use can_obs::{Journal, Recorder};
use can_sim::{Node, RxEvent, RxParser, SimBuilder, Simulator};
use restbus::ReplayApp;

/// Runs behind every rate: each is the median of this many.
const REPEATS: usize = 5;

/// Median bits/sec of [`REPEATS`] runs, each on a fresh simulator from
/// `build` (untimed) advanced `bits` bit times by `run` (timed). Returns
/// the rate and the last run's simulator.
fn median_bits_per_sec(
    bits: u64,
    build: impl Fn() -> Simulator,
    run: fn(&mut Simulator, u64),
) -> (f64, Simulator) {
    let mut rates = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let mut sim = build();
        let start = Instant::now();
        run(&mut sim, bits);
        rates.push(bits as f64 / start.elapsed().as_secs_f64());
        last = Some(sim);
    }
    rates.sort_by(f64::total_cmp);
    (rates[REPEATS / 2], last.expect("REPEATS > 0"))
}

/// Veh. D restbus replay plus a receiver, with a recorder and/or journal
/// attached when `Some`; used to quantify each observability layer's
/// hot-path cost in both states.
fn restbus_bus(recorder: Option<Recorder>, journal: Option<Journal>) -> Simulator {
    let mut builder = SimBuilder::new(BusSpeed::K50);
    if let Some(recorder) = recorder {
        builder = builder.recorder(recorder);
    }
    if let Some(journal) = journal {
        builder = builder.journal(journal);
    }
    builder
        .node(Node::new(
            "restbus",
            Box::new(ReplayApp::for_matrix(&restbus_matrix())),
        ))
        .node(Node::new("rx", Box::new(SilentApplication)))
        .build()
}

/// Median lockstep bits/sec of the [`restbus_bus`] that `build` makes.
fn restbus_bits_per_sec(bits: u64, build: impl Fn() -> Simulator) -> f64 {
    median_bits_per_sec(bits, build, Simulator::run).0
}

/// A periodic 8-byte sender plus a receiver at 50 kbit/s, with the
/// sender's period set so the bus duty cycle approximates `target_load`
/// (an 8-byte data frame occupies ≈ 111 bus bits before stuffing).
fn periodic_bus(target_load: f64) -> Simulator {
    let frame = CanFrame::data_frame(CanId::from_raw(0x222), &[0xA5; 8]).expect("valid frame");
    let period = ((111.0 / target_load).round() as u64).max(130);
    SimBuilder::new(BusSpeed::K50)
        .node(Node::new(
            "tx",
            Box::new(PeriodicSender::new(frame, period, 40)),
        ))
        .node(Node::new("rx", Box::new(SilentApplication)))
        .build()
}

/// The kernel self-telemetry of one bus, run in both engines: the
/// `kernel_telemetry` section of `BENCH_sim.json`. Bits/skips/stretches
/// are integer counters from the kernels themselves, so the section
/// doubles as a cheap engine-coverage check (the packed run must report
/// packed and skipped bits).
fn kernel_telemetry_section(bits: u64, target_load: f64) -> String {
    let mut lockstep = periodic_bus(target_load);
    lockstep.run(bits);
    let mut packed = periodic_bus(target_load);
    packed.run_packed(bits);
    format!(
        "{{\n    \"lockstep\": {},\n    \"packed\": {}\n  }}",
        lockstep.kernel_telemetry().to_json(),
        packed.kernel_telemetry().to_json()
    )
}

/// One packed-kernel speedup sample at an approximate target busload.
struct PackedSample {
    target_load: f64,
    observed_load: f64,
    lockstep_bits_per_sec: f64,
    packed_bits_per_sec: f64,
}

/// Measures lockstep vs packed-kernel throughput on [`periodic_bus`]. At
/// low load the idle-gap skips carry the speedup; as load rises the frame
/// bodies, resolved word-at-a-time instead of bit-by-bit, take over. Both
/// engines are verified to land on the same clock and the same busy-bit
/// count (the differential tests prove the full byte-identity contract;
/// this is the cheap guard).
fn packed_sample(bits: u64, target_load: f64) -> PackedSample {
    let build = || periodic_bus(target_load);
    let (lockstep_bits_per_sec, lockstep) = median_bits_per_sec(bits, build, Simulator::run);
    let (packed_bits_per_sec, packed) = median_bits_per_sec(bits, build, Simulator::run_packed);
    assert_eq!(lockstep.now(), packed.now(), "packed clock mismatch");
    assert_eq!(
        lockstep.busy_bits(),
        packed.busy_bits(),
        "packed busy-bit mismatch"
    );
    PackedSample {
        target_load,
        observed_load: packed.observed_bus_load(),
        lockstep_bits_per_sec,
        packed_bits_per_sec,
    }
}

/// Frames the codec rows run over.
const CODEC_FRAMES: usize = 256;

/// [`CODEC_FRAMES`] frames with identifiers, DLCs, payloads and remote
/// flags drawn from a fixed xorshift sequence.
fn codec_frames() -> Vec<CanFrame> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..CODEC_FRAMES)
        .map(|_| {
            let draw = next();
            let id = CanId::from_raw((draw & 0x7FF) as u16);
            let dlc = ((draw >> 11) % 9) as usize;
            if (draw >> 16) % 16 == 0 {
                CanFrame::remote_frame(id, dlc as u8).expect("valid frame")
            } else {
                CanFrame::data_frame(id, &next().to_le_bytes()[..dlc]).expect("valid frame")
            }
        })
        .collect()
}

/// Time per unit of `run`, which does `units` units of work per pass, over
/// `passes` passes.
fn ns_per_unit(passes: usize, units: usize, run: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..passes {
        run();
    }
    start.elapsed().as_nanos() as f64 / (passes * units) as f64
}

/// The frame codec's unit costs: `[rx_push_ns_per_bit,
/// rx_push_word_ns_per_bit, stuff_frame_ns]`. Both receive rows parse the
/// same stuffed frames SOF through EOF: one level per `RxParser::push`
/// call, or one 64-bit window per `RxParser::push_word` call. The three
/// rows take their [`REPEATS`] samples in turn, so a slow phase of the
/// host lands on all of them alike, and each reports its median.
fn codec_section(passes: usize) -> [f64; 3] {
    let frames = codec_frames();
    let wires: Vec<PackedWire> = frames.iter().map(encode_frame).collect();
    let levels: Vec<_> = wires.iter().map(|wire| wire.unpack().bits).collect();
    let bits: usize = wires.iter().map(|wire| wire.len).sum();
    let mut push = || {
        for wire in &levels {
            let mut parser = RxParser::new();
            for &level in wire {
                black_box(parser.push(level));
            }
        }
    };
    let mut push_word = || {
        for wire in &wires {
            let mut parser = RxParser::new();
            let mut at = 0;
            while at < wire.len {
                let n = (wire.len - at).min(64) as u32;
                let window = packed::extract_window(&wire.words, at);
                let (consumed, event) = parser.push_word(black_box(window), n);
                at += consumed as usize + usize::from(event != RxEvent::Continue);
            }
            black_box(parser);
        }
    };
    let mut stuff = || {
        for frame in &frames {
            black_box(stuff_frame(black_box(frame)));
        }
    };
    let mut samples = [const { Vec::new() }; 3];
    for _ in 0..REPEATS {
        samples[0].push(ns_per_unit(passes, bits, &mut push));
        samples[1].push(ns_per_unit(passes, bits, &mut push_word));
        samples[2].push(ns_per_unit(passes, frames.len(), &mut stuff));
    }
    samples.map(|mut row| {
        row.sort_by(f64::total_cmp);
        row[REPEATS / 2]
    })
}

/// A state-changing call the campaign's defender received.
#[derive(Clone, Copy)]
enum DefenderCall {
    OwnTx(bool),
    Bit(Level, BitInstant),
    Skip(u64, BitInstant),
    Stretch(u64, u32, bool, BitInstant),
}

/// Forwards to the defender's agent and logs every call that changes its
/// state.
struct CallLog {
    inner: Box<dyn BitAgent>,
    calls: Rc<RefCell<Vec<DefenderCall>>>,
}

impl BitAgent for CallLog {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        self.calls.borrow_mut().push(DefenderCall::Bit(level, now));
        self.inner.on_bit(level, now);
    }

    fn tx_level(&self) -> Option<Level> {
        self.inner.tx_level()
    }

    fn set_own_transmission(&mut self, transmitting: bool) {
        self.calls
            .borrow_mut()
            .push(DefenderCall::OwnTx(transmitting));
        self.inner.set_own_transmission(transmitting);
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        self.inner.next_activity(now)
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        self.inner.drive_horizon(now)
    }

    fn drive_until(&self, now: BitInstant) -> BitInstant {
        self.inner.drive_until(now)
    }

    fn skip_idle(&mut self, bits: u64, from: BitInstant) {
        self.calls.borrow_mut().push(DefenderCall::Skip(bits, from));
        self.inner.skip_idle(bits, from);
    }

    fn observe_stretch(&mut self, word: u64, len: u32, own_tx: bool, from: BitInstant) {
        let call = DefenderCall::Stretch(word, len, own_tx, from);
        self.calls.borrow_mut().push(call);
        self.inner.observe_stretch(word, len, own_tx, from);
    }
}

/// The supervised defender's row: what the packed kernel handed it in the
/// campaign's benign cell without faults, replayed on fresh copies of it.
struct DefenderSample {
    stretches: usize,
    stretch_bits: u64,
    lockstep_bits: u64,
    /// Nanoseconds per observed bit (stretch and lockstep bits; idle skips
    /// are O(1) calls and count no bits), `[closed_form, per_bit]`.
    ns_per_bit: [f64; 2],
}

/// Records the defender's calls over one campaign cell run in the packed
/// kernel, then replays them `passes` times per sample, with each stretch
/// observed in closed form (`observe_stretch`) or bit by bit (the trait's
/// reference loop), every other call alike. The two rows take their
/// [`REPEATS`] samples in turn.
fn defender_section(passes: usize) -> DefenderSample {
    let config = CampaignConfig::default();
    let calls = Rc::new(RefCell::new(Vec::new()));
    let log = calls.clone();
    let mut cell = build_cell_wrapped(
        Traffic::Benign,
        FaultSpec::Clean,
        // The benign/clean cell's seed in the campaign grid.
        derive_seed(config.seed, 0),
        config.run_ms,
        &Recorder::disabled(),
        &Journal::disabled(),
        move |inner| Box::new(CallLog { inner, calls: log }),
    )
    .expect("the campaign cell builds");
    let fresh = cell.defender();
    cell.sim
        .run_packed(BusSpeed::K500.bits_in_millis(config.run_ms));
    let calls = calls.take();
    let (mut stretches, mut stretch_bits, mut lockstep_bits) = (0, 0, 0);
    for call in &calls {
        match call {
            DefenderCall::Stretch(_, len, _, _) => {
                stretches += 1;
                stretch_bits += u64::from(*len);
            }
            DefenderCall::Bit(..) => lockstep_bits += 1,
            _ => {}
        }
    }
    let replay = |closed_form: bool| {
        let mut defender = fresh.clone();
        for &call in &calls {
            match call {
                DefenderCall::OwnTx(own) => defender.set_own_transmission(own),
                DefenderCall::Bit(level, now) => defender.on_bit(level, now),
                DefenderCall::Skip(bits, from) => defender.skip_idle(bits, from),
                DefenderCall::Stretch(word, len, own, from) if closed_form => {
                    defender.observe_stretch(black_box(word), len, own, from)
                }
                DefenderCall::Stretch(word, len, own, from) => {
                    for i in 0..len {
                        defender.set_own_transmission(own);
                        let now = from + BitDuration::bits(u64::from(i));
                        defender.on_bit(packed::level_at(black_box(word), i), now);
                    }
                }
            }
        }
        defender
    };
    assert_eq!(
        format!("{:?}", replay(true)),
        format!("{:?}", replay(false)),
        "the closed form must end where the per-bit replay does"
    );
    let bits = (stretch_bits + lockstep_bits) as usize;
    let mut samples = [const { Vec::new() }; 2];
    for _ in 0..REPEATS {
        for (row, closed_form) in samples.iter_mut().zip([true, false]) {
            row.push(ns_per_unit(passes, bits, &mut || {
                black_box(replay(closed_form));
            }));
        }
    }
    DefenderSample {
        stretches,
        stretch_bits,
        lockstep_bits,
        ns_per_bit: samples.map(|mut row| {
            row.sort_by(f64::total_cmp);
            row[REPEATS / 2]
        }),
    }
}

fn json_f(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

fn usage() -> ! {
    eprintln!("usage: perfbase [--quick] [--out <path>]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = rest.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    // 1. Raw per-bit hot path.
    let sim_bits: u64 = if quick { 200_000 } else { 1_000_000 };
    let bps = restbus_bits_per_sec(sim_bits, || restbus_bus(None, None));
    eprintln!("  sim: {bps:.0} bits/s");

    // 1b. Metrics-layer cost on the same hot path: an attached-but-
    // disabled recorder must be free (one untaken branch per site); the
    // enabled cost is reported for context.
    let bps_obs_disabled =
        restbus_bits_per_sec(sim_bits, || restbus_bus(Some(Recorder::disabled()), None));
    let bps_obs_enabled =
        restbus_bits_per_sec(sim_bits, || restbus_bus(Some(Recorder::enabled()), None));
    eprintln!(
        "  obs: {bps_obs_disabled:.0} bits/s (recorder disabled), \
         {bps_obs_enabled:.0} bits/s (recorder enabled)"
    );

    // 1c. Causal-journal cost on the same hot path, same contract as the
    // recorder: an attached-but-disabled journal must sit within the
    // obs-overhead noise budget of the no-journal baseline.
    let bps_jrn_disabled =
        restbus_bits_per_sec(sim_bits, || restbus_bus(None, Some(Journal::disabled())));
    let bps_jrn_enabled =
        restbus_bits_per_sec(sim_bits, || restbus_bus(None, Some(Journal::enabled())));
    eprintln!(
        "  journal: {bps_jrn_disabled:.0} bits/s (disabled), \
         {bps_jrn_enabled:.0} bits/s (enabled)"
    );

    // 2. Packed bus kernel: lockstep vs idle-gap skips plus
    // word-at-a-time wired-AND, from a mostly idle bus (where the skips
    // carry the speedup) to a busy one (where the packed frame bodies
    // must carry it by themselves).
    let packed_bits: u64 = if quick { 400_000 } else { 2_000_000 };
    let packed_samples: Vec<PackedSample> = [0.10, 0.30, 0.60, 0.90]
        .iter()
        .map(|&load| packed_sample(packed_bits, load))
        .collect();
    let speedup = |s: &PackedSample| s.packed_bits_per_sec / s.lockstep_bits_per_sec;
    for s in &packed_samples {
        eprintln!(
            "  packed: target {:.0}% (observed {:.1}%): lockstep {:.0} bits/s, \
             packed {:.0} bits/s ({:.1}x)",
            s.target_load * 100.0,
            s.observed_load * 100.0,
            s.lockstep_bits_per_sec,
            s.packed_bits_per_sec,
            speedup(s)
        );
    }
    assert!(
        speedup(&packed_samples[0]) >= 3.0,
        "the packed kernel must clear 3x at 10% busload, measured {:.2}x",
        speedup(&packed_samples[0])
    );
    assert!(
        speedup(&packed_samples[1]) >= 5.0,
        "the packed kernel must clear 5x at 30% busload, measured {:.2}x",
        speedup(&packed_samples[1])
    );

    // 3. Kernel self-telemetry of one 30 %-load bus under both
    // engines (pure integer counters — host-independent).
    let telemetry_bits: u64 = if quick { 200_000 } else { 1_000_000 };
    let kernel_telemetry = kernel_telemetry_section(telemetry_bits, 0.30);

    // 4. The frame codec's unit costs.
    let [rx_push, rx_push_word, stuff_ns] = codec_section(if quick { 20 } else { 100 });
    eprintln!(
        "  codec: push {rx_push:.2} ns/bit, push_word {rx_push_word:.2} ns/bit ({:.1}x), \
         stuff_frame {stuff_ns:.0} ns",
        rx_push / rx_push_word
    );

    // 5. The supervised defender's stretch observation.
    let defender = defender_section(if quick { 5 } else { 20 });
    let [observe_closed, observe_per_bit] = defender.ns_per_bit;
    eprintln!(
        "  defender: {} stretches, {} stretch + {} lockstep bits: closed form \
         {observe_closed:.2} ns/bit, per-bit replay {observe_per_bit:.2} ns/bit ({:.1}x)",
        defender.stretches,
        defender.stretch_bits,
        defender.lockstep_bits,
        observe_per_bit / observe_closed
    );

    let packed_rows: String = packed_samples
        .iter()
        .map(|s| {
            format!(
                r#"      {{
        "target_load": {target},
        "observed_load": {observed},
        "lockstep_bits_per_sec": {lock},
        "packed_bits_per_sec": {packed},
        "speedup": {speedup}
      }}"#,
                target = json_f(s.target_load),
                observed = json_f(s.observed_load),
                lock = json_f(s.lockstep_bits_per_sec),
                packed = json_f(s.packed_bits_per_sec),
                speedup = json_f(speedup(s)),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        r#"{{
  "schema": "michican-perfbase/v2",
  "quick": {quick},
  "repeats": {REPEATS},
  "sim": {{
    "bits_simulated": {sim_bits},
    "bits_per_sec": {bps}
  }},
  "obs": {{
    "bits_per_sec_recorder_disabled": {bps_obs_disabled},
    "bits_per_sec_recorder_enabled": {bps_obs_enabled},
    "bits_per_sec_journal_disabled": {bps_jrn_disabled},
    "bits_per_sec_journal_enabled": {bps_jrn_enabled}
  }},
  "kernel_telemetry": {kernel_telemetry},
  "packed": {{
    "bits_simulated": {packed_bits},
    "loads": [
{packed_rows}
    ]
  }},
  "codec": {{
    "frames": {CODEC_FRAMES},
    "rx_push_ns_per_bit": {rx_push},
    "rx_push_word_ns_per_bit": {rx_push_word},
    "stuff_frame_ns": {stuff_ns}
  }},
  "defender": {{
    "cell": "benign/clean",
    "stretches": {stretches},
    "stretch_bits": {stretch_bits},
    "lockstep_bits": {lockstep_bits},
    "defender_observe_ns_per_bit": {{
      "closed_form": {observe_closed},
      "per_bit_replay": {observe_per_bit}
    }}
  }}
}}
"#,
        bps = json_f(bps),
        bps_obs_disabled = json_f(bps_obs_disabled),
        bps_obs_enabled = json_f(bps_obs_enabled),
        bps_jrn_disabled = json_f(bps_jrn_disabled),
        bps_jrn_enabled = json_f(bps_jrn_enabled),
        rx_push = json_f(rx_push),
        rx_push_word = json_f(rx_push_word),
        stuff_ns = json_f(stuff_ns),
        stretches = defender.stretches,
        stretch_bits = defender.stretch_bits,
        lockstep_bits = defender.lockstep_bits,
        observe_closed = json_f(observe_closed),
        observe_per_bit = json_f(observe_per_bit),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("perfbase: wrote {out_path}");
}
