//! Performance baseline: measures simulator throughput and the parallel
//! experiment engine's speedup, and writes the results as JSON.
//!
//! ```text
//! perfbase [--quick] [--shards <n> | -j <n>] [--out <path>]
//! ```
//!
//! * `--quick` shrinks every workload (CI smoke configuration);
//! * `--shards` sets the parallel worker count (default: all cores);
//! * `--out` sets the JSON path (default `BENCH_sim.json`).
//!
//! The JSON records single-thread vs parallel bits/sec on the
//! fault-campaign grid (with the speedup), raw simulator bits/sec with
//! event logging on and off, the metrics layer's hot-path cost with the
//! recorder disabled vs enabled (the disabled path must be within noise
//! of no recorder at all), lockstep vs packed-kernel throughput at
//! 10/30/60/90 % busload (the 10 % row must clear a 3× speedup, the 30 %
//! row 5×), cells/sec for the campaign grid, and wall time per grid
//! artifact. Numbers depend on the host; the *outputs* of
//! every measured workload stay byte-identical across shard counts (see
//! `bench::runner` — this binary asserts it for the campaign report *and*
//! for the merged metrics snapshot of the metered campaign).

use std::time::Instant;

use bench::campaign::{run_campaign_with, CampaignConfig};
use bench::detection::{run_sweep_with, PAPER_IVN_SIZES};
use bench::runner::{parse_shards, ExecOpts};
use bench::scenarios::{restbus_matrix, run_multi_attacker_scan_with, run_table2_with};
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BusSpeed, CanFrame, CanId};
use can_obs::{Journal, Recorder};
use can_sim::{Node, SimBuilder, Simulator};
use restbus::ReplayApp;

/// One timed run: returns (elapsed seconds, result).
fn timed<R>(work: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = work();
    (start.elapsed().as_secs_f64(), result)
}

/// Raw simulator throughput: Veh. D restbus replay plus a receiver,
/// stepped for `bits` bit times. Returns bits/sec.
fn sim_bits_per_sec(bits: u64, event_logging: bool) -> f64 {
    sim_bits_per_sec_with(bits, event_logging, None, None)
}

/// [`sim_bits_per_sec`] with an explicit recorder and/or journal attached
/// (when `Some`); used to quantify each observability layer's hot-path
/// cost in both states.
fn sim_bits_per_sec_with(
    bits: u64,
    event_logging: bool,
    recorder: Option<Recorder>,
    journal: Option<Journal>,
) -> f64 {
    let mut builder = SimBuilder::new(BusSpeed::K50).event_logging(event_logging);
    if let Some(recorder) = recorder {
        builder = builder.recorder(recorder);
    }
    if let Some(journal) = journal {
        builder = builder.journal(journal);
    }
    let mut sim = builder
        .node(Node::new(
            "restbus",
            Box::new(ReplayApp::for_matrix(&restbus_matrix())),
        ))
        .node(Node::new("rx", Box::new(SilentApplication)))
        .build();
    let (secs, _) = timed(|| sim.run(bits));
    bits as f64 / secs
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
    speedup: f64,
}

/// Measures lockstep vs packed-kernel wall clock on [`periodic_bus`]. At
/// low load the idle-gap skips carry the speedup; as load rises the frame
/// bodies, resolved word-at-a-time instead of bit-by-bit, take over. Both
/// runs are verified to land on the same clock and the same busy-bit
/// count (the differential tests prove the full byte-identity contract;
/// this is the cheap guard).
fn packed_sample(bits: u64, target_load: f64) -> PackedSample {
    let mut lockstep = periodic_bus(target_load);
    let (lock_secs, _) = timed(|| lockstep.run(bits));
    let mut packed = periodic_bus(target_load);
    let (packed_secs, _) = timed(|| packed.run_packed(bits));
    assert_eq!(lockstep.now(), packed.now(), "packed clock mismatch");
    assert_eq!(
        lockstep.busy_bits(),
        packed.busy_bits(),
        "packed busy-bit mismatch"
    );
    PackedSample {
        target_load,
        observed_load: packed.observed_bus_load(),
        lockstep_bits_per_sec: bits as f64 / lock_secs,
        packed_bits_per_sec: bits as f64 / packed_secs,
        speedup: lock_secs / packed_secs,
    }
}

fn json_f(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut shards, args) = match parse_shards(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if shards == 1 {
        // Default to all cores: the point of the baseline is the speedup.
        shards = threads;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());

    eprintln!("perfbase: {threads} core(s) available, measuring with {shards} shard(s)");

    // 1. Raw per-bit hot path, logging on vs off.
    let sim_bits: u64 = if quick { 200_000 } else { 1_000_000 };
    let bps_on = sim_bits_per_sec(sim_bits, true);
    let bps_off = sim_bits_per_sec(sim_bits, false);
    eprintln!("  sim: {bps_on:.0} bits/s (events on), {bps_off:.0} bits/s (events off)");

    // 1b. Metrics-layer cost on the same hot path: an attached-but-
    // disabled recorder must be free (one untaken branch per site); the
    // enabled cost is reported for context.
    let bps_obs_disabled = sim_bits_per_sec_with(sim_bits, false, Some(Recorder::disabled()), None);
    let bps_obs_enabled = sim_bits_per_sec_with(sim_bits, false, Some(Recorder::enabled()), None);
    eprintln!(
        "  obs: {bps_obs_disabled:.0} bits/s (recorder disabled), \
         {bps_obs_enabled:.0} bits/s (recorder enabled)"
    );

    // 1c. Causal-journal cost on the same hot path, same contract as the
    // recorder: an attached-but-disabled journal must sit within the
    // obs-overhead noise budget of the no-journal baseline.
    let bps_jrn_disabled = sim_bits_per_sec_with(sim_bits, false, None, Some(Journal::disabled()));
    let bps_jrn_enabled = sim_bits_per_sec_with(sim_bits, false, None, Some(Journal::enabled()));
    eprintln!(
        "  journal: {bps_jrn_disabled:.0} bits/s (disabled), \
         {bps_jrn_enabled:.0} bits/s (enabled)"
    );

    // 2. Campaign grid, serial vs parallel. 16 cells at 500 kbit/s.
    let run_ms = if quick { 60.0 } else { 150.0 };
    let serial_config = CampaignConfig {
        run_ms,
        shards: 1,
        ..CampaignConfig::default()
    };
    let parallel_config = CampaignConfig {
        shards,
        ..serial_config
    };
    let plain = ExecOpts::new();
    let (serial_secs, serial_report) = timed(|| run_campaign_with(&serial_config, &plain));
    let (parallel_secs, parallel_report) = timed(|| run_campaign_with(&parallel_config, &plain));
    assert_eq!(
        serial_report.render(),
        parallel_report.render(),
        "determinism contract: parallel campaign must be byte-identical to serial"
    );

    // The metered campaign inherits the contract: merged per-cell metric
    // registries must yield the same snapshot for every shard count.
    let serial_recorder = Recorder::enabled();
    run_campaign_with(
        &serial_config,
        &ExecOpts::new().with_recorder(serial_recorder.clone()),
    );
    let parallel_recorder = Recorder::enabled();
    run_campaign_with(
        &parallel_config,
        &ExecOpts::new().with_recorder(parallel_recorder.clone()),
    );
    assert_eq!(
        serial_recorder.snapshot_json(),
        parallel_recorder.snapshot_json(),
        "determinism contract: merged metrics snapshot must be byte-identical to serial"
    );
    eprintln!("  obs: metered campaign snapshot byte-identical across shard counts");
    let cells = serial_report.cells.len();
    let grid_bits = cells as f64 * BusSpeed::K500.bits_in_millis(run_ms) as f64;
    let speedup = serial_secs / parallel_secs;
    eprintln!(
        "  campaign: {cells} cells, serial {serial_secs:.2}s, parallel {parallel_secs:.2}s \
         ({speedup:.2}x with {shards} shards)"
    );

    // 2b. Packed bus kernel: lockstep vs idle-gap skips plus
    // word-at-a-time wired-AND, from a mostly idle bus (where the skips
    // carry the speedup) to a busy one (where the packed frame bodies
    // must carry it by themselves).
    let packed_bits: u64 = if quick { 400_000 } else { 2_000_000 };
    let packed_samples: Vec<PackedSample> = [0.10, 0.30, 0.60, 0.90]
        .iter()
        .map(|&load| packed_sample(packed_bits, load))
        .collect();
    for s in &packed_samples {
        eprintln!(
            "  packed: target {:.0}% (observed {:.1}%): lockstep {:.0} bits/s, \
             packed {:.0} bits/s ({:.1}x)",
            s.target_load * 100.0,
            s.observed_load * 100.0,
            s.lockstep_bits_per_sec,
            s.packed_bits_per_sec,
            s.speedup
        );
    }
    assert!(
        packed_samples[0].speedup >= 3.0,
        "the packed kernel must clear 3x at 10% busload, measured {:.2}x",
        packed_samples[0].speedup
    );
    assert!(
        packed_samples[1].speedup >= 5.0,
        "the packed kernel must clear 5x at 30% busload, measured {:.2}x",
        packed_samples[1].speedup
    );

    // 3. Wall time per grid artifact (at the parallel shard count).
    let (faults_secs, _) = timed(|| run_campaign_with(&parallel_config, &plain));
    let sharded = ExecOpts::new().with_shards(shards);
    let fsms = if quick { 400 } else { 4_000 };
    let (detection_secs, _) = timed(|| run_sweep_with(fsms, 0xD5_2025, PAPER_IVN_SIZES, &sharded));
    let capture_ms = if quick { 500.0 } else { 2_000.0 };
    let (table2_secs, _) = timed(|| run_table2_with(capture_ms, &sharded));
    let counts = [1usize, 2, 3, 4, 5];
    let horizon = if quick { 20_000 } else { 60_000 };
    let (multi_secs, _) = timed(|| run_multi_attacker_scan_with(&counts, horizon, &sharded));
    eprintln!(
        "  artifacts: faults {faults_secs:.2}s, detection {detection_secs:.2}s, \
         table2 {table2_secs:.2}s, multi_attacker {multi_secs:.2}s"
    );

    // 4. Kernel self-telemetry of one 30 %-load bus under both
    // engines (pure integer counters — host-independent).
    let telemetry_bits: u64 = if quick { 200_000 } else { 1_000_000 };
    let kernel_telemetry = kernel_telemetry_section(telemetry_bits, 0.30);

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
                speedup = json_f(s.speedup),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        r#"{{
  "schema": "michican-perfbase/v1",
  "quick": {quick},
  "threads_available": {threads},
  "shards": {shards},
  "sim": {{
    "bits_simulated": {sim_bits},
    "bits_per_sec_events_on": {bps_on},
    "bits_per_sec_events_off": {bps_off}
  }},
  "obs": {{
    "bits_per_sec_recorder_disabled": {bps_obs_disabled},
    "bits_per_sec_recorder_enabled": {bps_obs_enabled},
    "bits_per_sec_journal_disabled": {bps_jrn_disabled},
    "bits_per_sec_journal_enabled": {bps_jrn_enabled},
    "metered_snapshot_deterministic": true
  }},
  "kernel_telemetry": {kernel_telemetry},
  "packed": {{
    "bits_simulated": {packed_bits},
    "loads": [
{packed_rows}
    ]
  }},
  "campaign_grid": {{
    "cells": {cells},
    "shards": {shards},
    "run_ms_per_cell": {run_ms},
    "bits_total": {grid_bits},
    "serial_wall_secs": {serial_secs},
    "parallel_wall_secs": {parallel_secs},
    "serial_bits_per_sec": {serial_bps},
    "parallel_bits_per_sec": {parallel_bps},
    "serial_cells_per_sec": {serial_cps},
    "parallel_cells_per_sec": {parallel_cps},
    "speedup": {speedup}
  }},
  "artifact_wall_secs": {{
    "faults": {faults_secs},
    "detection": {detection_secs},
    "table2": {table2_secs},
    "multi_attacker": {multi_secs}
  }}
}}
"#,
        bps_on = json_f(bps_on),
        bps_off = json_f(bps_off),
        bps_obs_disabled = json_f(bps_obs_disabled),
        bps_obs_enabled = json_f(bps_obs_enabled),
        bps_jrn_disabled = json_f(bps_jrn_disabled),
        bps_jrn_enabled = json_f(bps_jrn_enabled),
        grid_bits = json_f(grid_bits),
        serial_secs = json_f(serial_secs),
        parallel_secs = json_f(parallel_secs),
        serial_bps = json_f(grid_bits / serial_secs),
        parallel_bps = json_f(grid_bits / parallel_secs),
        serial_cps = json_f(cells as f64 / serial_secs),
        parallel_cps = json_f(cells as f64 / parallel_secs),
        speedup = json_f(speedup),
        faults_secs = json_f(faults_secs),
        detection_secs = json_f(detection_secs),
        table2_secs = json_f(table2_secs),
        multi_secs = json_f(multi_secs),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("perfbase: wrote {out_path}");
}
