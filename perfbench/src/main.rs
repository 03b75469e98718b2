//! `perfbench` — host cost of the MichiCAN evaluation grids.
//!
//! ```text
//! perfbench --workload <campaign|ids|zoo-observed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it builds the workload's inputs, runs the whole grid
//! serially, cell by cell through the public `bench` per-cell entry points
//! on the packed engine, for about `--seconds` seconds, checks every
//! repetition cell by cell against the lockstep serial reference of the
//! grid entry point (computed after the timed region) and prints the
//! end-to-end metrics. Each cell (and on `zoo-observed` each export step)
//! is timed on its own; `wall_s` is the sum over these units of each
//! unit's fastest repetition, and `cpu_s` the sum of the thread CPU time
//! of those same repetitions. On a shared host interference only adds
//! time, in bursts of milliseconds and in slow phases of seconds; a unit
//! of tens of milliseconds finds clean repetitions in any quiet stretch
//! of the run, where a whole grid of half a second needs a long one.
//! `setup_s` is the median, over batches of
//! set-up passes made before every repetition, of the seconds per pass;
//! the batches sample the whole run, as the host's slow phases last
//! seconds. With `--trace 1` it prints the per-layer
//! metrics instead (see `traced`). The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; the human
//! report, the host fingerprint and the prediction checks go to stderr,
//! and spans plus fingerprint are written under `.bench_out/`.

mod host;
mod rebuild;
mod replay;
mod stats;
mod traced;
mod workload;
mod wrap;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bench::runner::SimMode;

use crate::traced::{RunnerPass, Timed};
use crate::workload::{Digest, Inputs, Workload};

/// One set-up pass takes well under a microsecond, too little to time
/// alone, so passes are timed in batches of `SETUP_BATCH`.
const SETUP_BATCH: usize = 1000;
/// Set-up batches the traced run times back to back before its first cell.
const TRACE_SETUP_BATCHES: usize = 101;
/// Grid repetitions per run, at least (the first is a warm-up).
const MIN_REPS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The result of one run, in the driver's format.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Seconds per set-up pass over one batch; the inputs built are dropped.
fn time_set_up(workload: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..SETUP_BATCH {
        black_box(Inputs::build(black_box(workload), black_box(seed)));
    }
    start.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

/// The lockstep serial reference digest of the grid entry point (`None`
/// if it panicked).
pub fn reference(inputs: &Inputs) -> Option<Digest> {
    catch_unwind(AssertUnwindSafe(|| {
        inputs.run_grid(SimMode::Lockstep).digest()
    }))
    .ok()
}

fn end_to_end(inputs: &Inputs, seed: u64, seconds: u64) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut set_up = Vec::new();
    // Each repetition's digest (`None` if it panicked) and timed units.
    let mut digests: Vec<Option<Digest>> = Vec::new();
    let mut timed: Vec<Vec<Timed>> = Vec::new();
    while digests.len() < MIN_REPS || start.elapsed() < budget {
        set_up.push(time_set_up(inputs.workload, seed));
        let pass = catch_unwind(AssertUnwindSafe(|| traced::runner_pass(inputs, start, 1))).ok();
        // The first repetition warms caches and lazy set-up; it is checked
        // but not timed.
        if let (Some(pass), false) = (&pass, digests.is_empty()) {
            timed.push(pass.units());
        }
        digests.push(pass.as_ref().map(RunnerPass::digest));
    }
    let setup_s = stats::median(&set_up);
    let peak_rss_mb = host::peak_rss_mb();
    let reference = traced::runner_reference(inputs);
    let cells = inputs.cell_count();
    let failed: usize = digests
        .iter()
        .map(|d| match (d, &reference) {
            (Some(d), Some(r)) => d.failed_cells(r),
            _ => cells,
        })
        .sum();
    let attempted = digests.len() * cells;
    let n_units = timed.first().map_or(0, Vec::len);
    // Each unit's fastest repetition, with the CPU time of that same one.
    let fastest: Vec<Timed> = (0..n_units)
        .map(|u| {
            timed
                .iter()
                .map(|units| units[u])
                .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
                .expect("at least one timed repetition")
        })
        .collect();
    let wall_s: f64 = fastest.iter().map(|t| t.wall_s).sum();
    let cpu_s: f64 = fastest.iter().map(|t| t.cpu_s).sum();
    let grids: Vec<f64> = timed
        .iter()
        .map(|units| units.iter().map(|t| t.wall_s).sum())
        .collect();
    eprintln!(
        "{}: {} timed repetitions of {} cells ({} bits each) in {} units; sum of unit minima {:.4} s; whole grid min/p25/p50/p75 = {:.4}/{:.4}/{:.4}/{:.4} s",
        inputs.workload.name(),
        timed.len(),
        cells,
        inputs.bits_per_cell(),
        n_units,
        wall_s,
        stats::quantile(&grids, 0.0),
        stats::quantile(&grids, 0.25),
        stats::median(&grids),
        stats::quantile(&grids, 0.75),
    );
    eprintln!(
        "cell_fail_ratio = {} ratio ({failed} of {attempted} cells failed against the lockstep serial reference)",
        stats::ratio(failed as f64, attempted as f64)
    );
    Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("wall_s", wall_s, "s"),
            metric(
                "sim_bits_per_s",
                stats::ratio(inputs.grid_bits() as f64, wall_s),
                "bits/s",
            ),
            metric("cpu_s", cpu_s, "s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let inputs = Inputs::build(args.workload, args.seed);
    eprintln!(
        "set-up: {:.6} s from process start to the grid's inputs",
        process_start.elapsed().as_secs_f64()
    );
    let steal0 = host::steal_ticks();
    if matches!(args.workload, Workload::Ids | Workload::ZooObserved) {
        eprintln!(
            "note: the {} grid takes no seed; --seed {} only picks the traced run's replay cell",
            args.workload.name(),
            args.seed
        );
    }
    let outcome = if args.trace {
        let set_up: Vec<f64> = (0..TRACE_SETUP_BATCHES)
            .map(|_| time_set_up(args.workload, args.seed))
            .collect();
        traced::run(&inputs, args.seed, args.seconds, stats::median(&set_up))
    } else {
        end_to_end(&inputs, args.seed, args.seconds)
    };
    let fingerprint = host::fingerprint(host::steal_ticks().saturating_sub(steal0));
    eprintln!("host: {fingerprint}");
    for m in &outcome.metrics {
        eprintln!("  {:<36} {:>18} {}", m.name, m.value, m.unit);
    }
    traced::write_run_file(&args_label(&args), &fingerprint, &outcome);
    println!("{}", outcome.json());
}

fn args_label(args: &Args) -> String {
    format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    )
}
