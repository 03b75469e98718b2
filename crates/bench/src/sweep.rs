//! The crash-tolerant campaign sweep engine.
//!
//! `bench::campaign` runs a 16-cell grid in one process: a single
//! panicking cell, OOM, or `kill -9` ends the whole run and throws away
//! every finished cell. This module is the fleet-scale answer — a
//! resumable, memory-bounded sweep over an arbitrarily large cell grid,
//! built from four pieces:
//!
//! 1. **Streaming shard scheduler.** Cells are enumerated lazily by index
//!    from a [`SweepWorkload`] (no materialized grid) and grouped into
//!    fixed-size *chunks* — the unit of scheduling, checkpointing and
//!    recovery. `shards` worker threads pull chunk indices from a shared
//!    queue.
//! 2. **Supervision.** Every cell attempt runs under
//!    `std::panic::catch_unwind`, optionally on a watchdog thread with a
//!    timeout. Panics and timeouts are retried with capped exponential
//!    backoff; a cell that keeps failing (or whose scenario construction
//!    fails deterministically — see
//!    [`crate::campaign::CellBuildError::is_retryable`]) is *quarantined*
//!    into a [`PoisonedCell`] list with its seed and error, and the sweep
//!    carries on.
//! 3. **Incremental aggregation.** Each cell gets a fresh
//!    [`can_obs::Recorder`]; its registry is merged into the chunk's
//!    registry and dropped immediately, so resident state is one chunk,
//!    not the grid.
//! 4. **Journal.** Each completed chunk is appended to a versioned JSONL
//!    journal (`journal.jsonl`) as a record carrying the chunk's merged
//!    `can-obs/v2` snapshot and its quarantine list, flushed before the
//!    next chunk is accepted. A killed run resumes by re-running only the
//!    chunks missing from the journal; a torn trailing record (the only
//!    kind a `SIGKILL` can produce) is detected and dropped.
//!
//! **Determinism contract, extended to recovery:** cell seeds are derived
//! from `(master seed, cell index)` and the final snapshot is produced by
//! merging chunk snapshots *from the journal, in chunk-index order* — the
//! same code path whether the run was serial, sharded, killed and resumed,
//! or already complete. Same grid + seeds ⇒ byte-identical final merged
//! snapshot at any shard count and across any kill/resume point
//! (`crates/bench/tests/sweep_resume.rs` and the `sweep-crash-smoke` CI
//! job assert exactly this).

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once};
use std::thread;
use std::time::{Duration, Instant};

use can_obs::json::{self, JsonValue};
use can_obs::{Recorder, Registry, PERCENT_BUCKETS};

use crate::campaign::{default_grid, try_run_cell_with, FaultSpec, Traffic};
use crate::runner::{derive_seed, ExecOpts, SimMode};

/// Schema tag of the sweep journal; bump on any incompatible change. Its
/// chunks embed `can-obs/v2` snapshots; any other tag is refused on resume.
pub const JOURNAL_SCHEMA: &str = "michican-sweep/v2";
/// Journal file name inside a sweep directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// Final merged snapshot file name inside a sweep directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// Schema tag of heartbeat progress records (`--progress-out`).
pub const PROGRESS_SCHEMA: &str = "michican-sweep-progress/v1";

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// A cell failure surfaced by a workload (as opposed to a panic or a
/// timeout, which the supervisor catches on its own).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Human-readable cause, preserved into the quarantine list.
    pub message: String,
    /// Whether the supervisor should retry the cell. Deterministic
    /// failures (scenario construction) must say `false`.
    pub retryable: bool,
}

impl CellError {
    /// A deterministic failure: quarantined immediately, never retried.
    pub fn fatal(message: impl Into<String>) -> Self {
        CellError {
            message: message.into(),
            retryable: false,
        }
    }

    /// A transient failure: retried up to [`SweepConfig::max_attempts`].
    pub fn retryable(message: impl Into<String>) -> Self {
        CellError {
            message: message.into(),
            retryable: true,
        }
    }
}

/// A lazily-enumerable grid of independent, seeded cells.
///
/// Implementations must be pure: `run_cell(index, seed, …)` may not read
/// ambient state, and every observable outcome must flow through the
/// per-cell recorder — the merged snapshot *is* the sweep's result. The
/// `attempt` number is passed so deterministic chaos injection (tests, CI)
/// can distinguish first tries from retries; real workloads ignore it.
pub trait SweepWorkload: Send + Sync {
    /// Number of cells in the grid.
    fn total_cells(&self) -> u64;

    /// Runs one cell, feeding all results into `recorder`.
    fn run_cell(
        &self,
        index: u64,
        seed: u64,
        attempt: u32,
        recorder: &Recorder,
    ) -> Result<(), CellError>;

    /// A stable JSON-object description of the workload, embedded in the
    /// journal header. Resume refuses to continue under a different
    /// descriptor, and [`workload_from_descriptor`] rebuilds the workload
    /// from it.
    fn descriptor(&self) -> String;
}

/// The fault-injection campaign grid as a sweep workload: `replicas`
/// seed-replicas of the 16-cell (traffic × fault) grid, each cell a full
/// Veh. D restbus simulation. Cell outcomes are folded into the snapshot
/// as `sweep_*` series labelled by cell kind, on top of the `can_*` /
/// `michican_*` series the simulation records itself.
pub struct CampaignSweep {
    grid: Vec<(Traffic, FaultSpec)>,
    replicas: u64,
    run_ms: f64,
    mode: SimMode,
}

impl CampaignSweep {
    /// A sweep of `replicas` seed-replicas of the default campaign grid,
    /// each cell simulating `run_ms` milliseconds of bus time.
    pub fn new(replicas: u64, run_ms: f64, mode: SimMode) -> Self {
        let grid = [Traffic::Benign, Traffic::Attack]
            .into_iter()
            .flat_map(|traffic| {
                default_grid()
                    .into_iter()
                    .map(move |fault| (traffic, fault))
            })
            .collect();
        CampaignSweep {
            grid,
            replicas,
            run_ms,
            mode,
        }
    }
}

impl SweepWorkload for CampaignSweep {
    fn total_cells(&self) -> u64 {
        self.grid.len() as u64 * self.replicas
    }

    fn run_cell(
        &self,
        index: u64,
        seed: u64,
        _attempt: u32,
        recorder: &Recorder,
    ) -> Result<(), CellError> {
        let slot = (index % self.grid.len() as u64) as usize;
        let (traffic, fault) = self.grid[slot];
        let opts = ExecOpts::new()
            .with_mode(self.mode)
            .with_recorder(recorder.clone());
        let outcome =
            try_run_cell_with(traffic, fault, seed, self.run_ms, &opts).map_err(|e| CellError {
                message: e.to_string(),
                retryable: e.is_retryable(),
            })?;
        let label = format!("cell=\"{}\"", outcome.label());
        for (name, value) in [
            ("sweep_benign_delivered_total", outcome.benign_delivered),
            ("sweep_attack_delivered_total", outcome.attack_delivered),
            ("sweep_eradications_total", outcome.eradications),
            ("sweep_benign_bus_offs_total", outcome.benign_bus_offs),
            ("sweep_attacks_detected_total", outcome.attacks_detected),
            ("sweep_counterattacks_total", outcome.counterattacks),
            ("sweep_degradations_total", outcome.degradations),
            ("sweep_rearms_total", outcome.rearms),
        ] {
            recorder.add(&format!("{name}{{{label}}}"), value);
        }
        recorder.observe_with(
            &format!("sweep_bus_load_pct{{{label}}}"),
            PERCENT_BUCKETS,
            (outcome.bus_load * 100.0).round() as u64,
        );
        recorder.inc("sweep_cells_total");
        Ok(())
    }

    /// The `"fast"` key is the engine flag: `true` selects the packed
    /// kernel. It keeps the name it had when `true` meant idle
    /// fast-forward, so the descriptor format is unchanged (both engines
    /// produce the same bytes).
    fn descriptor(&self) -> String {
        format!(
            "{{\"kind\":\"campaign\",\"replicas\":{},\"run_ms\":{},\"fast\":{}}}",
            self.replicas,
            self.run_ms,
            self.mode == SimMode::Packed
        )
    }
}

/// A cheap, deterministic workload for exercising the engine itself
/// (tests, the crash-smoke job): `work` rounds of integer mixing per cell,
/// with counters, a histogram and a gauge so every merge-ordering hazard
/// in the snapshot plane is represented.
pub struct SyntheticSweep {
    /// Number of cells.
    pub cells: u64,
    /// Mixing iterations per cell (tunes wall time per cell).
    pub work: u64,
}

impl SweepWorkload for SyntheticSweep {
    fn total_cells(&self) -> u64 {
        self.cells
    }

    fn run_cell(
        &self,
        index: u64,
        seed: u64,
        _attempt: u32,
        recorder: &Recorder,
    ) -> Result<(), CellError> {
        let mut acc = seed | 1;
        for _ in 0..self.work {
            acc = acc
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
                .wrapping_add(index);
        }
        recorder.inc("synthetic_cells_total");
        recorder.add("synthetic_mix_total", acc & 0xFF);
        recorder.observe("synthetic_seed_low_bits", seed % 4099);
        // Gauges are last-write-wins under merge: deterministic only
        // because chunks merge in index order. Keep one to guard that.
        recorder.set_gauge("synthetic_last_cell", index as i64);
        Ok(())
    }

    fn descriptor(&self) -> String {
        format!(
            "{{\"kind\":\"synthetic\",\"cells\":{},\"work\":{}}}",
            self.cells, self.work
        )
    }
}

/// Deterministic fault injection for the supervisor itself: which cells
/// panic or hang, and whether they do so on every attempt (→ quarantine)
/// or only on the first (→ exercised retry path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSpec {
    /// Every `panic_every`-th cell (at `(index + 1) % panic_every == 0`)
    /// panics; `0` disables.
    pub panic_every: u64,
    /// Panicking cells recover on retry (attempt ≥ 1) when `true`.
    pub panic_transient: bool,
    /// Every `hang_every`-th cell (at `(index + 2) % hang_every == 0`)
    /// sleeps `hang_ms` before running; `0` disables.
    pub hang_every: u64,
    /// Hanging cells recover on retry when `true`.
    pub hang_transient: bool,
    /// How long a hanging cell sleeps — set it well above the sweep's
    /// cell timeout.
    pub hang_ms: u64,
}

impl ChaosSpec {
    /// No injected faults.
    pub const NONE: ChaosSpec = ChaosSpec {
        panic_every: 0,
        panic_transient: false,
        hang_every: 0,
        hang_transient: false,
        hang_ms: 0,
    };

    /// `true` when this spec injects nothing (both periods disabled),
    /// regardless of what the remaining knobs are set to.
    pub fn is_inert(&self) -> bool {
        self.panic_every == 0 && self.hang_every == 0
    }
}

/// Wraps any workload with deterministic [`ChaosSpec`] fault injection.
/// Because the injection is a pure function of `(cell index, attempt)`,
/// a chaotic sweep still satisfies the byte-identity contract: the same
/// cells are quarantined in the killed-and-resumed run and in the
/// uninterrupted reference.
pub struct Chaotic {
    /// The real workload.
    pub inner: Arc<dyn SweepWorkload>,
    /// What to break, where.
    pub chaos: ChaosSpec,
}

impl SweepWorkload for Chaotic {
    fn total_cells(&self) -> u64 {
        self.inner.total_cells()
    }

    fn run_cell(
        &self,
        index: u64,
        seed: u64,
        attempt: u32,
        recorder: &Recorder,
    ) -> Result<(), CellError> {
        let c = self.chaos;
        if c.hang_every > 0
            && (index + 2).is_multiple_of(c.hang_every)
            && (attempt == 0 || !c.hang_transient)
        {
            thread::sleep(Duration::from_millis(c.hang_ms));
        }
        if c.panic_every > 0
            && (index + 1).is_multiple_of(c.panic_every)
            && (attempt == 0 || !c.panic_transient)
        {
            panic!("chaos panic cell={index} attempt={attempt}");
        }
        self.inner.run_cell(index, seed, attempt, recorder)
    }

    fn descriptor(&self) -> String {
        let c = self.chaos;
        if c.is_inert() {
            return self.inner.descriptor();
        }
        format!(
            "{{\"kind\":\"chaos\",\"panic_every\":{},\"panic_transient\":{},\"hang_every\":{},\"hang_transient\":{},\"hang_ms\":{},\"inner\":{}}}",
            c.panic_every,
            c.panic_transient,
            c.hang_every,
            c.hang_transient,
            c.hang_ms,
            self.inner.descriptor()
        )
    }
}

/// Rebuilds a workload from a journal-header descriptor (the inverse of
/// [`SweepWorkload::descriptor`]) — this is what lets
/// `experiments sweep --resume <dir>` reconstruct the exact grid without
/// the original command line.
pub fn workload_from_descriptor(descriptor: &str) -> Result<Arc<dyn SweepWorkload>, String> {
    let doc = json::parse(descriptor).map_err(|e| format!("bad workload descriptor: {e}"))?;
    workload_from_json(&doc)
}

fn workload_from_json(doc: &JsonValue) -> Result<Arc<dyn SweepWorkload>, String> {
    let u64_field = |name: &str| {
        doc.get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("descriptor field '{name}' missing or not a u64"))
    };
    let bool_field = |name: &str| {
        doc.get(name)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("descriptor field '{name}' missing or not a bool"))
    };
    match doc.get("kind").and_then(JsonValue::as_str) {
        Some("campaign") => {
            let run_ms = doc
                .get("run_ms")
                .and_then(JsonValue::as_f64)
                .ok_or("descriptor field 'run_ms' missing or not a number")?;
            // `"fast": true` selects the packed kernel (see
            // `CampaignSweep::descriptor`).
            let mode = if bool_field("fast")? {
                SimMode::Packed
            } else {
                SimMode::Lockstep
            };
            Ok(Arc::new(CampaignSweep::new(
                u64_field("replicas")?,
                run_ms,
                mode,
            )))
        }
        Some("synthetic") => Ok(Arc::new(SyntheticSweep {
            cells: u64_field("cells")?,
            work: u64_field("work")?,
        })),
        Some("chaos") => {
            let inner = doc.get("inner").ok_or("chaos descriptor missing 'inner'")?;
            Ok(Arc::new(Chaotic {
                inner: workload_from_json(inner)?,
                chaos: ChaosSpec {
                    panic_every: u64_field("panic_every")?,
                    panic_transient: bool_field("panic_transient")?,
                    hang_every: u64_field("hang_every")?,
                    hang_transient: bool_field("hang_transient")?,
                    hang_ms: u64_field("hang_ms")?,
                },
            }))
        }
        other => Err(format!("unknown workload kind {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Configuration, report, errors
// ---------------------------------------------------------------------

/// Execution parameters of a sweep. Everything that affects *what* the
/// sweep computes (`seed`, `chunk_cells`, `max_attempts`) is recorded in
/// the journal header and validated on resume; everything that only
/// affects *how fast* (shards, timeout, backoff, the RSS guard) may differ
/// between the original and the resuming invocation.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Master seed; cell `i` runs with `derive_seed(seed, i)`.
    pub seed: u64,
    /// Worker threads (`1` = the serial reference path).
    pub shards: usize,
    /// Cells per chunk — the scheduling, checkpoint and recovery unit.
    pub chunk_cells: u64,
    /// Attempts per cell before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Wall-clock budget per cell attempt; `None` disables the watchdog
    /// (cells then run inline on the shard worker, with panic isolation
    /// only).
    pub cell_timeout: Option<Duration>,
    /// Base retry backoff, doubled per retry (capped at 2¹⁶×).
    pub retry_backoff: Duration,
    /// Fail fast (resumably) when the process RSS exceeds this many MiB,
    /// sampled between chunk checkpoints. `None` disables the guard.
    pub max_rss_mb: Option<u64>,
    /// Test hook: behave as if the process died after this many chunk
    /// records were appended in this invocation ([`SweepError::Aborted`]).
    pub stop_after_chunks: Option<u64>,
    /// Live telemetry sink; `None` disables the heartbeat entirely.
    /// Heartbeats are a *how fast*-class knob: they are not recorded in
    /// the journal header, so a resuming invocation may add, drop or
    /// retarget them freely.
    pub heartbeat: Option<HeartbeatConfig>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 0x00D5_2025,
            shards: 1,
            chunk_cells: 16,
            max_attempts: 3,
            cell_timeout: None,
            retry_backoff: Duration::from_millis(10),
            max_rss_mb: None,
            stop_after_chunks: None,
            heartbeat: None,
        }
    }
}

/// Where the live sweep telemetry goes.
///
/// Both sinks are optional and independent: the JSONL stream is the
/// machine-readable progress feed (one [`PROGRESS_SCHEMA`] record per
/// beat, appended and flushed), the Prometheus textfile is a
/// last-beat-wins snapshot for node-exporter-style collection, replaced
/// by an atomic write-to-temp-then-rename so scrapers never observe a
/// torn file.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatConfig {
    /// Append one progress JSONL record per beat here.
    pub progress_out: Option<PathBuf>,
    /// Atomically swap a Prometheus textfile snapshot here.
    pub prom_out: Option<PathBuf>,
    /// Minimum seconds between beats; `0` beats after every chunk.
    pub min_interval_secs: u64,
}

/// The supervisor-side heartbeat state: cumulative progress (including
/// chunks recovered from a previous invocation's journal) plus the wall
/// clock the rate/ETA estimates are derived from. Wall-clock readings are
/// deliberately excluded from every determinism-checked artifact — they
/// only ever flow into these telemetry sinks.
struct Heartbeat {
    config: HeartbeatConfig,
    started: Instant,
    last_beat: Option<Instant>,
    total_cells: u64,
    total_chunks: u64,
    chunks_done: u64,
    cells_done: u64,
    quarantined: u64,
    retries: u64,
    /// Cells completed by *this* invocation (the rate basis — resumed
    /// chunks were free).
    cells_this_run: u64,
}

impl Heartbeat {
    fn new(
        config: HeartbeatConfig,
        total_cells: u64,
        total_chunks: u64,
        resumed: &ResumedProgress,
    ) -> Self {
        Heartbeat {
            config,
            started: Instant::now(),
            last_beat: None,
            total_cells,
            total_chunks,
            chunks_done: resumed.chunks,
            cells_done: resumed.cells,
            quarantined: resumed.quarantined,
            retries: resumed.retries,
            cells_this_run: 0,
        }
    }

    fn on_chunk(&mut self, result: &ChunkResult) {
        self.chunks_done += 1;
        self.cells_done += result.cells;
        self.cells_this_run += result.cells;
        self.quarantined += result.poisoned.len() as u64;
        self.retries += result.retries;
    }

    /// Emits a beat if the configured interval elapsed (`force` skips the
    /// interval check — used for the final beat). Sink errors are
    /// reported once per call but never fail the sweep: telemetry must
    /// not take down the computation it observes.
    fn beat(&mut self, force: bool) {
        let now = Instant::now();
        if !force {
            if let Some(last) = self.last_beat {
                if now.duration_since(last).as_secs() < self.config.min_interval_secs {
                    return;
                }
            }
        }
        self.last_beat = Some(now);
        let elapsed = now.duration_since(self.started).as_secs_f64();
        let cells_per_sec = if elapsed > 0.0 {
            self.cells_this_run as f64 / elapsed
        } else {
            0.0
        };
        let remaining = self.total_cells.saturating_sub(self.cells_done);
        let eta_secs = if cells_per_sec > 0.0 {
            (remaining as f64 / cells_per_sec).round() as u64
        } else {
            0
        };
        let rss_mb = current_rss_mb().unwrap_or(0);
        let complete = self.chunks_done == self.total_chunks;
        if let Some(path) = &self.config.progress_out {
            let record = format!(
                "{{\"schema\":\"{}\",\"chunks_done\":{},\"total_chunks\":{},\"cells_done\":{},\"total_cells\":{},\"quarantined\":{},\"retries\":{},\"cells_per_sec\":{:.2},\"eta_secs\":{},\"rss_mb\":{},\"elapsed_secs\":{:.2},\"complete\":{}}}\n",
                PROGRESS_SCHEMA,
                self.chunks_done,
                self.total_chunks,
                self.cells_done,
                self.total_cells,
                self.quarantined,
                self.retries,
                cells_per_sec,
                eta_secs,
                rss_mb,
                elapsed,
                complete,
            );
            let appended = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(record.as_bytes()).and_then(|()| f.flush()));
            if let Err(e) = appended {
                eprintln!("sweep heartbeat: cannot append to {}: {e}", path.display());
            }
        }
        if let Some(path) = &self.config.prom_out {
            if let Err(e) = atomic_write(path, &self.prometheus_text(cells_per_sec, eta_secs)) {
                eprintln!("sweep heartbeat: cannot swap {}: {e}", path.display());
            }
        }
    }

    /// Renders the Prometheus textfile via a throwaway [`Registry`], so
    /// the exposition format (HELP/TYPE lines, escaping) stays in one
    /// tested place.
    fn prometheus_text(&self, cells_per_sec: f64, eta_secs: u64) -> String {
        let reg = Recorder::enabled();
        reg.set_gauge("michican_sweep_chunks_done", self.chunks_done as i64);
        reg.set_gauge("michican_sweep_chunks", self.total_chunks as i64);
        reg.set_gauge("michican_sweep_cells_done", self.cells_done as i64);
        reg.set_gauge("michican_sweep_cells", self.total_cells as i64);
        reg.set_gauge("michican_sweep_quarantined", self.quarantined as i64);
        reg.set_gauge("michican_sweep_retries", self.retries as i64);
        reg.set_gauge(
            "michican_sweep_cells_per_sec_milli",
            (cells_per_sec * 1000.0).round() as i64,
        );
        reg.set_gauge("michican_sweep_eta_seconds", eta_secs as i64);
        reg.set_gauge(
            "michican_sweep_rss_mib",
            current_rss_mb().unwrap_or(0) as i64,
        );
        reg.prometheus_text()
    }
}

/// Writes `content` to `path` atomically: write + flush a `.tmp` sibling,
/// then `rename` over the target (atomic on POSIX filesystems), so a
/// concurrent reader sees either the old snapshot or the new one — never
/// a prefix.
fn atomic_write(path: &Path, content: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, content)?;
    fs::rename(&tmp, path)
}

/// Progress already banked in the journal when this invocation started
/// (zero for a fresh sweep).
#[derive(Debug, Default)]
struct ResumedProgress {
    chunks: u64,
    cells: u64,
    quarantined: u64,
    retries: u64,
}

/// A cell the supervisor gave up on: its identity, seed, how many
/// attempts were made, and the last error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedCell {
    /// Grid index of the cell.
    pub cell: u64,
    /// The seed the cell ran with (for offline reproduction).
    pub seed: u64,
    /// Attempts made before quarantine.
    pub attempts: u32,
    /// The last attempt's error.
    pub error: String,
}

/// Outcome of a completed sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Master seed of the sweep.
    pub seed: u64,
    /// Grid size.
    pub total_cells: u64,
    /// Number of chunks the grid was split into.
    pub total_chunks: u64,
    /// Attempt budget per cell.
    pub max_attempts: u32,
    /// Workload descriptor (from the journal header).
    pub workload: String,
    /// Cells that completed and contributed to the snapshot.
    pub contributed_cells: u64,
    /// Retry attempts performed across all cells.
    pub retries: u64,
    /// Quarantined cells, sorted by cell index.
    pub poisoned: Vec<PoisonedCell>,
    /// The final merged `can-obs/v2` snapshot.
    pub snapshot: String,
    /// Where the snapshot was written (`<dir>/snapshot.json`).
    pub snapshot_path: PathBuf,
    /// Counter series in the merged snapshot (a cheap shape summary).
    pub snapshot_counters: usize,
}

impl SweepReport {
    /// Renders the deterministic text report. Everything in it is a pure
    /// function of the grid and seeds — never of shard count, kill/resume
    /// history, or this invocation's share of the work — so the rendering
    /// of a killed-and-resumed sweep diffs clean against an uninterrupted
    /// one.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep seed 0x{:08X}: {} cells in {} chunks, max {} attempt(s)/cell",
            self.seed, self.total_cells, self.total_chunks, self.max_attempts
        );
        let _ = writeln!(out, "workload {}", self.workload);
        let _ = writeln!(
            out,
            "contributed {} cells, quarantined {}, retries {}",
            self.contributed_cells,
            self.poisoned.len(),
            self.retries
        );
        for p in &self.poisoned {
            let _ = writeln!(
                out,
                "poisoned cell {} (seed 0x{:016X}, {} attempt(s)): {}",
                p.cell, p.seed, p.attempts, p.error
            );
        }
        let _ = writeln!(
            out,
            "snapshot {} bytes, {} counter series",
            self.snapshot.len(),
            self.snapshot_counters
        );
        out
    }
}

/// Why a sweep invocation stopped without a report.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem trouble (journal or snapshot).
    Io(String),
    /// The journal is corrupt beyond the tolerated torn tail, or belongs
    /// to a different grid/config.
    Journal(String),
    /// The RSS guard tripped. The journal is intact; resume with a bigger
    /// budget (or more shards of a smaller grid).
    MemoryLimit {
        /// Sampled resident set size, MiB.
        rss_mb: u64,
        /// The configured limit, MiB.
        limit_mb: u64,
    },
    /// The [`SweepConfig::stop_after_chunks`] test hook fired.
    Aborted {
        /// Chunk records appended by this invocation before the abort.
        chunks_done: u64,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(detail) => write!(f, "sweep I/O error: {detail}"),
            SweepError::Journal(detail) => write!(f, "sweep journal error: {detail}"),
            SweepError::MemoryLimit { rss_mb, limit_mb } => write!(
                f,
                "sweep stopped: RSS {rss_mb} MiB exceeds --max-rss-mb {limit_mb} \
                 (the journal is intact — resume to continue)"
            ),
            SweepError::Aborted { chunks_done } => {
                write!(f, "sweep aborted by test hook after {chunks_done} chunk(s)")
            }
        }
    }
}

impl std::error::Error for SweepError {}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct JournalHeader {
    seed: u64,
    total_cells: u64,
    chunk_cells: u64,
    max_attempts: u32,
    workload: String,
}

#[derive(Debug, Clone, PartialEq)]
struct ChunkRecord {
    chunk: u64,
    cells: u64,
    retries: u64,
    poisoned: Vec<PoisonedCell>,
    obs: String,
}

fn render_header(h: &JournalHeader) -> String {
    format!(
        "{{\"schema\":\"{}\",\"seed\":{},\"total_cells\":{},\"chunk_cells\":{},\"max_attempts\":{},\"workload\":\"{}\"}}\n",
        JOURNAL_SCHEMA,
        h.seed,
        h.total_cells,
        h.chunk_cells,
        h.max_attempts,
        json::escape(&h.workload)
    )
}

fn render_chunk(r: &ChunkRecord) -> String {
    let mut poisoned = String::new();
    for (i, p) in r.poisoned.iter().enumerate() {
        let _ = write!(
            poisoned,
            "{}{{\"cell\":{},\"seed\":{},\"attempts\":{},\"error\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            p.cell,
            p.seed,
            p.attempts,
            json::escape(&p.error)
        );
    }
    format!(
        "{{\"type\":\"chunk\",\"chunk\":{},\"cells\":{},\"retries\":{},\"poisoned\":[{}],\"obs\":\"{}\"}}\n",
        r.chunk,
        r.cells,
        r.retries,
        poisoned,
        json::escape(&r.obs)
    )
}

fn parse_header(doc: &JsonValue) -> Result<JournalHeader, String> {
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == JOURNAL_SCHEMA => {}
        other => return Err(format!("unsupported journal schema {other:?}")),
    }
    let u64_field = |name: &str| {
        doc.get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("header field '{name}' missing or not a u64"))
    };
    Ok(JournalHeader {
        seed: u64_field("seed")?,
        total_cells: u64_field("total_cells")?,
        chunk_cells: u64_field("chunk_cells")?,
        max_attempts: u32::try_from(u64_field("max_attempts")?)
            .map_err(|_| "max_attempts out of range".to_string())?,
        workload: doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("header field 'workload' missing")?
            .to_string(),
    })
}

fn parse_chunk(doc: &JsonValue) -> Result<ChunkRecord, String> {
    let u64_field = |name: &str| {
        doc.get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("chunk field '{name}' missing or not a u64"))
    };
    let mut poisoned = Vec::new();
    for (i, p) in doc
        .get("poisoned")
        .and_then(JsonValue::as_array)
        .ok_or("chunk field 'poisoned' missing")?
        .iter()
        .enumerate()
    {
        let field = |name: &str| {
            p.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("poisoned[{i}] field '{name}' missing"))
        };
        poisoned.push(PoisonedCell {
            cell: field("cell")?,
            seed: field("seed")?,
            attempts: u32::try_from(field("attempts")?)
                .map_err(|_| format!("poisoned[{i}] attempts out of range"))?,
            error: p
                .get("error")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("poisoned[{i}] field 'error' missing"))?
                .to_string(),
        });
    }
    Ok(ChunkRecord {
        chunk: u64_field("chunk")?,
        cells: u64_field("cells")?,
        retries: u64_field("retries")?,
        poisoned,
        obs: doc
            .get("obs")
            .and_then(JsonValue::as_str)
            .ok_or("chunk field 'obs' missing")?
            .to_string(),
    })
}

/// Rejects a chunk record that cannot belong to the sweep `header`
/// describes (whose `chunk_cells` and `max_attempts` are at least 1): an
/// index past the grid, a cell count other than the chunk's, more
/// quarantined cells than it holds, or more retries than its attempt
/// budget allows. Sums over checked records stay within the grid.
fn check_chunk(record: &ChunkRecord, header: &JournalHeader) -> Result<(), String> {
    let first = record
        .chunk
        .checked_mul(header.chunk_cells)
        .filter(|&first| first < header.total_cells)
        .ok_or("index past the grid")?;
    let cells = (header.total_cells - first).min(header.chunk_cells);
    if record.cells != cells {
        return Err(format!("{} cells, expected {cells}", record.cells));
    }
    if record.poisoned.len() as u64 > cells {
        return Err(format!(
            "{} quarantined of {cells} cells",
            record.poisoned.len()
        ));
    }
    let max_retries = cells.saturating_mul(u64::from(header.max_attempts - 1));
    if record.retries > max_retries {
        return Err(format!("{} retries, at most {max_retries}", record.retries));
    }
    Ok(())
}

/// A parsed journal: the header, every completed chunk record keyed by
/// chunk index, and the byte length of the valid prefix (everything after
/// it is a torn tail that a resuming writer must truncate away before
/// appending).
struct Journal {
    header: JournalHeader,
    chunks: BTreeMap<u64, ChunkRecord>,
    valid_len: u64,
}

/// Reads a journal. A torn final line — the only damage a `SIGKILL`
/// between `write` and `flush` can leave — is dropped (and excluded from
/// `valid_len`); corruption anywhere else is an error.
fn read_journal(path: &Path) -> Result<Journal, SweepError> {
    let text = fs::read_to_string(path)
        .map_err(|e| SweepError::Io(format!("cannot read {}: {e}", path.display())))?;
    let journal_err =
        |line: usize, detail: String| SweepError::Journal(format!("line {}: {detail}", line + 1));
    let lines: Vec<&str> = text.split('\n').collect();
    // A well-formed journal ends with '\n', so the final split segment is
    // empty; anything else is a torn tail and is dropped.
    let complete = match lines.last() {
        Some(&"") => &lines[..lines.len() - 1],
        Some(_) => &lines[..lines.len() - 1],
        None => &lines[..],
    };
    let mut header = None;
    let mut chunks = BTreeMap::new();
    let mut valid_len = 0u64;
    for (i, line) in complete.iter().enumerate() {
        let parsed = match json::parse(line) {
            Ok(value) => value,
            // A torn *final* complete-looking line (e.g. the filesystem
            // persisted a prefix of the record plus the newline) is
            // tolerated like a missing one; earlier lines must parse.
            Err(e) if i + 1 == complete.len() => {
                let _ = e;
                break;
            }
            Err(e) => return Err(journal_err(i, format!("unparsable record: {e}"))),
        };
        if i == 0 {
            header = Some(parse_header(&parsed).map_err(|d| journal_err(i, d))?);
            valid_len += line.len() as u64 + 1;
            continue;
        }
        match parsed.get("type").and_then(JsonValue::as_str) {
            Some("chunk") => {
                let record = parse_chunk(&parsed).map_err(|d| journal_err(i, d))?;
                chunks.insert(record.chunk, record);
                valid_len += line.len() as u64 + 1;
            }
            other => return Err(journal_err(i, format!("unknown record type {other:?}"))),
        }
    }
    let header = header.ok_or_else(|| SweepError::Journal("journal has no header".into()))?;
    Ok(Journal {
        header,
        chunks,
        valid_len,
    })
}

// ---------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------

/// Suppresses the default panic-hook stderr spam for panics the sweep
/// supervisor catches and classifies (threads named `sweep-…`); panics on
/// any other thread keep the previous hook's behavior.
fn install_quarantine_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let suppressed = thread::current()
                .name()
                .is_some_and(|name| name.starts_with("sweep-"));
            if !suppressed {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

enum AttemptOutcome {
    Completed(Registry),
    Retryable(String),
    Fatal(String),
}

fn attempt_inline(
    workload: &dyn SweepWorkload,
    cell: u64,
    seed: u64,
    attempt: u32,
) -> AttemptOutcome {
    let recorder = Recorder::enabled();
    match panic::catch_unwind(AssertUnwindSafe(|| {
        workload.run_cell(cell, seed, attempt, &recorder)
    })) {
        Ok(Ok(())) => AttemptOutcome::Completed(recorder.into_registry()),
        Ok(Err(e)) if e.retryable => AttemptOutcome::Retryable(e.message),
        Ok(Err(e)) => AttemptOutcome::Fatal(e.message),
        Err(payload) => {
            AttemptOutcome::Retryable(format!("panic: {}", panic_message(payload.as_ref())))
        }
    }
}

fn run_attempt(
    workload: &Arc<dyn SweepWorkload>,
    cell: u64,
    seed: u64,
    attempt: u32,
    timeout: Option<Duration>,
) -> AttemptOutcome {
    let Some(timeout) = timeout else {
        return attempt_inline(workload.as_ref(), cell, seed, attempt);
    };
    let (tx, rx) = mpsc::channel();
    let worker = Arc::clone(workload);
    let spawned = thread::Builder::new()
        .name(format!("sweep-cell-{cell}"))
        .spawn(move || {
            let _ = tx.send(attempt_inline(worker.as_ref(), cell, seed, attempt));
        });
    match spawned {
        Err(e) => AttemptOutcome::Retryable(format!("cannot spawn cell thread: {e}")),
        // A timed-out cell thread is abandoned (its result, if it ever
        // arrives, is dropped with the channel); the shard moves on.
        Ok(_detached) => match rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(_) => AttemptOutcome::Retryable(format!("timed out after {timeout:?}")),
        },
    }
}

/// Runs one cell to completion or quarantine; returns the cell's registry
/// (or the poison record) plus the number of retries performed.
fn supervise_cell(
    workload: &Arc<dyn SweepWorkload>,
    cell: u64,
    seed: u64,
    config: &SweepConfig,
) -> (Result<Registry, PoisonedCell>, u64) {
    let mut last_error = String::new();
    for attempt in 0..config.max_attempts {
        if attempt > 0 && !config.retry_backoff.is_zero() {
            thread::sleep(
                config
                    .retry_backoff
                    .saturating_mul(1u32 << (attempt - 1).min(16)),
            );
        }
        match run_attempt(workload, cell, seed, attempt, config.cell_timeout) {
            AttemptOutcome::Completed(registry) => return (Ok(registry), attempt as u64),
            AttemptOutcome::Fatal(error) => {
                return (
                    Err(PoisonedCell {
                        cell,
                        seed,
                        attempts: attempt + 1,
                        error,
                    }),
                    attempt as u64,
                )
            }
            AttemptOutcome::Retryable(error) => last_error = error,
        }
    }
    (
        Err(PoisonedCell {
            cell,
            seed,
            attempts: config.max_attempts,
            error: last_error,
        }),
        (config.max_attempts - 1) as u64,
    )
}

struct ChunkResult {
    chunk: u64,
    cells: u64,
    retries: u64,
    poisoned: Vec<PoisonedCell>,
    registry: Registry,
}

fn run_chunk(
    workload: &Arc<dyn SweepWorkload>,
    config: &SweepConfig,
    total_cells: u64,
    chunk: u64,
) -> ChunkResult {
    let first = chunk * config.chunk_cells;
    let last = (first + config.chunk_cells).min(total_cells);
    let mut registry = Registry::new();
    let mut poisoned = Vec::new();
    let mut retries = 0u64;
    for cell in first..last {
        let seed = derive_seed(config.seed, cell as usize);
        let (result, cell_retries) = supervise_cell(workload, cell, seed, config);
        retries += cell_retries;
        match result {
            // Merge and drop: per-cell state never outlives the cell.
            Ok(cell_registry) => registry.merge(&cell_registry),
            Err(poison) => poisoned.push(poison),
        }
    }
    ChunkResult {
        chunk,
        cells: last - first,
        retries,
        poisoned,
        registry,
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// The grid-defining parameters persisted in a sweep directory's journal
/// header — everything `experiments sweep --resume <dir>` needs to rebuild
/// the workload and config without the original command line.
#[derive(Debug, Clone)]
pub struct ResumeParams {
    /// Master seed of the original invocation.
    pub seed: u64,
    /// Chunk size of the original invocation.
    pub chunk_cells: u64,
    /// Attempt budget of the original invocation.
    pub max_attempts: u32,
    /// Workload descriptor (feed to [`workload_from_descriptor`]).
    pub workload: String,
}

/// Reads the resume parameters back from `<dir>/journal.jsonl`.
pub fn resume_params(dir: &Path) -> Result<ResumeParams, SweepError> {
    let journal = read_journal(&dir.join(JOURNAL_FILE))?;
    Ok(ResumeParams {
        seed: journal.header.seed,
        chunk_cells: journal.header.chunk_cells,
        max_attempts: journal.header.max_attempts,
        workload: journal.header.workload,
    })
}

/// The process's current resident set size in MiB, if the platform
/// exposes it (`/proc/self/status`). `None` disables the RSS guard
/// gracefully on platforms without procfs.
fn current_rss_mb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

/// Runs (or resumes) a sweep in `dir`.
///
/// If `dir` holds no journal, one is created and every chunk runs; if it
/// holds a journal for the *same* grid and config, only the chunks missing
/// from it run (resume); a journal for a different grid is an error. On
/// success the final merged snapshot is written to `<dir>/snapshot.json`
/// and returned in the report — built by merging the journal's chunk
/// snapshots from disk in chunk-index order, whatever order they were
/// completed or recovered in.
pub fn run_sweep(
    workload: Arc<dyn SweepWorkload>,
    config: &SweepConfig,
    dir: &Path,
) -> Result<SweepReport, SweepError> {
    if config.chunk_cells == 0 {
        return Err(SweepError::Journal("chunk_cells must be ≥ 1".into()));
    }
    if config.max_attempts == 0 {
        return Err(SweepError::Journal("max_attempts must be ≥ 1".into()));
    }
    fs::create_dir_all(dir)
        .map_err(|e| SweepError::Io(format!("cannot create {}: {e}", dir.display())))?;
    let journal_path = dir.join(JOURNAL_FILE);
    let total_cells = workload.total_cells();
    let total_chunks = total_cells.div_ceil(config.chunk_cells);
    let header = JournalHeader {
        seed: config.seed,
        total_cells,
        chunk_cells: config.chunk_cells,
        max_attempts: config.max_attempts,
        workload: workload.descriptor(),
    };

    let mut resumed = ResumedProgress::default();
    let already_done: std::collections::BTreeSet<u64> = if journal_path.exists() {
        let existing = read_journal(&journal_path)?;
        if existing.header != header {
            return Err(SweepError::Journal(format!(
                "journal belongs to a different sweep (journal: {:?}, requested: {header:?})",
                existing.header
            )));
        }
        // Cut away any torn tail a crash left, so this run's appends start
        // on a record boundary instead of gluing onto half a line.
        let on_disk = fs::metadata(&journal_path)
            .map_err(|e| SweepError::Io(format!("cannot stat {}: {e}", journal_path.display())))?
            .len();
        if on_disk > existing.valid_len {
            OpenOptions::new()
                .write(true)
                .open(&journal_path)
                .and_then(|f| f.set_len(existing.valid_len))
                .map_err(|e| {
                    SweepError::Io(format!(
                        "cannot truncate torn tail of {}: {e}",
                        journal_path.display()
                    ))
                })?;
        }
        for record in existing.chunks.values() {
            check_chunk(record, &header).map_err(|detail| {
                SweepError::Journal(format!("chunk {}: {detail}", record.chunk))
            })?;
            resumed.chunks += 1;
            resumed.cells += record.cells;
            resumed.quarantined += record.poisoned.len() as u64;
            resumed.retries += record.retries;
        }
        existing.chunks.keys().copied().collect()
    } else {
        fs::write(&journal_path, render_header(&header))
            .map_err(|e| SweepError::Io(format!("cannot write {}: {e}", journal_path.display())))?;
        Default::default()
    };
    let pending: Vec<u64> = (0..total_chunks)
        .filter(|c| !already_done.contains(c))
        .collect();
    let mut heartbeat = config
        .heartbeat
        .clone()
        .map(|hc| Heartbeat::new(hc, total_cells, total_chunks, &resumed));

    if !pending.is_empty() {
        install_quarantine_hook();
        let queue = Arc::new(Mutex::new(
            pending.iter().copied().collect::<VecDeque<u64>>(),
        ));
        let (tx, rx) = mpsc::channel::<ChunkResult>();
        let shards = config.shards.max(1).min(pending.len());
        let mut workers = Vec::with_capacity(shards);
        for w in 0..shards {
            let queue = Arc::clone(&queue);
            let tx = tx.clone();
            let workload = Arc::clone(&workload);
            let config = config.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("sweep-worker-{w}"))
                    .spawn(move || loop {
                        let next = queue.lock().expect("queue lock").pop_front();
                        let Some(chunk) = next else { break };
                        let result = run_chunk(&workload, &config, total_cells, chunk);
                        if tx.send(result).is_err() {
                            break; // supervisor gone (abort / guard trip)
                        }
                    })
                    .map_err(|e| SweepError::Io(format!("cannot spawn shard worker: {e}")))?,
            );
        }
        drop(tx);

        let mut journal = OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .map_err(|e| SweepError::Io(format!("cannot open {}: {e}", journal_path.display())))?;
        let stop_dispatch = || queue.lock().expect("queue lock").clear();
        let mut written = 0u64;
        while written < pending.len() as u64 {
            let result = match rx.recv() {
                Ok(result) => result,
                Err(_) => {
                    return Err(SweepError::Journal(
                        "shard workers exited before completing the sweep".into(),
                    ))
                }
            };
            if let Some(hb) = heartbeat.as_mut() {
                hb.on_chunk(&result);
            }
            let record = ChunkRecord {
                chunk: result.chunk,
                cells: result.cells,
                retries: result.retries,
                poisoned: result.poisoned,
                obs: result.registry.snapshot_json(),
            };
            journal
                .write_all(render_chunk(&record).as_bytes())
                .and_then(|()| journal.flush())
                .map_err(|e| {
                    SweepError::Io(format!("cannot append to {}: {e}", journal_path.display()))
                })?;
            written += 1;
            // Beat only once the chunk is durably journaled, so the feed
            // never claims progress a crash could roll back.
            if let Some(hb) = heartbeat.as_mut() {
                hb.beat(false);
            }
            if let (Some(limit_mb), Some(rss_mb)) = (config.max_rss_mb, current_rss_mb()) {
                if rss_mb > limit_mb {
                    stop_dispatch();
                    return Err(SweepError::MemoryLimit { rss_mb, limit_mb });
                }
            }
            if config.stop_after_chunks == Some(written) {
                stop_dispatch();
                return Err(SweepError::Aborted {
                    chunks_done: written,
                });
            }
        }
        for worker in workers {
            let _ = worker.join();
        }
    }
    // Final beat regardless of interval, so the sinks always end on the
    // completed state (also emitted when resume found nothing to do).
    if let Some(hb) = heartbeat.as_mut() {
        hb.beat(true);
    }

    // Finalize from the journal — the one code path shared by fresh,
    // sharded, killed-and-resumed and already-complete sweeps, so the
    // snapshot round trip is exercised on every run, not only after a
    // crash.
    let journal = read_journal(&journal_path)?;
    let (header, chunks) = (journal.header, journal.chunks);
    let complete = chunks.len() as u64 == total_chunks
        && chunks.keys().next_back().is_none_or(|&k| k < total_chunks);
    if !complete {
        return Err(SweepError::Journal(format!(
            "journal incomplete after run: {} of {total_chunks} chunks present",
            chunks.len()
        )));
    }
    let mut merged = Registry::new();
    let mut poisoned = Vec::new();
    let mut retries = 0u64;
    for record in chunks.values() {
        merged.merge_snapshot_json(&record.obs).map_err(|e| {
            SweepError::Journal(format!("chunk {} snapshot corrupt: {e}", record.chunk))
        })?;
        poisoned.extend(record.poisoned.iter().cloned());
        retries += record.retries;
    }
    poisoned.sort_by_key(|p| p.cell);
    let snapshot = merged.snapshot_json();
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    fs::write(&snapshot_path, &snapshot)
        .map_err(|e| SweepError::Io(format!("cannot write {}: {e}", snapshot_path.display())))?;
    Ok(SweepReport {
        seed: header.seed,
        total_cells,
        total_chunks,
        max_attempts: header.max_attempts,
        workload: header.workload,
        contributed_cells: total_cells - poisoned.len() as u64,
        retries,
        poisoned,
        snapshot_counters: merged.counters().count(),
        snapshot,
        snapshot_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_records_round_trip() {
        let header = JournalHeader {
            seed: 0xDEAD_BEEF,
            total_cells: 100,
            chunk_cells: 16,
            max_attempts: 3,
            workload: "{\"kind\":\"synthetic\",\"cells\":100,\"work\":1}".into(),
        };
        let record = ChunkRecord {
            chunk: 4,
            cells: 16,
            retries: 2,
            poisoned: vec![PoisonedCell {
                cell: 65,
                seed: 42,
                attempts: 3,
                error: "panic: \"quoted\"\nmultiline".into(),
            }],
            obs: Registry::new().snapshot_json(),
        };
        let text = render_header(&header) + &render_chunk(&record);
        let dir = std::env::temp_dir().join(format!("sweep_unit_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        fs::write(&path, &text).unwrap();
        let journal = read_journal(&path).unwrap();
        assert_eq!(journal.header, header);
        assert_eq!(journal.chunks.len(), 1);
        assert_eq!(journal.chunks[&4], record);
        assert_eq!(journal.valid_len, text.len() as u64);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn descriptors_round_trip_through_the_parser() {
        for workload in [
            Arc::new(SyntheticSweep { cells: 7, work: 3 }) as Arc<dyn SweepWorkload>,
            Arc::new(CampaignSweep::new(2, 2.5, SimMode::Packed)),
            Arc::new(Chaotic {
                inner: Arc::new(SyntheticSweep { cells: 9, work: 0 }),
                chaos: ChaosSpec {
                    panic_every: 4,
                    panic_transient: true,
                    hang_every: 0,
                    hang_transient: false,
                    hang_ms: 0,
                },
            }),
        ] {
            let descriptor = workload.descriptor();
            let rebuilt = workload_from_descriptor(&descriptor).unwrap();
            assert_eq!(rebuilt.descriptor(), descriptor);
            assert_eq!(rebuilt.total_cells(), workload.total_cells());
        }
        assert!(workload_from_descriptor("{\"kind\":\"nope\"}").is_err());
    }

    #[test]
    fn chaosless_chaotic_wrapper_is_transparent() {
        let plain = SyntheticSweep { cells: 3, work: 1 };
        let wrapped = Chaotic {
            inner: Arc::new(SyntheticSweep { cells: 3, work: 1 }),
            chaos: ChaosSpec::NONE,
        };
        assert_eq!(plain.descriptor(), wrapped.descriptor());
    }

    #[test]
    fn fatal_cell_errors_skip_retries() {
        struct AlwaysFatal;
        impl SweepWorkload for AlwaysFatal {
            fn total_cells(&self) -> u64 {
                1
            }
            fn run_cell(&self, _: u64, _: u64, _: u32, _: &Recorder) -> Result<(), CellError> {
                Err(CellError::fatal("bad scenario"))
            }
            fn descriptor(&self) -> String {
                "{\"kind\":\"test\"}".into()
            }
        }
        let workload: Arc<dyn SweepWorkload> = Arc::new(AlwaysFatal);
        let config = SweepConfig::default();
        let (result, retries) = supervise_cell(&workload, 0, 1, &config);
        let poison = result.unwrap_err();
        assert_eq!(poison.attempts, 1, "fatal errors are not retried");
        assert_eq!(retries, 0);
        assert_eq!(poison.error, "bad scenario");
    }

    #[test]
    fn heartbeat_sinks_fill_and_the_snapshot_stays_byte_identical() {
        let dir = std::env::temp_dir().join(format!("sweep_heartbeat_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let progress = dir.join("progress.jsonl");
        let prom = dir.join("sweep.prom");
        let workload: Arc<dyn SweepWorkload> = Arc::new(SyntheticSweep {
            cells: 40,
            work: 10,
        });
        let config = SweepConfig {
            chunk_cells: 8,
            heartbeat: Some(HeartbeatConfig {
                progress_out: Some(progress.clone()),
                prom_out: Some(prom.clone()),
                min_interval_secs: 0, // beat on every chunk
            }),
            ..SweepConfig::default()
        };
        let with_hb = run_sweep(Arc::clone(&workload), &config, &dir.join("hb")).unwrap();

        let feed = fs::read_to_string(&progress).unwrap();
        let beats: Vec<&str> = feed.lines().collect();
        // One beat per chunk plus the forced final beat.
        assert_eq!(beats.len(), 6, "feed:\n{feed}");
        for line in &beats {
            let doc = json::parse(line).unwrap();
            assert_eq!(
                doc.get("schema").and_then(JsonValue::as_str),
                Some(PROGRESS_SCHEMA)
            );
            assert_eq!(doc.get("total_cells").and_then(JsonValue::as_u64), Some(40));
        }
        let last = json::parse(beats.last().unwrap()).unwrap();
        assert_eq!(last.get("cells_done").and_then(JsonValue::as_u64), Some(40));
        assert_eq!(
            last.get("complete").and_then(JsonValue::as_bool),
            Some(true)
        );

        let prom_text = fs::read_to_string(&prom).unwrap();
        assert!(prom_text.contains("michican_sweep_cells_done 40"));
        assert!(prom_text.contains("michican_sweep_chunks_done 5"));
        assert!(
            !prom.with_extension("tmp").exists(),
            "the temp file must be renamed away"
        );

        // The heartbeat is pure telemetry: the merged snapshot is
        // byte-identical to a sweep without it.
        let silent = SweepConfig {
            chunk_cells: 8,
            ..SweepConfig::default()
        };
        let without_hb = run_sweep(workload, &silent, &dir.join("plain")).unwrap();
        assert_eq!(with_hb.snapshot, without_hb.snapshot);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rss_sampler_reports_on_linux() {
        if let Some(rss) = current_rss_mb() {
            assert!(rss > 0, "a live test process occupies memory");
        }
    }
}
