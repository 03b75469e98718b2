//! The traced run (`--trace 1`): per-layer metrics.
//!
//! 1. **Runner passes.** The grid runs through `bench::runner::ExperimentPlan`
//!    calling the public per-cell entry points (`campaign::run_cell_with`,
//!    `idsbench::run_ids_cell`, `attackzoo::run_zoo_cell`), with a span per
//!    cell (cell id, thread, start, end). On `zoo-observed` the per-cell
//!    registries and journals are merged, snapshotted, exported and turned
//!    into a chrome trace here, each step timed. On `campaign` the
//!    passes alternate between 1 shard and one shard per core, for the
//!    scaling diagnosis.
//! 2. **Wrapped pass.** Every cell is rebuilt (see [`crate::rebuild`]) with
//!    timed forwarders around its trait objects, run serially, and its
//!    outcome — on `zoo-observed` also its metrics snapshot and journal
//!    export — must equal the unwrapped cell's.
//! 3. **Replay and attribution** on one cell picked by the seed.
//!
//! Every cell outcome of the runner passes is also checked against the
//! lockstep serial reference of the whole grid.

use std::fmt::Write as _;
use std::time::Instant;

use bench::attackzoo::{self, ZooCell};
use bench::campaign::{self, FaultSpec, Traffic};
use bench::idsbench::{self, IdsCell};
use bench::runner::{derive_seed, ExecOpts, ExperimentPlan};
use can_core::BusSpeed;
use can_obs::{Journal, JournalStore, Recorder, Registry};
use can_sim::{FallbackCause, Simulator};
use michican::prelude::*;

use crate::rebuild::{self, Layer, Wiring};
use crate::replay::{self, Replay};
use crate::workload::{fnv64, Digest, Inputs, Workload, IDS_HORIZON_BITS, ZOO_HORIZON_BITS};
use crate::wrap::{self, Calibration, Tally};
use crate::{host, metric, stats, Metric, Outcome};

/// Directory (relative to the working directory) the run files go to.
pub const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy)]
enum CellKey {
    Campaign((Traffic, FaultSpec)),
    Ids(IdsCell),
    Zoo(ZooCell),
}

fn cell_keys(inputs: &Inputs) -> (Vec<CellKey>, u64) {
    match inputs.workload {
        Workload::Campaign => {
            let keys = [Traffic::Benign, Traffic::Attack]
                .into_iter()
                .flat_map(|t| campaign::default_grid().into_iter().map(move |f| (t, f)))
                .map(CellKey::Campaign)
                .collect();
            (keys, inputs.campaign.seed)
        }
        Workload::Ids => (
            inputs.ids_cells.iter().copied().map(CellKey::Ids).collect(),
            0,
        ),
        Workload::ZooObserved => (
            inputs.zoo_cells.iter().copied().map(CellKey::Zoo).collect(),
            0,
        ),
    }
}

/// A zoo cell's metrics registry and journal.
struct CellObs {
    registry: Registry,
    journal: JournalStore,
}

impl CellObs {
    fn digest(&self) -> (u64, u64) {
        let journal = Journal::enabled();
        journal.merge_store(&self.journal);
        (
            fnv64(self.registry.snapshot_json().as_bytes()),
            fnv64(journal.export_jsonl().as_bytes()),
        )
    }
}

/// Runs one cell through the public `bench` per-cell entry point, exactly
/// as the `bench` grid function would (same seed, same sinks).
fn library_cell(inputs: &Inputs, key: CellKey, seed: u64) -> (String, Option<CellObs>) {
    let packed = ExecOpts::new().packed();
    match key {
        CellKey::Campaign((traffic, fault)) => {
            let o = campaign::run_cell_with(traffic, fault, seed, inputs.campaign.run_ms, &packed);
            (format!("{o:?}"), None)
        }
        CellKey::Ids(cell) => {
            let o = idsbench::run_ids_cell(&cell, &inputs.detectors, IDS_HORIZON_BITS, &packed);
            (format!("{o:?}"), None)
        }
        CellKey::Zoo(cell) => observed_cell(|opts| {
            format!(
                "{:?}",
                attackzoo::run_zoo_cell(&cell, ZOO_HORIZON_BITS, opts)
            )
        }),
    }
}

/// Runs `body` with fresh per-cell sinks the way
/// `ExperimentPlan::run_observed` does, and returns the sinks' contents.
fn observed_cell(body: impl FnOnce(&ExecOpts) -> String) -> (String, Option<CellObs>) {
    let recorder = Recorder::enabled();
    let journal = Journal::enabled();
    let opts = ExecOpts::new()
        .packed()
        .with_recorder(recorder.clone())
        .with_journal(journal.clone());
    let wall = recorder.span("bench_cell_wall");
    let outcome = body(&opts);
    drop(wall);
    recorder.inc("bench_cells_total");
    drop(opts);
    let obs = CellObs {
        registry: recorder.into_registry(),
        journal: journal.into_store(),
    };
    (outcome, Some(obs))
}

/// Runs one rebuilt cell under `wiring`; returns the rendered outcome,
/// the zoo sinks and the finished simulator.
fn rebuilt_cell(
    inputs: &Inputs,
    key: CellKey,
    seed: u64,
    wiring: &mut Wiring,
) -> (String, Option<CellObs>, Simulator) {
    let packed = ExecOpts::new().packed();
    match key {
        CellKey::Campaign(cell) => {
            let (o, sim) =
                rebuild::campaign_cell(cell, seed, inputs.campaign.run_ms, &packed, wiring);
            (format!("{o:?}"), None, sim)
        }
        CellKey::Ids(cell) => {
            let (o, sim) =
                rebuild::ids_cell(&cell, &inputs.detectors, IDS_HORIZON_BITS, &packed, wiring);
            (format!("{o:?}"), None, sim)
        }
        CellKey::Zoo(cell) => {
            let mut sim = None;
            let (outcome, obs) = observed_cell(|opts| {
                let (o, s) = rebuild::zoo_cell(&cell, ZOO_HORIZON_BITS, opts, wiring);
                sim = Some(s);
                format!("{o:?}")
            });
            (outcome, obs, sim.expect("the cell ran"))
        }
    }
}

/// Wall and CPU seconds of one timed step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub wall_s: f64,
    /// CPU seconds of the calling thread.
    pub cpu_s: f64,
}

/// Runs `f` and times it.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = host::thread_cpu_seconds();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = host::thread_cpu_seconds() - cpu0;
    (out, Timed { wall_s, cpu_s })
}

/// One cell-level span of a runner pass.
#[derive(Debug, Clone)]
struct CellSpan {
    cell: usize,
    thread: String,
    start_ns: u64,
    end_ns: u64,
    /// CPU seconds of the cell's thread inside the span.
    cpu_s: f64,
}

impl CellSpan {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Timings of the `can_obs` / `can_trace` steps of one zoo pass.
#[derive(Debug, Clone, Default)]
struct ObsTimes {
    merge: Timed,
    export: Timed,
    chrome: Timed,
    journal_events: f64,
    snapshot_bytes: f64,
    /// Hashes of the merged snapshot, journal export and chrome trace.
    artifacts: Vec<u64>,
}

/// One pass over the whole grid through the per-cell entry points.
pub struct RunnerPass {
    shards: usize,
    wall_s: f64,
    cpu_s: f64,
    spans: Vec<CellSpan>,
    cells: Vec<String>,
    cell_obs: Vec<Option<(u64, u64)>>,
    obs: Option<ObsTimes>,
}

impl RunnerPass {
    /// The pass's timed units in a fixed order: each cell, then (on
    /// `zoo-observed`) the merge, the snapshot and journal export, and the
    /// chrome trace. Together they are the grid's whole work.
    pub fn units(&self) -> Vec<Timed> {
        let cells = self.spans.iter().map(|s| Timed {
            wall_s: s.secs(),
            cpu_s: s.cpu_s,
        });
        let steps = self.obs.iter().flat_map(|o| [o.merge, o.export, o.chrome]);
        cells.chain(steps).collect()
    }

    /// The pass's digest, comparable with [`runner_reference`].
    pub fn digest(&self) -> Digest {
        Digest {
            cells: self.cells.iter().map(|c| fnv64(c.as_bytes())).collect(),
            artifacts: self
                .obs
                .as_ref()
                .map_or_else(Vec::new, |o| o.artifacts.clone()),
        }
    }

    fn busy_s(&self) -> f64 {
        self.spans.iter().map(CellSpan::secs).sum()
    }

    fn cell_ms(&self) -> Vec<f64> {
        self.spans.iter().map(|s| s.secs() * 1e3).collect()
    }
}

/// The lockstep serial reference of the whole grid, as a runner pass
/// digests it. A runner pass renders no grid table, so only the cells and
/// (on the zoo) the merged can_obs artifacts are compared.
pub fn runner_reference(inputs: &Inputs) -> Option<Digest> {
    crate::reference(inputs).map(|r| Digest {
        cells: r.cells,
        artifacts: r.artifacts.get(1..).unwrap_or_default().to_vec(),
    })
}

/// Runs the grid once on `shards` workers, timing every cell.
pub fn runner_pass(inputs: &Inputs, epoch: Instant, shards: usize) -> RunnerPass {
    let (keys, master) = cell_keys(inputs);
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let results = ExperimentPlan::new(keys, master)
        .with_shards(shards)
        .run(|i, seed, key| {
            let start_ns = epoch.elapsed().as_nanos() as u64;
            let cpu0 = host::thread_cpu_seconds();
            let (outcome, obs) = library_cell(inputs, key, seed);
            let span = CellSpan {
                cell: i,
                thread: format!("{:?}", std::thread::current().id()),
                start_ns,
                end_ns: epoch.elapsed().as_nanos() as u64,
                cpu_s: host::thread_cpu_seconds() - cpu0,
            };
            (outcome, obs, span)
        });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let mut cells = Vec::new();
    let mut spans = Vec::new();
    let mut stores = Vec::new();
    for (outcome, obs, span) in results {
        cells.push(outcome);
        spans.push(span);
        stores.push(obs);
    }
    let obs = (inputs.workload == Workload::ZooObserved).then(|| {
        let recorder = Recorder::enabled();
        let journal = Journal::enabled();
        let ((), merge) = timed(|| {
            for cell in stores.iter().flatten() {
                recorder.merge_registry(&cell.registry);
                journal.merge_store(&cell.journal);
            }
        });
        let ((snapshot, export), export_t) =
            timed(|| (recorder.snapshot_json(), journal.export_jsonl()));
        let (chrome, chrome_t) =
            timed(|| can_trace::chrome_trace_json(&export).expect("a journal export converts"));
        ObsTimes {
            merge,
            export: export_t,
            chrome: chrome_t,
            journal_events: journal.with_store(JournalStore::len).unwrap_or(0) as f64,
            snapshot_bytes: snapshot.len() as f64,
            artifacts: [snapshot, export, chrome]
                .iter()
                .map(|a| fnv64(a.as_bytes()))
                .collect(),
        }
    });
    RunnerPass {
        shards,
        wall_s,
        cpu_s,
        spans,
        cells,
        cell_obs: stores
            .iter()
            .map(|o| o.as_ref().map(CellObs::digest))
            .collect(),
        obs,
    }
}

/// Kernel telemetry summed over cells.
#[derive(Debug, Clone, Default)]
struct Telemetry {
    lockstep_bits: u64,
    packed_bits: u64,
    skipped_bits: u64,
    stretches: u64,
    stretch_bits: u64,
    fallbacks: [u64; 8],
}

impl Telemetry {
    fn of(sim: &Simulator) -> Telemetry {
        let t = sim.kernel_telemetry();
        let mut fallbacks = [0; 8];
        for (slot, cause) in fallbacks.iter_mut().zip(FallbackCause::ALL) {
            *slot = t.fallback_count(cause);
        }
        Telemetry {
            lockstep_bits: t.lockstep_bits(),
            packed_bits: t.packed_bits(),
            skipped_bits: t.skipped_bits(),
            stretches: t.stretch_lengths().count(),
            stretch_bits: t.stretch_lengths().sum(),
            fallbacks,
        }
    }

    fn add(&mut self, o: &Telemetry) {
        self.lockstep_bits += o.lockstep_bits;
        self.packed_bits += o.packed_bits;
        self.skipped_bits += o.skipped_bits;
        self.stretches += o.stretches;
        self.stretch_bits += o.stretch_bits;
        for (a, b) in self.fallbacks.iter_mut().zip(o.fallbacks) {
            *a += b;
        }
    }

    fn total_bits(&self) -> u64 {
        self.lockstep_bits + self.packed_bits + self.skipped_bits
    }

    fn accel_share(&self) -> f64 {
        stats::ratio(
            (self.packed_bits + self.skipped_bits) as f64,
            self.total_bits() as f64,
        )
    }

    fn top_fallback(&self) -> &'static str {
        let (i, _) = self
            .fallbacks
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| **n)
            .expect("eight causes");
        FallbackCause::ALL[i].label()
    }
}

/// What the wrapped run of one cell recorded.
struct CellTrace {
    wall_ns: f64,
    nodes: usize,
    events: u64,
    telemetry: Telemetry,
    layers: Vec<(Layer, Tally)>,
}

impl CellTrace {
    fn layer(&self, layer: Layer) -> Tally {
        let mut sum = Tally::default();
        for (l, t) in &self.layers {
            if *l == layer {
                sum.add(t);
            }
        }
        sum
    }

    /// Net nanoseconds spent inside every wrapped layer.
    fn wrapped_net_ns(&self, cal: &Calibration) -> f64 {
        self.layers
            .iter()
            .map(|(_, t)| cal.net_ns(t.ns(), t.calls()))
            .sum()
    }

    /// The simulator's own time in this cell: the untraced wall time of
    /// the same cell minus the wrapped layers' net time.
    fn sim_self_ns(&self, cal: &Calibration, unwrapped_wall_ns: f64) -> f64 {
        (unwrapped_wall_ns - self.wrapped_net_ns(cal)).max(0.0)
    }
}

/// The cell's defender FSM, for the FSM-step replay.
fn defender_fsm(inputs: &Inputs) -> DetectionFsm {
    if inputs.workload == Workload::Campaign {
        let (matrix, flaky) = crate::workload::campaign_matrix(BusSpeed::K500);
        let mut ids = matrix.ids();
        ids.push(flaky.id);
        DetectionFsm::for_monitor(&EcuList::new(ids).expect("campaign ids are distinct"))
    } else {
        DetectionFsm::for_ecu(&EcuList::from_raw(&[attackzoo::ZOO_VICTIM_ID]), 0)
    }
}

struct Attribution {
    wall_ns: f64,
    bits: u64,
    terms: Vec<(&'static str, f64)>,
}

impl Attribution {
    fn explained_ns(&self) -> f64 {
        self.terms.iter().map(|(_, ns)| ns).sum()
    }

    fn residue_share(&self) -> f64 {
        stats::ratio(self.wall_ns - self.explained_ns(), self.wall_ns)
    }
}

pub fn run(inputs: &Inputs, seed: u64, seconds: u64, setup_s: f64) -> Outcome {
    let epoch = Instant::now();
    let cal = Calibration::measure();
    let (keys, master) = cell_keys(inputs);
    let n_cells = keys.len();
    let shards = if inputs.workload == Workload::Campaign {
        bench::runner::available_cores()
    } else {
        1
    };
    let shard_counts: Vec<usize> = if shards > 1 { vec![1, shards] } else { vec![1] };

    // 1. Runner passes, for about half the run budget.
    let mut passes: Vec<RunnerPass> = Vec::new();
    while passes.len() < shard_counts.len() || epoch.elapsed().as_secs_f64() < seconds as f64 / 2.0
    {
        let s = shard_counts[passes.len() % shard_counts.len()];
        passes.push(runner_pass(inputs, epoch, s));
    }
    let serial: Vec<&RunnerPass> = passes.iter().filter(|p| p.shards == 1).collect();
    let fanned: Vec<&RunnerPass> = passes.iter().filter(|p| p.shards == shards).collect();
    // Unwrapped wall time of each cell: its median over the serial passes.
    let unwrapped_cell_ns: Vec<f64> = (0..n_cells)
        .map(|i| {
            let v: Vec<f64> = serial.iter().map(|p| p.spans[i].secs() * 1e9).collect();
            stats::median(&v)
        })
        .collect();

    // 2. The wrapped pass.
    let mut failed = 0usize;
    let mut attempted = 0usize;
    let mut traces = Vec::with_capacity(n_cells);
    let mut wrapped_spans = Vec::with_capacity(n_cells);
    for (i, key) in keys.iter().enumerate() {
        let mut wiring = Wiring::wrapped();
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let (outcome, obs, sim) = rebuilt_cell(inputs, *key, derive_seed(master, i), &mut wiring);
        let wall_ns = t.elapsed().as_nanos() as f64;
        wrapped_spans.push(CellSpan {
            cell: i,
            thread: format!("{:?}", std::thread::current().id()),
            start_ns,
            end_ns: start_ns + wall_ns as u64,
            cpu_s: 0.0,
        });
        attempted += 1;
        let same = outcome == serial[0].cells[i]
            && obs.as_ref().map(CellObs::digest) == serial[0].cell_obs[i];
        if !same {
            failed += 1;
            eprintln!("wrapped cell {i} differs from the unwrapped cell:\n  wrapped   {outcome}\n  unwrapped {}", serial[0].cells[i]);
        }
        traces.push(CellTrace {
            wall_ns,
            nodes: sim.node_count(),
            events: sim.events().len() as u64,
            telemetry: Telemetry::of(&sim),
            layers: wiring
                .tallies
                .iter()
                .map(|(l, t)| (*l, t.borrow().clone()))
                .collect(),
        });
    }

    // 3. Replay and attribution on one cell picked by the seed: the first
    // cell from `seed % cells` on whose bus frames completed (a bit-level
    // attacker can destroy every frame of an undefended cell).
    let (pick, frames, bus) = (0..n_cells)
        .map(|k| ((seed % n_cells as u64) as usize + k) % n_cells)
        .find_map(|i| {
            let (mut capture, frames) = Wiring::capturing(inputs.bits_per_cell() as usize);
            let (_, _, sim) = rebuilt_cell(inputs, keys[i], derive_seed(master, i), &mut capture);
            let frames = frames.take();
            let bus = sim.trace().expect("the capture run traces").snapshot();
            (!frames.is_empty()).then_some((i, frames, bus))
        })
        .expect("some cell of every grid completes frames");
    let replay = replay::measure(&frames, &bus, &defender_fsm(inputs));
    let picked = &traces[pick];
    let mut attribution = Attribution {
        wall_ns: unwrapped_cell_ns[pick],
        bits: picked.telemetry.total_bits(),
        terms: vec![
            (
                "controller+rx_parser (replay ns/bit x lockstep node-bits)",
                replay.controller_ns_per_bit
                    * picked.telemetry.lockstep_bits as f64
                    * picked.nodes as f64,
            ),
            (
                "stuff_frame (replay ns x frames)",
                replay.stuff_frame_ns * replay.frames_completed as f64,
            ),
            ("app (wrapped, net)", net(&cal, &picked.layer(Layer::App))),
            (
                "michican (wrapped, net)",
                net(&cal, &picked.layer(Layer::MichiCan)),
            ),
            (
                "can_attacks (wrapped, net)",
                net(&cal, &picked.layer(Layer::Attacks)),
            ),
            (
                "parrot (wrapped, net)",
                net(&cal, &picked.layer(Layer::Parrot)),
            ),
            (
                "can_ids (wrapped, net)",
                net(&cal, &picked.layer(Layer::Ids)),
            ),
        ],
    };
    if let CellKey::Zoo(cell) = keys[pick] {
        // The simulator's journal and recorder emission cannot be wrapped;
        // the same cell run with both sinks off bounds it from outside.
        let unobserved: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                attackzoo::run_zoo_cell(&cell, ZOO_HORIZON_BITS, &ExecOpts::new().packed());
                t.elapsed().as_nanos() as f64
            })
            .collect();
        attribution.terms.push((
            "can_obs sinks (observed minus unobserved wall)",
            (attribution.wall_ns - stats::median(&unobserved)).max(0.0),
        ));
    }

    // 4. The lockstep serial reference of the whole grid.
    let reference = runner_reference(inputs);
    for pass in &passes {
        attempted += n_cells;
        failed += reference
            .as_ref()
            .map_or(n_cells, |r| pass.digest().failed_cells(r));
    }

    let metrics = layer_metrics(
        shards,
        &cal,
        &traces,
        &passes,
        &serial,
        &fanned,
        &replay,
        &attribution,
        &unwrapped_cell_ns,
    );
    let mut notes = String::new();
    report(
        &mut notes,
        inputs,
        shards,
        &cal,
        &traces,
        &serial,
        &fanned,
        &attribution,
        pick,
        setup_s,
    );
    eprint!("{notes}");
    write_spans(inputs, seed, &passes, &wrapped_spans, &traces, &notes);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn net(cal: &Calibration, t: &Tally) -> f64 {
    cal.net_ns(t.ns(), t.calls())
}

fn seam_net_s(cal: &Calibration, t: &Tally, slot: usize) -> f64 {
    cal.net_ns(t.seams[slot].ns, t.seams[slot].calls) * 1e-9
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    shards: usize,
    cal: &Calibration,
    traces: &[CellTrace],
    passes: &[RunnerPass],
    serial: &[&RunnerPass],
    fanned: &[&RunnerPass],
    replay: &Replay,
    attribution: &Attribution,
    unwrapped_cell_ns: &[f64],
) -> Vec<Metric> {
    let mut telemetry = Telemetry::default();
    let mut events = 0u64;
    let mut self_ns = 0.0;
    let mut wrapped_ns = 0.0;
    for (t, unwrapped_ns) in traces.iter().zip(unwrapped_cell_ns) {
        telemetry.add(&t.telemetry);
        events += t.events;
        self_ns += t.sim_self_ns(cal, *unwrapped_ns);
        wrapped_ns += t.wall_ns;
    }
    let layer = |l: Layer| {
        let mut sum = Tally::default();
        for t in traces {
            sum.add(&t.layer(l));
        }
        sum
    };
    let (app, mc, atk, parrot, ids) = (
        layer(Layer::App),
        layer(Layer::MichiCan),
        layer(Layer::Attacks),
        layer(Layer::Parrot),
        layer(Layer::Ids),
    );
    let bits = telemetry.total_bits();

    let mut m = vec![
        metric("can_sim.self_s", self_ns * 1e-9, "s"),
        metric(
            "can_sim.self_ns_per_bit",
            stats::ratio(self_ns, bits as f64),
            "ns",
        ),
        metric("can_sim.events_logged", events as f64, "count"),
        metric(
            "can_sim.lockstep_bits",
            telemetry.lockstep_bits as f64,
            "bits",
        ),
        metric("can_sim.packed_bits", telemetry.packed_bits as f64, "bits"),
        metric(
            "can_sim.skipped_bits",
            telemetry.skipped_bits as f64,
            "bits",
        ),
        metric("can_sim.accel_share", telemetry.accel_share(), "ratio"),
        metric(
            "can_sim.stretch_len_mean",
            stats::ratio(telemetry.stretch_bits as f64, telemetry.stretches as f64),
            "bits",
        ),
    ];
    for (cause, n) in FallbackCause::ALL.iter().zip(telemetry.fallbacks) {
        m.push(metric(
            format!("can_sim.fallback.{}", cause.label()),
            n as f64,
            "count",
        ));
    }
    m.extend([
        metric(
            "michican.on_bit_calls",
            mc.seams[wrap::ON_BIT].calls as f64,
            "count",
        ),
        metric("michican.on_bit_s", seam_net_s(cal, &mc, wrap::ON_BIT), "s"),
        metric("michican.skip_idle_bits", mc.skip_idle_bits as f64, "bits"),
        metric(
            "michican.drive_horizon_mean_bits",
            stats::ratio(mc.horizon_bits as f64, mc.horizon_promises as f64),
            "bits",
        ),
        metric(
            "app.poll_calls",
            app.seams[wrap::POLL].calls as f64,
            "count",
        ),
        metric("app.poll_s", seam_net_s(cal, &app, wrap::POLL), "s"),
        metric(
            "app.next_activity_calls",
            app.seams[wrap::NEXT_ACTIVITY].calls as f64,
            "count",
        ),
        metric(
            "can_attacks.on_bit_calls",
            atk.seams[wrap::ON_BIT].calls as f64,
            "count",
        ),
        metric(
            "can_attacks.on_bit_s",
            seam_net_s(cal, &atk, wrap::ON_BIT),
            "s",
        ),
        metric(
            "parrot.on_bit_calls",
            parrot.seams[wrap::POLL].calls as f64,
            "count",
        ),
        metric("parrot.on_bit_s", seam_net_s(cal, &parrot, wrap::POLL), "s"),
        metric(
            "can_ids.on_frame_calls",
            ids.seams[wrap::ON_FRAME].calls as f64,
            "count",
        ),
        metric(
            "can_ids.on_frame_s",
            seam_net_s(cal, &ids, wrap::ON_FRAME),
            "s",
        ),
        metric(
            "can_ids.ns_per_frame",
            stats::ratio(
                seam_net_s(cal, &ids, wrap::ON_FRAME) * 1e9,
                ids.seams[wrap::ON_FRAME].calls as f64,
            ),
            "ns",
        ),
    ]);

    let obs: Vec<&ObsTimes> = passes.iter().filter_map(|p| p.obs.as_ref()).collect();
    let obs_median =
        |f: fn(&ObsTimes) -> f64| stats::median(&obs.iter().map(|o| f(o)).collect::<Vec<_>>());
    m.extend([
        metric(
            "can_obs.journal_events",
            obs_median(|o| o.journal_events),
            "count",
        ),
        metric(
            "can_obs.snapshot_bytes",
            obs_median(|o| o.snapshot_bytes),
            "bytes",
        ),
        metric("can_obs.merge_s", obs_median(|o| o.merge.wall_s), "s"),
        metric("can_obs.export_s", obs_median(|o| o.export.wall_s), "s"),
        metric(
            "can_trace.chrome_trace_s",
            obs_median(|o| o.chrome.wall_s),
            "s",
        ),
    ]);

    let over = |ps: &[&RunnerPass], f: &dyn Fn(&RunnerPass) -> f64| {
        stats::median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let shards = shards as f64;
    m.extend([
        metric("runner.cell_busy_s", over(fanned, &RunnerPass::busy_s), "s"),
        metric(
            "runner.serial_cell_busy_s",
            over(serial, &RunnerPass::busy_s),
            "s",
        ),
        metric(
            "runner.cell_p50_ms",
            over(fanned, &|p| stats::median(&p.cell_ms())),
            "ms",
        ),
        metric(
            "runner.cell_max_ms",
            over(fanned, &|p| stats::max(&p.cell_ms())),
            "ms",
        ),
        metric(
            "runner.parallel_efficiency",
            over(fanned, &|p| stats::ratio(p.busy_s(), p.wall_s * shards)),
            "ratio",
        ),
        metric(
            "runner.cpu_per_wall",
            over(fanned, &|p| stats::ratio(p.cpu_s, p.wall_s)),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            stats::ratio(wrapped_ns, unwrapped_cell_ns.iter().sum()),
            "ratio",
        ),
        metric("trace.residue_share", attribution.residue_share(), "ratio"),
        metric(
            "can_sim.rx_parser_ns_per_bit",
            replay.rx_parser_ns_per_bit,
            "ns",
        ),
        metric(
            "can_sim.controller_ns_per_bit",
            replay.controller_ns_per_bit,
            "ns",
        ),
        metric("michican.fsm_step_ns", replay.fsm_step_ns, "ns"),
        metric("can_core.stuff_frame_ns", replay.stuff_frame_ns, "ns"),
        metric("can_core.decode_frame_ns", replay.decode_frame_ns, "ns"),
        metric("can_core.crc15_ns", replay.crc15_ns, "ns"),
        metric(
            "can_core.frames_completed",
            replay.frames_completed as f64,
            "count",
        ),
    ]);
    m
}

/// The human part of the traced report: calibration, attribution,
/// prediction checks and the scaling diagnosis.
#[allow(clippy::too_many_arguments)]
fn report(
    out: &mut String,
    inputs: &Inputs,
    shards: usize,
    cal: &Calibration,
    traces: &[CellTrace],
    serial: &[&RunnerPass],
    fanned: &[&RunnerPass],
    attribution: &Attribution,
    pick: usize,
    setup_s: f64,
) {
    let _ = writeln!(
        out,
        "trace: set-up {setup_s:.3e} s; wrapper calibration: an empty timed call reads {:.1} ns",
        cal.inner_ns
    );
    let bits = attribution.bits.max(1) as f64;
    let _ = writeln!(
        out,
        "attribution, cell {pick}: untraced wall {:.3} ms over {} bits = {:.1} ns/bit",
        attribution.wall_ns * 1e-6,
        attribution.bits,
        attribution.wall_ns / bits
    );
    for (name, ns) in &attribution.terms {
        let _ = writeln!(
            out,
            "  {name:<58} {:>9.3} ms {:>7.1} ns/bit",
            ns * 1e-6,
            ns / bits
        );
    }
    let _ = writeln!(
        out,
        "  residue (fault stack, wired-AND, packed kernel, event log, glue) {:>9.3} ms = {:.1}% of the cell",
        (attribution.wall_ns - attribution.explained_ns()) * 1e-6,
        attribution.residue_share() * 100.0
    );

    let mut telemetry = Telemetry::default();
    for t in traces {
        telemetry.add(&t.telemetry);
    }
    let share = telemetry.accel_share();
    let top = telemetry.top_fallback();
    match inputs.workload {
        Workload::Campaign => {
            let holds = share < 0.05 && (top == "agent_drive" || top == "fault_stack");
            let _ = writeln!(
                out,
                "prediction: campaign accel_share near 0 with agent_drive or fault_stack the top fallback: {} (accel_share {share:.4}, top fallback {top})",
                if holds { "holds" } else { "CONTRADICTED by the trace" }
            );
        }
        Workload::Ids => {
            let _ = writeln!(
                out,
                "prediction: more than half of the ids bits are packed or skipped: {} (accel_share {share:.4}, top fallback {top})",
                if share > 0.5 { "holds" } else { "CONTRADICTED by the trace" }
            );
        }
        Workload::ZooObserved => {
            let _ = writeln!(
                out,
                "prediction: none stated for zoo-observed (accel_share {share:.4}, top fallback {top})"
            );
        }
    }

    if shards > 1 {
        let med = |ps: &[&RunnerPass], f: &dyn Fn(&RunnerPass) -> f64| {
            stats::median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>())
        };
        let n = shards as f64;
        let wall_1 = med(serial, &|p| p.wall_s);
        let wall_n = med(fanned, &|p| p.wall_s);
        let busy_1 = med(serial, &RunnerPass::busy_s);
        let busy_n = med(fanned, &RunnerPass::busy_s);
        let cpu_per_wall = med(fanned, &|p| stats::ratio(p.cpu_s, p.wall_s));
        let max_cell = med(fanned, &|p| stats::max(&p.cell_ms()) * 1e-3);
        let contention = stats::ratio(busy_n, busy_1);
        let imbalance = stats::ratio(max_cell.max(busy_n / n), busy_n / n);
        let cause = if n < 2.0 {
            "none: one core, nothing to scale"
        } else if cpu_per_wall < 0.8 * n {
            "host starvation: the workers were runnable but got under the cores asked for"
        } else if contention > 1.2 {
            "contention: cells run slower side by side than alone"
        } else if imbalance > 1.2 {
            "imbalance: the longest cell bounds the fan-out"
        } else {
            "none: the grid scales"
        };
        let _ = writeln!(
            out,
            "scaling: {n} shards, wall {wall_1:.3} s -> {wall_n:.3} s (speed-up {:.2}x); cell busy {busy_1:.3} s at 1 shard, {busy_n:.3} s at {n}; cpu/wall {cpu_per_wall:.2}; longest cell {:.1} ms; diagnosis: {cause}",
            stats::ratio(wall_1, wall_n),
            max_cell * 1e3
        );
    }
}

fn write_spans(
    inputs: &Inputs,
    seed: u64,
    passes: &[RunnerPass],
    wrapped: &[CellSpan],
    traces: &[CellTrace],
    notes: &str,
) {
    let mut out = String::new();
    for (p, pass) in passes.iter().enumerate() {
        for s in &pass.spans {
            let _ = writeln!(
                out,
                "{{\"span\":\"runner.cell\",\"pass\":{p},\"shards\":{},\"cell\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                pass.shards,
                s.cell,
                host::json_str(&s.thread),
                s.start_ns,
                s.end_ns
            );
        }
    }
    for (s, t) in wrapped.iter().zip(traces) {
        let _ = writeln!(
            out,
            "{{\"span\":\"wrapped.cell\",\"cell\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.cell,
            host::json_str(&s.thread),
            s.start_ns,
            s.end_ns
        );
        for (layer, tally) in &t.layers {
            let _ = writeln!(
                out,
                "{{\"span\":\"wrapped.layer\",\"cell\":{},\"layer\":\"{layer:?}\",\"calls\":{},\"ns\":{}}}",
                s.cell,
                tally.calls(),
                tally.ns()
            );
        }
    }
    for line in notes.lines() {
        let _ = writeln!(out, "{{\"note\":{}}}", host::json_str(line));
    }
    let path = format!(
        "{OUT_DIR}/{}-seed{seed}-spans.jsonl",
        inputs.workload.name()
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("cannot write {path}: {e}");
    }
}

/// Writes the run's fingerprint and metrics to `.bench_out/<label>.json`.
pub fn write_run_file(label: &str, fingerprint: &str, outcome: &Outcome) {
    let mut out = format!(
        "{{\"run\":{},\"host\":{fingerprint},\"metrics\":{{",
        host::json_str(label)
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{}\":[{},\"{}\"]", m.name, m.value, m.unit);
    }
    out.push_str("}}\n");
    let path = format!("{OUT_DIR}/{label}.json");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("cannot write {path}: {e}");
    }
}
