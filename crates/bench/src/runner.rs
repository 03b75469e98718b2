//! The parallel deterministic experiment engine.
//!
//! Every paper artifact is an embarrassingly-parallel set of independent
//! seeded simulations: the 16-cell fault campaign, the random-FSM
//! detection sweep, the six Table II replications, the multi-attacker
//! scan, the attack zoo, the IDS bake-off. Each fans its cells out through
//! [`ExperimentPlan::run_with`] across a rayon pool while keeping the
//! *determinism contract* that makes the artifacts regression material
//! rather than statistics:
//!
//! 1. **seed by index, never by schedule** — each cell's seed is derived
//!    from the master seed and the cell's position in the plan
//!    ([`derive_seed`]), so neither thread count nor completion order can
//!    change what a cell computes;
//! 2. **reduce in index order** — results come back as `Vec<R>` ordered by
//!    cell index regardless of which worker finished first;
//! 3. **`shards == 1` is the serial path** — no pool, no threads, a plain
//!    in-order loop, so the parallel report can be diffed byte-for-byte
//!    against it (`tests/parallel_determinism.rs` does exactly that).

use can_obs::{Journal, JournalStore, Recorder, Registry};
use can_sim::Simulator;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

/// How a scenario drives its simulators through bus time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Bit-by-bit [`Simulator::run`] — the lockstep reference path.
    #[default]
    Lockstep,
    /// [`Simulator::run_packed`]: identical events, traces, metrics and
    /// outcomes, with event-free stretches resolved word-at-a-time by the
    /// packed wired-AND kernel and idle gaps skipped in closed form.
    Packed,
}

/// Cross-cutting execution options for `bench` scenario entry points.
///
/// Every artifact has exactly one public `run_X_with(.., &ExecOpts)`
/// entry point; callers that want no sinks, serial and lockstep pass
/// [`ExecOpts::new()`].
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Metrics sink threaded through the scenario (per-cell recorders are
    /// derived from it by [`ExperimentPlan::run_with`]).
    pub recorder: Recorder,
    /// Worker count for plan fan-out; `1` is the serial reference path,
    /// `0` means one shard per core (resolved by
    /// [`ExperimentPlan::run_with`]).
    pub shards: usize,
    /// Lockstep or packed simulation.
    pub mode: SimMode,
    /// Causal event journal threaded through the scenario (per-cell
    /// journals are derived from it and merged in cell-index order,
    /// exactly like the recorder).
    pub journal: Journal,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            recorder: Recorder::disabled(),
            shards: 1,
            mode: SimMode::Lockstep,
            journal: Journal::disabled(),
        }
    }
}

impl ExecOpts {
    /// Default options: disabled recorder, serial, lockstep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the metrics recorder (builder style).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Sets the shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the simulation mode (builder style).
    pub fn with_mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the causal event journal (builder style).
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Selects the packed bus kernel (builder style).
    pub fn packed(self) -> Self {
        self.with_mode(SimMode::Packed)
    }

    /// Runs `sim` for `bits` bit times in the configured mode.
    pub fn run(&self, sim: &mut Simulator, bits: u64) {
        match self.mode {
            SimMode::Lockstep => sim.run(bits),
            SimMode::Packed => sim.run_packed(bits),
        }
    }

    /// Runs `sim` for `millis` simulated milliseconds in the configured
    /// mode.
    pub fn run_millis(&self, sim: &mut Simulator, millis: f64) {
        self.run(sim, sim.speed().bits_in_millis(millis));
    }

    /// Advances `sim` by one quantum — a single bit in lockstep, up to
    /// `max_bits` under the packed kernel — and returns the bits advanced.
    /// Event-polling scan loops use this to stay mode-generic.
    pub fn advance(&self, sim: &mut Simulator, max_bits: u64) -> u64 {
        match self.mode {
            SimMode::Lockstep => {
                if max_bits == 0 {
                    return 0;
                }
                sim.step();
                1
            }
            SimMode::Packed => sim.advance_packed(max_bits),
        }
    }
}

/// Derives the seed of cell `index` from the plan's master seed.
///
/// The derivation is a pure function of `(master, index)` — stable across
/// shard counts, thread schedules and releases. (Same mixing constant as
/// the rand shim's SplitMix64 expansion; one multiply plus xor is plenty
/// to decorrelate neighbouring indices for simulation seeding.)
pub fn derive_seed(master: u64, index: usize) -> u64 {
    (master ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(index as u64)
}

/// A set of independent experiment cells under one master seed, to be
/// executed on `shards` workers.
#[derive(Debug, Clone)]
pub struct ExperimentPlan<C> {
    /// The cells, in report order. A cell's index in this vector is its
    /// identity: it fixes the cell's seed and its slot in the result.
    pub cells: Vec<C>,
    /// Master seed from which every cell seed is derived.
    pub master_seed: u64,
    /// Worker count; `1` runs the plain serial loop, `0` means all
    /// available cores.
    pub shards: usize,
}

impl<C: Send> ExperimentPlan<C> {
    /// Creates a serial (`shards == 1`) plan.
    pub fn new(cells: Vec<C>, master_seed: u64) -> Self {
        ExperimentPlan {
            cells,
            master_seed,
            shards: 1,
        }
    }

    /// Sets the shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Executes `run_cell(index, seed, cell)` for every cell and returns
    /// the results in cell-index order.
    ///
    /// `run_cell` must be a pure function of its arguments (no shared
    /// mutable state, no ambient randomness) — that, plus index-derived
    /// seeds and index-ordered reduction, is what makes the output
    /// independent of `shards`.
    pub fn run<R, F>(self, run_cell: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, u64, C) -> R + Sync,
    {
        let master = self.master_seed;
        if self.shards == 1 {
            // The reference serial path: index order is execution order.
            return self
                .cells
                .into_iter()
                .enumerate()
                .map(|(i, cell)| run_cell(i, derive_seed(master, i), cell))
                .collect();
        }
        let indexed: Vec<(usize, C)> = self.cells.into_iter().enumerate().collect();
        let pool = ThreadPoolBuilder::new()
            .num_threads(self.shards)
            .build()
            .expect("thread pool construction cannot fail");
        pool.install(|| {
            indexed
                .into_par_iter()
                .map(|(i, cell)| run_cell(i, derive_seed(master, i), cell))
                .collect()
        })
    }

    /// Executes `run_cell(index, seed, cell, cell_opts)` for every cell on
    /// `opts.shards` workers and returns the results in cell-index order.
    /// This is the one fan-out every `bench` grid artifact goes through.
    ///
    /// `opts.shards == 0` resolves here, once, to [`available_cores`].
    /// Every cell receives its own `cell_opts`: `opts.mode`, serial, and a
    /// **fresh** recorder and journal for each sink `opts` has enabled
    /// (both are `!Send`, so workers cannot share them). After all cells
    /// complete, the per-cell registries and [`JournalStore`]s are merged
    /// into `opts` *in cell index order*. Snapshot-visible metric values
    /// are integers, merging is order-stable, and the journal merge stamps
    /// each cell's events with the next epoch of an epoch-major export —
    /// so the merged snapshot and journal export are byte-identical for
    /// every shard count (`tests/metrics_determinism.rs` locks this down).
    ///
    /// Each metered cell also records its wall time under the
    /// `bench_cell_wall` span (host-dependent; excluded from the JSON
    /// snapshot) and bumps the `bench_cells_total` counter. With both sinks
    /// disabled this is a plain [`ExperimentPlan::run`].
    pub fn run_with<R, F>(self, opts: &ExecOpts, run_cell: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, u64, C, &ExecOpts) -> R + Sync,
    {
        let mode = opts.mode;
        let rec_on = opts.recorder.is_enabled();
        let jrn_on = opts.journal.is_enabled();
        let shards = match opts.shards {
            0 => available_cores(),
            n => n,
        };
        let plan = self.with_shards(shards);
        if !rec_on && !jrn_on {
            return plan
                .run(|i, seed, cell| run_cell(i, seed, cell, &ExecOpts::new().with_mode(mode)));
        }
        let outs: Vec<(R, Registry, JournalStore)> = plan.run(|i, seed, cell| {
            let cell_opts = ExecOpts {
                recorder: if rec_on {
                    Recorder::enabled()
                } else {
                    Recorder::disabled()
                },
                shards: 1,
                mode,
                journal: if jrn_on {
                    Journal::enabled()
                } else {
                    Journal::disabled()
                },
            };
            let wall = cell_opts.recorder.span("bench_cell_wall");
            let result = run_cell(i, seed, cell, &cell_opts);
            drop(wall);
            cell_opts.recorder.inc("bench_cells_total");
            (
                result,
                cell_opts.recorder.into_registry(),
                cell_opts.journal.into_store(),
            )
        });
        // Merging into a disabled sink is a no-op.
        outs.into_iter()
            .map(|(result, registry, store)| {
                opts.recorder.merge_registry(&registry);
                opts.journal.merge_store(&store);
                result
            })
            .collect()
    }
}

/// The host's available core count (≥ 1), the worker count `--shards 0`
/// resolves to.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `--shards <n>` / `-j <n>` pair out of a CLI argument list and
/// returns the shard count (defaulting to `1`, the serial path) plus the
/// arguments with the flag removed.
///
/// `--shards 0` and `-j 0` request one shard per available core.
pub fn parse_shards(args: &[String]) -> Result<(usize, Vec<String>), String> {
    let mut shards = 1usize;
    let mut rest = Vec::with_capacity(args.len());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--shards" || arg == "-j" {
            let value = iter.next().ok_or(format!("{arg} needs a value"))?;
            shards = value
                .parse()
                .map_err(|_| format!("bad {arg} value: {value}"))?;
            if shards == 0 {
                shards = available_cores();
            }
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((shards, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_index_distinct() {
        let a = derive_seed(0x00D5_2025, 3);
        assert_eq!(a, derive_seed(0x00D5_2025, 3), "pure function of inputs");
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        assert_eq!(seeds.len(), 64, "no seed collisions across the plan");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0), "master seed matters");
    }

    #[test]
    fn parallel_run_matches_serial_run_exactly() {
        let cells: Vec<u32> = (0..37).collect();
        let work = |i: usize, seed: u64, cell: u32| {
            // A cheap stand-in for a seeded simulation.
            (i as u64, seed.rotate_left(cell % 63) ^ cell as u64)
        };
        let serial = ExperimentPlan::new(cells.clone(), 7).run(work);
        for shards in [2usize, 3, 8, 16] {
            let parallel = ExperimentPlan::new(cells.clone(), 7)
                .with_shards(shards)
                .run(work);
            assert_eq!(parallel, serial, "shards={shards}");
        }
    }

    #[test]
    fn run_preserves_cell_order_not_completion_order() {
        // Make early indices slow: if reduction followed completion order
        // the result would come back reversed.
        let cells: Vec<u64> = (0..8).collect();
        let out = ExperimentPlan::new(cells, 0)
            .with_shards(8)
            .run(|i, _seed, cell| {
                std::thread::sleep(std::time::Duration::from_millis(8 - cell));
                i
            });
        assert_eq!(out, (0..8).collect::<Vec<usize>>());
    }

    #[test]
    fn run_with_merges_cell_registries_identically_for_any_shard_count() {
        let cells: Vec<u64> = (0..23).collect();
        let work = |_i: usize, seed: u64, cell: u64, opts: &ExecOpts| {
            opts.recorder.add("work_total", cell + 1);
            opts.recorder.observe("work_seed_low_bits", seed % 97);
            cell
        };
        let serial = ExecOpts::new().with_recorder(Recorder::enabled());
        let serial_out = ExperimentPlan::new(cells.clone(), 11).run_with(&serial, work);
        for shards in [2usize, 4, 8] {
            let parallel = ExecOpts::new()
                .with_recorder(Recorder::enabled())
                .with_shards(shards);
            let parallel_out = ExperimentPlan::new(cells.clone(), 11).run_with(&parallel, work);
            assert_eq!(parallel_out, serial_out, "shards={shards}");
            assert_eq!(
                parallel.recorder.snapshot_json(),
                serial.recorder.snapshot_json(),
                "merged snapshot must be byte-identical, shards={shards}"
            );
        }
        assert_eq!(
            serial
                .recorder
                .with_registry(|r| r.counter("bench_cells_total")),
            Some(23)
        );
    }

    #[test]
    fn run_with_merges_cell_journals_identically_for_any_shard_count() {
        let cells: Vec<u64> = (0..17).collect();
        let work = |_i: usize, _seed: u64, cell: u64, opts: &ExecOpts| {
            let jrn = &opts.journal;
            jrn.begin_frame(cell * 10, cell as u32 % 3, &format!("cell={cell}"));
            jrn.end_frame(
                cell * 10 + 5,
                cell as u32 % 3,
                can_obs::JournalKind::FrameAck,
                "",
                false,
            );
            cell
        };
        let serial = ExecOpts::new().with_journal(Journal::enabled());
        let serial_out = ExperimentPlan::new(cells.clone(), 11).run_with(&serial, work);
        let serial_export = serial.journal.export_jsonl();
        assert!(!serial_export.is_empty());
        for shards in [2usize, 4, 8] {
            let parallel = ExecOpts::new()
                .with_journal(Journal::enabled())
                .with_shards(shards);
            let parallel_out = ExperimentPlan::new(cells.clone(), 11).run_with(&parallel, work);
            assert_eq!(parallel_out, serial_out, "shards={shards}");
            assert_eq!(
                parallel.journal.export_jsonl(),
                serial_export,
                "merged journal export must be byte-identical, shards={shards}"
            );
        }
    }

    #[test]
    fn run_with_both_sinks_disabled_is_a_plain_run() {
        let cells: Vec<u64> = (0..5).collect();
        let opts = ExecOpts::new().packed();
        let out = ExperimentPlan::new(cells, 3).run_with(&opts, |_i, _seed, cell, cell_opts| {
            assert!(!cell_opts.recorder.is_enabled() && !cell_opts.journal.is_enabled());
            assert_eq!(cell_opts.mode, SimMode::Packed, "cells inherit the mode");
            assert_eq!(cell_opts.shards, 1, "a cell runs serially");
            cell
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(opts.recorder.into_registry().is_empty());
    }

    #[test]
    fn zero_shards_means_all_cores_and_gives_the_serial_bytes() {
        let cells: Vec<u64> = (0..19).collect();
        let work = |i: usize, seed: u64, cell: u64, opts: &ExecOpts| {
            opts.recorder.add("work_total", cell + seed % 5);
            opts.journal
                .begin_frame(cell, cell as u32 % 2, &format!("cell={cell}"));
            (i, seed)
        };
        let observed = |shards: usize| {
            let opts = ExecOpts::new()
                .with_recorder(Recorder::enabled())
                .with_journal(Journal::enabled())
                .with_shards(shards);
            let out = ExperimentPlan::new(cells.clone(), 5).run_with(&opts, work);
            (
                out,
                opts.recorder.snapshot_json(),
                opts.journal.export_jsonl(),
            )
        };
        let serial = observed(1);
        assert_eq!(observed(0), serial, "--shards 0 must not change a byte");
        assert_eq!(
            ExperimentPlan::new(cells.clone(), 5).run_with(&ExecOpts::new().with_shards(0), work),
            serial.0,
            "disabled sinks: same results"
        );
    }

    #[test]
    fn parse_shards_extracts_the_flag() {
        let args: Vec<String> = ["faults", "--shards", "8", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (shards, rest) = parse_shards(&args).unwrap();
        assert_eq!(shards, 8);
        assert_eq!(rest, vec!["faults".to_string(), "--full".to_string()]);

        let (default_shards, _) = parse_shards(&["all".to_string()]).unwrap();
        assert_eq!(default_shards, 1, "serial by default");

        let (auto, _) = parse_shards(&["-j".to_string(), "0".to_string()]).unwrap();
        assert!(auto >= 1, "-j 0 resolves to the core count");
        assert!(parse_shards(&["--shards".to_string()]).is_err());
        assert!(parse_shards(&["-j".to_string(), "x".to_string()]).is_err());
    }
}
