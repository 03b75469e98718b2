//! Kill/resume determinism contract of the sweep engine.
//!
//! Same grid + seeds ⇒ byte-identical final merged snapshot at any shard
//! count, across any kill/resume point, with panicking / hanging / fatal
//! cells quarantined rather than aborting the sweep. The reference in
//! every comparison is the uninterrupted serial run (`shards == 1`, no
//! abort hook) — the same reduction `bench::runner` treats as ground
//! truth.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bench::runner::{derive_seed, SimMode};
use bench::sweep::{
    resume_params, run_sweep, workload_from_descriptor, CampaignSweep, ChaosSpec, Chaotic,
    SweepConfig, SweepError, SweepWorkload, SyntheticSweep, JOURNAL_FILE, SNAPSHOT_FILE,
};
use can_obs::{Recorder, Registry};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("michican_sweep_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn synthetic(cells: u64) -> Arc<dyn SweepWorkload> {
    Arc::new(SyntheticSweep { cells, work: 64 })
}

fn chaotic(cells: u64, chaos: ChaosSpec) -> Arc<dyn SweepWorkload> {
    Arc::new(Chaotic {
        inner: synthetic(cells),
        chaos,
    })
}

fn config(shards: usize, chunk_cells: u64) -> SweepConfig {
    SweepConfig {
        shards,
        chunk_cells,
        retry_backoff: Duration::ZERO,
        ..SweepConfig::default()
    }
}

/// The uninterrupted serial reference for a workload/config pair.
fn reference(workload: &Arc<dyn SweepWorkload>, base: &SweepConfig, dir: &Path) -> String {
    let config = SweepConfig {
        shards: 1,
        stop_after_chunks: None,
        ..base.clone()
    };
    run_sweep(Arc::clone(workload), &config, dir)
        .expect("reference sweep")
        .snapshot
}

#[test]
fn sweep_snapshot_equals_direct_in_order_merge() {
    // The engine's journaled, chunked, supervised reduction must land on
    // exactly what a plain loop over the cells produces.
    let workload = SyntheticSweep {
        cells: 100,
        work: 64,
    };
    let cfg = config(1, 16);
    let mut direct = Registry::new();
    for cell in 0..workload.cells {
        let recorder = Recorder::enabled();
        workload
            .run_cell(cell, derive_seed(cfg.seed, cell as usize), 0, &recorder)
            .unwrap();
        direct.merge(&recorder.into_registry());
    }
    let dir = tmp_dir("direct");
    let report = run_sweep(synthetic(100), &cfg, &dir).unwrap();
    assert_eq!(report.snapshot, direct.snapshot_json());
    assert_eq!(report.contributed_cells, 100);
    assert!(report.poisoned.is_empty());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_point() {
    // 500 cells in 25 chunks; kill after 1, 12 and 24 chunk records, then
    // resume at a different shard count. Snapshot and rendered report
    // must be byte-identical to the uninterrupted serial reference.
    let chaos = ChaosSpec {
        panic_every: 151, // permanent panics -> quarantine survives resume
        ..ChaosSpec::NONE
    };
    let base = config(3, 20);
    let ref_dir = tmp_dir("killref");
    let want = reference(&chaotic(500, chaos), &base, &ref_dir);
    let want_render = run_sweep(chaotic(500, chaos), &config(1, 20), &ref_dir)
        .unwrap()
        .render();

    for stop_after in [1u64, 12, 24] {
        let dir = tmp_dir(&format!("kill{stop_after}"));
        let killed = SweepConfig {
            stop_after_chunks: Some(stop_after),
            ..base.clone()
        };
        match run_sweep(chaotic(500, chaos), &killed, &dir) {
            Err(SweepError::Aborted { chunks_done }) => assert_eq!(chunks_done, stop_after),
            other => panic!("expected abort, got {other:?}"),
        }
        // Resume with different parallelism; only execution knobs differ.
        let resumed = run_sweep(chaotic(500, chaos), &config(5, 20), &dir).unwrap();
        assert_eq!(resumed.snapshot, want, "stop_after={stop_after}");
        assert_eq!(resumed.render(), want_render, "stop_after={stop_after}");
        assert_eq!(resumed.poisoned.len(), 3, "cells 150, 301, 452 panic");
        fs::remove_dir_all(&dir).ok();
    }
    fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn transient_hangs_are_retried_and_permanent_hangs_quarantined() {
    let base = SweepConfig {
        cell_timeout: Some(Duration::from_millis(40)),
        retry_backoff: Duration::ZERO,
        chunk_cells: 10,
        ..SweepConfig::default()
    };
    // Transient: cell 28 hangs on attempt 0 only -> one retry, no poison.
    let transient = chaotic(
        30,
        ChaosSpec {
            hang_every: 30,
            hang_transient: true,
            hang_ms: 5_000,
            ..ChaosSpec::NONE
        },
    );
    let dir = tmp_dir("transient");
    let report = run_sweep(transient, &base, &dir).unwrap();
    assert!(report.poisoned.is_empty());
    assert_eq!(report.retries, 1);
    assert_eq!(report.contributed_cells, 30);
    fs::remove_dir_all(&dir).ok();

    // Permanent: cell 28 hangs on every attempt -> quarantined after the
    // full attempt budget, sweep still completes.
    let permanent = chaotic(
        30,
        ChaosSpec {
            hang_every: 30,
            hang_transient: false,
            hang_ms: 5_000,
            ..ChaosSpec::NONE
        },
    );
    let dir = tmp_dir("permanent");
    let report = run_sweep(permanent, &base, &dir).unwrap();
    assert_eq!(report.poisoned.len(), 1);
    assert_eq!(report.poisoned[0].cell, 28);
    assert_eq!(report.poisoned[0].attempts, 3);
    assert!(
        report.poisoned[0].error.contains("timed out"),
        "got: {}",
        report.poisoned[0].error
    );
    assert_eq!(report.contributed_cells, 29);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_journal_tail_is_tolerated_interior_corruption_is_not() {
    let base = config(1, 10);
    let ref_dir = tmp_dir("tornref");
    let want = reference(&synthetic(100), &base, &ref_dir);
    fs::remove_dir_all(&ref_dir).ok();

    // Abort mid-run, then tear the journal the way a SIGKILL mid-append
    // would: a partial record with no trailing newline.
    let dir = tmp_dir("torn");
    let killed = SweepConfig {
        stop_after_chunks: Some(4),
        ..base.clone()
    };
    assert!(matches!(
        run_sweep(synthetic(100), &killed, &dir),
        Err(SweepError::Aborted { .. })
    ));
    let journal = dir.join(JOURNAL_FILE);
    let intact = fs::read_to_string(&journal).unwrap();
    fs::write(
        &journal,
        format!("{intact}{{\"type\":\"chunk\",\"chunk\":9,\"cel"),
    )
    .unwrap();
    let resumed = run_sweep(synthetic(100), &base, &dir).unwrap();
    assert_eq!(resumed.snapshot, want, "torn tail re-runs that chunk");
    fs::remove_dir_all(&dir).ok();

    // Corruption that is NOT a torn tail must be a hard error, never a
    // silent half-resume.
    let dir = tmp_dir("interior");
    let killed = SweepConfig {
        stop_after_chunks: Some(4),
        ..base.clone()
    };
    assert!(matches!(
        run_sweep(synthetic(100), &killed, &dir),
        Err(SweepError::Aborted { .. })
    ));
    let journal = dir.join(JOURNAL_FILE);
    let intact = fs::read_to_string(&journal).unwrap();
    let mut lines: Vec<&str> = intact.lines().collect();
    lines[2] = "{\"type\":\"chunk\",\"chunk\":"; // line 3 of 5+: interior
    fs::write(&journal, lines.join("\n") + "\n").unwrap();
    match run_sweep(synthetic(100), &base, &dir) {
        Err(SweepError::Journal(detail)) => {
            assert!(detail.contains("line 3"), "got: {detail}")
        }
        other => panic!("expected journal error, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn rss_guard_stops_resumably() {
    let base = config(2, 10);
    let ref_dir = tmp_dir("rssref");
    let want = reference(&synthetic(200), &base, &ref_dir);
    fs::remove_dir_all(&ref_dir).ok();

    let dir = tmp_dir("rss");
    let guarded = SweepConfig {
        max_rss_mb: Some(0), // any live process exceeds 0 MiB immediately
        ..base.clone()
    };
    match run_sweep(synthetic(200), &guarded, &dir) {
        Err(SweepError::MemoryLimit { rss_mb, limit_mb }) => {
            assert_eq!(limit_mb, 0);
            assert!(rss_mb > 0);
        }
        other => panic!("expected memory-limit stop, got {other:?}"),
    }
    // The journal the guard left behind resumes to the exact reference.
    let resumed = run_sweep(synthetic(200), &base, &dir).unwrap();
    assert_eq!(resumed.snapshot, want);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_different_grid() {
    let dir = tmp_dir("mismatch");
    let killed = SweepConfig {
        stop_after_chunks: Some(2),
        ..config(1, 10)
    };
    assert!(matches!(
        run_sweep(synthetic(100), &killed, &dir),
        Err(SweepError::Aborted { .. })
    ));
    // Different cell count -> different descriptor and total_cells.
    match run_sweep(synthetic(200), &config(1, 10), &dir) {
        Err(SweepError::Journal(detail)) => {
            assert!(detail.contains("different sweep"), "got: {detail}")
        }
        other => panic!("expected journal mismatch, got {other:?}"),
    }
    // Same grid, different seed -> also refused.
    let reseeded = SweepConfig {
        seed: 7,
        ..config(1, 10)
    };
    assert!(matches!(
        run_sweep(synthetic(100), &reseeded, &dir),
        Err(SweepError::Journal(_))
    ));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_v1_journal_by_schema() {
    // `michican-sweep/v1` chunks embed `can-obs/v1` snapshots, which the
    // snapshot reader no longer accepts: the whole journal is refused up
    // front with a typed error, before any cell re-runs.
    let dir = tmp_dir("v1journal");
    let killed = SweepConfig {
        stop_after_chunks: Some(2),
        ..config(1, 10)
    };
    assert!(matches!(
        run_sweep(synthetic(100), &killed, &dir),
        Err(SweepError::Aborted { .. })
    ));
    let journal = dir.join(JOURNAL_FILE);
    let v1 =
        fs::read_to_string(&journal)
            .unwrap()
            .replacen("michican-sweep/v2", "michican-sweep/v1", 1);
    fs::write(&journal, &v1).unwrap();
    match resume_params(&dir) {
        Err(SweepError::Journal(detail)) => {
            assert!(detail.contains("michican-sweep/v1"), "got: {detail}")
        }
        other => panic!("expected a schema refusal, got {other:?}"),
    }
    match run_sweep(synthetic(100), &config(1, 10), &dir) {
        Err(SweepError::Journal(detail)) => {
            assert!(detail.contains("michican-sweep/v1"), "got: {detail}")
        }
        other => panic!("expected a schema refusal, got {other:?}"),
    }
    assert_eq!(
        fs::read_to_string(&journal).unwrap(),
        v1,
        "a refused journal is left untouched"
    );
    assert!(!dir.join(SNAPSHOT_FILE).exists());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fatal_cells_quarantine_without_retry_and_survive_resume() {
    struct FatalAt13 {
        inner: SyntheticSweep,
    }
    impl SweepWorkload for FatalAt13 {
        fn total_cells(&self) -> u64 {
            self.inner.total_cells()
        }
        fn run_cell(
            &self,
            index: u64,
            seed: u64,
            attempt: u32,
            recorder: &Recorder,
        ) -> Result<(), bench::sweep::CellError> {
            if index == 13 {
                return Err(bench::sweep::CellError::fatal(
                    "scenario construction failed",
                ));
            }
            self.inner.run_cell(index, seed, attempt, recorder)
        }
        fn descriptor(&self) -> String {
            "{\"kind\":\"test-fatal\"}".to_string()
        }
    }
    let workload: Arc<dyn SweepWorkload> = Arc::new(FatalAt13 {
        inner: SyntheticSweep {
            cells: 40,
            work: 64,
        },
    });
    let dir = tmp_dir("fatal");
    let killed = SweepConfig {
        stop_after_chunks: Some(1),
        ..config(1, 10)
    };
    assert!(matches!(
        run_sweep(Arc::clone(&workload), &killed, &dir),
        Err(SweepError::Aborted { .. })
    ));
    let report = run_sweep(workload, &config(1, 10), &dir).unwrap();
    assert_eq!(report.poisoned.len(), 1);
    assert_eq!(report.poisoned[0].cell, 13);
    assert_eq!(report.poisoned[0].attempts, 1, "fatal errors skip retries");
    assert_eq!(report.retries, 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_sweep_is_shard_and_resume_invariant() {
    // One replica of the real 16-cell campaign grid at a short horizon:
    // serial uninterrupted vs sharded killed-and-resumed.
    let workload =
        || -> Arc<dyn SweepWorkload> { Arc::new(CampaignSweep::new(1, 2.0, SimMode::Packed)) };
    let base = SweepConfig {
        chunk_cells: 4,
        ..SweepConfig::default()
    };
    let ref_dir = tmp_dir("campref");
    let want = reference(&workload(), &base, &ref_dir);
    fs::remove_dir_all(&ref_dir).ok();

    let dir = tmp_dir("camp");
    let killed = SweepConfig {
        shards: 4,
        stop_after_chunks: Some(2),
        ..base.clone()
    };
    assert!(matches!(
        run_sweep(workload(), &killed, &dir),
        Err(SweepError::Aborted { .. })
    ));
    let resumed = run_sweep(workload(), &SweepConfig { shards: 2, ..base }, &dir).unwrap();
    assert_eq!(resumed.snapshot, want);
    assert!(resumed.poisoned.is_empty());
    assert!(resumed.snapshot.contains("sweep_cells_total"));
    assert!(
        resumed.snapshot.contains("can_bus_bits_total"),
        "campaign cells must carry the simulator's own series too"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_with_fast_descriptor_resumes_as_a_packed_sweep() {
    // `"fast": true`, named for the retired idle fast-forward, selects the
    // packed kernel. A journal carrying this exact header must resume,
    // with the workload rebuilt from the header as `experiments sweep
    // --resume` does, into the snapshot an uninterrupted packed sweep
    // writes.
    let workload =
        || -> Arc<dyn SweepWorkload> { Arc::new(CampaignSweep::new(1, 2.0, SimMode::Packed)) };
    let base = SweepConfig {
        chunk_cells: 4,
        ..SweepConfig::default()
    };
    let ref_dir = tmp_dir("fastref");
    reference(&workload(), &base, &ref_dir);
    let want = fs::read(ref_dir.join(SNAPSHOT_FILE)).unwrap();
    fs::remove_dir_all(&ref_dir).ok();

    let dir = tmp_dir("fastjournal");
    let killed = SweepConfig {
        stop_after_chunks: Some(2),
        ..base.clone()
    };
    assert!(matches!(
        run_sweep(workload(), &killed, &dir),
        Err(SweepError::Aborted { .. })
    ));
    let journal = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    let header = r#"{"schema":"michican-sweep/v2","seed":13967397,"total_cells":16,"chunk_cells":4,"max_attempts":3,"workload":"{\"kind\":\"campaign\",\"replicas\":1,\"run_ms\":2,\"fast\":true}"}"#;
    assert_eq!(journal.lines().next(), Some(header));

    let params = resume_params(&dir).unwrap();
    let resumed = SweepConfig {
        seed: params.seed,
        chunk_cells: params.chunk_cells,
        max_attempts: params.max_attempts,
        shards: 2,
        ..SweepConfig::default()
    };
    run_sweep(
        workload_from_descriptor(&params.workload).unwrap(),
        &resumed,
        &dir,
    )
    .unwrap();
    assert_eq!(fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), want);
    fs::remove_dir_all(&dir).ok();
}

/// The acceptance sweep from the issue: ≥ 10k cells, ≥ 3 injected
/// panics/timeouts, a mid-run kill, resume from the journal, quarantine,
/// and a final snapshot byte-identical to the uninterrupted serial run.
#[test]
fn acceptance_10k_cells_survive_kill_panics_and_timeouts() {
    let chaos = ChaosSpec {
        panic_every: 2_500, // cells 2499, 4999, 7499, 9999: permanent panic
        panic_transient: false,
        hang_every: 2_998, // cells 2996, 5994, 8992: hang once, retry clean
        hang_transient: true,
        hang_ms: 5_000,
    };
    let workload = || chaotic(10_000, chaos);
    let base = SweepConfig {
        chunk_cells: 100,
        cell_timeout: Some(Duration::from_millis(60)),
        retry_backoff: Duration::ZERO,
        ..SweepConfig::default()
    };

    let ref_dir = tmp_dir("accref");
    let want = reference(&workload(), &base, &ref_dir);
    fs::remove_dir_all(&ref_dir).ok();

    let dir = tmp_dir("acc");
    let killed = SweepConfig {
        shards: 4,
        stop_after_chunks: Some(37),
        ..base.clone()
    };
    match run_sweep(workload(), &killed, &dir) {
        Err(SweepError::Aborted { chunks_done }) => assert_eq!(chunks_done, 37),
        other => panic!("expected abort, got {other:?}"),
    }

    let resumed = run_sweep(workload(), &SweepConfig { shards: 3, ..base }, &dir).unwrap();
    assert_eq!(resumed.total_cells, 10_000);
    assert_eq!(
        resumed.snapshot, want,
        "killed+resumed snapshot must be byte-identical to the serial reference"
    );
    let poisoned: Vec<u64> = resumed.poisoned.iter().map(|p| p.cell).collect();
    assert_eq!(poisoned, vec![2_499, 4_999, 7_499, 9_999]);
    assert!(resumed.poisoned.iter().all(|p| p.attempts == 3));
    assert!(resumed.poisoned.iter().all(|p| p.error.contains("panic")));
    assert_eq!(resumed.contributed_cells, 9_996);
    // 4 panicking cells retried twice each + 3 hanging cells retried once.
    assert_eq!(resumed.retries, 4 * 2 + 3);
    fs::remove_dir_all(&dir).ok();
}
