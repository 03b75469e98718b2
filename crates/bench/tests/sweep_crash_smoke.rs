//! Real-process crash smoke: start `experiments sweep`, SIGKILL it
//! mid-run, resume from the journal, and byte-compare the merged snapshot
//! against an uninterrupted run. This is the in-tree twin of the
//! `sweep-crash-smoke` CI job — same binary, same flags, smaller grid.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("michican_smoke_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sweep_args(dir: &Path, shards: &str) -> Vec<String> {
    [
        "sweep",
        "--dir",
        dir.to_str().unwrap(),
        "--workload",
        "synthetic",
        "--cells",
        "20000",
        "--cell-work",
        "20000",
        "--chunk",
        "128",
        "--chaos-panic",
        "6000",
        "-j",
        shards,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn journal_lines(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join("journal.jsonl"))
        .map(|t| t.lines().count())
        .unwrap_or(0)
}

#[test]
fn sigkill_mid_sweep_then_resume_matches_uninterrupted_run() {
    // Uninterrupted serial reference.
    let ref_dir = tmp_dir("ref");
    let reference = Command::new(BIN)
        .args(sweep_args(&ref_dir, "1"))
        .stderr(Stdio::null())
        .output()
        .expect("run reference sweep");
    assert!(
        reference.status.success(),
        "reference sweep failed: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let want_snapshot = std::fs::read(ref_dir.join("snapshot.json")).unwrap();
    let want_stdout = reference.stdout;

    // Victim: same grid, sharded, killed as soon as the journal shows
    // real progress. `Child::kill` delivers SIGKILL on Unix — no chance
    // to flush, trap, or clean up.
    let victim_dir = tmp_dir("victim");
    let mut victim = Command::new(BIN)
        .args(sweep_args(&victim_dir, "2"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim sweep");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut killed_midway = false;
    loop {
        if journal_lines(&victim_dir) >= 20 {
            victim.kill().expect("SIGKILL victim");
            killed_midway = true;
            break;
        }
        if victim.try_wait().expect("poll victim").is_some() {
            break; // finished before we could kill it — resume is a no-op
        }
        assert!(Instant::now() < deadline, "victim made no progress");
        std::thread::sleep(Duration::from_millis(10));
    }
    victim.wait().expect("reap victim");
    if killed_midway {
        assert!(
            journal_lines(&victim_dir) < 158, // header + 157 chunks = done
            "kill landed after the sweep already finished; no crash exercised"
        );
    }

    // Resume from the journal at yet another shard count.
    let resumed = Command::new(BIN)
        .args(["sweep", "--resume", victim_dir.to_str().unwrap(), "-j", "3"])
        .stderr(Stdio::null())
        .output()
        .expect("resume sweep");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let got_snapshot = std::fs::read(victim_dir.join("snapshot.json")).unwrap();
    assert_eq!(
        got_snapshot, want_snapshot,
        "snapshot after SIGKILL+resume differs from the uninterrupted run"
    );
    assert_eq!(
        resumed.stdout, want_stdout,
        "rendered report after SIGKILL+resume differs from the uninterrupted run"
    );

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&victim_dir).ok();
}

#[test]
fn caught_cell_panics_print_nothing_at_any_shard_count() {
    // The supervisor catches and quarantines the chaos panics; the panic
    // hook must keep them off stderr on the calling thread (`-j 1`) and on
    // the executor's workers (`-j 4`) alike.
    for shards in ["1", "4"] {
        let dir = tmp_dir(&format!("quiet{shards}"));
        let run = Command::new(BIN)
            .args([
                "sweep",
                "--dir",
                dir.to_str().unwrap(),
                "--workload",
                "synthetic",
                "--cells",
                "64",
                "--cell-work",
                "10",
                "--chunk",
                "8",
                "--chaos-panic",
                "9",
                "-j",
                shards,
            ])
            .output()
            .expect("run chaotic sweep");
        assert!(run.status.success(), "sweep failed at -j {shards}");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            stdout.contains("quarantined 7"),
            "cells 8, 17, …, 62 panic: {stdout}"
        );
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            !stderr.contains("panic"),
            "a caught panic reached stderr at -j {shards}: {stderr}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
