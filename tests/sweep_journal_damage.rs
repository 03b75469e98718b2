//! Damaged sweep journals are typed errors or recoveries, never panics.
//!
//! `experiments sweep --resume <dir>` reads `<dir>/journal.jsonl` back
//! from disk: external bytes that a crash, a full disk or a stray editor
//! may have damaged. A small `SyntheticSweep` journal is cut at any byte,
//! has bytes flipped, and has multi-byte characters and JSON fragments
//! spliced in. `sweep::resume_params` and a resuming `sweep::run_sweep`
//! must each return a `SweepError` or recover. A cut journal always
//! recovers once its header is whole: the torn tail is dropped and the
//! missing chunks rerun to the undamaged snapshot.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bench::sweep::{
    resume_params, run_sweep, workload_from_descriptor, SweepConfig, SweepError, SweepWorkload,
    SyntheticSweep, JOURNAL_FILE,
};
use proptest::prelude::*;

/// Text spliced into the journal: 2-, 3- and 4-byte characters, JSON
/// structure, line breaks, and number and literal fragments.
const INSERTS: [&str; 14] = [
    "é", "€", "😀", "{", "}", "[", "]", ",", ":", "\"", "\\", "\n", "0", "e99",
];

/// Five chunks of four cells: small enough to rerun per damaged copy.
fn workload() -> Arc<dyn SweepWorkload> {
    Arc::new(SyntheticSweep {
        cells: 20,
        work: 16,
    })
}

fn config() -> SweepConfig {
    SweepConfig {
        chunk_cells: 4,
        retry_backoff: Duration::ZERO,
        ..SweepConfig::default()
    }
}

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "michican_sweep_damage_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The undamaged journal bytes and the snapshot of the complete sweep.
fn reference() -> &'static (Vec<u8>, String) {
    static REFERENCE: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = TempDir::new();
        let report = run_sweep(workload(), &config(), dir.path()).expect("reference sweep");
        let journal = fs::read(dir.path().join(JOURNAL_FILE)).expect("journal written");
        (journal, report.snapshot)
    })
}

/// Length of the header record, newline included.
fn header_len(journal: &[u8]) -> usize {
    journal
        .iter()
        .position(|&b| b == b'\n')
        .expect("header line")
        + 1
}

/// Resumes from `journal`: the resume parameters (and the workload they
/// describe) and a resuming run each yield a value or a `SweepError`.
/// Returns the resumed run's snapshot, if it recovered.
fn resume(journal: &[u8]) -> Result<String, SweepError> {
    let dir = TempDir::new();
    fs::write(dir.path().join(JOURNAL_FILE), journal).expect("write damaged journal");
    if let Ok(params) = resume_params(dir.path()) {
        let _ = workload_from_descriptor(&params.workload);
    }
    run_sweep(workload(), &config(), dir.path()).map(|report| report.snapshot)
}

#[test]
fn the_undamaged_journal_resumes_to_the_same_snapshot() {
    let (journal, snapshot) = reference();
    let dir = TempDir::new();
    fs::write(dir.path().join(JOURNAL_FILE), journal).unwrap();
    let params = resume_params(dir.path()).unwrap();
    assert_eq!(params.chunk_cells, 4);
    assert!(workload_from_descriptor(&params.workload).is_ok());
    assert_eq!(&resume(journal).unwrap(), snapshot);
}

#[test]
fn every_cut_recovers_once_the_header_is_whole() {
    let (journal, snapshot) = reference();
    let header = header_len(journal);
    for cut in 0..=journal.len() {
        match resume(&journal[..cut]) {
            Ok(resumed) => {
                assert!(cut >= header, "cut at {cut} inside the header resumed");
                assert_eq!(&resumed, snapshot, "cut at {cut}");
            }
            Err(e) => {
                assert!(cut < header, "cut at {cut} after the header: {e}");
                assert!(matches!(e, SweepError::Journal(_)), "cut at {cut}: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flipped bytes and spliced text never panic the reader or the
    /// resuming run.
    #[test]
    fn damaged_journals_never_panic(
        flips in proptest::collection::vec((any::<u64>(), 1u8..=255), 1..4),
        inserts in proptest::collection::vec((any::<u64>(), 0usize..INSERTS.len()), 1..4),
    ) {
        let (journal, _) = reference();
        for &(at, mask) in &flips {
            let mut flipped = journal.clone();
            flipped[(at % journal.len() as u64) as usize] ^= mask;
            let _ = resume(&flipped);
        }
        for &(at, insert) in &inserts {
            let mut spliced = journal.clone();
            let at = (at % (journal.len() as u64 + 1)) as usize;
            spliced.splice(at..at, INSERTS[insert].bytes());
            let _ = resume(&spliced);
        }
        // Several flips in one copy.
        let mut damaged = journal.clone();
        for &(at, mask) in &flips {
            damaged[(at % journal.len() as u64) as usize] ^= mask;
        }
        let _ = resume(&damaged);
    }
}

/// A record that parses but cannot belong to the sweep is a
/// `SweepError`: summing two chunks of `u64::MAX` cells or retries used
/// to overflow (a panic in debug builds).
#[test]
fn records_that_cannot_belong_to_the_sweep_are_rejected() {
    let (journal, _) = reference();
    let text = std::str::from_utf8(journal).unwrap();
    let max = u64::MAX;
    for (from, to) in [
        ("\"cells\":4,".to_string(), format!("\"cells\":{max},")),
        ("\"retries\":0,".to_string(), format!("\"retries\":{max},")),
        ("\"chunk\":1,".to_string(), "\"chunk\":99,".to_string()),
    ] {
        assert!(text.contains(&from), "{from} in the journal");
        let damaged = text.replace(&from, &to);
        match resume(damaged.as_bytes()) {
            Err(SweepError::Journal(detail)) => assert!(detail.contains("chunk"), "{detail}"),
            other => panic!("{to}: {other:?}"),
        }
    }
}
