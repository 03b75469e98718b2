//! Damaged `can-obs/v2` metric snapshots are typed errors, never panics.
//!
//! `Registry::from_snapshot_json` reads snapshots back from disk (sweep
//! checkpoints merge them), so it parses external bytes. A real snapshot,
//! taken from a defended zoo cell with the recorder on, is cut at any
//! byte, has bytes flipped, and has multi-byte characters and JSON
//! separators spliced in. Each result is either a `ParseError` or a
//! `Registry` whose own snapshot parses again, to the same bytes.

use bench::attackzoo::{build_zoo_cell_observed, zoo_cells, ZooDefense, ZOO_HORIZON_BITS};
use can_obs::{Journal, Recorder, Registry};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Text spliced into the snapshot: 2-, 3- and 4-byte characters, JSON
/// structure and separators, and number and literal fragments.
const INSERTS: [&str; 16] = [
    "é", "€", "😀", "{", "}", "[", "]", ",", ":", "\"", "\\", "-", "0", "e99", "null", "\"inf\"",
];

/// The snapshot of the first MichiCAN-defended zoo cell: counters, gauges
/// and latency histograms from the simulator and the defense.
fn zoo_snapshot() -> &'static str {
    static SNAPSHOT: OnceLock<String> = OnceLock::new();
    SNAPSHOT.get_or_init(run_zoo_cell)
}

fn run_zoo_cell() -> String {
    let cell = zoo_cells()
        .into_iter()
        .find(|cell| cell.defense == ZooDefense::MichiCan)
        .expect("the zoo has defended cells");
    let recorder = Recorder::enabled();
    let mut zoo = build_zoo_cell_observed(&cell, recorder.clone(), Journal::disabled());
    zoo.sim.run_packed(ZOO_HORIZON_BITS);
    recorder.merge_registry(&zoo.probe.into_registry());
    recorder.snapshot_json()
}

/// Reads `text`; a registry it yields must write a snapshot that reads
/// back to the same bytes.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Ok(registry) = Registry::from_snapshot_json(text) {
        let again = registry.snapshot_json();
        let reread = Registry::from_snapshot_json(&again);
        prop_assert!(reread.is_ok(), "{:?} from {:?}", reread, again);
        prop_assert_eq!(reread.unwrap().snapshot_json(), again);
    }
    Ok(())
}

#[test]
fn the_undamaged_snapshot_round_trips() {
    let snapshot = zoo_snapshot();
    assert!(snapshot.contains("\"buckets\""), "{snapshot}");
    let registry = Registry::from_snapshot_json(snapshot).unwrap();
    assert_eq!(registry.snapshot_json(), snapshot);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation at any byte, flipped bytes and spliced text never panic
    /// the reader.
    #[test]
    fn damaged_snapshots_never_panic(
        cuts in proptest::collection::vec(any::<u64>(), 1..8),
        flips in proptest::collection::vec((any::<u64>(), 1u8..=255), 1..8),
        inserts in proptest::collection::vec((any::<u64>(), 0usize..INSERTS.len()), 1..8),
    ) {
        let snapshot = zoo_snapshot();
        let bytes = snapshot.as_bytes();
        for cut in cuts {
            let cut = (cut % (bytes.len() as u64 + 1)) as usize;
            check(&String::from_utf8_lossy(&bytes[..cut]))?;
        }
        for (at, mask) in flips {
            let mut flipped = bytes.to_vec();
            flipped[(at % bytes.len() as u64) as usize] ^= mask;
            check(&String::from_utf8_lossy(&flipped))?;
        }
        for (at, which) in inserts {
            // The snapshot is ASCII, so every byte index is a char
            // boundary.
            let mut spliced = snapshot.to_string();
            spliced.insert_str((at % (bytes.len() as u64 + 1)) as usize, INSERTS[which]);
            check(&spliced)?;
        }
    }
}
