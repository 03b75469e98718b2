//! The journal export's text path, end to end: the JSONL writer
//! (`Journal::export_jsonl`), its reader (`parse_export`) and the
//! chrome-trace renderer built on the same reader.
//!
//! * Round trip: for arbitrary stores — arbitrary detail strings, merged
//!   epochs, capacity exceeded — reading the export back gives exactly the
//!   store's canonical events and drop counts.
//! * Mutation: truncated, byte-flipped, reordered, dropped, duplicated and
//!   key-shuffled exports never panic either reader; each yields `Ok` or a
//!   typed `JournalParseError`, and both readers agree on which.
//! * `JournalKind`'s `Ord` is the order of its export names, which is
//!   what keeps the canonical export sort unchanged.

use can_obs::{parse_export, Journal, JournalEvent, JournalKind, JournalParseError, JournalStore};
use can_trace::chrome_trace_json;
use proptest::prelude::*;

/// Characters a detail string is drawn from: everything the escaper
/// treats specially, plus multi-byte UTF-8 and the JSON lookalikes `,"`.
const PALETTE: [char; 16] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '🦀', ',',
    '/',
];

/// One recorded operation: `(op, at, node, (kind index, retry, detail))`.
type Op = (u8, u64, u32, (usize, bool, Vec<usize>));

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..4,
            0u64..400,
            0u32..5,
            (
                0usize..JournalKind::ALL.len(),
                any::<bool>(),
                proptest::collection::vec(0usize..PALETTE.len(), 0..10),
            ),
        ),
        0..50,
    )
}

/// Replays `ops` into a journal retaining at most `capacity` events.
fn record(ops: &[Op], capacity: usize) -> JournalStore {
    let journal = Journal::with_capacity(capacity);
    for (op, at, node, (kind, retry, detail)) in ops {
        let detail: String = detail.iter().map(|&i| PALETTE[i]).collect();
        let kind = JournalKind::ALL[*kind];
        match op {
            0 => journal.begin_frame(*at, *node, &detail),
            1 => {
                let end = [
                    JournalKind::ArbLost,
                    JournalKind::FrameAck,
                    JournalKind::FrameError,
                ][*at as usize % 3];
                journal.end_frame(*at, *node, end, &detail, *retry);
            }
            2 => journal.node_event(*at, *node, kind, &detail),
            _ => journal.event(*at, *node, kind, &detail),
        }
    }
    journal.into_store()
}

/// Two recorded cells merged in index order into a third journal, as the
/// grid runner merges per-cell stores.
fn merged_export(a: &[Op], b: &[Op], capacity: usize) -> (String, JournalStore) {
    let journal = Journal::with_capacity(capacity);
    journal.merge_store(&record(a, capacity + 7));
    journal.merge_store(&record(b, capacity));
    let export = journal.export_jsonl();
    (export, journal.into_store())
}

/// The export of one recorded cell.
fn export_of(ops: &[Op]) -> String {
    let journal = Journal::enabled();
    journal.merge_store(&record(ops, 30));
    journal.export_jsonl()
}

/// Both readers on one text: neither panics, and they accept or reject it
/// together, with the same typed error.
fn read_both(text: &str) -> Result<Vec<JournalEvent>, JournalParseError> {
    let parsed = parse_export(text).map(|(events, _)| events);
    let rendered = chrome_trace_json(text);
    assert_eq!(
        parsed.as_ref().err(),
        rendered.as_ref().err(),
        "the two readers disagree on {text:?}"
    );
    parsed
}

fn lines_of(export: &str) -> Vec<&str> {
    export.lines().collect()
}

fn join(lines: &[&str]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reading an export back gives the store's canonical events and drop
    /// counts, whatever the details contain and whether or not the
    /// capacity was exceeded.
    #[test]
    fn export_round_trips_through_the_reader(
        a in arb_ops(),
        b in arb_ops(),
        capacity in 0usize..60,
    ) {
        let (export, store) = merged_export(&a, &b, capacity);
        let (events, dropped) = parse_export(&export).unwrap();
        let canonical: Vec<JournalEvent> =
            store.canonical_events().into_iter().cloned().collect();
        prop_assert_eq!(events, canonical);
        prop_assert_eq!(&dropped, store.dropped());
        prop_assert!(chrome_trace_json(&export).is_ok());
    }

    /// Byte-level damage — truncation at any byte, flipped bytes — never
    /// panics either reader.
    #[test]
    fn damaged_bytes_never_panic(
        ops in arb_ops(),
        cuts in proptest::collection::vec(any::<u64>(), 1..8),
        flips in proptest::collection::vec((any::<u64>(), 1u8..=255), 1..8),
    ) {
        let export = export_of(&ops);
        let bytes = export.as_bytes();
        for cut in cuts {
            let cut = (cut % (bytes.len() as u64 + 1)) as usize;
            let _ = read_both(&String::from_utf8_lossy(&bytes[..cut]));
        }
        for (at, mask) in flips {
            let mut flipped = bytes.to_vec();
            flipped[(at % bytes.len() as u64) as usize] ^= mask;
            let _ = read_both(&String::from_utf8_lossy(&flipped));
        }
    }

    /// Line-level damage: a dropped or duplicated event line breaks the
    /// header's count, swapped lines read back swapped, a dropped header
    /// is rejected and reordered keys are a malformed line — typed errors
    /// all, from both readers.
    #[test]
    fn damaged_lines_are_typed_errors(
        ops in arb_ops(),
        i in any::<u64>(),
        j in any::<u64>(),
    ) {
        let export = export_of(&ops);
        let lines = lines_of(&export);
        let events = lines.len() - 1;
        prop_assert!(read_both(&join(&lines[1..])).is_err(), "header dropped");
        if events == 0 {
            return Ok(());
        }
        let i = 1 + (i % events as u64) as usize;
        let j = 1 + (j % events as u64) as usize;

        let mut dropped = lines.clone();
        dropped.remove(i);
        let mismatch = |found| JournalParseError::CountMismatch {
            declared: events as u64,
            found,
        };
        prop_assert_eq!(read_both(&join(&dropped)), Err(mismatch(events as u64 - 1)));

        let mut duplicated = lines.clone();
        duplicated.insert(i, lines[i]);
        prop_assert_eq!(read_both(&join(&duplicated)), Err(mismatch(events as u64 + 1)));

        let mut swapped = lines.clone();
        swapped.swap(i, j);
        let mut expected = parse_export(&export).unwrap().0;
        expected.swap(i - 1, j - 1);
        prop_assert_eq!(read_both(&join(&swapped)), Ok(expected));

        // Rotate the keys of line i: `{"node":…,"kind":…,…,"at":…}`.
        let body = &lines[i][2..lines[i].len() - 1];
        let mut fields: Vec<&str> = body.split(",\"").collect();
        fields.rotate_left(1);
        let rotated = format!("{{\"{}}}", fields.join(",\""));
        let mut reordered = lines.clone();
        reordered[i] = &rotated;
        let result = read_both(&join(&reordered));
        prop_assert!(
            matches!(result, Err(JournalParseError::Line { line, .. }) if line == i + 1),
            "reordered keys on line {}: {:?}",
            i + 1,
            result
        );
    }
}

#[test]
fn journal_kind_order_is_name_order() {
    let mut by_ord = JournalKind::ALL.to_vec();
    by_ord.sort();
    let mut by_name = JournalKind::ALL.to_vec();
    by_name.sort_by_key(|k| k.name());
    assert_eq!(by_ord, by_name);
    assert_eq!(by_ord, JournalKind::ALL, "ALL is listed in order");
    by_ord.dedup();
    assert_eq!(by_ord.len(), JournalKind::ALL.len(), "kinds are distinct");
    for kind in JournalKind::ALL {
        assert_eq!(JournalKind::from_name(kind.name()), Some(kind));
        assert_eq!(kind.to_string(), kind.name());
    }
}

#[test]
fn unknown_kinds_and_forged_counts_are_typed_errors() {
    let header = "{\"schema\":\"can-obs-journal/v1\",\"events\":1,\"dropped\":{}}\n";
    let line = |kind: &str, node: &str| {
        format!(
            "{header}{{\"at\":1,\"node\":{node},\"kind\":\"{kind}\",\"seq\":0,\"chain\":0,\"detail\":\"\"}}\n"
        )
    };
    assert_eq!(
        read_both(&line("teleport", "0")),
        Err(JournalParseError::UnknownKind {
            line: 2,
            kind: "teleport".to_string()
        })
    );
    assert_eq!(
        read_both(&line("strike", "4294967296")),
        Err(JournalParseError::NodeOutOfRange { line: 2 })
    );
    assert_eq!(read_both(""), Err(JournalParseError::Empty));
    assert!(matches!(
        read_both("{\"schema\":\"can-obs-journal/v0\",\"events\":0}\n"),
        Err(JournalParseError::Schema(Some(_)))
    ));
    assert!(matches!(
        read_both(
            "{\"schema\":\"can-obs-journal/v1\",\"events\":0,\"dropped\":{\"teleport\":1}}\n"
        ),
        Err(JournalParseError::UnknownKind { line: 1, .. })
    ));
    // A forged count reserves nothing: it is checked against the lines.
    let forged = line("strike", "0").replace("\"events\":1", "\"events\":18446744073709551615");
    assert_eq!(
        read_both(&forged),
        Err(JournalParseError::CountMismatch {
            declared: u64::MAX,
            found: 1
        })
    );
}

#[test]
fn chrome_trace_renders_the_largest_node_id() {
    // Open slices are keyed sparsely by node: the largest `u32` node id
    // costs one map entry, not a four-billion-slot table.
    let journal = Journal::enabled();
    journal.begin_frame(10, u32::MAX, "id=0x173");
    journal.event(12, u32::MAX, JournalKind::InjectionStart, "");
    journal.event(20, 0, JournalKind::Detection, "pos=9");
    let trace = chrome_trace_json(&journal.export_jsonl()).unwrap();
    assert!(trace.contains("\"tid\":4294967295,\"ts\":10,\"dur\":10,\"name\":\"frame(open)\""));
    assert!(trace.contains("\"tid\":4294967295,\"ts\":12,\"dur\":8,\"name\":\"inject\""));
}
