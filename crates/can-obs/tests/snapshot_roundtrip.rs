//! can-obs/v2 snapshot serialize → deserialize → merge round-trip.
//!
//! The sweep engine (`bench::sweep`) checkpoints per-chunk registries as
//! snapshot JSON and reconstructs them on resume; byte-identical recovery
//! is only possible if `Registry::from_snapshot_json` is the exact inverse
//! of `Registry::snapshot_json`. These tests pin that inverse down,
//! including the histogram-bucket edge cases and the schema refusals.

use can_obs::{Registry, DEFAULT_BUCKETS, PERCENT_BUCKETS};

fn roundtrip(reg: &Registry) -> Registry {
    let json = reg.snapshot_json();
    let back = Registry::from_snapshot_json(&json).expect("own snapshot must parse");
    assert_eq!(
        back.snapshot_json(),
        json,
        "re-rendering the parsed registry must be byte-identical"
    );
    back
}

fn populated() -> Registry {
    let mut reg = Registry::new();
    reg.add("can_frames_total{node=\"0\"}", 41);
    reg.add("can_errors_total{node=\"1\",kind=\"stuff\"}", 3);
    reg.set_gauge("can_node_tec{node=\"1\"}", 96);
    reg.set_gauge("negative_gauge", -12345);
    for v in [1u64, 2, 3, 64, 65, 4096, 70_000] {
        reg.observe("latency_bits", DEFAULT_BUCKETS, v);
    }
    reg.observe("load_pct", PERCENT_BUCKETS, 55);
    reg
}

#[test]
fn empty_registry_round_trips() {
    let reg = Registry::new();
    let back = roundtrip(&reg);
    assert!(back.is_empty());
}

#[test]
fn populated_registry_round_trips_exactly() {
    let reg = populated();
    let back = roundtrip(&reg);
    assert_eq!(back.counter("can_frames_total{node=\"0\"}"), 41);
    assert_eq!(back.gauge("can_node_tec{node=\"1\"}"), Some(96));
    assert_eq!(back.gauge("negative_gauge"), Some(-12345));
    let hist = back.histogram("latency_bits").unwrap();
    assert_eq!(hist.count(), 7);
    assert_eq!(hist.min(), Some(1));
    assert_eq!(hist.max(), Some(70_000));
}

#[test]
fn declared_but_empty_histogram_round_trips() {
    // count == 0 renders min/max as 0; the parse must restore the neutral
    // extremes so later observations still track min correctly.
    let mut reg = Registry::new();
    reg.declare_histogram("reaction_bits", DEFAULT_BUCKETS);
    let mut back = roundtrip(&reg);
    back.observe("reaction_bits", DEFAULT_BUCKETS, 9);
    assert_eq!(back.histogram("reaction_bits").unwrap().min(), Some(9));
    assert_eq!(back.histogram("reaction_bits").unwrap().max(), Some(9));
}

#[test]
fn saturated_bucket_and_saturating_sum_round_trip() {
    // Observations beyond the last bound land in the overflow ("inf")
    // bucket, and the sum saturates at u64::MAX rather than wrapping.
    let mut reg = Registry::new();
    reg.observe("huge", &[1, 2], u64::MAX);
    reg.observe("huge", &[1, 2], u64::MAX);
    reg.observe("huge", &[1, 2], 1);
    let back = roundtrip(&reg);
    let hist = back.histogram("huge").unwrap();
    assert_eq!(hist.count(), 3);
    assert_eq!(hist.sum(), u64::MAX, "saturated sum survives the trip");
    assert_eq!(hist.bucket_counts(), &[1, 0, 2]);
    assert_eq!(hist.max(), Some(u64::MAX));
}

#[test]
fn bucket_edge_observations_stay_in_their_bucket() {
    // Bounds are inclusive: an observation exactly on a bound must come
    // back in the same bucket, not migrate across the edge.
    let mut reg = Registry::new();
    for v in [1u64, 2, 3, 4] {
        reg.observe("edges", &[2, 4], v);
    }
    let back = roundtrip(&reg);
    assert_eq!(back.histogram("edges").unwrap().bucket_counts(), &[2, 2, 0]);
}

#[test]
fn merge_of_parsed_equals_merge_of_original() {
    let base = populated();
    let mut extra = Registry::new();
    extra.add("can_frames_total{node=\"0\"}", 1);
    extra.observe("latency_bits", DEFAULT_BUCKETS, 500);
    extra.set_gauge("can_node_tec{node=\"1\"}", 0);

    let mut merged_direct = base.clone();
    merged_direct.merge(&extra);

    let mut merged_from_disk = base.clone();
    merged_from_disk
        .merge_snapshot_json(&extra.snapshot_json())
        .unwrap();

    assert_eq!(
        merged_direct.snapshot_json(),
        merged_from_disk.snapshot_json()
    );
    // Gauges take the incoming value in both paths.
    assert_eq!(merged_from_disk.gauge("can_node_tec{node=\"1\"}"), Some(0));
}

#[test]
fn parse_is_idempotent_across_repeated_trips() {
    // parse ∘ render is a projection: once through the trip, further trips
    // are the identity (merge-with-self style idempotence of the codec).
    let reg = populated();
    let once = roundtrip(&reg);
    let twice = roundtrip(&once);
    assert_eq!(once, twice);
    assert_eq!(reg.snapshot_json(), twice.snapshot_json());
}

#[test]
fn escaped_keys_round_trip() {
    let mut reg = Registry::new();
    reg.add("weird_total{label=\"a\\\"b\"}", 5);
    reg.add("newline_total{label=\"line1\nline2\t\"}", 1);
    let back = roundtrip(&reg);
    assert_eq!(back.counter("weird_total{label=\"a\\\"b\"}"), 5);
    assert_eq!(back.counter("newline_total{label=\"line1\nline2\t\"}"), 1);
}

#[test]
fn corrupt_documents_are_rejected() {
    let good = populated().snapshot_json();
    // Truncation anywhere in the document must fail, never half-parse.
    assert!(Registry::from_snapshot_json(&good[..good.len() / 2]).is_err());
    assert!(Registry::from_snapshot_json("").is_err());
    assert!(
        Registry::from_snapshot_json("{}").is_err(),
        "missing schema"
    );
    let wrong_schema = good.replace("can-obs/v2", "can-obs/v9");
    assert!(Registry::from_snapshot_json(&wrong_schema).is_err());
    // A well-formed document of the previous schema, which carried the
    // bounded defense-event trace sink, is refused by name.
    let v1 = "{\n  \"schema\": \"can-obs/v1\",\n  \"counters\": {\n    \"a_total\": 2\n  },\n  \
               \"gauges\": {\n  },\n  \"histograms\": {\n  },\n  \"trace_capacity\": 10000,\n  \
               \"traces_dropped\": {\n  },\n  \"traces\": [\n    [7, 1, \"detection\", \"pos=3\"]\n  ]\n}\n";
    let err = Registry::from_snapshot_json(v1).expect_err("v1 is refused");
    assert!(err.to_string().contains("can-obs/v1"), "{err}");
    // Internal inconsistency: bucket counts not summing to `count`.
    let mut reg = Registry::new();
    reg.observe("h", &[8], 3);
    let tampered = reg.snapshot_json().replace("\"count\": 1", "\"count\": 2");
    assert!(Registry::from_snapshot_json(&tampered).is_err());
}
