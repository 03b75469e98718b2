//! The metrics registry: counters, gauges and fixed-bucket histograms,
//! plus wall-clock span statistics.
//!
//! ## Determinism contract
//!
//! Every *deterministic* quantity in the registry is an integer (`u64`
//! counters and histogram observations, `i64` gauges): sums of integers
//! are associative, so merging per-cell registries in index order yields
//! bit-identical totals no matter how observations were grouped across
//! worker shards. The [`Registry::snapshot_json`] rendering contains only
//! these deterministic sections — wall-clock [`SpanStats`] are explicitly
//! excluded (they differ per host and per run) and appear only in the
//! [`Registry::prometheus_text`] rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, JsonValue, ParseError};

/// Default histogram bucket upper bounds (inclusive), in whatever unit the
/// metric observes — bit times for latency histograms, percent for load
/// windows. Roughly geometric so both single-digit reaction latencies and
/// multi-thousand-bit bus-off ladders resolve.
pub const DEFAULT_BUCKETS: &[u64] = &[
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048,
    3072, 4096, 8192, 16384, 32768, 65536,
];

/// Percent buckets (0–100) for utilization-style histograms.
pub const PERCENT_BUCKETS: &[u64] = &[5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 100];

/// The schema tag of [`Registry::snapshot_json`]; the reader refuses any
/// other.
const SNAPSHOT_SCHEMA: &str = "can-obs/v2";

/// A fixed-bucket histogram over integer observations.
///
/// Tracks per-bucket counts (plus an overflow bucket), count, sum, min and
/// max exactly; p50/p95/p99 are estimated from the buckets by linear
/// interpolation (max is exact, so p-quantiles never exceed it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending; an implicit +inf bucket follows.
    bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given bucket bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let slot = self.bounds.partition_point(|&b| b < value);
        self.counts[slot] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (one per bound, plus the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the buckets by linear
    /// interpolation; exact at the extremes (clamped to observed min/max).
    /// Returns `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (slot, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let upper = if slot < self.bounds.len() {
                    self.bounds[slot] as f64
                } else {
                    self.max as f64
                };
                let lower = if slot == 0 {
                    0.0
                } else {
                    self.bounds[slot - 1] as f64
                };
                let inside = (rank - seen) as f64 / n as f64;
                let estimate = lower + (upper - lower) * inside;
                return Some(estimate.clamp(self.min as f64, self.max as f64));
            }
            seen += n;
        }
        Some(self.max as f64)
    }

    /// Adds another histogram's contents into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merged histograms must come
    /// from the same instrumentation site.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Wall-clock statistics of one named span (see [`crate::Recorder::span`]).
///
/// Spans are *non-deterministic by nature* (they measure host time), so
/// they are excluded from [`Registry::snapshot_json`] and appear only in
/// the Prometheus rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Completed span instances.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Shortest instance, nanoseconds.
    pub min_ns: u64,
    /// Longest instance, nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    fn merge(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// The metric store behind a [`crate::Recorder`].
///
/// Keys are full metric identifiers in Prometheus notation, e.g.
/// `can_errors_total{node="2",kind="stuff"}` — the label part is opaque to
/// the registry (it only orders keys), but the renderers split it back out.
///
/// The registry holds aggregates only; discrete defense events (detection,
/// injection window, degrade, re-arm) go to the causal [`crate::Journal`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the counter `key`.
    pub fn add(&mut self, key: &str, delta: u64) {
        match self.counters.get_mut(key) {
            Some(value) => *value += delta,
            None => {
                self.counters.insert(key.to_string(), delta);
            }
        }
    }

    /// Sets the gauge `key` to `value`.
    pub fn set_gauge(&mut self, key: &str, value: i64) {
        match self.gauges.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                self.gauges.insert(key.to_string(), value);
            }
        }
    }

    /// Records `value` into the histogram `key`, creating it with `bounds`
    /// on first use.
    pub fn observe(&mut self, key: &str, bounds: &[u64], value: u64) {
        match self.histograms.get_mut(key) {
            Some(hist) => hist.observe(value),
            None => {
                let mut hist = Histogram::new(bounds);
                hist.observe(value);
                self.histograms.insert(key.to_string(), hist);
            }
        }
    }

    /// Registers an empty histogram so the snapshot carries the series even
    /// before the first observation.
    pub fn declare_histogram(&mut self, key: &str, bounds: &[u64]) {
        self.histograms
            .entry(key.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records one completed wall-clock span instance.
    pub fn record_span(&mut self, name: &str, ns: u64) {
        self.spans.entry(name.to_string()).or_default().record(ns);
    }

    /// Counter value, 0 when never incremented.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, key: &str) -> Option<i64> {
        self.gauges.get(key).copied()
    }

    /// Histogram by key, if any observation or declaration created it.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Wall-clock span statistics by name.
    pub fn span_stats(&self, name: &str) -> Option<SpanStats> {
        self.spans.get(name).copied()
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Merges `other` into `self`: counters and histograms add, gauges are
    /// overwritten by the incoming value, spans combine. Merging per-cell
    /// registries *in cell index order* is what makes sharded runs
    /// byte-identical to serial — see
    /// `bench::runner::ExperimentPlan::run_with`.
    pub fn merge(&mut self, other: &Registry) {
        for (key, &value) in &other.counters {
            self.add(key, value);
        }
        for (key, &value) in &other.gauges {
            self.set_gauge(key, value);
        }
        for (key, hist) in &other.histograms {
            match self.histograms.get_mut(key) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(key.clone(), hist.clone());
                }
            }
        }
        for (key, stats) in &other.spans {
            self.spans.entry(key.clone()).or_default().merge(stats);
        }
    }

    /// Renders the deterministic JSON snapshot (schema `can-obs/v2`).
    ///
    /// Contains counters, gauges and histograms (with bucket counts and
    /// estimated p50/p95/p99) — all integer-derived, so
    /// the same simulated run produces the same bytes on every host and
    /// every shard count. Wall-clock spans are deliberately absent.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{SNAPSHOT_SCHEMA}\",\n  \"counters\": {{"
        );
        for (i, (key, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(key));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (key, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(key));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (key, hist)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, ",
                json_escape(key),
                hist.count(),
                hist.sum(),
                hist.min().unwrap_or(0),
                hist.max().unwrap_or(0),
            );
            let _ = write!(
                out,
                "\"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                json_quantile(hist, 0.50),
                json_quantile(hist, 0.95),
                json_quantile(hist, 0.99),
            );
            for (slot, &n) in hist.bucket_counts().iter().enumerate() {
                let sep = if slot == 0 { "" } else { ", " };
                match hist.bounds().get(slot) {
                    Some(&bound) => {
                        let _ = write!(out, "{sep}[{bound}, {n}]");
                    }
                    None => {
                        let _ = write!(out, "{sep}[\"inf\", {n}]");
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Reconstructs a registry from its [`Registry::snapshot_json`]
    /// rendering.
    ///
    /// This is the exact inverse of the snapshot for everything the
    /// snapshot contains: counters, gauges, histograms (bucket counts plus
    /// exact count/sum/min/max — the p-quantiles are derived and are
    /// recomputed, not stored). Wall-clock spans are not in the snapshot
    /// and therefore not reconstructed. The round trip is byte-stable:
    /// `from_snapshot_json(s)?.snapshot_json() == s` for any `s` this
    /// crate produced.
    ///
    /// Inconsistent documents — any schema but `can-obs/v2`, bucket counts
    /// that do not sum to the histogram count, non-ascending bounds — are
    /// rejected; `bench::sweep` relies on this as corruption detection
    /// when merging checkpointed snapshots back from disk.
    pub fn from_snapshot_json(text: &str) -> Result<Registry, ParseError> {
        let fail = |detail: String| ParseError::new(0, detail);
        let doc = json::parse(text)?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(SNAPSHOT_SCHEMA) => {}
            other => return Err(fail(format!("unsupported snapshot schema {other:?}"))),
        }
        let object = |field: &str| {
            doc.get(field)
                .and_then(JsonValue::as_object)
                .ok_or_else(|| fail(format!("missing object field '{field}'")))
        };

        let mut reg = Registry::new();
        for (key, value) in object("counters")? {
            let value = value
                .as_u64()
                .ok_or_else(|| fail(format!("counter '{key}' is not a u64")))?;
            reg.counters.insert(key.clone(), value);
        }
        for (key, value) in object("gauges")? {
            let value = value
                .as_i64()
                .ok_or_else(|| fail(format!("gauge '{key}' is not an i64")))?;
            reg.gauges.insert(key.clone(), value);
        }
        for (key, hist) in object("histograms")? {
            let field = |name: &str| {
                hist.get(name)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| fail(format!("histogram '{key}': bad field '{name}'")))
            };
            let (count, sum) = (field("count")?, field("sum")?);
            let (min, max) = (field("min")?, field("max")?);
            let buckets = hist
                .get("buckets")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| fail(format!("histogram '{key}': missing buckets")))?;
            let mut bounds = Vec::with_capacity(buckets.len().saturating_sub(1));
            let mut counts = Vec::with_capacity(buckets.len());
            for (slot, bucket) in buckets.iter().enumerate() {
                let pair = bucket
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| fail(format!("histogram '{key}': bucket {slot} malformed")))?;
                let last = slot + 1 == buckets.len();
                match (&pair[0], last) {
                    (JsonValue::Str(s), true) if s == "inf" => {}
                    (bound, false) => bounds.push(bound.as_u64().ok_or_else(|| {
                        fail(format!("histogram '{key}': bucket {slot} bad bound"))
                    })?),
                    _ => {
                        return Err(fail(format!(
                            "histogram '{key}': last bucket must be the \"inf\" bucket"
                        )))
                    }
                }
                counts.push(
                    pair[1].as_u64().ok_or_else(|| {
                        fail(format!("histogram '{key}': bucket {slot} bad count"))
                    })?,
                );
            }
            if counts.is_empty() || !bounds.windows(2).all(|w| w[0] < w[1]) {
                return Err(fail(format!("histogram '{key}': bounds not ascending")));
            }
            let bucket_total = counts
                .iter()
                .try_fold(0u64, |acc, &n| acc.checked_add(n))
                .ok_or_else(|| fail(format!("histogram '{key}': bucket counts overflow")))?;
            if bucket_total != count {
                return Err(fail(format!(
                    "histogram '{key}': bucket counts sum to {bucket_total}, count says {count}"
                )));
            }
            if count > 0 && min > max {
                return Err(fail(format!("histogram '{key}': min {min} > max {max}")));
            }
            reg.histograms.insert(
                key.clone(),
                Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                    // An empty histogram stores its neutral extremes; the
                    // snapshot renders them as 0.
                    min: if count == 0 { u64::MAX } else { min },
                    max: if count == 0 { 0 } else { max },
                },
            );
        }
        Ok(reg)
    }

    /// Parses a `can-obs/v2` snapshot and merges it into this registry —
    /// the "merge-from-disk" primitive checkpointed sweeps use to fold a
    /// persisted chunk snapshot into a running aggregate without retaining
    /// the source registry.
    pub fn merge_snapshot_json(&mut self, text: &str) -> Result<(), ParseError> {
        let other = Registry::from_snapshot_json(text)?;
        self.merge(&other);
        Ok(())
    }

    /// Renders the registry in Prometheus text exposition format,
    /// including the wall-clock spans (as `<name>_seconds` summaries).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut last_base = String::new();
        for (key, value) in &self.counters {
            let (base, _) = split_key(key);
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} counter");
                last_base = base.to_string();
            }
            let _ = writeln!(out, "{key} {value}");
        }
        last_base.clear();
        for (key, value) in &self.gauges {
            let (base, _) = split_key(key);
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} gauge");
                last_base = base.to_string();
            }
            let _ = writeln!(out, "{key} {value}");
        }
        last_base.clear();
        for (key, hist) in &self.histograms {
            let (base, labels) = split_key(key);
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} histogram");
                last_base = base.to_string();
            }
            let mut cumulative = 0u64;
            for (slot, &n) in hist.bucket_counts().iter().enumerate() {
                cumulative += n;
                let le = match hist.bounds().get(slot) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{base}_bucket{{{}le=\"{le}\"}} {cumulative}",
                    join_labels(labels)
                );
            }
            let _ = writeln!(out, "{base}_sum{{{labels}}} {}", hist.sum());
            let _ = writeln!(out, "{base}_count{{{labels}}} {}", hist.count());
        }
        for (name, stats) in &self.spans {
            let _ = writeln!(out, "# TYPE {name}_seconds summary");
            let _ = writeln!(out, "{name}_seconds_sum {:.9}", stats.total_ns as f64 / 1e9);
            let _ = writeln!(out, "{name}_seconds_count {}", stats.count);
            let _ = writeln!(out, "{name}_seconds_max {:.9}", stats.max_ns as f64 / 1e9);
        }
        out
    }
}

/// Formats an estimated quantile for the JSON snapshot: fixed three
/// decimals, so identical integer inputs render to identical bytes.
fn json_quantile(hist: &Histogram, q: f64) -> String {
    match hist.quantile(q) {
        Some(value) => format!("{value:.3}"),
        None => "null".to_string(),
    }
}

/// Splits `name{labels}` into `(name, labels)` (labels without braces,
/// empty when absent).
fn split_key(key: &str) -> (&str, &str) {
    match key.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}').unwrap_or(rest)),
        None => (key, ""),
    }
}

/// Label fragment with a trailing comma when non-empty, for appending the
/// `le` label.
fn join_labels(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    }
}

/// Escapes a string for use as a Prometheus label *value*: backslash,
/// double quote and newline are escaped per the text exposition format.
/// Instrumentation sites building `name{label="value"}` keys from
/// free-form detail (scenario labels, error kinds) should pass the value
/// through this before embedding it.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes a string for embedding inside a JSON string literal (the
/// shared escaper, see [`crate::json::escape`]).
fn json_escape(s: &str) -> String {
    json::escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_exact_aggregates() {
        let mut h = Histogram::new(&[1, 2, 4, 8]);
        for v in [1u64, 1, 3, 9, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 114);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        // buckets: ≤1: 2, ≤2: 0, ≤4: 1, ≤8: 0, inf: 2
        assert_eq!(h.bucket_counts(), &[2, 0, 1, 0, 2]);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let mut h = Histogram::new(DEFAULT_BUCKETS);
        for v in 1..=100u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.50).unwrap();
        assert!((30.0..=70.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 <= 100.0, "clamped to max: {p99}");
        assert!(Histogram::new(&[1]).quantile(0.5).is_none());
    }

    #[test]
    fn merge_is_grouping_independent() {
        // One registry fed serially vs three merged in order: identical.
        let feed = |reg: &mut Registry, values: &[u64]| {
            for &v in values {
                reg.add("hits_total", 1);
                reg.observe("lat_bits", DEFAULT_BUCKETS, v);
            }
        };
        let mut serial = Registry::new();
        feed(&mut serial, &[3, 5, 800, 2, 2, 70_000]);

        let mut merged = Registry::new();
        for chunk in [[3u64, 5].as_slice(), &[800, 2], &[2, 70_000]] {
            let mut cell = Registry::new();
            feed(&mut cell, chunk);
            merged.merge(&cell);
        }
        assert_eq!(serial, merged);
        assert_eq!(serial.snapshot_json(), merged.snapshot_json());
    }

    #[test]
    fn gauges_take_the_last_merged_value() {
        let mut a = Registry::new();
        a.set_gauge("tec{node=\"0\"}", 8);
        let mut b = Registry::new();
        b.set_gauge("tec{node=\"0\"}", 16);
        a.merge(&b);
        assert_eq!(a.gauge("tec{node=\"0\"}"), Some(16));
    }

    #[test]
    fn snapshot_json_is_valid_enough_and_stable() {
        let mut reg = Registry::new();
        reg.add("a_total", 2);
        reg.set_gauge("g", -4);
        reg.observe("h_bits", &[10, 20], 15);
        let json = reg.snapshot_json();
        assert!(json.contains("\"schema\": \"can-obs/v2\""));
        assert!(json.contains("\"a_total\": 2"));
        assert!(json.contains("\"g\": -4"));
        assert!(json.contains("[\"inf\", 0]"));
        assert_eq!(json, reg.clone().snapshot_json(), "pure function of state");
        // Spans never reach the deterministic snapshot.
        reg.record_span("wall", 123);
        assert_eq!(json, reg.snapshot_json());
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let mut reg = Registry::new();
        reg.add("hits_total{node=\"1\"}", 3);
        reg.set_gauge("tec{node=\"1\"}", 96);
        reg.observe("lat_bits", &[1, 8], 5);
        reg.record_span("cell_wall", 2_000_000_000);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE hits_total counter"));
        assert!(text.contains("hits_total{node=\"1\"} 3"));
        assert!(text.contains("# TYPE tec gauge"));
        assert!(text.contains("lat_bits_bucket{le=\"8\"} 1"));
        assert!(text.contains("lat_bits_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_bits_count{} 1"));
        assert!(text.contains("cell_wall_seconds_count 1"));
        assert!(text.contains("cell_wall_seconds_sum 2.000000000"));
    }

    #[test]
    fn labeled_keys_survive_json_escaping() {
        let mut reg = Registry::new();
        reg.add("errors_total{kind=\"stuff\"}", 1);
        let json = reg.snapshot_json();
        assert!(json.contains("errors_total{kind=\\\"stuff\\\"}"));
    }
}
