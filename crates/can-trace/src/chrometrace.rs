//! Chrome-trace (Perfetto) export of a `can-obs` causal event journal.
//!
//! [`chrome_trace_json`] turns a [`can_obs::Journal::export_jsonl`]
//! document into Chrome's Trace Event JSON, loadable in `ui.perfetto.dev`
//! or `chrome://tracing` — the interactive counterpart of the VCD path
//! ([`crate::vcd`]): the VCD shows wire levels, the trace shows causality.
//!
//! ## Mapping
//!
//! * One process (`pid` 0, named `can-bus`); one thread per node
//!   (`tid` = node index), so every node gets its own track.
//! * `frame_start` … `frame_ack`/`frame_error`/`arb_lost` pairs become
//!   complete slices (`ph:"X"`), named after the closing kind.
//! * `injection_start` … `injection_end` pairs become `inject` slices — the
//!   defense's injection window is directly visible as a bar.
//! * Every other kind (`detection`, `strike`, `probe`, `degraded`, …)
//!   becomes a thread-scoped instant event (`ph:"i"`).
//! * `ts`/`dur` are in *bit times* (1 tick = 1 µs in the viewer; at the
//!   paper's 500 kbit/s a real bit is 2 µs, so on-screen durations are
//!   simply half scale).
//! * `args` carry `seq`, `chain` and the event detail, so slices of one
//!   causal chain can be found with a `chain` query.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use can_obs::json::{escape_into, push_u64};
use can_obs::{scan_export, EventLine, JournalKind, JournalParseError};

/// Converts a journal export (`can-obs-journal/v1` JSONL) into Chrome
/// Trace Event JSON. Slices left open at the end of the export (a frame
/// still on the wire, an injection window still active) are closed at the
/// last event's timestamp so the viewer never drops them.
///
/// The export is read in one pass ([`scan_export`]) and the trace is
/// written into one buffer; open slices are remembered by event index.
///
/// # Errors
///
/// Returns the parse error of a malformed or wrong-schema export.
pub fn chrome_trace_json(export: &str) -> Result<String, JournalParseError> {
    let (events, _dropped) = scan_export(export)?;
    let horizon = events.iter().map(|e| e.at_bits).max().unwrap_or(0);

    // The trace is about a fifth longer than the export it renders.
    let mut out = String::with_capacity(export.len() + export.len() / 4 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

    // Track metadata: name the process and one thread per node. Every
    // later record starts with its separating comma.
    out.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"can-bus\"}}",
    );
    let mut nodes: Vec<u32> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for node in nodes {
        let _ = write!(
            out,
            ",{{\"ph\":\"M\",\"pid\":0,\"tid\":{node},\"name\":\"thread_name\",\"args\":{{\"name\":\"node {node}\"}}}}"
        );
    }

    // Open frame / injection slices: node -> index of the start event.
    // Keyed sparsely, so a huge node id costs one map entry.
    let mut open_frame: BTreeMap<u32, usize> = BTreeMap::new();
    let mut open_inject: BTreeMap<u32, usize> = BTreeMap::new();
    let start_of =
        |open: Option<usize>, event: &EventLine| open.map_or(event.at_bits, |i| events[i].at_bits);

    for (i, event) in events.iter().enumerate() {
        match event.kind {
            JournalKind::FrameStart => {
                open_frame.insert(event.node, i);
            }
            JournalKind::FrameAck | JournalKind::FrameError | JournalKind::ArbLost => {
                let start = start_of(open_frame.remove(&event.node), event);
                slice(&mut out, event, event.kind.name(), start, event.at_bits);
            }
            JournalKind::InjectionStart => {
                open_inject.insert(event.node, i);
            }
            JournalKind::InjectionEnd => {
                let start = start_of(open_inject.remove(&event.node), event);
                slice(&mut out, event, "inject", start, event.at_bits);
            }
            _ => instant(&mut out, event),
        }
    }

    // Close anything still open at the horizon: frames, then injections,
    // each in node order.
    for (open, name) in [(open_frame, "frame(open)"), (open_inject, "inject")] {
        for i in open.into_values() {
            let event = &events[i];
            slice(&mut out, event, name, event.at_bits, horizon);
        }
    }

    out.push_str("]}");
    Ok(out)
}

/// Appends the `args` object and closes the record.
fn args(out: &mut String, event: &EventLine) {
    out.push_str("\"args\":{\"seq\":");
    push_u64(out, event.frame_seq);
    out.push_str(",\"chain\":");
    push_u64(out, event.chain_id);
    out.push_str(",\"detail\":\"");
    escape_into(out, &event.detail);
    out.push_str("\"}}");
}

/// Appends a complete slice (`ph:"X"`) named `name` over `[start, end]`.
fn slice(out: &mut String, event: &EventLine, name: &str, start: u64, end: u64) {
    out.push_str(",{\"ph\":\"X\",\"pid\":0,\"tid\":");
    push_u64(out, event.node.into());
    out.push_str(",\"ts\":");
    push_u64(out, start);
    out.push_str(",\"dur\":");
    push_u64(out, end.saturating_sub(start));
    out.push_str(",\"name\":\"");
    out.push_str(name);
    out.push_str("\",\"cat\":\"frame\",");
    args(out, event);
}

/// Appends a thread-scoped instant event (`ph:"i"`).
fn instant(out: &mut String, event: &EventLine) {
    out.push_str(",{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":");
    push_u64(out, event.node.into());
    out.push_str(",\"ts\":");
    push_u64(out, event.at_bits);
    out.push_str(",\"name\":\"");
    out.push_str(event.kind.name());
    out.push_str("\",\"cat\":\"event\",");
    args(out, event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_obs::{json, Journal, JournalKind};

    fn sample_export() -> String {
        let journal = Journal::enabled();
        journal.begin_frame(100, 1, "id=0x173");
        journal.event(110, 2, JournalKind::Strike, "error-flag at=25");
        journal.event(112, 0, JournalKind::Detection, "pos=25");
        journal.event(113, 0, JournalKind::InjectionStart, "");
        journal.event(145, 0, JournalKind::InjectionEnd, "");
        journal.end_frame(150, 1, JournalKind::FrameError, "stuff", true);
        journal.export_jsonl()
    }

    #[test]
    fn export_is_valid_json_with_slices_and_instants() {
        let trace = chrome_trace_json(&sample_export()).unwrap();
        let doc = json::parse(&trace).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        let ph = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(json::JsonValue::as_str) == Some(name))
                .count()
        };
        assert_eq!(ph("M"), 4, "process + three node threads");
        assert_eq!(ph("X"), 2, "one frame slice, one inject slice");
        assert_eq!(ph("i"), 2, "strike + detection instants");

        let frame = events
            .iter()
            .find(|e| {
                e.get("name").and_then(json::JsonValue::as_str)
                    == Some(JournalKind::FrameError.name())
            })
            .expect("frame slice present");
        assert_eq!(frame.get("ts").and_then(json::JsonValue::as_u64), Some(100));
        assert_eq!(frame.get("dur").and_then(json::JsonValue::as_u64), Some(50));
        let inject = events
            .iter()
            .find(|e| e.get("name").and_then(json::JsonValue::as_str) == Some("inject"))
            .expect("inject slice present");
        assert_eq!(
            inject.get("dur").and_then(json::JsonValue::as_u64),
            Some(32)
        );
    }

    #[test]
    fn chain_ids_survive_into_args() {
        let trace = chrome_trace_json(&sample_export()).unwrap();
        let doc = json::parse(&trace).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        let strike = events
            .iter()
            .find(|e| {
                e.get("name").and_then(json::JsonValue::as_str) == Some(JournalKind::Strike.name())
            })
            .unwrap();
        let chain = strike
            .get("args")
            .and_then(|a| a.get("chain"))
            .and_then(json::JsonValue::as_u64)
            .unwrap();
        assert!(chain > 0, "the strike joins the attacked frame's chain");
    }

    #[test]
    fn open_slices_are_closed_at_the_horizon() {
        let journal = Journal::enabled();
        journal.begin_frame(10, 0, "id=0x173");
        journal.event(20, 0, JournalKind::Detection, "pos=13");
        let trace = chrome_trace_json(&journal.export_jsonl()).unwrap();
        assert!(trace.contains("frame(open)"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(chrome_trace_json("not a journal").is_err());
    }

    /// A hand-written export covering every journal kind, an `arb_lost`
    /// slice, node ids out of order, a detail string with `"`, `\\`, a
    /// newline and U+0001, and a frame plus an injection still open at the
    /// horizon.
    const GOLDEN_EXPORT: &str = r#"{"schema":"can-obs-journal/v1","events":22,"dropped":{"strike":2}}
{"at":10,"node":3,"kind":"frame_start","seq":1,"chain":1,"detail":"id=0x064"}
{"at":10,"node":5,"kind":"frame_start","seq":2,"chain":2,"detail":"id=0x173"}
{"at":14,"node":5,"kind":"arb_lost","seq":2,"chain":2,"detail":"id=0x173"}
{"at":20,"node":1,"kind":"strike","seq":1,"chain":1,"detail":"bit=20"}
{"at":21,"node":0,"kind":"detection","seq":1,"chain":1,"detail":"pos=9 \"q\" \\ back\nnl \u0001"}
{"at":22,"node":0,"kind":"injection_start","seq":1,"chain":1,"detail":""}
{"at":28,"node":0,"kind":"injection_end","seq":1,"chain":1,"detail":""}
{"at":30,"node":2,"kind":"rx_error","seq":1,"chain":1,"detail":"kind=bit off=20"}
{"at":30,"node":3,"kind":"frame_error","seq":1,"chain":1,"detail":"kind=bit off=20"}
{"at":31,"node":3,"kind":"error_state","seq":0,"chain":1,"detail":"state=ErrorPassive"}
{"at":40,"node":3,"kind":"bus_off","seq":0,"chain":1,"detail":""}
{"at":45,"node":0,"kind":"degraded","seq":1,"chain":1,"detail":"missed=3"}
{"at":50,"node":0,"kind":"rearmed","seq":1,"chain":1,"detail":""}
{"at":55,"node":6,"kind":"probe","seq":1,"chain":1,"detail":"survived"}
{"at":60,"node":4,"kind":"ids_armed","seq":1,"chain":1,"detail":"cusum[train=8,h=4]"}
{"at":61,"node":3,"kind":"recovered","seq":1,"chain":1,"detail":""}
{"at":62,"node":5,"kind":"frame_start","seq":3,"chain":2,"detail":"id=0x173"}
{"at":70,"node":5,"kind":"frame_ack","seq":3,"chain":2,"detail":"id=0x173"}
{"at":71,"node":4,"kind":"ids_alert","seq":3,"chain":2,"detail":"cusum alert id=0x173"}
{"at":75,"node":7,"kind":"frame_start","seq":4,"chain":4,"detail":"id=0x7ff"}
{"at":76,"node":0,"kind":"injection_start","seq":4,"chain":4,"detail":""}
{"at":80,"node":2,"kind":"detection","seq":4,"chain":4,"detail":"pos=13"}
"#;

    /// [`GOLDEN_EXPORT`] rendered by the `format!`-per-record renderer this
    /// module had before the one-buffer rewrite: the rewrite is pinned to
    /// its bytes.
    const GOLDEN_TRACE: &str = concat!(
        r#"{"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"can-bus"}},"#,
        r#"{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"node 0"}},"#,
        r#"{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"node 1"}},"#,
        r#"{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"node 2"}},"#,
        r#"{"ph":"M","pid":0,"tid":3,"name":"thread_name","args":{"name":"node 3"}},"#,
        r#"{"ph":"M","pid":0,"tid":4,"name":"thread_name","args":{"name":"node 4"}},"#,
        r#"{"ph":"M","pid":0,"tid":5,"name":"thread_name","args":{"name":"node 5"}},"#,
        r#"{"ph":"M","pid":0,"tid":6,"name":"thread_name","args":{"name":"node 6"}},"#,
        r#"{"ph":"M","pid":0,"tid":7,"name":"thread_name","args":{"name":"node 7"}},"#,
        r#"{"ph":"X","pid":0,"tid":5,"ts":10,"dur":4,"name":"arb_lost","cat":"frame","args":{"seq":2,"chain":2,"detail":"id=0x173"}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":1,"ts":20,"name":"strike","cat":"event","args":{"seq":1,"chain":1,"detail":"bit=20"}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":0,"ts":21,"name":"detection","cat":"event","args":{"seq":1,"chain":1,"detail":"pos=9 \"q\" \\ back\nnl \u0001"}},"#,
        r#"{"ph":"X","pid":0,"tid":0,"ts":22,"dur":6,"name":"inject","cat":"frame","args":{"seq":1,"chain":1,"detail":""}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":2,"ts":30,"name":"rx_error","cat":"event","args":{"seq":1,"chain":1,"detail":"kind=bit off=20"}},"#,
        r#"{"ph":"X","pid":0,"tid":3,"ts":10,"dur":20,"name":"frame_error","cat":"frame","args":{"seq":1,"chain":1,"detail":"kind=bit off=20"}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":3,"ts":31,"name":"error_state","cat":"event","args":{"seq":0,"chain":1,"detail":"state=ErrorPassive"}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":3,"ts":40,"name":"bus_off","cat":"event","args":{"seq":0,"chain":1,"detail":""}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":0,"ts":45,"name":"degraded","cat":"event","args":{"seq":1,"chain":1,"detail":"missed=3"}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":0,"ts":50,"name":"rearmed","cat":"event","args":{"seq":1,"chain":1,"detail":""}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":6,"ts":55,"name":"probe","cat":"event","args":{"seq":1,"chain":1,"detail":"survived"}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":4,"ts":60,"name":"ids_armed","cat":"event","args":{"seq":1,"chain":1,"detail":"cusum[train=8,h=4]"}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":3,"ts":61,"name":"recovered","cat":"event","args":{"seq":1,"chain":1,"detail":""}},"#,
        r#"{"ph":"X","pid":0,"tid":5,"ts":62,"dur":8,"name":"frame_ack","cat":"frame","args":{"seq":3,"chain":2,"detail":"id=0x173"}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":4,"ts":71,"name":"ids_alert","cat":"event","args":{"seq":3,"chain":2,"detail":"cusum alert id=0x173"}},"#,
        r#"{"ph":"i","s":"t","pid":0,"tid":2,"ts":80,"name":"detection","cat":"event","args":{"seq":4,"chain":4,"detail":"pos=13"}},"#,
        r#"{"ph":"X","pid":0,"tid":7,"ts":75,"dur":5,"name":"frame(open)","cat":"frame","args":{"seq":4,"chain":4,"detail":"id=0x7ff"}},"#,
        r#"{"ph":"X","pid":0,"tid":0,"ts":76,"dur":4,"name":"inject","cat":"frame","args":{"seq":4,"chain":4,"detail":""}}]}"#,
    );

    #[test]
    fn golden_export_renders_byte_identically() {
        assert_eq!(chrome_trace_json(GOLDEN_EXPORT).unwrap(), GOLDEN_TRACE);
    }
}
