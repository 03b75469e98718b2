//! The causal event journal: sim-time events with stable causal ids.
//!
//! The [`Registry`](crate::Registry) answers *how much* (counters,
//! histograms). The [`Journal`] answers *what, when* and *which stimulus
//! caused which reaction*: an attack strike, the defender's detection, the
//! counterattack it triggered and the attacker's eventual bus-off are
//! linked because every event carries two causal ids:
//!
//! * **`frame_seq`** — a monotone sequence number assigned to each frame
//!   transmission attempt as it starts on the bus;
//! * **`chain_id`** — the `frame_seq` of the *first* attempt of the
//!   episode. Retransmissions after arbitration loss or a transmit error
//!   inherit the chain of the destroyed attempt, so an entire attack
//!   episode (spoof start → detection → injection → error → retry → … →
//!   bus-off) reconstructs as one linked chain.
//!
//! ## Determinism contract
//!
//! Journal content is **sim-time only**: bit timestamps, node indices,
//! stable kind names, causal ids and detail strings — never host time.
//! The export ([`Journal::export_jsonl`], schema `can-obs-journal/v1`)
//! sorts events canonically *within each merge epoch*: per-cell journals
//! merged in cell-index order ([`Journal::merge_store`]) therefore render
//! byte-identically at any shard count, and because the lockstep,
//! fast-forward and packed kernels produce the same event *multiset* (only
//! the in-cell append order may differ — the packed kernel replays agents
//! word-at-a-time), the canonical sort makes the export byte-identical
//! across all three `SimMode`s as well.
//!
//! Like the [`Recorder`](crate::Recorder), a disabled journal is a `None`
//! and every call is a single branch — the hot path never allocates.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::{self, Write as _};
use std::rc::Rc;

use crate::json::{self, JsonValue};

/// Schema tag of the journal export; bump on any incompatible change.
pub const JOURNAL_SCHEMA: &str = "can-obs-journal/v1";

/// Default maximum retained events per journal store; overflow is counted
/// per kind in [`JournalStore::dropped`] instead of stored. Byte-identity
/// across modes only holds below the capacity (which events overflow
/// drops depends on append order) — the default is sized so every
/// in-repo scenario stays far under it.
pub const JOURNAL_CAPACITY: usize = 262_144;

/// The kind of a journal event. Each kind exports under a stable name
/// ([`JournalKind::name`]), and the variants are declared in the order of
/// those names, so the derived `Ord` — which the canonical export sort
/// uses — orders kinds exactly as their names would sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalKind {
    /// A transmitting node lost arbitration (will retry on the same chain).
    ArbLost,
    /// A node went bus-off.
    BusOff,
    /// A supervised defender degraded to pass-through.
    Degraded,
    /// A detection FSM confirmed a spoof.
    Detection,
    /// A node's error-confinement state changed.
    ErrorState,
    /// A frame completed with a valid ACK.
    FrameAck,
    /// A transmitter saw an error (detail: error kind + offset into frame).
    FrameError,
    /// A node started transmitting (SOF won or contended).
    FrameStart,
    /// A passive detector raised an alert on a completed frame (detail:
    /// detector label + alert kind + frame identifier). Emitted at the
    /// frame's completion bit, so the event inherits the completed frame's
    /// `frame_seq`/`chain_id` and alert chains reconstruct causally.
    IdsAlert,
    /// A passive detector finished training and armed.
    IdsArmed,
    /// A defender closed its injection window.
    InjectionEnd,
    /// A defender opened its injection window.
    InjectionStart,
    /// An adaptive attacker finished a passive probe observation.
    Probe,
    /// A supervised defender re-armed.
    Rearmed,
    /// A node recovered from bus-off.
    Recovered,
    /// A receiver saw an error on the bus frame.
    RxError,
    /// A bit-level attacker fired its strike.
    Strike,
}

impl JournalKind {
    /// Every kind, in `Ord` (and name) order.
    pub const ALL: [JournalKind; 17] = [
        JournalKind::ArbLost,
        JournalKind::BusOff,
        JournalKind::Degraded,
        JournalKind::Detection,
        JournalKind::ErrorState,
        JournalKind::FrameAck,
        JournalKind::FrameError,
        JournalKind::FrameStart,
        JournalKind::IdsAlert,
        JournalKind::IdsArmed,
        JournalKind::InjectionEnd,
        JournalKind::InjectionStart,
        JournalKind::Probe,
        JournalKind::Rearmed,
        JournalKind::Recovered,
        JournalKind::RxError,
        JournalKind::Strike,
    ];

    /// The stable export name. Frame lifecycle kinds are emitted by
    /// `can-sim`, defense kinds by `michican`/`parrot`, strikes and probes
    /// by `can-attacks`, IDS kinds by `can-ids` detector taps.
    pub const fn name(self) -> &'static str {
        match self {
            JournalKind::ArbLost => "arb_lost",
            JournalKind::BusOff => "bus_off",
            JournalKind::Degraded => "degraded",
            JournalKind::Detection => "detection",
            JournalKind::ErrorState => "error_state",
            JournalKind::FrameAck => "frame_ack",
            JournalKind::FrameError => "frame_error",
            JournalKind::FrameStart => "frame_start",
            JournalKind::IdsAlert => "ids_alert",
            JournalKind::IdsArmed => "ids_armed",
            JournalKind::InjectionEnd => "injection_end",
            JournalKind::InjectionStart => "injection_start",
            JournalKind::Probe => "probe",
            JournalKind::Rearmed => "rearmed",
            JournalKind::Recovered => "recovered",
            JournalKind::RxError => "rx_error",
            JournalKind::Strike => "strike",
        }
    }

    /// The kind exported as `name`, if any.
    pub fn from_name(name: &str) -> Option<JournalKind> {
        JournalKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
    }
}

impl fmt::Display for JournalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One journal event. All content is sim-time deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JournalEvent {
    /// Bus time of the event, in bit times since simulation start.
    pub at_bits: u64,
    /// Index of the node the event concerns.
    pub node: u32,
    /// What happened.
    pub kind: JournalKind,
    /// Sequence number of the frame attempt this event belongs to
    /// (0 = no frame context).
    pub frame_seq: u64,
    /// `frame_seq` of the first attempt of the episode (0 = none).
    pub chain_id: u64,
    /// Free-form detail (identifier, error kind, FSM position, …).
    pub detail: String,
}

/// The store behind an enabled [`Journal`]: events (tagged with their
/// merge epoch), causal-context registers and per-kind drop counters.
/// `Send`, so per-cell stores can cross shard workers back to the merge
/// point (the handle itself, like a `Recorder`, is `!Send`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalStore {
    /// `(epoch, event)` pairs; epoch 0 is this store's own recordings,
    /// merged stores occupy later epochs in merge order.
    events: Vec<(u64, JournalEvent)>,
    /// 1 + highest assigned epoch (so fresh stores start at 1).
    next_epoch: u64,
    /// Retention cap; overflow counts into `dropped`.
    capacity: usize,
    /// Events dropped at capacity, by kind.
    dropped: BTreeMap<JournalKind, u64>,
    /// Next frame sequence number (1-based; 0 means "no frame").
    next_frame_seq: u64,
    /// Current bus frame context: `(frame_seq, chain_id, start_bits)` of
    /// the most recent `frame_start`.
    bus_ctx: (u64, u64, u64),
    /// Per-node in-flight transmissions: `(frame_seq, chain_id, start_bits)`.
    node_frame: BTreeMap<u32, (u64, u64, u64)>,
    /// Per-node chain to inherit on the next `frame_start` (set when an
    /// attempt ends in arbitration loss or a transmit error).
    pending_chain: BTreeMap<u32, u64>,
}

impl Default for JournalStore {
    fn default() -> Self {
        JournalStore::with_capacity(JOURNAL_CAPACITY)
    }
}

impl JournalStore {
    /// An empty store retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        JournalStore {
            events: Vec::new(),
            next_epoch: 1,
            capacity,
            dropped: BTreeMap::new(),
            next_frame_seq: 1,
            bus_ctx: (0, 0, 0),
            node_frame: BTreeMap::new(),
            pending_chain: BTreeMap::new(),
        }
    }

    fn push(&mut self, event: JournalEvent) {
        if self.events.len() < self.capacity {
            self.events.push((0, event));
        } else {
            *self.dropped.entry(event.kind).or_insert(0) += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped at capacity, by kind.
    pub fn dropped(&self) -> &BTreeMap<JournalKind, u64> {
        &self.dropped
    }

    /// The retained events in canonical (export) order: merge-epoch major,
    /// then full event content — the order [`Journal::export_jsonl`] uses.
    pub fn canonical_events(&self) -> Vec<&JournalEvent> {
        let mut refs: Vec<&(u64, JournalEvent)> = self.events.iter().collect();
        refs.sort();
        refs.iter().map(|(_, e)| e).collect()
    }

    /// Merges `other` into `self` as the next epoch block. Call in
    /// cell-index order to keep the export shard-count independent.
    pub fn merge(&mut self, other: &JournalStore) {
        let offset = self.next_epoch;
        for (epoch, event) in &other.events {
            if self.events.len() < self.capacity {
                self.events.push((offset + epoch, event.clone()));
            } else {
                *self.dropped.entry(event.kind).or_insert(0) += 1;
            }
        }
        for (&kind, n) in &other.dropped {
            *self.dropped.entry(kind).or_insert(0) += n;
        }
        self.next_epoch += other.next_epoch;
    }
}

/// Cheap, clonable handle to a shared journal store; a disabled journal is
/// a `None` and every operation on it is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Journal(Option<Rc<RefCell<JournalStore>>>);

impl Journal {
    /// The no-op journal.
    pub fn disabled() -> Self {
        Journal(None)
    }

    /// A live journal over a fresh store with the default capacity.
    pub fn enabled() -> Self {
        Journal(Some(Rc::new(RefCell::new(JournalStore::default()))))
    }

    /// A live journal retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Journal(Some(Rc::new(RefCell::new(JournalStore::with_capacity(
            capacity,
        )))))
    }

    /// Whether this journal actually records; emission sites that format
    /// detail strings guard on this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// A frame attempt started on `node`: assigns the next `frame_seq`,
    /// inherits the node's pending chain (retransmission) or opens a new
    /// one, updates the bus context and emits [`JournalKind::FrameStart`].
    pub fn begin_frame(&self, at_bits: u64, node: u32, detail: &str) {
        if let Some(store) = &self.0 {
            let mut s = store.borrow_mut();
            let seq = s.next_frame_seq;
            s.next_frame_seq += 1;
            let chain = s.pending_chain.remove(&node).unwrap_or(seq);
            s.node_frame.insert(node, (seq, chain, at_bits));
            s.bus_ctx = (seq, chain, at_bits);
            s.push(JournalEvent {
                at_bits,
                node,
                kind: JournalKind::FrameStart,
                frame_seq: seq,
                chain_id: chain,
                detail: detail.to_string(),
            });
        }
    }

    /// A frame attempt on `node` ended: [`JournalKind::ArbLost`],
    /// [`JournalKind::FrameAck`] or [`JournalKind::FrameError`]. With `retry` the chain stays open and the
    /// node's next [`Journal::begin_frame`] inherits it.
    pub fn end_frame(&self, at_bits: u64, node: u32, kind: JournalKind, detail: &str, retry: bool) {
        if let Some(store) = &self.0 {
            let mut s = store.borrow_mut();
            let (seq, chain, _) = s.node_frame.remove(&node).unwrap_or(s.bus_ctx);
            if retry {
                s.pending_chain.insert(node, chain);
            } else {
                s.pending_chain.remove(&node);
            }
            s.push(JournalEvent {
                at_bits,
                node,
                kind,
                frame_seq: seq,
                chain_id: chain,
                detail: detail.to_string(),
            });
        }
    }

    /// A node-scoped event ([`JournalKind::ErrorState`],
    /// [`JournalKind::BusOff`], …): stamped
    /// with the node's in-flight frame if it has one, else its still-open
    /// retransmission chain (`frame_seq` 0 — e.g. bus-off after the frame
    /// already ended in an error), else the bus context.
    pub fn node_event(&self, at_bits: u64, node: u32, kind: JournalKind, detail: &str) {
        if let Some(store) = &self.0 {
            let mut s = store.borrow_mut();
            let (seq, chain, _) = s
                .node_frame
                .get(&node)
                .copied()
                .or_else(|| s.pending_chain.get(&node).map(|&chain| (0, chain, 0)))
                .unwrap_or(s.bus_ctx);
            s.push(JournalEvent {
                at_bits,
                node,
                kind,
                frame_seq: seq,
                chain_id: chain,
                detail: detail.to_string(),
            });
        }
    }

    /// A bus-context event (defense reactions, attacker strikes, receiver
    /// errors): stamped with the current bus frame's causal ids, linking
    /// the reaction to the frame that provoked it.
    pub fn event(&self, at_bits: u64, node: u32, kind: JournalKind, detail: &str) {
        if let Some(store) = &self.0 {
            let mut s = store.borrow_mut();
            let (seq, chain, _) = s.bus_ctx;
            s.push(JournalEvent {
                at_bits,
                node,
                kind,
                frame_seq: seq,
                chain_id: chain,
                detail: detail.to_string(),
            });
        }
    }

    /// Offset of `at_bits` into the current bus frame (stuffed bit times
    /// since its `frame_start`), for error-position details.
    pub fn bus_frame_offset(&self, at_bits: u64) -> u64 {
        match &self.0 {
            Some(store) => at_bits.saturating_sub(store.borrow().bus_ctx.2),
            None => 0,
        }
    }

    /// Offset of `at_bits` into `node`'s in-flight frame (falling back to
    /// the bus frame), for transmitter error-position details.
    pub fn node_frame_offset(&self, at_bits: u64, node: u32) -> u64 {
        match &self.0 {
            Some(store) => {
                let s = store.borrow();
                let (_, _, start) = s.node_frame.get(&node).copied().unwrap_or(s.bus_ctx);
                at_bits.saturating_sub(start)
            }
            None => 0,
        }
    }

    /// Drops a node's open chain (mailbox flushed by a crash restart) so
    /// its next traffic starts a fresh episode.
    pub fn close_chain(&self, node: u32) {
        if let Some(store) = &self.0 {
            let mut s = store.borrow_mut();
            s.pending_chain.remove(&node);
            s.node_frame.remove(&node);
        }
    }

    /// Merges an already-collected store (e.g. from a finished experiment
    /// cell) as the next epoch block. No-op when disabled.
    pub fn merge_store(&self, other: &JournalStore) {
        if let Some(store) = &self.0 {
            store.borrow_mut().merge(other);
        }
    }

    /// Runs `f` against the underlying store, if enabled.
    pub fn with_store<T>(&self, f: impl FnOnce(&JournalStore) -> T) -> Option<T> {
        self.0.as_ref().map(|store| f(&store.borrow()))
    }

    /// Consumes the journal and returns its store (empty when disabled).
    /// If other clones are still alive, the store is copied out.
    pub fn into_store(self) -> JournalStore {
        match self.0 {
            Some(store) => {
                Rc::try_unwrap(store).map_or_else(|rc| rc.borrow().clone(), RefCell::into_inner)
            }
            None => JournalStore::default(),
        }
    }

    /// Renders the deterministic JSONL export (schema
    /// [`JOURNAL_SCHEMA`]): a header line, then one line per event in
    /// canonical order. Byte-identical across shard counts (given
    /// cell-index-order merges) and across the three simulation modes.
    pub fn export_jsonl(&self) -> String {
        let empty = JournalStore::default();
        let store;
        let s = match &self.0 {
            Some(rc) => {
                store = rc.borrow();
                &*store
            }
            None => &empty,
        };
        let mut out = String::with_capacity(64 + s.events.len() * 96);
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"events\":{},\"dropped\":{{",
            JOURNAL_SCHEMA,
            s.events.len()
        );
        for (i, (kind, n)) in s.dropped.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{kind}\":{n}");
        }
        out.push_str("}}\n");
        for event in s.canonical_events() {
            push_event_line(&mut out, event);
        }
        out
    }
}

// The event line format. The writer and the reader below are the only
// code that knows it; `can_trace::chrome_trace_json` reads exports through
// `scan_export`.

/// Appends one export event line, newline included:
/// `{"at":…,"node":…,"kind":"…","seq":…,"chain":…,"detail":"…"}`.
fn push_event_line(out: &mut String, event: &JournalEvent) {
    out.push_str("{\"at\":");
    json::push_u64(out, event.at_bits);
    out.push_str(",\"node\":");
    json::push_u64(out, event.node.into());
    out.push_str(",\"kind\":\"");
    out.push_str(event.kind.name());
    out.push_str("\",\"seq\":");
    json::push_u64(out, event.frame_seq);
    out.push_str(",\"chain\":");
    json::push_u64(out, event.chain_id);
    out.push_str(",\"detail\":\"");
    json::escape_into(out, &event.detail);
    out.push_str("\"}\n");
}

/// Why a journal export could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalParseError {
    /// The text has no header line.
    Empty,
    /// The header line is not JSON, or lacks a well-typed `events` count
    /// or `dropped` map.
    Header(String),
    /// The header names another schema (`None`: no schema at all).
    Schema(Option<String>),
    /// An event line does not have the export's fixed shape. `line` is
    /// 1-based (the header is line 1); `field` is the key being read when
    /// the scan failed, or `end` for content after the closing brace.
    Line {
        /// 1-based line number.
        line: usize,
        /// The field being read.
        field: &'static str,
    },
    /// A kind name that is not a [`JournalKind`] (in an event line, or a
    /// `dropped` key of the header on line 1).
    UnknownKind {
        /// 1-based line number.
        line: usize,
        /// The name as written.
        kind: String,
    },
    /// A node index above `u32::MAX`.
    NodeOutOfRange {
        /// 1-based line number.
        line: usize,
    },
    /// The header's `events` count disagrees with the number of event
    /// lines.
    CountMismatch {
        /// The header's count.
        declared: u64,
        /// Event lines present.
        found: u64,
    },
}

impl fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalParseError::Empty => write!(f, "empty journal export"),
            JournalParseError::Header(detail) => write!(f, "bad journal header: {detail}"),
            JournalParseError::Schema(found) => write!(f, "unsupported journal schema {found:?}"),
            JournalParseError::Line { line, field } => {
                write!(f, "journal line {line}: malformed field '{field}'")
            }
            JournalParseError::UnknownKind { line, kind } => {
                write!(f, "journal line {line}: unknown event kind {kind:?}")
            }
            JournalParseError::NodeOutOfRange { line } => {
                write!(f, "journal line {line}: node index out of range")
            }
            JournalParseError::CountMismatch { declared, found } => {
                write!(
                    f,
                    "journal header declares {declared} events, found {found}"
                )
            }
        }
    }
}

impl Error for JournalParseError {}

/// One event line of an export, borrowed from the export text. The detail
/// has its escapes resolved, and borrows the text when it had none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLine<'a> {
    /// Bus time of the event, in bit times.
    pub at_bits: u64,
    /// Index of the node the event concerns.
    pub node: u32,
    /// What happened.
    pub kind: JournalKind,
    /// Frame attempt sequence number.
    pub frame_seq: u64,
    /// Causal chain id.
    pub chain_id: u64,
    /// Unescaped detail.
    pub detail: Cow<'a, str>,
}

impl EventLine<'_> {
    fn into_event(self) -> JournalEvent {
        JournalEvent {
            at_bits: self.at_bits,
            node: self.node,
            kind: self.kind,
            frame_seq: self.frame_seq,
            chain_id: self.chain_id,
            detail: self.detail.into_owned(),
        }
    }
}

/// Reads a [`Journal::export_jsonl`] document in one pass: the header is
/// validated with [`json::parse`], each event line by a strict scanner
/// that accepts exactly the line shape the writer emits (keys in order, no
/// whitespace); strings go through the JSON string reader, the inverse of
/// [`json::escape`]. Returns the event lines, borrowed from `text`, and
/// the drop counts.
pub fn scan_export(
    text: &str,
) -> Result<(Vec<EventLine<'_>>, BTreeMap<JournalKind, u64>), JournalParseError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(JournalParseError::Empty)?;
    let (declared, dropped) = parse_header(header)?;
    // An event line is over 60 bytes, so the text bounds the count: a
    // forged header count cannot reserve more than the text could hold.
    let mut events = Vec::with_capacity(declared.min(text.len() as u64 / 60) as usize);
    for (i, line) in lines.enumerate() {
        let scanner = LineScanner {
            line,
            pos: 0,
            line_no: i + 2,
        };
        events.push(scanner.event()?);
    }
    if events.len() as u64 != declared {
        return Err(JournalParseError::CountMismatch {
            declared,
            found: events.len() as u64,
        });
    }
    Ok((events, dropped))
}

/// Parses a [`Journal::export_jsonl`] document back into owned events
/// (see [`scan_export`]), with the header's drop counts alongside.
pub fn parse_export(
    text: &str,
) -> Result<(Vec<JournalEvent>, BTreeMap<JournalKind, u64>), JournalParseError> {
    let (lines, dropped) = scan_export(text)?;
    Ok((
        lines.into_iter().map(EventLine::into_event).collect(),
        dropped,
    ))
}

/// The declared event count and drop counts of a header line.
fn parse_header(header: &str) -> Result<(u64, BTreeMap<JournalKind, u64>), JournalParseError> {
    let doc = json::parse(header).map_err(|e| JournalParseError::Header(e.to_string()))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(JOURNAL_SCHEMA) => {}
        other => return Err(JournalParseError::Schema(other.map(str::to_string))),
    }
    let mut dropped = BTreeMap::new();
    if let Some(map) = doc.get("dropped").and_then(JsonValue::as_object) {
        for (name, n) in map {
            let kind =
                JournalKind::from_name(name).ok_or_else(|| JournalParseError::UnknownKind {
                    line: 1,
                    kind: name.clone(),
                })?;
            let n = n.as_u64().ok_or_else(|| {
                JournalParseError::Header(format!("dropped[{name:?}] is not a u64"))
            })?;
            dropped.insert(kind, n);
        }
    }
    let declared = doc
        .get("events")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| JournalParseError::Header("missing or non-u64 'events'".to_string()))?;
    Ok((declared, dropped))
}

/// A cursor over one event line.
struct LineScanner<'a> {
    line: &'a str,
    pos: usize,
    line_no: usize,
}

impl<'a> LineScanner<'a> {
    fn event(mut self) -> Result<EventLine<'a>, JournalParseError> {
        let at_bits = self.number("{\"at\":", "at")?;
        let node = self.number(",\"node\":", "node")?;
        let node = u32::try_from(node)
            .map_err(|_| JournalParseError::NodeOutOfRange { line: self.line_no })?;
        let name = self.string(",\"kind\":", "kind")?;
        let kind = JournalKind::from_name(&name).ok_or_else(|| JournalParseError::UnknownKind {
            line: self.line_no,
            kind: name.into_owned(),
        })?;
        let frame_seq = self.number(",\"seq\":", "seq")?;
        let chain_id = self.number(",\"chain\":", "chain")?;
        let detail = self.string(",\"detail\":", "detail")?;
        if &self.line[self.pos..] != "}" {
            return Err(self.malformed("end"));
        }
        Ok(EventLine {
            at_bits,
            node,
            kind,
            frame_seq,
            chain_id,
            detail,
        })
    }

    fn malformed(&self, field: &'static str) -> JournalParseError {
        JournalParseError::Line {
            line: self.line_no,
            field,
        }
    }

    /// Consumes `key`, which must come next.
    fn key(&mut self, key: &str, field: &'static str) -> Result<(), JournalParseError> {
        if self.line.as_bytes()[self.pos..].starts_with(key.as_bytes()) {
            self.pos += key.len();
            Ok(())
        } else {
            Err(self.malformed(field))
        }
    }

    /// Consumes `key` and the decimal `u64` after it.
    fn number(&mut self, key: &str, field: &'static str) -> Result<u64, JournalParseError> {
        self.key(key, field)?;
        let digits = self.line.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let value = self.line[self.pos..self.pos + digits]
            .parse()
            .map_err(|_| self.malformed(field))?;
        self.pos += digits;
        Ok(value)
    }

    /// Consumes `key` and the JSON string after it, escapes resolved.
    fn string(
        &mut self,
        key: &str,
        field: &'static str,
    ) -> Result<Cow<'a, str>, JournalParseError> {
        self.key(key, field)?;
        let (string, end) =
            json::string_at(self.line, self.pos).map_err(|_| self.malformed(field))?;
        self.pos = end;
        Ok(string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        j.begin_frame(1, 0, "id=0x173");
        j.event(2, 1, JournalKind::Detection, "pos=9");
        j.end_frame(3, 0, JournalKind::FrameAck, "", false);
        assert!(j.with_store(|_| ()).is_none());
        assert!(j.into_store().is_empty());
    }

    #[test]
    fn chains_link_retransmissions_and_reactions() {
        let j = Journal::enabled();
        // Attempt 1: spoof starts, defender detects + injects, error.
        j.begin_frame(100, 1, "id=0x173");
        j.event(109, 2, JournalKind::Detection, "pos=9");
        j.event(110, 2, JournalKind::InjectionStart, "");
        j.end_frame(115, 1, JournalKind::FrameError, "kind=stuff off=15", true);
        // Attempt 2 inherits the chain; succeeds, closing it.
        j.begin_frame(140, 1, "id=0x173");
        j.end_frame(250, 1, JournalKind::FrameAck, "id=0x173", false);
        // A fresh frame opens a new chain.
        j.begin_frame(300, 1, "id=0x173");

        let store = j.into_store();
        let events = store.canonical_events();
        assert_eq!(events.len(), 7);
        let by_kind = |k: JournalKind| -> Vec<&&JournalEvent> {
            events.iter().filter(|e| e.kind == k).collect()
        };
        // Both attempts and the defender reaction share chain 1.
        assert_eq!(by_kind(JournalKind::FrameStart)[0].chain_id, 1);
        assert_eq!(by_kind(JournalKind::FrameStart)[1].chain_id, 1);
        assert_eq!(by_kind(JournalKind::FrameStart)[1].frame_seq, 2);
        assert_eq!(by_kind(JournalKind::Detection)[0].chain_id, 1);
        assert_eq!(by_kind(JournalKind::Detection)[0].frame_seq, 1);
        assert_eq!(by_kind(JournalKind::FrameAck)[0].chain_id, 1);
        // The post-ACK frame starts a new chain.
        assert_eq!(by_kind(JournalKind::FrameStart)[2].frame_seq, 3);
        assert_eq!(by_kind(JournalKind::FrameStart)[2].chain_id, 3);
    }

    #[test]
    fn export_is_append_order_independent() {
        // The same multiset of events in two different append orders (as
        // lockstep vs packed agent replay would produce) exports
        // identically.
        let a = Journal::enabled();
        a.begin_frame(10, 0, "id=0x064");
        a.event(12, 1, JournalKind::Detection, "pos=3");
        a.event(12, 2, JournalKind::Strike, "bit=12");
        let b = Journal::enabled();
        b.begin_frame(10, 0, "id=0x064");
        b.event(12, 2, JournalKind::Strike, "bit=12");
        b.event(12, 1, JournalKind::Detection, "pos=3");
        assert_eq!(a.export_jsonl(), b.export_jsonl());
    }

    #[test]
    fn merge_in_index_order_is_shard_independent() {
        let cell = |base: u64| {
            let j = Journal::enabled();
            j.begin_frame(base, 0, "id=0x100");
            j.end_frame(base + 50, 0, JournalKind::FrameAck, "", false);
            j.into_store()
        };
        let (c0, c1) = (cell(1_000), cell(10));
        // Serial: merge in index order. "Sharded": same merge order even
        // though cell 1 finished first — byte-identical.
        let serial = Journal::enabled();
        serial.merge_store(&c0);
        serial.merge_store(&c1);
        let sharded = Journal::enabled();
        sharded.merge_store(&c0);
        sharded.merge_store(&c1);
        assert_eq!(serial.export_jsonl(), sharded.export_jsonl());
        // Epochs keep the cells apart even though cell 1's timestamps are
        // earlier: cell 0's events render first.
        let (events, _) = parse_export(&serial.export_jsonl()).unwrap();
        assert_eq!(events[0].at_bits, 1_000);
        assert_eq!(events[2].at_bits, 10);
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let j = Journal::enabled();
        j.begin_frame(5, 0, "id=0x173");
        j.event(9, 1, JournalKind::Detection, "pos=9 \"quoted\"\nnewline");
        let (events, dropped) = parse_export(&j.export_jsonl()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].detail, "pos=9 \"quoted\"\nnewline");
        assert!(dropped.is_empty());
        assert!(parse_export("{\"schema\":\"nope\"}\n").is_err());
        assert!(parse_export("").is_err());
    }

    #[test]
    fn capacity_overflow_counts_drops_per_kind() {
        let j = Journal::with_capacity(2);
        j.begin_frame(1, 0, "");
        j.event(2, 0, JournalKind::Detection, "");
        j.event(3, 0, JournalKind::Detection, "");
        j.event(4, 0, JournalKind::Strike, "");
        let store = j.into_store();
        assert_eq!(store.len(), 2);
        assert_eq!(store.dropped()[&JournalKind::Detection], 1);
        assert_eq!(store.dropped()[&JournalKind::Strike], 1);
        let export = Journal::disabled().export_jsonl();
        assert!(export.starts_with("{\"schema\":\"can-obs-journal/v1\""));
    }

    #[test]
    fn bus_frame_offset_tracks_the_current_frame() {
        let j = Journal::enabled();
        assert_eq!(j.bus_frame_offset(7), 7);
        j.begin_frame(100, 0, "");
        assert_eq!(j.bus_frame_offset(115), 15);
        assert_eq!(j.node_frame_offset(130, 0), 30);
        assert_eq!(j.node_frame_offset(130, 5), 30); // falls back to bus ctx
        assert_eq!(Journal::disabled().bus_frame_offset(9), 0);
        assert_eq!(Journal::disabled().node_frame_offset(9, 0), 0);
    }
}
