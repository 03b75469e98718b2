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

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
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

// Stable event kind names. Frame lifecycle (emitted by `can-sim`):
/// A node started transmitting (SOF won or contended).
pub const JK_FRAME_START: &str = "frame_start";
/// A transmitting node lost arbitration (will retry on the same chain).
pub const JK_ARB_LOST: &str = "arb_lost";
/// A frame completed with a valid ACK.
pub const JK_FRAME_ACK: &str = "frame_ack";
/// A transmitter saw an error (detail: error kind + offset into frame).
pub const JK_FRAME_ERROR: &str = "frame_error";
/// A receiver saw an error on the bus frame.
pub const JK_RX_ERROR: &str = "rx_error";
/// A node's error-confinement state changed.
pub const JK_ERROR_STATE: &str = "error_state";
/// A node went bus-off.
pub const JK_BUS_OFF: &str = "bus_off";
/// A node recovered from bus-off.
pub const JK_RECOVERED: &str = "recovered";
// Defense lifecycle (emitted by `michican` / `parrot`):
/// A detection FSM confirmed a spoof.
pub const JK_DETECTION: &str = "detection";
/// A defender opened its injection window.
pub const JK_INJECT_START: &str = "injection_start";
/// A defender closed its injection window.
pub const JK_INJECT_END: &str = "injection_end";
/// A supervised defender degraded to pass-through.
pub const JK_DEGRADED: &str = "degraded";
/// A supervised defender re-armed.
pub const JK_REARMED: &str = "rearmed";
// Attack lifecycle (emitted by `can-attacks`):
/// A bit-level attacker fired its strike.
pub const JK_STRIKE: &str = "strike";
/// An adaptive attacker finished a passive probe observation.
pub const JK_PROBE: &str = "probe";
// IDS lifecycle (emitted by `can-ids` detector taps):
/// A passive detector raised an alert on a completed frame (detail:
/// detector label + alert kind + frame identifier). Emitted at the frame's
/// completion bit, so the event inherits the completed frame's
/// `frame_seq`/`chain_id` and alert chains reconstruct causally.
pub const JK_IDS_ALERT: &str = "ids_alert";
/// A passive detector finished training and armed.
pub const JK_IDS_ARMED: &str = "ids_armed";

/// One journal event. All content is sim-time deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JournalEvent {
    /// Bus time of the event, in bit times since simulation start.
    pub at_bits: u64,
    /// Index of the node the event concerns.
    pub node: u32,
    /// Stable kind name (one of the `JK_*` constants).
    pub kind: String,
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
    dropped: BTreeMap<String, u64>,
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
    pub fn dropped(&self) -> &BTreeMap<String, u64> {
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
                *self.dropped.entry(event.kind.clone()).or_insert(0) += 1;
            }
        }
        for (kind, n) in &other.dropped {
            *self.dropped.entry(kind.clone()).or_insert(0) += n;
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
    /// one, updates the bus context and emits [`JK_FRAME_START`].
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
                kind: JK_FRAME_START.to_string(),
                frame_seq: seq,
                chain_id: chain,
                detail: detail.to_string(),
            });
        }
    }

    /// A frame attempt on `node` ended: [`JK_ARB_LOST`], [`JK_FRAME_ACK`]
    /// or [`JK_FRAME_ERROR`]. With `retry` the chain stays open and the
    /// node's next [`Journal::begin_frame`] inherits it.
    pub fn end_frame(&self, at_bits: u64, node: u32, kind: &str, detail: &str, retry: bool) {
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
                kind: kind.to_string(),
                frame_seq: seq,
                chain_id: chain,
                detail: detail.to_string(),
            });
        }
    }

    /// A node-scoped event ([`JK_ERROR_STATE`], [`JK_BUS_OFF`], …): stamped
    /// with the node's in-flight frame if it has one, else its still-open
    /// retransmission chain (`frame_seq` 0 — e.g. bus-off after the frame
    /// already ended in an error), else the bus context.
    pub fn node_event(&self, at_bits: u64, node: u32, kind: &str, detail: &str) {
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
                kind: kind.to_string(),
                frame_seq: seq,
                chain_id: chain,
                detail: detail.to_string(),
            });
        }
    }

    /// A bus-context event (defense reactions, attacker strikes, receiver
    /// errors): stamped with the current bus frame's causal ids, linking
    /// the reaction to the frame that provoked it.
    pub fn event(&self, at_bits: u64, node: u32, kind: &str, detail: &str) {
        if let Some(store) = &self.0 {
            let mut s = store.borrow_mut();
            let (seq, chain, _) = s.bus_ctx;
            s.push(JournalEvent {
                at_bits,
                node,
                kind: kind.to_string(),
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
            let _ = write!(out, "{sep}\"{}\":{n}", json::escape(kind));
        }
        out.push_str("}}\n");
        for event in s.canonical_events() {
            let _ = writeln!(
                out,
                "{{\"at\":{},\"node\":{},\"kind\":\"{}\",\"seq\":{},\"chain\":{},\"detail\":\"{}\"}}",
                event.at_bits,
                event.node,
                json::escape(&event.kind),
                event.frame_seq,
                event.chain_id,
                json::escape(&event.detail)
            );
        }
        out
    }
}

/// Parses a [`Journal::export_jsonl`] document back into its events (the
/// header is validated, drop counts are returned alongside). Used by the
/// chrome-trace exporter and the CI determinism checks.
pub fn parse_export(text: &str) -> Result<(Vec<JournalEvent>, BTreeMap<String, u64>), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty journal export")?;
    let doc = json::parse(header).map_err(|e| format!("bad journal header: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == JOURNAL_SCHEMA => {}
        other => return Err(format!("unsupported journal schema {other:?}")),
    }
    let mut dropped = BTreeMap::new();
    if let Some(map) = doc.get("dropped").and_then(JsonValue::as_object) {
        for (kind, n) in map {
            dropped.insert(
                kind.clone(),
                n.as_u64()
                    .ok_or_else(|| format!("dropped['{kind}'] is not a u64"))?,
            );
        }
    }
    let declared = doc
        .get("events")
        .and_then(JsonValue::as_u64)
        .ok_or("journal header missing 'events'")?;
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        let doc = json::parse(line).map_err(|e| format!("event {i}: {e}"))?;
        let u64_field = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("event {i}: field '{name}' missing or not a u64"))
        };
        let str_field = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event {i}: field '{name}' missing"))
        };
        events.push(JournalEvent {
            at_bits: u64_field("at")?,
            node: u32::try_from(u64_field("node")?)
                .map_err(|_| format!("event {i}: node out of range"))?,
            kind: str_field("kind")?,
            frame_seq: u64_field("seq")?,
            chain_id: u64_field("chain")?,
            detail: str_field("detail")?,
        });
    }
    if events.len() as u64 != declared {
        return Err(format!(
            "journal header declares {declared} events, found {}",
            events.len()
        ));
    }
    Ok((events, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        j.begin_frame(1, 0, "id=0x173");
        j.event(2, 1, JK_DETECTION, "pos=9");
        j.end_frame(3, 0, JK_FRAME_ACK, "", false);
        assert!(j.with_store(|_| ()).is_none());
        assert!(j.into_store().is_empty());
    }

    #[test]
    fn chains_link_retransmissions_and_reactions() {
        let j = Journal::enabled();
        // Attempt 1: spoof starts, defender detects + injects, error.
        j.begin_frame(100, 1, "id=0x173");
        j.event(109, 2, JK_DETECTION, "pos=9");
        j.event(110, 2, JK_INJECT_START, "");
        j.end_frame(115, 1, JK_FRAME_ERROR, "kind=stuff off=15", true);
        // Attempt 2 inherits the chain; succeeds, closing it.
        j.begin_frame(140, 1, "id=0x173");
        j.end_frame(250, 1, JK_FRAME_ACK, "id=0x173", false);
        // A fresh frame opens a new chain.
        j.begin_frame(300, 1, "id=0x173");

        let store = j.into_store();
        let events = store.canonical_events();
        assert_eq!(events.len(), 7);
        let by_kind =
            |k: &str| -> Vec<&&JournalEvent> { events.iter().filter(|e| e.kind == k).collect() };
        // Both attempts and the defender reaction share chain 1.
        assert_eq!(by_kind(JK_FRAME_START)[0].chain_id, 1);
        assert_eq!(by_kind(JK_FRAME_START)[1].chain_id, 1);
        assert_eq!(by_kind(JK_FRAME_START)[1].frame_seq, 2);
        assert_eq!(by_kind(JK_DETECTION)[0].chain_id, 1);
        assert_eq!(by_kind(JK_DETECTION)[0].frame_seq, 1);
        assert_eq!(by_kind(JK_FRAME_ACK)[0].chain_id, 1);
        // The post-ACK frame starts a new chain.
        assert_eq!(by_kind(JK_FRAME_START)[2].frame_seq, 3);
        assert_eq!(by_kind(JK_FRAME_START)[2].chain_id, 3);
    }

    #[test]
    fn export_is_append_order_independent() {
        // The same multiset of events in two different append orders (as
        // lockstep vs packed agent replay would produce) exports
        // identically.
        let a = Journal::enabled();
        a.begin_frame(10, 0, "id=0x064");
        a.event(12, 1, JK_DETECTION, "pos=3");
        a.event(12, 2, JK_STRIKE, "bit=12");
        let b = Journal::enabled();
        b.begin_frame(10, 0, "id=0x064");
        b.event(12, 2, JK_STRIKE, "bit=12");
        b.event(12, 1, JK_DETECTION, "pos=3");
        assert_eq!(a.export_jsonl(), b.export_jsonl());
    }

    #[test]
    fn merge_in_index_order_is_shard_independent() {
        let cell = |base: u64| {
            let j = Journal::enabled();
            j.begin_frame(base, 0, "id=0x100");
            j.end_frame(base + 50, 0, JK_FRAME_ACK, "", false);
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
        j.event(9, 1, JK_DETECTION, "pos=9 \"quoted\"\nnewline");
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
        j.event(2, 0, JK_DETECTION, "");
        j.event(3, 0, JK_DETECTION, "");
        j.event(4, 0, JK_STRIKE, "");
        let store = j.into_store();
        assert_eq!(store.len(), 2);
        assert_eq!(store.dropped()[JK_DETECTION], 1);
        assert_eq!(store.dropped()[JK_STRIKE], 1);
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
