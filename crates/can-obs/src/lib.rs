//! # can-obs — first-party observability core
//!
//! Offline, dependency-free metrics for the MichiCAN suite, in the same
//! shim spirit as `rayon-shim`/`rand-shim`: a [`Registry`] of monotonic
//! counters, gauges and fixed-bucket [`Histogram`]s and wall-clock span
//! timing, all reached through a clonable [`Recorder`] handle that is a
//! no-op when disabled. Discrete events — a MichiCAN detection, its
//! injection window, a watchdog degrade or re-arm — go to the causal
//! [`Journal`] alongside the recorder: sim-time events with stable
//! `frame_seq`/`chain_id` ids that reconstruct a whole attack episode as
//! one linked chain (see [`journal`]). The journal is the only event
//! stream; the recorder holds aggregates only.
//!
//! ## Design rules
//!
//! 1. **Zero cost when off.** A disabled recorder is `None`; every
//!    operation is one branch. Instrumentation sites that would need to
//!    `format!` a metric key guard on [`Recorder::is_enabled`] first, so
//!    the hot path never allocates. CI fails if the `perfbase`
//!    binary (crate `bench`) measures the disabled recorder below 0.8×
//!    the throughput of the same bus without one.
//! 2. **Determinism.** All snapshot-visible values are integers (`u64`
//!    observations, `i64` gauges); integer addition is associative, so
//!    merging per-cell registries in cell-index order gives byte-identical
//!    [`Registry::snapshot_json`] output whether an experiment ran serial
//!    or sharded. Wall-clock spans are host-dependent and therefore
//!    excluded from the JSON snapshot; they appear only in
//!    [`Registry::prometheus_text`].
//! 3. **Stable schema.** The JSON snapshot self-identifies as
//!    `can-obs/v2`; metric keys use Prometheus notation
//!    (`name{label="value"}`) so one key string serves both renderings.
//!    The snapshot round-trips: [`Registry::from_snapshot_json`] is its
//!    exact inverse (and [`Registry::merge_snapshot_json`] merges straight
//!    from disk), which is what lets `bench::sweep` checkpoint partially
//!    merged snapshots and resume a killed run byte-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod recorder;
pub mod registry;

pub use journal::{
    parse_export, scan_export, EventLine, Journal, JournalEvent, JournalKind, JournalParseError,
    JournalStore, JOURNAL_SCHEMA,
};
pub use json::{JsonValue, ParseError};
pub use recorder::{Recorder, SpanGuard};
pub use registry::{
    escape_label_value, Histogram, Registry, SpanStats, DEFAULT_BUCKETS, PERCENT_BUCKETS,
};
