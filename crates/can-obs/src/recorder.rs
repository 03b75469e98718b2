//! The [`Recorder`] handle: the one type instrumented code holds.
//!
//! A recorder is either **disabled** (the default — every call is a single
//! `None` branch and returns immediately, no allocation, no formatting) or
//! **enabled**, in which case it shares a [`Registry`] behind
//! `Rc<RefCell<…>>` so a simulator, its nodes and their agents can all
//! feed the same store without threading `&mut` through every layer.
//!
//! Recorders are deliberately `!Send`: in the parallel experiment engine a
//! fresh recorder is created *inside* each cell closure and its registry
//! (which is `Send`) is returned and merged in cell-index order — see
//! `bench::runner::ExperimentPlan::run_with`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::registry::Registry;

/// Cheap, clonable handle to a shared metrics registry; a disabled
/// recorder is a `None` and every operation on it is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Rc<RefCell<Registry>>>);

impl Recorder {
    /// The no-op recorder. All operations return immediately; label
    /// formatting guarded by [`Recorder::is_enabled`] is never reached.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// A live recorder over a fresh registry.
    pub fn enabled() -> Self {
        Recorder(Some(Rc::new(RefCell::new(Registry::new()))))
    }

    /// Whether this recorder actually records. Instrumentation sites use
    /// this to skip metric-key formatting on the disabled path:
    ///
    /// ```
    /// # use can_obs::Recorder;
    /// # let rec = Recorder::disabled();
    /// # let node = 3;
    /// if rec.is_enabled() {
    ///     rec.add(&format!("can_node_tec{{node=\"{node}\"}}"), 1);
    /// }
    /// ```
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Increments the counter `key` by one.
    #[inline]
    pub fn inc(&self, key: &str) {
        self.add(key, 1);
    }

    /// Adds `delta` to the counter `key`.
    #[inline]
    pub fn add(&self, key: &str, delta: u64) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().add(key, delta);
        }
    }

    /// Sets the gauge `key`.
    #[inline]
    pub fn set_gauge(&self, key: &str, value: i64) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().set_gauge(key, value);
        }
    }

    /// Records `value` into the histogram `key` with the default buckets.
    #[inline]
    pub fn observe(&self, key: &str, value: u64) {
        self.observe_with(key, crate::registry::DEFAULT_BUCKETS, value);
    }

    /// Records `value` into the histogram `key`, creating it with `bounds`
    /// on first use.
    #[inline]
    pub fn observe_with(&self, key: &str, bounds: &[u64], value: u64) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().observe(key, bounds, value);
        }
    }

    /// Registers an empty histogram so it appears in snapshots even with
    /// zero observations (stable schema across runs).
    #[inline]
    pub fn declare_histogram(&self, key: &str, bounds: &[u64]) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().declare_histogram(key, bounds);
        }
    }

    /// Starts a wall-clock span; the guard records elapsed nanoseconds
    /// into the registry's span stats when dropped. On a disabled recorder
    /// the guard holds nothing and drop is free.
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.0 {
            Some(reg) => SpanGuard {
                inner: Some((Rc::clone(reg), name.to_string(), Instant::now())),
            },
            None => SpanGuard { inner: None },
        }
    }

    /// Merges an already-collected registry (e.g. from a finished
    /// experiment cell) into this recorder's registry. No-op when disabled.
    pub fn merge_registry(&self, other: &Registry) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().merge(other);
        }
    }

    /// Runs `f` against the underlying registry, if enabled.
    pub fn with_registry<T>(&self, f: impl FnOnce(&Registry) -> T) -> Option<T> {
        self.0.as_ref().map(|reg| f(&reg.borrow()))
    }

    /// Consumes the recorder and returns its registry (empty when
    /// disabled). If other clones are still alive, the registry is copied
    /// out instead of moved.
    pub fn into_registry(self) -> Registry {
        match self.0 {
            Some(reg) => {
                Rc::try_unwrap(reg).map_or_else(|rc| rc.borrow().clone(), RefCell::into_inner)
            }
            None => Registry::new(),
        }
    }

    /// Renders the deterministic JSON snapshot (`{}`-ish empty document
    /// when disabled).
    pub fn snapshot_json(&self) -> String {
        match &self.0 {
            Some(reg) => reg.borrow().snapshot_json(),
            None => Registry::new().snapshot_json(),
        }
    }

    /// Renders the Prometheus text exposition (empty when disabled).
    pub fn prometheus_text(&self) -> String {
        match &self.0 {
            Some(reg) => reg.borrow().prometheus_text(),
            None => String::new(),
        }
    }
}

/// RAII guard returned by [`Recorder::span`]; records the span's wall
/// duration when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(Rc<RefCell<Registry>>, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((reg, name, started)) = self.inner.take() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            reg.borrow_mut().record_span(&name, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.inc("a_total");
        rec.add("a_total", 41);
        rec.set_gauge("g", 7);
        rec.observe("h_bits", 12);
        drop(rec.span("wall"));
        assert!(rec.with_registry(|_| ()).is_none());
        assert!(rec.into_registry().is_empty());
    }

    #[test]
    fn enabled_recorder_shares_one_registry_across_clones() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        rec.inc("hits_total");
        clone.add("hits_total", 2);
        let reg = rec.into_registry(); // clone still alive → copied out
        assert_eq!(reg.counter("hits_total"), 3);
        assert_eq!(clone.into_registry().counter("hits_total"), 3);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let rec = Recorder::enabled();
        {
            let _guard = rec.span("unit_wall");
        }
        let stats = rec.with_registry(|r| r.span_stats("unit_wall")).unwrap();
        assert_eq!(stats.unwrap().count, 1);
    }

    #[test]
    fn merge_registry_folds_external_results_in() {
        let cell = Recorder::enabled();
        cell.inc("cell_total");
        let collected = cell.into_registry();

        let root = Recorder::enabled();
        root.inc("cell_total");
        root.merge_registry(&collected);
        assert_eq!(root.into_registry().counter("cell_total"), 2);
    }

    #[test]
    fn disabled_snapshot_is_the_empty_document() {
        let rec = Recorder::disabled();
        let json = rec.snapshot_json();
        assert!(json.contains("\"schema\": \"can-obs/v2\""));
        assert_eq!(rec.prometheus_text(), "");
    }
}
