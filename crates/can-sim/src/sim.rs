//! The discrete-event, bit-synchronous bus simulator.
//!
//! Every simulated nominal bit time, the [`Simulator`]:
//!
//! 1. collects each node's TX contribution,
//! 2. resolves the bus level by wired-AND,
//! 3. records the level (optional signal trace),
//! 4. delivers the sample to every node.
//!
//! All paper metrics derive from the resulting [`Event`] log and signal
//! trace.

use can_core::{packed, BitDuration, BitInstant, BusSpeed, Level};
use can_obs::{Journal, Recorder};

use crate::controller::{integrating_word_cap, StepOutput, StretchRole};
use crate::event::{Event, EventKind, NodeId};
use crate::fault::{FaultModel, FaultStack};
use crate::node::{Node, NodePlan};
use crate::parser::RxParser;
use crate::tap::FrameTap;
use crate::telemetry::{FallbackCause, KernelTelemetry};

/// Width of the bus-utilization measurement window, in bit times. At the
/// end of every window the simulator records the window's busy percentage
/// into the `can_bus_utilization_percent` histogram (integer percent, so
/// snapshots stay deterministic).
pub const OBS_WINDOW_BITS: u64 = 1_000;

/// A per-bit recording of the bus level.
///
/// Two modes: *full* (the default — every bit since the start, index =
/// bit time) and *ring* (a fixed-capacity window of the most recent bits,
/// for soak runs where an unbounded trace would grow without limit).
#[derive(Debug, Clone, Default)]
pub struct SignalTrace {
    levels: Vec<Level>,
    /// `Some(cap)` makes the trace a ring over the last `cap` bits.
    capacity: Option<usize>,
    /// Ring mode: index of the oldest recorded level (= next write slot
    /// once the buffer is full).
    head: usize,
    /// Total bits ever recorded (≥ `len()` once a ring has wrapped).
    recorded: u64,
}

impl SignalTrace {
    /// A bounded trace retaining only the most recent `capacity` bits.
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "a ring trace needs a non-zero capacity");
        SignalTrace {
            levels: Vec::with_capacity(capacity),
            capacity: Some(capacity),
            head: 0,
            recorded: 0,
        }
    }

    fn push(&mut self, level: Level) {
        self.recorded += 1;
        match self.capacity {
            Some(cap) if self.levels.len() == cap => {
                self.levels[self.head] = level;
                self.head = (self.head + 1) % cap;
            }
            _ => self.levels.push(level),
        }
    }

    /// Appends the low `count` bits of a packed dominant-mask word,
    /// byte-identical to `count` single pushes. The packed kernel uses
    /// this to record a whole stretch of mixed levels at once.
    fn push_word(&mut self, word: u64, count: u32) {
        for i in 0..count {
            self.push(packed::level_at(word, i));
        }
    }

    /// Appends `count` copies of `level` in closed form — byte-identical
    /// to `count` single pushes, but O(min(count, capacity)) for a ring.
    /// The packed kernel uses this to backfill skipped idle gaps.
    fn push_run(&mut self, level: Level, count: u64) {
        self.recorded += count;
        let Some(cap) = self.capacity else {
            self.levels
                .extend(std::iter::repeat_n(level, count as usize));
            return;
        };
        // Fill up to capacity first (pre-wrap appends)...
        let fill = (count as usize).min(cap - self.levels.len());
        self.levels.extend(std::iter::repeat_n(level, fill));
        let mut rest = count - fill as u64;
        if rest == 0 {
            return;
        }
        // ...then rotate. A run of at least `cap` overwrites everything;
        // only the head position still depends on the exact length.
        if rest >= cap as u64 {
            self.levels.iter_mut().for_each(|slot| *slot = level);
            rest %= cap as u64;
        }
        for _ in 0..rest {
            self.levels[self.head] = level;
            self.head = (self.head + 1) % cap;
        }
    }

    /// The raw stored levels. In full mode (and in ring mode before the
    /// first wrap-around) index = bit time; in a wrapped ring the storage
    /// is rotated — use [`SignalTrace::snapshot`] for chronological order.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The retained levels in chronological order (oldest first). In full
    /// mode this is simply a copy of [`SignalTrace::levels`].
    pub fn snapshot(&self) -> Vec<Level> {
        let mut out = Vec::with_capacity(self.levels.len());
        out.extend_from_slice(&self.levels[self.head..]);
        out.extend_from_slice(&self.levels[..self.head]);
        out
    }

    /// Number of retained bits (bounded by the ring capacity, if any).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Total bits ever recorded, including ones a ring has overwritten.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

/// Per-node metric keys, interned once at [`Simulator::add_node`] time so
/// the per-bit instrumentation path never calls `format!`.
///
/// Only the keys that can fire every bit (TEC/REC gauges and deltas) or
/// every frame are pre-built; rare, label-rich events (`ErrorDetected`,
/// `ErrorStateChanged`) keep their lazy `format!` in [`record_event`].
#[derive(Debug, Clone)]
struct NodeMetricKeys {
    tec_gauge: String,
    rec_gauge: String,
    tec_raised: String,
    rec_raised: String,
    tx_started: String,
    tx_success: String,
    frames_received: String,
    arbitration_lost: String,
    bus_off: String,
    recovered: String,
}

impl NodeMetricKeys {
    fn new(id: NodeId) -> Self {
        NodeMetricKeys {
            tec_gauge: format!("can_node_tec{{node=\"{id}\"}}"),
            rec_gauge: format!("can_node_rec{{node=\"{id}\"}}"),
            tec_raised: format!("can_node_tec_raised_total{{node=\"{id}\"}}"),
            rec_raised: format!("can_node_rec_raised_total{{node=\"{id}\"}}"),
            tx_started: format!("can_tx_started_total{{node=\"{id}\"}}"),
            tx_success: format!("can_tx_success_total{{node=\"{id}\"}}"),
            frames_received: format!("can_frames_received_total{{node=\"{id}\"}}"),
            arbitration_lost: format!("can_arbitration_lost_total{{node=\"{id}\"}}"),
            bus_off: format!("can_bus_off_total{{node=\"{id}\"}}"),
            recovered: format!("can_recovered_total{{node=\"{id}\"}}"),
        }
    }
}

/// The bit-level CAN bus simulator.
pub struct Simulator {
    speed: BusSpeed,
    nodes: Vec<Node>,
    now: BitInstant,
    events: Vec<Event>,
    trace: Option<SignalTrace>,
    busy_bits: u64,
    faults: FaultStack,
    /// Recycled per-bit output buffer — one allocation for the whole run
    /// instead of one per node per bit.
    scratch: StepOutput,
    /// Metrics sink; disabled (a no-op) by default so the hot path pays a
    /// single branch.
    recorder: Recorder,
    /// Causal event journal; disabled (a no-op) by default. Unlike the
    /// recorder's registry, journal content is identical across the three
    /// kernels only after its canonical export sort (see `can_obs::journal`).
    journal: Journal,
    /// Always-on kernel self-telemetry: how the engines spent their bits.
    /// Deliberately outside the registry — it differs per `SimMode` and
    /// must not leak into differential fingerprints.
    telemetry: KernelTelemetry,
    /// Last TEC/REC values published to the recorder, per node — deltas
    /// and gauges are emitted only on change.
    obs_prev: Vec<(u16, u16)>,
    /// Busy bits inside the current [`OBS_WINDOW_BITS`] window.
    obs_window_busy: u32,
    /// Pre-interned metric keys, one entry per node.
    metric_keys: Vec<NodeMetricKeys>,
    /// Bus-bit counter deltas accumulated since the last flush. The hot
    /// loop increments these plain fields; [`Simulator::flush_obs_counters`]
    /// publishes them to the recorder at every public API exit.
    pend_bits: u64,
    /// Busy-bit counter deltas accumulated since the last flush.
    pend_busy_bits: u64,
    /// Arena for the packed kernel: per-stretch node plans (reused).
    packed_plans: Vec<NodePlan>,
    /// Arena: per-node scratch parsers for receiver dry-runs (reused).
    rx_scratch: Vec<RxParser>,
    /// Arena: per-node (requested, consumed) bits of the latest dry-run.
    rx_dry: Vec<(u32, u32)>,
    /// Arena: per node, the parse-group leader whose committed parser it
    /// copies this stretch (`None`: it commits its own parse).
    rx_share: Vec<Option<usize>>,
    /// Arena: the nodes dry-run in the current stretch, one per distinct
    /// parser state.
    rx_leaders: Vec<usize>,
    /// Passive frame observers (see [`crate::tap::FrameTap`]): fed once
    /// per completed frame from the lockstep bit path.
    taps: Vec<Box<dyn FrameTap>>,
}

impl Simulator {
    /// Creates an empty simulator at the given bus speed.
    pub fn new(speed: BusSpeed) -> Self {
        Simulator {
            speed,
            nodes: Vec::new(),
            now: BitInstant::ZERO,
            events: Vec::new(),
            trace: None,
            busy_bits: 0,
            faults: FaultStack::new(),
            scratch: StepOutput::default(),
            recorder: Recorder::disabled(),
            journal: Journal::disabled(),
            telemetry: KernelTelemetry::default(),
            obs_prev: Vec::new(),
            obs_window_busy: 0,
            metric_keys: Vec::new(),
            pend_bits: 0,
            pend_busy_bits: 0,
            packed_plans: Vec::new(),
            rx_scratch: Vec::new(),
            rx_dry: Vec::new(),
            rx_share: Vec::new(),
            rx_leaders: Vec::new(),
            taps: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Internal installers — the configuration surface used by
    // [`crate::builder::SimBuilder`], which is the only way to configure
    // a simulator.
    // ------------------------------------------------------------------

    pub(crate) fn install_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    pub(crate) fn install_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    pub(crate) fn install_fault_stack(&mut self, faults: FaultStack) {
        self.faults = faults;
    }

    pub(crate) fn push_fault_layer(&mut self, fault: FaultModel) {
        self.faults.push(fault);
    }

    pub(crate) fn install_trace(&mut self, trace: SignalTrace) {
        self.trace = Some(trace);
    }

    pub(crate) fn install_tap(&mut self, tap: Box<dyn FrameTap>) {
        self.taps.push(tap);
    }

    /// Number of attached passive frame taps.
    pub fn tap_count(&self) -> usize {
        self.taps.len()
    }

    /// The attached recorder (disabled unless one was installed via
    /// [`crate::builder::SimBuilder::recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The attached causal journal (disabled unless one was installed via
    /// [`crate::builder::SimBuilder::journal`]).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The kernel self-telemetry accumulated so far (always collected).
    pub fn kernel_telemetry(&self) -> &KernelTelemetry {
        &self.telemetry
    }

    /// Adds a node; returns its [`NodeId`].
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.metric_keys.push(NodeMetricKeys::new(id));
        id
    }

    /// The configured bus speed.
    pub fn speed(&self) -> BusSpeed {
        self.speed
    }

    /// Current simulated time.
    pub fn now(&self) -> BitInstant {
        self.now
    }

    /// The event log so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Drains the event log, returning the accumulated events.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Drains the event log into `out` (appending), keeping the log's
    /// allocation for reuse. Callers that poll every bit (e.g. the
    /// multi-attacker scan) use this to stay allocation-free while keeping
    /// memory flat over arbitrarily long runs.
    pub fn take_events_into(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.events);
    }

    /// The signal trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&SignalTrace> {
        self.trace.as_ref()
    }

    /// Access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes on the bus.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of simulated bits during which the bus carried a frame or
    /// error condition (for windowed bus-load measurements).
    pub fn busy_bits(&self) -> u64 {
        self.busy_bits
    }

    /// Fraction of simulated bits during which the bus carried a frame or
    /// error condition — the observed *bus load*.
    pub fn observed_bus_load(&self) -> f64 {
        if self.now.bits() == 0 {
            0.0
        } else {
            self.busy_bits as f64 / self.now.bits() as f64
        }
    }

    /// Publishes the initial TEC/REC gauges once a live recorder sees the
    /// current node set. Shared by the lockstep and packed paths so
    /// the metrics registry's insertion order — and therefore its snapshot
    /// bytes — never depends on which path ran first.
    fn ensure_obs_init(&mut self) {
        if self.obs_prev.len() == self.nodes.len() {
            return;
        }
        self.obs_prev.resize(self.nodes.len(), (0, 0));
        for (id, node) in self.nodes.iter().enumerate() {
            let counters = node.controller().counters();
            self.obs_prev[id] = (counters.tec(), counters.rec());
            let keys = &self.metric_keys[id];
            self.recorder
                .set_gauge(&keys.tec_gauge, counters.tec().into());
            self.recorder
                .set_gauge(&keys.rec_gauge, counters.rec().into());
        }
    }

    /// Publishes the bus-bit counter deltas accumulated by the hot loop.
    ///
    /// Every public stepping API flushes on exit, so externally the
    /// counters are always current; internally the loop touches only plain
    /// fields.
    fn flush_obs_counters(&mut self) {
        if self.pend_bits > 0 {
            self.recorder.add("can_bus_bits_total", self.pend_bits);
            self.pend_bits = 0;
        }
        if self.pend_busy_bits > 0 {
            self.recorder
                .add("can_bus_busy_bits_total", self.pend_busy_bits);
            self.pend_busy_bits = 0;
        }
    }

    /// Advances the simulation by one nominal bit time.
    pub fn step(&mut self) -> Level {
        // Hoisted once per bit: the disabled-recorder hot path must cost a
        // single branch, not one per instrumentation site.
        let obs = self.recorder.is_enabled();
        if obs {
            self.ensure_obs_init();
        }
        let bus = self.step_inner(obs);
        if obs {
            self.flush_obs_counters();
        }
        bus
    }

    /// One lockstep bit, without the per-call recorder init/flush — the
    /// run-entry points hoist those out of the loop (`obs` is
    /// `recorder.is_enabled()`, evaluated once per run).
    fn step_inner(&mut self, obs: bool) -> Level {
        self.telemetry.count_lockstep_bit();
        let jrn = self.journal.is_enabled();
        for (id, node) in self.nodes.iter_mut().enumerate() {
            if node.prepare_bit(self.now) && jrn {
                // A crash restart flushed the mailboxes: any open causal
                // chain is void, the next frame is genuinely new traffic.
                self.journal.close_chain(id as u32);
            }
        }
        let resolved = Level::wired_and(self.nodes.iter().map(Node::tx_level));
        let bus = self.faults.apply(resolved, self.now.bits());
        if let Some(trace) = &mut self.trace {
            trace.push(bus);
        }

        let mut busy = bus.is_dominant();
        let mut tap_frame: Option<can_core::CanFrame> = None;
        for (id, node) in self.nodes.iter_mut().enumerate() {
            self.scratch.clear();
            node.sample_into(bus, self.now, &mut self.scratch);
            busy |= node.controller().is_busy();
            if !self.taps.is_empty() && tap_frame.is_none() {
                // At most one frame occupies a single bus, so at most one
                // frame completes per bit; the transmitter's copy (lowest
                // node id) and every receiver's copy are the same frame.
                for kind in &self.scratch.events {
                    if let EventKind::TransmissionSucceeded { frame }
                    | EventKind::FrameReceived { frame } = kind
                    {
                        tap_frame = Some(*frame);
                        break;
                    }
                }
            }
            if obs {
                let keys = &self.metric_keys[id];
                for kind in &self.scratch.events {
                    record_event(&self.recorder, keys, id, kind);
                }
                let counters = node.controller().counters();
                let (tec, rec) = (counters.tec(), counters.rec());
                let (prev_tec, prev_rec) = self.obs_prev[id];
                if tec != prev_tec {
                    if tec > prev_tec {
                        self.recorder
                            .add(&keys.tec_raised, u64::from(tec - prev_tec));
                    }
                    self.recorder.set_gauge(&keys.tec_gauge, tec.into());
                }
                if rec != prev_rec {
                    if rec > prev_rec {
                        self.recorder
                            .add(&keys.rec_raised, u64::from(rec - prev_rec));
                    }
                    self.recorder.set_gauge(&keys.rec_gauge, rec.into());
                }
                self.obs_prev[id] = (tec, rec);
            }
            if jrn {
                for kind in &self.scratch.events {
                    journal_event(&self.journal, self.now.bits(), id as u32, kind);
                }
            }
            for kind in self.scratch.events.drain(..) {
                self.events.push(Event::new(self.now, id, kind));
            }
        }
        if let Some(frame) = tap_frame {
            let at = self.now;
            for tap in &mut self.taps {
                tap.on_frame(&frame, at);
            }
        }
        if busy {
            self.busy_bits += 1;
        }
        if obs {
            self.pend_bits += 1;
            if busy {
                self.pend_busy_bits += 1;
                self.obs_window_busy += 1;
            }
            if (self.now.bits() + 1).is_multiple_of(OBS_WINDOW_BITS) {
                let percent = u64::from(self.obs_window_busy) * 100 / OBS_WINDOW_BITS;
                self.recorder.observe_with(
                    "can_bus_utilization_percent",
                    can_obs::PERCENT_BUCKETS,
                    percent,
                );
                self.obs_window_busy = 0;
            }
        }

        self.now += BitDuration::bits(1);
        bus
    }

    /// Runs for `bits` nominal bit times.
    pub fn run(&mut self, bits: u64) {
        let obs = self.recorder.is_enabled();
        if obs {
            self.ensure_obs_init();
        }
        for _ in 0..bits {
            self.step_inner(obs);
        }
        if obs {
            self.flush_obs_counters();
        }
    }

    /// Runs for the given number of simulated milliseconds at the bus
    /// speed.
    pub fn run_millis(&mut self, millis: f64) {
        self.run(self.speed.bits_in_millis(millis));
    }

    /// The number of bits (at most `max_bits`) that can be skipped in
    /// closed form from the current instant, or `None` when some component
    /// needs the current bit processed normally.
    ///
    /// The bus can be fast-forwarded over `[now, now + gap)` when every
    /// horizon source — the channel fault stack, every node (its TX
    /// fault, controller, application and bit agent, see
    /// [`Node::next_activity`]) and every passive frame tap
    /// ([`FrameTap::next_activity`]) — declares its next activity strictly after
    /// `now`. Quiescence implies the bus stays recessive for the whole gap:
    /// every skippable controller state drives recessive, and anything that
    /// could drive dominant reports `Some(now)`.
    fn idle_gap(&self, max_bits: u64) -> Option<u64> {
        let now = self.now.bits();
        let mut horizon = u64::MAX;
        let mut quiet = |t: Option<u64>| match t {
            Some(t) if t <= now => false,
            Some(t) => {
                horizon = horizon.min(t);
                true
            }
            None => true,
        };
        if !quiet(self.faults.next_activity(now)) {
            return None;
        }
        for node in &self.nodes {
            if !quiet(node.next_activity(self.now).map(BitInstant::bits)) {
                return None;
            }
        }
        for tap in &self.taps {
            if !quiet(tap.next_activity(self.now).map(BitInstant::bits)) {
                return None;
            }
        }
        let gap = (horizon - now).min(max_bits);
        (gap > 0).then_some(gap)
    }

    /// Fast-forwards over `gap` known-idle bits, keeping every piece of
    /// idle-dependent state — controller integration/suspend/recovery
    /// counters, agent interframe counters, signal trace, busy accounting
    /// and windowed utilization metrics — byte-identical to `gap` calls of
    /// [`Simulator::step`] over a recessive bus.
    fn skip_gap(&mut self, gap: u64, obs: bool) {
        self.telemetry.count_skip(gap);
        if let Some(trace) = &mut self.trace {
            trace.push_run(Level::Recessive, gap);
        }
        self.faults.skip(gap);
        // An idle bus is busy only through a crashed node whose controller
        // froze mid-frame; the crash window caps the gap, so that holds
        // for all of it.
        let busy = self.nodes.iter().any(|node| node.is_frozen_busy(self.now));
        for node in &mut self.nodes {
            node.advance_idle(gap, self.now);
        }
        self.account_uniform_bits(gap, busy, obs);
    }

    /// Busy and windowed-utilization accounting for `n` bits starting at
    /// the current instant that are all busy or all idle — byte-identical
    /// to the per-bit updates of `n` lockstep steps — then advances the
    /// clock past them.
    fn account_uniform_bits(&mut self, n: u64, busy: bool, obs: bool) {
        if busy {
            self.busy_bits += n;
        }
        if obs {
            self.pend_bits += n;
            if busy {
                self.pend_busy_bits += n;
            }
            // A window observation fires at bit `b` when
            // `(b + 1) % OBS_WINDOW_BITS == 0`. The first boundary in the
            // run flushes whatever the lockstep path had accumulated; any
            // further boundaries close windows that lie wholly inside the
            // run.
            let start = self.now.bits();
            let first_flush = (start + 1).next_multiple_of(OBS_WINDOW_BITS) - 1;
            let busy_in = |bits: u64| if busy { bits as u32 } else { 0 };
            if first_flush < start + n {
                let before = first_flush - start + 1;
                self.obs_window_busy += busy_in(before);
                let rest = n - before;
                let mut percent = u64::from(self.obs_window_busy) * 100 / OBS_WINDOW_BITS;
                for _ in 0..=rest / OBS_WINDOW_BITS {
                    self.recorder.observe_with(
                        "can_bus_utilization_percent",
                        can_obs::PERCENT_BUCKETS,
                        percent,
                    );
                    percent = if busy { 100 } else { 0 };
                }
                self.obs_window_busy = busy_in(rest % OBS_WINDOW_BITS);
            } else {
                self.obs_window_busy += busy_in(n);
            }
        }
        self.now += BitDuration::bits(n);
    }

    /// Advances by one quantum of the packed kernel: an idle-gap skip, a
    /// word-packed stretch of up to 64 bits, or a single lockstep bit —
    /// whichever applies first. Returns the number of bits advanced (`0`
    /// only when `max_bits` is `0`).
    pub fn advance_packed(&mut self, max_bits: u64) -> u64 {
        let obs = self.recorder.is_enabled();
        if obs {
            self.ensure_obs_init();
        }
        let advanced = self.advance_packed_inner(max_bits, obs);
        if obs {
            self.flush_obs_counters();
        }
        advanced
    }

    fn advance_packed_inner(&mut self, max_bits: u64, obs: bool) -> u64 {
        if max_bits == 0 {
            return 0;
        }
        if let Some(gap) = self.idle_gap(max_bits) {
            self.skip_gap(gap, obs);
            return gap;
        }
        match self.packed_stretch(max_bits, obs) {
            Some(n) => n,
            None => {
                self.step_inner(obs);
                1
            }
        }
    }

    /// Runs for `bits` nominal bit times with the packed bus kernel:
    /// behaves exactly like [`Simulator::run`] — same events, trace,
    /// metrics and final state — but resolves provably event-free
    /// stretches of the wired-AND word-at-a-time (up to 64 bits per
    /// quantum) and skips fully idle gaps in closed form. Every bit at
    /// which a protocol event, fault window, agent drive or application
    /// poll could occur still takes the lockstep path.
    pub fn run_packed(&mut self, bits: u64) {
        let obs = self.recorder.is_enabled();
        if obs {
            self.ensure_obs_init();
        }
        let end = self.now.bits() + bits;
        while self.now.bits() < end {
            self.advance_packed_inner(end - self.now.bits(), obs);
        }
        if obs {
            self.flush_obs_counters();
        }
    }

    /// Attempts one packed stretch: negotiates a per-node event-free
    /// window (DESIGN.md §11), resolves the wired-AND as a dominant-mask
    /// OR, shortens the window to the first bit any node must process in
    /// lockstep, and commits the surviving prefix in bulk. Returns `None`
    /// when the current bit needs the lockstep path.
    fn packed_stretch(&mut self, max_bits: u64, obs: bool) -> Option<u64> {
        let now_bits = self.now.bits();
        let mut cap = max_bits.min(u64::from(packed::WORD_BITS));
        match self.faults.next_activity(now_bits) {
            Some(t) if t <= now_bits => {
                self.telemetry.count_fallback(FallbackCause::FaultStack);
                return None;
            }
            Some(t) => cap = cap.min(t - now_bits),
            None => {}
        }
        self.packed_plans.clear();
        for node in &self.nodes {
            match node.stretch_plan(self.now, &mut cap) {
                Ok(plan) => self.packed_plans.push(plan),
                Err(cause) => {
                    self.telemetry.count_fallback(cause);
                    return None;
                }
            }
        }
        if cap < 2 {
            // A one-bit "stretch" costs more than the lockstep bit it saves.
            self.telemetry.count_fallback(FallbackCause::ShortCap);
            return None;
        }

        // Wired-AND over the stretch: dominant-mask OR of every node's
        // drive word (transmitters, active error flags, forced agent runs
        // and TX-fault windows).
        let bus = self
            .packed_plans
            .iter()
            .fold(0u64, |bus, plan| bus | plan.drive);
        // Post-AND shortening: each condition ends the stretch at the
        // first bit the lockstep path must process. All caps are
        // "first offset of X", so they are prefix-stable and one pass
        // suffices even as `n` shrinks.
        let mut n = cap as u32;
        for plan in &self.packed_plans {
            match &plan.role {
                StretchRole::Transmit { word } => {
                    // First disagreement between sent and resolved levels:
                    // arbitration loss, dominant overwrite or bit error.
                    if let Some(d) = packed::first_mismatch(*word, bus, n) {
                        n = d;
                    }
                }
                StretchRole::Passive => {
                    // An idle-class node joins the frame at the first
                    // dominant bit (SOF from its point of view).
                    if let Some(d) = packed::first_dominant(bus, n) {
                        n = d;
                    }
                }
                StretchRole::Integrating { recessive_run } => {
                    n = integrating_word_cap(*recessive_run, bus, n);
                }
                StretchRole::Signal { sig } => {
                    // Stop before the severe-REC bit and the last
                    // delimiter bit: their samples have side effects.
                    n = sig.quiet_bits(bus, n);
                }
                StretchRole::Receive | StretchRole::BusOff | StretchRole::Down => {}
            }
        }
        // A stretch with any transmitter, receiver or error signaller is
        // busy for all its bits (those states cannot end inside it); so is
        // one with a crashed node frozen mid-frame. One with none of these
        // is busy exactly at its dominant bits, which only a forced drive
        // (agent run or TX-fault word) can put there: it stops before the
        // first one, so it is idle for all its bits.
        let busy = self
            .packed_plans
            .iter()
            .zip(&self.nodes)
            .any(|(plan, node)| {
                matches!(
                    plan.role,
                    StretchRole::Transmit { .. }
                        | StretchRole::Receive
                        | StretchRole::Signal { .. }
                ) || node.is_frozen_busy(self.now)
            });
        if !busy {
            if let Some(d) = packed::first_dominant(bus, n) {
                n = d;
            }
        }
        if n == 0 {
            self.telemetry.count_fallback(FallbackCause::PostAndShorten);
            return None;
        }
        // Receiver dry-runs: stop before the first parser event
        // (ACK-slot announcement, completion, fault). Every node samples
        // the same bus, so receivers in equal parser states form one
        // group: only its leader (the first in node order) is dry-run.
        // A member's own dry run would consume `min(consumed_leader, n)`
        // bits, and `n` is already capped there, so skipping it is exact.
        if self.rx_scratch.len() < self.nodes.len() {
            self.rx_scratch.resize_with(self.nodes.len(), RxParser::new);
            self.rx_dry.resize(self.nodes.len(), (0, 0));
            self.rx_share.resize(self.nodes.len(), None);
        }
        self.rx_leaders.clear();
        for (i, plan) in self.packed_plans.iter().enumerate() {
            self.rx_share[i] = None;
            if plan.role != StretchRole::Receive {
                continue;
            }
            if let Some(leader) = parse_leader(&self.nodes, &self.rx_leaders, i) {
                self.rx_share[i] = Some(leader);
                self.telemetry.count_parse_copied();
                continue;
            }
            let req = n;
            let consumed =
                self.nodes[i]
                    .controller()
                    .receive_stretch_cap(bus, req, &mut self.rx_scratch[i]);
            self.rx_dry[i] = (req, consumed);
            self.rx_leaders.push(i);
            self.telemetry.count_parse_run();
            n = n.min(consumed);
        }
        if n == 0 {
            self.telemetry.count_fallback(FallbackCause::ReceiverDryRun);
            return None;
        }
        // A transmitter's monitor parser sees the same `n` bits (the bus
        // matched its word); in a leader's state it copies instead of
        // replaying them.
        for (i, plan) in self.packed_plans.iter().enumerate() {
            if !matches!(plan.role, StretchRole::Transmit { .. }) {
                continue;
            }
            if let Some(leader) = parse_leader(&self.nodes, &self.rx_leaders, i) {
                self.rx_share[i] = Some(leader);
                self.telemetry.count_parse_copied();
            }
        }
        self.telemetry
            .count_stretch(u64::from(n), self.packed_plans.iter().map(|plan| plan.role));

        // Commit: every node advances `n` bits in its negotiated role.
        if let Some(trace) = &mut self.trace {
            trace.push_word(bus, n);
        }
        self.faults.skip(u64::from(n));
        // Controllers first: group leaders and unshared nodes commit
        // their own parse, then members copy their leader's result.
        // Controller commits emit nothing, so their order is free.
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if self.rx_share[i].is_some() {
                continue;
            }
            let (req, consumed) = self.rx_dry[i];
            // The dry run can be installed as-is only if it covered
            // exactly the final stretch, event-free.
            let install_dry_run = consumed == req && req == n;
            node.commit_stretch(
                self.packed_plans[i].role,
                bus,
                n,
                &self.rx_scratch[i],
                install_dry_run,
            );
        }
        for (i, share) in self.rx_share.iter().enumerate() {
            if let Some(leader) = *share {
                let (leader, member) = leader_and_member(&mut self.nodes, leader, i);
                let post = leader
                    .controller()
                    .stretch_parser()
                    .expect("a group leader is receiving");
                member.controller_mut().commit_parser(post, n);
            }
        }
        // TX faults, applications and agents catch up in node order, as
        // in lockstep, so journal order does not depend on the engine.
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.finish_stretch(self.packed_plans[i], bus, n, self.now);
        }
        self.account_uniform_bits(u64::from(n), busy, obs);
        Some(u64::from(n))
    }

    /// Runs until `predicate` returns `true` for a newly appended event, or
    /// until `max_bits` elapse. Returns the matching event index, if any.
    pub fn run_until<F>(&mut self, max_bits: u64, mut predicate: F) -> Option<usize>
    where
        F: FnMut(&Event) -> bool,
    {
        let mut checked = self.events.len();
        for _ in 0..max_bits {
            self.step();
            while checked < self.events.len() {
                if predicate(&self.events[checked]) {
                    return Some(checked);
                }
                checked += 1;
            }
        }
        None
    }
}

/// The first of `leaders` whose frame parser equals node `i`'s, if any.
fn parse_leader(nodes: &[Node], leaders: &[usize], i: usize) -> Option<usize> {
    let parser = nodes[i].controller().stretch_parser();
    leaders
        .iter()
        .copied()
        .find(|&l| nodes[l].controller().stretch_parser() == parser)
}

/// Splits `nodes` into a shared borrow of `leader` and a mutable borrow
/// of `member` (distinct indices).
fn leader_and_member(nodes: &mut [Node], leader: usize, member: usize) -> (&Node, &mut Node) {
    if leader < member {
        let (head, tail) = nodes.split_at_mut(member);
        (&head[leader], &mut tail[0])
    } else {
        let (head, tail) = nodes.split_at_mut(leader);
        (&tail[0], &mut head[member])
    }
}

/// Maps one protocol event onto the causal journal. Only called with an
/// enabled journal. Frame lifecycle events open/close causal chains
/// (retransmissions inherit the destroyed attempt's `chain_id`); receiver
/// errors and state changes are stamped with the provoking frame's ids.
/// `FrameReceived` is deliberately skipped — the transmitter's
/// [`can_obs::JournalKind::FrameAck`] already marks delivery, and one
/// event per receiver per frame would be pure noise.
fn journal_event(journal: &Journal, at: u64, node: u32, kind: &EventKind) {
    use can_obs::JournalKind;

    use crate::event::ErrorRole;
    match kind {
        EventKind::TransmissionStarted { id } => {
            journal.begin_frame(at, node, &format!("id=0x{:03X}", id.raw()));
        }
        EventKind::ArbitrationLost { id } => {
            journal.end_frame(
                at,
                node,
                JournalKind::ArbLost,
                &format!("id=0x{:03X}", id.raw()),
                true,
            );
        }
        EventKind::TransmissionSucceeded { frame } => {
            journal.end_frame(
                at,
                node,
                JournalKind::FrameAck,
                &format!("id=0x{:03X}", frame.id().raw()),
                false,
            );
        }
        EventKind::ErrorDetected { kind, role } => {
            let kind = error_kind_label(*kind);
            match role {
                ErrorRole::Transmitter => {
                    // Offset into the destroyed frame, in destuffed-stream
                    // bit times since its SOF.
                    let off = journal.node_frame_offset(at, node);
                    journal.end_frame(
                        at,
                        node,
                        JournalKind::FrameError,
                        &format!("kind={kind} off={off}"),
                        true,
                    );
                }
                ErrorRole::Receiver => {
                    let off = journal.bus_frame_offset(at);
                    journal.event(
                        at,
                        node,
                        JournalKind::RxError,
                        &format!("kind={kind} off={off}"),
                    );
                }
            }
        }
        EventKind::ErrorStateChanged { state } => {
            journal.node_event(at, node, JournalKind::ErrorState, &format!("state={state}"));
        }
        EventKind::BusOff => journal.node_event(at, node, JournalKind::BusOff, ""),
        EventKind::Recovered => journal.node_event(at, node, JournalKind::Recovered, ""),
        EventKind::FrameReceived { .. } => {}
    }
}

fn error_kind_label(kind: can_core::errors::CanErrorKind) -> &'static str {
    use can_core::errors::CanErrorKind;
    match kind {
        CanErrorKind::Bit => "bit",
        CanErrorKind::Stuff => "stuff",
        CanErrorKind::Form => "form",
        CanErrorKind::Ack => "ack",
        CanErrorKind::Crc => "crc",
    }
}

/// Maps one protocol event onto its metric counter. Only called with an
/// enabled recorder; the per-frame keys come pre-interned from
/// [`NodeMetricKeys`], while the rare label-rich error events keep a lazy
/// `format!`.
fn record_event(recorder: &Recorder, keys: &NodeMetricKeys, id: NodeId, kind: &EventKind) {
    use crate::event::ErrorRole;
    match kind {
        EventKind::TransmissionStarted { .. } => {
            recorder.inc(&keys.tx_started);
        }
        EventKind::TransmissionSucceeded { .. } => {
            recorder.inc(&keys.tx_success);
        }
        EventKind::FrameReceived { .. } => {
            recorder.inc(&keys.frames_received);
        }
        EventKind::ArbitrationLost { .. } => {
            recorder.inc(&keys.arbitration_lost);
        }
        EventKind::ErrorDetected { kind, role } => {
            let kind = error_kind_label(*kind);
            let role = match role {
                ErrorRole::Transmitter => "tx",
                ErrorRole::Receiver => "rx",
            };
            recorder.inc(&format!(
                "can_errors_total{{node=\"{id}\",kind=\"{kind}\",role=\"{role}\"}}"
            ));
        }
        EventKind::ErrorStateChanged { state } => {
            recorder.inc(&format!(
                "can_error_state_changes_total{{node=\"{id}\",state=\"{state}\"}}"
            ));
        }
        EventKind::BusOff => recorder.inc(&keys.bus_off),
        EventKind::Recovered => recorder.inc(&keys.recovered),
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("speed", &self.speed)
            .field("nodes", &self.nodes.len())
            .field("now", &self.now)
            .field("events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::fault::TxFault;
    use can_core::app::{PeriodicSender, SilentApplication};
    use can_core::{CanFrame, CanId};

    fn frame(id: u16, data: &[u8]) -> CanFrame {
        CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
    }

    #[test]
    fn idle_bus_stays_recessive() {
        let mut sim = Simulator::new(BusSpeed::K500);
        sim.add_node(Node::new("a", Box::new(SilentApplication)));
        sim.add_node(Node::new("b", Box::new(SilentApplication)));
        sim.install_trace(SignalTrace::default());
        sim.run(100);
        assert!(sim
            .trace()
            .unwrap()
            .levels()
            .iter()
            .all(|l| l.is_recessive()));
        assert_eq!(sim.observed_bus_load(), 0.0);
    }

    #[test]
    fn periodic_traffic_flows_end_to_end() {
        let mut sim = Simulator::new(BusSpeed::K500);
        let f = frame(0x0C4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        sim.add_node(Node::new(
            "sender",
            Box::new(PeriodicSender::new(f, 500, 0)),
        ));
        sim.add_node(Node::new("receiver", Box::new(SilentApplication)));
        sim.run(5_000);
        let received = sim
            .events()
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::FrameReceived { frame } if *frame == f))
            .count();
        // 5000 bits / 500-bit period ≈ 10 transmissions (minus ramp-up).
        assert!((8..=10).contains(&received), "received {received}");
        assert!(sim.observed_bus_load() > 0.15);
        assert!(sim.observed_bus_load() < 0.35);
    }

    #[test]
    fn run_until_stops_at_matching_event() {
        let mut sim = Simulator::new(BusSpeed::K50);
        let f = frame(0x111, &[]);
        sim.add_node(Node::new(
            "sender",
            Box::new(PeriodicSender::new(f, 400, 0)),
        ));
        sim.add_node(Node::new("rx", Box::new(SilentApplication)));
        let hit = sim.run_until(10_000, |e| {
            matches!(e.kind, EventKind::TransmissionSucceeded { .. })
        });
        assert!(hit.is_some());
        assert!(sim.now().bits() < 300, "stopped shortly after the event");
    }

    #[test]
    fn two_senders_share_the_bus_without_errors() {
        let mut sim = Simulator::new(BusSpeed::K500);
        sim.add_node(Node::new(
            "hi",
            Box::new(PeriodicSender::new(frame(0x050, &[0xA; 8]), 300, 0)),
        ));
        sim.add_node(Node::new(
            "lo",
            Box::new(PeriodicSender::new(frame(0x350, &[0xB; 8]), 300, 0)),
        ));
        sim.add_node(Node::new("rx", Box::new(SilentApplication)));
        sim.run(30_000);
        assert!(
            !sim.events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::ErrorDetected { .. })),
            "healthy arbitration must be error-free"
        );
        let successes = sim
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TransmissionSucceeded { .. }))
            .count();
        assert!(successes >= 190, "both periodic streams flow: {successes}");
        for id in 0..3 {
            assert_eq!(sim.node(id).controller().counters().tec(), 0);
        }
    }

    #[test]
    fn trace_records_every_bit() {
        let mut sim = Simulator::new(BusSpeed::K125);
        sim.add_node(Node::new("n", Box::new(SilentApplication)));
        sim.install_trace(SignalTrace::default());
        sim.run(77);
        assert_eq!(sim.trace().unwrap().len(), 77);
        assert_eq!(sim.now().bits(), 77);
    }

    #[test]
    fn stuck_dominant_transmitter_jams_the_bus() {
        use crate::fault::TxFault;
        let mut sim = Simulator::new(BusSpeed::K500);
        sim.add_node(Node::new(
            "sender",
            Box::new(PeriodicSender::new(frame(0x100, &[1, 2]), 400, 0)),
        ));
        sim.add_node(
            Node::new("broken", Box::new(SilentApplication))
                .with_tx_fault(TxFault::stuck_dominant(1_000, 3_000)),
        );
        sim.install_trace(SignalTrace::default());
        sim.run(5_000);
        let levels = sim.trace().unwrap().levels();
        assert!(
            levels[1_000..3_000].iter().all(|l| l.is_dominant()),
            "the bus is jammed for the whole window"
        );
        // The healthy sender keeps succeeding once the jam clears.
        let after_jam = sim
            .events()
            .iter()
            .filter(|e| {
                e.at.bits() > 3_000 && matches!(e.kind, EventKind::TransmissionSucceeded { .. })
            })
            .count();
        assert!(after_jam >= 3, "recovered after the jam: {after_jam}");
    }

    #[test]
    fn crashed_node_falls_silent_then_rejoins_after_reset() {
        use crate::fault::TxFault;
        let mut sim = Simulator::new(BusSpeed::K500);
        let sender = sim.add_node(
            Node::new(
                "flaky",
                Box::new(PeriodicSender::new(frame(0x123, &[7]), 500, 0)),
            )
            .with_tx_fault(TxFault::crash_restart(2_000, 8_000)),
        );
        sim.add_node(Node::new("rx", Box::new(SilentApplication)));
        sim.run(14_000);

        let successes: Vec<u64> = sim
            .events()
            .iter()
            .filter(|e| {
                e.node == sender && matches!(e.kind, EventKind::TransmissionSucceeded { .. })
            })
            .map(|e| e.at.bits())
            .collect();
        assert!(
            successes.iter().any(|&t| t < 2_000),
            "transmits before the crash"
        );
        assert!(
            !successes.iter().any(|&t| (2_000..8_011).contains(&t)),
            "silent while down (plus re-integration)"
        );
        assert!(
            successes.iter().any(|&t| t > 8_011),
            "resumes after the restart"
        );
        assert_eq!(sim.node(sender).controller().counters().tec(), 0);
    }

    #[test]
    fn recorder_captures_traffic_and_utilization() {
        use can_obs::Recorder;
        let mut sim = Simulator::new(BusSpeed::K500);
        sim.add_node(Node::new(
            "sender",
            Box::new(PeriodicSender::new(frame(0x0C4, &[1, 2, 3, 4]), 500, 0)),
        ));
        sim.add_node(Node::new("receiver", Box::new(SilentApplication)));
        sim.install_recorder(Recorder::enabled());
        sim.run(5_000);
        let reg = sim.recorder().clone().into_registry();
        assert_eq!(reg.counter("can_bus_bits_total"), 5_000);
        assert!(reg.counter("can_tx_success_total{node=\"0\"}") >= 8);
        assert!(reg.counter("can_frames_received_total{node=\"1\"}") >= 8);
        assert_eq!(reg.gauge("can_node_tec{node=\"0\"}"), Some(0));
        assert_eq!(reg.gauge("can_node_rec{node=\"1\"}"), Some(0));
        let util = reg.histogram("can_bus_utilization_percent").unwrap();
        assert_eq!(util.count(), 5, "one observation per 1000-bit window");
        assert!(reg.counter("can_bus_busy_bits_total") > 0);
    }

    #[test]
    fn disabled_recorder_does_not_perturb_the_run() {
        use can_obs::Recorder;
        let run = |recorder: Option<Recorder>| {
            let mut sim = Simulator::new(BusSpeed::K500);
            sim.add_node(Node::new(
                "s",
                Box::new(PeriodicSender::new(frame(0x123, &[9; 8]), 400, 0)),
            ));
            sim.add_node(Node::new("r", Box::new(SilentApplication)));
            if let Some(rec) = recorder {
                sim.install_recorder(rec);
            }
            sim.run(10_000);
            sim.take_events()
        };
        let baseline = run(None);
        let with_disabled = run(Some(Recorder::disabled()));
        let with_enabled = run(Some(Recorder::enabled()));
        assert_eq!(baseline, with_disabled);
        assert_eq!(baseline, with_enabled, "metrics are observe-only");
    }

    #[test]
    fn run_millis_converts_via_speed() {
        let mut sim = Simulator::new(BusSpeed::K50);
        sim.run_millis(2.0);
        assert_eq!(sim.now().bits(), 100);
    }

    #[test]
    fn push_run_matches_repeated_push() {
        for cap in [3usize, 7, 100] {
            for count in [0u64, 1, 2, 6, 7, 8, 23] {
                let mut by_one = SignalTrace::ring(cap);
                let mut by_run = SignalTrace::ring(cap);
                // A non-uniform prefix so head/rotation state is exercised.
                for i in 0..5u64 {
                    let level = if i % 2 == 0 {
                        Level::Dominant
                    } else {
                        Level::Recessive
                    };
                    by_one.push(level);
                    by_run.push(level);
                }
                for _ in 0..count {
                    by_one.push(Level::Recessive);
                }
                by_run.push_run(Level::Recessive, count);
                assert_eq!(
                    by_one.snapshot(),
                    by_run.snapshot(),
                    "cap={cap} count={count}"
                );
                assert_eq!(by_one.recorded(), by_run.recorded());
            }
        }
        let mut full_one = SignalTrace::default();
        let mut full_run = SignalTrace::default();
        for _ in 0..13 {
            full_one.push(Level::Recessive);
        }
        full_run.push_run(Level::Recessive, 13);
        assert_eq!(full_one.snapshot(), full_run.snapshot());
    }

    /// Asserts `run_packed(bits)` leaves a simulator byte-identical to
    /// `run(bits)`: same clock, events, busy accounting, trace and
    /// metrics snapshot.
    fn assert_packed_matches_run(build: impl Fn() -> Simulator, bits: u64) {
        let mut slow = build();
        let mut packed = build();
        slow.run(bits);
        packed.run_packed(bits);
        assert_eq!(slow.now(), packed.now());
        assert_eq!(slow.events(), packed.events());
        assert_eq!(slow.busy_bits(), packed.busy_bits());
        match (slow.trace(), packed.trace()) {
            (Some(a), Some(b)) => {
                assert_eq!(a.snapshot(), b.snapshot());
                assert_eq!(a.recorded(), b.recorded());
            }
            (None, None) => {}
            _ => panic!("trace presence differs"),
        }
        assert_eq!(
            slow.recorder().snapshot_json(),
            packed.recorder().snapshot_json()
        );
        for id in 0..slow.node_count() {
            assert_eq!(
                slow.node(id).controller().counters(),
                packed.node(id).controller().counters(),
                "node {id} error counters"
            );
        }
    }

    #[test]
    fn run_packed_matches_run_on_idle_bus() {
        assert_packed_matches_run(
            || {
                let mut sim = Simulator::new(BusSpeed::K500);
                sim.add_node(Node::new("a", Box::new(SilentApplication)));
                sim.add_node(Node::new("b", Box::new(SilentApplication)));
                sim.install_trace(SignalTrace::ring(64));
                sim.install_recorder(Recorder::enabled());
                sim
            },
            12_345,
        );
    }

    #[test]
    fn run_packed_matches_run_with_traffic() {
        assert_packed_matches_run(
            || {
                let mut sim = Simulator::new(BusSpeed::K500);
                sim.add_node(Node::new(
                    "s",
                    Box::new(PeriodicSender::new(frame(0x0C4, &[1, 2, 3, 4]), 1_700, 40)),
                ));
                sim.add_node(Node::new("r", Box::new(SilentApplication)));
                sim.install_trace(SignalTrace::default());
                sim.install_recorder(Recorder::enabled());
                sim
            },
            25_000,
        );
    }

    #[test]
    fn idle_skip_actually_skips() {
        let mut sim = Simulator::new(BusSpeed::K500);
        sim.add_node(Node::new("a", Box::new(SilentApplication)));
        let advanced = sim.advance_packed(1_000_000);
        assert_eq!(advanced, 1_000_000, "an all-idle bus skips in one quantum");
        assert_eq!(sim.now().bits(), 1_000_000);
        assert_eq!(sim.kernel_telemetry().skipped_bits(), 1_000_000);
    }

    #[test]
    fn run_packed_matches_run_with_dense_arbitration() {
        // Three contending senders with clashing periods: arbitration
        // losses, back-to-back frames and window boundaries mid-frame.
        assert_packed_matches_run(
            || {
                let mut sim = Simulator::new(BusSpeed::K500);
                sim.add_node(Node::new(
                    "hi",
                    Box::new(PeriodicSender::new(frame(0x050, &[0xA; 8]), 300, 0)),
                ));
                sim.add_node(Node::new(
                    "mid",
                    Box::new(PeriodicSender::new(frame(0x150, &[0x5C; 4]), 450, 17)),
                ));
                sim.add_node(Node::new(
                    "lo",
                    Box::new(PeriodicSender::new(frame(0x350, &[0xB; 8]), 300, 0)),
                ));
                sim.add_node(Node::new("rx", Box::new(SilentApplication)));
                sim.install_trace(SignalTrace::default());
                sim.install_recorder(Recorder::enabled());
                sim
            },
            30_000,
        );
    }

    #[test]
    fn run_packed_matches_run_with_faults() {
        use crate::fault::TxFault;
        // A crash-restart fault plus a stuck-dominant jammer: mid-frame
        // fault onsets, error frames, re-integration and recovery all
        // must cap or bypass packed stretches correctly.
        assert_packed_matches_run(
            || {
                let mut sim = Simulator::new(BusSpeed::K500);
                sim.add_node(
                    Node::new(
                        "flaky",
                        Box::new(PeriodicSender::new(frame(0x123, &[7]), 500, 0)),
                    )
                    .with_tx_fault(TxFault::crash_restart(2_000, 8_000)),
                );
                sim.add_node(
                    Node::new("jammer", Box::new(SilentApplication))
                        .with_tx_fault(TxFault::stuck_dominant(11_000, 12_500)),
                );
                sim.add_node(Node::new("rx", Box::new(SilentApplication)));
                sim.install_trace(SignalTrace::default());
                sim.install_recorder(Recorder::enabled());
                sim
            },
            16_000,
        );
    }

    #[test]
    fn journal_export_is_identical_across_both_kernels() {
        use can_obs::Journal;
        let build = || {
            let mut sim = Simulator::new(BusSpeed::K500);
            sim.install_journal(Journal::enabled());
            sim.add_node(
                Node::new(
                    "flaky",
                    Box::new(PeriodicSender::new(frame(0x123, &[7]), 500, 0)),
                )
                .with_tx_fault(TxFault::crash_restart(2_000, 8_000)),
            );
            sim.add_node(
                Node::new("jammer", Box::new(SilentApplication))
                    .with_tx_fault(TxFault::stuck_dominant(11_000, 12_500)),
            );
            sim.add_node(Node::new(
                "rival",
                Box::new(PeriodicSender::new(frame(0x0C4, &[1, 2]), 700, 40)),
            ));
            sim.add_node(Node::new("rx", Box::new(SilentApplication)));
            sim
        };
        use crate::fault::TxFault;
        let mut lockstep = build();
        lockstep.run(16_000);
        let mut packed = build();
        packed.run_packed(16_000);
        let export = lockstep.journal().export_jsonl();
        assert_eq!(export, packed.journal().export_jsonl());
        let (events, dropped) = can_obs::journal::parse_export(&export).unwrap();
        assert!(dropped.is_empty());
        assert!(
            events
                .iter()
                .any(|e| e.kind == can_obs::JournalKind::FrameError
                    || e.kind == can_obs::JournalKind::RxError),
            "the jam destroys frames"
        );
        assert!(events
            .iter()
            .any(|e| e.kind == can_obs::JournalKind::FrameAck));
    }

    #[test]
    fn journal_links_error_retransmissions_into_one_chain() {
        use can_obs::Journal;
        let mut sim = Simulator::new(BusSpeed::K500);
        sim.install_journal(Journal::enabled());
        sim.add_node(Node::new(
            "sender",
            Box::new(PeriodicSender::new(frame(0x100, &[1, 2]), 2_000, 0)),
        ));
        sim.add_node(
            Node::new("jammer", Box::new(SilentApplication))
                .with_tx_fault(crate::fault::TxFault::stuck_dominant(40, 100)),
        );
        sim.add_node(Node::new("rx", Box::new(SilentApplication)));
        sim.run(4_000);
        let (events, _) = can_obs::journal::parse_export(&sim.journal().export_jsonl()).unwrap();
        let errors: Vec<_> = events
            .iter()
            .filter(|e| e.kind == can_obs::JournalKind::FrameError && e.node == 0)
            .collect();
        assert!(!errors.is_empty(), "the jam destroys the first attempt");
        let chain = errors[0].chain_id;
        assert!(
            errors[0].detail.starts_with("kind="),
            "{}",
            errors[0].detail
        );
        // The eventual successful retransmission stays on the same chain.
        let ack = events
            .iter()
            .find(|e| e.kind == can_obs::JournalKind::FrameAck && e.node == 0)
            .expect("the frame eventually goes through");
        assert_eq!(ack.chain_id, chain);
        assert!(ack.frame_seq > errors[0].frame_seq);
        // A later, fresh frame opens a new chain.
        let starts: Vec<_> = events
            .iter()
            .filter(|e| e.kind == can_obs::JournalKind::FrameStart && e.node == 0)
            .collect();
        assert!(starts.last().unwrap().chain_id > chain);
    }

    #[test]
    fn kernel_telemetry_accounts_bits_per_engine() {
        let build = || {
            let mut sim = Simulator::new(BusSpeed::K500);
            sim.add_node(Node::new(
                "s",
                Box::new(PeriodicSender::new(frame(0x0C4, &[1, 2, 3, 4]), 500, 0)),
            ));
            sim.add_node(Node::new("r", Box::new(SilentApplication)));
            sim
        };
        let mut lockstep = build();
        lockstep.run(5_000);
        let t = lockstep.kernel_telemetry();
        assert_eq!(t.lockstep_bits(), 5_000);
        assert_eq!(t.packed_bits() + t.skipped_bits(), 0);

        let mut packed = build();
        packed.run_packed(5_000);
        let t = packed.kernel_telemetry();
        assert_eq!(
            t.lockstep_bits() + t.skipped_bits() + t.packed_bits(),
            5_000
        );
        assert!(
            t.packed_bits() > 500,
            "frame bodies pack: {}",
            t.packed_bits()
        );
        assert!(t.skipped_bits() > 0, "inter-frame gaps skip");
        assert!(t.stretches() > 0);
        assert_eq!(t.stretch_lengths().count(), t.stretches());
        // The periodic sender's polls force AppPoll fallbacks; arbitration
        // and frame boundaries force post-AND/short-cap ones.
        assert!(t.fallback_count(FallbackCause::AppPoll) > 0);
        let total: u64 = t.fallbacks().iter().map(|(_, n)| n).sum();
        assert!(total > 0);
        let json = t.to_json();
        assert!(can_obs::json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn kernel_telemetry_attributes_fault_fallbacks() {
        // A channel-fault layer with activity inside the run forces
        // FaultStack fallbacks; a crash restart edge forces NodeFault,
        // while a stuck-dominant window rides the kernel as a known word.
        let build = |fault: TxFault| {
            let mut sim = Simulator::new(BusSpeed::K500);
            sim.push_fault_layer(FaultModel::scripted(vec![1_000, 1_005]));
            sim.add_node(Node::new(
                "s",
                Box::new(PeriodicSender::new(frame(0x0C4, &[1]), 600, 0)),
            ));
            sim.add_node(Node::new("flaky", Box::new(SilentApplication)).with_tx_fault(fault));
            sim.run_packed(4_000);
            sim
        };
        let sim = build(TxFault::crash_restart(2_000, 2_050));
        let t = sim.kernel_telemetry();
        assert!(t.fallback_count(FallbackCause::FaultStack) > 0);
        assert!(t.fallback_count(FallbackCause::NodeFault) > 0);
        let sim = build(TxFault::stuck_dominant(2_000, 2_050));
        let t = sim.kernel_telemetry();
        assert_eq!(t.fallback_count(FallbackCause::NodeFault), 0);
    }

    #[test]
    fn packed_stretches_actually_pack() {
        // During an uncontended frame body the kernel must commit
        // multi-bit quanta, not fall back to lockstep.
        let mut sim = Simulator::new(BusSpeed::K500);
        sim.add_node(Node::new(
            "s",
            Box::new(PeriodicSender::new(frame(0x0C4, &[1, 2, 3, 4]), 500, 0)),
        ));
        sim.add_node(Node::new("r", Box::new(SilentApplication)));
        let mut quanta = 0u64;
        let mut max_quantum = 0u64;
        while sim.now().bits() < 5_000 {
            let n = sim.advance_packed(5_000 - sim.now().bits());
            quanta += 1;
            max_quantum = max_quantum.max(n);
        }
        assert!(
            max_quantum >= 16,
            "some stretch spans a large part of a word: {max_quantum}"
        );
        assert!(
            quanta < 1_500,
            "5000 bits resolve in far fewer quanta than bits: {quanta}"
        );
    }
}
