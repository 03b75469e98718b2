//! Kernel self-telemetry: how the simulator spent its bits.
//!
//! The observability [`Registry`](can_obs::Registry) records what happened
//! *on the bus* and is required to be byte-identical across the lockstep
//! and packed kernels. Telemetry about the kernels themselves
//! — how many bits each engine resolved, how long the packed stretches
//! were, which seam refused a horizon — is *by construction* different per
//! [`SimMode`](crate::measure::SimMode), so it lives here, outside the
//! registry and outside every differential fingerprint. It is always on:
//! the accounting is a handful of integer adds per quantum (one per bit on
//! the lockstep path), so every throughput the `perfbase` binary (crate
//! `bench`) gates already includes it.
//!
//! [`KernelTelemetry`] feeds the `kernel_telemetry` section of
//! `BENCH_sim.json`, which `perfbase` writes, via
//! [`KernelTelemetry::to_json`].

use std::fmt::Write as _;

use can_obs::Histogram;

use crate::controller::StretchRole;

/// Why the packed engine fell back to lockstep for a quantum: the first
/// seam (in evaluation order) that refused to grant a multi-bit horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackCause {
    /// The fault stack has activity due at or before the current bit.
    FaultStack,
    /// A node-level fault seam (crash window / restart edge) is due.
    NodeFault,
    /// A node's application poll is due this bit.
    AppPoll,
    /// A node's attack/defense agent limited its drive promise.
    AgentDrive,
    /// A node's controller FSM state cannot be stretched.
    Controller,
    /// All seams agreed but the common horizon was under 2 bits.
    ShortCap,
    /// The wired-AND of the planned words shortened the stretch to zero
    /// (a dominant bit lands on the first bit of the window).
    PostAndShorten,
    /// A receiver's dry-run disagreed with the planned window (stuff
    /// insertion or field boundary inside the window).
    ReceiverDryRun,
}

impl FallbackCause {
    /// Every cause, in the order counters are reported.
    pub const ALL: [FallbackCause; 8] = [
        FallbackCause::FaultStack,
        FallbackCause::NodeFault,
        FallbackCause::AppPoll,
        FallbackCause::AgentDrive,
        FallbackCause::Controller,
        FallbackCause::ShortCap,
        FallbackCause::PostAndShorten,
        FallbackCause::ReceiverDryRun,
    ];

    /// Stable snake_case name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FallbackCause::FaultStack => "fault_stack",
            FallbackCause::NodeFault => "node_fault",
            FallbackCause::AppPoll => "app_poll",
            FallbackCause::AgentDrive => "agent_drive",
            FallbackCause::Controller => "controller",
            FallbackCause::ShortCap => "short_cap",
            FallbackCause::PostAndShorten => "post_and_shorten",
            FallbackCause::ReceiverDryRun => "receiver_dry_run",
        }
    }

    fn index(self) -> usize {
        match self {
            FallbackCause::FaultStack => 0,
            FallbackCause::NodeFault => 1,
            FallbackCause::AppPoll => 2,
            FallbackCause::AgentDrive => 3,
            FallbackCause::Controller => 4,
            FallbackCause::ShortCap => 5,
            FallbackCause::PostAndShorten => 6,
            FallbackCause::ReceiverDryRun => 7,
        }
    }
}

/// Stretch-length histogram buckets (bits); stretches are capped at the
/// 64-bit word width, so the last bound is exact.
const STRETCH_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

/// Stable labels for the per-role bit accounting, indexed like
/// `role_index`.
const ROLE_LABELS: [&str; 7] = [
    "down",
    "transmit",
    "receive",
    "passive",
    "integrating",
    "bus_off",
    "signal",
];

fn role_index(role: StretchRole) -> usize {
    match role {
        StretchRole::Down => 0,
        StretchRole::Transmit { .. } => 1,
        StretchRole::Receive => 2,
        StretchRole::Passive => 3,
        StretchRole::Integrating { .. } => 4,
        StretchRole::BusOff => 5,
        StretchRole::Signal { .. } => 6,
    }
}

/// Per-simulator counters for how the three engines resolved bus time.
/// Always collected; read through [`Simulator::kernel_telemetry`]
/// (`crate::Simulator::kernel_telemetry`).
#[derive(Debug, Clone)]
pub struct KernelTelemetry {
    lockstep_bits: u64,
    skipped_bits: u64,
    skipped_gaps: u64,
    packed_bits: u64,
    stretches: u64,
    stretch_len: Histogram,
    role_bits: [u64; 7],
    fallbacks: [u64; 8],
    parses_run: u64,
    parses_copied: u64,
}

impl Default for KernelTelemetry {
    fn default() -> Self {
        KernelTelemetry {
            lockstep_bits: 0,
            skipped_bits: 0,
            skipped_gaps: 0,
            packed_bits: 0,
            stretches: 0,
            stretch_len: Histogram::new(STRETCH_BUCKETS),
            role_bits: [0; 7],
            fallbacks: [0; 8],
            parses_run: 0,
            parses_copied: 0,
        }
    }
}

impl KernelTelemetry {
    /// Bits resolved one at a time by the lockstep engine (including
    /// packed quanta that fell back).
    pub fn lockstep_bits(&self) -> u64 {
        self.lockstep_bits
    }

    /// Bits skipped wholesale across idle gaps by the packed kernel.
    pub fn skipped_bits(&self) -> u64 {
        self.skipped_bits
    }

    /// Bits resolved word-at-a-time by the packed engine.
    pub fn packed_bits(&self) -> u64 {
        self.packed_bits
    }

    /// Number of committed packed stretches.
    pub fn stretches(&self) -> u64 {
        self.stretches
    }

    /// Histogram of committed stretch lengths in bits.
    pub fn stretch_lengths(&self) -> &Histogram {
        &self.stretch_len
    }

    /// Packed bits by the role each node played, as
    /// `(label, node-bits)` pairs — the sum is `packed_bits × nodes`.
    pub fn role_bits(&self) -> [(&'static str, u64); 7] {
        let mut out = [("", 0); 7];
        for (i, label) in ROLE_LABELS.iter().enumerate() {
            out[i] = (label, self.role_bits[i]);
        }
        out
    }

    /// Packed-engine fallbacks by cause, as `(label, count)` pairs in
    /// [`FallbackCause::ALL`] order.
    pub fn fallbacks(&self) -> [(&'static str, u64); 8] {
        let mut out = [("", 0); 8];
        for (i, cause) in FallbackCause::ALL.iter().enumerate() {
            out[i] = (cause.label(), self.fallbacks[i]);
        }
        out
    }

    /// Count of fallbacks attributed to `cause`.
    pub fn fallback_count(&self, cause: FallbackCause) -> u64 {
        self.fallbacks[cause.index()]
    }

    /// Receiver parser dry runs the packed kernel ran: one per group of
    /// receivers in equal parser states, per stretch attempt.
    pub fn parses_run(&self) -> u64 {
        self.parses_run
    }

    /// Nodes (receivers, and transmitters for their monitor parser) that
    /// took a group leader's parse instead of running their own.
    pub fn parses_copied(&self) -> u64 {
        self.parses_copied
    }

    pub(crate) fn count_parse_run(&mut self) {
        self.parses_run += 1;
    }

    pub(crate) fn count_parse_copied(&mut self) {
        self.parses_copied += 1;
    }

    pub(crate) fn count_lockstep_bit(&mut self) {
        self.lockstep_bits += 1;
    }

    pub(crate) fn count_skip(&mut self, gap: u64) {
        self.skipped_bits += gap;
        self.skipped_gaps += 1;
    }

    pub(crate) fn count_fallback(&mut self, cause: FallbackCause) {
        self.fallbacks[cause.index()] += 1;
    }

    pub(crate) fn count_stretch(&mut self, n: u64, roles: impl IntoIterator<Item = StretchRole>) {
        self.packed_bits += n;
        self.stretches += 1;
        self.stretch_len.observe(n);
        for role in roles {
            self.role_bits[role_index(role)] += n;
        }
    }

    /// Renders the telemetry as one compact JSON object (no trailing
    /// newline) for embedding in benchmark reports.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"lockstep_bits\":{},\"skipped_bits\":{},\"skipped_gaps\":{},\
             \"packed_bits\":{},\"stretches\":{}",
            self.lockstep_bits,
            self.skipped_bits,
            self.skipped_gaps,
            self.packed_bits,
            self.stretches
        );
        let _ = write!(
            out,
            ",\"stretch_len\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.stretch_len.count(),
            self.stretch_len.sum(),
            self.stretch_len.min().unwrap_or(0),
            self.stretch_len.max().unwrap_or(0)
        );
        let counts = self.stretch_len.bucket_counts();
        for (i, bound) in STRETCH_BUCKETS.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}[{bound},{}]", counts[i]);
        }
        let _ = write!(out, ",[\"inf\",{}]]}}", counts[STRETCH_BUCKETS.len()]);
        out.push_str(",\"role_bits\":{");
        for (i, (label, bits)) in self.role_bits().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{label}\":{bits}");
        }
        out.push_str("},\"fallbacks\":{");
        for (i, (label, count)) in self.fallbacks().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{label}\":{count}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates_per_engine() {
        let mut t = KernelTelemetry::default();
        t.count_lockstep_bit();
        t.count_lockstep_bit();
        t.count_skip(100);
        t.count_stretch(48, [StretchRole::Receive, StretchRole::Passive]);
        t.count_fallback(FallbackCause::AppPoll);
        t.count_fallback(FallbackCause::AppPoll);
        t.count_fallback(FallbackCause::ReceiverDryRun);
        assert_eq!(t.lockstep_bits(), 2);
        assert_eq!(t.skipped_bits(), 100);
        assert_eq!(t.skipped_gaps, 1);
        assert_eq!(t.packed_bits(), 48);
        assert_eq!(t.stretches(), 1);
        assert_eq!(t.stretch_lengths().max(), Some(48));
        assert_eq!(t.fallback_count(FallbackCause::AppPoll), 2);
        assert_eq!(t.fallback_count(FallbackCause::ReceiverDryRun), 1);
        assert_eq!(t.fallback_count(FallbackCause::FaultStack), 0);
        let roles: std::collections::BTreeMap<_, _> = t.role_bits().into_iter().collect();
        assert_eq!(roles["receive"], 48);
        assert_eq!(roles["passive"], 48);
        assert_eq!(roles["transmit"], 0);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let mut t = KernelTelemetry::default();
        t.count_stretch(7, [StretchRole::Transmit { word: 0 }]);
        t.count_fallback(FallbackCause::ShortCap);
        let json = t.to_json();
        let doc = can_obs::json::parse(&json).expect("telemetry JSON parses");
        assert_eq!(doc.get("packed_bits").and_then(|v| v.as_u64()), Some(7));
        let field = |path: [&str; 2]| {
            doc.get(path[0])
                .and_then(|v| v.get(path[1]))
                .and_then(|v| v.as_u64())
        };
        assert_eq!(field(["fallbacks", "short_cap"]), Some(1));
        assert_eq!(field(["fallbacks", "fault_stack"]), Some(0));
        assert_eq!(field(["role_bits", "transmit"]), Some(7));
    }
}
