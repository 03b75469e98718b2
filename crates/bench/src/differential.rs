//! Lockstep vs packed differential harness.
//!
//! The word-packed bus kernel ([`Simulator::run_packed`]) promises *byte
//! identity*: the same events, signal trace, metrics snapshot and
//! scenario outcome as the bit-by-bit lockstep reference, only faster.
//! This module turns that promise into a reusable check: build the same
//! scenario twice, drive one copy per mode, and compare every observable
//! surface against the lockstep reference.
//!
//! `tests/differential_fast_forward.rs` runs the check over every scenario
//! family (Table II, the fault campaign, the multi-attacker scan,
//! ParkSense); CI runs a reduced slice of the same comparisons on every
//! push.

use can_core::Level;
use can_obs::Recorder;
use can_sim::Simulator;

/// Every observable surface of a finished simulation, normalized for
/// byte-level comparison. `PartialEq` on the whole struct is the
/// equivalence check; [`compare`](SimFingerprint::compare) names the first
/// diverging surface for a useful failure message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFingerprint {
    /// Final simulation clock in bits.
    pub now_bits: u64,
    /// Busy (dominant-containing) bits accumulated for load accounting.
    pub busy_bits: u64,
    /// `observed_bus_load()` as raw IEEE-754 bits (exact, not approximate).
    pub bus_load_bits: u64,
    /// The full event log, one Debug-formatted line per event.
    pub events: Vec<String>,
    /// Total bits recorded by the signal trace, if tracing was on.
    pub trace_recorded: Option<u64>,
    /// The retained trace window, if tracing was on.
    pub trace: Option<Vec<Level>>,
    /// The recorder's canonical JSON snapshot.
    pub metrics_json: String,
}

/// Extracts the comparable surface of `sim` plus the metrics accumulated
/// in `recorder`.
pub fn fingerprint(sim: &Simulator, recorder: &Recorder) -> SimFingerprint {
    SimFingerprint {
        now_bits: sim.now().bits(),
        busy_bits: sim.busy_bits(),
        bus_load_bits: sim.observed_bus_load().to_bits(),
        events: sim
            .events()
            .iter()
            .map(|e| format!("{} n{} {:?}", e.at.bits(), e.node, e.kind))
            .collect(),
        trace_recorded: sim.trace().map(|t| t.recorded()),
        trace: sim.trace().map(|t| t.snapshot()),
        metrics_json: recorder.snapshot_json(),
    }
}

impl SimFingerprint {
    /// Compares two fingerprints surface by surface; `Err` names the first
    /// divergence (`self` is the lockstep reference, `other` the packed
    /// run).
    pub fn compare(&self, other: &SimFingerprint) -> Result<(), String> {
        let mode = "packed";
        if self.now_bits != other.now_bits {
            return Err(format!(
                "clock diverged: lockstep {} vs {mode} {}",
                self.now_bits, other.now_bits
            ));
        }
        if self.busy_bits != other.busy_bits {
            return Err(format!(
                "busy-bit accounting diverged: lockstep {} vs {mode} {}",
                self.busy_bits, other.busy_bits
            ));
        }
        if self.bus_load_bits != other.bus_load_bits {
            return Err(format!(
                "observed bus load diverged: lockstep {} vs {mode} {}",
                f64::from_bits(self.bus_load_bits),
                f64::from_bits(other.bus_load_bits)
            ));
        }
        if self.events != other.events {
            let at = self
                .events
                .iter()
                .zip(&other.events)
                .position(|(a, b)| a != b);
            return Err(match at {
                Some(i) => format!(
                    "event logs diverged at index {i}: lockstep `{}` vs {mode} `{}`",
                    self.events[i], other.events[i]
                ),
                None => format!(
                    "event logs diverged in length: lockstep {} vs {mode} {}",
                    self.events.len(),
                    other.events.len()
                ),
            });
        }
        if self.trace_recorded != other.trace_recorded {
            return Err(format!(
                "trace recorded-bit counters diverged: lockstep {:?} vs {mode} {:?}",
                self.trace_recorded, other.trace_recorded
            ));
        }
        if self.trace != other.trace {
            return Err(format!(
                "retained trace windows diverged (lockstep vs {mode})"
            ));
        }
        if self.metrics_json != other.metrics_json {
            return Err(format!("metrics snapshots diverged (lockstep vs {mode})"));
        }
        Ok(())
    }
}

/// Builds the same scenario twice via `build` (handed a fresh enabled
/// [`Recorder`] each time), runs one copy lockstep and one under the
/// packed bus kernel for `bits`, and returns `Err` naming the first
/// diverging surface.
///
/// The closure must be a pure constructor: any seed or configuration it
/// captures is shared by all copies, so a divergence can only come from
/// the execution mode.
pub fn check_equivalence<F>(build: F, bits: u64) -> Result<(), String>
where
    F: Fn(Recorder) -> Simulator,
{
    let lock_recorder = Recorder::enabled();
    let mut lockstep = build(lock_recorder.clone());
    lockstep.run(bits);
    let reference = fingerprint(&lockstep, &lock_recorder);

    let packed_recorder = Recorder::enabled();
    let mut packed = build(packed_recorder.clone());
    packed.run_packed(bits);
    reference.compare(&fingerprint(&packed, &packed_recorder))
}

/// Compares two scenario outcomes (anything `Debug`) produced by a
/// lockstep and a packed run of the same entry point; `Err` carries both
/// renderings.
pub fn check_outcome<T: std::fmt::Debug>(
    label: &str,
    lockstep: &T,
    packed: &T,
) -> Result<(), String> {
    let a = format!("{lockstep:#?}");
    let b = format!("{packed:#?}");
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{label}: outcomes diverged\n--- lockstep ---\n{a}\n--- packed ---\n{b}"
        ))
    }
}
