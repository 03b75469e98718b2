//! Fluent construction of [`Simulator`]s.
//!
//! Historically a simulator was configured through scattered mutators
//! (`set_recorder`, `set_fault_model`, `enable_trace`, …) interleaved with
//! `add_node` calls. [`SimBuilder`] replaces that with a single fluent
//! chain that states the whole configuration up front:
//!
//! ```
//! use can_sim::prelude::*;
//! use can_core::app::SilentApplication;
//!
//! let mut sim = SimBuilder::new(BusSpeed::K500)
//!     .trace()
//!     .node(Node::new("quiet", Box::new(SilentApplication)))
//!     .build();
//! sim.run(100);
//! assert_eq!(sim.trace().unwrap().len(), 100);
//! ```
//!
//! The old mutators went through a `#[deprecated]`-shim release cycle and
//! have been removed; the builder is the only configuration surface.

use can_core::BusSpeed;
use can_obs::{Journal, Recorder};

use crate::event::NodeId;
use crate::fault::{FaultModel, FaultStack};
use crate::node::Node;
use crate::sim::{SignalTrace, Simulator};
use crate::tap::FrameTap;

/// Fluent builder for [`Simulator`].
///
/// Nodes added via [`SimBuilder::node`] receive ids in call order,
/// starting at 0 — identical to sequential `add_node` calls. Use
/// [`SimBuilder::node_id`] (or count your `node` calls) when a scenario
/// needs an id before `build`.
#[must_use = "a SimBuilder does nothing until `build` is called"]
pub struct SimBuilder {
    sim: Simulator,
}

impl SimBuilder {
    /// Starts a builder for a simulator at the given bus speed.
    pub fn new(speed: BusSpeed) -> Self {
        SimBuilder {
            sim: Simulator::new(speed),
        }
    }

    /// Attaches a metrics recorder (see `can_obs::Recorder`). Without this
    /// the simulator keeps the default disabled recorder and every
    /// instrumentation site is a no-op.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.sim.install_recorder(recorder);
        self
    }

    /// Attaches a causal event journal (see `can_obs::Journal`). Without
    /// this the simulator keeps the default disabled journal and every
    /// emission site is a no-op.
    pub fn journal(mut self, journal: Journal) -> Self {
        self.sim.install_journal(journal);
        self
    }

    /// Appends one channel fault layer (EMI-style bus disturbance) on top
    /// of any layers added so far.
    pub fn fault(mut self, fault: FaultModel) -> Self {
        self.sim.push_fault_layer(fault);
        self
    }

    /// Installs a complete channel fault stack, replacing any layers added
    /// via [`SimBuilder::fault`].
    pub fn faults(mut self, faults: FaultStack) -> Self {
        self.sim.install_fault_stack(faults);
        self
    }

    /// Enables unbounded per-bit signal tracing (Fig. 6-style timelines).
    pub fn trace(mut self) -> Self {
        self.sim.install_trace(SignalTrace::default());
        self
    }

    /// Enables bounded signal tracing over the most recent `capacity`
    /// bits (for soak runs). Replaces any earlier trace configuration.
    pub fn trace_ring(mut self, capacity: usize) -> Self {
        self.sim.install_trace(SignalTrace::ring(capacity));
        self
    }

    /// Adds a node. Ids are assigned in call order starting at 0.
    pub fn node(mut self, node: Node) -> Self {
        self.sim.add_node(node);
        self
    }

    /// Attaches a passive frame tap (see [`FrameTap`]): a bus observer
    /// that sees every completed frame without occupying a node, driving
    /// the bus, or ACKing. Any number of taps can watch one bus; they are
    /// delivered to in attachment order.
    pub fn tap(mut self, tap: Box<dyn FrameTap>) -> Self {
        self.sim.install_tap(tap);
        self
    }

    /// The id the *next* [`SimBuilder::node`] call will receive.
    pub fn node_id(&self) -> NodeId {
        self.sim.node_count()
    }

    /// Finishes configuration and returns the simulator.
    pub fn build(self) -> Simulator {
        self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::app::{PeriodicSender, SilentApplication};
    use can_core::{CanFrame, CanId};

    #[test]
    fn builder_matches_manual_construction() {
        let frame = CanFrame::data_frame(CanId::from_raw(0x123), &[1, 2]).unwrap();

        let mut built = SimBuilder::new(BusSpeed::K500)
            .recorder(Recorder::enabled())
            .trace()
            .node(Node::new("s", Box::new(PeriodicSender::new(frame, 400, 0))))
            .node(Node::new("r", Box::new(SilentApplication)))
            .build();

        let mut manual = Simulator::new(BusSpeed::K500);
        manual.install_recorder(Recorder::enabled());
        manual.install_trace(SignalTrace::default());
        manual.add_node(Node::new("s", Box::new(PeriodicSender::new(frame, 400, 0))));
        manual.add_node(Node::new("r", Box::new(SilentApplication)));

        built.run(3_000);
        manual.run(3_000);
        assert_eq!(built.events(), manual.events());
        assert_eq!(
            built.trace().unwrap().snapshot(),
            manual.trace().unwrap().snapshot()
        );
        assert_eq!(
            built.recorder().snapshot_json(),
            manual.recorder().snapshot_json()
        );
    }

    #[test]
    fn node_id_predicts_assignment() {
        let builder = SimBuilder::new(BusSpeed::K125);
        assert_eq!(builder.node_id(), 0);
        let builder = builder.node(Node::new("a", Box::new(SilentApplication)));
        assert_eq!(builder.node_id(), 1);
        let sim = builder
            .node(Node::new("b", Box::new(SilentApplication)))
            .build();
        assert_eq!(sim.node_count(), 2);
        assert_eq!(sim.node(1).name(), "b");
    }

    #[test]
    fn trace_ring_via_builder() {
        let mut sim = SimBuilder::new(BusSpeed::K500)
            .fault(FaultModel::None)
            .faults(FaultStack::new())
            .trace_ring(4)
            .node(Node::new("n", Box::new(SilentApplication)))
            .build();
        sim.run(10);
        assert_eq!(sim.trace().unwrap().len(), 4, "ring keeps the last bits");
    }
}
