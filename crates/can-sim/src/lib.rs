//! # can-sim — a bit-level, discrete-event CAN bus simulator
//!
//! This crate is the hardware substitute of the MichiCAN reproduction: it
//! stands in for the paper's breadboard CAN bus (Arduino Dues, SN65HVD230
//! transceivers, PCAN replay) with a bit-synchronous simulation of the
//! wired-AND medium and fully ISO 11898-1-compliant controller state
//! machines.
//!
//! * [`parser`] — streaming receive-path frame parser.
//! * [`controller`] — the per-node protocol FSM: arbitration, transmission,
//!   error signalling (active/passive flags, delimiters, suspend), fault
//!   confinement, bus-off and recovery.
//! * [`node`] — ECU = controller + [`Application`](can_core::app::Application)
//!   \+ optional [`BitAgent`](can_core::agent::BitAgent) (the pin-multiplexed
//!   defense hook).
//! * [`sim`] — the two-phase tick driver, event log and signal trace.
//! * [`event`] — protocol events for metric extraction.
//! * [`measure`] — bus-off episodes and duration statistics (Table II).
//! * [`tap`] — passive [`FrameTap`] observers: N intrusion
//!   detectors watching one bus without N nodes.
//! * [`telemetry`] — always-on kernel self-telemetry: bits resolved per
//!   engine, packed-stretch statistics and fallback causes.
//!
//! ## Example: one frame between two ECUs
//!
//! ```
//! use can_core::app::{PeriodicSender, SilentApplication};
//! use can_core::{CanFrame, CanId};
//! use can_sim::prelude::*;
//!
//! let frame = CanFrame::data_frame(CanId::new(0x123).unwrap(), &[1, 2, 3]).unwrap();
//! let mut sim = SimBuilder::new(BusSpeed::K500)
//!     .node(Node::new("tx", Box::new(PeriodicSender::new(frame, 1_000, 0))))
//!     .node(Node::new("rx", Box::new(SilentApplication)))
//!     .build();
//! sim.run(500);
//! assert!(sim
//!     .events()
//!     .iter()
//!     .any(|e| matches!(e.kind, EventKind::FrameReceived { .. })));
//! ```
//!
//! Long runs go through [`Simulator::run_packed`], which is event-,
//! trace- and metrics-identical to [`Simulator::run`] but skips quiescent
//! stretches of bus time in closed form and resolves event-free stretches
//! of traffic word-at-a-time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod controller;
pub mod event;
pub mod fault;
pub mod measure;
pub mod node;
pub mod parser;
pub mod sim;
pub mod tap;
pub mod telemetry;

pub use builder::SimBuilder;
pub use controller::{Controller, ControllerConfig, StepOutput};
pub use event::{ErrorRole, Event, EventKind, NodeId};
pub use fault::{BurstParams, FaultModel, FaultStack, FaultyAgent, PinFaultConfig, TxFault};
pub use measure::{bus_off_episodes, BusOffEpisode, DurationStats};
pub use node::Node;
pub use parser::{RxEvent, RxParser};
pub use sim::{SignalTrace, Simulator};
pub use tap::FrameTap;
pub use telemetry::{FallbackCause, KernelTelemetry};

/// Everything needed to build and run a simulation:
/// `use can_sim::prelude::*;`.
pub mod prelude {
    pub use crate::builder::SimBuilder;
    pub use crate::event::{ErrorRole, Event, EventKind, NodeId};
    pub use crate::fault::{FaultModel, FaultStack, TxFault};
    pub use crate::node::Node;
    pub use crate::sim::{SignalTrace, Simulator};
    pub use crate::tap::FrameTap;
    pub use can_core::{BitDuration, BitInstant, BusSpeed, Level};
}
