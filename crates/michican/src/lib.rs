//! # michican — spoofing and DoS protection via integrated CAN controllers
//!
//! A from-scratch Rust reproduction of **MichiCAN** (Pesé et al., DSN
//! 2025): a distributed, backward-compatible, real-time defense that uses
//! the bit-level bus access of integrated CAN controllers to
//!
//! 1. **detect** spoofing and DoS attacks *during the arbitration phase*,
//!    by running a per-ECU finite state machine over the incoming
//!    identifier bits, and
//! 2. **prevent** them, by pulling `CAN_TX` dominant right after the
//!    identifier field — provoking bit/stuff errors that walk the
//!    attacker's transmit error counter to bus-off within 32 attempts.
//!
//! The crate is structured like the paper's five phases:
//!
//! * [`config`] — *Initial Configuration*: the ordered ECU list 𝔼 and
//!   full/light scenarios.
//! * [`detect`] — attack classes (Definitions IV.1–IV.3) and detection
//!   ranges 𝔻 (Definition IV.4).
//! * [`fsm`] — the detection FSM: a pruned, hash-consed binary decision
//!   diagram over the 11-bit identifier space.
//! * [`sync`] — *Synchronization*: the software sampling model (hard sync
//!   at SOF, 70 % sample point, fudge factor, oscillator drift).
//! * [`handler`] — *Detection* + *Pin Multiplexing* + *Prevention*:
//!   Algorithm 1 as a [`BitAgent`](can_core::agent::BitAgent).
//! * [`prevention`] — injection analysis and theoretical bus-off times
//!   (Table III).
//! * [`health`] — watchdog + graceful degradation: detect-only fallback,
//!   capped-backoff re-arm, bounded counterattack budget.
//! * [`codegen`] — per-ECU firmware source generation (C and Rust).
//! * [`analysis`] — exact decision-depth statistics and the deployment
//!   coverage/redundancy matrix (§IV-A's robustness argument).
//!
//! ## Quickstart
//!
//! ```
//! use michican::prelude::*;
//! use can_core::CanId;
//!
//! // OEM configuration: the legitimate identifiers on this bus.
//! let list = EcuList::from_raw(&[0x005, 0x0F0, 0x173, 0x260]);
//! // This ECU transmits 0x173 (index 2).
//! let fsm = DetectionFsm::for_ecu(&list, 2);
//! let defender = MichiCan::new(fsm);
//! assert!(defender.fsm().classify(CanId::new(0x064).unwrap()), "DoS id");
//! assert!(!defender.fsm().classify(CanId::new(0x0F0).unwrap()), "peer id");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codegen;
pub mod config;
pub mod detect;
pub mod fsm;
pub mod handler;
pub mod health;
pub mod prevention;
pub mod sync;

pub use config::{EcuList, Scenario};
pub use detect::{classify, detection_range, monitor_range, AttackClass, IdSet};
pub use fsm::{DetectionFsm, FsmCursor, FsmStep};
pub use handler::{MichiCan, MichiCanConfig, MichiCanStats};
pub use health::{DegradeReason, HealthConfig, HealthState, HealthStats, SupervisedMichiCan};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::config::{EcuList, Scenario};
    pub use crate::detect::{classify, detection_range, monitor_range, AttackClass, IdSet};
    pub use crate::fsm::DetectionFsm;
    pub use crate::handler::{MichiCan, MichiCanConfig};
    pub use crate::health::{HealthConfig, HealthState, SupervisedMichiCan};
    pub use crate::sync::SyncConfig;
}
