//! # can-core — CAN 2.0A data-link primitives
//!
//! This crate implements the protocol-level substrate of the MichiCAN
//! reproduction: everything ISO 11898-1 defines at the data-link layer that
//! the paper's attacks and defenses rely on, with no simulator or hardware
//! dependencies.
//!
//! The crate is deliberately `std`-light and allocation-conscious so the same
//! types can back both the discrete-event simulator (`can-sim`) and the
//! firmware-shaped defense logic (`michican`).
//!
//! ## Modules
//!
//! * [`level`] — the physical bus level ([`Level`]) and its wired-AND
//!   dominance rule.
//! * [`time`] — bit-time arithmetic: [`BitInstant`], [`BitDuration`],
//!   [`BusSpeed`].
//! * [`id`] — the 11-bit identifier [`CanId`] with CAN's inverted priority
//!   order.
//! * [`frame`] — [`CanFrame`] and its builder.
//! * [`crc`] — the CRC-15 used by CAN 2.0A.
//! * [`bitstream`] — frame serialization to the wire: field layout, bit
//!   stuffing and destuffing.
//! * [`counters`] — TEC/REC fault confinement ([`ErrorCounters`],
//!   [`ErrorState`]) exactly as exploited by bus-off attacks and MichiCAN's
//!   counterattack.
//! * [`errors`] — the five CAN error types and crate error values.
//! * [`packed`] — word-packed bus levels (64 wire bits per `u64`): the
//!   dominant-mask representation and wired-AND/mismatch primitives behind
//!   the packed simulation kernel.
//! * [`agent`] — the [`BitAgent`](agent::BitAgent) trait: bit-level bus
//!   access as granted by pin-multiplexed integrated controllers.
//! * [`app`] — the [`Application`](app::Application) trait: the frame-level
//!   interface classic CAN controllers expose to ECU software.
//! * [`watch`] — the shared wire front ends of bit-level agents:
//!   [`PositionTracker`](watch::PositionTracker), Algorithm 1's SOF hunt
//!   and destuffed position count (MichiCAN, the ghost attacker), and
//!   [`FrameWatch`](watch::FrameWatch), which also tracks fields and the
//!   frame tail (the CANflict-style attackers).
//!
//! ## Example
//!
//! ```
//! use can_core::prelude::*;
//!
//! # fn main() -> Result<(), can_core::errors::InvalidFrame> {
//! let frame = CanFrame::builder(CanId::new(0x173).unwrap())
//!     .data(&[0xDE, 0xAD, 0xBE, 0xEF])?
//!     .build();
//! let wire = can_core::bitstream::stuff_frame(&frame);
//! assert!(wire.bits.len() >= 44 + 4 * 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod app;
pub mod bitstream;
pub mod counters;
pub mod crc;
pub mod errors;
pub mod frame;
pub mod id;
pub mod level;
pub mod packed;
pub mod time;
pub mod watch;

pub use counters::{ErrorCounters, ErrorState};
pub use frame::CanFrame;
pub use id::CanId;
pub use level::Level;
pub use time::{BitDuration, BitInstant, BusSpeed};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::agent::BitAgent;
    pub use crate::app::Application;
    pub use crate::counters::{ErrorCounters, ErrorState};
    pub use crate::frame::{CanFrame, CanFrameBuilder};
    pub use crate::id::CanId;
    pub use crate::level::Level;
    pub use crate::time::{BitDuration, BitInstant, BusSpeed};
}
