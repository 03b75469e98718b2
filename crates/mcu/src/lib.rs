//! # mcu — MCU timing models for software-defined CAN defenses
//!
//! The paper's CPU-utilization evaluation (§V-D) is hardware-bound
//! (Arduino Due, NXP S32K144). This crate substitutes calibrated
//! cycle-cost models:
//!
//! * [`profile`] — per-MCU cycle costs ([`McuProfile`]), calibrated
//!   against the paper's reported loads and the public Due ISR-overhead
//!   measurement it cites;
//! * [`cost`] — idle/active/combined CPU utilization of the MichiCAN
//!   handler, per bus speed, scenario and FSM size, and the highest bus
//!   speed the handler sustains (why the Due tops out at 125 kbit/s while
//!   the S32K144 sustains 500 kbit/s).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod profile;

pub use cost::{
    active_utilization, combined_utilization, idle_utilization, max_sustainable_speed,
    DetectionMode, HANDLER_HEADROOM,
};
pub use profile::{McuProfile, ARDUINO_DUE, NXP_S32K144};
