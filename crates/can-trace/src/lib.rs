//! # can-trace — CAN captures, timelines and traffic statistics
//!
//! The paper instruments its testbed with a logic analyzer and PCAN
//! captures; this crate provides the software equivalents:
//!
//! * [`candump`] — SocketCAN candump-format logs (read/write);
//! * [`timeline`] — per-node activity reconstruction and ASCII/CSV
//!   rendering (the Fig. 6 logic-analyzer view);
//! * [`stats`] — per-identifier rate and inter-arrival statistics;
//! * [`vcd`] — Value Change Dump export for GTKWave/PulseView inspection;
//! * [`chrometrace`] — Chrome-trace (Perfetto) export of `can-obs`
//!   causal event journals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candump;
pub mod chrometrace;
pub mod stats;
pub mod timeline;
pub mod vcd;

pub use candump::{parse_log, write_log, LogEntry};
pub use chrometrace::chrome_trace_json;
pub use stats::{IdStats, TrafficStats};
pub use timeline::{Activity, Span, Timeline, TimelineEvent};
pub use vcd::{write_vcd, VcdSignal};
