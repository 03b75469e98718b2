//! # bench — the MichiCAN evaluation harness
//!
//! Shared scenario builders and analysis used by the `experiments` binary
//! (which regenerates every table and figure of the paper) and by the
//! `perfbase` binary (the simulator throughput rows that CI gates).
//!
//! * [`scenarios`] — the six Table II experiments, the multi-attacker
//!   sweep and the on-vehicle ParkSense test;
//! * [`table1`] — the qualitative countermeasure comparison;
//! * [`detection`] — the random-FSM detection-latency sweep (§V-B);
//! * [`cpu`] — CPU-utilization tables (§V-D);
//! * [`busload`] — MichiCAN vs Parrot bus-load comparison (§V-E);
//! * [`idsbench`] — the timing-IDS bake-off: the `can_ids::registry`
//!   detector grid attached as passive taps to a defense × scenario
//!   cell grid, plus the focused IDS-vs-MichiCAN flood duel (extension);
//! * [`availability`] — benign-traffic delivery under persistent attack,
//!   healthy vs undefended vs defended (extension);
//! * [`campaign`] — the seeded fault-injection campaign grid (robustness
//!   extension);
//! * [`differential`] — the lockstep-vs-packed equivalence harness
//!   backing the byte-identity guarantee of `Simulator::run_packed`;
//! * [`runner`] — the parallel deterministic experiment engine the grid
//!   artifacts (campaign, FSM sweep, Table II, multi-attacker scan) fan
//!   out on;
//! * [`obs`] — the serial observability probe backing
//!   `experiments … --metrics-out`;
//! * [`sweep`] — the crash-tolerant campaign sweep engine: journaled
//!   checkpoint/resume, shard supervision with per-cell timeout and
//!   retry, and panic quarantine (`experiments sweep`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attackzoo;
pub mod availability;
pub mod busload;
pub mod campaign;
pub mod cpu;
pub mod detection;
pub mod differential;
pub mod idsbench;
pub mod obs;
pub mod runner;
pub mod scenarios;
pub mod sweep;
pub mod table1;
