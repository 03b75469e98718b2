//! # can-attacks — the paper's threat-model attackers and the adversary zoo
//!
//! Implements every adversary of the MichiCAN threat model (§III) as a
//! [`can_core::app::Application`] runnable on simulator nodes:
//!
//! * [`fabrication`] — spoofed frames with valid identifiers and attacker
//!   data, injected at a higher frequency than the legitimate sender.
//! * [`suspension`] — DoS attackers (Fig. 2): *traditional* (identifier
//!   0x000 blocks everyone), *targeted* (an identifier just below the
//!   victim's) and *random*.
//! * [`masquerade`] — suspension of a victim followed by fabrication of
//!   its traffic.
//! * [`toggling`] — Experiment 6's attacker alternating between two
//!   identifiers.
//!
//! Beyond the controller-level attackers, the *bit-level adversary zoo*
//! implements CANflict-style peripheral-conflict attackers as
//! [`can_core::agent::BitAgent`]s — they drive raw bus levels without a
//! CAN controller and therefore bypass error confinement entirely:
//!
//! * [`ghost`] — a CANnon-style bus-off attacker (§VI-A) driving the bus
//!   dominant from the bit after a victim frame's arbitration field.
//! * [`stuff_overwrite`] — flips a computed recessive stuff bit dominant
//!   to desynchronize every receiver on the bus.
//! * [`error_flag`] — drives a six-dominant-bit error flag mid-frame on a
//!   trigger identifier.
//! * [`truncator`] — forces a recessive-to-dominant conflict at a chosen
//!   field boundary (CRC delimiter, ACK delimiter, EOF), truncating the
//!   frame.
//! * [`adaptive`] — observes the defender's measured reaction latency and
//!   times its strike to race the counterattack window.
//!
//! The zoo is enumerable: [`registry`] maps stable attack names to
//! scenario constructors with per-attack parameter grids, so campaigns
//! (`experiments attacks --attacks all`) can sweep the whole threat space
//! without naming each attacker in code. [`can_core::watch`] holds the
//! two wire front ends the bit-level attackers build on: the ghost shares
//! MichiCAN's Algorithm-1 position tracker, and the other four share one
//! victim-armed [`can_core::watch::FrameWatch`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod error_flag;
pub mod fabrication;
pub mod ghost;
pub mod masquerade;
pub mod registry;
pub mod stuff_overwrite;
pub mod suspension;
pub mod toggling;
pub mod truncator;
mod victim;

pub use adaptive::AdaptiveRacer;
pub use error_flag::ErrorFlagInjector;
pub use fabrication::FabricationAttacker;
pub use ghost::GhostInjector;
pub use masquerade::MasqueradeAttacker;
pub use registry::{AttackAgent, AttackParams, AttackVariant};
pub use stuff_overwrite::StuffBitOverwrite;
pub use suspension::{DosKind, SuspensionAttacker};
pub use toggling::TogglingAttacker;
pub use truncator::{FrameTruncator, TruncateAt};
