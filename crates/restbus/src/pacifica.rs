//! The on-vehicle test scenario: 2017 Chrysler Pacifica Hybrid ParkSense
//! (paper §V-F).
//!
//! The paper extracts the park-assist identifiers from a public
//! communication matrix (OpenDBC); the lowest ParkSense-relevant
//! identifier is `0x260`, and the attack injects `0x25F` — one priority
//! step above it — from the OBD-II port. This module ships a compact
//! ParkSense-centric matrix with those exact identifiers plus the
//! surrounding chassis traffic the experiment rides on.

use can_core::{BusSpeed, CanId};

use crate::matrix::{CommMatrix, Message};

/// The lowest CAN identifier relevant to ParkSense (paper §V-F).
pub const PARKSENSE_ID: CanId = CanId::from_raw(0x260);

/// The identifier the paper's targeted DoS injects (one below ParkSense).
pub const ATTACK_ID: CanId = CanId::from_raw(0x25F);

fn msg(id: u16, period_ms: u32, dlc: u8, sender: &str, name: &str) -> Message {
    Message {
        id: CanId::from_raw(id),
        period_ms,
        dlc,
        sender: sender.to_string(),
        name: name.to_string(),
    }
}

/// The Pacifica chassis-bus excerpt used by the on-vehicle experiment.
///
/// Identifiers follow the public OpenDBC Chrysler matrix style: engine and
/// brake traffic below 0x200, ParkSense at 0x260 plus its status
/// companions, body traffic above 0x300.
pub fn pacifica_matrix(speed: BusSpeed) -> CommMatrix {
    CommMatrix::new(
        "pacifica-2017/chassis",
        speed,
        vec![
            msg(0x0A4, 10, 8, "ecm", "ENGINE_TORQUE"),
            msg(0x0D0, 10, 8, "esp", "BRAKE_PRESSURE"),
            msg(0x0F1, 20, 8, "epas", "STEERING_ANGLE"),
            msg(0x11C, 20, 8, "ecm", "ACCEL_PEDAL"),
            msg(0x140, 20, 8, "tcm", "GEAR_STATE"),
            msg(0x1A8, 50, 8, "esp", "WHEEL_SPEEDS"),
            msg(0x260, 50, 8, "parksense", "PARKSENSE_STATUS"),
            msg(0x270, 50, 8, "parksense", "PARKSENSE_DISTANCE_FRONT"),
            msg(0x271, 50, 8, "parksense", "PARKSENSE_DISTANCE_REAR"),
            msg(0x2D2, 100, 8, "bcm", "DOOR_STATE"),
            msg(0x31A, 100, 8, "bcm", "EXTERIOR_LIGHTS"),
            msg(0x3E6, 200, 8, "hvac", "CLIMATE_STATE"),
            msg(0x5A0, 500, 4, "ipc", "ODOMETER"),
            msg(0x620, 1000, 8, "bcm", "VIN_BROADCAST"),
        ],
    )
}

/// ParkSense availability model: the feature shows "PARKSENSE UNAVAILABLE
/// SERVICE REQUIRED" once its status message has been absent longer than
/// `timeout_ms` (the dashboard behaviour the paper observed).
#[derive(Debug, Clone)]
pub struct ParkSense {
    timeout_ms: f64,
    last_status_ms: Option<f64>,
}

impl ParkSense {
    /// Creates the model with the given status timeout.
    pub fn new(timeout_ms: f64) -> Self {
        ParkSense {
            timeout_ms,
            last_status_ms: None,
        }
    }

    /// Default model: three missed 50 ms status periods trip the fault.
    pub fn with_default_timeout() -> Self {
        Self::new(150.0)
    }

    /// Feed a received frame.
    pub fn on_frame(&mut self, id: CanId, now_ms: f64) {
        if id == PARKSENSE_ID {
            self.last_status_ms = Some(now_ms);
        }
    }

    /// Poll availability at `now_ms`.
    pub fn is_available(&self, now_ms: f64) -> bool {
        match self.last_status_ms {
            None => now_ms < self.timeout_ms,
            Some(last) => now_ms - last <= self.timeout_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_id_is_one_below_parksense() {
        assert_eq!(ATTACK_ID.raw() + 1, PARKSENSE_ID.raw());
        assert!(ATTACK_ID.outranks(PARKSENSE_ID));
    }

    #[test]
    fn matrix_contains_parksense_cluster() {
        let m = pacifica_matrix(BusSpeed::K500);
        assert!(m.message(PARKSENSE_ID).is_some());
        assert_eq!(m.message(PARKSENSE_ID).unwrap().sender, "parksense");
        assert!(m.message(ATTACK_ID).is_none(), "0x25F is NOT legitimate");
        assert!(m.predicted_bus_load() < 0.5);
    }

    #[test]
    fn parksense_times_out_without_status() {
        let mut ps = ParkSense::with_default_timeout();
        ps.on_frame(PARKSENSE_ID, 0.0);
        assert!(ps.is_available(100.0));
        assert!(!ps.is_available(151.0));
    }

    #[test]
    fn parksense_recovers_when_status_returns() {
        let mut ps = ParkSense::with_default_timeout();
        ps.on_frame(PARKSENSE_ID, 0.0);
        assert!(!ps.is_available(200.0));
        ps.on_frame(PARKSENSE_ID, 210.0);
        assert!(ps.is_available(220.0));
    }

    #[test]
    fn other_frames_do_not_feed_the_watchdog() {
        let mut ps = ParkSense::with_default_timeout();
        ps.on_frame(PARKSENSE_ID, 0.0);
        ps.on_frame(CanId::from_raw(0x0A4), 100.0);
        assert!(!ps.is_available(200.0));
    }
}
