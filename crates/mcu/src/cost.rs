//! CPU-utilization analysis of the MichiCAN handler (paper §V-D).
//!
//! The handler runs once per bit time; its CPU utilization is the handler
//! execution time divided by the nominal bit time. Three loads are
//! distinguished, as in the paper:
//!
//! * **idle load** — only the SOF-hunting path runs (bus idle),
//! * **active load** — the full frame path runs (frame on the bus),
//! * **combined load** — the average, weighted by the observed bus
//!   utilization.

use can_core::BusSpeed;

use crate::profile::McuProfile;

/// Which detection variant an ECU runs (paper §IV-A, §V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionMode {
    /// Full detection range 𝔻 via the table FSM.
    Full {
        /// FSM state count (affects table-walk cost).
        fsm_nodes: usize,
    },
    /// Light-scenario lower half: spoofing-only comparison against the own
    /// identifier.
    SpoofOnly,
}

/// Handler execution cost on the *active* (frame) path, in cycles.
fn active_cycles(profile: &McuProfile, mode: DetectionMode) -> f64 {
    let detection = match mode {
        DetectionMode::Full { fsm_nodes } => {
            let nodes = fsm_nodes.max(2) as f64;
            profile.fsm_step_base_cycles + profile.fsm_step_log_cycles * nodes.log2()
        }
        DetectionMode::SpoofOnly => profile.spoof_compare_cycles,
    };
    profile.isr_overhead_cycles + profile.gpio_read_cycles + profile.frame_path_cycles + detection
}

/// Handler execution cost on the *idle* (SOF-hunting) path, in cycles.
fn idle_cycles(profile: &McuProfile) -> f64 {
    profile.isr_overhead_cycles + profile.gpio_read_cycles + profile.idle_path_cycles
}

/// Active-path CPU utilization at `speed` (1.0 = one full core).
pub fn active_utilization(profile: &McuProfile, speed: BusSpeed, mode: DetectionMode) -> f64 {
    active_cycles(profile, mode) / profile.cycles_per_bit(speed.bit_time_ns())
}

/// Idle-path CPU utilization at `speed`.
pub fn idle_utilization(profile: &McuProfile, speed: BusSpeed) -> f64 {
    idle_cycles(profile) / profile.cycles_per_bit(speed.bit_time_ns())
}

/// Combined load given the fraction of bit times with a frame on the bus
/// (the paper's ≈ 40 % observed bus load).
pub fn combined_utilization(
    profile: &McuProfile,
    speed: BusSpeed,
    mode: DetectionMode,
    bus_busy_fraction: f64,
) -> f64 {
    active_utilization(profile, speed, mode) * bus_busy_fraction
        + idle_utilization(profile, speed) * (1.0 - bus_busy_fraction)
}

/// Largest share of one bit time the handler may take: the rest is left
/// for interrupt jitter and the application (§V-D).
pub const HANDLER_HEADROOM: f64 = 0.75;

/// The fastest bus speed at which the handler takes at most
/// [`HANDLER_HEADROOM`] of a bit time, or `None` if no speed is that slow.
pub fn max_sustainable_speed(profile: &McuProfile, mode: DetectionMode) -> Option<BusSpeed> {
    BusSpeed::ALL
        .iter()
        .rev()
        .copied()
        .find(|&speed| active_utilization(profile, speed, mode) <= HANDLER_HEADROOM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ARDUINO_DUE;

    /// A representative full-scenario FSM size for a production bus
    /// (ECU_N of a ~50-message matrix lands near 128 hash-consed states).
    const TYPICAL_FSM_NODES: usize = 128;

    #[test]
    fn due_doubles_at_250k() {
        // Paper: "a 125 kbit/s bus averages 40 % CPU load, implying an
        // 80 % load for a 250 kbit/s bus".
        let at_125 = active_utilization(
            &ARDUINO_DUE,
            BusSpeed::K125,
            DetectionMode::Full {
                fsm_nodes: TYPICAL_FSM_NODES,
            },
        );
        let at_250 = active_utilization(
            &ARDUINO_DUE,
            BusSpeed::K250,
            DetectionMode::Full {
                fsm_nodes: TYPICAL_FSM_NODES,
            },
        );
        assert!((at_250 / at_125 - 2.0).abs() < 1e-9);
        assert!(at_250 > 0.75, "≈ 80 % at 250 kbit/s");
    }

    #[test]
    fn idle_load_is_well_below_active() {
        for speed in [BusSpeed::K125, BusSpeed::K500] {
            let idle = idle_utilization(&ARDUINO_DUE, speed);
            let active =
                active_utilization(&ARDUINO_DUE, speed, DetectionMode::Full { fsm_nodes: 64 });
            assert!(idle < active * 0.6, "idle {idle:.3} vs active {active:.3}");
        }
    }

    #[test]
    fn combined_load_interpolates() {
        let mode = DetectionMode::Full { fsm_nodes: 64 };
        let idle = combined_utilization(&ARDUINO_DUE, BusSpeed::K125, mode, 0.0);
        let busy = combined_utilization(&ARDUINO_DUE, BusSpeed::K125, mode, 1.0);
        let mid = combined_utilization(&ARDUINO_DUE, BusSpeed::K125, mode, 0.4);
        assert!((idle - idle_utilization(&ARDUINO_DUE, BusSpeed::K125)).abs() < 1e-12);
        assert!((busy - active_utilization(&ARDUINO_DUE, BusSpeed::K125, mode)).abs() < 1e-12);
        assert!(idle < mid && mid < busy);
    }

    #[test]
    fn fsm_size_increases_load() {
        // Paper: "A larger FSM increases clock cycle usage."
        let small = active_utilization(
            &ARDUINO_DUE,
            BusSpeed::K125,
            DetectionMode::Full { fsm_nodes: 16 },
        );
        let large = active_utilization(
            &ARDUINO_DUE,
            BusSpeed::K125,
            DetectionMode::Full { fsm_nodes: 1024 },
        );
        assert!(large > small);
    }
}
