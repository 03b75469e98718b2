//! MCU cycle-cost profiles.
//!
//! Each profile captures the clock speed and the per-operation cycle costs
//! of MichiCAN's interrupt handler on that MCU. The Arduino Due profile is
//! calibrated against the paper's measurements (§V-D: ≈ 40 % CPU at
//! 125 kbit/s full scenario, ≈ 30 % light) and the public DUEZoo ISR
//! overhead measurement the paper cites (\[66\]); the NXP S32K144 profile
//! against the paper's 44 % at 500 kbit/s.

/// Cycle costs of one MCU running the MichiCAN handler.
#[derive(Debug, Clone, PartialEq)]
pub struct McuProfile {
    /// Display name.
    pub name: &'static str,
    /// Core clock in hertz.
    pub clock_hz: u64,
    /// Interrupt entry + exit overhead in cycles (vector fetch, stacking,
    /// unstacking). Dominated by slow flash wait states on the Due.
    pub isr_overhead_cycles: f64,
    /// Direct PIO register read of `CAN_RX` (Algorithm 1 line 2).
    pub gpio_read_cycles: f64,
    /// Per-bit bookkeeping on the frame path: counter increments, stuff
    /// tracking, branch logic (lines 3–19).
    pub frame_path_cycles: f64,
    /// Per-bit bookkeeping on the idle path: SOF hunting only (lines
    /// 24–31).
    pub idle_path_cycles: f64,
    /// Base cost of one FSM step (table fetch + branch).
    pub fsm_step_base_cycles: f64,
    /// Additional FSM cost per doubling of the state count (cache/flash
    /// pressure of larger tables).
    pub fsm_step_log_cycles: f64,
    /// Cost of the spoofing-only comparison used by light-scenario lower-
    /// half ECUs (shift + compare against the own identifier).
    pub spoof_compare_cycles: f64,
}

/// Atmel SAM3X8E (Arduino Due), 84 MHz Cortex-M3 — the paper's primary
/// platform.
pub const ARDUINO_DUE: McuProfile = McuProfile {
    name: "Arduino Due (SAM3X8E, 84 MHz)",
    clock_hz: 84_000_000,
    // DUEZoo isrperf: ~1 µs to enter and exit a pin ISR on the Due.
    isr_overhead_cycles: 84.0,
    gpio_read_cycles: 8.0,
    frame_path_cycles: 92.0,
    idle_path_cycles: 22.0,
    fsm_step_base_cycles: 29.0,
    fsm_step_log_cycles: 8.0,
    spoof_compare_cycles: 18.0,
};

/// NXP S32K144, 112 MHz Cortex-M4F — the paper's production-grade
/// replication platform (§VI-B).
pub const NXP_S32K144: McuProfile = McuProfile {
    name: "NXP S32K144 (112 MHz)",
    clock_hz: 112_000_000,
    isr_overhead_cycles: 24.0,
    gpio_read_cycles: 4.0,
    frame_path_cycles: 41.0,
    idle_path_cycles: 10.0,
    fsm_step_base_cycles: 9.0,
    fsm_step_log_cycles: 3.0,
    spoof_compare_cycles: 6.0,
};

impl McuProfile {
    /// Cycles available within one nominal bit time at `bit_time_ns`.
    pub fn cycles_per_bit(&self, bit_time_ns: f64) -> f64 {
        bit_time_ns * self.clock_hz as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_isr_overhead_is_one_microsecond() {
        assert!(
            (ARDUINO_DUE.cycles_per_bit(1_000.0) - ARDUINO_DUE.isr_overhead_cycles).abs() < 1e-9
        );
    }

    #[test]
    fn cycles_per_bit_scales_with_speed() {
        // 8 µs bit (125 kbit/s) at 84 MHz = 672 cycles.
        assert!((ARDUINO_DUE.cycles_per_bit(8_000.0) - 672.0).abs() < 1e-9);
        // 2 µs bit (500 kbit/s) at 112 MHz = 224 cycles.
        assert!((NXP_S32K144.cycles_per_bit(2_000.0) - 224.0).abs() < 1e-9);
    }

    #[test]
    fn s32k144_enters_isrs_far_faster_than_the_due() {
        // ISR entry + exit time in ns: cycles over cycles per ns.
        let isr_ns = |p: &McuProfile| p.isr_overhead_cycles / p.cycles_per_bit(1.0);
        assert!(isr_ns(&NXP_S32K144) < isr_ns(&ARDUINO_DUE) / 2.0);
    }
}
