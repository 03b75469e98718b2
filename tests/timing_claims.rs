//! The paper's timing numbers as `experiments cpu` prints them (§V-D) and
//! the software sampler's first-interrupt delay (§IV-C).
//!
//! The MCU profiles are fitted to the Due's 40 %/30 % and the S32K144's
//! 44 %, so the `calibration_*` tests only confirm the fit. The
//! `scaling_*` test reads a row that follows from a calibrated one by
//! exact bus-speed scaling (the paper derives its 80 % the same way), so it
//! checks that the load model is linear in bus speed, not a separate
//! measurement. The `model_*` tests check numbers the fit does not set.

use bench::cpu::{cpu_report, max_speed, mean_load};
use can_core::BusSpeed;
use mcu::{McuProfile, ARDUINO_DUE, NXP_S32K144};
use michican::sync::{SoftSync, SyncConfig};
use michican::Scenario;

/// The ECU_N active load averaged over the eight vehicle buses.
fn active_load(profile: &'static McuProfile, speed: BusSpeed, scenario: Scenario) -> f64 {
    let rows = cpu_report(&[profile], &[speed], &[scenario]);
    mean_load(&rows, profile.name, speed, scenario, |r| r.active_load)
        .expect("the report covers the row")
}

#[test]
fn calibration_due_full_and_light_loads_at_125k() {
    let full = active_load(&ARDUINO_DUE, BusSpeed::K125, Scenario::Full);
    let light = active_load(&ARDUINO_DUE, BusSpeed::K125, Scenario::Light);
    assert!(
        (0.37..=0.43).contains(&full),
        "calibration (paper: Due full ≈ 40 %): {full:.3}"
    );
    assert!(
        (0.27..=0.33).contains(&light),
        "calibration (paper: Due light ≈ 30 %): {light:.3}"
    );
    assert!(full > light);
}

#[test]
fn calibration_s32k144_load_at_500k() {
    let load = active_load(&NXP_S32K144, BusSpeed::K500, Scenario::Full);
    assert!(
        (0.40..=0.48).contains(&load),
        "calibration (paper: S32K144 ≈ 44 % at 500 kbit/s): {load:.3}"
    );
}

#[test]
fn scaling_due_load_at_250k_is_about_80_percent() {
    // Paper: "a 125 kbit/s bus averages 40 % CPU load, implying an 80 %
    // load for a 250 kbit/s bus". The model's active load is twice the
    // calibrated 125 kbit/s row here, by the same speed scaling.
    let load = active_load(&ARDUINO_DUE, BusSpeed::K250, Scenario::Full);
    assert!(
        (0.75..=0.85).contains(&load),
        "Due at 250 kbit/s: {load:.3}"
    );
}

#[test]
fn model_ceilings_due_125k_s32k144_500k() {
    // Paper: MichiCAN "does not always reliably work on higher bus speeds
    // than 125 kbit/s on Arduino Dues"; the S32K144 "fully works on a
    // 500 kbit/s CAN".
    assert_eq!(max_speed(&ARDUINO_DUE), Some(BusSpeed::K125));
    assert_eq!(max_speed(&NXP_S32K144), Some(BusSpeed::K500));
}

#[test]
fn model_first_interrupt_delay_at_500k_is_1_4_us() {
    // §IV-C: "for a 500 kbit/s CAN bus, the timer interrupt would first
    // activate after 1.4 µs" (70 % sample point), less the fudge factor.
    let delay = |fudge_ns| {
        SoftSync::new(SyncConfig {
            speed: BusSpeed::K500,
            drift_ppm: 0.0,
            sample_point: 0.70,
            fudge_ns,
        })
        .first_interrupt_delay_ns()
    };
    assert!((delay(0.0) - 1400.0).abs() < 1e-9);
    assert!((delay(250.0) - 1150.0).abs() < 1e-9);
}
