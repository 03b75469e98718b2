//! CPU-utilization tables (paper §V-D).
//!
//! For each of the eight evaluation buses, the FSM of ECU_N (the largest
//! detection range — "maximum testing coverage") is built and its handler
//! cost evaluated on each modeled MCU at each bus speed, in the full and
//! light scenarios, along with the highest speed each MCU sustains.

use can_core::BusSpeed;
use mcu::{DetectionMode, McuProfile};
use michican::fsm::DetectionFsm;
use michican::{EcuList, Scenario};
use restbus::{all_buses, CommMatrix};

/// One row of the CPU-utilization report.
#[derive(Debug, Clone)]
pub struct CpuRow {
    /// Bus (matrix) name.
    pub bus: String,
    /// MCU name.
    pub mcu: &'static str,
    /// Bus speed.
    pub speed: BusSpeed,
    /// Scenario.
    pub scenario: Scenario,
    /// FSM state count of ECU_N.
    pub fsm_nodes: usize,
    /// Idle-path utilization (bus idle).
    pub idle_load: f64,
    /// Active-path utilization (frame on the bus).
    pub active_load: f64,
    /// Combined load at the matrix's predicted bus utilization.
    pub combined_load: f64,
}

/// The FSM state count of ECU_N on a matrix under a scenario, and the
/// detection mode its handler runs.
fn ecu_n_mode(matrix: &CommMatrix, scenario: Scenario) -> (usize, DetectionMode) {
    let list = EcuList::new(matrix.ids()).expect("matrix identifiers are unique");
    let fsm_nodes = DetectionFsm::for_scenario(&list, list.len() - 1, scenario).node_count();
    // ECU_N always runs the full range even in the light scenario (it is
    // in 𝔼₂); the light savings show on 𝔼₁ members, modeled via the
    // SpoofOnly mode.
    let mode = match scenario {
        Scenario::Full => DetectionMode::Full { fsm_nodes },
        Scenario::Light => DetectionMode::SpoofOnly,
    };
    (fsm_nodes, mode)
}

/// Evaluates the full CPU report over the eight vehicle buses.
pub fn cpu_report(
    profiles: &[&'static McuProfile],
    speeds: &[BusSpeed],
    scenarios: &[Scenario],
) -> Vec<CpuRow> {
    let mut rows = Vec::new();
    for matrix in all_buses(BusSpeed::K500) {
        let busy = matrix.predicted_bus_load().min(1.0);
        for &scenario in scenarios {
            let (fsm_nodes, mode) = ecu_n_mode(&matrix, scenario);
            for &profile in profiles {
                for &speed in speeds {
                    rows.push(CpuRow {
                        bus: matrix.name.clone(),
                        mcu: profile.name,
                        speed,
                        scenario,
                        fsm_nodes,
                        idle_load: mcu::idle_utilization(profile, speed),
                        active_load: mcu::active_utilization(profile, speed, mode),
                        combined_load: mcu::combined_utilization(profile, speed, mode, busy),
                    });
                }
            }
        }
    }
    rows
}

/// Averages one load (`load` picks it from a row) over all buses for one
/// (MCU, speed, scenario); `None` when the report has no such rows.
pub fn mean_load(
    rows: &[CpuRow],
    mcu_name: &str,
    speed: BusSpeed,
    scenario: Scenario,
    load: fn(&CpuRow) -> f64,
) -> Option<f64> {
    let selected: Vec<f64> = rows
        .iter()
        .filter(|r| r.mcu == mcu_name && r.speed == speed && r.scenario == scenario)
        .map(load)
        .collect();
    if selected.is_empty() {
        None
    } else {
        Some(selected.iter().sum::<f64>() / selected.len() as f64)
    }
}

/// The highest bus speed `profile` sustains on all eight buses: the
/// slowest of the buses' [`mcu::max_sustainable_speed`] for ECU_N's
/// full-scenario FSM, or `None` if some bus fits no speed.
pub fn max_speed(profile: &McuProfile) -> Option<BusSpeed> {
    all_buses(BusSpeed::K500)
        .iter()
        .map(|matrix| mcu::max_sustainable_speed(profile, ecu_n_mode(matrix, Scenario::Full).1))
        .min_by_key(|speed| speed.map(BusSpeed::bits_per_second))
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu::ARDUINO_DUE;

    #[test]
    fn report_covers_eight_buses() {
        let rows = cpu_report(&[&ARDUINO_DUE], &[BusSpeed::K125], &[Scenario::Full]);
        let buses: std::collections::HashSet<_> = rows.iter().map(|r| r.bus.clone()).collect();
        assert_eq!(buses.len(), 8);
    }

    #[test]
    fn combined_sits_between_idle_and_active() {
        for row in cpu_report(&[&ARDUINO_DUE], &[BusSpeed::K125], &[Scenario::Full]) {
            assert!(row.idle_load <= row.combined_load + 1e-12);
            assert!(row.combined_load <= row.active_load + 1e-12);
        }
    }
}
