//! Synthetic production-vehicle communication matrices.
//!
//! The paper evaluates against CAN traffic from four production vehicles
//! of one OEM (2016–2019), two buses each (§V-A). Those traces are
//! proprietary, so this module generates *deterministic synthetic
//! matrices* with the statistics the paper depends on:
//!
//! * ~40 % observed bus load (the paper's real-vehicle figure),
//! * a high-priority class with 10 ms periods (the tightest deadline the
//!   paper quotes for a 500 kbit/s bus),
//! * medium/low-priority classes at 20–1000 ms,
//! * predominantly 8-byte payloads,
//! * unique identifier-to-sender mapping.
//!
//! Matrices are seeded per (vehicle, bus): every run of every experiment
//! sees the same traffic.

use can_core::{BusSpeed, CanId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::{CommMatrix, Message};

/// The four evaluation vehicles (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vehicle {
    /// Veh. A — luxury mid-size sedan.
    A,
    /// Veh. B — compact crossover SUV.
    B,
    /// Veh. C — full-size crossover SUV.
    C,
    /// Veh. D — full-size pickup truck (used for the restbus replay).
    D,
}

impl Vehicle {
    /// All four vehicles.
    pub const ALL: [Vehicle; 4] = [Vehicle::A, Vehicle::B, Vehicle::C, Vehicle::D];

    /// Vehicle description as given in the paper.
    pub fn description(self) -> &'static str {
        match self {
            Vehicle::A => "luxury mid-size sedan",
            Vehicle::B => "compact crossover SUV",
            Vehicle::C => "full-size crossover SUV",
            Vehicle::D => "full-size pickup truck",
        }
    }

    fn seed(self, bus: u8) -> u64 {
        let v = match self {
            Vehicle::A => 0xA,
            Vehicle::B => 0xB,
            Vehicle::C => 0xC,
            Vehicle::D => 0xD,
        };
        0x4D49_4348_4943_4100 | (v << 4) | bus as u64
    }

    /// Number of messages on each of this vehicle's buses (larger vehicles
    /// carry more ECUs).
    fn message_count(self, bus: u8) -> usize {
        let base = match self {
            Vehicle::A => 52,
            Vehicle::B => 38,
            Vehicle::C => 58,
            Vehicle::D => 64,
        };
        if bus == 0 {
            base
        } else {
            base * 3 / 4
        }
    }
}

/// Generates the deterministic synthetic matrix of `vehicle`'s bus `bus`
/// (0 or 1) at the given speed.
///
/// # Panics
///
/// Panics if `bus > 1` (the paper's vehicles have two buses each).
pub fn vehicle_matrix(vehicle: Vehicle, bus: u8, speed: BusSpeed) -> CommMatrix {
    assert!(bus < 2, "each vehicle has two CAN buses");
    let mut rng = StdRng::seed_from_u64(vehicle.seed(bus));
    let count = vehicle.message_count(bus);

    // Period classes mirroring production traffic: a safety-critical tier
    // at 10–20 ms, a control tier at 50–100 ms, and a body/comfort tier at
    // 200–1000 ms.
    const PERIODS: [(u32, f64); 6] = [
        (10, 0.15),
        (20, 0.20),
        (50, 0.20),
        (100, 0.25),
        (200, 0.10),
        (500, 0.06),
    ];
    // Remaining probability mass: 1000 ms.

    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < count {
        // Production identifiers cluster in the lower 3/4 of the space;
        // powertrain (high-priority) identifiers start around 0x040.
        let raw: u16 = rng.random_range(0x040..0x640);
        ids.insert(raw);
    }

    // Draw a period per message from the class distribution, then assign
    // rate-monotonically: the shortest periods go to the highest-priority
    // (lowest) identifiers — how OEMs actually lay out matrices, and the
    // assignment under which the deadline analysis of
    // [`crate::schedulability`] is meaningful.
    let mut periods: Vec<u32> = (0..ids.len())
        .map(|_| {
            let roll: f64 = rng.random();
            let mut acc = 0.0;
            for &(p, mass) in &PERIODS {
                acc += mass;
                if roll < acc {
                    return p;
                }
            }
            1000
        })
        .collect();
    periods.sort_unstable();

    let mut messages = Vec::with_capacity(count);
    for (index, (raw, period_ms)) in ids.into_iter().zip(periods).enumerate() {
        let dlc = if rng.random_bool(0.8) {
            8
        } else {
            rng.random_range(1..=8)
        };
        messages.push(Message {
            id: CanId::from_raw(raw),
            period_ms,
            dlc,
            sender: format!("{vehicle:?}-ecu-{:02}", index % 24),
            name: format!("{vehicle:?}_MSG_{raw:03X}"),
        });
    }

    CommMatrix::new(
        format!("veh-{vehicle:?}/bus-{bus}").to_lowercase(),
        speed,
        messages,
    )
}

/// All eight evaluation buses (4 vehicles × 2 buses), as used for the CPU
/// utilization evaluation (§V-D).
pub fn all_buses(speed: BusSpeed) -> Vec<CommMatrix> {
    Vehicle::ALL
        .iter()
        .flat_map(|&v| (0..2).map(move |b| vehicle_matrix(v, b, speed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_are_deterministic() {
        let a1 = vehicle_matrix(Vehicle::D, 0, BusSpeed::K500);
        let a2 = vehicle_matrix(Vehicle::D, 0, BusSpeed::K500);
        assert_eq!(a1, a2);
    }

    #[test]
    fn vehicles_differ() {
        let a = vehicle_matrix(Vehicle::A, 0, BusSpeed::K500);
        let b = vehicle_matrix(Vehicle::B, 0, BusSpeed::K500);
        assert_ne!(a.ids(), b.ids());
        assert!(a.len() > b.len(), "sedan matrix larger than compact SUV");
    }

    #[test]
    fn bus_load_is_in_the_paper_band() {
        // Paper: observed bus load ≈ 40 % in real vehicles; keep the
        // synthetic matrices between 25 % and 55 % at 500 kbit/s.
        for vehicle in Vehicle::ALL {
            for bus in 0..2 {
                let m = vehicle_matrix(vehicle, bus, BusSpeed::K500);
                let load = m.predicted_bus_load();
                assert!((0.20..=0.55).contains(&load), "{}: load {load:.3}", m.name);
            }
        }
    }

    #[test]
    fn min_deadline_is_10ms() {
        for vehicle in Vehicle::ALL {
            let m = vehicle_matrix(vehicle, 0, BusSpeed::K500);
            assert_eq!(m.min_deadline_ms(), Some(10), "{}", m.name);
        }
    }

    #[test]
    fn eight_buses_total() {
        let buses = all_buses(BusSpeed::K500);
        assert_eq!(buses.len(), 8);
        let names: std::collections::HashSet<_> = buses.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names.len(), 8, "bus names are unique");
    }

    #[test]
    fn identifiers_stay_in_production_band() {
        for m in all_buses(BusSpeed::K500) {
            for msg in m.messages() {
                assert!((0x040..0x640).contains(&msg.id.raw()));
                assert!(msg.dlc >= 1 && msg.dlc <= 8);
                assert!(msg.period_ms >= 10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "two CAN buses")]
    fn third_bus_panics() {
        let _ = vehicle_matrix(Vehicle::A, 2, BusSpeed::K500);
    }

    #[test]
    fn descriptions_match_paper() {
        assert!(Vehicle::A.description().contains("sedan"));
        assert!(Vehicle::D.description().contains("pickup"));
    }
}
