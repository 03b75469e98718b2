//! The paper's on-vehicle test (§V-F), end to end: a targeted DoS against
//! the 2017 Chrysler Pacifica's ParkSense park-assist system, first
//! undefended (dashboard shows "PARKSENSE UNAVAILABLE SERVICE REQUIRED"),
//! then with a MichiCAN dongle on the OBD-II splitter.
//!
//! ```text
//! cargo run --release --example park_assist
//! ```

use bench::runner::ExecOpts;
use bench::scenarios::run_parksense_with;
use restbus::{pacifica_matrix, ATTACK_ID, PARKSENSE_ID};

fn main() {
    let matrix = pacifica_matrix(can_core::BusSpeed::K500);
    println!("Pacifica chassis matrix: {} messages", matrix.len());
    println!(
        "ParkSense status: {} every {} ms; attack identifier: {} (one priority step above)",
        PARKSENSE_ID,
        matrix.message(PARKSENSE_ID).unwrap().period_ms,
        ATTACK_ID
    );

    println!("\n--- without MichiCAN ---");
    let undefended = run_parksense_with(false, 600.0, &ExecOpts::new());
    if undefended.became_unavailable {
        println!(
            "PARKSENSE UNAVAILABLE SERVICE REQUIRED  (after {:.0} ms; {} status frames got through)",
            undefended.unavailable_at_ms.unwrap_or_default(),
            undefended.status_frames_received
        );
    } else {
        println!("unexpected: park assist survived the attack");
    }

    println!("\n--- with the MichiCAN dongle on the OBD-II port ---");
    let defended = run_parksense_with(true, 600.0, &ExecOpts::new());
    println!(
        "park assist available: {}  (attacker bused off {} times; first episode took {:?} attempts)",
        !defended.became_unavailable,
        defended.attacker_bus_offs,
        defended.first_episode_attempts
    );
    println!(
        "ParkSense status frames delivered: {}",
        defended.status_frames_received
    );
}
