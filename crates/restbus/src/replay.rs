//! Restbus replay: driving a communication matrix onto a simulated bus.
//!
//! The paper replays recorded Veh. D traffic through a PCAN-USB interface
//! (§V-A); here a [`ReplayApp`] generates the same periodic pattern from a
//! [`CommMatrix`]. One replay application can stand in for the whole rest
//! of the vehicle on a single node, or the matrix can be split by sender
//! across several nodes (`one node per ECU`) for full arbitration
//! fidelity.

use can_core::app::Application;
use can_core::{BitInstant, CanFrame, CanId};

use crate::matrix::CommMatrix;

struct Slot {
    frame: CanFrame,
    period_bits: u64,
    next_due: u64,
}

/// An [`Application`] transmitting every message of a matrix (or a
/// sender's share of it) at its configured period.
pub struct ReplayApp {
    slots: Vec<Slot>,
    /// The earliest `next_due` over all slots (`u64::MAX` when empty), so
    /// the per-bit poll and horizon queries are O(1) between frames.
    earliest_due: u64,
    generated: u64,
}

impl ReplayApp {
    /// Replays the full matrix from one node.
    ///
    /// Message phases are staggered deterministically to avoid a
    /// synchronized burst at t = 0.
    pub fn for_matrix(matrix: &CommMatrix) -> Self {
        Self::filtered(matrix, |_| true)
    }

    /// Replays only the messages of `sender`.
    pub fn for_sender(matrix: &CommMatrix, sender: &str) -> Self {
        Self::filtered(matrix, |m| m.sender == sender)
    }

    fn filtered(matrix: &CommMatrix, keep: impl Fn(&crate::matrix::Message) -> bool) -> Self {
        let speed = matrix.speed;
        let slots = matrix
            .messages()
            .iter()
            .filter(|m| keep(m))
            .enumerate()
            .map(|(i, m)| {
                let payload: Vec<u8> = (0..m.dlc)
                    .map(|b| (m.id.raw() as u8).wrapping_add(b).wrapping_mul(37))
                    .collect();
                let period_bits = speed.bits_in_millis(m.period_ms as f64).max(1);
                Slot {
                    frame: CanFrame::data_frame(m.id, &payload).expect("matrix DLC is valid"),
                    period_bits,
                    // Stagger offsets across the period.
                    next_due: (i as u64 * 131) % period_bits.max(1),
                }
            })
            .collect();
        let mut app = ReplayApp {
            slots,
            earliest_due: u64::MAX,
            generated: 0,
        };
        app.refresh_earliest_due();
        app
    }

    fn refresh_earliest_due(&mut self) {
        self.earliest_due = self
            .slots
            .iter()
            .map(|s| s.next_due)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Frames handed to the controller so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Identifiers this replayer produces.
    pub fn ids(&self) -> Vec<CanId> {
        self.slots.iter().map(|s| s.frame.id()).collect()
    }
}

impl Application for ReplayApp {
    fn poll(&mut self, now: BitInstant) -> Option<CanFrame> {
        if now.bits() < self.earliest_due {
            return None;
        }
        // The first due slot in matrix order goes out.
        let slot = self
            .slots
            .iter_mut()
            .find(|slot| now.bits() >= slot.next_due)?;
        slot.next_due += slot.period_bits;
        let frame = slot.frame;
        self.generated += 1;
        self.refresh_earliest_due();
        Some(frame)
    }

    fn next_activity(&self, _now: BitInstant) -> Option<BitInstant> {
        (!self.slots.is_empty()).then(|| BitInstant::from_bits(self.earliest_due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Message;
    use can_core::BusSpeed;

    fn tiny_matrix() -> CommMatrix {
        CommMatrix::new(
            "tiny",
            BusSpeed::K500,
            vec![
                Message {
                    id: CanId::from_raw(0x100),
                    period_ms: 10,
                    dlc: 8,
                    sender: "engine".into(),
                    name: "A".into(),
                },
                Message {
                    id: CanId::from_raw(0x200),
                    period_ms: 20,
                    dlc: 4,
                    sender: "brake".into(),
                    name: "B".into(),
                },
            ],
        )
    }

    #[test]
    fn replays_all_messages() {
        let mut app = ReplayApp::for_matrix(&tiny_matrix());
        let mut seen = std::collections::HashSet::new();
        for t in 0..30_000u64 {
            if let Some(f) = app.poll(BitInstant::from_bits(t)) {
                seen.insert(f.id().raw());
            }
        }
        assert_eq!(seen.len(), 2);
        // 60 ms of 500 kbit/s: 6 × 0x100 + 3 × 0x200 ≈ 9 frames.
        assert!((7..=11).contains(&app.generated()), "{}", app.generated());
    }

    #[test]
    fn sender_filter_limits_ids() {
        let app = ReplayApp::for_sender(&tiny_matrix(), "brake");
        assert_eq!(app.ids(), vec![CanId::from_raw(0x200)]);
    }

    #[test]
    fn payload_is_deterministic() {
        let mut a = ReplayApp::for_matrix(&tiny_matrix());
        let mut b = ReplayApp::for_matrix(&tiny_matrix());
        for t in 0..5_000u64 {
            assert_eq!(
                a.poll(BitInstant::from_bits(t)),
                b.poll(BitInstant::from_bits(t))
            );
        }
    }

    #[test]
    fn cached_horizon_matches_a_full_scan() {
        let mut app = ReplayApp::for_matrix(&tiny_matrix());
        for t in 0..60_000u64 {
            let scan = app.slots.iter().map(|s| s.next_due).min();
            assert_eq!(
                app.next_activity(BitInstant::from_bits(t)),
                scan.map(BitInstant::from_bits)
            );
            // The first due slot in matrix order wins, as in a full scan.
            let due = app.slots.iter().position(|s| t >= s.next_due);
            let frame = app.poll(BitInstant::from_bits(t));
            assert_eq!(frame.map(|f| f.id()), due.map(|i| app.ids()[i]));
        }
    }

    #[test]
    fn offsets_stagger_start() {
        let mut app = ReplayApp::for_matrix(&tiny_matrix());
        // Not every message fires at t = 0.
        let first = app.poll(BitInstant::from_bits(0));
        let second = app.poll(BitInstant::from_bits(0));
        assert!(first.is_some());
        assert!(second.is_none(), "phases are staggered");
    }
}
