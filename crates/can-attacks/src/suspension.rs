//! Suspension (DoS) attackers — Fig. 2 of the paper.
//!
//! A suspension attacker floods the bus with high-priority identifiers so
//! that legitimate messages keep losing arbitration:
//!
//! * **traditional** — identifier 0x000 outranks everything: total DoS;
//! * **targeted** — an identifier just below the victim's: only messages
//!   at or below the victim's priority are suppressed;
//! * **random** — a fresh random identifier below the victim per
//!   injection.

use can_core::app::Application;
use can_core::{BitInstant, CanFrame, CanId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flavor of suspension attack (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DosKind {
    /// Identifier 0x000: blocks every ECU.
    Traditional,
    /// A fixed identifier with higher priority than the victim's.
    Targeted {
        /// The identifier to flood (e.g. 0x25F against ParkSense's 0x260).
        id: CanId,
    },
    /// A fresh random identifier below `below` per injection.
    Random {
        /// Exclusive upper bound for the random identifiers.
        below: CanId,
    },
}

/// A protocol-compliant DoS attacker flooding the bus.
///
/// `period_bits` controls the injection rate; a compromised ECU saturating
/// the bus uses a period shorter than one frame so a frame is always
/// pending (the controller's automatic retransmission does the rest).
///
/// A saturating attacker with a fixed identifier re-posts the same frame
/// every bit, and a re-post into a mailbox that already holds it is a
/// no-op, so once its frame is posted it declares itself quiescent
/// ([`Application::next_activity`] returns `None`) and the packed kernel
/// may skip those polls.
#[derive(Debug)]
pub struct SuspensionAttacker {
    kind: DosKind,
    /// The attack frame, built once: the fixed-id kinds post it as is,
    /// and `Random` posts its payload under a freshly drawn identifier.
    frame: CanFrame,
    period_bits: u64,
    next_due: u64,
    rng: StdRng,
}

impl SuspensionAttacker {
    /// Creates an attacker of the given kind injecting every
    /// `period_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `period_bits` is zero.
    pub fn new(kind: DosKind, period_bits: u64) -> Self {
        assert!(period_bits > 0, "period must be positive");
        let id = match kind {
            DosKind::Targeted { id } => id,
            DosKind::Traditional | DosKind::Random { .. } => CanId::HIGHEST_PRIORITY,
        };
        SuspensionAttacker {
            kind,
            frame: CanFrame::data_frame(id, &[0; 8]).expect("valid attack frame"),
            period_bits,
            next_due: 0,
            rng: StdRng::seed_from_u64(0x5EED_CADE),
        }
    }

    /// A saturating attacker: always has a frame pending.
    pub fn saturating(kind: DosKind) -> Self {
        Self::new(kind, 1)
    }

    /// Overrides the payload (default: 8 zero bytes).
    ///
    /// # Panics
    ///
    /// Panics if `payload` is longer than 8 bytes.
    pub fn with_payload(mut self, payload: &[u8]) -> Self {
        self.frame = CanFrame::data_frame(self.frame.id(), payload).expect("at most 8 bytes");
        self
    }

    /// The attack kind.
    pub fn kind(&self) -> DosKind {
        self.kind
    }
}

impl Application for SuspensionAttacker {
    fn poll(&mut self, now: BitInstant) -> Option<CanFrame> {
        if now.bits() < self.next_due {
            return None;
        }
        self.next_due = now.bits() + self.period_bits;
        match self.kind {
            DosKind::Random { below } => {
                let id = CanId::from_raw(self.rng.random_range(0..below.raw().max(1)));
                Some(CanFrame::data_frame(id, self.frame.data()).expect("valid attack frame"))
            }
            DosKind::Traditional | DosKind::Targeted { .. } => Some(self.frame),
        }
    }

    fn next_activity(&self, _now: BitInstant) -> Option<BitInstant> {
        // `next_due > 0` once the frame is posted. Random ids draw from the
        // RNG on every poll, so those polls are not no-ops.
        let fixed_id = !matches!(self.kind, DosKind::Random { .. });
        if fixed_id && self.period_bits == 1 && self.next_due > 0 {
            None
        } else {
            Some(BitInstant::from_bits(self.next_due))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traditional_attacker_uses_id_zero() {
        let mut attacker = SuspensionAttacker::saturating(DosKind::Traditional);
        let frame = attacker.poll(BitInstant::ZERO).unwrap();
        assert_eq!(frame.id(), CanId::HIGHEST_PRIORITY);
        assert_eq!(frame.dlc(), 8);
    }

    #[test]
    fn targeted_attacker_uses_configured_id() {
        let id = CanId::from_raw(0x25F);
        let mut attacker = SuspensionAttacker::saturating(DosKind::Targeted { id });
        assert_eq!(attacker.poll(BitInstant::ZERO).unwrap().id(), id);
        assert_eq!(attacker.poll(BitInstant::from_bits(1)).unwrap().id(), id);
    }

    #[test]
    fn random_attacker_stays_below_bound() {
        let below = CanId::from_raw(0x100);
        let mut attacker = SuspensionAttacker::new(DosKind::Random { below }, 1);
        let mut distinct = std::collections::HashSet::new();
        for t in 0..200 {
            let frame = attacker.poll(BitInstant::from_bits(t)).unwrap();
            assert!(frame.id().raw() < 0x100);
            distinct.insert(frame.id());
        }
        assert!(distinct.len() > 10, "random ids must vary");
    }

    #[test]
    fn random_ids_are_deterministic_per_seed() {
        let below = CanId::from_raw(0x80);
        let mut a = SuspensionAttacker::new(DosKind::Random { below }, 1);
        let mut b = SuspensionAttacker::new(DosKind::Random { below }, 1);
        for t in 0..50 {
            assert_eq!(
                a.poll(BitInstant::from_bits(t)).unwrap().id(),
                b.poll(BitInstant::from_bits(t)).unwrap().id()
            );
        }
    }

    #[test]
    fn injection_respects_period() {
        let mut attacker = SuspensionAttacker::new(DosKind::Traditional, 100);
        let first = attacker.poll(BitInstant::from_bits(0)).unwrap();
        assert!(attacker.poll(BitInstant::from_bits(50)).is_none());
        assert!(attacker.poll(BitInstant::from_bits(99)).is_none());
        assert_eq!(attacker.poll(BitInstant::from_bits(100)), Some(first));
    }

    #[test]
    fn fixed_id_saturating_attacker_is_quiescent_once_posted() {
        let targeted = DosKind::Targeted {
            id: CanId::from_raw(0x25F),
        };
        for kind in [DosKind::Traditional, targeted] {
            let mut attacker = SuspensionAttacker::saturating(kind);
            assert_eq!(
                attacker.next_activity(BitInstant::ZERO),
                Some(BitInstant::ZERO),
                "{kind:?}: the first post is due at once"
            );
            attacker.poll(BitInstant::ZERO).unwrap();
            for t in [1, 2, 1_000] {
                assert_eq!(
                    attacker.next_activity(BitInstant::from_bits(t)),
                    None,
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn random_and_periodic_attackers_keep_their_poll_schedule() {
        let below = CanId::from_raw(0x100);
        let mut random = SuspensionAttacker::saturating(DosKind::Random { below });
        for t in 0..5 {
            let now = BitInstant::from_bits(t);
            random.poll(now).unwrap();
            assert_eq!(
                random.next_activity(now),
                Some(BitInstant::from_bits(t + 1))
            );
        }

        let mut periodic = SuspensionAttacker::new(DosKind::Traditional, 100);
        assert_eq!(
            periodic.next_activity(BitInstant::ZERO),
            Some(BitInstant::ZERO)
        );
        periodic.poll(BitInstant::ZERO).unwrap();
        assert_eq!(
            periodic.next_activity(BitInstant::from_bits(1)),
            Some(BitInstant::from_bits(100))
        );
    }

    #[test]
    fn custom_payload_is_carried() {
        let mut attacker =
            SuspensionAttacker::saturating(DosKind::Traditional).with_payload(&[1, 2, 3]);
        let frame = attacker.poll(BitInstant::ZERO).unwrap();
        assert_eq!(frame.data(), &[1, 2, 3]);
    }
}
