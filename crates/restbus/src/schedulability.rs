//! CAN response-time analysis (Davis, Burns, Bril & Lukkien — the paper's
//! reference \[49\]).
//!
//! The paper leans on schedulability twice:
//!
//! * §IV-A: a miscellaneous attacker blocks a pending message for at most
//!   one frame, "much smaller than the deadline for safety-critical CAN
//!   messages which stands around 10 ms";
//! * §V-C: a MichiCAN bus-off episode must fit the tightest deadline
//!   ("a maximum of 5000 bits"), which bounds the tolerable number of
//!   simultaneous attackers at four.
//!
//! This module implements the classic fixed-priority response-time
//! analysis for CAN — worst-case blocking + busy-period iteration — plus
//! an *attack blocking* term so the feasibility of a defense episode can
//! be checked analytically against any communication matrix.

use crate::matrix::CommMatrix;

/// Worst-case response time of one message, in bits.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseTime {
    /// The message identifier (priority).
    pub id: can_core::CanId,
    /// Worst-case queuing delay (blocking + interference), bits.
    pub queuing_bits: u64,
    /// Worst-case response time (queuing + own transmission), bits.
    pub response_bits: u64,
    /// The message deadline (= period) in bits.
    pub deadline_bits: u64,
    /// Whether the response time meets the deadline.
    pub schedulable: bool,
}

/// Result of analyzing a whole matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Per-message response times, sorted by priority (ascending id).
    pub messages: Vec<ResponseTime>,
    /// Extra blocking injected into every message (e.g. a defense
    /// episode), in bits.
    pub attack_blocking_bits: u64,
}

impl Analysis {
    /// Whether every message meets its deadline.
    pub fn all_schedulable(&self) -> bool {
        self.messages.iter().all(|m| m.schedulable)
    }

    /// Identifiers that miss their deadlines.
    pub fn missed(&self) -> Vec<can_core::CanId> {
        self.messages
            .iter()
            .filter(|m| !m.schedulable)
            .map(|m| m.id)
            .collect()
    }
}

/// Upper bound on the iteration count before declaring unschedulability.
const MAX_ITERATIONS: usize = 10_000;

/// Runs the response-time analysis on `matrix` with an additional
/// `attack_blocking_bits` term added to every message's blocking (0 for
/// the healthy-bus analysis; a bus-off episode's length to check defense
/// feasibility, per §V-C).
///
/// Deadlines are taken as the message periods (the standard implicit-
/// deadline assumption for periodic CAN traffic).
pub fn analyze(matrix: &CommMatrix, attack_blocking_bits: u64) -> Analysis {
    let messages = matrix.messages();
    let speed = matrix.speed;

    // Worst-case frame lengths in bits (with maximal stuffing + IFS).
    let frame_bits: Vec<u64> = messages.iter().map(|m| m.worst_case_bits()).collect();
    let periods: Vec<u64> = messages
        .iter()
        .map(|m| speed.bits_in_millis(m.period_ms as f64).max(1))
        .collect();

    let mut results = Vec::with_capacity(messages.len());
    for (i, message) in messages.iter().enumerate() {
        // Blocking: the longest lower-priority frame that may have just
        // started (non-preemptive bus), plus the attack term.
        let lp_blocking = frame_bits[i + 1..].iter().copied().max().unwrap_or(0);
        let blocking = lp_blocking + attack_blocking_bits;

        // Busy-period iteration over higher-priority interference.
        let own = frame_bits[i];
        let mut w = blocking;
        let mut schedulable = true;
        for iteration in 0.. {
            let mut interference = 0u64;
            for j in 0..i {
                // +1 bit inherits the analysis's tau_bit term (a message
                // queued an instant after the release still interferes).
                interference += (w + 1).div_ceil(periods[j]) * frame_bits[j];
            }
            let next = blocking + interference;
            if next == w {
                break;
            }
            w = next;
            if w + own > periods[i] * 4 || iteration >= MAX_ITERATIONS {
                // Far past the deadline: call it unschedulable.
                schedulable = false;
                break;
            }
        }
        let response = w + own;
        schedulable = schedulable && response <= periods[i];
        results.push(ResponseTime {
            id: message.id,
            queuing_bits: w,
            response_bits: response,
            deadline_bits: periods[i],
            schedulable,
        });
    }

    Analysis {
        messages: results,
        attack_blocking_bits,
    }
}

/// The largest defense-episode blocking (in bits) the matrix tolerates
/// with every deadline still met — the analytic form of the paper's
/// "maximum number of attacking ECUs before the CAN bus becomes
/// inoperable" (§V-C).
pub fn max_tolerable_blocking(matrix: &CommMatrix) -> u64 {
    // Binary search over the blocking term.
    let mut lo = 0u64;
    let mut hi = matrix
        .messages()
        .iter()
        .map(|m| matrix.speed.bits_in_millis(m.period_ms as f64))
        .max()
        .unwrap_or(0)
        * 2;
    if !analyze(matrix, lo).all_schedulable() {
        return 0;
    }
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if analyze(matrix, mid).all_schedulable() {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Message;
    use can_core::{BusSpeed, CanId};

    fn msg(id: u16, period_ms: u32, dlc: u8) -> Message {
        Message {
            id: CanId::from_raw(id),
            period_ms,
            dlc,
            sender: format!("ecu-{id:03x}"),
            name: format!("M{id:03X}"),
        }
    }

    #[test]
    fn single_message_response_is_blocking_free() {
        let m = CommMatrix::new("t", BusSpeed::K500, vec![msg(0x100, 10, 8)]);
        let analysis = analyze(&m, 0);
        let r = &analysis.messages[0];
        // No lower priority ⇒ no blocking; response = own frame.
        assert_eq!(r.queuing_bits, 0);
        assert_eq!(r.response_bits, msg(0x100, 10, 8).worst_case_bits());
        assert!(r.schedulable);
    }

    #[test]
    fn highest_priority_waits_for_one_lower_frame() {
        let m = CommMatrix::new(
            "t",
            BusSpeed::K500,
            vec![msg(0x100, 10, 8), msg(0x200, 10, 8)],
        );
        let analysis = analyze(&m, 0);
        let hp = &analysis.messages[0];
        // Non-preemptive blocking: one full lower-priority frame.
        assert_eq!(hp.queuing_bits, msg(0x200, 10, 8).worst_case_bits());
        assert!(analysis.all_schedulable());
    }

    #[test]
    fn interference_accumulates_down_the_priority_order() {
        let m = CommMatrix::new(
            "t",
            BusSpeed::K500,
            vec![msg(0x100, 10, 8), msg(0x200, 10, 8), msg(0x300, 10, 8)],
        );
        let analysis = analyze(&m, 0);
        let responses: Vec<u64> = analysis.messages.iter().map(|r| r.response_bits).collect();
        // The lowest-priority message has no blocking term, so the last
        // two can tie; the order is still monotone.
        assert!(responses[0] < responses[1]);
        assert!(responses[1] <= responses[2]);
        assert!(analysis.all_schedulable());
    }

    #[test]
    fn overload_is_flagged_unschedulable() {
        // Three 8-byte messages at 1 ms on 50 kbit/s: >> 100 % utilization.
        let m = CommMatrix::new(
            "t",
            BusSpeed::K50,
            vec![msg(0x100, 1, 8), msg(0x200, 1, 8), msg(0x300, 1, 8)],
        );
        let analysis = analyze(&m, 0);
        assert!(!analysis.all_schedulable());
        assert!(!analysis.missed().is_empty());
    }

    #[test]
    fn paper_feasibility_single_episode_fits_10ms_deadlines() {
        // §V-C: a 1248-bit episode must not break a bus whose tightest
        // deadline is 10 ms (5000 bits at 500 kbit/s).
        let m = crate::vehicles::vehicle_matrix(crate::Vehicle::D, 0, BusSpeed::K500);
        let healthy = analyze(&m, 0);
        assert!(healthy.all_schedulable(), "the matrix itself is feasible");
        let attacked = analyze(&m, 1_248);
        assert!(
            attacked.all_schedulable(),
            "one bus-off episode fits every deadline: {:?}",
            attacked.missed()
        );
    }

    #[test]
    fn paper_crossover_five_attacker_episode_breaks_deadlines() {
        // The A = 5 episode (≈ 6100 bits > the 5000-bit budget) must break
        // the 10 ms class.
        let m = crate::vehicles::vehicle_matrix(crate::Vehicle::D, 0, BusSpeed::K500);
        let attacked = analyze(&m, 6_100);
        assert!(
            !attacked.all_schedulable(),
            "a five-attacker episode must miss deadlines"
        );
    }

    #[test]
    fn max_tolerable_blocking_brackets_the_crossover() {
        let m = crate::vehicles::vehicle_matrix(crate::Vehicle::D, 0, BusSpeed::K500);
        let budget = max_tolerable_blocking(&m);
        // The paper's crude 5000-bit bound ignores interference; the exact
        // analysis lands below it but comfortably above one episode.
        assert!(budget >= 1_300, "budget {budget} must fit one episode");
        assert!(
            budget < 6_100,
            "budget {budget} must exclude the A=5 episode"
        );
        assert!(analyze(&m, budget).all_schedulable());
        assert!(!analyze(&m, budget + 1).all_schedulable());
    }
}
