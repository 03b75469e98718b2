//! Metric extraction from event logs.
//!
//! The paper's central quantity is the **bus-off time**: "the total time
//! from the first bit of a malicious CAN message to the last bit of the
//! passive error frame in the 31st retransmission" (§V-C). This module
//! reconstructs such episodes — and summary statistics over them — from a
//! simulator event log.

use can_core::{BitDuration, BitInstant, BusSpeed};

use crate::event::{Event, EventKind, NodeId};

/// One attacker bus-off episode.
#[derive(Debug, Clone, PartialEq)]
pub struct BusOffEpisode {
    /// The node that was forced off the bus.
    pub node: NodeId,
    /// First bit of the first (malicious) transmission of this episode.
    pub started: BitInstant,
    /// End of the final error frame (the bus-off instant).
    pub finished: BitInstant,
    /// Number of transmission attempts within the episode (first
    /// transmission + retransmissions).
    pub attempts: u32,
}

impl BusOffEpisode {
    /// The bus-off time in bits.
    pub fn duration(&self) -> BitDuration {
        self.finished.elapsed_since(self.started)
    }
}

/// Extracts all completed bus-off episodes of `node` from an event log.
///
/// An episode starts at the node's first `TransmissionStarted` after
/// simulation start or after a `Recovered` event, and ends at the next
/// `BusOff` event.
pub fn bus_off_episodes(events: &[Event], node: NodeId) -> Vec<BusOffEpisode> {
    let mut episodes = Vec::new();
    let mut current_start: Option<BitInstant> = None;
    let mut attempts = 0u32;

    for event in events.iter().filter(|e| e.node == node) {
        match &event.kind {
            EventKind::TransmissionStarted { .. } => {
                if current_start.is_none() {
                    current_start = Some(event.at);
                    attempts = 0;
                }
                attempts += 1;
            }
            EventKind::BusOff => {
                if let Some(started) = current_start.take() {
                    episodes.push(BusOffEpisode {
                        node,
                        started,
                        // +1: the event is stamped at the sample completing
                        // the final delimiter bit; the bit itself ends one
                        // bit-time later.
                        finished: event.at,
                        attempts,
                    });
                }
            }
            EventKind::Recovered => {
                current_start = None;
                attempts = 0;
            }
            _ => {}
        }
    }
    episodes
}

/// Summary statistics over a set of durations (in bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationStats {
    /// Number of samples.
    pub count: usize,
    /// Mean duration in bits.
    pub mean_bits: f64,
    /// Standard deviation in bits (population).
    pub std_bits: f64,
    /// Maximum duration in bits.
    pub max_bits: u64,
    /// Minimum duration in bits.
    pub min_bits: u64,
}

impl DurationStats {
    /// Computes statistics over an iterator of durations.
    ///
    /// Returns `None` for an empty set.
    pub fn from_durations<I: IntoIterator<Item = BitDuration>>(durations: I) -> Option<Self> {
        let bits: Vec<u64> = durations.into_iter().map(|d| d.as_bits()).collect();
        if bits.is_empty() {
            return None;
        }
        let count = bits.len();
        let mean = bits.iter().sum::<u64>() as f64 / count as f64;
        let var = bits
            .iter()
            .map(|&b| {
                let d = b as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        Some(DurationStats {
            count,
            mean_bits: mean,
            std_bits: var.sqrt(),
            max_bits: *bits.iter().max().expect("non-empty"),
            min_bits: *bits.iter().min().expect("non-empty"),
        })
    }

    /// Mean in milliseconds at the given bus speed.
    pub fn mean_millis(&self, speed: BusSpeed) -> f64 {
        self.mean_bits * speed.bit_time_us() / 1000.0
    }

    /// Standard deviation in milliseconds at the given bus speed.
    pub fn std_millis(&self, speed: BusSpeed) -> f64 {
        self.std_bits * speed.bit_time_us() / 1000.0
    }

    /// Maximum in milliseconds at the given bus speed.
    pub fn max_millis(&self, speed: BusSpeed) -> f64 {
        self.max_bits as f64 * speed.bit_time_us() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::CanId;

    fn started(at: u64, node: NodeId) -> Event {
        Event::new(
            BitInstant::from_bits(at),
            node,
            EventKind::TransmissionStarted {
                id: CanId::from_raw(0x64),
            },
        )
    }

    fn bus_off(at: u64, node: NodeId) -> Event {
        Event::new(BitInstant::from_bits(at), node, EventKind::BusOff)
    }

    fn recovered(at: u64, node: NodeId) -> Event {
        Event::new(BitInstant::from_bits(at), node, EventKind::Recovered)
    }

    #[test]
    fn extracts_single_episode() {
        let events = vec![started(100, 0), started(135, 0), bus_off(1348, 0)];
        let episodes = bus_off_episodes(&events, 0);
        assert_eq!(episodes.len(), 1);
        assert_eq!(episodes[0].started.bits(), 100);
        assert_eq!(episodes[0].duration().as_bits(), 1248);
        assert_eq!(episodes[0].attempts, 2);
    }

    #[test]
    fn episodes_reset_after_recovery() {
        let events = vec![
            started(0, 0),
            bus_off(1000, 0),
            recovered(2500, 0),
            started(2600, 0),
            bus_off(3700, 0),
        ];
        let episodes = bus_off_episodes(&events, 0);
        assert_eq!(episodes.len(), 2);
        assert_eq!(episodes[1].started.bits(), 2600);
        assert_eq!(episodes[1].duration().as_bits(), 1100);
    }

    #[test]
    fn other_nodes_are_ignored() {
        let events = vec![started(0, 1), bus_off(900, 1), started(5, 0)];
        assert!(bus_off_episodes(&events, 0).is_empty());
        assert_eq!(bus_off_episodes(&events, 1).len(), 1);
    }

    #[test]
    fn stats_over_durations() {
        let stats = DurationStats::from_durations([
            BitDuration::bits(1200),
            BitDuration::bits(1250),
            BitDuration::bits(1300),
        ])
        .unwrap();
        assert_eq!(stats.count, 3);
        assert!((stats.mean_bits - 1250.0).abs() < 1e-9);
        assert_eq!(stats.max_bits, 1300);
        assert_eq!(stats.min_bits, 1200);
        assert!(stats.std_bits > 0.0);
        // 1250 bits at 50 kbit/s = 25 ms — the paper's Table II scale.
        assert!((stats.mean_millis(BusSpeed::K50) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn stats_of_empty_set_is_none() {
        assert!(DurationStats::from_durations(std::iter::empty()).is_none());
    }
}
