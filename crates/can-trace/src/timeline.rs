//! Per-node activity timelines — the logic-analyzer view of Fig. 6.
//!
//! The paper's Fig. 6 shows two attackers' transmissions interleaving
//! while MichiCAN buses both off. This module reconstructs the same
//! picture from a simulator event log: per node, spans of transmission,
//! error signalling and bus-off, rendered as an ASCII chart or exported
//! as CSV for plotting.

use can_core::BitInstant;

/// What a node was doing during a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Transmitting a frame (or the destroyed prefix of one).
    Transmitting,
    /// Signalling an error (flag + delimiter).
    ErrorSignaling,
    /// Confined to bus-off.
    BusOff,
}

impl Activity {
    /// Chart glyph.
    pub fn glyph(self) -> char {
        match self {
            Activity::Transmitting => '#',
            Activity::ErrorSignaling => 'x',
            Activity::BusOff => '=',
        }
    }
}

/// A half-open span `[start, end)` of one node's activity, in bit times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Node index within the simulator.
    pub node: usize,
    /// Span start (bits).
    pub start: u64,
    /// Span end (bits).
    pub end: u64,
    /// What the node was doing.
    pub activity: Activity,
}

/// Duration of an error flag plus delimiter used for span rendering.
const ERROR_FRAME_SPAN: u64 = 14;

/// Minimal view of simulator events needed to build a timeline, kept
/// crate-local so `can-trace` does not depend on `can-sim`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineEvent {
    /// Node started driving a SOF.
    TransmissionStarted {
        /// Node index.
        node: usize,
        /// When.
        at: BitInstant,
    },
    /// Node completed a transmission.
    TransmissionSucceeded {
        /// Node index.
        node: usize,
        /// When.
        at: BitInstant,
    },
    /// Node detected an error while transmitting.
    TransmitError {
        /// Node index.
        node: usize,
        /// When.
        at: BitInstant,
    },
    /// Node entered bus-off.
    BusOff {
        /// Node index.
        node: usize,
        /// When.
        at: BitInstant,
    },
    /// Node recovered from bus-off.
    Recovered {
        /// Node index.
        node: usize,
        /// When.
        at: BitInstant,
    },
}

/// A reconstructed multi-node activity timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    spans: Vec<Span>,
    horizon: u64,
}

impl Timeline {
    /// Builds the timeline for `nodes` from an event stream, up to
    /// `horizon` bits.
    pub fn build(events: &[TimelineEvent], nodes: &[usize], horizon: u64) -> Self {
        let mut spans = Vec::new();
        for &node in nodes {
            let mut tx_start: Option<u64> = None;
            let mut off_since: Option<u64> = None;
            for event in events {
                match *event {
                    TimelineEvent::TransmissionStarted { node: n, at } if n == node => {
                        tx_start = Some(at.bits());
                    }
                    TimelineEvent::TransmissionSucceeded { node: n, at } if n == node => {
                        if let Some(start) = tx_start.take() {
                            spans.push(Span {
                                node,
                                start,
                                end: at.bits() + 1,
                                activity: Activity::Transmitting,
                            });
                        }
                    }
                    TimelineEvent::TransmitError { node: n, at } if n == node => {
                        if let Some(start) = tx_start.take() {
                            spans.push(Span {
                                node,
                                start,
                                end: at.bits(),
                                activity: Activity::Transmitting,
                            });
                        }
                        spans.push(Span {
                            node,
                            start: at.bits(),
                            end: (at.bits() + ERROR_FRAME_SPAN).min(horizon),
                            activity: Activity::ErrorSignaling,
                        });
                    }
                    TimelineEvent::BusOff { node: n, at } if n == node => {
                        off_since = Some(at.bits());
                    }
                    TimelineEvent::Recovered { node: n, at } if n == node => {
                        if let Some(start) = off_since.take() {
                            spans.push(Span {
                                node,
                                start,
                                end: at.bits(),
                                activity: Activity::BusOff,
                            });
                        }
                    }
                    _ => {}
                }
            }
            if let Some(start) = off_since {
                spans.push(Span {
                    node,
                    start,
                    end: horizon,
                    activity: Activity::BusOff,
                });
            }
            if let Some(start) = tx_start {
                spans.push(Span {
                    node,
                    start,
                    end: horizon,
                    activity: Activity::Transmitting,
                });
            }
        }
        spans.sort_by_key(|s| (s.node, s.start));
        Timeline { spans, horizon }
    }

    /// The reconstructed spans, sorted by node then start.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of one node.
    fn spans_of(&self, node: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.node == node)
    }

    /// Renders an ASCII chart: one row per node, `width` columns covering
    /// `[0, horizon)` bits. Later span kinds win within a bucket
    /// (error > transmit; bus-off > all).
    pub fn render_ascii(&self, labels: &[(usize, &str)], width: usize) -> String {
        let width = width.max(1);
        let mut out = String::new();
        let scale = self.horizon.max(1) as f64 / width as f64;
        out.push_str(&format!(
            "time: 0 .. {} bits, one column ≈ {:.0} bits\n",
            self.horizon, scale
        ));
        for &(node, label) in labels {
            let mut row = vec!['.'; width];
            for span in self.spans_of(node) {
                let from = (span.start as f64 / scale) as usize;
                let to = ((span.end as f64 / scale).ceil() as usize).min(width);
                for cell in row.iter_mut().take(to).skip(from.min(width)) {
                    let glyph = span.activity.glyph();
                    // Bus-off dominates, then error flags, then traffic.
                    let rank = |c: char| match c {
                        '=' => 3,
                        'x' => 2,
                        '#' => 1,
                        _ => 0,
                    };
                    if rank(glyph) >= rank(*cell) {
                        *cell = glyph;
                    }
                }
            }
            out.push_str(&format!(
                "{label:>10} |{}|\n",
                row.iter().collect::<String>()
            ));
        }
        out.push_str("legend: '#' transmitting, 'x' error frame, '=' bus-off, '.' idle\n");
        out
    }

    /// Exports the spans as CSV (`node,start_bits,end_bits,activity`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("node,start_bits,end_bits,activity\n");
        for span in &self.spans {
            out.push_str(&format!(
                "{},{},{},{:?}\n",
                span.node, span.start, span.end, span.activity
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(bits: u64) -> BitInstant {
        BitInstant::from_bits(bits)
    }

    #[test]
    fn reconstructs_attack_spans() {
        let events = vec![
            TimelineEvent::TransmissionStarted {
                node: 0,
                at: at(10),
            },
            TimelineEvent::TransmitError {
                node: 0,
                at: at(28),
            },
            TimelineEvent::TransmissionStarted {
                node: 0,
                at: at(45),
            },
            TimelineEvent::TransmitError {
                node: 0,
                at: at(63),
            },
            TimelineEvent::BusOff {
                node: 0,
                at: at(80),
            },
        ];
        let tl = Timeline::build(&events, &[0], 200);
        let spans: Vec<_> = tl.spans_of(0).collect();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].activity, Activity::Transmitting);
        assert_eq!((spans[0].start, spans[0].end), (10, 28));
        assert_eq!(spans[1].activity, Activity::ErrorSignaling);
        assert_eq!((spans[1].start, spans[1].end), (28, 42));
        assert_eq!(spans[4].activity, Activity::BusOff);
        assert_eq!((spans[4].start, spans[4].end), (80, 200));
    }

    #[test]
    fn successful_transmission_closes_span() {
        let events = vec![
            TimelineEvent::TransmissionStarted { node: 1, at: at(0) },
            TimelineEvent::TransmissionSucceeded {
                node: 1,
                at: at(110),
            },
        ];
        let tl = Timeline::build(&events, &[1], 150);
        let spans: Vec<_> = tl.spans_of(1).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].end), (0, 111));
    }

    #[test]
    fn recovery_closes_bus_off_span() {
        let events = vec![
            TimelineEvent::BusOff {
                node: 0,
                at: at(100),
            },
            TimelineEvent::Recovered {
                node: 0,
                at: at(1508),
            },
        ];
        let tl = Timeline::build(&events, &[0], 2000);
        let spans: Vec<_> = tl.spans_of(0).collect();
        assert_eq!(spans[0].activity, Activity::BusOff);
        assert_eq!((spans[0].start, spans[0].end), (100, 1508));
    }

    #[test]
    fn ascii_render_contains_rows_and_legend() {
        let events = vec![
            TimelineEvent::TransmissionStarted { node: 0, at: at(0) },
            TimelineEvent::TransmitError {
                node: 0,
                at: at(50),
            },
            TimelineEvent::TransmissionStarted {
                node: 1,
                at: at(70),
            },
            TimelineEvent::TransmitError {
                node: 1,
                at: at(120),
            },
        ];
        let tl = Timeline::build(&events, &[0, 1], 200);
        let chart = tl.render_ascii(&[(0, "0x066"), (1, "0x067")], 80);
        assert!(chart.contains("0x066 |"));
        assert!(chart.contains("0x067 |"));
        assert!(chart.contains('#'));
        assert!(chart.contains('x'));
        assert!(chart.contains("legend"));
    }

    #[test]
    fn csv_export_is_parseable() {
        let events = vec![
            TimelineEvent::TransmissionStarted { node: 0, at: at(5) },
            TimelineEvent::TransmitError {
                node: 0,
                at: at(25),
            },
        ];
        let tl = Timeline::build(&events, &[0], 100);
        let csv = tl.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "node,start_bits,end_bits,activity");
        assert_eq!(lines.len(), 1 + tl.spans().len());
        assert!(lines[1].starts_with("0,5,25,"));
    }

    #[test]
    fn other_nodes_events_are_ignored() {
        let events = vec![TimelineEvent::TransmissionStarted { node: 7, at: at(0) }];
        let tl = Timeline::build(&events, &[0], 100);
        assert!(tl.spans().is_empty());
    }
}
