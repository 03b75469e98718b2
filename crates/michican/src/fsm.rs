//! The detection finite state machine (paper §IV-A).
//!
//! "Since integrated CAN controllers allow direct read access to every bit
//! of the incoming CAN frame, the detection ranges 𝔻 can be encoded as a
//! finite state machine. In effect, the FSM is a binary tree since each
//! transition input can be either 0 or 1. The FSM is run for each bit
//! individually and needs to traverse all 11 bits only in the worst case."
//!
//! This module builds the FSM as a *pruned, hash-consed* binary decision
//! diagram over the 11-bit identifier space: a subtree whose prefix range
//! lies entirely inside 𝔻 collapses to the `Malicious` terminal, one
//! entirely outside to `Benign`, and structurally identical subtrees are
//! shared. Early termination (the paper's mean detection bit position of
//! ≈ 9) falls out of the pruning.

use can_core::{CanId, Level};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::detect::IdSet;

/// Identifier bit count — FSM depth bound.
const DEPTH: u32 = CanId::BITS as u32;

/// Terminal/internal node of the detection FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum FsmNode {
    /// The identifier prefix is certainly inside 𝔻.
    Malicious,
    /// The identifier prefix is certainly outside 𝔻.
    Benign,
    /// Decision pending: follow `zero` on a dominant bit, `one` on a
    /// recessive bit.
    Branch {
        /// Next state for a dominant (0) identifier bit.
        zero: u16,
        /// Next state for a recessive (1) identifier bit.
        one: u16,
    },
}

/// Outcome of one FSM step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmStep {
    /// More identifier bits are required.
    Undecided,
    /// The identifier is inside the detection range: attack.
    Malicious,
    /// The identifier is outside the detection range: benign.
    Benign,
}

/// A running traversal of a [`DetectionFsm`], reset per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmCursor {
    state: u16,
    bits_consumed: u8,
    decided: Option<bool>,
}

impl FsmCursor {
    /// Number of identifier bits consumed so far.
    pub fn bits_consumed(&self) -> u8 {
        self.bits_consumed
    }

    /// The decision, if reached (`true` = malicious).
    pub fn decision(&self) -> Option<bool> {
        self.decided
    }
}

/// The per-ECU detection FSM generated at initial-configuration time.
///
/// ```
/// use can_core::{CanId, Level};
/// use michican::config::EcuList;
/// use michican::fsm::{DetectionFsm, FsmStep};
///
/// let list = EcuList::from_raw(&[0x005, 0x00F]);
/// let fsm = DetectionFsm::for_ecu(&list, 1);
/// assert!(fsm.classify(CanId::new(0x003).unwrap())); // DoS id
/// assert!(!fsm.classify(CanId::new(0x005).unwrap())); // legitimate peer
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionFsm {
    nodes: Vec<FsmNode>,
    root: u16,
}

impl DetectionFsm {
    /// Builds the FSM recognizing exactly the identifiers in `set`.
    pub fn from_set(set: &IdSet) -> Self {
        let mut builder = Builder {
            nodes: Vec::new(),
            cache: HashMap::new(),
            malicious: 0,
            benign: 0,
        };
        builder.nodes.push(FsmNode::Malicious);
        builder.nodes.push(FsmNode::Benign);
        builder.malicious = 0;
        builder.benign = 1;
        let root = builder.build(set, 0, 1 << DEPTH);
        DetectionFsm {
            nodes: builder.nodes,
            root,
        }
    }

    /// Builds the full-scenario FSM of the ECU at `index` in `list`
    /// (Definition IV.4).
    ///
    /// # Panics
    ///
    /// Panics if `index >= list.len()`.
    pub fn for_ecu(list: &crate::config::EcuList, index: usize) -> Self {
        Self::from_set(&crate::detect::detection_range(list, index))
    }

    /// Builds the FSM of a non-transmitting monitor (an OBD-II dongle)
    /// aware of the whole list: the DoS range only, no own identifier
    /// (see [`crate::detect::monitor_range`]).
    pub fn for_monitor(list: &crate::config::EcuList) -> Self {
        Self::from_set(&crate::detect::monitor_range(list))
    }

    /// Builds the FSM of the ECU at `index` under `scenario`.
    pub fn for_scenario(
        list: &crate::config::EcuList,
        index: usize,
        scenario: crate::config::Scenario,
    ) -> Self {
        Self::from_set(&crate::detect::scenario_range(list, index, scenario))
    }

    /// Number of FSM states (terminals included) — the firmware footprint.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Starts a traversal (called at each SOF).
    pub fn start(&self) -> FsmCursor {
        let decided = match self.nodes[self.root as usize] {
            FsmNode::Malicious => Some(true),
            FsmNode::Benign => Some(false),
            FsmNode::Branch { .. } => None,
        };
        FsmCursor {
            state: self.root,
            bits_consumed: 0,
            decided,
        }
    }

    /// Advances the cursor with one identifier bit (wire order, MSB first;
    /// dominant = 0).
    ///
    /// Stepping a decided cursor keeps returning the decision without
    /// consuming further bits — mirroring Algorithm 1, which stops running
    /// the FSM once the malicious flag is set.
    pub fn step(&self, cursor: &mut FsmCursor, bit: Level) -> FsmStep {
        if let Some(decided) = cursor.decided {
            return if decided {
                FsmStep::Malicious
            } else {
                FsmStep::Benign
            };
        }
        let FsmNode::Branch { zero, one } = self.nodes[cursor.state as usize] else {
            unreachable!("undecided cursor must sit on a branch");
        };
        cursor.state = if bit.is_dominant() { zero } else { one };
        cursor.bits_consumed += 1;
        match self.nodes[cursor.state as usize] {
            FsmNode::Malicious => {
                cursor.decided = Some(true);
                FsmStep::Malicious
            }
            FsmNode::Benign => {
                cursor.decided = Some(false);
                FsmStep::Benign
            }
            FsmNode::Branch { .. } => {
                debug_assert!(cursor.bits_consumed < DEPTH as u8);
                FsmStep::Undecided
            }
        }
    }

    /// Classifies a complete identifier (true = malicious).
    pub fn classify(&self, id: CanId) -> bool {
        let mut cursor = self.start();
        for bit in id.bits() {
            match self.step(&mut cursor, bit) {
                FsmStep::Undecided => continue,
                FsmStep::Malicious => return true,
                FsmStep::Benign => return false,
            }
        }
        unreachable!("FSM must decide within 11 bits")
    }

    /// Identifier-bit position (1-based) at which the FSM decides for `id`;
    /// `0` if the FSM is constant.
    ///
    /// This is the paper's *detection bit position* (§V-B): multiplied by
    /// the nominal bit time it gives the detection latency.
    pub fn decision_position(&self, id: CanId) -> u8 {
        let mut cursor = self.start();
        if cursor.decided.is_some() {
            return 0;
        }
        for bit in id.bits() {
            match self.step(&mut cursor, bit) {
                FsmStep::Undecided => continue,
                _ => return cursor.bits_consumed,
            }
        }
        unreachable!("FSM must decide within 11 bits")
    }
}

/// Introspection view of one FSM state, for code generation and analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportedNode {
    /// Terminal: identifier inside the detection range.
    Malicious,
    /// Terminal: identifier outside the detection range.
    Benign,
    /// Internal decision node with its two successor state indices.
    Branch {
        /// Successor on a dominant (0) bit.
        zero: u16,
        /// Successor on a recessive (1) bit.
        one: u16,
    },
}

impl DetectionFsm {
    /// The root state index.
    pub fn root(&self) -> u16 {
        self.root
    }

    /// All states, indexable by the `zero`/`one` fields of
    /// [`ExportedNode::Branch`].
    pub fn export_nodes(&self) -> Vec<ExportedNode> {
        self.nodes
            .iter()
            .map(|n| match *n {
                FsmNode::Malicious => ExportedNode::Malicious,
                FsmNode::Benign => ExportedNode::Benign,
                FsmNode::Branch { zero, one } => ExportedNode::Branch { zero, one },
            })
            .collect()
    }
}

struct Builder {
    nodes: Vec<FsmNode>,
    cache: HashMap<(u16, u16), u16>,
    malicious: u16,
    benign: u16,
}

impl Builder {
    /// Builds the subtree deciding the half-open identifier range
    /// `[lo, hi)`.
    fn build(&mut self, set: &IdSet, lo: u32, hi: u32) -> u16 {
        let covered = set.count_in(lo, hi);
        if covered == 0 {
            return self.benign;
        }
        if covered == hi - lo {
            return self.malicious;
        }
        let mid = lo + (hi - lo) / 2;
        let zero = self.build(set, lo, mid);
        let one = self.build(set, mid, hi);
        if let Some(&existing) = self.cache.get(&(zero, one)) {
            return existing;
        }
        let index = self.nodes.len() as u16;
        self.nodes.push(FsmNode::Branch { zero, one });
        self.cache.insert((zero, one), index);
        index
    }
}

/// Aggregate detection-latency statistics of one FSM (paper §V-B): the
/// exhaustive reference the unit tests hold each FSM to.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
struct DetectionStats {
    /// Number of identifiers in the detection range.
    pub malicious_ids: usize,
    /// Fraction of malicious identifiers correctly flagged (must be 1.0).
    pub detection_rate: f64,
    /// Fraction of benign identifiers incorrectly flagged (must be 0.0).
    pub false_positive_rate: f64,
    /// Mean decision bit position over malicious identifiers.
    pub mean_detection_position: f64,
    /// Maximum decision bit position over malicious identifiers.
    pub max_detection_position: u8,
}

#[cfg(test)]
impl DetectionStats {
    /// Exhaustively evaluates `fsm` against the ground-truth `set` over the
    /// whole 11-bit identifier space.
    fn evaluate(fsm: &DetectionFsm, set: &IdSet) -> Self {
        let mut malicious_ids = 0usize;
        let mut detected = 0usize;
        let mut false_positives = 0usize;
        let mut benign_total = 0usize;
        let mut position_sum = 0u64;
        let mut position_max = 0u8;

        for id in CanId::all() {
            let truth = set.contains(id);
            let verdict = fsm.classify(id);
            if truth {
                malicious_ids += 1;
                if verdict {
                    detected += 1;
                    let pos = fsm.decision_position(id);
                    position_sum += pos as u64;
                    position_max = position_max.max(pos);
                }
            } else {
                benign_total += 1;
                if verdict {
                    false_positives += 1;
                }
            }
        }

        DetectionStats {
            malicious_ids,
            detection_rate: if malicious_ids == 0 {
                1.0
            } else {
                detected as f64 / malicious_ids as f64
            },
            false_positive_rate: if benign_total == 0 {
                0.0
            } else {
                false_positives as f64 / benign_total as f64
            },
            mean_detection_position: if detected == 0 {
                0.0
            } else {
                position_sum as f64 / detected as f64
            },
            max_detection_position: position_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcuList;
    use crate::detect::{detection_range, IdSet};

    #[test]
    fn fsm_matches_set_exhaustively() {
        let list = EcuList::from_raw(&[0x005, 0x00F, 0x173, 0x6AA]);
        for index in 0..list.len() {
            let set = detection_range(&list, index);
            let fsm = DetectionFsm::from_set(&set);
            for id in CanId::all() {
                assert_eq!(fsm.classify(id), set.contains(id), "index {index} id {id}");
            }
        }
    }

    #[test]
    fn detection_is_perfect_by_construction() {
        let list = EcuList::from_raw(&[0x010, 0x123, 0x456, 0x700]);
        let set = detection_range(&list, 3);
        let fsm = DetectionFsm::from_set(&set);
        let stats = DetectionStats::evaluate(&fsm, &set);
        assert_eq!(stats.detection_rate, 1.0, "paper §V-B: 100 % detection");
        assert_eq!(stats.false_positive_rate, 0.0);
        assert!(stats.mean_detection_position <= 11.0);
        assert!(stats.max_detection_position <= 11);
    }

    #[test]
    fn early_decision_for_wide_ranges() {
        // 𝔻 = [0x000, 0x3FF]: the first identifier bit decides.
        let set = IdSet::interval(CanId::from_raw(0), CanId::from_raw(0x3FF));
        let fsm = DetectionFsm::from_set(&set);
        assert_eq!(fsm.decision_position(CanId::from_raw(0x000)), 1);
        assert_eq!(fsm.decision_position(CanId::from_raw(0x3FF)), 1);
        assert_eq!(fsm.decision_position(CanId::from_raw(0x400)), 1);
    }

    #[test]
    fn late_decision_for_single_exclusion() {
        // 𝔻 = [0, 0x00F] minus {0x005}: ids sharing a 10-bit prefix with
        // 0x005 need all 11 bits.
        let set = IdSet::prefix_minus_points(CanId::from_raw(0x00F), &[CanId::from_raw(0x005)]);
        let fsm = DetectionFsm::from_set(&set);
        assert_eq!(fsm.decision_position(CanId::from_raw(0x004)), 11);
        assert_eq!(fsm.decision_position(CanId::from_raw(0x005)), 11);
        // 0x008 diverges from the excluded point earlier.
        assert!(fsm.decision_position(CanId::from_raw(0x008)) < 11);
    }

    #[test]
    fn constant_fsms() {
        let empty = DetectionFsm::from_set(&IdSet::empty());
        assert!(!empty.classify(CanId::from_raw(0)));
        assert_eq!(empty.decision_position(CanId::from_raw(0)), 0);

        let full =
            DetectionFsm::from_set(&IdSet::interval(CanId::from_raw(0), CanId::from_raw(0x7FF)));
        assert!(full.classify(CanId::from_raw(0x7FF)));
        assert_eq!(full.node_count(), 2, "terminals only");
    }

    #[test]
    fn hash_consing_shrinks_the_fsm() {
        // A periodic set creates many identical subtrees; hash consing
        // must keep the node count far below the 2^12-node full tree.
        // Even identifiers: equivalent to "LSB == 0".
        let set = IdSet::prefix_minus_points(
            CanId::from_raw(0x7FF),
            &(0..2048u16)
                .filter(|r| r % 2 == 1)
                .map(CanId::from_raw)
                .collect::<Vec<_>>(),
        );
        let fsm = DetectionFsm::from_set(&set);
        assert!(
            fsm.node_count() <= 2 + 11,
            "LSB-test FSM must be tiny, got {}",
            fsm.node_count()
        );
        assert!(fsm.classify(CanId::from_raw(0x123 & !1)));
        assert!(!fsm.classify(CanId::from_raw(0x123 | 1)));
        assert_eq!(fsm.decision_position(CanId::from_raw(0x200)), 11);
    }

    #[test]
    fn cursor_stops_consuming_after_decision() {
        let set = IdSet::interval(CanId::from_raw(0), CanId::from_raw(0x3FF));
        let fsm = DetectionFsm::from_set(&set);
        let mut cursor = fsm.start();
        assert_eq!(fsm.step(&mut cursor, Level::Dominant), FsmStep::Malicious);
        let consumed = cursor.bits_consumed();
        // Further steps are no-ops (Algorithm 1 line 11: FSM stops).
        assert_eq!(fsm.step(&mut cursor, Level::Recessive), FsmStep::Malicious);
        assert_eq!(cursor.bits_consumed(), consumed);
    }

    #[test]
    fn spoofing_only_fsm_detects_exactly_own_id() {
        let set = IdSet::singleton(CanId::from_raw(0x173));
        let fsm = DetectionFsm::from_set(&set);
        let stats = DetectionStats::evaluate(&fsm, &set);
        assert_eq!(stats.malicious_ids, 1);
        assert_eq!(stats.detection_rate, 1.0);
        assert_eq!(stats.false_positive_rate, 0.0);
        assert_eq!(fsm.decision_position(CanId::from_raw(0x173)), 11);
    }

    #[test]
    fn node_count_is_bounded_by_full_tree() {
        let list = EcuList::from_raw(&[0x64, 0x128, 0x25F, 0x260, 0x3AA, 0x5BB, 0x701]);
        for index in 0..list.len() {
            let fsm = DetectionFsm::for_ecu(&list, index);
            assert!(
                fsm.node_count() < 4096,
                "hash-consed FSM beats the naive tree"
            );
        }
    }
}
