//! Attack classification and detection ranges (Definitions IV.1–IV.4).
//!
//! From the point of view of ECU_i (identifier `own`), an observed
//! identifier `a` is:
//!
//! * **spoofing** if `a == own` (Definition IV.1),
//! * a **DoS attack** if `a < own` and `a` is not a legitimate identifier
//!   (Definition IV.2),
//! * **miscellaneous** if `a` is above the highest legitimate identifier —
//!   or any non-legitimate identifier above `own`, which ECU_i cannot
//!   judge (Definition IV.3; harmless per the paper's analysis),
//! * **legitimate** otherwise.
//!
//! The union of spoofing + DoS identifiers is the *detection range* 𝔻
//! (Definition IV.4), represented here as a sorted interval set over the
//! 11-bit identifier space.

use core::fmt;

use can_core::CanId;
use serde::{Deserialize, Serialize};

use crate::config::{EcuList, Scenario};

/// How ECU_i classifies an observed identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackClass {
    /// The observed identifier equals the ECU's own (Definition IV.1).
    Spoofing,
    /// Higher priority than the ECU's own identifier and not legitimate
    /// (Definition IV.2).
    Dos,
    /// Not legitimate but lower priority than the ECU's own identifier;
    /// cannot win arbitration against anything that matters (Definition
    /// IV.3).
    Miscellaneous,
    /// A legitimate transmission of another ECU.
    Legitimate,
}

impl fmt::Display for AttackClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackClass::Spoofing => f.write_str("spoofing"),
            AttackClass::Dos => f.write_str("DoS"),
            AttackClass::Miscellaneous => f.write_str("miscellaneous"),
            AttackClass::Legitimate => f.write_str("legitimate"),
        }
    }
}

/// Classifies identifier `observed` from the perspective of the ECU at
/// `index` within `list`.
///
/// # Panics
///
/// Panics if `index >= list.len()`.
///
/// ```
/// use michican::config::EcuList;
/// use michican::detect::{classify, AttackClass};
/// use can_core::CanId;
///
/// let list = EcuList::from_raw(&[0x005, 0x00F]);
/// // From ECU 0x00F's perspective (paper §IV-A example):
/// let view = |raw| classify(&list, 1, CanId::new(raw).unwrap());
/// assert_eq!(view(0x00F), AttackClass::Spoofing);
/// assert_eq!(view(0x004), AttackClass::Dos);
/// assert_eq!(view(0x005), AttackClass::Legitimate);
/// assert_eq!(view(0x010), AttackClass::Miscellaneous);
/// ```
pub fn classify(list: &EcuList, index: usize, observed: CanId) -> AttackClass {
    let own = list.id_at(index);
    if observed == own {
        return AttackClass::Spoofing;
    }
    if list.contains(observed) {
        return AttackClass::Legitimate;
    }
    if observed.outranks(own) {
        AttackClass::Dos
    } else {
        AttackClass::Miscellaneous
    }
}

/// A sorted set of disjoint, inclusive identifier intervals — the
/// representation of a detection range 𝔻.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IdSet {
    /// Disjoint, sorted, inclusive `[lo, hi]` intervals.
    intervals: Vec<(u16, u16)>,
}

impl IdSet {
    /// The empty set.
    pub fn empty() -> Self {
        IdSet::default()
    }

    /// A single identifier.
    pub fn singleton(id: CanId) -> Self {
        IdSet {
            intervals: vec![(id.raw(), id.raw())],
        }
    }

    /// The inclusive interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn interval(lo: CanId, hi: CanId) -> Self {
        assert!(lo.raw() <= hi.raw(), "interval bounds reversed");
        IdSet {
            intervals: vec![(lo.raw(), hi.raw())],
        }
    }

    /// The interval `[0, hi]` with the given points removed — the shape of
    /// every detection range 𝔻 (Definition IV.4).
    ///
    /// `excluded` need not be sorted; points outside `[0, hi]` are ignored.
    pub fn prefix_minus_points(hi: CanId, excluded: &[CanId]) -> Self {
        let mut cut: Vec<u16> = excluded
            .iter()
            .map(|id| id.raw())
            .filter(|&p| p <= hi.raw())
            .collect();
        cut.sort_unstable();
        cut.dedup();

        let mut intervals = Vec::with_capacity(cut.len() + 1);
        let mut lo = 0u16;
        for p in cut {
            if p > lo {
                intervals.push((lo, p - 1));
            }
            lo = p + 1;
        }
        if lo <= hi.raw() {
            intervals.push((lo, hi.raw()));
        }
        IdSet { intervals }
    }

    /// Whether `id` belongs to the set.
    pub fn contains(&self, id: CanId) -> bool {
        let raw = id.raw();
        self.intervals
            .binary_search_by(|&(lo, hi)| {
                if raw < lo {
                    std::cmp::Ordering::Greater
                } else if raw > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Number of identifiers in the set.
    pub fn len(&self) -> usize {
        self.intervals
            .iter()
            .map(|&(lo, hi)| (hi - lo) as usize + 1)
            .sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Number of identifiers in `[lo, hi)` (half-open, for FSM
    /// construction over power-of-two ranges).
    pub fn count_in(&self, lo: u32, hi: u32) -> u32 {
        let mut count = 0;
        for &(a, b) in &self.intervals {
            let (a, b) = (a as u32, b as u32 + 1); // half-open
            let start = a.max(lo);
            let end = b.min(hi);
            if start < end {
                count += end - start;
            }
        }
        count
    }

    /// Iterates all identifiers in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = CanId> + '_ {
        self.intervals
            .iter()
            .flat_map(|&(lo, hi)| (lo..=hi).map(CanId::from_raw))
    }

    /// The underlying intervals (sorted, disjoint, inclusive).
    pub fn intervals(&self) -> &[(u16, u16)] {
        &self.intervals
    }
}

/// The detection range 𝔻 of the ECU at `index` (Definition IV.4):
/// `{ j | 0 ≤ j ≤ ECU_i ∧ j ≠ ECU_k ∀ k < i }`.
///
/// Includes the ECU's own identifier (spoofing) and every non-legitimate
/// higher-priority identifier (DoS).
pub fn detection_range(list: &EcuList, index: usize) -> IdSet {
    let own = list.id_at(index);
    IdSet::prefix_minus_points(own, &list.ids()[..index])
}

/// The detection range of a non-transmitting monitor (an OBD-II dongle):
/// every non-legitimate identifier that ties or outranks the
/// lowest-priority legitimate identifier — the DoS component of
/// Definition IV.4 from the lowest-priority ECU's perspective, with no
/// spoofing component.
///
/// A dongle owns no identifier, so it must not claim one: only the true
/// owner of an identifier can tell (via its own transmission state)
/// whether a frame carrying that identifier is spoofed. A dongle that
/// "adopts" a list member's identifier would counterattack the owner's
/// legitimate traffic.
pub fn monitor_range(list: &EcuList) -> IdSet {
    let lowest_priority = list.id_at(list.len() - 1);
    IdSet::prefix_minus_points(lowest_priority, list.ids())
}

/// The detection range under a given scenario: the light scenario's lower
/// half only watches its own identifier.
pub fn scenario_range(list: &EcuList, index: usize, scenario: Scenario) -> IdSet {
    if list.runs_full_detection(index, scenario) {
        detection_range(list, index)
    } else {
        IdSet::singleton(list.id_at(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u16) -> CanId {
        CanId::from_raw(raw)
    }

    #[test]
    fn paper_two_ecu_example() {
        // 𝔼 = {0x005, 0x00F}: ECU 0x00F detects 0x000–0x004 and
        // 0x006–0x00F as malicious, cannot judge 0x005.
        let list = EcuList::from_raw(&[0x005, 0x00F]);
        let range = detection_range(&list, 1);
        for raw in 0x000..=0x004 {
            assert!(range.contains(id(raw)), "{raw:#x} must be detected");
        }
        assert!(
            !range.contains(id(0x005)),
            "legitimate peer is not detected"
        );
        for raw in 0x006..=0x00F {
            assert!(range.contains(id(raw)), "{raw:#x} must be detected");
        }
        assert!(!range.contains(id(0x010)), "above own id is out of range");
        assert_eq!(range.len(), 15);
    }

    #[test]
    fn first_ecu_detects_everything_up_to_itself() {
        let list = EcuList::from_raw(&[0x005, 0x00F]);
        let range = detection_range(&list, 0);
        assert_eq!(range.len(), 6); // 0x000..=0x005
        assert!(range.contains(id(0x005)), "own id (spoofing)");
        assert!(!range.contains(id(0x006)));
    }

    #[test]
    fn classification_matches_detection_range() {
        let list = EcuList::from_raw(&[0x010, 0x080, 0x173, 0x400]);
        for index in 0..list.len() {
            let range = detection_range(&list, index);
            for raw in 0..=CanId::MAX_RAW {
                let class = classify(&list, index, id(raw));
                assert_eq!(
                    range.contains(id(raw)),
                    matches!(class, AttackClass::Spoofing | AttackClass::Dos),
                    "index {index}, id {raw:#x}, class {class}"
                );
            }
        }
    }

    #[test]
    fn classify_covers_all_classes() {
        let list = EcuList::from_raw(&[0x100, 0x200]);
        assert_eq!(classify(&list, 1, id(0x200)), AttackClass::Spoofing);
        assert_eq!(classify(&list, 1, id(0x100)), AttackClass::Legitimate);
        assert_eq!(classify(&list, 1, id(0x0FF)), AttackClass::Dos);
        assert_eq!(classify(&list, 1, id(0x201)), AttackClass::Miscellaneous);
        // The highest ECU's view of ids above everyone: miscellaneous.
        assert_eq!(classify(&list, 1, id(0x7FF)), AttackClass::Miscellaneous);
    }

    #[test]
    fn prefix_minus_points_edge_cases() {
        // Exclusions at the boundaries.
        let set = IdSet::prefix_minus_points(id(10), &[id(0), id(10)]);
        assert!(!set.contains(id(0)));
        assert!(!set.contains(id(10)));
        assert!(set.contains(id(1)));
        assert!(set.contains(id(9)));
        assert_eq!(set.len(), 9);

        // Adjacent exclusions merge gaps.
        let set = IdSet::prefix_minus_points(id(5), &[id(2), id(3)]);
        assert_eq!(set.intervals(), &[(0, 1), (4, 5)]);

        // Excluding everything.
        let all: Vec<CanId> = (0..=3).map(id).collect();
        let set = IdSet::prefix_minus_points(id(3), &all);
        assert!(set.is_empty());
    }

    #[test]
    fn count_in_half_open_ranges() {
        let set = IdSet::prefix_minus_points(id(0x00F), &[id(0x005)]);
        assert_eq!(set.count_in(0, 2048), 15);
        assert_eq!(set.count_in(0, 6), 5); // 0..=4 (5 excluded)
        assert_eq!(set.count_in(5, 6), 0);
        assert_eq!(set.count_in(0x10, 2048), 0);
    }

    #[test]
    fn singleton_and_interval() {
        let s = IdSet::singleton(id(0x173));
        assert_eq!(s.len(), 1);
        assert!(s.contains(id(0x173)));
        assert!(!s.contains(id(0x172)));

        let i = IdSet::interval(id(4), id(7));
        assert_eq!(i.len(), 4);
        assert_eq!(i.iter().count(), 4);
    }

    #[test]
    fn scenario_ranges() {
        let list = EcuList::from_raw(&[0x10, 0x20, 0x30, 0x40]);
        // Light scenario: index 0 (lower half) watches only itself.
        let light0 = scenario_range(&list, 0, Scenario::Light);
        assert_eq!(light0.len(), 1);
        assert!(light0.contains(id(0x10)));
        // Upper half unchanged.
        let light3 = scenario_range(&list, 3, Scenario::Light);
        assert_eq!(light3, detection_range(&list, 3));
        // Full scenario: everyone full.
        assert_eq!(
            scenario_range(&list, 0, Scenario::Full),
            detection_range(&list, 0)
        );
    }

    #[test]
    fn monitor_range_excludes_every_legitimate_id() {
        let list = EcuList::from_raw(&[0x010, 0x080, 0x173, 0x400]);
        let range = monitor_range(&list);
        for raw in 0..=CanId::MAX_RAW {
            let observed = id(raw);
            let expected = raw <= 0x400 && !list.contains(observed);
            assert_eq!(range.contains(observed), expected, "id {raw:#x}");
        }
        // The lowest-priority legitimate id is NOT watched: the dongle
        // cannot tell its owner's frames from a spoofer's.
        assert!(!range.contains(id(0x400)));
    }

    #[test]
    fn display_names() {
        assert_eq!(AttackClass::Dos.to_string(), "DoS");
        assert_eq!(AttackClass::Spoofing.to_string(), "spoofing");
    }
}
