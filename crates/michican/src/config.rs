//! Initial configuration (paper §IV-A).
//!
//! MichiCAN is configured offline, once, by the OEM: the ordered list
//! 𝔼 = {ECU₁, …, ECU_N} of legitimate CAN identifiers, where each unique
//! identifier is tied to exactly one ECU. From 𝔼, every ECU derives its
//! *detection range* 𝔻 (Definition IV.4) and a per-ECU FSM is generated and
//! patched into its firmware.

use core::fmt;
use std::error::Error;

use can_core::CanId;
use serde::{Deserialize, Serialize};

/// How an ECU participates in detection (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Every ECU runs the full detection range 𝔻 (spoofing + DoS).
    Full,
    /// The lower half 𝔼₁ detects only spoofing on its own identifier; the
    /// upper half 𝔼₂ runs the full procedure. Cuts CPU load (§V-D) while
    /// the network stays DoS-protected.
    Light,
}

/// Errors constructing an [`EcuList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The list was empty.
    Empty,
    /// The same identifier appeared more than once: identifiers must map
    /// 1:1 to ECUs (§IV-A).
    DuplicateId {
        /// The repeated identifier.
        id: CanId,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Empty => f.write_str("the ECU list must not be empty"),
            ConfigError::DuplicateId { id } => {
                write!(f, "identifier {id} is assigned to more than one ECU")
            }
        }
    }
}

impl Error for ConfigError {}

/// The ordered list 𝔼 of all legitimate CAN identifiers on the IVN,
/// ascending (ECU₁ has the lowest identifier ⇒ highest priority).
///
/// ```
/// use can_core::CanId;
/// use michican::config::EcuList;
///
/// let list = EcuList::new(vec![
///     CanId::new(0x005).unwrap(),
///     CanId::new(0x00F).unwrap(),
/// ]).unwrap();
/// assert_eq!(list.len(), 2);
/// assert_eq!(list.id_at(1).raw(), 0x00F);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EcuList {
    ids: Vec<CanId>,
}

impl EcuList {
    /// Builds the ordered list; input order is irrelevant, duplicates are
    /// rejected.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Empty`] for an empty input, or
    /// [`ConfigError::DuplicateId`] when an identifier repeats.
    pub fn new(mut ids: Vec<CanId>) -> Result<Self, ConfigError> {
        if ids.is_empty() {
            return Err(ConfigError::Empty);
        }
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(ConfigError::DuplicateId { id: dup[0] });
        }
        Ok(EcuList { ids })
    }

    /// Builds a list from raw identifier values.
    ///
    /// # Panics
    ///
    /// Panics if a value exceeds 11 bits or on duplicates; intended for
    /// tables and tests.
    pub fn from_raw(ids: &[u16]) -> Self {
        Self::new(ids.iter().map(|&raw| CanId::from_raw(raw)).collect())
            .expect("valid literal ECU list")
    }

    /// Number of ECUs, N.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list is empty (never true for a constructed list).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The identifier of the ECU at `index` (0-based; paper's ECU_{i+1}).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn id_at(&self, index: usize) -> CanId {
        self.ids[index]
    }

    /// All identifiers, ascending.
    pub fn ids(&self) -> &[CanId] {
        &self.ids
    }

    /// The index of `id` within 𝔼, if it is a legitimate identifier.
    pub fn index_of(&self, id: CanId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Whether `id` belongs to some legitimate ECU.
    pub fn contains(&self, id: CanId) -> bool {
        self.index_of(id).is_some()
    }

    /// Whether the ECU at `index` runs the full detection procedure under
    /// `scenario`. The light scenario splits 𝔼 into a lower half 𝔼₁
    /// (spoofing only) and an upper half 𝔼₂; for odd N the extra ECU goes
    /// to 𝔼₂ (the DoS-protecting half), the conservative choice.
    pub fn runs_full_detection(&self, index: usize, scenario: Scenario) -> bool {
        match scenario {
            Scenario::Full => true,
            Scenario::Light => index >= self.ids.len() / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_sorts_on_construction() {
        let list = EcuList::from_raw(&[0x300, 0x100, 0x200]);
        assert_eq!(
            list.ids().iter().map(|id| id.raw()).collect::<Vec<_>>(),
            vec![0x100, 0x200, 0x300]
        );
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert_eq!(EcuList::new(vec![]), Err(ConfigError::Empty));
        let dup = EcuList::new(vec![CanId::from_raw(5), CanId::from_raw(5)]);
        assert_eq!(
            dup,
            Err(ConfigError::DuplicateId {
                id: CanId::from_raw(5)
            })
        );
    }

    #[test]
    fn index_and_contains() {
        let list = EcuList::from_raw(&[0x005, 0x00F, 0x173]);
        assert_eq!(list.index_of(CanId::from_raw(0x00F)), Some(1));
        assert_eq!(list.index_of(CanId::from_raw(0x010)), None);
        assert!(list.contains(CanId::from_raw(0x173)));
        assert!(!list.contains(CanId::from_raw(0x172)));
    }

    #[test]
    fn light_scenario_gives_the_odd_ecu_to_the_upper_half() {
        let odd = EcuList::from_raw(&[1, 2, 3, 4, 5]);
        let full: Vec<bool> = (0..5)
            .map(|i| odd.runs_full_detection(i, Scenario::Light))
            .collect();
        assert_eq!(
            full,
            [false, false, true, true, true],
            "extra ECU joins the DoS-protecting half"
        );
    }

    #[test]
    fn full_scenario_everyone_runs_detection() {
        let list = EcuList::from_raw(&[1, 2, 3, 4]);
        for i in 0..4 {
            assert!(list.runs_full_detection(i, Scenario::Full));
        }
        assert!(!list.runs_full_detection(0, Scenario::Light));
        assert!(!list.runs_full_detection(1, Scenario::Light));
        assert!(list.runs_full_detection(2, Scenario::Light));
        assert!(list.runs_full_detection(3, Scenario::Light));
    }

    #[test]
    fn error_messages() {
        assert!(ConfigError::Empty.to_string().contains("empty"));
        let e = ConfigError::DuplicateId {
            id: CanId::from_raw(0x7),
        };
        assert!(e.to_string().contains("0x007"));
    }
}
