//! Communication matrices: the set of periodic messages on one vehicle
//! bus, as found in OEM databases (DBC files) and OpenDBC.

use core::fmt;
use std::collections::BTreeMap;

use can_core::{BusSpeed, CanId};

/// One periodic message definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Message {
    /// The message identifier.
    pub id: CanId,
    /// Transmission period in milliseconds.
    pub period_ms: u32,
    /// Payload length in bytes (0–8).
    pub dlc: u8,
    /// Name of the transmitting ECU (unique per identifier, §IV-A).
    pub sender: String,
    /// Human-readable message name.
    pub name: String,
}

impl Message {
    /// Worst-case wire length of this message in bits, including maximal
    /// stuffing and the 3-bit intermission.
    pub fn worst_case_bits(&self) -> u64 {
        let unstuffed = 44 + self.dlc as u64 * 8;
        // Stuffing applies to SOF..CRC (34 + 8·dlc bits): at most one
        // stuff bit per 4 payload bits after the first run of five.
        let stuffable = 34 + self.dlc as u64 * 8;
        unstuffed + (stuffable - 1) / 4 + 3
    }

    /// Transmissions per second.
    fn frequency_hz(&self) -> f64 {
        1000.0 / self.period_ms as f64
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} dlc={} every {} ms from {}",
            self.id, self.name, self.dlc, self.period_ms, self.sender
        )
    }
}

/// A complete communication matrix for one bus.
#[derive(Debug, Clone, PartialEq)]
pub struct CommMatrix {
    /// Matrix name, e.g. "veh-d/bus-1".
    pub name: String,
    /// The bus speed all ECUs share.
    pub speed: BusSpeed,
    /// Message definitions, sorted by identifier.
    messages: Vec<Message>,
}

/// Why a set of messages does not form a valid matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Two messages share an identifier (a matrix maps identifiers 1:1 to
    /// senders, §IV-A).
    DuplicateId(CanId),
    /// A message declares a DLC above the CAN 2.0A maximum of 8.
    DlcTooLarge {
        /// The offending message identifier.
        id: CanId,
        /// Its declared DLC.
        dlc: u8,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DuplicateId(id) => write!(f, "duplicate identifier {id} in matrix"),
            MatrixError::DlcTooLarge { id, dlc } => {
                write!(f, "message {id} declares DLC {dlc} > 8")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

impl CommMatrix {
    /// Creates a matrix from trusted (literal) definitions; messages are
    /// sorted by identifier.
    ///
    /// # Panics
    ///
    /// Panics on duplicate identifiers or DLC > 8. Use [`Self::try_new`]
    /// for untrusted input (e.g. parsed files).
    pub fn new(name: impl Into<String>, speed: BusSpeed, messages: Vec<Message>) -> Self {
        Self::try_new(name, speed, messages).unwrap_or_else(|e| panic!("invalid matrix: {e}"))
    }

    /// Creates a matrix, rejecting duplicate identifiers and over-long
    /// DLCs; messages are sorted by identifier.
    ///
    /// # Errors
    ///
    /// Returns a [`MatrixError`] naming the offending identifier.
    pub fn try_new(
        name: impl Into<String>,
        speed: BusSpeed,
        mut messages: Vec<Message>,
    ) -> Result<Self, MatrixError> {
        messages.sort_by_key(|m| m.id);
        for pair in messages.windows(2) {
            if pair[0].id == pair[1].id {
                return Err(MatrixError::DuplicateId(pair[0].id));
            }
        }
        if let Some(m) = messages.iter().find(|m| m.dlc > 8) {
            return Err(MatrixError::DlcTooLarge {
                id: m.id,
                dlc: m.dlc,
            });
        }
        Ok(CommMatrix {
            name: name.into(),
            speed,
            messages,
        })
    }

    /// The messages, sorted by identifier (priority order).
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The message with the given identifier.
    pub fn message(&self, id: CanId) -> Option<&Message> {
        self.messages
            .binary_search_by_key(&id, |m| m.id)
            .ok()
            .map(|i| &self.messages[i])
    }

    /// All identifiers, ascending — the ECU list 𝔼 for MichiCAN
    /// configuration.
    pub fn ids(&self) -> Vec<CanId> {
        self.messages.iter().map(|m| m.id).collect()
    }

    /// Groups messages by sending ECU.
    pub fn by_sender(&self) -> BTreeMap<&str, Vec<&Message>> {
        let mut map: BTreeMap<&str, Vec<&Message>> = BTreeMap::new();
        for m in &self.messages {
            map.entry(m.sender.as_str()).or_default().push(m);
        }
        map
    }

    /// The tightest message deadline (= shortest period) in milliseconds.
    pub fn min_deadline_ms(&self) -> Option<u32> {
        self.messages.iter().map(|m| m.period_ms).min()
    }

    /// Predicted bus load `b = (s_f / f_baud) · Σ 1/p_m` (paper §V-E),
    /// using each message's worst-case frame length.
    pub fn predicted_bus_load(&self) -> f64 {
        let f_baud = self.speed.bits_per_second() as f64;
        self.messages
            .iter()
            .map(|m| m.worst_case_bits() as f64 * m.frequency_hz() / f_baud)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u16, period_ms: u32, dlc: u8) -> Message {
        Message {
            id: CanId::from_raw(id),
            period_ms,
            dlc,
            sender: format!("ecu-{id:03x}"),
            name: format!("MSG_{id:03X}"),
        }
    }

    #[test]
    fn matrix_sorts_by_id() {
        let m = CommMatrix::new(
            "t",
            BusSpeed::K500,
            vec![msg(0x300, 100, 8), msg(0x100, 10, 8)],
        );
        assert_eq!(m.messages()[0].id.raw(), 0x100);
        assert_eq!(m.ids()[1].raw(), 0x300);
    }

    #[test]
    #[should_panic(expected = "duplicate identifier")]
    fn duplicate_ids_panic() {
        let _ = CommMatrix::new("t", BusSpeed::K500, vec![msg(1, 10, 8), msg(1, 20, 8)]);
    }

    #[test]
    fn worst_case_bits_has_paper_scale() {
        // An 8-byte frame: 108 unstuffed + ≤ 24 stuff + 3 IFS ≈ 135.
        let bits = msg(0x123, 10, 8).worst_case_bits();
        assert_eq!(bits, 108 + (98 - 1) / 4 + 3);
        assert!((120..=140).contains(&bits));
    }

    #[test]
    fn single_message_bus_load() {
        // One 8-byte message at 10 ms on 500 kbit/s: ~135 bits × 100 Hz /
        // 500 kbit/s ≈ 2.7 %.
        let m = CommMatrix::new("t", BusSpeed::K500, vec![msg(0x100, 10, 8)]);
        let load = m.predicted_bus_load();
        assert!((0.02..0.03).contains(&load), "load {load}");
    }

    #[test]
    fn min_deadline_and_lookup() {
        let m = CommMatrix::new(
            "t",
            BusSpeed::K500,
            vec![msg(0x100, 100, 8), msg(0x200, 10, 4), msg(0x300, 500, 2)],
        );
        assert_eq!(m.min_deadline_ms(), Some(10));
        assert_eq!(m.message(CanId::from_raw(0x200)).unwrap().dlc, 4);
        assert!(m.message(CanId::from_raw(0x201)).is_none());
    }

    #[test]
    fn by_sender_groups() {
        let mut a = msg(0x100, 10, 8);
        a.sender = "engine".into();
        let mut b = msg(0x101, 20, 8);
        b.sender = "engine".into();
        let mut c = msg(0x200, 50, 8);
        c.sender = "brake".into();
        let m = CommMatrix::new("t", BusSpeed::K500, vec![a, b, c]);
        let groups = m.by_sender();
        assert_eq!(groups["engine"].len(), 2);
        assert_eq!(groups["brake"].len(), 1);
    }

    #[test]
    fn frequency_conversion() {
        assert_eq!(msg(1, 100, 8).frequency_hz(), 10.0);
        assert_eq!(msg(1, 10, 8).frequency_hz(), 100.0);
    }
}
