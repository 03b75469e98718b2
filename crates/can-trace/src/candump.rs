//! candump-compatible logs.
//!
//! The de-facto exchange format for CAN captures (SocketCAN's `candump
//! -l`): one line per frame,
//!
//! ```text
//! (1618273.123456) can0 173#DEADBEEF
//! ```
//!
//! The paper's restbus replay rides on SocketCAN/PCAN; this module lets
//! simulated traffic round-trip through the same format.

use core::fmt;
use std::error::Error;

use can_core::{BusSpeed, CanFrame, CanId};

/// One logged frame.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Capture timestamp in seconds.
    pub timestamp_s: f64,
    /// Interface name (e.g. `can0`, `vcan0`).
    pub interface: String,
    /// The frame.
    pub frame: CanFrame,
}

impl LogEntry {
    /// Creates an entry from a simulated bit instant at a given speed.
    pub fn from_bits(bits: u64, speed: BusSpeed, interface: &str, frame: CanFrame) -> Self {
        LogEntry {
            timestamp_s: bits as f64 * speed.bit_time_us() / 1e6,
            interface: interface.to_string(),
            frame,
        }
    }
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.6}) {} {:03X}#",
            self.timestamp_s,
            self.interface,
            self.frame.id().raw()
        )?;
        if self.frame.is_remote() {
            write!(f, "R{}", self.frame.dlc())
        } else {
            for byte in self.frame.data() {
                write!(f, "{byte:02X}")?;
            }
            Ok(())
        }
    }
}

/// A candump parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "candump parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseError {}

/// Serializes entries to candump text.
pub fn write_log(entries: &[LogEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        out.push_str(&entry.to_string());
        out.push('\n');
    }
    out
}

/// Parses candump text; blank lines are skipped.
///
/// # Errors
///
/// Returns the first malformed line as a [`ParseError`].
pub fn parse_log(source: &str) -> Result<Vec<LogEntry>, ParseError> {
    let mut entries = Vec::new();
    for (index, line) in source.lines().enumerate() {
        let line_no = index + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: &str| ParseError {
            line: line_no,
            message: message.to_string(),
        };

        let rest = line
            .strip_prefix('(')
            .ok_or_else(|| err("expected '(timestamp)'"))?;
        let (ts, rest) = rest
            .split_once(") ")
            .ok_or_else(|| err("unterminated timestamp"))?;
        let timestamp_s: f64 = ts
            .parse()
            .ok()
            .filter(|t: &f64| t.is_finite())
            .ok_or_else(|| err("invalid timestamp"))?;
        let (interface, payload) = rest
            .split_once(' ')
            .ok_or_else(|| err("missing interface"))?;
        let (id_hex, data_hex) = payload
            .split_once('#')
            .ok_or_else(|| err("missing '#' separator"))?;
        // 1–3 hex digits, checked first: `from_str_radix` alone would
        // accept a leading '+'.
        if !(1..=3).contains(&id_hex.len()) || !id_hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(err("invalid identifier"));
        }
        let raw = u16::from_str_radix(id_hex, 16).map_err(|_| err("invalid identifier"))?;
        let id = CanId::new(raw).map_err(|_| err("identifier exceeds 11 bits"))?;

        let frame = if let Some(dlc) = data_hex.strip_prefix('R') {
            let dlc: u8 = if dlc.is_empty() {
                0
            } else {
                dlc.parse().map_err(|_| err("invalid RTR DLC"))?
            };
            CanFrame::remote_frame(id, dlc).map_err(|_| err("invalid RTR DLC"))?
        } else {
            if data_hex.len() % 2 != 0 || data_hex.len() > 16 {
                return Err(err("data must be 0–8 hex byte pairs"));
            }
            // Checked on bytes so a multi-byte character is an error, not a
            // slice across a char boundary; `from_str_radix` would also
            // accept a leading '+'.
            if !data_hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(err("invalid data byte"));
            }
            let mut data = Vec::with_capacity(data_hex.len() / 2);
            for i in (0..data_hex.len()).step_by(2) {
                data.push(
                    u8::from_str_radix(&data_hex[i..i + 2], 16)
                        .map_err(|_| err("invalid data byte"))?,
                );
            }
            CanFrame::data_frame(id, &data).map_err(|_| err("invalid payload"))?
        };

        entries.push(LogEntry {
            timestamp_s,
            interface: interface.to_string(),
            frame,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ts: f64, id: u16, data: &[u8]) -> LogEntry {
        LogEntry {
            timestamp_s: ts,
            interface: "vcan0".to_string(),
            frame: CanFrame::data_frame(CanId::from_raw(id), data).unwrap(),
        }
    }

    #[test]
    fn formats_like_candump() {
        let e = entry(1.5, 0x173, &[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(e.to_string(), "(1.500000) vcan0 173#DEADBEEF");
    }

    #[test]
    fn round_trips() {
        let entries = vec![
            entry(0.0, 0x064, &[]),
            entry(0.01, 0x173, &[1, 2, 3, 4, 5, 6, 7, 8]),
            LogEntry {
                timestamp_s: 0.02,
                interface: "vcan0".into(),
                frame: CanFrame::remote_frame(CanId::from_raw(0x100), 4).unwrap(),
            },
        ];
        let text = write_log(&entries);
        let parsed = parse_log(&text).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn from_bits_converts_via_speed() {
        let e = LogEntry::from_bits(
            50_000,
            BusSpeed::K50,
            "can0",
            CanFrame::data_frame(CanId::from_raw(1), &[]).unwrap(),
        );
        assert!(
            (e.timestamp_s - 1.0).abs() < 1e-12,
            "50k bits at 50 kbit/s = 1 s"
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_log("no parens can0 1#00").is_err());
        assert!(parse_log("(0.0) can0 999999#00").is_err());
        assert!(parse_log("(0.0) can0 173#0").is_err(), "odd data length");
        assert!(
            parse_log("(0.0) can0 173#112233445566778899").is_err(),
            "9 bytes"
        );
        let e = parse_log("(abc) can0 1#00").unwrap_err();
        assert_eq!(e.line, 1);
        // f64::parse accepts "nan"/"inf"; a capture timestamp must be a
        // real instant (downstream statistics sort by it).
        assert!(parse_log("(nan) can0 1#00").is_err());
        assert!(parse_log("(inf) can0 1#00").is_err());
        // Four bytes, so the length check passes and the slice at byte 2
        // would split 'é'.
        let e = parse_log("(0.0) vcan0 123#0é0").unwrap_err();
        assert_eq!(e.message, "invalid data byte");
        assert!(parse_log("(0.0) can0 173#+F").is_err(), "sign is not hex");
    }

    #[test]
    fn a_signed_identifier_is_rejected() {
        let e = parse_log("(0.0) can0 +73#00").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (1, "invalid identifier"));
        assert_eq!(
            parse_log("(0.0) can0 #00").unwrap_err().message,
            "invalid identifier"
        );
    }

    #[test]
    fn skips_blank_lines() {
        let parsed = parse_log("\n(0.000000) can0 001#AA\n\n").unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].frame.data(), &[0xAA]);
    }
}
