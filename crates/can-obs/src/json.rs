//! Minimal JSON reading/writing for the deterministic snapshot plane.
//!
//! The workspace is offline (no `serde_json`), but two features need to
//! *read* JSON that this crate *writes*: reconstructing a [`crate::Registry`]
//! from its `can-obs/v2` snapshot ([`crate::Registry::from_snapshot_json`])
//! and the `bench::sweep` journal, whose JSONL records embed chunk
//! snapshots. This module is a small, strict, recursive-descent parser for
//! exactly that machine-generated subset of JSON, plus the string escaper
//! both renderers share.
//!
//! Numbers are kept as their raw source token ([`JsonValue::Num`]) and
//! converted on demand — every quantity in the snapshot plane is an
//! integer, and round-tripping through `f64` would be the one way to break
//! byte-identity.

use std::borrow::Cow;
use std::error::Error;
use std::fmt::{self, Write as _};

/// One parsed JSON value. Object member order is preserved (the snapshot
/// renderers emit keys in deterministic order; the parser keeps it).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token.
    Num(String),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source member order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i64`, if this is an integer token.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number token.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub detail: String,
}

impl ParseError {
    pub(crate) fn new(at: usize, detail: impl Into<String>) -> Self {
        ParseError {
            at,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.detail)
    }
}

impl Error for ParseError {}

/// Maximum nesting depth the parser accepts; the snapshot plane is three
/// levels deep, so anything beyond this is corruption, not data.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document. Trailing content (other than whitespace) is
/// rejected — a journal line is exactly one value.
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(ParseError::new(parser.pos, "trailing content after value"));
    }
    Ok(value)
}

/// Reads the JSON string literal whose opening quote is byte `at` of
/// `text`: the unescaped string, borrowed from `text` when it has no
/// escapes, and the offset just past its closing quote.
pub(crate) fn string_at(text: &str, at: usize) -> Result<(Cow<'_, str>, usize), ParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: at,
    };
    let string = parser.string()?;
    Ok((string, parser.pos))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::new(
                self.pos,
                format!("expected '{}'", byte as char),
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(ParseError::new(self.pos, format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError::new(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(ParseError::new(
                self.pos,
                format!("unexpected byte 0x{other:02x}"),
            )),
            None => Err(ParseError::new(self.pos, "unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?.into_owned();
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(ParseError::new(self.pos, "expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(ParseError::new(self.pos, "expected ',' or ']' in array")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number token is ASCII by construction");
        if token.parse::<f64>().is_err() {
            return Err(ParseError::new(start, format!("bad number '{token}'")));
        }
        Ok(JsonValue::Num(token.to_string()))
    }

    /// A string literal, borrowed from the input when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(ParseError::new(self.pos, "unterminated string")),
                Some(b'"') => {
                    let run = self.raw_run(run_start)?;
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let run = self.raw_run(run_start)?;
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| ParseError::new(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(ParseError::new(
                                self.pos - 1,
                                format!("bad escape '\\{}'", other as char),
                            ))
                        }
                    }
                    run_start = self.pos;
                }
                Some(b) if b < 0x20 => {
                    return Err(ParseError::new(self.pos, "raw control byte in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The unescaped byte run `[run_start, pos)`, validated as UTF-8.
    fn raw_run(&self, run_start: usize) -> Result<&'a str, ParseError> {
        std::str::from_utf8(&self.bytes[run_start..self.pos])
            .map_err(|_| ParseError::new(run_start, "invalid UTF-8 in string"))
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by \uDC00..DFFF.
        if (0xD800..=0xDBFF).contains(&first) {
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&second) {
                    let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(code)
                        .ok_or_else(|| ParseError::new(self.pos, "bad surrogate pair"));
                }
            }
            return Err(ParseError::new(self.pos, "lone high surrogate"));
        }
        char::from_u32(first).ok_or_else(|| ParseError::new(self.pos, "bad \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| ParseError::new(self.pos, "truncated \\u escape"))?;
        let text = std::str::from_utf8(slice)
            .map_err(|_| ParseError::new(self.pos, "non-ASCII in \\u escape"))?;
        let value = u32::from_str_radix(text, 16)
            .map_err(|_| ParseError::new(self.pos, "non-hex in \\u escape"))?;
        self.pos += 4;
        Ok(value)
    }
}

/// Escapes a string for embedding inside a JSON string literal. This is
/// the escaper the snapshot and journal renderers share; [`parse`] is its
/// exact inverse.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`], appending to `out` instead of allocating. Runs that need
/// no escaping are copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `n` in decimal: what `write!(out, "{n}")` writes, without the
/// formatting machinery (the journal renderers write five per event).
pub fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scalar_zoo() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let doc = parse("{\"b\": [1, 2, {\"c\": null}], \"a\": -3}").unwrap();
        let members = doc.as_object().unwrap();
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(doc.get("a").unwrap().as_i64(), Some(-3));
        let array = doc.get("b").unwrap().as_array().unwrap();
        assert_eq!(array.len(), 3);
        assert_eq!(array[2].get("c"), Some(&JsonValue::Null));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f\u{1F980}g";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs_decode() {
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        assert_eq!(parse("\"\\ud83e\\udd80\"").unwrap().as_str(), Some("🦀"));
        assert!(parse("\"\\ud83e\"").is_err(), "lone surrogate rejected");
    }

    #[test]
    fn rejects_garbage_with_positions() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\": 1} x").is_err(), "trailing content");
        assert!(parse("\"unterminated").is_err());
        let err = parse("{\"a\": nope}").unwrap_err();
        assert!(err.at > 0, "position recorded: {err}");
        assert!(parse("12..5").is_err(), "malformed number");
    }

    #[test]
    fn u64_range_numbers_survive_exactly() {
        let max = u64::MAX.to_string();
        assert_eq!(parse(&max).unwrap().as_u64(), Some(u64::MAX));
        // Would be lossy through f64; the raw-token representation is not.
        let tricky = "9007199254740993";
        assert_eq!(parse(tricky).unwrap().as_u64(), Some(9007199254740993));
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
