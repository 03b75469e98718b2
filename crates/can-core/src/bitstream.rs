//! Wire-level form of CAN frames: field layout, bit stuffing and destuffing.
//!
//! CAN 2.0A transmits a data frame as (Fig. 1a of the paper):
//!
//! ```text
//! SOF | 11-bit ID | RTR | IDE | r0 | DLC(4) | DATA(0–64) | CRC-15 |
//! CRC delim | ACK slot | ACK delim | EOF(7)
//! ```
//!
//! Bit stuffing applies from the SOF through the end of the CRC sequence:
//! after five consecutive bits of equal level the transmitter inserts one
//! bit of the opposite level. Six consecutive equal levels inside that
//! region are therefore always a *stuff error* — the mechanism MichiCAN's
//! counterattack exploits.

use serde::{Deserialize, Serialize};

use crate::crc::Crc15;
use crate::errors::DecodeError;
use crate::frame::CanFrame;
use crate::id::CanId;
use crate::level::Level;
use crate::packed;

/// Run length after which a stuff bit is inserted.
pub const STUFF_RUN: usize = 5;

/// Number of recessive end-of-frame bits.
pub const EOF_BITS: usize = 7;

/// Number of recessive intermission (inter-frame space) bits after EOF.
pub const IFS_BITS: usize = 3;

/// Minimum number of recessive bits between two frames on an idle bus
/// (ACK delimiter + EOF + IFS), as stated in paper §II-A.
pub const MIN_INTERFRAME_RECESSIVE: usize = 1 + EOF_BITS + IFS_BITS;

/// The fields of a CAN 2.0A data frame, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameField {
    /// Start-of-frame bit (dominant).
    Sof,
    /// The 11-bit identifier.
    Id,
    /// Remote-transmission-request bit.
    Rtr,
    /// Identifier-extension bit (dominant for 2.0A).
    Ide,
    /// Reserved bit r0 (dominant).
    R0,
    /// 4-bit data length code.
    Dlc,
    /// 0–8 payload bytes.
    Data,
    /// 15-bit CRC sequence.
    Crc,
    /// CRC delimiter (recessive).
    CrcDelim,
    /// ACK slot (transmitter recessive; receivers assert dominant).
    AckSlot,
    /// ACK delimiter (recessive).
    AckDelim,
    /// 7 recessive end-of-frame bits.
    Eof,
}

impl FrameField {
    /// All fields in wire order.
    pub const ALL: [FrameField; 12] = [
        FrameField::Sof,
        FrameField::Id,
        FrameField::Rtr,
        FrameField::Ide,
        FrameField::R0,
        FrameField::Dlc,
        FrameField::Data,
        FrameField::Crc,
        FrameField::CrcDelim,
        FrameField::AckSlot,
        FrameField::AckDelim,
        FrameField::Eof,
    ];

    /// Human-readable field name as printed in Fig. 1a.
    pub const fn name(self) -> &'static str {
        match self {
            FrameField::Sof => "SOF",
            FrameField::Id => "CAN ID",
            FrameField::Rtr => "RTR",
            FrameField::Ide => "IDE",
            FrameField::R0 => "r0",
            FrameField::Dlc => "DLC",
            FrameField::Data => "Data",
            FrameField::Crc => "CRC-15",
            FrameField::CrcDelim => "CRC delimiter",
            FrameField::AckSlot => "ACK slot",
            FrameField::AckDelim => "ACK delimiter",
            FrameField::Eof => "EOF",
        }
    }
}

/// Field spans of a frame in *unstuffed* bit coordinates (half-open ranges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameLayout {
    data_bits: usize,
}

impl FrameLayout {
    /// Layout of a frame carrying `data_bytes` payload bytes (0 for remote
    /// frames).
    pub fn for_payload(data_bytes: usize) -> Self {
        assert!(data_bytes <= 8, "CAN 2.0A payload is at most 8 bytes");
        FrameLayout {
            data_bits: data_bytes * 8,
        }
    }

    /// Layout matching a specific frame.
    pub fn of(frame: &CanFrame) -> Self {
        Self::for_payload(if frame.is_remote() {
            0
        } else {
            frame.dlc() as usize
        })
    }

    /// The half-open unstuffed bit range occupied by `field`.
    pub fn span(&self, field: FrameField) -> core::ops::Range<usize> {
        let d = self.data_bits;
        match field {
            FrameField::Sof => 0..1,
            FrameField::Id => 1..12,
            FrameField::Rtr => 12..13,
            FrameField::Ide => 13..14,
            FrameField::R0 => 14..15,
            FrameField::Dlc => 15..19,
            FrameField::Data => 19..19 + d,
            FrameField::Crc => 19 + d..34 + d,
            FrameField::CrcDelim => 34 + d..35 + d,
            FrameField::AckSlot => 35 + d..36 + d,
            FrameField::AckDelim => 36 + d..37 + d,
            FrameField::Eof => 37 + d..44 + d,
        }
    }

    /// Total unstuffed frame length in bits (SOF through EOF).
    pub fn total_bits(&self) -> usize {
        self.span(FrameField::Eof).end
    }

    /// Unstuffed length of the stuffed region (SOF through CRC sequence).
    pub fn stuffed_region_bits(&self) -> usize {
        self.span(FrameField::Crc).end
    }
}

/// Produces the unstuffed bit sequence of a frame as the transmitter sends
/// it (ACK slot recessive).
///
/// The CRC is computed over SOF through the end of the data field.
pub fn unstuffed_bits(frame: &CanFrame) -> Vec<Level> {
    let layout = FrameLayout::of(frame);
    let mut bits = Vec::with_capacity(layout.total_bits());

    // SOF
    bits.push(Level::Dominant);
    // 11-bit identifier, MSB first
    bits.extend(frame.id().bits());
    // RTR
    bits.push(Level::from_bit(frame.is_remote()));
    // IDE (dominant = base format), r0 (dominant)
    bits.push(Level::Dominant);
    bits.push(Level::Dominant);
    // DLC, MSB first
    for i in (0..4).rev() {
        bits.push(Level::from_bit((frame.dlc() >> i) & 1 == 1));
    }
    // Data
    if !frame.is_remote() {
        for byte in frame.data() {
            for i in (0..8).rev() {
                bits.push(Level::from_bit((byte >> i) & 1 == 1));
            }
        }
    }
    // CRC over everything so far
    let mut crc = Crc15::new();
    crc.push_bits(&bits);
    let crc_value = crc.value();
    for i in (0..15).rev() {
        bits.push(Level::from_bit((crc_value >> i) & 1 == 1));
    }
    // CRC delimiter, ACK slot (transmitter sends recessive), ACK delimiter
    bits.push(Level::Recessive);
    bits.push(Level::Recessive);
    bits.push(Level::Recessive);
    // EOF
    bits.extend(std::iter::repeat_n(Level::Recessive, EOF_BITS));

    debug_assert_eq!(bits.len(), layout.total_bits());
    bits
}

/// A frame serialized to the wire, with stuff bits inserted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// The stuffed bit sequence (SOF through EOF) as driven by the
    /// transmitter.
    pub bits: Vec<Level>,
    /// Indices into [`WireFrame::bits`] that are stuff bits.
    pub stuff_positions: Vec<usize>,
    /// Length of the stuffed region (SOF through CRC, after stuffing).
    pub stuffed_region_len: usize,
}

impl WireFrame {
    /// Number of stuff bits inserted.
    pub fn stuff_count(&self) -> usize {
        self.stuff_positions.len()
    }
}

/// Serializes a frame to the wire, applying bit stuffing to the region from
/// SOF through the CRC sequence: [`encode_frame`] unpacked to levels.
///
/// ```
/// use can_core::bitstream::stuff_frame;
/// use can_core::{CanFrame, CanId};
///
/// // ID 0x000 starts with SOF + 11 dominant bits: stuffing must kick in.
/// let frame = CanFrame::data_frame(CanId::from_raw(0), &[]).unwrap();
/// let wire = stuff_frame(&frame);
/// assert!(wire.stuff_count() >= 2);
/// ```
pub fn stuff_frame(frame: &CanFrame) -> WireFrame {
    encode_frame(frame).unpack()
}

/// Words in a [`PackedWire`]: the longest 2.0A frame is 108 unstuffed bits
/// plus at most 24 stuff bits.
pub const WIRE_WORDS: usize = 3;

/// A frame's stuffed wire as packed dominant-mask words
/// ([`crate::packed`]: LSB-first, bit set = dominant), with no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedWire {
    /// The wire bits, SOF through EOF; bits at and past `len` are zero.
    pub words: [u64; WIRE_WORDS],
    /// Bit `i` is set iff wire bit `i` is a stuff bit.
    pub stuff_mask: [u64; WIRE_WORDS],
    /// Wire length in bits.
    pub len: usize,
    /// Length of the stuffed region (SOF through CRC, after stuffing).
    pub stuffed_region_len: usize,
}

impl PackedWire {
    /// The level of wire bit `i` (< `len`).
    #[inline]
    pub fn level(&self, i: usize) -> Level {
        packed::level_at(self.words[i / 64], (i % 64) as u32)
    }

    /// Whether wire bit `i` is a stuff bit.
    #[inline]
    pub fn is_stuff_bit(&self, i: usize) -> bool {
        (self.stuff_mask[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The same wire as levels and stuff-bit indices.
    pub fn unpack(&self) -> WireFrame {
        WireFrame {
            bits: (0..self.len).map(|i| self.level(i)).collect(),
            stuff_positions: (0..self.len).filter(|&i| self.is_stuff_bit(i)).collect(),
            stuffed_region_len: self.stuffed_region_len,
        }
    }

    /// Appends the low `n` bits of `word` (`n` ≤ 64).
    fn append(&mut self, word: u64, n: u32) {
        let bits = word & packed::low_mask(n);
        let (w, off) = (self.len / 64, (self.len % 64) as u32);
        self.words[w] |= bits << off;
        if off + n > 64 {
            self.words[w + 1] |= bits >> (64 - off);
        }
        self.len += n as usize;
    }
}

/// The word-level stuffing encoder: serializes a frame straight into
/// packed words. The stuffed region's logical bits are assembled in one
/// `u128`, its CRC runs eight bits per table lookup, and the stuffer takes
/// the plain span up to each run of five in one step
/// ([`Stuffer::push_word`]).
pub fn encode_frame(frame: &CanFrame) -> PackedWire {
    let layout = FrameLayout::of(frame);
    // SOF (0), identifier, RTR, IDE (0), r0 (0), DLC, data: logical bits,
    // the first on the wire most significant.
    let mut value = u128::from(frame.id().raw());
    value = (value << 1) | u128::from(frame.is_remote());
    value = (value << 6) | u128::from(frame.dlc());
    for &byte in frame.data() {
        value = (value << 8) | u128::from(byte);
    }
    let header = layout.span(FrameField::Crc).start as u32;
    let mut crc = Crc15::new();
    let high = header.saturating_sub(64);
    crc.push_msb((value >> 64) as u64, high);
    crc.push_msb(value as u64, header - high);
    value = (value << 15) | u128::from(crc.value());
    let region = layout.stuffed_region_bits() as u32;
    // Wire order (first bit lowest), dominant = 1.
    let raw = (!value & ((1u128 << region) - 1)).reverse_bits() >> (128 - region);

    let mut wire = PackedWire {
        words: [0; WIRE_WORDS],
        stuff_mask: [0; WIRE_WORDS],
        len: 0,
        stuffed_region_len: 0,
    };
    let mut stuffer = Stuffer::new();
    let mut at = 0;
    while at < region {
        let chunk = (raw >> at) as u64;
        let (took, stuff) = stuffer.push_word(chunk, (region - at).min(64));
        wire.append(chunk, took);
        at += took;
        if let Some(level) = stuff {
            wire.stuff_mask[wire.len / 64] |= 1 << (wire.len % 64);
            wire.append(u64::from(level.is_dominant()), 1);
        }
    }
    wire.stuffed_region_len = wire.len;
    // CRC delimiter, ACK slot (sent recessive), ACK delimiter, EOF: the
    // words are already recessive there.
    wire.len += layout.total_bits() - layout.stuffed_region_bits();
    wire
}

/// Offset of the first of the low `len` bits of `word` (a dominant mask)
/// that completes a run of [`STUFF_RUN`] equal levels, given the run
/// `(level, run_len)` carried in (`run_len` < [`STUFF_RUN`]).
///
/// The carried run becomes four history bits below the word; a run of
/// five ends at bit `p` of a mask `x` iff bit `p` of
/// `x & x<<1 & x<<2 & x<<3 & x<<4` is set, on the dominant mask and on its
/// complement.
fn first_run_end(word: u64, len: u32, level: Option<Level>, run_len: usize) -> Option<u32> {
    const HISTORY: usize = STUFF_RUN - 1;
    debug_assert!(run_len < STUFF_RUN);
    let carried = ((1u128 << run_len) - 1) << (HISTORY - run_len);
    let (dom_history, rec_history) = match level {
        Some(Level::Dominant) => (carried, 0),
        Some(Level::Recessive) => (0, carried),
        None => (0, 0),
    };
    let live = packed::low_mask(len);
    let dom = (u128::from(word & live) << HISTORY) | dom_history;
    let rec = (u128::from(!word & live) << HISTORY) | rec_history;
    let fives = |x: u128| x & (x << 1) & (x << 2) & (x << 3) & (x << 4);
    let ends = (fives(dom) | fives(rec)) >> HISTORY;
    (ends != 0).then(|| ends.trailing_zeros())
}

/// The run of equal levels after the first `k` (1..=64) bits of `word`,
/// given the run `(level, run_len)` carried in.
fn run_after(word: u64, k: u32, level: Option<Level>, run_len: usize) -> (Option<Level>, usize) {
    let last = packed::level_at(word, k - 1);
    let same = if last.is_dominant() { word } else { !word };
    let tail = (same << (64 - k)).leading_ones() as usize;
    if tail == k as usize && level == Some(last) {
        (Some(last), run_len + tail)
    } else {
        (Some(last), tail)
    }
}

/// Streaming bit-stuffing encoder.
///
/// Feed each payload bit with [`Stuffer::push`]; when it returns
/// `Some(level)`, the transmitter must insert that stuff bit before the next
/// payload bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stuffer {
    run_level: Option<Level>,
    run_len: usize,
}

impl Stuffer {
    /// Creates an encoder with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one payload bit; returns the stuff bit to insert, if any.
    pub fn push(&mut self, bit: Level) -> Option<Level> {
        match self.run_level {
            Some(level) if level == bit => self.run_len += 1,
            _ => {
                self.run_level = Some(bit);
                self.run_len = 1;
            }
        }
        if self.run_len == STUFF_RUN {
            let stuff = bit.opposite();
            // The stuff bit participates in subsequent run counting.
            self.run_level = Some(stuff);
            self.run_len = 1;
            Some(stuff)
        } else {
            None
        }
    }

    /// Feeds up to `len` payload bits of `word` (a dominant mask) at once:
    /// returns how many it took, stopping after the first bit that needs
    /// a stuff bit, and that stuff bit. Equal to as many
    /// [`Stuffer::push`] calls.
    pub fn push_word(&mut self, word: u64, len: u32) -> (u32, Option<Level>) {
        match first_run_end(word, len, self.run_level, self.run_len) {
            Some(end) => {
                let stuff = packed::level_at(word, end).opposite();
                self.run_level = Some(stuff);
                self.run_len = 1;
                (end + 1, Some(stuff))
            }
            None => {
                if len > 0 {
                    (self.run_level, self.run_len) =
                        run_after(word, len, self.run_level, self.run_len);
                }
                (len, None)
            }
        }
    }

    /// Resets the run history (e.g. at a new SOF).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Outcome of feeding one wire bit to a [`Destuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destuffed {
    /// A payload bit with the given level.
    Bit(Level),
    /// A stuff bit; discard before interpreting fields.
    StuffBit,
    /// Six consecutive equal levels: a stuff error.
    Violation,
}

/// Streaming bit-destuffing decoder with stuff-error detection.
///
/// Mirrors the behaviour of a receiving CAN controller over the stuffed
/// region of a frame, and of MichiCAN's Algorithm 1 lines 6–15.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Destuffer {
    run_level: Option<Level>,
    run_len: usize,
    expect_stuff: bool,
}

impl Destuffer {
    /// Creates a decoder with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one wire bit.
    pub fn push(&mut self, bit: Level) -> Destuffed {
        if self.expect_stuff {
            self.expect_stuff = false;
            let prev = self.run_level.expect("stuff expectation implies history");
            if bit == prev {
                // Sixth equal bit: stuff error.
                self.run_level = Some(bit);
                self.run_len += 1;
                return Destuffed::Violation;
            }
            self.run_level = Some(bit);
            self.run_len = 1;
            return Destuffed::StuffBit;
        }

        match self.run_level {
            Some(level) if level == bit => self.run_len += 1,
            _ => {
                self.run_level = Some(bit);
                self.run_len = 1;
            }
        }
        if self.run_len == STUFF_RUN {
            self.expect_stuff = true;
        }
        Destuffed::Bit(bit)
    }

    /// Destuffs up to `len` wire bits of `word` (a dominant mask) at once,
    /// keeping at most `max` (≤ 64) data bits: finds each run of five with
    /// shifted-AND masks and drops the stuff bit after it. Returns the
    /// wire bits consumed and the data bits kept, as logical values (`1` =
    /// recessive) with the first most significant, and their count.
    ///
    /// Stops before a stuff violation, which [`Destuffer::push`] reports,
    /// and once `max` data bits are kept and no stuff bit is expected.
    /// Equal to as many [`Destuffer::push`] calls, none a violation.
    pub fn push_word(&mut self, word: u64, len: u32, max: u32) -> (u32, u64, u32) {
        debug_assert!(max <= packed::WORD_BITS);
        let (mut at, mut data, mut kept) = (0, 0u64, 0);
        while at < len {
            if self.expect_stuff {
                let bit = packed::level_at(word, at);
                if Some(bit) == self.run_level {
                    break; // the sixth equal bit: a violation
                }
                (self.run_level, self.run_len, self.expect_stuff) = (Some(bit), 1, false);
                at += 1;
                continue;
            }
            if kept == max || self.run_len >= STUFF_RUN {
                break; // full, or past a violation
            }
            let rest = word >> at;
            let span = (len - at).min(max - kept);
            let took =
                first_run_end(rest, span, self.run_level, self.run_len).map_or(span, |end| end + 1);
            (self.run_level, self.run_len) = run_after(rest, took, self.run_level, self.run_len);
            self.expect_stuff = self.run_len == STUFF_RUN;
            // Logical values, the first bit most significant.
            let bits = (!rest << (64 - took)).reverse_bits();
            data = if took == 64 {
                bits
            } else {
                (data << took) | bits
            };
            kept += took;
            at += took;
        }
        (at, data, kept)
    }

    /// Resets the run history (e.g. at a new SOF).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Whether the next wire bit is expected to be a stuff bit.
    pub fn expecting_stuff(&self) -> bool {
        self.expect_stuff
    }

    /// How many further wire bits all at `level` it takes to destuff
    /// `bits` more data bits. A stuff bit and the one violation (the sixth
    /// equal bit) count nothing; after the violation a constant level
    /// never expects another stuff bit, so this is at most `bits + 2`.
    /// A defender or attacker that drives the bus to `level` knows its own
    /// input, so this is how long its drive lasts.
    pub fn pushes_for_bits(&self, level: Level, bits: u32) -> u64 {
        let mut run = *self;
        let (mut pushes, mut counted) = (0, 0);
        while counted < bits {
            pushes += 1;
            if let Destuffed::Bit(_) = run.push(level) {
                counted += 1;
            }
        }
        pushes
    }

    /// The level and length of the current run of equal bits.
    pub(crate) fn run(&self) -> (Option<Level>, usize) {
        (self.run_level, self.run_len)
    }
}

/// Decodes a complete *stuffed* wire bit sequence back into a frame,
/// verifying stuffing, CRC and fixed-form fields.
///
/// The sequence must start at the SOF. The ACK slot may be either level
/// (receivers assert it dominant on a live bus).
///
/// # Errors
///
/// Returns a [`DecodeError`] describing the first protocol violation.
pub fn decode_frame(wire: &[Level]) -> Result<CanFrame, DecodeError> {
    // First destuff enough of the stream to know the DLC, then the rest.
    let mut destuffer = Destuffer::new();
    let mut unstuffed = Vec::with_capacity(wire.len());
    let mut wire_iter = wire.iter().copied().enumerate();

    // Helper: pull destuffed bits until `unstuffed` reaches `target` length.
    let mut fill_to = |target: usize,
                       unstuffed: &mut Vec<Level>,
                       destuffer: &mut Destuffer|
     -> Result<(), DecodeError> {
        while unstuffed.len() < target {
            let (pos, bit) = wire_iter.next().ok_or(DecodeError::Truncated)?;
            match destuffer.push(bit) {
                Destuffed::Bit(b) => unstuffed.push(b),
                Destuffed::StuffBit => {}
                Destuffed::Violation => return Err(DecodeError::StuffViolation { position: pos }),
            }
        }
        Ok(())
    };

    // SOF + ID + RTR + IDE + r0 + DLC = 19 unstuffed bits.
    fill_to(19, &mut unstuffed, &mut destuffer)?;
    if unstuffed[0].is_recessive() {
        return Err(DecodeError::FormViolation {
            position: 0,
            field: "SOF",
        });
    }
    if unstuffed[13].is_recessive() {
        return Err(DecodeError::ExtendedFrame);
    }
    let id_raw = unstuffed[1..12]
        .iter()
        .fold(0u16, |acc, l| (acc << 1) | l.to_bit() as u16);
    let id = CanId::new(id_raw).expect("11 bits always fit");
    let rtr = unstuffed[12].to_bit();
    let dlc_raw = unstuffed[15..19]
        .iter()
        .fold(0u8, |acc, l| (acc << 1) | l.to_bit() as u8);
    // DLC values 9..15 mean 8 data bytes per ISO 11898-1.
    let data_bytes = if rtr { 0 } else { dlc_raw.min(8) as usize };

    let layout = FrameLayout::for_payload(data_bytes);
    // Destuff through the CRC sequence.
    fill_to(layout.stuffed_region_bits(), &mut unstuffed, &mut destuffer)?;
    // A run of five ending exactly at the last CRC bit still forces one
    // final stuff bit on the wire, transmitted before the CRC delimiter.
    if destuffer.expecting_stuff() {
        let (pos, bit) = wire_iter.next().ok_or(DecodeError::Truncated)?;
        if let Destuffed::Violation = destuffer.push(bit) {
            return Err(DecodeError::StuffViolation { position: pos });
        }
    }

    // The remaining fields are not stuffed.
    let tail_len = layout.total_bits() - layout.stuffed_region_bits();
    let mut tail = Vec::with_capacity(tail_len);
    for _ in 0..tail_len {
        let (_, bit) = wire_iter.next().ok_or(DecodeError::Truncated)?;
        tail.push(bit);
    }

    // CRC check.
    let crc_span = layout.span(FrameField::Crc);
    let mut crc = Crc15::new();
    crc.push_bits(&unstuffed[..crc_span.start]);
    let computed = crc.value();
    let received = unstuffed[crc_span.clone()]
        .iter()
        .fold(0u16, |acc, l| (acc << 1) | l.to_bit() as u16);
    if computed != received {
        return Err(DecodeError::CrcMismatch { computed, received });
    }

    // Form checks on the unstuffed tail: CRC delim, ACK delim, EOF must be
    // recessive. (ACK slot may be either.)
    let tail_base = layout.stuffed_region_bits();
    for (offset, field) in [(0usize, "CRC delimiter"), (2, "ACK delimiter")] {
        if tail[offset].is_dominant() {
            return Err(DecodeError::FormViolation {
                position: tail_base + offset,
                field,
            });
        }
    }
    for i in 0..EOF_BITS {
        // A dominant level at the very last EOF bit is tolerated by
        // receivers (it signals an overload condition, not an error).
        if tail[3 + i].is_dominant() && i != EOF_BITS - 1 {
            return Err(DecodeError::FormViolation {
                position: tail_base + 3 + i,
                field: "EOF",
            });
        }
    }

    // Reassemble the payload.
    let data_span = layout.span(FrameField::Data);
    let mut data = [0u8; 8];
    for (i, chunk) in unstuffed[data_span].chunks(8).enumerate() {
        data[i] = chunk
            .iter()
            .fold(0u8, |acc, l| (acc << 1) | l.to_bit() as u8);
    }

    if rtr {
        Ok(CanFrame::remote_frame(id, dlc_raw.min(8)).expect("validated DLC"))
    } else {
        Ok(CanFrame::data_frame(id, &data[..data_bytes]).expect("validated payload"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::CanFrame;

    fn id(raw: u16) -> CanId {
        CanId::from_raw(raw)
    }

    #[test]
    fn layout_spans_are_contiguous() {
        for payload in 0..=8usize {
            let layout = FrameLayout::for_payload(payload);
            let mut expected_start = 0;
            for field in FrameField::ALL {
                let span = layout.span(field);
                assert_eq!(span.start, expected_start, "{field:?} with {payload} bytes");
                expected_start = span.end;
            }
            assert_eq!(layout.total_bits(), 44 + payload * 8);
        }
    }

    #[test]
    fn field_boundaries() {
        let layout = FrameLayout::for_payload(8);
        assert_eq!(layout.span(FrameField::Sof), 0..1);
        assert_eq!(layout.span(FrameField::Id), 1..12);
        assert_eq!(layout.span(FrameField::Rtr), 12..13);
        assert!(layout.span(FrameField::Data).contains(&19));
        assert_eq!(layout.span(FrameField::Eof).end, layout.total_bits());
    }

    #[test]
    fn zero_payload_data_field_is_empty() {
        let layout = FrameLayout::for_payload(0);
        assert!(layout.span(FrameField::Data).is_empty());
        assert_eq!(layout.span(FrameField::Crc).start, 19);
    }

    #[test]
    fn stuffer_inserts_after_five() {
        let mut stuffer = Stuffer::new();
        for _ in 0..4 {
            assert_eq!(stuffer.push(Level::Dominant), None);
        }
        assert_eq!(stuffer.push(Level::Dominant), Some(Level::Recessive));
    }

    #[test]
    fn stuff_bit_participates_in_next_run() {
        let mut stuffer = Stuffer::new();
        for _ in 0..4 {
            assert_eq!(stuffer.push(Level::Dominant), None);
        }
        // 5th dominant inserts a recessive stuff bit.
        assert_eq!(stuffer.push(Level::Dominant), Some(Level::Recessive));
        // Now four more recessive payload bits complete a run of five
        // (stuff bit + 4) and trigger another stuff bit.
        for _ in 0..3 {
            assert_eq!(stuffer.push(Level::Recessive), None);
        }
        assert_eq!(stuffer.push(Level::Recessive), Some(Level::Dominant));
    }

    #[test]
    fn destuffer_round_trips_stuffer() {
        // Alternating and run-heavy patterns.
        let patterns: Vec<Vec<Level>> = vec![
            vec![Level::Dominant; 20],
            vec![Level::Recessive; 20],
            (0..40).map(|i| Level::from_bit(i % 2 == 0)).collect(),
            (0..40).map(|i| Level::from_bit(i % 7 < 3)).collect(),
        ];
        for payload in patterns {
            let mut stuffer = Stuffer::new();
            let mut wire = Vec::new();
            for &bit in &payload {
                wire.push(bit);
                if let Some(s) = stuffer.push(bit) {
                    wire.push(s);
                }
            }
            let mut destuffer = Destuffer::new();
            let mut recovered = Vec::new();
            for &bit in &wire {
                match destuffer.push(bit) {
                    Destuffed::Bit(b) => recovered.push(b),
                    Destuffed::StuffBit => {}
                    Destuffed::Violation => panic!("round trip must not violate"),
                }
            }
            assert_eq!(recovered, payload);
        }
    }

    /// Words biased towards long runs, from a fixed xorshift sequence.
    fn run_heavy_words(count: usize) -> Vec<u64> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let (a, b) = (next(), next());
                // Toggles at one bit in eight: runs of eight on average.
                let toggles = a & b & next();
                (0..64)
                    .fold((0u64, false), |(word, level), i| {
                        let level = level ^ ((toggles >> i) & 1 == 1);
                        (word | (u64::from(level) << i), level)
                    })
                    .0
            })
            .collect()
    }

    #[test]
    fn word_destuffing_equals_per_bit_destuffing() {
        for (k, word) in run_heavy_words(2000).into_iter().enumerate() {
            let len = 1 + (k as u32 * 7) % 64;
            let max = (k as u32 * 13) % 65;
            let mut by_word = Destuffer::new();
            for _ in 0..k % 5 {
                let _ = by_word.push(Level::from_bit(k % 3 == 0));
            }
            let mut by_bit = by_word;
            let (consumed, data, kept) = by_word.push_word(word, len, max);
            let (mut bits, mut count) = (0u64, 0);
            for i in 0..consumed {
                match by_bit.push(packed::level_at(word, i)) {
                    Destuffed::Bit(level) => {
                        bits = (bits << 1) | u64::from(level.to_bit());
                        count += 1;
                    }
                    Destuffed::StuffBit => {}
                    Destuffed::Violation => panic!("word {word:#x}: consumed a violation"),
                }
            }
            assert_eq!(
                (data, kept),
                (bits, count),
                "word {word:#x} len {len} max {max}"
            );
            assert_eq!(by_word, by_bit, "word {word:#x} len {len} max {max}");
            // It stops only at the end, at `max` kept bits or before a
            // violation.
            if consumed < len && kept < max {
                let next = packed::level_at(word, consumed);
                assert_eq!(by_bit.push(next), Destuffed::Violation);
            }
        }
    }

    #[test]
    fn word_stuffing_equals_per_bit_stuffing() {
        for (k, word) in run_heavy_words(2000).into_iter().enumerate() {
            let len = 1 + (k as u32 * 7) % 64;
            let mut by_word = Stuffer::new();
            let mut by_bit = Stuffer::new();
            let (took, stuff) = by_word.push_word(word, len);
            let mut expected = (len, None);
            for i in 0..len {
                if let Some(level) = by_bit.push(packed::level_at(word, i)) {
                    expected = (i + 1, Some(level));
                    break;
                }
            }
            assert_eq!((took, stuff), expected, "word {word:#x} len {len}");
            assert_eq!(
                (by_word.run_level, by_word.run_len),
                (by_bit.run_level, by_bit.run_len)
            );
        }
    }

    #[test]
    fn destuffer_flags_six_equal_bits() {
        let mut destuffer = Destuffer::new();
        for _ in 0..5 {
            assert!(matches!(destuffer.push(Level::Dominant), Destuffed::Bit(_)));
        }
        assert!(destuffer.expecting_stuff());
        assert_eq!(destuffer.push(Level::Dominant), Destuffed::Violation);
    }

    #[test]
    fn pushes_for_bits_skips_the_stuff_bit_and_the_one_violation() {
        let mut destuffer = Destuffer::new();
        assert_eq!(destuffer.pushes_for_bits(Level::Dominant, 0), 0);
        // Five counted bits, the violation, then every bit counts.
        assert_eq!(destuffer.pushes_for_bits(Level::Dominant, 5), 5);
        assert_eq!(destuffer.pushes_for_bits(Level::Dominant, 6), 7);
        assert_eq!(destuffer.pushes_for_bits(Level::Dominant, 20), 21);
        // After five recessive bits a dominant one is a stuff bit, and the
        // run it starts hits the violation four bits later.
        for _ in 0..5 {
            let _ = destuffer.push(Level::Recessive);
        }
        assert_eq!(destuffer.pushes_for_bits(Level::Dominant, 4), 5);
        assert_eq!(destuffer.pushes_for_bits(Level::Dominant, 5), 7);
    }

    #[test]
    fn wire_frame_has_expected_structure() {
        let frame = CanFrame::data_frame(id(0x173), &[0x11, 0x22, 0x33]).unwrap();
        let wire = stuff_frame(&frame);
        assert_eq!(wire.bits[0], Level::Dominant, "SOF");
        let unstuffed_len = FrameLayout::of(&frame).total_bits();
        assert_eq!(wire.bits.len(), unstuffed_len + wire.stuff_count());
        // EOF tail is recessive.
        for &bit in &wire.bits[wire.bits.len() - EOF_BITS..] {
            assert_eq!(bit, Level::Recessive);
        }
    }

    #[test]
    fn all_zero_id_produces_stuffing() {
        // SOF + ID 0x000 is 12 consecutive dominant bits: stuff bits at
        // positions 5 and 11 of the wire (after each run of five).
        let frame = CanFrame::data_frame(id(0), &[]).unwrap();
        let wire = stuff_frame(&frame);
        assert_eq!(wire.stuff_positions[0], 5);
        assert_eq!(wire.bits[5], Level::Recessive);
    }

    #[test]
    fn no_six_equal_in_stuffed_region() {
        // Property sampled over a spread of IDs/payloads: the stuffed
        // region never contains six consecutive equal levels.
        for raw in (0..=0x7FF).step_by(37) {
            let payload = [(raw & 0xFF) as u8; 4];
            let frame = CanFrame::data_frame(id(raw), &payload).unwrap();
            let wire = stuff_frame(&frame);
            let region = &wire.bits[..wire.stuffed_region_len];
            let max_run = region.windows(6).all(|w| !(w.iter().all(|&b| b == w[0])));
            assert!(
                max_run,
                "id {raw:#x} produced 6 equal bits in stuffed region"
            );
        }
    }

    #[test]
    fn decode_round_trips_all_dlcs() {
        for dlc in 0..=8usize {
            let payload: Vec<u8> = (0..dlc).map(|i| (i * 31 + 7) as u8).collect();
            let frame = CanFrame::data_frame(id(0x400 + dlc as u16), &payload).unwrap();
            let wire = stuff_frame(&frame);
            let decoded = decode_frame(&wire.bits).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn decode_round_trips_remote_frame() {
        let frame = CanFrame::remote_frame(id(0x123), 0).unwrap();
        let wire = stuff_frame(&frame);
        assert_eq!(decode_frame(&wire.bits).unwrap(), frame);
    }

    #[test]
    fn decode_accepts_dominant_ack_slot() {
        let frame = CanFrame::data_frame(id(0x321), &[5, 6]).unwrap();
        let mut wire = stuff_frame(&frame);
        let layout = FrameLayout::of(&frame);
        // On a live bus receivers assert the ACK slot dominant. The slot is
        // in the unstuffed tail, offset by the number of stuff bits.
        let ack_index = layout.span(FrameField::AckSlot).start + wire.stuff_count();
        wire.bits[ack_index] = Level::Dominant;
        assert_eq!(decode_frame(&wire.bits).unwrap(), frame);
    }

    #[test]
    fn decode_rejects_corrupted_crc() {
        let frame = CanFrame::data_frame(id(0x222), &[1, 2, 3, 4]).unwrap();
        let mut wire = stuff_frame(&frame);
        // Flip a data bit well inside the stuffed region. Flipping may break
        // stuffing instead of the CRC; accept either rejection.
        wire.bits[25] = wire.bits[25].opposite();
        let err = decode_frame(&wire.bits).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::CrcMismatch { .. } | DecodeError::StuffViolation { .. }
            ),
            "corruption must be detected, got {err:?}"
        );
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let frame = CanFrame::data_frame(id(0x100), &[9; 8]).unwrap();
        let wire = stuff_frame(&frame);
        let err = decode_frame(&wire.bits[..30]).unwrap_err();
        assert_eq!(err, DecodeError::Truncated);
    }

    #[test]
    fn decode_rejects_extended_frames() {
        let frame = CanFrame::data_frame(id(0x155), &[]).unwrap();
        let mut wire = stuff_frame(&frame);
        // 0x155 alternates bits, so no stuff bits occur before the IDE bit
        // at unstuffed index 13.
        assert!(wire.stuff_positions.iter().all(|&p| p > 13));
        wire.bits[13] = Level::Recessive; // IDE = 1 ⇒ extended format
        assert_eq!(
            decode_frame(&wire.bits).unwrap_err(),
            DecodeError::ExtendedFrame
        );
    }

    #[test]
    fn average_frame_size_matches_paper() {
        // Paper: "an average CAN frame consists of 125 bits" including
        // stuff bits and intermission. An 8-byte frame is 108 unstuffed
        // bits; with typical stuffing + 3-bit IFS this lands near 115–125.
        let frame = CanFrame::data_frame(id(0x3A5), &[0xA5; 8]).unwrap();
        let wire = stuff_frame(&frame);
        let with_ifs = wire.bits.len() + IFS_BITS;
        assert!(
            (108 + 3..=133).contains(&with_ifs),
            "8-byte frame on the bus was {with_ifs} bits"
        );
    }

    #[test]
    fn field_names_cover_fig_1a() {
        let names: Vec<&str> = FrameField::ALL.iter().map(|f| f.name()).collect();
        assert!(names.contains(&"SOF"));
        assert!(names.contains(&"CAN ID"));
        assert!(names.contains(&"CRC-15"));
        assert!(names.contains(&"EOF"));
    }
}
