//! Streaming receive-path parser.
//!
//! Every active node — receiver *or* transmitter — runs one [`RxParser`]
//! over the bus levels of the current frame. It destuffs, tracks field
//! positions, verifies the CRC and fixed-form bits, and tells the
//! controller when to assert the ACK slot. Transmitters reuse it so that a
//! node losing arbitration can continue as a receiver without missing a
//! bit.

use can_core::bitstream::{Destuffed, Destuffer};
use can_core::crc::Crc15;
use can_core::errors::CanErrorKind;
use can_core::{packed, CanFrame, CanId, Level};

/// Result of feeding one bus bit to the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxEvent {
    /// Nothing notable; keep feeding bits.
    Continue,
    /// The CRC delimiter was just consumed and the CRC matched: the *next*
    /// bit is the ACK slot and a compliant receiver must drive it dominant.
    AckSlotNext,
    /// The frame completed and is valid for this receiver.
    Done(CanFrame),
    /// A protocol error was detected at this bit.
    Fault(CanErrorKind),
}

/// Phase of the streaming parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Inside the stuffed region (SOF through CRC sequence).
    Stuffed,
    /// Expecting a final stuff bit after the last CRC bit.
    FinalStuff,
    CrcDelim,
    AckSlot,
    AckDelim,
    Eof(u8),
    /// Terminal: `Done` or `Fault` already reported.
    Finished,
}

/// Unstuffed index of the last DLC bit: the layout is known once it is in.
const DLC_LAST: usize = 18;

/// A streaming CAN 2.0A frame parser fed with bus levels, starting at the
/// SOF bit.
///
/// The parser is `Copy` and holds no heap: the destuffed bits (at most
/// 98, SOF through the CRC sequence) live in one `u128`, newest bit
/// lowest, and the identifier, DLC, layout and received CRC are read off
/// it. [`RxParser::push`] takes one level; [`RxParser::push_word`] takes a
/// packed word and moves plain spans in bulk.
///
/// Equality is equality of the whole parse state: two equal parsers fed
/// the same levels report the same events and stay equal, which is what
/// lets the packed kernel parse a stretch once for every node in the same
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxParser {
    destuffer: Destuffer,
    /// Destuffed logical bits (`1` = recessive), the latest lowest.
    unstuffed: u128,
    unstuffed_len: u8,
    phase: Phase,
    crc: Crc15,
    crc_ok: bool,
}

impl RxParser {
    /// Creates a parser expecting the SOF as its first bit.
    pub fn new() -> Self {
        RxParser {
            destuffer: Destuffer::new(),
            unstuffed: 0,
            unstuffed_len: 0,
            phase: Phase::Stuffed,
            crc: Crc15::new(),
            crc_ok: false,
        }
    }

    /// The identifier, once the full 11 ID bits have been parsed.
    pub fn id(&self) -> Option<CanId> {
        (self.unstuffed_len() >= 12)
            .then(|| CanId::new(self.field(1, 11) as u16).expect("11 bits always fit"))
    }

    /// Number of unstuffed bits consumed so far.
    pub fn unstuffed_len(&self) -> usize {
        usize::from(self.unstuffed_len)
    }

    /// Whether the parser is currently inside the arbitration field
    /// (SOF + identifier + RTR, unstuffed bits 0..=12).
    pub fn in_arbitration(&self) -> bool {
        self.unstuffed_len() <= 12 && matches!(self.phase, Phase::Stuffed)
    }

    /// The `width` unstuffed bits starting at index `start` (all parsed),
    /// first bit most significant.
    fn field(&self, start: usize, width: usize) -> u64 {
        let shift = self.unstuffed_len() - start - width;
        ((self.unstuffed >> shift) as u64) & packed::low_mask(width as u32)
    }

    fn rtr(&self) -> bool {
        self.field(12, 1) == 1
    }

    fn dlc_raw(&self) -> u8 {
        self.field(15, 4) as u8
    }

    /// Unstuffed index of the first CRC bit, known once the DLC is in.
    fn crc_start(&self) -> usize {
        debug_assert!(self.unstuffed_len() > DLC_LAST);
        let data_bytes = if self.rtr() { 0 } else { self.dlc_raw().min(8) };
        DLC_LAST + 1 + 8 * usize::from(data_bytes)
    }

    /// Feeds the low `n` (≤ 64) levels of the packed word `word`
    /// ([`can_core::packed`]: bit set = dominant, first bit lowest).
    ///
    /// Returns how many leading bits gave [`RxEvent::Continue`] and, when
    /// that is fewer than `n`, the event of the next bit, which is
    /// consumed. Equal to pushing the bits one at a time and stopping at
    /// the first other event. Plain spans move in bulk, destuffed a word
    /// at a time ([`Destuffer::push_word`]): identifier and RTR, r0 and
    /// DLC, data, the CRC sequence but its last bit, and recessive EOF
    /// bits. Every bit that checks or decides something (SOF, IDE, the
    /// last CRC bit and the stuff bit after it, a stuff violation, the
    /// delimiters and the ACK slot, a dominant or last EOF bit) goes
    /// through [`RxParser::push`], so the field state machine exists once.
    pub fn push_word(&mut self, word: u64, n: u32) -> (u32, RxEvent) {
        debug_assert!(n <= packed::WORD_BITS);
        let mut at = 0;
        while at < n {
            let took = self.take_bulk(word >> at, n - at);
            if took > 0 {
                at += took;
                continue;
            }
            match self.push(packed::level_at(word, at)) {
                RxEvent::Continue => at += 1,
                event => return (at, event),
            }
        }
        (n, RxEvent::Continue)
    }

    /// Consumes the plain bits at the start of `word` (at most `n`) that
    /// [`RxParser::push_word`] takes in bulk; returns how many, zero when
    /// the next bit needs [`RxParser::push`].
    fn take_bulk(&mut self, word: u64, n: u32) -> u32 {
        match self.phase {
            Phase::Stuffed => {}
            Phase::Eof(seen) if seen < 6 => {
                // Recessive EOF bits before the last one: each is a
                // `Continue`.
                let span = n.min(6 - u32::from(seen));
                let took = packed::first_dominant(word, span).unwrap_or(span);
                self.phase = Phase::Eof(seen + took as u8);
                return took;
            }
            _ => return 0,
        }
        let index = self.unstuffed_len();
        // The bulk span ends before the next checked bit, and does not
        // cross from the CRC-covered bits into the CRC sequence.
        let (end, covered) = match index {
            0 | 13 => return 0,
            1..=12 => (13, true),
            14..=DLC_LAST => (DLC_LAST + 1, true),
            _ => {
                let crc_start = self.crc_start();
                if index < crc_start {
                    (crc_start, true)
                } else {
                    (crc_start + 14, false)
                }
            }
        };
        let (took, bits, kept) = self.destuffer.push_word(word, n, (end - index) as u32);
        if kept > 0 {
            if covered {
                self.crc.push_msb(bits, kept);
            }
            self.unstuffed = (self.unstuffed << kept) | u128::from(bits);
            self.unstuffed_len += kept as u8;
        }
        took
    }

    /// Feeds one bus level; must not be called after a terminal event.
    pub fn push(&mut self, bit: Level) -> RxEvent {
        match self.phase {
            Phase::Stuffed => self.push_stuffed(bit),
            Phase::FinalStuff => {
                self.phase = Phase::CrcDelim;
                match self.destuffer.push(bit) {
                    Destuffed::Violation => self.fault(CanErrorKind::Stuff),
                    _ => RxEvent::Continue,
                }
            }
            Phase::CrcDelim => {
                if bit.is_dominant() {
                    return self.fault(CanErrorKind::Form);
                }
                self.phase = Phase::AckSlot;
                if self.crc_ok {
                    RxEvent::AckSlotNext
                } else {
                    RxEvent::Continue
                }
            }
            Phase::AckSlot => {
                // Any level is legal here from the receiver's view.
                self.phase = Phase::AckDelim;
                RxEvent::Continue
            }
            Phase::AckDelim => {
                if bit.is_dominant() {
                    return self.fault(CanErrorKind::Form);
                }
                if !self.crc_ok {
                    // A CRC error is signalled only after the ACK delimiter.
                    return self.fault(CanErrorKind::Crc);
                }
                self.phase = Phase::Eof(0);
                RxEvent::Continue
            }
            Phase::Eof(n) => {
                if bit.is_dominant() {
                    if n == 6 {
                        // Dominant at the last EOF bit: tolerated by
                        // receivers (overload condition, not an error);
                        // the frame is already valid.
                        self.phase = Phase::Finished;
                        return RxEvent::Done(self.assemble());
                    }
                    return self.fault(CanErrorKind::Form);
                }
                if n == 6 {
                    self.phase = Phase::Finished;
                    RxEvent::Done(self.assemble())
                } else {
                    self.phase = Phase::Eof(n + 1);
                    RxEvent::Continue
                }
            }
            Phase::Finished => {
                debug_assert!(false, "parser fed after terminal event");
                RxEvent::Continue
            }
        }
    }

    fn fault(&mut self, kind: CanErrorKind) -> RxEvent {
        self.phase = Phase::Finished;
        RxEvent::Fault(kind)
    }

    fn push_stuffed(&mut self, bit: Level) -> RxEvent {
        let destuffed = match self.destuffer.push(bit) {
            Destuffed::Violation => return self.fault(CanErrorKind::Stuff),
            Destuffed::StuffBit => return RxEvent::Continue,
            Destuffed::Bit(b) => b,
        };
        let index = self.unstuffed_len();
        self.unstuffed = (self.unstuffed << 1) | u128::from(destuffed.to_bit());
        self.unstuffed_len += 1;

        // SOF must be dominant (joining on a recessive bit is a caller
        // bug, flagged as a form error defensively); IDE recessive means
        // an extended frame, which a 2.0A-only receiver treats as a form
        // error.
        if (index == 0 || index == 13) && destuffed.is_recessive() {
            return self.fault(CanErrorKind::Form);
        }
        if index <= DLC_LAST {
            self.crc.push(destuffed);
            return RxEvent::Continue;
        }
        let crc_start = self.crc_start();
        if index < crc_start {
            self.crc.push(destuffed);
        } else if index == crc_start + 14 {
            let received = self.field(crc_start, 15) as u16;
            self.crc_ok = self.crc.value() == received;
            self.phase = if self.destuffer.expecting_stuff() {
                Phase::FinalStuff
            } else {
                Phase::CrcDelim
            };
        }
        RxEvent::Continue
    }

    fn assemble(&self) -> CanFrame {
        let id = self.id().expect("id parsed before completion");
        if self.rtr() {
            CanFrame::remote_frame(id, self.dlc_raw().min(8)).expect("validated DLC")
        } else {
            let len = (self.crc_start() - DLC_LAST - 1) / 8;
            let data = self.field(DLC_LAST + 1, 8 * len);
            let mut bytes = [0u8; 8];
            for (i, byte) in bytes[..len].iter_mut().enumerate() {
                *byte = (data >> (8 * (len - 1 - i))) as u8;
            }
            CanFrame::data_frame(id, &bytes[..len]).expect("validated payload")
        }
    }
}

impl Default for RxParser {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::bitstream::{stuff_frame, FrameField, FrameLayout};

    fn feed(parser: &mut RxParser, bits: &[Level]) -> Vec<RxEvent> {
        bits.iter().map(|&b| parser.push(b)).collect()
    }

    fn frame(id: u16, data: &[u8]) -> CanFrame {
        CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
    }

    #[test]
    fn parses_a_complete_frame() {
        let f = frame(0x173, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let events = feed(&mut parser, &wire.bits);
        assert_eq!(*events.last().unwrap(), RxEvent::Done(f));
        assert!(parser.phase == Phase::Finished);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, RxEvent::Done(_)))
                .count(),
            1
        );
    }

    #[test]
    fn reports_ack_slot_one_bit_ahead() {
        let f = frame(0x064, &[0xAA]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let events = feed(&mut parser, &wire.bits);
        let ack_next_pos = events
            .iter()
            .position(|e| *e == RxEvent::AckSlotNext)
            .expect("valid frame announces the ACK slot");
        // The announcement fires on the CRC delimiter; the ACK slot is the
        // very next wire bit.
        let layout = FrameLayout::of(&f);
        let ack_wire_index = layout.span(FrameField::AckSlot).start + wire.stuff_count();
        assert_eq!(ack_next_pos + 1, ack_wire_index);
    }

    #[test]
    fn id_available_after_arbitration() {
        let f = frame(0x2B3, &[]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        for &bit in &wire.bits {
            parser.push(bit);
            if parser.unstuffed_len() >= 12 {
                break;
            }
        }
        assert_eq!(parser.id(), Some(CanId::from_raw(0x2B3)));
    }

    #[test]
    fn in_arbitration_window() {
        let f = frame(0x555, &[]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        assert!(parser.in_arbitration());
        for &bit in &wire.bits[..14] {
            parser.push(bit);
        }
        // 14 wire bits of 0x555 contain no stuff bits; unstuffed index 13 ⇒
        // IDE consumed ⇒ past arbitration.
        assert!(!parser.in_arbitration());
    }

    #[test]
    fn six_dominant_bits_fault_stuffing() {
        let mut parser = RxParser::new();
        // SOF is dominant; five more dominant bits make six consecutive
        // equal levels — the violation fires on the fifth bit after SOF.
        parser.push(Level::Dominant);
        let mut fault = None;
        for i in 0..6 {
            if let RxEvent::Fault(kind) = parser.push(Level::Dominant) {
                fault = Some((i, kind));
                break;
            }
        }
        let (i, kind) = fault.expect("must fault within six bits");
        assert_eq!(kind, CanErrorKind::Stuff);
        assert_eq!(i, 4, "violation on the sixth consecutive dominant level");
    }

    #[test]
    fn crc_corruption_faults_after_ack_delimiter() {
        let f = frame(0x100, &[0x55, 0x66]);
        let mut wire = stuff_frame(&f);
        // Flip a single data bit without creating a stuff violation:
        // find a bit whose neighbours differ so the flip cannot make a run
        // of six.
        let layout = FrameLayout::of(&f);
        let data_start = layout.span(FrameField::Data).start;
        let mut flipped = None;
        for i in data_start..data_start + 16 {
            let mut probe = wire.bits.clone();
            probe[i] = probe[i].opposite();
            let mut p = RxParser::new();
            let mut events = Vec::new();
            for &b in &probe {
                let e = p.push(b);
                let terminal = matches!(e, RxEvent::Done(_) | RxEvent::Fault(_));
                events.push(e);
                if terminal {
                    break;
                }
            }
            if events.contains(&RxEvent::Fault(CanErrorKind::Crc)) {
                flipped = Some((probe.clone(), events));
                break;
            }
        }
        let (probe, events) = flipped.expect("some flip yields a clean CRC fault");
        let fault_pos = events
            .iter()
            .position(|e| *e == RxEvent::Fault(CanErrorKind::Crc))
            .unwrap();
        // CRC faults are reported at the ACK delimiter, not earlier.
        let ack_delim_unstuffed = layout.span(FrameField::AckDelim).start;
        assert!(
            fault_pos >= ack_delim_unstuffed,
            "CRC fault at {fault_pos} before ACK delimiter"
        );
        wire.bits = probe;
    }

    #[test]
    fn form_fault_on_dominant_crc_delimiter() {
        let f = frame(0x200, &[]);
        let wire = stuff_frame(&f);
        let layout = FrameLayout::of(&f);
        let delim_index = layout.span(FrameField::CrcDelim).start + wire.stuff_count();
        let mut parser = RxParser::new();
        for &bit in &wire.bits[..delim_index] {
            assert!(!matches!(parser.push(bit), RxEvent::Fault(_)));
        }
        assert_eq!(
            parser.push(Level::Dominant),
            RxEvent::Fault(CanErrorKind::Form)
        );
    }

    #[test]
    fn dominant_final_eof_bit_is_tolerated() {
        let f = frame(0x300, &[7]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let n = wire.bits.len();
        for &bit in &wire.bits[..n - 1] {
            let e = parser.push(bit);
            assert!(!matches!(e, RxEvent::Fault(_)), "unexpected fault: {e:?}");
        }
        assert_eq!(parser.push(Level::Dominant), RxEvent::Done(f));
    }

    #[test]
    fn dominant_mid_eof_is_a_form_fault() {
        let f = frame(0x300, &[7]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let n = wire.bits.len();
        for &bit in &wire.bits[..n - 4] {
            parser.push(bit);
        }
        assert_eq!(
            parser.push(Level::Dominant),
            RxEvent::Fault(CanErrorKind::Form)
        );
    }

    #[test]
    fn extended_frames_fault_at_ide() {
        let f = frame(0x155, &[]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        // 0x155 has no stuff bits before unstuffed index 13 (alternating).
        for &bit in &wire.bits[..13] {
            assert!(!matches!(parser.push(bit), RxEvent::Fault(_)));
        }
        assert_eq!(
            parser.push(Level::Recessive),
            RxEvent::Fault(CanErrorKind::Form)
        );
    }

    #[test]
    fn remote_frames_parse() {
        let f = CanFrame::remote_frame(CanId::from_raw(0x412), 3).unwrap();
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let events = feed(&mut parser, &wire.bits);
        assert_eq!(*events.last().unwrap(), RxEvent::Done(f));
    }

    #[test]
    fn all_dlcs_parse() {
        for dlc in 0..=8usize {
            let payload: Vec<u8> = (0..dlc).map(|i| (0x91 * (i + 1)) as u8).collect();
            let f = frame(0x600 + dlc as u16, &payload);
            let wire = stuff_frame(&f);
            let mut parser = RxParser::new();
            let events = feed(&mut parser, &wire.bits);
            assert_eq!(*events.last().unwrap(), RxEvent::Done(f), "dlc {dlc}");
        }
    }
}
