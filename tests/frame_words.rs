//! The frame codec on packed words, pinned against its per-bit reference.
//!
//! This is the one place the word paths and the per-bit paths are compared
//! directly:
//!
//! * Receive: [`RxParser::push_word`] over random chunkings (1–64 bits) of
//!   real stuffed frames, with 0–2 flipped bits, and of random bit strings
//!   after a dominant SOF, gives the same `(consumed, event)` and the same
//!   parser state (`==`) after every chunk as [`RxParser::push`] bit by
//!   bit.
//! * Transmit: [`encode_frame`] gives the words, stuff bits,
//!   stuffed-region length and ACK-slot index of the per-bit encoder
//!   ([`unstuffed_bits`] through [`Stuffer::push`], then [`pack_words`]).
//! * `RxParser` is `Copy`, checked at compile time.

use can_core::bitstream::{
    encode_frame, unstuffed_bits, FrameField, FrameLayout, Stuffer, WIRE_WORDS,
};
use can_core::packed::{pack_word, pack_words};
use can_core::{CanFrame, CanId, Level};
use can_sim::{RxEvent, RxParser};
use proptest::prelude::*;

/// The packed kernel copies parsers by plain assignment.
const _: fn() = || {
    fn copy<T: Copy>() {}
    copy::<RxParser>();
};

/// Builds a data or remote frame from sampled parts.
fn frame_of(id: u16, dlc: usize, payload: &[u8], remote: bool) -> CanFrame {
    let id = CanId::from_raw(id);
    if remote {
        CanFrame::remote_frame(id, dlc as u8).unwrap()
    } else {
        CanFrame::data_frame(id, &payload[..dlc]).unwrap()
    }
}

/// Feeds `bits` to `parser` one at a time, stopping at the first event
/// other than `Continue`: the per-bit reference of `push_word`.
fn push_bits(parser: &mut RxParser, bits: &[Level]) -> (u32, RxEvent) {
    for (i, &bit) in bits.iter().enumerate() {
        let event = parser.push(bit);
        if event != RxEvent::Continue {
            return (i as u32, event);
        }
    }
    (bits.len() as u32, RxEvent::Continue)
}

/// Parses `wire` with both paths in chunks of the lengths `chunks` draws
/// (cycled), comparing after every chunk; returns the terminal event.
fn parse_both(wire: &[Level], chunks: &[u32]) -> Result<Option<RxEvent>, TestCaseError> {
    let (mut by_word, mut by_bit) = (RxParser::new(), RxParser::new());
    let mut at = 0;
    for &len in chunks.iter().cycle() {
        if at >= wire.len() {
            return Ok(None);
        }
        let chunk = &wire[at..wire.len().min(at + len as usize)];
        let word = by_word.push_word(pack_word(chunk), chunk.len() as u32);
        let bit = push_bits(&mut by_bit, chunk);
        prop_assert_eq!(word, bit, "chunk at wire bit {}", at);
        prop_assert_eq!(by_word, by_bit, "state after the chunk at wire bit {}", at);
        match word {
            (_, RxEvent::Continue) => at += chunk.len(),
            (consumed, RxEvent::AckSlotNext) => at += consumed as usize + 1,
            (_, terminal) => return Ok(Some(terminal)),
        }
    }
    unreachable!("chunk lengths are not empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Real frames, intact or with up to two bits flipped anywhere (the
    /// flips provoke stuff, CRC and form errors at every field), followed
    /// by recessive idle.
    #[test]
    fn push_word_equals_push_on_stuffed_frames(
        id in 0u16..0x800,
        dlc in 0usize..9,
        payload in proptest::collection::vec(any::<u8>(), 8),
        remote in any::<bool>(),
        flips in proptest::collection::vec(any::<u64>(), 0..3),
        chunks in proptest::collection::vec(1u32..=64, 1..12),
    ) {
        let frame = frame_of(id, dlc, &payload, remote);
        let mut wire = encode_frame(&frame).unpack().bits;
        for at in &flips {
            let at = (*at % wire.len() as u64) as usize;
            wire[at] = wire[at].opposite();
        }
        wire.extend([Level::Recessive; 16]);
        let end = parse_both(&wire, &chunks)?;
        if flips.is_empty() {
            prop_assert_eq!(end, Some(RxEvent::Done(frame)));
        }
    }

    /// Random bit strings after a dominant SOF, biased towards long runs
    /// so that stuff bits and violations land on every field boundary.
    #[test]
    fn push_word_equals_push_on_random_bits(
        runs in proptest::collection::vec((any::<bool>(), 1usize..8), 1..60),
        chunks in proptest::collection::vec(1u32..=64, 1..12),
    ) {
        let mut wire = vec![Level::Dominant];
        for (recessive, len) in runs {
            wire.extend(std::iter::repeat_n(Level::from_bit(recessive), len));
        }
        parse_both(&wire, &chunks)?;
    }

    /// The word-level encoder against the per-bit one, on sampled
    /// identifiers, DLCs and payloads, data and remote frames.
    #[test]
    fn encoder_equals_per_bit_stuffing(
        id in 0u16..0x800,
        dlc in 0usize..9,
        payload in proptest::collection::vec(any::<u8>(), 8),
        remote in any::<bool>(),
    ) {
        check_encoder(frame_of(id, dlc, &payload, remote))?;
    }
}

/// Compares [`encode_frame`] with the per-bit encoder on one frame.
fn check_encoder(frame: CanFrame) -> Result<(), TestCaseError> {
    let raw = unstuffed_bits(&frame);
    let layout = FrameLayout::of(&frame);
    let region = layout.stuffed_region_bits();
    let mut stuffer = Stuffer::new();
    let (mut bits, mut stuff_positions) = (Vec::new(), Vec::new());
    for &bit in &raw[..region] {
        bits.push(bit);
        if let Some(stuff) = stuffer.push(bit) {
            stuff_positions.push(bits.len());
            bits.push(stuff);
        }
    }
    let stuffed_region_len = bits.len();
    bits.extend_from_slice(&raw[region..]);
    let mut words = pack_words(&bits);
    words.resize(WIRE_WORDS, 0);
    let ack_index = layout.span(FrameField::AckSlot).start + stuff_positions.len();

    let wire = encode_frame(&frame);
    prop_assert_eq!(&wire.words[..], &words[..], "words of {:?}", frame);
    prop_assert_eq!(wire.len, bits.len());
    prop_assert_eq!(wire.stuffed_region_len, stuffed_region_len);
    let stuff_bits: Vec<usize> = (0..wire.len).filter(|&i| wire.is_stuff_bit(i)).collect();
    prop_assert_eq!(stuff_bits, stuff_positions);
    prop_assert_eq!(wire.len - 9, ack_index, "ACK slot of {:?}", frame);
    Ok(())
}

/// The extreme identifiers and payloads, where runs are longest: every
/// DLC of ids 0x000 and 0x7FF with all-dominant and all-recessive data,
/// and their remote frames.
#[test]
fn encoder_equals_per_bit_stuffing_at_the_extremes() {
    for id in [0x000, 0x7FF] {
        for dlc in 0..=8 {
            for fill in [0x00, 0xFF, 0x0F] {
                check_encoder(frame_of(id, dlc, &[fill; 8], false)).unwrap();
            }
            check_encoder(frame_of(id, dlc, &[0; 8], true)).unwrap();
        }
    }
}
