//! A complete CAN 2.0A controller: arbitration, transmission, reception,
//! error signalling and fault confinement, stepped one bit time at a time.
//!
//! ## Timing convention
//!
//! The simulator runs a two-phase tick. For every nominal bit time `t`:
//!
//! 1. each controller's [`Controller::tx_level`] is collected and the bus
//!    computes the wired-AND;
//! 2. each controller's [`Controller::on_sample`] processes the resulting
//!    bus level.
//!
//! A decision made while sampling bit `t` therefore first affects the bus
//! at bit `t + 1` — the same one-bit reaction latency a real controller has
//! when it samples at ~70 % of the bit time.

use can_core::bitstream::{encode_frame, PackedWire, IFS_BITS};
use can_core::errors::CanErrorKind;
use can_core::{counters, packed, BitInstant, CanFrame, ErrorCounters, ErrorState, Level};

use crate::event::{ErrorRole, EventKind};
use crate::parser::{RxEvent, RxParser};

/// Bits in an error flag (active or passive).
pub const ERROR_FLAG_BITS: u8 = 6;

/// Recessive bits in an error delimiter.
pub const ERROR_DELIMITER_BITS: u8 = 8;

/// Extra recessive bits an error-passive node waits after transmitting
/// (suspend transmission).
pub const SUSPEND_BITS: u8 = 8;

/// Configuration of a [`Controller`].
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Whether this controller acknowledges valid frames (dominant ACK
    /// slot). Disable for listen-only taps.
    pub ack_enabled: bool,
    /// Whether failed transmissions are retried (per ISO they always are;
    /// disable for single-shot experiments).
    pub retransmit: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            ack_enabled: true,
            retransmit: true,
        }
    }
}

/// An in-flight transmission: the stuffed wire as packed words, built
/// once per attempt by the word-level encoder
/// ([`can_core::bitstream::encode_frame`]), with no heap.
#[derive(Debug, Clone)]
struct TxJob {
    frame: CanFrame,
    /// The wire bits, their stuff-bit mask and length.
    wire: PackedWire,
    /// Wire index of the ACK slot.
    ack_index: usize,
    /// Number of bits already driven and sampled.
    index: usize,
}

impl TxJob {
    fn new(frame: CanFrame) -> Self {
        let wire = encode_frame(&frame);
        // ACK slot is the second-to-10th bit from the end:
        // ... CRC delim | ACK slot | ACK delim | EOF(7)
        let ack_index = wire.len - 9;
        TxJob {
            frame,
            wire,
            ack_index,
            index: 0,
        }
    }

    /// The level driven at the current wire index.
    fn level(&self) -> Level {
        self.wire.level(self.index)
    }

    /// The next up-to-64 wire bits as one dominant-mask word.
    fn window(&self) -> u64 {
        packed::extract_window(&self.wire.words, self.index)
    }
}

/// How a controller participates in one packed stretch (DESIGN.md §11).
///
/// Produced by [`Controller::stretch_plan`] (the `Down` variant is added by
/// the owning node for a crashed MCU) and consumed by the simulator's
/// packed kernel. A planner returning `None` instead means the controller
/// may emit an event, change state class or drive a reactive level at the
/// very next bit, so the simulator must run that bit in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StretchRole {
    /// The node's MCU is down (crash fault): contributes recessive and has
    /// no controller state to advance.
    Down,
    /// Transmitting mid-frame: drives `word` (dominant mask, LSB = the
    /// upcoming wire bit).
    Transmit {
        /// Packed TX levels for the next up-to-64 wire bits.
        word: u64,
    },
    /// Receiving mid-frame with no ACK drive pending: contributes only
    /// recessive; the stretch is additionally capped by a parser dry-run
    /// over the resolved bus word.
    Receive,
    /// Idle / intermission / suspend: contributes recessive and must end
    /// the stretch at the first dominant bus bit (it would join that frame
    /// as a receiver).
    Passive,
    /// Integrating (waiting for 11 recessive bits): contributes recessive;
    /// consumes mixed bus levels word-at-a-time.
    Integrating {
        /// Current count of consecutive recessive bits observed.
        recessive_run: u8,
    },
    /// Bus-off recovery countdown: contributes recessive; consumes mixed
    /// bus levels word-at-a-time.
    BusOff,
    /// Error signalling (flag, wait for recessive, delimiter): drives the
    /// rest of an active flag and consumes mixed bus levels through
    /// [`ErrSig::step`]; the stretch stops before the first bit whose
    /// sample has a side effect ([`ErrSig::quiet_bits`]).
    Signal {
        /// The sub-state at the start of the stretch.
        sig: ErrSig,
    },
}

impl StretchRole {
    /// The dominant mask this role drives over the stretch (LSB = the
    /// upcoming bit); the packed wired-AND is the OR of these.
    pub(crate) fn drive_word(&self) -> u64 {
        match self {
            StretchRole::Transmit { word } => *word,
            StretchRole::Signal { sig } => sig.drive_word(),
            _ => 0,
        }
    }
}

/// Bits of `bus` (at most `n`) an integrating controller with the given
/// recessive run can consume in one stretch.
///
/// Integration completing is not itself an event, but the first bit *after*
/// completion needs the full Idle logic (frame join on dominant,
/// transmission start with a pending mailbox), so the stretch stops right
/// after the completing bit.
pub(crate) fn integrating_word_cap(recessive_run: u8, bus: u64, n: u32) -> u32 {
    let mut run = recessive_run.min(10);
    for i in 0..n {
        if packed::level_at(bus, i).is_dominant() {
            run = 0;
        } else {
            run += 1;
            if run >= 11 {
                return i + 1;
            }
        }
    }
    n
}

/// Error-signalling sub-state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ErrSig {
    /// Active (dominant) or passive (recessive) flag.
    active: bool,
    /// Active flag: bits left to drive.
    flag_remaining: u8,
    /// Passive flag completion: run of consecutive equal levels observed.
    run_level: Option<Level>,
    run_len: u8,
    phase: ErrPhase,
    /// The node was the transmitter of the destroyed frame.
    was_transmitter: bool,
    /// The node detected the error as a receiver (for the severe REC rule).
    receiver_role: bool,
    /// Severe REC rule applied at most once per flag.
    severe_applied: bool,
    /// Transition to bus-off (instead of intermission) after the delimiter.
    then_bus_off: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrPhase {
    Flag,
    WaitRecessive,
    Delimiter(u8),
}

/// What one sampled bit did to an [`ErrSig`]: the side effect the caller
/// owes, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SigStep {
    /// Sub-state advanced; nothing else happens.
    Quiet,
    /// Dominant bit right after a receiver's flag: REC += 8 (applied by
    /// the caller; the sub-state already recorded it as applied).
    SevereRec,
    /// The last delimiter bit: the caller leaves error signalling for
    /// intermission, suspend or bus-off. The sub-state is not advanced.
    Leave,
}

impl ErrSig {
    /// A fresh error flag, as a detection path raises it.
    fn new(was_transmitter: bool, receiver_role: bool, active: bool) -> Self {
        ErrSig {
            active,
            flag_remaining: ERROR_FLAG_BITS,
            run_level: None,
            run_len: 0,
            phase: ErrPhase::Flag,
            was_transmitter,
            receiver_role,
            severe_applied: false,
            then_bus_off: false,
        }
    }

    /// The one flag/delimiter transition, shared by the lockstep sample
    /// ([`Controller::on_sample`]) and the packed cap and commit
    /// ([`ErrSig::quiet_bits`], [`Controller::commit_signal`]).
    pub(crate) fn step(&mut self, bus: Level) -> SigStep {
        match self.phase {
            ErrPhase::Flag => {
                if self.active {
                    // We are driving dominant; count our six flag bits.
                    self.flag_remaining -= 1;
                    if self.flag_remaining == 0 {
                        self.phase = ErrPhase::WaitRecessive;
                    }
                } else {
                    // Passive flag: complete after six consecutive equal
                    // levels on the bus (our own recessive or others'
                    // dominant flags).
                    match self.run_level {
                        Some(level) if level == bus => self.run_len += 1,
                        _ => {
                            self.run_level = Some(bus);
                            self.run_len = 1;
                        }
                    }
                    if self.run_len >= ERROR_FLAG_BITS {
                        self.phase = ErrPhase::WaitRecessive;
                    }
                }
                SigStep::Quiet
            }
            ErrPhase::WaitRecessive => {
                if bus.is_recessive() {
                    // First delimiter bit observed.
                    self.phase = ErrPhase::Delimiter(ERROR_DELIMITER_BITS - 1);
                    SigStep::Quiet
                } else if self.receiver_role && !self.severe_applied {
                    // Someone is still flagging (superposed error flags),
                    // right after our own flag.
                    self.severe_applied = true;
                    SigStep::SevereRec
                } else {
                    SigStep::Quiet
                }
            }
            ErrPhase::Delimiter(remaining) => {
                if bus.is_dominant() {
                    // A dominant bit inside the delimiter restarts the wait
                    // (superposed late flags; overload handling is out of
                    // scope).
                    self.phase = ErrPhase::WaitRecessive;
                    SigStep::Quiet
                } else if remaining > 1 {
                    self.phase = ErrPhase::Delimiter(remaining - 1);
                    SigStep::Quiet
                } else {
                    SigStep::Leave
                }
            }
        }
    }

    /// The dominant mask of the rest of an active flag (LSB = the upcoming
    /// bit); zero once the flag is over or for a passive flag.
    pub(crate) fn drive_word(&self) -> u64 {
        if self.active && self.phase == ErrPhase::Flag {
            (1u64 << self.flag_remaining) - 1
        } else {
            0
        }
    }

    /// How many of the low `n` bits of `bus` step [`SigStep::Quiet`]: the
    /// packed stretch stops before the severe-REC bit and before the last
    /// delimiter bit, so counters stay frozen inside it.
    pub(crate) fn quiet_bits(mut self, bus: u64, n: u32) -> u32 {
        (0..n)
            .find(|&i| self.step(packed::level_at(bus, i)) != SigStep::Quiet)
            .unwrap_or(n)
    }
}

#[derive(Debug, Clone)]
enum State {
    /// Waiting for 11 consecutive recessive bits before joining the bus.
    Integrating {
        recessive_run: u8,
    },
    Idle,
    Receiving {
        parser: RxParser,
    },
    Transmitting {
        tx: TxJob,
        parser: RxParser,
    },
    ErrorSignaling(ErrSig),
    Intermission {
        remaining: u8,
        then_suspend: bool,
    },
    Suspend {
        remaining: u8,
    },
    BusOff {
        recessive_run: u8,
        sequences: u32,
    },
}

/// Callbacks surfaced by one [`Controller::on_sample`] step.
///
/// The owning node forwards these to its application and appends them to
/// the simulator event log.
#[derive(Debug, Default)]
pub struct StepOutput {
    /// Protocol events that occurred during this bit.
    pub events: Vec<EventKind>,
    /// A frame received for delivery to the application.
    pub received: Option<CanFrame>,
    /// A frame whose transmission completed successfully.
    pub transmitted: Option<CanFrame>,
}

impl StepOutput {
    /// Resets the output for reuse, keeping the events buffer's capacity
    /// (the simulator recycles one `StepOutput` across every node and bit
    /// to keep the per-bit hot path allocation-free).
    pub fn clear(&mut self) {
        self.events.clear();
        self.received = None;
        self.transmitted = None;
    }
}

/// A full CAN 2.0A controller stepped at bit granularity.
#[derive(Debug)]
pub struct Controller {
    config: ControllerConfig,
    counters: ErrorCounters,
    state: State,
    /// Transmit mailboxes: at most one pending frame per identifier;
    /// lowest identifier transmits first.
    pending: Vec<CanFrame>,
    /// Drive a dominant ACK during the next bit.
    drive_ack: bool,
    last_reported_state: ErrorState,
}

impl Controller {
    /// Creates a controller in the integrating state (it joins the bus
    /// after 11 recessive bits).
    pub fn new(config: ControllerConfig) -> Self {
        Controller {
            config,
            counters: ErrorCounters::new(),
            state: State::Integrating { recessive_run: 0 },
            pending: Vec::new(),
            drive_ack: false,
            last_reported_state: ErrorState::ErrorActive,
        }
    }

    /// Hardware-style reset: error counters cleared, mailboxes flushed,
    /// back to the integrating state (11 recessive bits before rejoining).
    /// Models an MCU restart after a transient crash.
    pub fn reset(&mut self) {
        self.counters = ErrorCounters::new();
        self.state = State::Integrating { recessive_run: 0 };
        self.pending.clear();
        self.drive_ack = false;
        self.last_reported_state = ErrorState::ErrorActive;
    }

    /// The controller's error counters.
    pub fn counters(&self) -> ErrorCounters {
        self.counters
    }

    /// The fault-confinement state.
    pub fn error_state(&self) -> ErrorState {
        if matches!(self.state, State::BusOff { .. }) {
            ErrorState::BusOff
        } else {
            self.counters.state()
        }
    }

    /// Whether the controller is currently transmitting (and has not lost
    /// arbitration).
    pub fn is_transmitting(&self) -> bool {
        matches!(self.state, State::Transmitting { .. })
    }

    /// Whether the controller considers the bus occupied by a frame or
    /// error condition (used for bus-load accounting).
    pub fn is_busy(&self) -> bool {
        matches!(
            self.state,
            State::Transmitting { .. } | State::Receiving { .. } | State::ErrorSignaling(_)
        )
    }

    /// Number of frames waiting in transmit mailboxes.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Places a frame in its transmit mailbox (one per identifier; a newer
    /// frame with the same identifier overwrites the older one, like a
    /// hardware mailbox).
    pub fn enqueue(&mut self, frame: CanFrame) {
        if let Some(slot) = self.pending.iter_mut().find(|f| f.id() == frame.id()) {
            *slot = frame;
        } else {
            self.pending.push(frame);
        }
    }

    fn take_highest_priority_pending(&mut self) -> Option<CanFrame> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| f.id())?
            .0;
        Some(self.pending.swap_remove(best))
    }

    /// Re-queues a frame whose transmission failed, unless the application
    /// has meanwhile posted a newer frame with the same identifier.
    fn requeue(&mut self, frame: CanFrame) {
        if !self.config.retransmit {
            return;
        }
        if !self.pending.iter().any(|f| f.id() == frame.id()) {
            self.pending.push(frame);
        }
    }

    /// The level this controller drives during the upcoming bit time.
    pub fn tx_level(&self) -> Level {
        match &self.state {
            State::Transmitting { tx, .. } => tx.level(),
            State::ErrorSignaling(sig) if sig.drive_word() != 0 => Level::Dominant,
            State::Receiving { .. } if self.drive_ack => Level::Dominant,
            _ => Level::Recessive,
        }
    }

    /// Processes the bus level sampled during the current bit time.
    pub fn on_sample(&mut self, bus: Level, now: BitInstant) -> StepOutput {
        let mut out = StepOutput::default();
        self.on_sample_into(bus, now, &mut out);
        out
    }

    /// [`Controller::on_sample`] writing into a caller-provided output.
    ///
    /// `out` must be [`StepOutput::clear`]ed (or fresh); reusing one
    /// buffer across bits avoids a per-bit allocation on the simulator's
    /// hot path.
    pub fn on_sample_into(&mut self, bus: Level, now: BitInstant, out: &mut StepOutput) {
        // The ACK drive is one-shot: the bit being processed was the slot.
        self.drive_ack = false;

        // `state` is replaced wholesale to keep the borrow checker happy.
        let state = std::mem::replace(&mut self.state, State::Idle);
        self.state = match state {
            State::Integrating { recessive_run } => {
                let run = if bus.is_recessive() {
                    recessive_run + 1
                } else {
                    0
                };
                if run >= 11 {
                    State::Idle
                } else {
                    State::Integrating { recessive_run: run }
                }
            }
            State::Idle => self.sample_idle(bus, now, out),
            State::Receiving { parser } => self.sample_receiving(parser, bus, now, out),
            State::Transmitting { tx, parser } => {
                self.sample_transmitting(tx, parser, bus, now, out)
            }
            State::ErrorSignaling(sig) => self.sample_error(sig, bus, out),
            State::Intermission {
                remaining,
                then_suspend,
            } => self.sample_intermission(remaining, then_suspend, bus, now, out),
            State::Suspend { remaining } => self.sample_suspend(remaining, bus, now, out),
            State::BusOff {
                recessive_run,
                sequences,
            } => self.sample_bus_off(recessive_run, sequences, bus, out),
        };

        self.report_state_change(out);
    }

    fn report_state_change(&mut self, out: &mut StepOutput) {
        let state = self.error_state();
        if state != self.last_reported_state {
            self.last_reported_state = state;
            out.events.push(EventKind::ErrorStateChanged { state });
        }
    }

    fn start_transmission(&mut self, out: &mut StepOutput) -> State {
        match self.take_highest_priority_pending() {
            Some(frame) => {
                out.events
                    .push(EventKind::TransmissionStarted { id: frame.id() });
                State::Transmitting {
                    tx: TxJob::new(frame),
                    parser: RxParser::new(),
                }
            }
            None => State::Idle,
        }
    }

    fn join_as_receiver(&mut self, sof: Level, now: BitInstant, out: &mut StepOutput) -> State {
        debug_assert!(sof.is_dominant(), "joining requires a dominant SOF");
        let parser = RxParser::new();
        self.sample_receiving(parser, sof, now, out)
    }

    fn sample_idle(&mut self, bus: Level, now: BitInstant, out: &mut StepOutput) -> State {
        if bus.is_dominant() {
            self.join_as_receiver(bus, now, out)
        } else if !self.pending.is_empty() {
            self.start_transmission(out)
        } else {
            State::Idle
        }
    }

    fn sample_receiving(
        &mut self,
        mut parser: RxParser,
        bus: Level,
        _now: BitInstant,
        out: &mut StepOutput,
    ) -> State {
        match parser.push(bus) {
            RxEvent::Continue => State::Receiving { parser },
            RxEvent::AckSlotNext => {
                if self.config.ack_enabled {
                    self.drive_ack = true;
                }
                State::Receiving { parser }
            }
            RxEvent::Done(frame) => {
                self.counters.on_receive_success();
                out.events.push(EventKind::FrameReceived { frame });
                out.received = Some(frame);
                State::Intermission {
                    remaining: IFS_BITS as u8,
                    then_suspend: false,
                }
            }
            RxEvent::Fault(kind) => {
                self.counters.on_receive_error();
                out.events.push(EventKind::ErrorDetected {
                    kind,
                    role: ErrorRole::Receiver,
                });
                State::ErrorSignaling(ErrSig::new(false, true, false))
            }
        }
    }

    fn sample_transmitting(
        &mut self,
        mut tx: TxJob,
        mut parser: RxParser,
        bus: Level,
        now: BitInstant,
        out: &mut StepOutput,
    ) -> State {
        let sent = tx.level();
        let in_arbitration = parser.in_arbitration();
        let rx_event = parser.push(bus);
        let mismatch = sent != bus;

        if mismatch {
            if in_arbitration && sent.is_recessive() && bus.is_dominant() {
                // Lost arbitration: continue as receiver of the winner.
                out.events
                    .push(EventKind::ArbitrationLost { id: tx.frame.id() });
                self.requeue(tx.frame);
                // The parser already consumed this bit; stay receiving.
                return match rx_event {
                    RxEvent::Fault(kind) => {
                        self.counters.on_receive_error();
                        out.events.push(EventKind::ErrorDetected {
                            kind,
                            role: ErrorRole::Receiver,
                        });
                        State::ErrorSignaling(ErrSig::new(false, true, false))
                    }
                    _ => State::Receiving { parser },
                };
            }
            if tx.index == tx.ack_index && bus.is_dominant() {
                // A receiver acknowledged the frame; not an error.
                tx.index += 1;
                return State::Transmitting { tx, parser };
            }
            // Bit or stuff error in our own transmission.
            let kind = if tx.wire.is_stuff_bit(tx.index) {
                CanErrorKind::Stuff
            } else {
                CanErrorKind::Bit
            };
            return self.transmit_error(tx, kind, now, out);
        }

        // Levels matched.
        if tx.index == tx.ack_index && bus.is_recessive() {
            // Nobody acknowledged.
            return self.transmit_ack_error(tx, now, out);
        }

        tx.index += 1;
        if tx.index == tx.wire.len {
            self.counters.on_transmit_success();
            out.events
                .push(EventKind::TransmissionSucceeded { frame: tx.frame });
            out.transmitted = Some(tx.frame);
            let then_suspend = self.counters.state() == ErrorState::ErrorPassive;
            return State::Intermission {
                remaining: IFS_BITS as u8,
                then_suspend,
            };
        }
        State::Transmitting { tx, parser }
    }

    fn transmit_error(
        &mut self,
        tx: TxJob,
        kind: CanErrorKind,
        _now: BitInstant,
        out: &mut StepOutput,
    ) -> State {
        // Flag polarity follows the state *before* the increment (paper
        // Fig. 6: the 16th error is still signalled with an active flag).
        let active_before = self.counters.state() == ErrorState::ErrorActive;
        let new_state = self.counters.on_transmit_error();
        out.events.push(EventKind::ErrorDetected {
            kind,
            role: ErrorRole::Transmitter,
        });
        self.requeue(tx.frame);
        let mut sig = ErrSig::new(true, false, active_before);
        if new_state == ErrorState::BusOff {
            sig.then_bus_off = true;
        }
        State::ErrorSignaling(sig)
    }

    fn transmit_ack_error(&mut self, tx: TxJob, _now: BitInstant, out: &mut StepOutput) -> State {
        let active_before = self.counters.state() == ErrorState::ErrorActive;
        // ISO 11898-1 exception: an error-passive transmitter detecting an
        // ACK error (and no dominant bit during its passive flag) does not
        // increment its TEC. A lone node on a bus therefore never reaches
        // bus-off through missing acknowledgments.
        let new_state = if active_before {
            self.counters.on_transmit_error()
        } else {
            self.counters.state()
        };
        out.events.push(EventKind::ErrorDetected {
            kind: CanErrorKind::Ack,
            role: ErrorRole::Transmitter,
        });
        self.requeue(tx.frame);
        let mut sig = ErrSig::new(true, false, active_before);
        if new_state == ErrorState::BusOff {
            sig.then_bus_off = true;
        }
        State::ErrorSignaling(sig)
    }

    fn sample_error(&mut self, mut sig: ErrSig, bus: Level, out: &mut StepOutput) -> State {
        match sig.step(bus) {
            SigStep::Quiet => State::ErrorSignaling(sig),
            SigStep::SevereRec => {
                self.counters.on_receive_error_severe();
                State::ErrorSignaling(sig)
            }
            SigStep::Leave if sig.then_bus_off => {
                out.events.push(EventKind::BusOff);
                State::BusOff {
                    recessive_run: 0,
                    sequences: 0,
                }
            }
            SigStep::Leave => {
                let then_suspend =
                    sig.was_transmitter && self.counters.state() == ErrorState::ErrorPassive;
                State::Intermission {
                    remaining: IFS_BITS as u8,
                    then_suspend,
                }
            }
        }
    }

    fn sample_intermission(
        &mut self,
        remaining: u8,
        then_suspend: bool,
        bus: Level,
        now: BitInstant,
        out: &mut StepOutput,
    ) -> State {
        if bus.is_dominant() {
            // Another node's SOF (a dominant bit during intermission is
            // interpreted as a start of frame; overload frames are not
            // modelled).
            return self.join_as_receiver(bus, now, out);
        }
        if remaining > 1 {
            State::Intermission {
                remaining: remaining - 1,
                then_suspend,
            }
        } else if then_suspend {
            State::Suspend {
                remaining: SUSPEND_BITS,
            }
        } else if !self.pending.is_empty() {
            self.start_transmission(out)
        } else {
            State::Idle
        }
    }

    fn sample_suspend(
        &mut self,
        remaining: u8,
        bus: Level,
        now: BitInstant,
        out: &mut StepOutput,
    ) -> State {
        if bus.is_dominant() {
            // Another node started first; we join as receiver and compete
            // again afterwards (ISO 11898-1 suspend-transmission rule,
            // central to the paper's Experiment 5 analysis).
            return self.join_as_receiver(bus, now, out);
        }
        if remaining > 1 {
            State::Suspend {
                remaining: remaining - 1,
            }
        } else if !self.pending.is_empty() {
            self.start_transmission(out)
        } else {
            State::Idle
        }
    }

    /// The earliest bit time at or after `now` at which this controller
    /// may emit an event, drive a non-recessive level or otherwise needs
    /// per-bit processing — **assuming the bus stays recessive and the
    /// mailboxes unchanged until then**. `None` means "never" under those
    /// assumptions (e.g. idle with nothing pending).
    ///
    /// This is the controller's half of the simulator's quiescence
    /// contract: for any horizon `h` returned, feeding the controller
    /// `h - now` recessive samples via [`Controller::advance_idle`] is
    /// exactly equivalent to the per-bit path and produces no events.
    pub fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        let pending = !self.pending.is_empty();
        let at = |offset: u64| Some(now + can_core::BitDuration::bits(offset));
        match &self.state {
            // `recessive_run` hits 11 one bit before the offset below, so
            // the controller is Idle at the horizon bit and starts its
            // transmission (event!) right there.
            State::Integrating { recessive_run } => {
                if pending {
                    at(u64::from(11 - (*recessive_run).min(10)))
                } else {
                    None
                }
            }
            State::Idle => {
                if pending {
                    Some(now)
                } else {
                    None
                }
            }
            // Active frame or error handling: every bit matters.
            State::Receiving { .. } | State::Transmitting { .. } | State::ErrorSignaling(_) => {
                Some(now)
            }
            // Intermission consumes exactly `remaining` recessive samples;
            // the last one either starts a pending transmission (event at
            // `now + remaining - 1`) or chains into suspend-transmission.
            State::Intermission {
                remaining,
                then_suspend,
            } => match (pending, then_suspend) {
                (false, _) => None,
                (true, false) => at(u64::from(remaining - 1)),
                (true, true) => at(u64::from(*remaining) + u64::from(SUSPEND_BITS) - 1),
            },
            State::Suspend { remaining } => {
                if pending {
                    at(u64::from(remaining - 1))
                } else {
                    None
                }
            }
            // Bus-off recovery is a pure countdown on a recessive bus; the
            // `Recovered` event fires at the last of the required samples.
            State::BusOff {
                recessive_run,
                sequences,
            } => {
                let to_sequence =
                    u64::from(counters::RECOVERY_SEQUENCE_BITS) - u64::from(*recessive_run).min(10);
                let full_sequences = u64::from(counters::RECOVERY_SEQUENCES - *sequences - 1);
                at(to_sequence + full_sequences * u64::from(counters::RECOVERY_SEQUENCE_BITS) - 1)
            }
        }
    }

    /// Advances the controller over `bits` consecutive recessive bus
    /// samples in closed form — exactly equivalent to `bits` calls of
    /// `on_sample(Level::Recessive, _)`, given that the window lies inside
    /// a horizon declared by [`Controller::next_activity`] (so no events,
    /// no transmission starts, no recovery completes inside it).
    pub fn advance_idle(&mut self, bits: u64) {
        let mut left = bits;
        while left > 0 {
            match &mut self.state {
                State::Integrating { recessive_run } => {
                    let need = u64::from(11 - (*recessive_run).min(10));
                    if left >= need {
                        left -= need;
                        self.state = State::Idle;
                    } else {
                        *recessive_run += left as u8;
                        return;
                    }
                }
                State::Idle => return,
                State::Intermission {
                    remaining,
                    then_suspend,
                } => {
                    let need = u64::from(*remaining);
                    if left >= need {
                        left -= need;
                        // With a pending frame the declared horizon ends
                        // one bit before the exit sample, so this branch
                        // (and the Idle exit below) only runs when the
                        // exit cannot start a transmission.
                        self.state = if *then_suspend {
                            State::Suspend {
                                remaining: SUSPEND_BITS,
                            }
                        } else {
                            State::Idle
                        };
                    } else {
                        *remaining -= left as u8;
                        return;
                    }
                }
                State::Suspend { remaining } => {
                    let need = u64::from(*remaining);
                    if left >= need {
                        left -= need;
                        self.state = State::Idle;
                    } else {
                        *remaining -= left as u8;
                        return;
                    }
                }
                State::BusOff {
                    recessive_run,
                    sequences,
                } => {
                    // Closed-form countdown; the quiescence horizon
                    // guarantees recovery does not complete in the window.
                    let total = u64::from(*recessive_run) + left;
                    *sequences += (total / u64::from(counters::RECOVERY_SEQUENCE_BITS)) as u32;
                    *recessive_run = (total % u64::from(counters::RECOVERY_SEQUENCE_BITS)) as u8;
                    debug_assert!(*sequences < counters::RECOVERY_SEQUENCES);
                    return;
                }
                State::Receiving { .. } | State::Transmitting { .. } | State::ErrorSignaling(_) => {
                    unreachable!("advance_idle called on a busy controller")
                }
            }
        }
    }

    /// The controller's half of the packed kernel's stretch negotiation
    /// (DESIGN.md §11).
    ///
    /// Returns how this controller participates in a stretch starting at
    /// `now`, lowering `*cap` (in bits, already ≤ 64) to the last bit it
    /// can cover without per-bit processing, or `None` when the very next
    /// bit needs the lockstep path: a pending ACK drive, idle with a
    /// queued frame, the ACK slot or final bit of its own transmission.
    ///
    /// The plan has no side effects; the simulator may discard it and run
    /// lockstep instead at any point.
    pub(crate) fn stretch_plan(&self, now: BitInstant, cap: &mut u64) -> Option<StretchRole> {
        if self.drive_ack {
            return None; // drives a dominant ACK during the next bit
        }
        let horizon_cap = |cap: &mut u64| -> bool {
            // Caps at the controller's own quiescence horizon, which for
            // the countdown states below is the bit at which an event
            // (transmission start, recovery) could fire assuming an
            // all-recessive bus. Mixed traffic only delays those, so the
            // horizon is a sound stretch bound either way.
            match self.next_activity(now) {
                Some(h) if h <= now => false,
                Some(h) => {
                    *cap = (*cap).min(h.bits() - now.bits());
                    true
                }
                None => true,
            }
        };
        match &self.state {
            State::Receiving { .. } => Some(StretchRole::Receive),
            State::Transmitting { tx, .. } => {
                // Stop before the ACK slot (a receiver answers there) and
                // before the final bit (transmit-success event).
                let mut tx_cap = tx.wire.len - 1 - tx.index;
                if tx.index <= tx.ack_index {
                    tx_cap = tx_cap.min(tx.ack_index - tx.index);
                }
                if tx_cap == 0 {
                    return None;
                }
                *cap = (*cap).min(tx_cap as u64);
                Some(StretchRole::Transmit { word: tx.window() })
            }
            State::ErrorSignaling(sig) => Some(StretchRole::Signal { sig: *sig }),
            State::Idle => {
                if self.pending.is_empty() {
                    Some(StretchRole::Passive)
                } else {
                    None // starts its SOF at the next recessive sample
                }
            }
            State::Intermission { .. } | State::Suspend { .. } => {
                horizon_cap(cap).then_some(StretchRole::Passive)
            }
            State::Integrating { recessive_run } => {
                horizon_cap(cap).then_some(StretchRole::Integrating {
                    recessive_run: *recessive_run,
                })
            }
            State::BusOff { .. } => horizon_cap(cap).then_some(StretchRole::BusOff),
        }
    }

    /// Commits `n` event-free bits of the controller's own transmission.
    ///
    /// The resolved bus matched the sent word over the whole window, so
    /// the monitor parser sees the sent bits. The lockstep path would
    /// discard every parser event (the receive parser of a transmitter
    /// only matters on a mismatch), and the only one a matching stretch
    /// can meet is the `AckSlotNext` at its CRC delimiter, its last bit
    /// at most: one [`RxParser::push_word`] consumes the window.
    pub(crate) fn commit_transmit(&mut self, n: u32) {
        let State::Transmitting { tx, parser } = &mut self.state else {
            unreachable!("commit_transmit on a non-transmitting controller")
        };
        let (consumed, event) = parser.push_word(tx.window(), n);
        debug_assert!(
            consumed == n || (consumed + 1 == n && event == RxEvent::AckSlotNext),
            "a transmitter's stretch ends at its CRC delimiter"
        );
        tx.index += n as usize;
        debug_assert!(tx.index < tx.wire.len);
    }

    /// The parser a stretch commit advances: the receive parser while
    /// receiving, the monitor parser while transmitting, `None` otherwise.
    /// The packed kernel groups nodes by equality of this parser.
    pub(crate) fn stretch_parser(&self) -> Option<&RxParser> {
        match &self.state {
            State::Receiving { parser } | State::Transmitting { parser, .. } => Some(parser),
            _ => None,
        }
    }

    /// Commits `n` event-free bits by installing `post`, the parser state
    /// this parser reaches over those bits: its own dry run's, or that of
    /// another node in the same pre-stretch parser state. A transmitter
    /// also advances its wire index, as [`Controller::commit_transmit`]
    /// would.
    pub(crate) fn commit_parser(&mut self, post: &RxParser, n: u32) {
        match &mut self.state {
            State::Receiving { parser } => *parser = *post,
            State::Transmitting { tx, parser } => {
                *parser = *post;
                tx.index += n as usize;
                debug_assert!(tx.index < tx.wire.len);
            }
            _ => unreachable!("commit_parser on a controller without a frame parser"),
        }
    }

    /// Dry-runs a copy of the receive parser over the low `n` bits of
    /// `bus` into `scratch`, with one [`RxParser::push_word`]: returns how
    /// many leading bits produce `RxEvent::Continue`. The bit that would
    /// produce any other event (ACK-slot announcement, frame completion,
    /// fault) is left to the lockstep path.
    ///
    /// When the return value equals `n`, `scratch` holds the post-stretch
    /// parser state and [`Controller::commit_parser`] can install it;
    /// otherwise `scratch` has consumed the event bit and must be
    /// discarded.
    pub(crate) fn receive_stretch_cap(&self, bus: u64, n: u32, scratch: &mut RxParser) -> u32 {
        let State::Receiving { parser } = &self.state else {
            unreachable!("receive_stretch_cap on a non-receiving controller")
        };
        *scratch = *parser;
        scratch.push_word(bus, n).0
    }

    /// Commits `n` event-free received bits by feeding them to the live
    /// parser in one [`RxParser::push_word`] (used when the stretch was
    /// shortened after this node's dry run, so the scratch parser
    /// overshot).
    pub(crate) fn commit_receive_push(&mut self, bus: u64, n: u32) {
        let State::Receiving { parser } = &mut self.state else {
            unreachable!("commit_receive_push on a non-receiving controller")
        };
        let (consumed, _) = parser.push_word(bus, n);
        debug_assert_eq!(consumed, n);
    }

    /// Commits `n` bits of mixed bus levels to an error-signalling
    /// controller: replays [`ErrSig::step`] over the word. The stretch was
    /// capped by [`ErrSig::quiet_bits`], so every step is quiet and the
    /// error counters stay frozen.
    pub(crate) fn commit_signal(&mut self, bus: u64, n: u32) {
        let State::ErrorSignaling(sig) = &mut self.state else {
            unreachable!("commit_signal on a controller that is not error signalling")
        };
        for i in 0..n {
            let step = sig.step(packed::level_at(bus, i));
            debug_assert_eq!(
                step,
                SigStep::Quiet,
                "stretch must stop before side effects"
            );
        }
    }

    /// Commits `n` bits of mixed bus levels for the word-aware countdown
    /// states (integrating, bus-off recovery).
    ///
    /// The stretch caps guarantee neither integration completion followed
    /// by further bits (see [`integrating_word_cap`]) nor recovery
    /// completion can occur inside the window.
    pub(crate) fn commit_passive_word(&mut self, bus: u64, n: u32) {
        match &mut self.state {
            State::Integrating { recessive_run } => {
                let mut run = *recessive_run;
                let mut completed = false;
                for i in 0..n {
                    if packed::level_at(bus, i).is_dominant() {
                        run = 0;
                    } else {
                        run += 1;
                        if run >= 11 {
                            debug_assert_eq!(i, n - 1, "stretch must stop at completion");
                            completed = true;
                            break;
                        }
                    }
                }
                *recessive_run = run;
                if completed {
                    self.state = State::Idle;
                }
            }
            State::BusOff {
                recessive_run,
                sequences,
            } => {
                for i in 0..n {
                    if packed::level_at(bus, i).is_dominant() {
                        *recessive_run = 0;
                    } else {
                        *recessive_run += 1;
                        if u32::from(*recessive_run) == counters::RECOVERY_SEQUENCE_BITS {
                            *recessive_run = 0;
                            *sequences += 1;
                            debug_assert!(*sequences < counters::RECOVERY_SEQUENCES);
                        }
                    }
                }
            }
            _ => unreachable!("commit_passive_word on a non-countdown controller"),
        }
    }

    fn sample_bus_off(
        &mut self,
        recessive_run: u8,
        sequences: u32,
        bus: Level,
        out: &mut StepOutput,
    ) -> State {
        if bus.is_dominant() {
            return State::BusOff {
                recessive_run: 0,
                sequences,
            };
        }
        let run = recessive_run + 1;
        if run as u32 == counters::RECOVERY_SEQUENCE_BITS {
            let sequences = sequences + 1;
            if sequences >= counters::RECOVERY_SEQUENCES {
                self.counters.reset_after_recovery();
                out.events.push(EventKind::Recovered);
                return State::Idle;
            }
            State::BusOff {
                recessive_run: 0,
                sequences,
            }
        } else {
            State::BusOff {
                recessive_run: run,
                sequences,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use can_core::CanId;

    fn frame(id: u16, data: &[u8]) -> CanFrame {
        CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
    }

    /// Drives a set of controllers through one tick; returns the bus level.
    fn tick(controllers: &mut [Controller], now: u64) -> (Level, Vec<StepOutput>) {
        let bus = Level::wired_and(controllers.iter().map(|c| c.tx_level()));
        let outs = controllers
            .iter_mut()
            .map(|c| c.on_sample(bus, BitInstant::from_bits(now)))
            .collect();
        (bus, outs)
    }

    fn run(controllers: &mut [Controller], ticks: u64) -> Vec<(u64, usize, EventKind)> {
        let mut events = Vec::new();
        for t in 0..ticks {
            let (_, outs) = tick(controllers, t);
            for (i, out) in outs.into_iter().enumerate() {
                for kind in out.events {
                    events.push((t, i, kind));
                }
            }
        }
        events
    }

    #[test]
    fn lone_frame_is_lost_without_ack_but_node_survives() {
        // A lone transmitter never gets an ACK: ACK errors forever, but the
        // ISO exception caps its TEC at the passive threshold.
        let mut nodes = vec![Controller::new(ControllerConfig::default())];
        nodes[0].enqueue(frame(0x100, &[1, 2]));
        let events = run(&mut nodes, 20_000);
        assert!(events.iter().any(|(_, _, k)| matches!(
            k,
            EventKind::ErrorDetected {
                kind: CanErrorKind::Ack,
                ..
            }
        )));
        assert!(!matches!(nodes[0].state, State::BusOff { .. }));
        assert_eq!(nodes[0].error_state(), ErrorState::ErrorPassive);
    }

    #[test]
    fn two_nodes_exchange_a_frame() {
        let mut nodes = vec![
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
        ];
        nodes[0].enqueue(frame(0x123, &[0xDE, 0xAD]));
        let events = run(&mut nodes, 400);
        let received = events.iter().find_map(|(_, node, k)| match k {
            EventKind::FrameReceived { frame } => Some((*node, *frame)),
            _ => None,
        });
        assert_eq!(received, Some((1, frame(0x123, &[0xDE, 0xAD]))));
        assert!(
            events
                .iter()
                .any(|(_, node, k)| *node == 0
                    && matches!(k, EventKind::TransmissionSucceeded { .. }))
        );
        // A successful exchange leaves both nodes error-active with clean
        // counters.
        assert_eq!(nodes[0].counters().tec(), 0);
        assert_eq!(nodes[1].counters().rec(), 0);
    }

    #[test]
    fn arbitration_is_won_by_the_lower_id() {
        let mut nodes = vec![
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
        ];
        // Enqueue in both before either can start: they SOF simultaneously.
        nodes[0].enqueue(frame(0x300, &[1]));
        nodes[1].enqueue(frame(0x0F0, &[2]));
        let events = run(&mut nodes, 800);

        let lost: Vec<_> = events
            .iter()
            .filter_map(|(t, node, k)| match k {
                EventKind::ArbitrationLost { id } => Some((*t, *node, *id)),
                _ => None,
            })
            .collect();
        assert_eq!(lost.len(), 1, "exactly one arbitration loss: {events:?}");
        assert_eq!(lost[0].1, 0, "node 0 (higher id) must lose");

        let successes: Vec<_> = events
            .iter()
            .filter_map(|(t, node, k)| match k {
                EventKind::TransmissionSucceeded { frame } => Some((*t, *node, frame.id())),
                _ => None,
            })
            .collect();
        assert_eq!(successes.len(), 2, "both frames eventually complete");
        assert_eq!(successes[0].1, 1, "0x0F0 completes first");
        assert_eq!(successes[1].1, 0, "0x300 retries and completes");
    }

    #[test]
    fn both_transmissions_start_simultaneously_and_winner_is_not_errored() {
        let mut nodes = vec![
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
        ];
        nodes[0].enqueue(frame(0x005, &[1]));
        nodes[1].enqueue(frame(0x006, &[2]));
        let events = run(&mut nodes, 600);
        // Arbitration must never produce an error.
        assert!(
            !events
                .iter()
                .any(|(_, _, k)| matches!(k, EventKind::ErrorDetected { .. })),
            "arbitration losses are not errors: {events:?}"
        );
        assert_eq!(nodes[0].counters().tec(), 0);
        assert_eq!(nodes[1].counters().tec(), 0);
    }

    #[test]
    fn mailbox_overwrites_same_id() {
        let mut c = Controller::new(ControllerConfig::default());
        c.enqueue(frame(0x10, &[1]));
        c.enqueue(frame(0x10, &[2]));
        assert_eq!(c.pending_count(), 1);
        c.enqueue(frame(0x11, &[3]));
        assert_eq!(c.pending_count(), 2);
    }

    #[test]
    fn integrating_requires_eleven_recessive_bits() {
        let mut c = Controller::new(ControllerConfig::default());
        c.enqueue(frame(0x1, &[]));
        // Interrupt the integration with a dominant bit after 10 recessive.
        for t in 0..10 {
            c.on_sample(Level::Recessive, BitInstant::from_bits(t));
            assert_eq!(c.tx_level(), Level::Recessive);
        }
        c.on_sample(Level::Dominant, BitInstant::from_bits(10));
        // Ten more recessive bits are not enough (run restarted)...
        for t in 11..21 {
            c.on_sample(Level::Recessive, BitInstant::from_bits(t));
        }
        assert_eq!(c.tx_level(), Level::Recessive, "still integrating");
        // ...the eleventh completes integration; it is Idle during that
        // sample and starts its SOF right afterwards.
        c.on_sample(Level::Recessive, BitInstant::from_bits(21));
        c.on_sample(Level::Recessive, BitInstant::from_bits(22));
        assert_eq!(c.tx_level(), Level::Dominant, "SOF after joining");
    }

    #[test]
    fn transmit_success_decrements_tec() {
        let mut nodes = vec![
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
        ];
        // Pre-load some TEC on node 0 by direct counter manipulation (unit
        // scope: we only check the success path decrements).
        for _ in 0..4 {
            nodes[0].counters.on_transmit_error();
        }
        assert_eq!(nodes[0].counters().tec(), 32);
        nodes[0].enqueue(frame(0x055, &[7; 7]));
        run(&mut nodes, 400);
        assert_eq!(nodes[0].counters().tec(), 31);
    }

    /// A controller that is error signalling with `sig` and the given
    /// error counters.
    fn signalling(sig: ErrSig, counters: ErrorCounters) -> Controller {
        let mut c = Controller::new(ControllerConfig::default());
        c.counters = counters;
        c.last_reported_state = counters.state();
        c.state = State::ErrorSignaling(sig);
        c
    }

    fn sig_of(c: &Controller) -> ErrSig {
        match &c.state {
            State::ErrorSignaling(sig) => *sig,
            other => panic!("not error signalling: {other:?}"),
        }
    }

    /// Counters after `n` transmit errors.
    fn tec_after(n: usize) -> ErrorCounters {
        let mut counters = ErrorCounters::new();
        for _ in 0..n {
            counters.on_transmit_error();
        }
        counters
    }

    /// Plans a `Signal` stretch of at most `n` bits on a bus where the
    /// other nodes drive the dominant mask `others`, commits its quiet
    /// prefix, and samples the same bits in lockstep on a twin. Both must
    /// agree bit for bit, with counters frozen and no events. Returns the
    /// cap and the lockstep twin, parked on the bit the stretch stopped
    /// before.
    fn signal_stretch(
        sig: ErrSig,
        counters: ErrorCounters,
        others: u64,
        n: u32,
    ) -> (u32, Controller) {
        let mut packed_c = signalling(sig, counters);
        let mut cap = u64::from(n);
        let Some(StretchRole::Signal { sig: planned }) =
            packed_c.stretch_plan(BitInstant::ZERO, &mut cap)
        else {
            panic!("an error-signalling controller plans a Signal stretch")
        };
        assert_eq!(planned, sig);
        let bus = others | StretchRole::Signal { sig: planned }.drive_word();
        let quiet = planned.quiet_bits(bus, n);
        packed_c.commit_signal(bus, quiet);

        let mut lockstep = signalling(sig, counters);
        for i in 0..quiet {
            let level = packed::level_at(bus, i);
            assert_eq!(
                level,
                packed::level_at(others, i) & lockstep.tx_level(),
                "bit {i}: the drive word matches the per-bit TX level"
            );
            let out = lockstep.on_sample(level, BitInstant::from_bits(u64::from(i)));
            assert!(out.events.is_empty(), "bit {i}: {:?}", out.events);
            assert_eq!(lockstep.counters(), counters, "bit {i}: counters frozen");
        }
        assert_eq!(sig_of(&lockstep), sig_of(&packed_c));
        (quiet, lockstep)
    }

    /// Dominant mask with bits `range` set.
    fn dominant(range: std::ops::Range<u32>) -> u64 {
        range.fold(0, |mask, i| mask | 1 << i)
    }

    #[test]
    fn signal_stretch_crosses_the_end_of_an_active_flag() {
        // A transmitter's own active flag, superposed by a 3-bit-late
        // flag from the others: bits 0..9 dominant, then an 8-bit
        // delimiter whose last bit (17) leaves.
        let sig = ErrSig::new(true, false, true);
        let (cap, _) = signal_stretch(sig, tec_after(1), dominant(3..9), 64);
        assert_eq!(cap, 16);
        // A stretch that ends exactly with the flag stops driving.
        let (cap, c) = signal_stretch(sig, tec_after(1), 0, 6);
        assert_eq!(cap, 6);
        assert_eq!(sig_of(&c).phase, ErrPhase::WaitRecessive);
        assert_eq!(c.tx_level(), Level::Recessive);
    }

    #[test]
    fn signal_stretch_follows_a_passive_flag_restarting_its_run() {
        // Passive flag: three dominant bits, then the 6-run restarts on
        // recessive and completes at bit 8; delimiter bits 9..16.
        let sig = ErrSig::new(false, true, false);
        let (cap, _) = signal_stretch(sig, ErrorCounters::new(), dominant(0..3), 64);
        assert_eq!(cap, 16);
        let (_, c) = signal_stretch(sig, ErrorCounters::new(), dominant(0..3), 8);
        let mid = sig_of(&c);
        assert_eq!(mid.phase, ErrPhase::Flag, "the restarted run is 5 long");
        assert_eq!((mid.run_level, mid.run_len), (Some(Level::Recessive), 5));
    }

    #[test]
    fn signal_stretch_stops_before_the_severe_rec_bit() {
        // A receiver's flag superposed by a 2-bit-late one: bit 6 is the
        // first dominant bit after its own flag.
        let sig = ErrSig::new(false, true, true);
        let others = dominant(2..8);
        let (cap, mut c) = signal_stretch(sig, ErrorCounters::new(), others, 64);
        assert_eq!(cap, 6);
        c.on_sample(Level::Dominant, BitInstant::from_bits(6));
        assert_eq!(c.counters().rec(), 8, "the lockstep bit applies REC += 8");
        // The next stretch runs on to the last delimiter bit (bit 15).
        let (cap, _) = signal_stretch(sig_of(&c), c.counters(), others >> 7, 64);
        assert_eq!(7 + cap, 15);
    }

    #[test]
    fn signal_stretch_restarts_the_wait_on_a_dominant_delimiter_bit() {
        // Bit 9 (third delimiter bit) is dominant: back to waiting, a new
        // delimiter from bit 10, leaving at bit 17.
        let sig = ErrSig::new(true, false, true);
        let (cap, _) = signal_stretch(sig, tec_after(1), dominant(9..10), 64);
        assert_eq!(cap, 17);
        let (_, c) = signal_stretch(sig, tec_after(1), dominant(9..10), 10);
        assert_eq!(sig_of(&c).phase, ErrPhase::WaitRecessive);
    }

    #[test]
    fn signal_stretch_stops_before_the_last_delimiter_bit() {
        // Error-active receiver: into intermission, no suspend.
        let (cap, mut c) =
            signal_stretch(ErrSig::new(false, true, true), ErrorCounters::new(), 0, 64);
        assert_eq!(cap, 13);
        let out = c.on_sample(Level::Recessive, BitInstant::from_bits(13));
        assert!(out.events.is_empty());
        assert!(matches!(
            c.state,
            State::Intermission {
                then_suspend: false,
                ..
            }
        ));

        // Error-passive transmitter (passive flag): suspend after the
        // intermission.
        let counters = tec_after(16);
        assert_eq!(counters.state(), ErrorState::ErrorPassive);
        let (cap, mut c) = signal_stretch(ErrSig::new(true, false, false), counters, 0, 64);
        assert_eq!(cap, 13);
        c.on_sample(Level::Recessive, BitInstant::from_bits(13));
        assert!(matches!(
            c.state,
            State::Intermission {
                then_suspend: true,
                ..
            }
        ));

        // A transmitter whose TEC crossed 255: bus-off at the last bit.
        let mut sig = ErrSig::new(true, false, false);
        sig.then_bus_off = true;
        let (cap, mut c) = signal_stretch(sig, tec_after(32), 0, 64);
        assert_eq!(cap, 13);
        let out = c.on_sample(Level::Recessive, BitInstant::from_bits(13));
        assert_eq!(out.events, vec![EventKind::BusOff]);
        assert!(matches!(c.state, State::BusOff { .. }));
    }

    /// Samples `levels` (`true` = dominant) in lockstep from bit 0.
    fn sample_levels(c: &mut Controller, levels: &[bool]) {
        for (t, &dominant) in levels.iter().enumerate() {
            let level = if dominant {
                Level::Dominant
            } else {
                Level::Recessive
            };
            c.on_sample(level, BitInstant::from_bits(t as u64));
        }
    }

    #[test]
    fn severe_rec_rule_applies_once_to_a_dominant_first_bit_after_the_flag() {
        // Six flag bits, then four dominant bits of superposed flags: only
        // the first of them raises REC by 8.
        let mut c = signalling(ErrSig::new(false, true, true), ErrorCounters::new());
        sample_levels(&mut c, &[true; 6]);
        assert_eq!(c.counters().rec(), 0);
        sample_levels(&mut c, &[true]);
        assert_eq!(c.counters().rec(), 8);
        sample_levels(&mut c, &[true, true, true]);
        assert_eq!(c.counters().rec(), 8, "once per flag");
        // A transmitter's flag never applies the receiver rule.
        let mut c = signalling(ErrSig::new(true, false, true), tec_after(1));
        sample_levels(&mut c, &[true; 10]);
        assert_eq!(c.counters().rec(), 0);
    }

    #[test]
    fn severe_rec_rule_still_fires_after_a_delimiter_restart() {
        // Documents a deviation from ISO 11898-1, which applies REC += 8
        // only to the first bit after the flag: here that bit (6) is
        // recessive, a dominant bit inside the delimiter (7) restarts the
        // wait, and the next dominant bit (8) still applies the rule.
        let mut c = signalling(ErrSig::new(false, true, true), ErrorCounters::new());
        sample_levels(&mut c, &[true; 6]);
        sample_levels(&mut c, &[false, true]);
        assert_eq!(sig_of(&c).phase, ErrPhase::WaitRecessive);
        assert_eq!(c.counters().rec(), 0);
        sample_levels(&mut c, &[true]);
        assert_eq!(c.counters().rec(), 8);
    }
}
