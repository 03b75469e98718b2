//! Fault injection: channel, transmitter and defender-pin faults.
//!
//! The paper argues MichiCAN cannot false-positive a legitimate node into
//! bus-off: "a node needs to encounter 32 consecutive errors for the TEC
//! to reach a level that would trigger a bus-off condition. In case of
//! sporadic errors, the likelihood of hitting this threshold is near
//! zero" (§IV-E). This module makes that claim — and the defender's
//! behaviour when its own assumptions break — testable instead of assumed,
//! at three seams:
//!
//! * **Channel faults** ([`FaultModel`], stacked via [`FaultStack`]) model
//!   bus-level disturbances (EMI glitches on the twisted pair): after the
//!   wired-AND resolves, the level every node samples may be flipped —
//!   independently per bit, in bursts (Gilbert–Elliott), or at scripted
//!   instants.
//! * **Transmitter faults** ([`TxFault`], attached per node) model a
//!   faulty ECU rather than a noisy wire: a transceiver stuck dominant, a
//!   babbling node driving garbage, or a transient crash and restart.
//! * **Defender pin faults** ([`PinFaultConfig`] + [`FaultyAgent`]) sit on
//!   the `CAN_RX` seam between the bus and a
//!   [`BitAgent`]: sampling jitter, missed
//!   bit-interrupts and delayed start-of-frame hard-syncs — the failure
//!   modes a software-defined defense must degrade gracefully under.

use can_core::agent::BitAgent;
use can_core::{packed, BitDuration, BitInstant, Level};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Consecutive recessive bits after which the next dominant edge is a
/// start-of-frame (matches the controllers' integration rule).
const IDLE_BITS_BEFORE_SOF: u32 = 11;

fn assert_probability(p: f64, what: &str) {
    assert!((0.0..=1.0).contains(&p), "{what} must be a probability");
}

/// Parameters of the Gilbert–Elliott two-state burst-error channel.
///
/// The channel alternates between a *good* and a *bad* state with the
/// given per-bit transition probabilities; each state flips bits with its
/// own error rate. Mean burst length is `1 / p_bad_to_good` bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstParams {
    /// Per-bit probability of entering the bad (burst) state.
    pub p_good_to_bad: f64,
    /// Per-bit probability of leaving the bad state.
    pub p_bad_to_good: f64,
    /// Bit error rate while in the good state (usually ≈ 0).
    pub ber_good: f64,
    /// Bit error rate while in the bad state.
    pub ber_bad: f64,
}

impl BurstParams {
    /// Validates every field as a probability.
    ///
    /// # Panics
    ///
    /// Panics if any field lies outside `0.0..=1.0`.
    pub fn validate(&self) {
        assert_probability(self.p_good_to_bad, "p_good_to_bad");
        assert_probability(self.p_bad_to_good, "p_bad_to_good");
        assert_probability(self.ber_good, "ber_good");
        assert_probability(self.ber_bad, "ber_bad");
    }

    /// The per-bit probability of leaving the given state and the bit
    /// error rate inside it.
    fn state(&self, bad: bool) -> (f64, f64) {
        if bad {
            (self.p_bad_to_good, self.ber_bad)
        } else {
            (self.p_good_to_bad, self.ber_good)
        }
    }

    /// The long-run fraction of bits spent in the bad state.
    fn bad_state_fraction(&self) -> f64 {
        let total = self.p_good_to_bad + self.p_bad_to_good;
        if total == 0.0 {
            0.0
        } else {
            self.p_good_to_bad / total
        }
    }

    /// The long-run average bit error rate of the channel.
    pub fn mean_ber(&self) -> f64 {
        let bad = self.bad_state_fraction();
        self.ber_bad * bad + self.ber_good * (1.0 - bad)
    }
}

/// Bits a random channel model draws ahead per refill, at most. Bounds the
/// work of one refill when the bit error rate is tiny: a quiet run that
/// reaches the window ends there, and the next refill continues the same
/// RNG stream from the following bit.
const SCHEDULE_WINDOW: u64 = 4_096;

/// The pre-drawn flip schedule of a random channel model
/// ([`FaultModel::RandomBitErrors`], [`FaultModel::Bursty`]).
///
/// The per-bit draws of these models do not depend on the bus level, so
/// they can be made ahead of time, in the same order as the per-bit path:
/// the schedule holds the run of quiet (non-flipping) bits starting at the
/// next bit the model sees, and whether the bit right after the run is a
/// drawn flip. The simulator's accelerated engines read the run as the
/// model's next activity and skip it in closed form; every flip lands on
/// the same bit as under lockstep.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlipSchedule {
    /// Drawn quiet bits, starting at the next bit the model sees.
    quiet: u64,
    /// Whether the bit after the quiet run is a drawn flip; `false` when
    /// the run stopped at the refill window (4 096 bits).
    flip: bool,
    /// The model can never flip again (and draws nothing more).
    inert: bool,
}

/// One pre-drawn bit of a random channel model.
enum Draw {
    Quiet,
    Flip,
    /// The model can never flip again; nothing was drawn.
    Inert,
}

/// A bus-level fault model applied after the wired-AND.
#[derive(Debug, Default)]
pub enum FaultModel {
    /// No disturbance (default).
    #[default]
    None,
    /// Each bit flips independently with probability `ber`.
    RandomBitErrors {
        /// Bit error rate, 0.0–1.0.
        ber: f64,
        /// Deterministic RNG for reproducible runs (boxed to keep the
        /// enum small).
        rng: Box<StdRng>,
        /// Flips drawn ahead from `rng`.
        schedule: FlipSchedule,
    },
    /// A Gilbert–Elliott burst-error channel: errors cluster while the
    /// channel is in its bad state.
    Bursty {
        /// Channel parameters.
        params: BurstParams,
        /// Whether the channel is in the bad state after the last
        /// pre-drawn bit.
        in_bad_state: bool,
        /// Deterministic RNG.
        rng: Box<StdRng>,
        /// Flips drawn ahead from `rng`.
        schedule: FlipSchedule,
    },
    /// Flip exactly the bits at the given instants (sorted, deduplicated).
    Scripted {
        /// Bit times at which the bus level is inverted.
        flips: Vec<u64>,
        /// Index of the next pending flip.
        cursor: usize,
    },
}

impl FaultModel {
    /// A random-error channel with the given bit error rate and seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= ber <= 1.0`.
    pub fn random(ber: f64, seed: u64) -> Self {
        assert_probability(ber, "BER");
        let mut model = FaultModel::RandomBitErrors {
            ber,
            rng: Box::new(StdRng::seed_from_u64(seed)),
            schedule: FlipSchedule::default(),
        };
        model.refill();
        model
    }

    /// A Gilbert–Elliott burst channel starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not a probability.
    pub fn bursty(params: BurstParams, seed: u64) -> Self {
        params.validate();
        let mut model = FaultModel::Bursty {
            params,
            in_bad_state: false,
            rng: Box::new(StdRng::seed_from_u64(seed)),
            schedule: FlipSchedule::default(),
        };
        model.refill();
        model
    }

    /// A scripted channel flipping exactly the given bit times.
    pub fn scripted(mut flips: Vec<u64>) -> Self {
        flips.sort_unstable();
        flips.dedup();
        FaultModel::Scripted { flips, cursor: 0 }
    }

    /// The earliest bit time at or after `now` at which this model may
    /// disturb the bus. `None` means the model is permanently inert from
    /// `now` on; `Some(t)` with `t > now` promises that the bits in
    /// `[now, t)` pass undisturbed, so the simulator may consume them in
    /// closed form instead of calling [`FaultModel::apply`] per bit. For
    /// the random models `t` is the next pre-drawn flip, or the end of the
    /// drawn window.
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        match self {
            FaultModel::None => None,
            FaultModel::RandomBitErrors { schedule, .. } | FaultModel::Bursty { schedule, .. } => {
                (!schedule.inert).then(|| now + schedule.quiet)
            }
            // The cursor only advances on an exact hit, so a gap before
            // the next scripted flip leaves the model untouched. A cursor
            // stuck on a past instant never fires again (same as the
            // per-bit path).
            FaultModel::Scripted { flips, cursor } => match flips.get(*cursor) {
                Some(&t) if t >= now => Some(t),
                _ => None,
            },
        }
    }

    /// Consumes `bits` undisturbed bits inside the window declared by
    /// [`FaultModel::next_activity`] — exactly equivalent to `bits`
    /// [`FaultModel::apply`] calls there.
    pub(crate) fn skip(&mut self, bits: u64) {
        if let FaultModel::RandomBitErrors { schedule, .. } | FaultModel::Bursty { schedule, .. } =
            self
        {
            if schedule.inert {
                return;
            }
            debug_assert!(bits <= schedule.quiet, "skip past the next flip");
            schedule.quiet -= bits;
            if schedule.quiet == 0 && !schedule.flip {
                self.refill();
            }
        }
    }

    /// Applies the model to the resolved bus level at bit time `now`.
    pub fn apply(&mut self, level: Level, now: u64) -> Level {
        match self {
            FaultModel::None => level,
            FaultModel::RandomBitErrors { schedule, .. } | FaultModel::Bursty { schedule, .. } => {
                if schedule.inert {
                    level
                } else if schedule.quiet > 0 {
                    self.skip(1);
                    level
                } else {
                    self.refill();
                    level.opposite()
                }
            }
            FaultModel::Scripted { flips, cursor } => {
                if flips.get(*cursor) == Some(&now) {
                    *cursor += 1;
                    level.opposite()
                } else {
                    level
                }
            }
        }
    }

    /// Draws the next schedule of a random model, whose previous one is
    /// used up: the quiet run up to and including the next flip, at most
    /// [`SCHEDULE_WINDOW`] bits.
    fn refill(&mut self) {
        let mut next = FlipSchedule::default();
        while next.quiet < SCHEDULE_WINDOW {
            match self.draw() {
                Draw::Quiet => next.quiet += 1,
                Draw::Flip => {
                    next.flip = true;
                    break;
                }
                Draw::Inert => {
                    next.inert = true;
                    break;
                }
            }
        }
        if let FaultModel::RandomBitErrors { schedule, .. } | FaultModel::Bursty { schedule, .. } =
            self
        {
            *schedule = next;
        }
    }

    /// Draws one bit of a random model, consuming the RNG exactly as one
    /// per-bit application does.
    fn draw(&mut self) -> Draw {
        match self {
            FaultModel::RandomBitErrors { ber, rng, .. } => {
                if *ber == 0.0 {
                    Draw::Inert
                } else if rng.random_bool(*ber) {
                    Draw::Flip
                } else {
                    Draw::Quiet
                }
            }
            FaultModel::Bursty {
                params,
                in_bad_state,
                rng,
                ..
            } => {
                let (p_leave, ber) = params.state(*in_bad_state);
                if p_leave == 0.0 && ber == 0.0 {
                    // An absorbing, error-free state.
                    return Draw::Inert;
                }
                if p_leave > 0.0 && rng.random_bool(p_leave) {
                    *in_bad_state = !*in_bad_state;
                }
                let (_, ber) = params.state(*in_bad_state);
                if ber > 0.0 && rng.random_bool(ber) {
                    Draw::Flip
                } else {
                    Draw::Quiet
                }
            }
            FaultModel::None | FaultModel::Scripted { .. } => Draw::Inert,
        }
    }
}

/// An ordered stack of channel fault models, applied first-to-last.
///
/// Stacking composes independent disturbances — e.g. a low background BER
/// plus an EMI burst channel plus a scripted flip at one frame-boundary
/// bit — without baking every combination into one model.
#[derive(Debug, Default)]
pub struct FaultStack {
    layers: Vec<FaultModel>,
}

impl FaultStack {
    /// The empty (transparent) stack.
    pub fn new() -> Self {
        FaultStack::default()
    }

    /// Builder-style: appends a layer and returns the stack.
    pub fn layer(mut self, model: FaultModel) -> Self {
        self.push(model);
        self
    }

    /// Appends a layer applied after the existing ones.
    pub fn push(&mut self, model: FaultModel) {
        if !matches!(model, FaultModel::None) {
            self.layers.push(model);
        }
    }

    /// Number of (non-transparent) layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack disturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Applies every layer in order to the resolved bus level.
    pub fn apply(&mut self, level: Level, now: u64) -> Level {
        self.layers
            .iter_mut()
            .fold(level, |lvl, layer| layer.apply(lvl, now))
    }

    /// The earliest [`FaultModel::next_activity`] horizon over all layers.
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        self.layers
            .iter()
            .filter_map(|layer| layer.next_activity(now))
            .min()
    }

    /// Consumes `bits` undisturbed bits inside the window declared by
    /// [`FaultStack::next_activity`] (see [`FaultModel::skip`]).
    pub(crate) fn skip(&mut self, bits: u64) {
        for layer in &mut self.layers {
            layer.skip(bits);
        }
    }
}

impl From<FaultModel> for FaultStack {
    fn from(model: FaultModel) -> Self {
        FaultStack::new().layer(model)
    }
}

/// A transmitter-side fault attached to one node: the ECU itself (MCU or
/// transceiver) misbehaves, rather than the wire.
///
/// Windows are half-open `[from, until)` intervals in bit times; pass
/// `u64::MAX` for an unbounded fault.
#[derive(Debug)]
pub enum TxFault {
    /// The transceiver output is shorted dominant: the node jams the bus
    /// for the whole window regardless of its controller.
    StuckDominant {
        /// First faulty bit time.
        from: u64,
        /// First healthy bit time again.
        until: u64,
    },
    /// A babbling node: drives pseudo-random garbage (dominant with
    /// probability `duty` per bit) for the whole window.
    Babbling {
        /// First faulty bit time.
        from: u64,
        /// First healthy bit time again.
        until: u64,
        /// Per-bit probability of driving dominant.
        duty: f64,
        /// Deterministic RNG.
        rng: Box<StdRng>,
        /// The next `ahead_len` per-bit levels, drawn ahead from `rng` in
        /// the per-bit order (dominant mask, LSB = the next faulty bit
        /// the node processes). The draws do not depend on the bus, so
        /// the packed kernel reads this word as the node's drive.
        ahead: u64,
        /// Drawn bits left in `ahead`; 0 until the first faulty bit draws
        /// them, and never 0 again inside the window.
        ahead_len: u32,
    },
    /// The MCU crashes at `down_at` (node falls silent, controller frozen)
    /// and restarts from reset at `up_at`.
    CrashRestart {
        /// Bit time of the crash.
        down_at: u64,
        /// Bit time of the restart (`u64::MAX`: never restarts).
        up_at: u64,
        /// Whether the reset was already delivered.
        restarted: bool,
    },
}

impl TxFault {
    /// A transceiver stuck dominant during `[from, until)`.
    pub fn stuck_dominant(from: u64, until: u64) -> Self {
        TxFault::StuckDominant { from, until }
    }

    /// A babbling node during `[from, until)` driving dominant with
    /// probability `duty` per bit.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= duty <= 1.0`.
    pub fn babbling(from: u64, until: u64, duty: f64, seed: u64) -> Self {
        assert_probability(duty, "duty");
        TxFault::Babbling {
            from,
            until,
            duty,
            rng: Box::new(StdRng::seed_from_u64(seed)),
            ahead: 0,
            ahead_len: 0,
        }
    }

    /// A transient crash at `down_at` with a restart-from-reset at `up_at`.
    pub fn crash_restart(down_at: u64, up_at: u64) -> Self {
        assert!(down_at <= up_at, "restart precedes the crash");
        TxFault::CrashRestart {
            down_at,
            up_at,
            restarted: false,
        }
    }

    /// The level forced onto the node's TX contribution at `now`, if the
    /// fault is active. Call exactly once per bit time (advances the
    /// babble RNG).
    pub fn tx_override(&mut self, now: u64) -> Option<Level> {
        match self {
            TxFault::StuckDominant { from, until } => {
                (*from..*until).contains(&now).then_some(Level::Dominant)
            }
            TxFault::Babbling {
                from,
                until,
                ahead_len,
                ..
            } => {
                if !(*from..*until).contains(&now) {
                    return None;
                }
                if *ahead_len == 0 {
                    self.draw_ahead(now);
                }
                let level = self
                    .stretch_word(now, &mut 1)
                    .map(|word| packed::level_at(word, 0));
                self.commit_stretch(now, 1);
                level
            }
            TxFault::CrashRestart { down_at, up_at, .. } => (*down_at..*up_at)
                .contains(&now)
                .then_some(Level::Recessive),
        }
    }

    /// The word an active stuck-dominant or babbling window drives from
    /// `now` (dominant mask, LSB = `now`), lowering `*cap` to the bits it
    /// covers: the rest of the window, and for a babbling node the levels
    /// drawn ahead (none before the window's first bit draws them). `None`
    /// for anything else due at `now`, such as a pending restart, which
    /// needs the lockstep path.
    pub(crate) fn stretch_word(&self, now: u64, cap: &mut u64) -> Option<u64> {
        match self {
            TxFault::StuckDominant { from, until } if (*from..*until).contains(&now) => {
                *cap = (*cap).min(until - now);
                Some(u64::MAX)
            }
            TxFault::Babbling {
                from,
                until,
                ahead,
                ahead_len,
                ..
            } if (*from..*until).contains(&now) => {
                *cap = (*cap).min(until - now).min(u64::from(*ahead_len));
                Some(*ahead)
            }
            _ => None,
        }
    }

    /// Consumes the `n` bits of a packed stretch starting at `now` —
    /// exactly `n` [`TxFault::tx_override`] calls there. The stretch lies
    /// inside one window or outside all of them (its cap stops at every
    /// window edge), so only a babbling node inside its window moves: it
    /// drops `n` drawn levels and draws the next ones once they run out.
    pub(crate) fn commit_stretch(&mut self, now: u64, n: u32) {
        if let TxFault::Babbling {
            from,
            until,
            ahead,
            ahead_len,
            ..
        } = self
        {
            if !(*from..*until).contains(&now) {
                return;
            }
            debug_assert!(n <= *ahead_len, "consumed past the drawn levels");
            *ahead = ahead.checked_shr(n).unwrap_or(0);
            *ahead_len -= n;
            let next = now + u64::from(n);
            if *ahead_len == 0 && next < *until {
                self.draw_ahead(next);
            }
        }
    }

    /// Draws the levels of a babbling node for the faulty bits from `next`
    /// on (at most one word, never past the window), consuming the RNG
    /// exactly as that many per-bit overrides do.
    fn draw_ahead(&mut self, next: u64) {
        if let TxFault::Babbling {
            until,
            duty,
            rng,
            ahead,
            ahead_len,
            ..
        } = self
        {
            let len = until.saturating_sub(next).min(u64::from(packed::WORD_BITS)) as u32;
            *ahead = 0;
            for i in 0..len {
                if *duty > 0.0 && rng.random_bool(*duty) {
                    *ahead |= 1 << i;
                }
            }
            *ahead_len = len;
        }
    }

    /// Whether the node's MCU is down at `now` (controller, application
    /// and agent must not run).
    pub fn is_down(&self, now: u64) -> bool {
        match self {
            TxFault::CrashRestart { down_at, up_at, .. } => (*down_at..*up_at).contains(&now),
            _ => false,
        }
    }

    /// The earliest bit time at or after `now` at which this fault may
    /// force a level, deliver a restart or otherwise needs per-bit
    /// processing. `None` means the fault is spent.
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        match self {
            TxFault::StuckDominant { from, until } | TxFault::Babbling { from, until, .. } => {
                if now < *from {
                    Some(*from)
                } else if now < *until {
                    Some(now)
                } else {
                    None
                }
            }
            TxFault::CrashRestart {
                down_at,
                up_at,
                restarted,
            } => {
                if now < *down_at {
                    Some(*down_at)
                } else if now < *up_at {
                    // Down: nothing happens until the restart instant.
                    Some(*up_at)
                } else if !*restarted {
                    // The reset is pending delivery via `take_restart`.
                    Some(now)
                } else {
                    None
                }
            }
        }
    }

    /// Returns `true` exactly once, at the first bit time at or after the
    /// restart instant: the owner must reset its controller.
    pub fn take_restart(&mut self, now: u64) -> bool {
        match self {
            TxFault::CrashRestart {
                up_at, restarted, ..
            } if !*restarted && now >= *up_at => {
                *restarted = true;
                true
            }
            _ => false,
        }
    }
}

/// Fault rates for a defender's pin access (sampling and edge interrupts).
///
/// All fields default to zero (a healthy pin).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PinFaultConfig {
    /// Probability that a sample reads the wrong level (sampling jitter
    /// near an edge, ringing, or a marginal threshold).
    pub sample_flip_prob: f64,
    /// Probability that the per-bit interrupt never fires, so the agent
    /// misses the bit entirely.
    pub missed_bit_prob: f64,
    /// Probability that a start-of-frame edge is detected late (the
    /// hard-sync interrupt is masked), delaying the agent's view of the
    /// frame start.
    pub sof_delay_prob: f64,
    /// How many bits late a delayed start-of-frame is seen.
    pub sof_delay_bits: u8,
}

impl PinFaultConfig {
    /// Validates every probability.
    ///
    /// # Panics
    ///
    /// Panics if a rate lies outside `0.0..=1.0`.
    pub fn validate(&self) {
        assert_probability(self.sample_flip_prob, "sample_flip_prob");
        assert_probability(self.missed_bit_prob, "missed_bit_prob");
        assert_probability(self.sof_delay_prob, "sof_delay_prob");
    }
}

/// Wraps a [`BitAgent`] behind a faulty `CAN_RX` pin.
///
/// The wrapped agent receives a disturbed view of the bus: samples may be
/// flipped, dropped (the bit interrupt never fires) or — for the first
/// dominant bit after a bus-idle period — delivered late, exactly the
/// degradations a real pin-multiplexed defense faces. TX is untouched:
/// the fault sits on the receive path.
///
/// Generic over the inner agent so callers keep typed access to it
/// (defense statistics, health state); `A = Box<dyn BitAgent>` works too.
pub struct FaultyAgent<A> {
    inner: A,
    config: PinFaultConfig,
    rng: StdRng,
    /// Consecutive recessive bits observed on the true bus.
    idle_run: u32,
    /// Remaining bits during which a delayed SOF is masked.
    sof_mask: u8,
}

impl<A: BitAgent> FaultyAgent<A> {
    /// Wraps `inner` behind a pin with the given fault rates.
    ///
    /// # Panics
    ///
    /// Panics if a rate in `config` is not a probability.
    pub fn new(inner: A, config: PinFaultConfig, seed: u64) -> Self {
        config.validate();
        FaultyAgent {
            inner,
            config,
            rng: StdRng::seed_from_u64(seed),
            idle_run: IDLE_BITS_BEFORE_SOF,
            sof_mask: 0,
        }
    }

    /// The wrapped agent.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwraps the inner agent.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// The level the inner agent sees for one bus level, `None` when the
    /// bit interrupt is missed. Draws from the pin-fault RNG as a real
    /// bit does: SOF delay, then missed bit, then flip.
    fn sample(&mut self, level: Level) -> Option<Level> {
        let sof_edge = level.is_dominant() && self.idle_run >= IDLE_BITS_BEFORE_SOF;
        if level.is_recessive() {
            self.idle_run = self.idle_run.saturating_add(1);
        } else {
            self.idle_run = 0;
        }

        if sof_edge
            && self.config.sof_delay_prob > 0.0
            && self.config.sof_delay_bits > 0
            && self.rng.random_bool(self.config.sof_delay_prob)
        {
            self.sof_mask = self.config.sof_delay_bits;
        }
        if self.sof_mask > 0 {
            // The hard-sync interrupt has not fired yet: the agent still
            // believes the bus is idle.
            self.sof_mask -= 1;
            return Some(Level::Recessive);
        }

        if self.config.missed_bit_prob > 0.0 && self.rng.random_bool(self.config.missed_bit_prob) {
            return None;
        }

        if self.config.sample_flip_prob > 0.0 && self.rng.random_bool(self.config.sample_flip_prob)
        {
            Some(level.opposite())
        } else {
            Some(level)
        }
    }
}

impl<A: std::fmt::Debug> std::fmt::Debug for FaultyAgent<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyAgent")
            .field("inner", &self.inner)
            .field("config", &self.config)
            .field("rng", &self.rng)
            .field("idle_run", &self.idle_run)
            .field("sof_mask", &self.sof_mask)
            .finish()
    }
}

impl<A: BitAgent> BitAgent for FaultyAgent<A> {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        if let Some(seen) = self.sample(level) {
            self.inner.on_bit(seen, now);
        }
    }

    fn tx_level(&self) -> Option<Level> {
        self.inner.tx_level()
    }

    fn set_own_transmission(&mut self, transmitting: bool) {
        self.inner.set_own_transmission(transmitting);
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        // Pin faults only perturb what the inner agent *observes*; its TX
        // path is untouched, and its drive promise holds for arbitrary
        // input — perturbed or not — so it passes through unchanged.
        self.inner.drive_horizon(now)
    }

    // `drive_until` keeps its no-promise default: the inner agent's forced
    // run assumes it samples dominant, and a flipped or missed sample
    // breaks that.

    /// Draws per bit, as [`BitAgent::on_bit`] does, and hands each run of
    /// delivered bits (a missed bit ends a run) to the inner agent's
    /// closed-form observation. The own-transmission hint is a setter, so
    /// giving it once up front equals giving it before every bit.
    fn observe_stretch(&mut self, word: u64, len: u32, own_tx: bool, from: BitInstant) {
        if len == 0 {
            return;
        }
        self.inner.set_own_transmission(own_tx);
        // The current run: its first bit and the levels the inner agent
        // sees. The end of the stretch ends the last run.
        let (mut start, mut seen) = (0, 0u64);
        for i in 0..=len {
            let delivered = if i < len {
                self.sample(packed::level_at(word, i))
            } else {
                None
            };
            if let Some(level) = delivered {
                seen |= u64::from(level.is_dominant()) << (i - start);
                continue;
            }
            if i > start {
                let at = from + BitDuration::bits(u64::from(start));
                self.inner.observe_stretch(seen, i - start, own_tx, at);
            }
            (start, seen) = (i + 1, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_transparent() {
        let mut model = FaultModel::None;
        for t in 0..100 {
            assert_eq!(model.apply(Level::Recessive, t), Level::Recessive);
            assert_eq!(model.apply(Level::Dominant, t), Level::Dominant);
        }
    }

    #[test]
    fn scripted_flips_exact_bits() {
        let mut model = FaultModel::scripted(vec![5, 2, 5, 9]);
        let mut flipped = Vec::new();
        for t in 0..12 {
            if model.apply(Level::Recessive, t).is_dominant() {
                flipped.push(t);
            }
        }
        assert_eq!(flipped, vec![2, 5, 9]);
    }

    #[test]
    fn random_ber_matches_rate() {
        let mut model = FaultModel::random(0.01, 42);
        let flips = (0..100_000)
            .filter(|&t| model.apply(Level::Recessive, t).is_dominant())
            .count();
        assert!((800..=1_200).contains(&flips), "≈ 1 % of 100k: {flips}");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let collect = |seed| {
            let mut m = FaultModel::random(0.05, seed);
            (0..1_000)
                .map(|t| m.apply(Level::Recessive, t))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    #[should_panic(expected = "BER must be a probability")]
    fn invalid_ber_panics() {
        let _ = FaultModel::random(1.5, 0);
    }

    #[test]
    fn zero_ber_never_flips() {
        let mut model = FaultModel::random(0.0, 1);
        for t in 0..10_000 {
            assert_eq!(model.apply(Level::Dominant, t), Level::Dominant);
        }
    }

    fn emi_burst() -> BurstParams {
        BurstParams {
            p_good_to_bad: 0.001,
            p_bad_to_good: 0.05,
            ber_good: 0.0,
            ber_bad: 0.3,
        }
    }

    #[test]
    fn bursty_errors_cluster() {
        // Same long-run error count, very different clustering: compare
        // gaps between errors for an iid channel and a GE channel of
        // equal mean BER.
        let params = emi_burst();
        let mean_ber = params.mean_ber();
        let errors = |model: &mut FaultModel| -> Vec<u64> {
            (0..500_000)
                .filter(|&t| model.apply(Level::Recessive, t).is_dominant())
                .collect()
        };
        let mut ge = FaultModel::bursty(params, 11);
        let mut iid = FaultModel::random(mean_ber, 11);
        let ge_errors = errors(&mut ge);
        let iid_errors = errors(&mut iid);

        // Comparable totals (same mean rate).
        let ratio = ge_errors.len() as f64 / iid_errors.len() as f64;
        assert!((0.5..=2.0).contains(&ratio), "rates comparable: {ratio}");

        // Clustering: the fraction of errors whose predecessor is within
        // 8 bits is far higher for the burst channel.
        let near = |errs: &[u64]| {
            errs.windows(2).filter(|w| w[1] - w[0] <= 8).count() as f64 / errs.len().max(1) as f64
        };
        assert!(
            near(&ge_errors) > 4.0 * near(&iid_errors),
            "GE {:.3} vs iid {:.3}",
            near(&ge_errors),
            near(&iid_errors)
        );
    }

    #[test]
    fn burst_params_mean_ber() {
        let p = emi_burst();
        let bad = 0.001 / 0.051;
        assert!((p.bad_state_fraction() - bad).abs() < 1e-12);
        assert!((p.mean_ber() - 0.3 * bad).abs() < 1e-12);
        let silent = BurstParams {
            p_good_to_bad: 0.0,
            p_bad_to_good: 0.0,
            ber_good: 0.0,
            ber_bad: 1.0,
        };
        assert_eq!(silent.bad_state_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "ber_bad must be a probability")]
    fn invalid_burst_params_panic() {
        let _ = FaultModel::bursty(
            BurstParams {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.1,
                ber_good: 0.0,
                ber_bad: 1.5,
            },
            0,
        );
    }

    /// Flip positions of `model` over `bits` bits, read through the
    /// accelerated seam: jump to each declared activity with
    /// [`FaultModel::skip`], apply only there.
    fn flips_via_schedule(model: &mut FaultModel, bits: u64) -> Vec<u64> {
        let mut flips = Vec::new();
        let mut now = 0;
        while now < bits {
            match model.next_activity(now) {
                None => break,
                Some(t) if t > now => {
                    let gap = t.min(bits) - now;
                    model.skip(gap);
                    now += gap;
                }
                Some(_) => {
                    if model.apply(Level::Recessive, now).is_dominant() {
                        flips.push(now);
                    }
                    now += 1;
                }
            }
        }
        flips
    }

    /// Per-bit reference of [`FaultModel::random`], drawn in the test.
    fn random_reference(ber: f64, seed: u64, bits: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..bits)
            .filter(|_| ber > 0.0 && rng.random_bool(ber))
            .collect()
    }

    /// Per-bit reference of [`FaultModel::bursty`], drawn in the test.
    fn bursty_reference(params: BurstParams, seed: u64, bits: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bad = false;
        let mut flips = Vec::new();
        for t in 0..bits {
            let (p_leave, ber) = if bad {
                (params.p_bad_to_good, params.ber_bad)
            } else {
                (params.p_good_to_bad, params.ber_good)
            };
            if p_leave == 0.0 && ber == 0.0 {
                break;
            }
            if p_leave > 0.0 && rng.random_bool(p_leave) {
                bad = !bad;
            }
            let ber = if bad { params.ber_bad } else { params.ber_good };
            if ber > 0.0 && rng.random_bool(ber) {
                flips.push(t);
            }
        }
        flips
    }

    #[test]
    fn random_schedule_matches_per_bit_draws() {
        const BITS: u64 = 1_200_000;
        // 1e-5 lies far below 1 / SCHEDULE_WINDOW: most refills end at the
        // window without a flip and the next one continues the stream.
        assert!(1e-5 < 1.0 / SCHEDULE_WINDOW as f64);
        for (ber, seed) in [(1e-5, 3), (3e-4, 4), (0.02, 5), (0.0, 6), (1.0, 7)] {
            let reference = random_reference(ber, seed, BITS);
            let per_bit: Vec<u64> = {
                let mut model = FaultModel::random(ber, seed);
                (0..BITS)
                    .filter(|&t| model.apply(Level::Recessive, t).is_dominant())
                    .collect()
            };
            let skipped = flips_via_schedule(&mut FaultModel::random(ber, seed), BITS);
            assert_eq!(per_bit, reference, "apply, ber {ber}");
            assert_eq!(skipped, reference, "skip, ber {ber}");
        }
        assert!(
            random_reference(1e-5, 3, BITS).len() >= 3,
            "the refill path flips"
        );
        assert_eq!(FaultModel::random(0.0, 1).next_activity(9), None);
        assert_eq!(FaultModel::random(1.0, 1).next_activity(9), Some(9));
    }

    #[test]
    fn bursty_schedule_matches_per_bit_draws() {
        const BITS: u64 = 1_200_000;
        let sparse = BurstParams {
            p_good_to_bad: 2e-5,
            p_bad_to_good: 0.2,
            ber_good: 0.0,
            ber_bad: 0.3,
        };
        let noisy_good = BurstParams {
            ber_good: 1e-5,
            ..emi_burst()
        };
        // Stuck in the bad state after the first bit, flipping every bit.
        let always = BurstParams {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            ber_good: 0.0,
            ber_bad: 1.0,
        };
        // An absorbing, error-free good state: inert from the start.
        let never = BurstParams {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            ber_good: 0.0,
            ber_bad: 1.0,
        };
        for (i, params) in [sparse, emi_burst(), noisy_good, always, never]
            .into_iter()
            .enumerate()
        {
            let seed = 100 + i as u64;
            let reference = bursty_reference(params, seed, BITS);
            let per_bit: Vec<u64> = {
                let mut model = FaultModel::bursty(params, seed);
                (0..BITS)
                    .filter(|&t| model.apply(Level::Recessive, t).is_dominant())
                    .collect()
            };
            let skipped = flips_via_schedule(&mut FaultModel::bursty(params, seed), BITS);
            assert_eq!(per_bit, reference, "apply, params {i}");
            assert_eq!(skipped, reference, "skip, params {i}");
        }
        assert_eq!(FaultModel::bursty(never, 1).next_activity(0), None);
        assert_eq!(bursty_reference(always, 1, 10).len(), 10);
    }

    #[test]
    fn stack_composes_layers_in_order() {
        // A scripted flip at t=3 under an otherwise transparent stack.
        let mut stack = FaultStack::new()
            .layer(FaultModel::None)
            .layer(FaultModel::scripted(vec![3]))
            .layer(FaultModel::scripted(vec![3, 7]));
        assert_eq!(stack.len(), 2, "transparent layers are dropped");
        // t=3: both layers flip — they cancel out.
        assert_eq!(stack.apply(Level::Recessive, 3), Level::Recessive);
        // t=7: only the second layer flips.
        assert_eq!(stack.apply(Level::Recessive, 7), Level::Dominant);
        assert_eq!(stack.apply(Level::Recessive, 8), Level::Recessive);
    }

    #[test]
    fn empty_stack_is_transparent() {
        let mut stack = FaultStack::new();
        assert!(stack.is_empty());
        for t in 0..50 {
            assert_eq!(stack.apply(Level::Dominant, t), Level::Dominant);
        }
    }

    #[test]
    fn stuck_dominant_holds_the_window() {
        let mut fault = TxFault::stuck_dominant(10, 20);
        assert_eq!(fault.tx_override(9), None);
        assert_eq!(fault.tx_override(10), Some(Level::Dominant));
        assert_eq!(fault.tx_override(19), Some(Level::Dominant));
        assert_eq!(fault.tx_override(20), None);
        assert!(!fault.is_down(15));
    }

    #[test]
    fn babbling_respects_duty_and_window() {
        let mut fault = TxFault::babbling(0, 100_000, 0.25, 9);
        let dominant = (0..100_000)
            .filter(|&t| fault.tx_override(t) == Some(Level::Dominant))
            .count();
        assert!((23_000..=27_000).contains(&dominant), "≈ 25 %: {dominant}");
        assert_eq!(fault.tx_override(100_000), None);
    }

    #[test]
    fn babbling_levels_follow_the_per_bit_draws_however_they_are_consumed() {
        // The drawn-ahead levels are popped one by one (lockstep) or a
        // stretch at a time (packed); either way bit `t` of the window
        // gets the `t`-th per-bit draw of the seeded RNG.
        let (from, until, duty, seed) = (10, 300, 0.3, 5);
        let mut rng = StdRng::seed_from_u64(seed);
        let reference: Vec<Level> = (from..until)
            .map(|_| {
                if rng.random_bool(duty) {
                    Level::Dominant
                } else {
                    Level::Recessive
                }
            })
            .collect();
        let mut fault = TxFault::babbling(from, until, duty, seed);
        let mut seen = Vec::new();
        let mut t = 0;
        while t < until + 5 {
            let mut cap = 37;
            match fault.stretch_word(t, &mut cap) {
                Some(word) if cap >= 2 => {
                    let n = cap as u32;
                    seen.extend((0..n).map(|i| packed::level_at(word, i)));
                    fault.commit_stretch(t, n);
                    t += cap;
                }
                _ => {
                    if let Some(level) = fault.tx_override(t) {
                        seen.push(level);
                    }
                    t += 1;
                }
            }
        }
        assert_eq!(seen, reference);
    }

    #[test]
    fn crash_restart_fires_reset_once() {
        let mut fault = TxFault::crash_restart(5, 10);
        assert!(!fault.is_down(4));
        assert!(fault.is_down(5));
        assert_eq!(fault.tx_override(7), Some(Level::Recessive));
        assert!(!fault.take_restart(9));
        assert!(fault.take_restart(10), "reset fires at the restart");
        assert!(!fault.take_restart(11), "reset fires only once");
        assert!(!fault.is_down(10));
    }

    #[test]
    #[should_panic(expected = "restart precedes the crash")]
    fn crash_restart_rejects_reversed_window() {
        let _ = TxFault::crash_restart(10, 5);
    }

    /// Records the levels an agent was shown.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<Level>,
    }

    impl BitAgent for Recorder {
        fn on_bit(&mut self, level: Level, _now: BitInstant) {
            self.seen.push(level);
        }
        fn tx_level(&self) -> Option<Level> {
            None
        }
    }

    fn drive<A: BitAgent>(agent: &mut FaultyAgent<A>, wire: &[Level]) {
        for (t, &level) in wire.iter().enumerate() {
            agent.on_bit(level, BitInstant::from_bits(t as u64));
        }
    }

    #[test]
    fn healthy_pin_is_transparent() {
        let wire = [
            Level::Recessive,
            Level::Dominant,
            Level::Dominant,
            Level::Recessive,
            Level::Dominant,
        ];
        let mut agent = FaultyAgent::new(Recorder::default(), PinFaultConfig::default(), 1);
        drive(&mut agent, &wire);
        assert_eq!(agent.inner().seen, wire);
        assert!(agent.into_inner().seen.len() == wire.len());
    }

    #[test]
    fn boxed_inner_agent_works() {
        let inner: Box<dyn BitAgent> = Box::new(Recorder::default());
        let mut agent = FaultyAgent::new(inner, PinFaultConfig::default(), 1);
        agent.on_bit(Level::Dominant, BitInstant::ZERO);
        agent.set_own_transmission(true);
        assert_eq!(agent.tx_level(), None);
    }

    #[test]
    fn missed_bits_drop_samples() {
        struct Counter(u64);
        impl BitAgent for Counter {
            fn on_bit(&mut self, _l: Level, _n: BitInstant) {
                self.0 += 1;
            }
            fn tx_level(&self) -> Option<Level> {
                None
            }
        }
        let mut agent = FaultyAgent::new(
            Counter(0),
            PinFaultConfig {
                missed_bit_prob: 0.2,
                ..PinFaultConfig::default()
            },
            7,
        );
        for t in 0..10_000u64 {
            agent.on_bit(Level::Recessive, BitInstant::from_bits(t));
        }
        let delivered = agent.inner().0;
        assert!(
            (7_700..=8_300).contains(&delivered),
            "≈ 80 % delivered: {delivered}"
        );
    }

    #[test]
    fn delayed_sof_masks_the_frame_start() {
        struct FirstDominant(Option<u64>);
        impl BitAgent for FirstDominant {
            fn on_bit(&mut self, level: Level, now: BitInstant) {
                if level.is_dominant() && self.0.is_none() {
                    self.0 = Some(now.bits());
                }
            }
            fn tx_level(&self) -> Option<Level> {
                None
            }
        }
        // 12 idle bits, then a long dominant run (a frame start).
        let mut wire = vec![Level::Recessive; 12];
        wire.extend(std::iter::repeat_n(Level::Dominant, 6));

        // sof_delay_prob = 1: the SOF edge at t=12 must be masked for
        // exactly 3 bits, so the inner agent first sees dominant at t=15.
        let mut agent = FaultyAgent::new(
            FirstDominant(None),
            PinFaultConfig {
                sof_delay_prob: 1.0,
                sof_delay_bits: 3,
                ..PinFaultConfig::default()
            },
            3,
        );
        drive(&mut agent, &wire);
        assert_eq!(agent.sof_mask, 0, "the mask must be exhausted");
        assert_eq!(agent.inner().0, Some(15));
    }

    #[test]
    fn sample_flips_disturb_levels() {
        struct Flips(u64);
        impl BitAgent for Flips {
            fn on_bit(&mut self, level: Level, _n: BitInstant) {
                if level.is_dominant() {
                    self.0 += 1;
                }
            }
            fn tx_level(&self) -> Option<Level> {
                None
            }
        }
        let mut agent = FaultyAgent::new(
            Flips(0),
            PinFaultConfig {
                sample_flip_prob: 0.1,
                ..PinFaultConfig::default()
            },
            13,
        );
        // Feed only recessive; every dominant the inner sees is a flip.
        for t in 0..10_000u64 {
            agent.on_bit(Level::Recessive, BitInstant::from_bits(t));
        }
        let flipped = agent.inner().0;
        assert!(
            (800..=1_200).contains(&flipped),
            "≈ 10 % flipped: {flipped}"
        );
    }
}
