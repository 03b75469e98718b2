//! Forwarding wrappers around the three trait seams a bus cell is built
//! from — [`Application`], [`BitAgent`] and [`FrameTap`] — that count and
//! time every call and forward every trait method unchanged.
//!
//! A wrapper owns no simulation state, so a wrapped cell must produce the
//! same outcome as the unwrapped one; the traced run asserts exactly that.
//! Timing costs two clock reads per call; [`Calibration`] measures that
//! cost on an empty callee so it can be subtracted from the totals.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use can_core::agent::BitAgent;
use can_core::app::Application;
use can_core::{BitInstant, CanFrame, Level};
use can_sim::FrameTap;

/// Calls and summed nanoseconds of one trait method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seam {
    pub calls: u64,
    pub ns: u64,
}

/// Method slots, shared by the three wrapper kinds.
pub const POLL: usize = 0;
pub const NEXT_ACTIVITY: usize = 1;
pub const ON_FRAME: usize = 2;
pub const ON_TX_SUCCESS: usize = 3;
pub const ON_BUS_OFF: usize = 4;
pub const ON_RECOVERED: usize = 5;
pub const ON_BIT: usize = 6;
pub const TX_LEVEL: usize = 7;
pub const SET_OWN_TX: usize = 8;
pub const DRIVE_HORIZON: usize = 9;
pub const SKIP_IDLE: usize = 10;
const SLOTS: usize = 11;

/// Everything one wrapper recorded.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub seams: [Seam; SLOTS],
    /// Bits handed to `skip_idle`.
    pub skip_idle_bits: u64,
    /// Sum of `drive_horizon(now) - now` over calls that promised a
    /// finite horizon.
    pub horizon_bits: u64,
    /// Calls that promised a finite horizon.
    pub horizon_promises: u64,
}

impl Tally {
    pub fn calls(&self) -> u64 {
        self.seams.iter().map(|s| s.calls).sum()
    }

    pub fn ns(&self) -> u64 {
        self.seams.iter().map(|s| s.ns).sum()
    }

    pub fn add(&mut self, other: &Tally) {
        for (a, b) in self.seams.iter_mut().zip(other.seams.iter()) {
            a.calls += b.calls;
            a.ns += b.ns;
        }
        self.skip_idle_bits += other.skip_idle_bits;
        self.horizon_bits += other.horizon_bits;
        self.horizon_promises += other.horizon_promises;
    }
}

/// A handle to a wrapper's tally, readable after the simulator consumed
/// the wrapper.
pub type TallyHandle = Rc<RefCell<Tally>>;

#[inline(always)]
fn timed<R>(tally: &TallyHandle, slot: usize, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    let ns = start.elapsed().as_nanos() as u64;
    let mut t = tally.borrow_mut();
    t.seams[slot].calls += 1;
    t.seams[slot].ns += ns;
    r
}

/// A timed [`Application`].
pub struct TimedApp {
    inner: Box<dyn Application>,
    tally: TallyHandle,
}

impl TimedApp {
    pub fn wrap(inner: Box<dyn Application>) -> (Box<dyn Application>, TallyHandle) {
        let tally = TallyHandle::default();
        let app = TimedApp {
            inner,
            tally: tally.clone(),
        };
        (Box::new(app), tally)
    }
}

impl Application for TimedApp {
    fn poll(&mut self, now: BitInstant) -> Option<CanFrame> {
        let inner = &mut self.inner;
        timed(&self.tally, POLL, || inner.poll(now))
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        timed(&self.tally, NEXT_ACTIVITY, || self.inner.next_activity(now))
    }

    fn on_frame(&mut self, frame: &CanFrame, now: BitInstant) {
        let inner = &mut self.inner;
        timed(&self.tally, ON_FRAME, || inner.on_frame(frame, now));
    }

    fn on_transmit_success(&mut self, frame: &CanFrame, now: BitInstant) {
        let inner = &mut self.inner;
        timed(&self.tally, ON_TX_SUCCESS, || {
            inner.on_transmit_success(frame, now)
        });
    }

    fn on_bus_off(&mut self, now: BitInstant) {
        let inner = &mut self.inner;
        timed(&self.tally, ON_BUS_OFF, || inner.on_bus_off(now));
    }

    fn on_recovered(&mut self, now: BitInstant) {
        let inner = &mut self.inner;
        timed(&self.tally, ON_RECOVERED, || inner.on_recovered(now));
    }
}

/// A timed [`BitAgent`].
pub struct TimedAgent<A: BitAgent> {
    inner: A,
    tally: TallyHandle,
}

impl<A: BitAgent> TimedAgent<A> {
    pub fn new(inner: A) -> (Self, TallyHandle) {
        let tally = TallyHandle::default();
        (
            TimedAgent {
                inner,
                tally: tally.clone(),
            },
            tally,
        )
    }
}

impl<A: BitAgent> BitAgent for TimedAgent<A> {
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        let inner = &mut self.inner;
        timed(&self.tally, ON_BIT, || inner.on_bit(level, now));
    }

    fn tx_level(&self) -> Option<Level> {
        timed(&self.tally, TX_LEVEL, || self.inner.tx_level())
    }

    fn set_own_transmission(&mut self, transmitting: bool) {
        let inner = &mut self.inner;
        timed(&self.tally, SET_OWN_TX, || {
            inner.set_own_transmission(transmitting)
        });
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        timed(&self.tally, NEXT_ACTIVITY, || self.inner.next_activity(now))
    }

    fn drive_horizon(&self, now: BitInstant) -> Option<BitInstant> {
        let horizon = timed(&self.tally, DRIVE_HORIZON, || self.inner.drive_horizon(now));
        if let Some(h) = horizon {
            let mut t = self.tally.borrow_mut();
            t.horizon_bits += h.bits().saturating_sub(now.bits());
            t.horizon_promises += 1;
        }
        horizon
    }

    fn skip_idle(&mut self, bits: u64, from: BitInstant) {
        let inner = &mut self.inner;
        timed(&self.tally, SKIP_IDLE, || inner.skip_idle(bits, from));
        self.tally.borrow_mut().skip_idle_bits += bits;
    }
}

/// A timed [`FrameTap`].
pub struct TimedTap {
    inner: Box<dyn FrameTap>,
    tally: TallyHandle,
}

impl TimedTap {
    pub fn wrap(inner: Box<dyn FrameTap>) -> (Box<dyn FrameTap>, TallyHandle) {
        let tally = TallyHandle::default();
        let tap = TimedTap {
            inner,
            tally: tally.clone(),
        };
        (Box::new(tap), tally)
    }
}

impl FrameTap for TimedTap {
    fn on_frame(&mut self, frame: &CanFrame, now: BitInstant) {
        let inner = &mut self.inner;
        timed(&self.tally, ON_FRAME, || inner.on_frame(frame, now));
    }

    fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        timed(&self.tally, NEXT_ACTIVITY, || self.inner.next_activity(now))
    }
}

/// The cost of the timing itself, measured on an empty callee.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Nanoseconds a timed empty call reports (the clock read that falls
    /// inside the measured interval).
    pub inner_ns: f64,
}

struct EmptyAgent;

impl BitAgent for EmptyAgent {
    #[inline(never)]
    fn on_bit(&mut self, level: Level, now: BitInstant) {
        black_box((level, now));
    }

    fn tx_level(&self) -> Option<Level> {
        None
    }
}

impl Calibration {
    /// Median over several rounds of `CALLS` empty timed calls, through
    /// the same dynamic dispatch the simulator uses.
    pub fn measure() -> Calibration {
        const CALLS: u64 = 200_000;
        let mut inner = Vec::new();
        for _ in 0..7 {
            let (agent, tally) = TimedAgent::new(EmptyAgent);
            let mut timed: Box<dyn BitAgent> = Box::new(agent);
            for i in 0..CALLS {
                timed.on_bit(Level::Recessive, BitInstant::from_bits(black_box(i)));
            }
            inner.push(tally.borrow().ns() as f64 / CALLS as f64);
        }
        Calibration {
            inner_ns: crate::stats::median(&inner),
        }
    }

    /// Net nanoseconds of `calls` timed calls that reported `ns` in total.
    pub fn net_ns(&self, ns: u64, calls: u64) -> f64 {
        (ns as f64 - self.inner_ns * calls as f64).max(0.0)
    }
}
