//! Software synchronization model (paper §IV-C).
//!
//! MichiCAN bypasses the CAN controller, so it must replicate bit
//! synchronization in software: a timer interrupt fires once per nominal
//! bit time and samples `CAN_RX` at ~70 % of the bit. Two imperfections
//! threaten this:
//!
//! 1. the MCU oscillator drifts relative to the transmitter's, so the
//!    sampling point wanders within (and eventually out of) the bit;
//! 2. the SOF-edge interrupt plus handler prologue consume a constant
//!    number of cycles — the *fudge factor* — that must be subtracted when
//!    restarting the timer.
//!
//! [`SoftSync`] tracks the sampling offset bit by bit; *hard
//! synchronization* at each SOF resets the accumulated error. The model
//! quantifies how many bits a defender can sample correctly without a hard
//! sync — i.e. why resynchronizing at every SOF (as MichiCAN does) is
//! sufficient, and why free-running timers are not.

use can_core::BusSpeed;
use serde::{Deserialize, Serialize};

/// Default sampling point within the nominal bit time (70 %).
pub const DEFAULT_SAMPLE_POINT: f64 = 0.70;

/// Configuration of the software synchronization model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncConfig {
    /// Bus speed (fixes the nominal bit time).
    pub speed: BusSpeed,
    /// Relative oscillator drift between defender and transmitter, in
    /// parts per million. Automotive-grade crystals are within ±100 ppm.
    pub drift_ppm: f64,
    /// Fraction of the bit time at which sampling should occur.
    pub sample_point: f64,
    /// Fixed handler-prologue latency compensated at hard sync, in
    /// nanoseconds (the paper's empirically determined *fudge factor*).
    pub fudge_ns: f64,
}

impl SyncConfig {
    /// A typical configuration at the given speed: ±100 ppm drift, 70 %
    /// sample point, 200 ns prologue.
    pub fn typical(speed: BusSpeed) -> Self {
        SyncConfig {
            speed,
            drift_ppm: 100.0,
            sample_point: DEFAULT_SAMPLE_POINT,
            fudge_ns: 200.0,
        }
    }
}

/// Sampling-point tracker for a software-synchronized defender.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftSync {
    config: SyncConfig,
    /// Nominal bit time in nanoseconds, fixed by `config`.
    bit_time_ns: f64,
    /// Each timer period is off by `drift_ppm` relative to the
    /// transmitter's bit time; the error accumulates linearly.
    drift_per_bit_ns: f64,
    /// Offset of the sample within the current bit, in nanoseconds from
    /// the bit's start.
    offset_ns: f64,
    hard_syncs: u64,
}

impl SoftSync {
    /// Creates a tracker, initially hard-synchronized.
    pub fn new(config: SyncConfig) -> Self {
        let bit_time_ns = config.speed.bit_time_ns();
        let mut sync = SoftSync {
            config,
            bit_time_ns,
            drift_per_bit_ns: bit_time_ns * config.drift_ppm / 1e6,
            offset_ns: 0.0,
            hard_syncs: 0,
        };
        sync.hard_sync();
        sync.hard_syncs = 0;
        sync
    }

    /// The configuration.
    pub fn config(&self) -> &SyncConfig {
        &self.config
    }

    /// Performs a hard synchronization (SOF edge): the timer restarts so
    /// the next sample lands at the configured sample point, the fudge
    /// factor compensating the handler prologue.
    pub fn hard_sync(&mut self) {
        self.offset_ns = self.config.sample_point * self.bit_time_ns;
        self.hard_syncs += 1;
    }

    /// Advances by one timer period; returns the new sampling offset in
    /// nanoseconds within the (ideal) current bit.
    pub fn advance_bit(&mut self) -> f64 {
        self.offset_ns += self.drift_per_bit_ns;
        self.offset_ns
    }

    /// Advances by up to `bits` timer periods, stopping before the first
    /// one whose sample would leave the bit; returns how many it took.
    /// Adds the drift once per period, exactly as [`SoftSync::advance_bit`]
    /// does, so the offset stays bit-identical to a per-bit walk.
    pub fn advance_while_valid(&mut self, bits: u64) -> u64 {
        let (drift, bit) = (self.drift_per_bit_ns, self.bit_time_ns);
        let mut offset = self.offset_ns;
        for taken in 0..bits {
            let next = offset + drift;
            if !(next > 0.0 && next < bit) {
                self.offset_ns = offset;
                return taken;
            }
            offset = next;
        }
        self.offset_ns = offset;
        bits
    }

    /// Current sampling offset as a fraction of the bit time.
    pub fn offset_fraction(&self) -> f64 {
        self.offset_ns / self.bit_time_ns
    }

    /// Whether the sample still falls inside the intended bit.
    ///
    /// Real controllers additionally require clearance from the bit edges;
    /// this uses the full bit as the validity window, so it is an upper
    /// bound.
    pub fn is_sample_valid(&self) -> bool {
        self.offset_ns > 0.0 && self.offset_ns < self.bit_time_ns
    }

    /// Number of hard synchronizations performed.
    pub fn hard_syncs(&self) -> u64 {
        self.hard_syncs
    }

    /// How many bits can elapse after a hard sync before the sample drifts
    /// out of the bit, for this configuration (closed form).
    pub fn max_bits_before_desync(&self) -> u64 {
        let drift_per_bit = self.config.drift_ppm.abs() / 1e6;
        if drift_per_bit == 0.0 {
            return u64::MAX;
        }
        // Room from the sample point to the nearer bit edge.
        let room = if self.config.drift_ppm >= 0.0 {
            1.0 - self.config.sample_point
        } else {
            self.config.sample_point
        };
        // Validity is strict (`0 < offset < bit`): an exact multiple is
        // already out, hence the epsilon before flooring.
        ((room / drift_per_bit) - 1e-9).floor() as u64
    }

    /// The paper's first-interrupt delay after the SOF edge: the sample
    /// point of the *next* bit minus the fudge factor, in nanoseconds
    /// ("for a 500 kbit/s CAN bus, the timer interrupt would first
    /// activate after 1.4 µs", §IV-C).
    pub fn first_interrupt_delay_ns(&self) -> f64 {
        self.config.sample_point * self.bit_time_ns - self.config.fudge_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_drift_never_desyncs() {
        let mut sync = SoftSync::new(SyncConfig {
            speed: BusSpeed::K125,
            drift_ppm: 0.0,
            ..SyncConfig::typical(BusSpeed::K125)
        });
        for _ in 0..1_000_000 {
            sync.advance_bit();
        }
        assert!(sync.is_sample_valid());
        assert_eq!(sync.max_bits_before_desync(), u64::MAX);
    }

    #[test]
    fn typical_drift_survives_a_max_length_frame() {
        // 100 ppm drift: sample wanders 0.01 % of a bit per bit — a
        // 135-bit worst-case frame accumulates 1.35 % of a bit. Easily
        // valid: per-frame hard sync is sufficient.
        let mut sync = SoftSync::new(SyncConfig::typical(BusSpeed::K500));
        for _ in 0..135 {
            sync.advance_bit();
        }
        assert!(sync.is_sample_valid());
        assert!(sync.offset_fraction() < 0.72);
    }

    #[test]
    fn desync_bound_matches_simulation() {
        let config = SyncConfig {
            speed: BusSpeed::K500,
            drift_ppm: 5000.0, // deliberately terrible oscillator
            sample_point: 0.70,
            fudge_ns: 0.0,
        };
        let mut sync = SoftSync::new(config);
        let bound = sync.max_bits_before_desync();
        // (1.0 - 0.7) / 0.005 = 60 bits exactly; the 60th sample lands on
        // the bit edge and is already invalid.
        assert_eq!(bound, 59);
        for _ in 0..bound {
            sync.advance_bit();
            assert!(sync.is_sample_valid(), "within bound");
        }
        sync.advance_bit();
        assert!(!sync.is_sample_valid(), "one past the bound");
    }

    #[test]
    fn advance_while_valid_stops_before_the_first_loss() {
        let config = SyncConfig {
            speed: BusSpeed::K500,
            drift_ppm: 5000.0,
            sample_point: 0.70,
            fudge_ns: 0.0,
        };
        let (mut walked, mut stepped) = (SoftSync::new(config), SoftSync::new(config));
        assert_eq!(walked.advance_while_valid(20), 20);
        assert_eq!(walked.advance_while_valid(100), 39);
        for _ in 0..59 {
            stepped.advance_bit();
        }
        assert_eq!(walked, stepped, "bit-identical to the per-bit walk");
        assert_eq!(walked.advance_while_valid(5), 0);
    }

    #[test]
    fn hard_sync_resets_accumulated_error() {
        let mut sync = SoftSync::new(SyncConfig {
            speed: BusSpeed::K50,
            drift_ppm: 1000.0,
            sample_point: 0.70,
            fudge_ns: 100.0,
        });
        for _ in 0..200 {
            sync.advance_bit();
        }
        let drifted = sync.offset_fraction();
        assert!(drifted > 0.70);
        sync.hard_sync();
        assert!((sync.offset_fraction() - 0.70).abs() < 1e-12);
        assert_eq!(sync.hard_syncs(), 1);
    }

    #[test]
    fn negative_drift_walks_toward_bit_start() {
        let config = SyncConfig {
            speed: BusSpeed::K500,
            drift_ppm: -5000.0,
            sample_point: 0.70,
            fudge_ns: 0.0,
        };
        let mut sync = SoftSync::new(config);
        // 0.7 / 0.005 = 140 bits of room; the edge sample is invalid.
        assert_eq!(sync.max_bits_before_desync(), 139);
        sync.advance_bit();
        assert!(sync.offset_fraction() < 0.70);
    }
}
