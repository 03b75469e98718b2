//! The IDS as a bus application: observes complete frames, raises
//! timestamped alerts — and can do nothing else, which is the point
//! (Table I: detection without eradication).

use can_core::app::Application;
use can_core::{BitInstant, CanFrame};

use crate::detector::Detector;
use crate::frequency::FrequencyIds;
use crate::interval::IntervalIds;

pub use crate::detector::{Alert, AlertKind};

/// A passive IDS node application composing any number of named
/// [`Detector`]s over the same frame stream.
///
/// Build with [`IdsMonitor::builder`]:
///
/// ```
/// use can_ids::{FrequencyIds, IdsMonitor, IntervalIds};
///
/// let monitor = IdsMonitor::builder()
///     .with("frequency", Box::new(FrequencyIds::new(5_000, 10)))
///     .with("interval", Box::new(IntervalIds::new(8, 0.5)))
///     .build();
/// assert_eq!(monitor.detector_names(), ["frequency", "interval"]);
/// ```
pub struct IdsMonitor {
    detectors: Vec<(String, Box<dyn Detector>)>,
    alerts: Vec<Alert>,
}

/// Builder for [`IdsMonitor`]: named detectors over the uniform
/// [`Detector`] trait, observed in insertion order.
#[derive(Default)]
#[must_use = "an IdsMonitorBuilder does nothing until `build` is called"]
pub struct IdsMonitorBuilder {
    detectors: Vec<(String, Box<dyn Detector>)>,
}

impl IdsMonitorBuilder {
    /// Adds a named detector. Names are free-form labels carried into
    /// [`IdsMonitor::detector_names`]; detectors observe every frame in
    /// insertion order.
    pub fn with(mut self, name: impl Into<String>, detector: Box<dyn Detector>) -> Self {
        self.detectors.push((name.into(), detector));
        self
    }

    /// Finishes the monitor.
    pub fn build(self) -> IdsMonitor {
        IdsMonitor {
            detectors: self.detectors,
            alerts: Vec::new(),
        }
    }
}

impl IdsMonitor {
    /// Starts an empty builder.
    pub fn builder() -> IdsMonitorBuilder {
        IdsMonitorBuilder::default()
    }

    /// A typical configuration for a 500 kbit/s bus: 10 ms frequency
    /// window with a 10-frame threshold; interval training over 8 samples
    /// with ±50 % tolerance.
    pub fn typical_500k() -> Self {
        Self::builder()
            .with("frequency", Box::new(FrequencyIds::new(5_000, 10)))
            .with("interval", Box::new(IntervalIds::new(8, 0.5)))
            .build()
    }

    /// The configured detector names, in observation order.
    pub fn detector_names(&self) -> Vec<&str> {
        self.detectors
            .iter()
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// All alerts so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The first alert, if any — the IDS's detection instant.
    pub fn first_alert(&self) -> Option<&Alert> {
        self.alerts.first()
    }

    /// Arms every trainable detector (ends training).
    pub fn arm(&mut self) {
        for (_, detector) in &mut self.detectors {
            detector.arm();
        }
    }
}

impl Application for IdsMonitor {
    fn poll(&mut self, _now: BitInstant) -> Option<CanFrame> {
        None // an IDS observes; it cannot transmit a counterattack in time
    }

    fn on_frame(&mut self, frame: &CanFrame, now: BitInstant) {
        for (_, detector) in &mut self.detectors {
            if let Some(alert) = detector.observe(frame, now) {
                self.alerts.push(alert);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::CanId;

    fn frame(id: u16) -> CanFrame {
        CanFrame::data_frame(CanId::from_raw(id), &[0]).unwrap()
    }

    #[test]
    fn monitor_collects_alerts_from_both_detectors() {
        let mut monitor = IdsMonitor::builder()
            .with("frequency", Box::new(FrequencyIds::new(2_000, 3)))
            .with("interval", Box::new(IntervalIds::new(2, 0.5)))
            .build();
        // Train the interval detector with clean 500-bit periods.
        for k in 0..4u64 {
            monitor.on_frame(&frame(0x100), BitInstant::from_bits(k * 500));
        }
        monitor.arm();
        // Now a flood of the same identifier trips both detectors.
        for k in 0..6u64 {
            monitor.on_frame(&frame(0x100), BitInstant::from_bits(2_000 + k * 130));
        }
        let kinds: Vec<AlertKind> = monitor.alerts().iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&AlertKind::Frequency));
        assert!(kinds.contains(&AlertKind::Interval));
        assert!(monitor.first_alert().is_some());
    }

    #[test]
    fn builder_composes_any_detector_mix() {
        use crate::cusum::CusumIds;
        use crate::entropy::EntropyIds;
        use crate::zscore::ZScoreIds;

        let mut monitor = IdsMonitor::builder()
            .with("cusum", Box::new(CusumIds::new(4, 8.0)))
            .with("zscore", Box::new(ZScoreIds::new(4, 6.0)))
            .with("entropy", Box::new(EntropyIds::new(8, 400)))
            .build();
        assert_eq!(monitor.detector_names(), ["cusum", "zscore", "entropy"]);
        for k in 0..30u64 {
            monitor.on_frame(&frame(0x100), BitInstant::from_bits(k * 600));
        }
        monitor.arm();
        assert!(monitor.alerts().is_empty(), "clean traffic stays quiet");
        // A flood compresses intervals and collapses entropy.
        let mut t = 30 * 600;
        for _ in 0..20 {
            t += 100;
            monitor.on_frame(&frame(0x100), BitInstant::from_bits(t));
        }
        let kinds: Vec<AlertKind> = monitor.alerts().iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&AlertKind::Cusum));
        assert!(kinds.contains(&AlertKind::ZScore));
    }

    #[test]
    fn monitor_never_transmits() {
        let mut monitor = IdsMonitor::typical_500k();
        for t in 0..1_000 {
            assert!(monitor.poll(BitInstant::from_bits(t)).is_none());
        }
    }

    #[test]
    fn quiet_bus_raises_no_alerts() {
        let mut monitor = IdsMonitor::typical_500k();
        for k in 0..50u64 {
            monitor.on_frame(&frame(0x200), BitInstant::from_bits(k * 1_000));
        }
        assert!(monitor.alerts().is_empty());
    }
}
