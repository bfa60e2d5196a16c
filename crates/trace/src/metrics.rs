//! A statically-named metrics registry: counters, gauges, and
//! `dirca-stats` histograms, encoded as one typed `METRICS` wire payload
//! ([`crate::wire::metrics_payload`]).
//!
//! Names are `&'static str` by construction, so the set of metrics a build
//! can emit is fixed at compile time. Storage is ordered vectors with
//! linear find-or-insert — metric counts are small (tens), lookups are off
//! the simulation hot path, and registration order (not hash order)
//! determines output order, keeping reports byte-stable across runs.

use dirca_stats::Histogram;

/// A snapshot-oriented registry of named metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    pub(crate) counters: Vec<(&'static str, u64)>,
    pub(crate) gauges: Vec<(&'static str, f64)>,
    pub(crate) histograms: Vec<(&'static str, Histogram)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Whether no metrics have been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `delta` to the counter `name`, registering it at zero first if
    /// needed.
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, value)) => *value += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Sets the gauge `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite — a NaN/inf gauge is a bug in the
    /// code that computed it, not a measurement.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "gauge {name} must be finite");
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, slot)) => *slot = value,
            None => self.gauges.push((name, value)),
        }
    }

    /// Records `x` into the histogram `name`, creating it with the given
    /// shape on first use. The shape arguments are ignored on subsequent
    /// calls — the first registration wins.
    ///
    /// # Panics
    ///
    /// Panics if the first-use shape is invalid (`bins == 0`, non-finite or
    /// inverted bounds).
    pub fn record_histogram(&mut self, name: &'static str, lo: f64, hi: f64, bins: usize, x: f64) {
        if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| *n == name) {
            h.record(x);
            return;
        }
        let mut h = Histogram::new(lo, hi, bins)
            .expect("histogram shapes are compile-time constants and must be valid");
        h.record(x);
        self.histograms.push((name, h));
    }

    /// The current value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The current value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_metrics_payload, metrics_payload};

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.add_counter("rts_tx", 2);
        m.add_counter("rts_tx", 3);
        m.add_counter("cts_tx", 1);
        assert_eq!(m.counter("rts_tx"), Some(5));
        assert_eq!(m.counter("cts_tx"), Some(1));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("airtime_s", 0.25);
        m.set_gauge("airtime_s", 0.5);
        assert_eq!(m.gauge("airtime_s"), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_gauge_panics() {
        MetricsRegistry::new().set_gauge("bad", f64::NAN);
    }

    #[test]
    fn histograms_record_and_keep_first_shape() {
        let mut m = MetricsRegistry::new();
        m.record_histogram("delay_s", 0.0, 1.0, 10, 0.35);
        m.record_histogram("delay_s", 5.0, 9.0, 2, 0.15);
        let h = m.histogram("delay_s").unwrap();
        assert_eq!(h.len(), 10);
        assert_eq!(h.total(), 2);
        assert_eq!(h.bin_count(3), 1);
        assert_eq!(h.bin_count(1), 1);
    }

    #[test]
    fn wire_snapshot_preserves_registration_order() {
        let mut m = MetricsRegistry::new();
        m.add_counter("b_second", 1);
        m.add_counter("a_first", 2);
        m.set_gauge("g", 1.5);
        m.record_histogram("h", 0.0, 4.0, 4, 2.5);
        m.record_histogram("h", 0.0, 4.0, 4, 9.0);
        let back = decode_metrics_payload(&metrics_payload(&m)).unwrap();
        let names: Vec<&str> = back.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["b_second", "a_first"]);
        assert_eq!(back.counter("a_first"), Some(2));
        assert_eq!(back.gauges, [("g".to_string(), 1.5)]);
        let h = &back.histograms[0];
        assert_eq!((h.name.as_str(), h.lo, h.hi), ("h", 0.0, 4.0));
        assert_eq!(h.bins, [0, 0, 1, 0]);
        assert_eq!((h.underflow, h.overflow), (0, 1));
    }

    #[test]
    fn empty_registry_encodes_three_empty_sections() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        assert_eq!(metrics_payload(&m), [0; 12]);
        let back = decode_metrics_payload(&metrics_payload(&m)).unwrap();
        assert!(back.counters.is_empty() && back.gauges.is_empty() && back.histograms.is_empty());
    }
}
