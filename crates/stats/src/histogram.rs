//! Fixed-width histograms.

use std::fmt;

/// A histogram with uniform bin width over `[lo, hi)`, plus underflow and
/// overflow counters.
///
/// # Example
///
/// ```
/// use dirca_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// for x in [0.5, 1.5, 2.5, 2.6, 11.0, -1.0] {
///     h.record(x);
/// }
/// assert_eq!(h.bin_count(0), 2);  // [0, 2): 0.5, 1.5
/// assert_eq!(h.bin_count(1), 2);  // [2, 4): 2.5, 2.6
/// assert_eq!(h.overflow(), 1);    // 11.0
/// assert_eq!(h.underflow(), 1);   // -1.0
/// assert_eq!(h.total(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram of `bins` equal-width bins over `[lo, hi)`.
    ///
    /// Returns `None` if `bins == 0`, the bounds are not finite, or
    /// `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Option<Self> {
        if bins == 0 || !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return None;
        }
        Some(Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// The `[lo, hi)` bounds the histogram was created with.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether the histogram has zero bins (never true for a constructed
    /// histogram).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// The half-open range `[lo, hi)` covered by bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Samples below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Iterates over `(bin_low, bin_high, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.bins.len()).map(move |i| {
            let (lo, hi) = self.bin_range(i);
            (lo, hi, self.bins[i])
        })
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "histogram [{}, {}) n={}", self.lo, self.hi, self.total())?;
        for (lo, hi, n) in self.iter() {
            writeln!(f, "  [{lo:10.4}, {hi:10.4}): {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 1.0, 4).is_none());
        assert!(Histogram::new(2.0, 1.0, 4).is_none());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_none());
        assert!(Histogram::new(0.0, 1.0, 4).is_some());
    }

    #[test]
    fn samples_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.record(0.0);
        h.record(0.999);
        h.record(5.0);
        h.record(9.999);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(5), 1);
        assert_eq!(h.bin_count(9), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn boundaries_are_half_open() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.record(1.0); // exactly on a bin edge: belongs to bin 1
        assert_eq!(h.bin_count(0), 0);
        assert_eq!(h.bin_count(1), 1);
        h.record(10.0); // == hi: overflow
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(-1.0, 1.0, 2).unwrap();
        h.record(-2.0);
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn bin_ranges_tile_the_domain() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        let mut expected_lo = 0.0;
        for i in 0..h.len() {
            let (lo, hi) = h.bin_range(i);
            assert!((lo - expected_lo).abs() < 1e-12);
            expected_lo = hi;
        }
        assert!((expected_lo - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iter_matches_bins() {
        let mut h = Histogram::new(0.0, 3.0, 3).unwrap();
        h.record(0.5);
        h.record(2.5);
        let counts: Vec<u64> = h.iter().map(|(_, _, n)| n).collect();
        assert_eq!(counts, vec![1, 0, 1]);
    }

    #[test]
    fn display_contains_counts() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(0.25);
        assert!(format!("{h}").contains("n=1"));
    }
}
