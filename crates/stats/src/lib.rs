//! Statistics utilities for the experiment harness.
//!
//! * [`Summary`] — streaming mean/variance/min/max (Welford's algorithm)
//!   with Student-t confidence intervals, used for the mean and the
//!   min–max "range whiskers" the paper plots in Figs. 6 and 7.
//! * [`Histogram`] — fixed-bin-width histogram for delay distributions.
//! * [`jain_index`] — Jain's fairness index for the per-node throughput
//!   discussion in §4.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod histogram;
mod summary;

pub use histogram::Histogram;
pub use summary::Summary;

/// Jain's fairness index `(Σx)² / (n·Σx²)` over per-entity allocations.
///
/// Ranges from `1/n` (one entity hogs everything) to `1` (perfectly even).
/// Returns `None` for an empty slice or when every allocation is zero.
///
/// # Example
///
/// ```
/// use dirca_stats::jain_index;
///
/// assert_eq!(jain_index(&[1.0, 1.0, 1.0, 1.0]), Some(1.0));
/// let skewed = jain_index(&[4.0, 0.0, 0.0, 0.0]).unwrap();
/// assert!((skewed - 0.25).abs() < 1e-12);
/// ```
pub fn jain_index(allocations: &[f64]) -> Option<f64> {
    if allocations.is_empty() {
        return None;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    // A sum of squares is non-negative, so this is an exact zero guard.
    if sum_sq <= 0.0 {
        return None;
    }
    Some(sum * sum / (allocations.len() as f64 * sum_sq))
}

/// Exact percentile of a sample set by linear interpolation between order
/// statistics (the "R-7" definition used by most statistics packages).
///
/// `q` is the percentile in `[0, 100]`. Returns `None` for an empty slice
/// or non-finite inputs.
///
/// # Example
///
/// ```
/// use dirca_stats::percentile;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(percentile(&xs, 100.0), Some(4.0));
/// assert_eq!(percentile(&xs, 50.0), Some(2.5));
/// ```
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&q) {
        return None;
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let h = (sorted.len() - 1) as f64 * q / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        let p95 = percentile(&xs, 95.0).unwrap();
        assert!((p95 - 95.05).abs() < 1e-9);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
    }

    #[test]
    fn percentile_rejects_bad_input() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut prev = f64::NEG_INFINITY;
        for q in (0..=100).step_by(5) {
            let v = percentile(&xs, q as f64).unwrap();
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn jain_equal_is_one() {
        let j = jain_index(&[3.5; 10]).unwrap();
        assert!((j - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let mut xs = vec![0.0; 8];
        xs[3] = 7.0;
        let j = jain_index(&xs).unwrap();
        assert!((j - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn jain_bounds() {
        let xs = [0.5, 1.5, 2.5, 0.1];
        let j = jain_index(&xs).unwrap();
        assert!(j > 1.0 / xs.len() as f64 && j <= 1.0);
    }

    #[test]
    fn jain_degenerate_inputs() {
        assert_eq!(jain_index(&[]), None);
        assert_eq!(jain_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn jain_scale_invariant() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 30.0];
        assert!((jain_index(&xs).unwrap() - jain_index(&ys).unwrap()).abs() < 1e-12);
    }
}
