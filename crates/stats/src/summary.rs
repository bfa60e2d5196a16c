//! Streaming summary statistics.

use std::fmt;

/// Streaming mean, variance, min, and max over a sequence of samples
/// (Welford's online algorithm — numerically stable, O(1) memory).
///
/// # Example
///
/// ```
/// use dirca_stats::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(s.count(), 8);
/// assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev().unwrap() - 2.0).abs() < 1e-12);
/// assert_eq!(s.min(), Some(2.0));
/// assert_eq!(s.max(), Some(9.0));
/// ```
#[derive(Debug, Clone)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    /// Identical to [`Summary::new`] — in particular `min`/`max` start at
    /// ±∞, not zero, so the first sample sets them.
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite — a NaN would silently poison every
    /// later statistic.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "sample must be finite, got {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Unbiased sample variance (n−1 denominator); `None` with fewer than
    /// two samples.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Population variance (n denominator); `None` when empty.
    pub fn population_variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Square root of [`Summary::population_variance`].
    pub fn population_std_dev(&self) -> Option<f64> {
        self.population_variance().map(f64::sqrt)
    }

    /// Standard error of the mean; `None` with fewer than two samples.
    pub fn std_error(&self) -> Option<f64> {
        self.sample_variance()
            .map(|v| (v / self.count as f64).sqrt())
    }

    /// Half-width of the 95% Student-t confidence interval on the mean;
    /// `None` with fewer than two samples.
    pub fn ci95_half_width(&self) -> Option<f64> {
        let se = self.std_error()?;
        Some(se * t_critical_95((self.count - 1) as usize))
    }

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(m) => write!(
                f,
                "{m:.4} ±{:.4} [{:.4}, {:.4}] (n={})",
                self.ci95_half_width().unwrap_or(0.0),
                self.min,
                self.max,
                self.count
            ),
            None => f.write_str("(no samples)"),
        }
    }
}

/// Two-sided 95% Student-t critical value for `dof` degrees of freedom.
///
/// Table for small dof, asymptote 1.96 beyond 120.
fn t_critical_95(dof: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match dof {
        0 => f64::INFINITY,
        d if d <= 30 => TABLE[d - 1],
        d if d <= 40 => 2.021,
        d if d <= 60 => 2.000,
        d if d <= 120 => 1.980,
        _ => 1.960,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_new_and_first_sample_sets_extrema() {
        // Regression: a derived Default would start min/max at 0.0, making
        // every distribution appear to contain a zero sample.
        let mut s = Summary::default();
        s.push(5.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn empty_summary_returns_none() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.ci95_half_width(), None);
        assert_eq!(format!("{s}"), "(no samples)");
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.push(3.0);
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.min(), Some(3.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.population_variance(), Some(0.0));
    }

    #[test]
    fn known_variance() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0, 5.0].iter().copied().collect();
        assert_eq!(s.mean(), Some(3.0));
        assert!((s.sample_variance().unwrap() - 2.5).abs() < 1e-12);
        assert!((s.population_variance().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_naive_on_shifted_data() {
        // A large offset breaks naive sum-of-squares; Welford must not care.
        let base = 1e9;
        let s: Summary = (0..1000).map(|i| base + (i % 7) as f64).collect();
        let xs: Vec<f64> = (0..1000).map(|i| (i % 7) as f64).collect();
        let mean = xs.iter().sum::<f64>() / 1000.0;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 999.0;
        assert!((s.sample_variance().unwrap() - var).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let all: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..20].iter().copied().collect();
        let right: Summary = xs[20..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean().unwrap() - all.mean().unwrap()).abs() < 1e-9);
        assert!((left.sample_variance().unwrap() - all.sample_variance().unwrap()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].iter().copied().collect();
        s.merge(&Summary::new());
        assert_eq!(s.count(), 2);
        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), s.mean());
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let narrow: Summary = (0..10).map(|i| (i % 2) as f64).collect();
        let wide: Summary = (0..1000).map(|i| (i % 2) as f64).collect();
        assert!(wide.ci95_half_width().unwrap() < narrow.ci95_half_width().unwrap());
    }

    #[test]
    fn t_table_sane() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        assert!((t_critical_95(49) - 2.0).abs() < 1e-9);
        assert!((t_critical_95(10_000) - 1.96).abs() < 1e-9);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan() {
        Summary::new().push(f64::NAN);
    }

    #[test]
    fn extend_and_collect_agree() {
        let xs = [0.5, 1.5, 2.5];
        let collected: Summary = xs.iter().copied().collect();
        let mut extended = Summary::new();
        extended.extend(xs.iter().copied());
        assert_eq!(collected.mean(), extended.mean());
        assert_eq!(collected.count(), extended.count());
    }

    #[test]
    fn display_contains_fields() {
        let s: Summary = [1.0, 2.0, 3.0].iter().copied().collect();
        let text = format!("{s}");
        assert!(text.contains("n=3"));
    }
}
