//! Numerical integration.

/// Composite Simpson's rule for `∫_a^b f(x) dx` with `panels` panels.
///
/// `panels` is rounded up to the next even number; accuracy is O(h⁴) for
/// smooth integrands, far more than the model needs at the default 512
/// panels used by the scheme modules.
///
/// # Panics
///
/// Panics if `a > b`, the bounds are not finite, or `panels == 0`.
///
/// # Example
///
/// ```
/// use dirca_analysis::simpson;
///
/// let integral = simpson(0.0, 1.0, 128, |x| 3.0 * x * x);
/// assert!((integral - 1.0).abs() < 1e-10);
/// ```
pub fn simpson(a: f64, b: f64, panels: usize, f: impl Fn(f64) -> f64) -> f64 {
    assert!(
        a.is_finite() && b.is_finite() && a <= b,
        "bad bounds [{a}, {b}]"
    );
    assert!(panels > 0, "at least one panel required");
    // The assert above guarantees `a <= b`, so `a >= b` means the interval
    // is empty.
    if a >= b {
        return 0.0;
    }
    let n = if panels.is_multiple_of(2) {
        panels
    } else {
        panels + 1
    };
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + h * i as f64;
        sum += f(x) * if i % 2 == 0 { 2.0 } else { 4.0 };
    }
    sum * h / 3.0
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    #[test]
    fn exact_for_cubics() {
        // Simpson is exact for polynomials up to degree 3.
        let integral = simpson(0.0, 2.0, 2, |x| x * x * x - x + 1.0);
        let exact = 2.0f64.powi(4) / 4.0 - 2.0 + 2.0;
        assert!((integral - exact).abs() < 1e-12);
    }

    #[test]
    fn converges_for_trig() {
        let integral = simpson(0.0, std::f64::consts::PI, 64, f64::sin);
        assert!((integral - 2.0).abs() < 1e-6);
        let finer = simpson(0.0, std::f64::consts::PI, 512, f64::sin);
        assert!((finer - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_interval_is_zero() {
        assert_eq!(simpson(1.0, 1.0, 10, |x| x), 0.0);
    }

    #[test]
    fn odd_panel_count_rounds_up() {
        let odd = simpson(0.0, 1.0, 63, |x| x * x);
        assert!((odd - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn linearity() {
        let f = |x: f64| x.exp();
        let whole = simpson(0.0, 2.0, 256, f);
        let halves = simpson(0.0, 1.0, 128, f) + simpson(1.0, 2.0, 128, f);
        assert!((whole - halves).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bad bounds")]
    fn rejects_inverted_bounds() {
        let _ = simpson(1.0, 0.0, 4, |x| x);
    }
}
