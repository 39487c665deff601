//! Energy-aware adaptive schemes (EAAS).
//!
//! The paper's central knob: each approximate stage reads the remaining
//! battery fraction `Ebat` and sets its quality/efficiency trade-off through
//! a clamped linear function —
//!
//! * **EAC** (energy-aware adaptive compression, §III-A): bitmap
//!   compression proportion `C = 0.4 − 0.4·Ebat`, keeping the precision loss
//!   under ~10 %,
//! * **EDR** (energy-defined redundancy, §III-B1): similarity threshold
//!   `T = T0 + k·Ebat` (paper constants `T0 = 0.013`, `k = 0.006`); lower
//!   battery → lower threshold → more images declared redundant,
//! * **EAU** (energy-aware adaptive uploading, §III-C): resolution
//!   compression proportion `Cr = 0.8 − 0.8·Ebat`,
//! * **SSMM** reuses the EDR form for its graph-partition threshold `Tw`.

/// A clamped linear adaptive scheme: `clamp(intercept + slope·ebat)`.
///
/// # Examples
///
/// ```
/// use bees_energy::LinearScheme;
///
/// let eac = LinearScheme::eac();
/// assert!((eac.value(1.0) - 0.0).abs() < 1e-9);   // full battery: no compression
/// assert!((eac.value(0.05) - 0.38).abs() < 1e-9); // paper's Ebat = 5% example
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearScheme {
    /// Value at `ebat = 0`.
    pub intercept: f64,
    /// Change per unit of `ebat`.
    pub slope: f64,
    /// Lower clamp.
    pub min: f64,
    /// Upper clamp.
    pub max: f64,
}

impl LinearScheme {
    /// Creates a clamped linear scheme.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not finite or `min > max` (in a `const`
    /// initializer, that is a compile error).
    pub const fn new(intercept: f64, slope: f64, min: f64, max: f64) -> Self {
        assert!(
            intercept.is_finite() && slope.is_finite() && min.is_finite() && max.is_finite(),
            "scheme parameters must be finite"
        );
        assert!(min <= max, "min must not exceed max");
        LinearScheme {
            intercept,
            slope,
            min,
            max,
        }
    }

    /// Control value for a battery fraction `ebat`, clamped into `[0, 1]`
    /// first. A pure function of `ebat`, so experiments are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either is NaN, which
    /// [`new`](LinearScheme::new) rejects.
    pub fn value(&self, ebat: f64) -> f64 {
        let e = ebat.clamp(0.0, 1.0);
        (self.intercept + self.slope * e).clamp(self.min, self.max)
    }

    /// EAC: bitmap compression proportion `C = 0.4 − 0.4·Ebat` (§III-A).
    pub const fn eac() -> Self {
        LinearScheme::new(0.4, -0.4, 0.0, 0.9)
    }

    /// EDR: similarity threshold `T = t0 + k·Ebat` (§III-B1). The paper's
    /// constants for its OpenCV-ORB score distribution are
    /// `t0 = 0.013, k = 0.006`; ours are re-derived from our measured
    /// distribution the same way (see `fig4_distribution`).
    pub const fn edr(t0: f64, k: f64) -> Self {
        LinearScheme::new(t0, k, 0.0, 1.0)
    }

    /// EAU: resolution compression proportion `Cr = 0.8 − 0.8·Ebat`
    /// (§III-C).
    pub const fn eau() -> Self {
        LinearScheme::new(0.8, -0.8, 0.0, 0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eac_matches_paper_examples() {
        let eac = LinearScheme::eac();
        // Full battery: no bitmap compression.
        assert!((eac.value(1.0)).abs() < 1e-9);
        // Ebat = 5%: C = 0.38 (paper §III-A example).
        assert!((eac.value(0.05) - 0.38).abs() < 1e-9);
        // Empty battery: C = 0.4 — never beyond the 10%-error boundary.
        assert!((eac.value(0.0) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn eau_matches_paper_example() {
        let eau = LinearScheme::eau();
        // Ebat = 5%: Cr = 0.76 (paper §III-C example).
        assert!((eau.value(0.05) - 0.76).abs() < 1e-9);
        assert!(eau.value(1.0).abs() < 1e-9);
    }

    #[test]
    fn edr_rises_with_battery() {
        let edr = LinearScheme::edr(0.013, 0.006);
        assert!((edr.value(1.0) - 0.019).abs() < 1e-9);
        assert!((edr.value(0.0) - 0.013).abs() < 1e-9);
        assert!(edr.value(0.5) > edr.value(0.1));
    }

    #[test]
    fn values_are_clamped() {
        let s = LinearScheme::new(0.0, 2.0, 0.1, 0.9);
        assert_eq!(s.value(0.0), 0.1);
        assert_eq!(s.value(1.0), 0.9);
        // Out-of-range ebat clamps too.
        assert_eq!(s.value(5.0), 0.9);
        assert_eq!(s.value(-1.0), 0.1);
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn inverted_clamps_rejected() {
        let _ = LinearScheme::new(0.0, 1.0, 1.0, 0.0);
    }
}
