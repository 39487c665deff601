//! The simulated smartphone battery.

/// A battery with a fixed capacity in joules.
///
/// `Ebat` — the remaining-energy fraction every EAAS scheme consumes — is
/// [`Battery::fraction`]. Draining saturates at zero; the battery never goes
/// negative.
///
/// # Examples
///
/// ```
/// use bees_energy::Battery;
///
/// // The paper's handset: 3150 mAh at 3.8 V ≈ 43.1 kJ.
/// let mut b = Battery::from_mah(3150.0, 3.8);
/// assert!((b.capacity_joules() - 43_092.0).abs() < 1.0);
/// b.drain(b.capacity_joules() / 2.0);
/// assert!((b.fraction() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    remaining_j: f64,
}

impl Battery {
    /// Creates a full battery with the given capacity in joules.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_j` is not finite and positive.
    pub fn from_joules(capacity_j: f64) -> Self {
        assert!(
            capacity_j.is_finite() && capacity_j > 0.0,
            "battery capacity must be positive, got {capacity_j}"
        );
        Battery {
            capacity_j,
            remaining_j: capacity_j,
        }
    }

    /// Creates a full battery from a milliamp-hour rating and voltage
    /// (`J = mAh · 3.6 · V`).
    ///
    /// # Panics
    ///
    /// Panics if either argument is not finite and positive.
    pub fn from_mah(mah: f64, volts: f64) -> Self {
        assert!(mah.is_finite() && mah > 0.0, "mAh must be positive");
        assert!(volts.is_finite() && volts > 0.0, "voltage must be positive");
        Battery::from_joules(mah * 3.6 * volts)
    }

    /// Full capacity in joules.
    #[inline]
    pub fn capacity_joules(&self) -> f64 {
        self.capacity_j
    }

    /// Remaining charge in joules.
    #[inline]
    pub fn remaining_joules(&self) -> f64 {
        self.remaining_j
    }

    /// Remaining fraction in `[0, 1]` — the paper's `Ebat`.
    #[inline]
    pub fn fraction(&self) -> f64 {
        self.remaining_j / self.capacity_j
    }

    /// Joules drained since the battery was full — the denominator of the
    /// contention bench's coverage-per-joule metric.
    #[inline]
    pub fn drawn_joules(&self) -> f64 {
        self.capacity_j - self.remaining_j
    }

    /// Whether the battery is exhausted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining_j <= 0.0
    }

    /// Drains `joules`, saturating at empty. Returns the amount actually
    /// drained (less than `joules` only when the battery ran out).
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    pub fn drain(&mut self, joules: f64) -> f64 {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "drain amount must be non-negative"
        );
        let drained = joules.min(self.remaining_j);
        self.remaining_j -= drained;
        drained
    }

    /// Sets the remaining fraction directly (used to stage experiments at a
    /// given `Ebat`).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction <= 1.0`.
    pub fn set_fraction(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1], got {fraction}"
        );
        self.remaining_j = self.capacity_j * fraction;
    }
}

impl Default for Battery {
    /// The paper's handset battery: 3150 mAh at 3.8 V.
    fn default() -> Self {
        Battery::from_mah(3150.0, 3.8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_conversion_matches_paper_handset() {
        let b = Battery::default();
        assert!((b.capacity_joules() - 3150.0 * 3.6 * 3.8).abs() < 1e-9);
    }

    #[test]
    fn drain_saturates_at_zero() {
        let mut b = Battery::from_joules(10.0);
        assert_eq!(b.drain(4.0), 4.0);
        assert_eq!(b.drain(100.0), 6.0);
        assert!(b.is_empty());
        assert_eq!(b.fraction(), 0.0);
        assert_eq!(b.drain(1.0), 0.0);
    }

    #[test]
    fn drawn_joules_mirrors_the_drain() {
        let mut b = Battery::from_joules(10.0);
        assert_eq!(b.drawn_joules(), 0.0);
        b.drain(4.0);
        assert!((b.drawn_joules() - 4.0).abs() < 1e-12);
        b.drain(100.0);
        assert!((b.drawn_joules() - 10.0).abs() < 1e-12);
        b.set_fraction(1.0);
        assert_eq!(b.drawn_joules(), 0.0);
    }

    #[test]
    fn set_fraction_and_recharge() {
        let mut b = Battery::from_joules(100.0);
        b.set_fraction(0.3);
        assert!((b.remaining_joules() - 30.0).abs() < 1e-9);
        b.set_fraction(1.0);
        assert_eq!(b.fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn set_fraction_rejects_out_of_range() {
        Battery::from_joules(1.0).set_fraction(1.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Battery::from_joules(0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_drain_rejected() {
        Battery::from_joules(1.0).drain(-0.1);
    }
}
