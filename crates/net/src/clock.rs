//! Simulated time.

/// A monotonically advancing simulated clock, in seconds.
///
/// Every client in an experiment holds its own clock; the coverage and
/// lifetime sessions advance them in lock-step.
///
/// # Examples
///
/// ```
/// use bees_net::SimClock;
///
/// let mut clock = SimClock::new();
/// clock.advance(1.5);
/// assert_eq!(clock.now(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now_s: f64,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Advances the clock by `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite (simulated time never runs
    /// backwards).
    pub fn advance(&mut self, dt: f64) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "clock can only advance forward, got {dt}"
        );
        self.now_s += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_accumulate() {
        let mut c = SimClock::new();
        c.advance(2.0);
        c.advance(3.5);
        assert_eq!(c.now(), 5.5);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn negative_advance_panics() {
        SimClock::new().advance(-1.0);
    }
}
