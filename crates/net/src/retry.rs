//! Energy-aware retry policy with deterministic backoff.
//!
//! The paper's adaptation philosophy — spend less as the battery drains —
//! is applied to retries too (EAAS-style): the retry budget for a transfer
//! shrinks linearly with `Ebat`, so a nearly-dead phone gives up quickly
//! instead of burning its last joules on a hopeless link. Backoff is
//! exponential with *seeded* jitter, so sweeps remain reproducible: the
//! wait before retry `n` is
//! `min(BASE_BACKOFF_S · BACKOFF_FACTOR^n, MAX_BACKOFF_S) · (1 + JITTER · (u − ½))`,
//! with constants no workload varies. The budget (`max_attempts`) and the
//! resume granularity (`chunk_bytes`) are settable because workloads run
//! them at different values.

use crate::trace::{hash64, unit};
use crate::{NetError, Result};

/// Salt mixed into the per-attempt jitter hash.
const JITTER_SALT: u64 = 0x1177_E200_0000_0003;
/// Backoff before the second attempt, in seconds.
const BASE_BACKOFF_S: f64 = 0.5;
/// Multiplier applied to the backoff after each failed attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Ceiling on a single backoff wait before jitter, in seconds.
const MAX_BACKOFF_S: f64 = 30.0;
/// Jitter amplitude as a fraction of the backoff (±12.5 %), sampled
/// deterministically from the seed and attempt.
const JITTER: f64 = 0.25;

/// Governs chunked resumable transfers: how many attempts, and the resume
/// granularity.
///
/// # Examples
///
/// ```
/// use bees_net::RetryPolicy;
///
/// let policy = RetryPolicy::default();
/// // Full battery gets the whole budget, an empty one a single attempt.
/// assert_eq!(policy.budget(1.0), policy.max_attempts);
/// assert_eq!(policy.budget(0.0), 1);
/// // Backoff grows but is capped and deterministic per (seed, attempt).
/// assert_eq!(RetryPolicy::backoff_s(3, 7), RetryPolicy::backoff_s(3, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempt ceiling at full battery; the effective budget scales down
    /// linearly with `Ebat` (see [`budget`](RetryPolicy::budget)).
    pub max_attempts: u32,
    /// Resume granularity: bytes delivered past the last whole chunk are
    /// retransmitted on the next attempt (torn-chunk discard).
    pub chunk_bytes: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            chunk_bytes: 16 * 1024,
        }
    }
}

impl RetryPolicy {
    /// Checks every field.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(NetError::InvalidParameter {
                name: "max_attempts",
                value: 0.0,
            });
        }
        if self.chunk_bytes == 0 {
            return Err(NetError::InvalidParameter {
                name: "chunk_bytes",
                value: 0.0,
            });
        }
        Ok(())
    }

    /// The attempt budget at battery fraction `ebat` (clamped to
    /// `[0, 1]`): `1 + round((max_attempts - 1) · Ebat)`. Always at least
    /// one attempt, the full `max_attempts` only on a full battery.
    pub fn budget(&self, ebat: f64) -> u32 {
        let ebat = if ebat.is_finite() {
            ebat.clamp(0.0, 1.0)
        } else {
            0.0
        };
        1 + ((self.max_attempts - 1) as f64 * ebat).round() as u32
    }

    /// The backoff before retry number `attempt` (0 = the wait after the
    /// first failure), with deterministic jitter drawn from `seed`:
    /// `min(base · factor^attempt, max) · (1 + jitter · (u − ½))` where
    /// `u` is uniform in `[0, 1)`.
    pub fn backoff_s(attempt: u32, seed: u64) -> f64 {
        let h = hash64(
            seed ^ (attempt as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(JITTER_SALT),
        );
        nominal_backoff_s(attempt) * (1.0 + JITTER * (unit(h) - 0.5))
    }
}

/// The backoff before retry number `attempt` without jitter:
/// `min(base · factor^attempt, max)`.
fn nominal_backoff_s(attempt: u32) -> f64 {
    let exp = attempt.min(62) as i32;
    (BASE_BACKOFF_S * BACKOFF_FACTOR.powi(exp)).min(MAX_BACKOFF_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_with_battery() {
        let p = RetryPolicy::default();
        assert_eq!(p.budget(1.0), 6);
        assert_eq!(p.budget(0.0), 1);
        assert_eq!(p.budget(-3.0), 1);
        assert_eq!(p.budget(7.0), 6);
        assert_eq!(p.budget(f64::NAN), 1);
        let mut prev = 0;
        for k in 0..=10 {
            let b = p.budget(k as f64 / 10.0);
            assert!(b >= prev, "budget must be monotone in Ebat");
            assert!((1..=6).contains(&b));
            prev = b;
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        assert!((nominal_backoff_s(0) - 0.5).abs() < 1e-12);
        assert!((nominal_backoff_s(1) - 1.0).abs() < 1e-12);
        assert!((nominal_backoff_s(2) - 2.0).abs() < 1e-12);
        // 0.5 * 2^10 = 512 > cap of 30.
        assert!((nominal_backoff_s(10) - 30.0).abs() < 1e-12);
        // Huge attempt numbers must not overflow powi.
        assert!(RetryPolicy::backoff_s(u32::MAX, 1).is_finite());
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        for attempt in 0..20 {
            let a = RetryPolicy::backoff_s(attempt, 99);
            let b = RetryPolicy::backoff_s(attempt, 99);
            assert_eq!(a, b);
            let nominal = (0.5 * 2f64.powi(attempt as i32)).min(30.0);
            assert!(a >= nominal * (1.0 - 0.125) - 1e-12, "{a} vs {nominal}");
            assert!(a <= nominal * (1.0 + 0.125) + 1e-12, "{a} vs {nominal}");
        }
        // Different seeds give different jitter somewhere.
        let differs = (0..20).any(|k| RetryPolicy::backoff_s(k, 1) != RetryPolicy::backoff_s(k, 2));
        assert!(differs);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let ok = RetryPolicy::default();
        assert!(ok.validate().is_ok());
        assert!(RetryPolicy {
            max_attempts: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            chunk_bytes: 0,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn nominal_backoff_is_monotone_up_to_the_cap() {
        // Property: without jitter, backoff never decreases in the attempt
        // number and never exceeds the cap.
        let mut prev = -1.0f64;
        for attempt in 0..100u32 {
            let b = nominal_backoff_s(attempt);
            assert!(b.is_finite() && b >= 0.0);
            assert!(b <= MAX_BACKOFF_S, "cap violated: {b} > {MAX_BACKOFF_S}");
            assert!(
                b >= prev,
                "backoff shrank at attempt {attempt}: {b} < {prev}"
            );
            prev = b;
        }
    }

    #[test]
    fn jittered_backoff_is_a_pure_function_of_seed_and_attempt() {
        // Property: for any (seed, attempt), repeated evaluation is exact,
        // and the jitter envelope ±jitter/2 holds around the nominal value.
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            for attempt in (0..64).chain([1000, u32::MAX - 1, u32::MAX]) {
                let a = RetryPolicy::backoff_s(attempt, seed);
                assert_eq!(
                    a,
                    RetryPolicy::backoff_s(attempt, seed),
                    "same inputs, same output"
                );
                let nominal = nominal_backoff_s(attempt);
                assert!(
                    a >= nominal * (1.0 - JITTER / 2.0) - 1e-12,
                    "{a} below envelope of {nominal}"
                );
                assert!(
                    a <= nominal * (1.0 + JITTER / 2.0) + 1e-12,
                    "{a} above envelope of {nominal}"
                );
            }
        }
        // Seeds decorrelate: two seed streams differ somewhere.
        assert!((0..32).any(|k| RetryPolicy::backoff_s(k, 3) != RetryPolicy::backoff_s(k, 4)));
    }

    #[test]
    fn budget_is_exact_at_ebat_boundaries_and_midpoints() {
        // The contract: budget = 1 + round((max_attempts - 1) · Ebat),
        // with f64 rounding half away from zero. Pin it exactly at the
        // boundaries and at every rounding midpoint for a sweep of
        // max_attempts.
        for max in 1u32..=12 {
            let p = RetryPolicy {
                max_attempts: max,
                ..RetryPolicy::default()
            };
            assert_eq!(p.budget(0.0), 1, "empty battery is one attempt");
            assert_eq!(p.budget(1.0), max, "full battery is the whole budget");
            // Below/above the clamp.
            assert_eq!(p.budget(-0.5), 1);
            assert_eq!(p.budget(1.5), max);
        }
        // Midpoints, pinned where `(k + 0.5) / steps` is exactly
        // representable (steps a power of two), so the assertion tests the
        // rounding contract rather than 1-ulp division noise.
        for max in [2u32, 3, 5, 9, 17] {
            let p = RetryPolicy {
                max_attempts: max,
                ..RetryPolicy::default()
            };
            let steps = (max - 1) as f64;
            for k in 0..(max - 1) {
                // Midpoint between budgets 1+k and 2+k: rounds half away
                // from zero, i.e. up.
                let mid = (k as f64 + 0.5) / steps;
                assert_eq!(p.budget(mid), 2 + k, "midpoint {mid} at max_attempts {max}");
                // Just below the midpoint rounds down.
                assert_eq!(
                    p.budget(mid - 1e-9),
                    1 + k,
                    "below-midpoint at max_attempts {max}"
                );
            }
        }
        // The documented default example: Ebat 0.1 at max 6 gives
        // 1 + round(0.5) = 2.
        let p = RetryPolicy::default();
        assert_eq!(p.budget(0.1), 2);
    }

    #[test]
    fn budget_is_monotone_over_a_dense_ebat_sweep() {
        for max in [1u32, 2, 3, 6, 17] {
            let p = RetryPolicy {
                max_attempts: max,
                ..RetryPolicy::default()
            };
            let mut prev = 0u32;
            for k in 0..=1000 {
                let b = p.budget(k as f64 / 1000.0);
                assert!((1..=max).contains(&b));
                assert!(b >= prev, "budget shrank at Ebat {}", k as f64 / 1000.0);
                prev = b;
            }
        }
    }
}
