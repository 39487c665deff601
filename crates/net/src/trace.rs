//! Deterministic bandwidth traces.

use crate::{NetError, Result};

/// A piecewise-constant bandwidth-over-time function in bits per second.
///
/// Three flavors:
///
/// * [`constant`](BandwidthTrace::constant) — fixed rate,
/// * [`fluctuating`](BandwidthTrace::fluctuating) — seeded pseudo-random
///   rate per interval, uniform in `[min_bps, max_bps]` (the paper's "0 to
///   512 Kbps" WiFi emulation),
/// * [`schedule`](BandwidthTrace::schedule) — an explicit list of
///   `(duration_s, bps)` segments, repeating cyclically.
#[derive(Debug, Clone, PartialEq)]
pub enum BandwidthTrace {
    /// Fixed bandwidth.
    Constant {
        /// Rate in bits per second.
        bps: f64,
    },
    /// Seeded pseudo-random bandwidth, constant within each interval.
    Fluctuating {
        /// Seed for the per-interval hash.
        seed: u64,
        /// Minimum rate in bits per second.
        min_bps: f64,
        /// Maximum rate in bits per second.
        max_bps: f64,
        /// Interval length in seconds.
        interval_s: f64,
    },
    /// Explicit repeating schedule of `(duration_s, bps)` segments.
    Schedule {
        /// The segments; the schedule repeats after the last.
        segments: Vec<(f64, f64)>,
    },
}

impl BandwidthTrace {
    /// A constant-rate trace.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if `bps` is negative or not
    /// finite.
    pub fn constant(bps: f64) -> Result<Self> {
        let trace = BandwidthTrace::Constant { bps };
        trace.validate()?;
        Ok(trace)
    }

    /// A seeded fluctuating trace uniform in `[min_bps, max_bps]` per
    /// interval.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] for negative rates, inverted
    /// bounds, or a non-positive interval.
    pub fn fluctuating(seed: u64, min_bps: f64, max_bps: f64, interval_s: f64) -> Result<Self> {
        let trace = BandwidthTrace::Fluctuating {
            seed,
            min_bps,
            max_bps,
            interval_s,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// The paper's WiFi emulation: 0–512 Kbps, new rate every 2 s.
    pub fn disaster_wifi(seed: u64) -> Self {
        BandwidthTrace::fluctuating(seed, 0.0, 512_000.0, 2.0).expect("constants are valid")
    }

    /// An explicit repeating schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if `segments` is empty or any
    /// duration/rate is invalid.
    pub fn schedule(segments: Vec<(f64, f64)>) -> Result<Self> {
        let trace = BandwidthTrace::Schedule { segments };
        trace.validate()?;
        Ok(trace)
    }

    /// Checks every field: the variants' fields are public, so a trace
    /// built without a constructor is checked here before it is used.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] naming the offending field:
    /// a negative or non-finite rate, inverted bounds, a non-positive or
    /// non-finite interval or segment duration, or an empty schedule.
    pub fn validate(&self) -> Result<()> {
        match self {
            BandwidthTrace::Constant { bps } => check_rate("bps", *bps),
            BandwidthTrace::Fluctuating {
                min_bps,
                max_bps,
                interval_s,
                ..
            } => {
                check_rate("min_bps", *min_bps)?;
                if !max_bps.is_finite() || max_bps < min_bps {
                    return Err(NetError::InvalidParameter {
                        name: "max_bps",
                        value: *max_bps,
                    });
                }
                check_span("interval_s", *interval_s)
            }
            BandwidthTrace::Schedule { segments } => {
                if segments.is_empty() {
                    return Err(NetError::InvalidParameter {
                        name: "segments",
                        value: 0.0,
                    });
                }
                for &(d, bps) in segments {
                    check_span("segment duration", d)?;
                    check_rate("segment bps", bps)?;
                }
                Ok(())
            }
        }
    }

    /// Bandwidth in bits per second at simulated time `t` (seconds).
    pub fn bps_at(&self, t: f64) -> f64 {
        match self {
            BandwidthTrace::Constant { bps } => *bps,
            BandwidthTrace::Fluctuating {
                seed,
                min_bps,
                max_bps,
                interval_s,
            } => {
                let interval = (t / interval_s).floor() as i64 as u64;
                let h = hash64(seed.wrapping_add(interval.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                min_bps + unit(h) * (max_bps - min_bps)
            }
            BandwidthTrace::Schedule { segments } => locate_segment(segments, t).2,
        }
    }

    /// End of the piecewise-constant segment containing time `t`: the next
    /// instant at which the rate may change.
    pub fn segment_end(&self, t: f64) -> f64 {
        match self {
            BandwidthTrace::Constant { .. } => f64::INFINITY,
            BandwidthTrace::Fluctuating { interval_s, .. } => {
                ((t / interval_s).floor() + 1.0) * interval_s
            }
            BandwidthTrace::Schedule { segments } => locate_segment(segments, t).1,
        }
    }
}

/// Rejects a negative or non-finite rate.
fn check_rate(name: &'static str, bps: f64) -> Result<()> {
    if bps.is_finite() && bps >= 0.0 {
        Ok(())
    } else {
        Err(NetError::InvalidParameter { name, value: bps })
    }
}

/// Rejects a non-positive or non-finite span of time.
fn check_span(name: &'static str, seconds: f64) -> Result<()> {
    if seconds.is_finite() && seconds > 0.0 {
        Ok(())
    } else {
        Err(NetError::InvalidParameter {
            name,
            value: seconds,
        })
    }
}

/// Locates the schedule segment containing time `t`, returning
/// `(segment_start, segment_end, bps)`. A single source of truth keeps
/// `bps_at` and `segment_end` mutually consistent even when floating-point
/// cycle arithmetic puts `t` exactly on a boundary (in which case `t`
/// belongs to the *next* segment and `segment_end` is strictly after `t`).
fn locate_segment(segments: &[(f64, f64)], t: f64) -> (f64, f64, f64) {
    let cycle: f64 = segments.iter().map(|&(d, _)| d).sum();
    let base = (t / cycle).floor() * cycle;
    let mut start = base;
    for &(d, bps) in segments {
        let end = start + d;
        if t < end {
            return (start, end, bps);
        }
        start = end;
    }
    // Accumulated rounding pushed t to (or past) the cycle's end: it
    // belongs to the first segment of the next cycle.
    let (d0, bps0) = segments[0];
    (start, start + d0, bps0)
}

/// SplitMix64 finalizer: a high-quality deterministic 64-bit hash. Shared
/// with the fault model so every stochastic decision in the crate draws
/// from the same well-mixed family.
pub(crate) fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform `f64` in `[0, 1)` using the top 53 bits.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_is_flat() {
        let t = BandwidthTrace::constant(1000.0).unwrap();
        assert_eq!(t.bps_at(0.0), 1000.0);
        assert_eq!(t.bps_at(1e6), 1000.0);
        assert!(t.segment_end(5.0).is_infinite());
    }

    #[test]
    fn fluctuating_trace_is_deterministic_and_bounded() {
        let t = BandwidthTrace::disaster_wifi(42);
        let again = BandwidthTrace::disaster_wifi(42);
        for i in 0..100 {
            let time = i as f64 * 1.7;
            let b = t.bps_at(time);
            assert_eq!(b, again.bps_at(time));
            assert!((0.0..=512_000.0).contains(&b), "bps {b}");
        }
    }

    #[test]
    fn fluctuating_trace_varies() {
        let t = BandwidthTrace::disaster_wifi(7);
        let values: Vec<f64> = (0..20).map(|i| t.bps_at(i as f64 * 2.0)).collect();
        let distinct = values
            .iter()
            .filter(|&&v| (v - values[0]).abs() > 1.0)
            .count();
        assert!(distinct > 5, "trace should fluctuate: {values:?}");
    }

    #[test]
    fn fluctuating_is_constant_within_interval() {
        let t = BandwidthTrace::fluctuating(1, 0.0, 1000.0, 2.0).unwrap();
        assert_eq!(t.bps_at(4.0), t.bps_at(5.9));
        assert_eq!(t.segment_end(4.5), 6.0);
    }

    #[test]
    fn schedule_repeats() {
        let t = BandwidthTrace::schedule(vec![(1.0, 100.0), (2.0, 200.0)]).unwrap();
        assert_eq!(t.bps_at(0.5), 100.0);
        assert_eq!(t.bps_at(1.5), 200.0);
        assert_eq!(t.bps_at(3.5), 100.0); // wrapped
        assert_eq!(t.segment_end(0.5), 1.0);
        assert_eq!(t.segment_end(1.5), 3.0);
        assert_eq!(t.segment_end(3.2), 4.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(BandwidthTrace::constant(-1.0).is_err());
        assert!(BandwidthTrace::constant(f64::NAN).is_err());
        assert!(BandwidthTrace::fluctuating(0, 10.0, 5.0, 1.0).is_err());
        assert!(BandwidthTrace::fluctuating(0, 0.0, 5.0, 0.0).is_err());
        assert!(BandwidthTrace::schedule(vec![]).is_err());
        assert!(BandwidthTrace::schedule(vec![(0.0, 5.0)]).is_err());
        // Variants built directly skip the constructors; validate catches
        // them.
        let bad = BandwidthTrace::Fluctuating {
            seed: 0,
            min_bps: 0.0,
            max_bps: 5.0,
            interval_s: 0.0,
        };
        assert!(bad.validate().is_err());
        assert!(BandwidthTrace::Schedule { segments: vec![] }
            .validate()
            .is_err());
        assert!(BandwidthTrace::disaster_wifi(1).validate().is_ok());
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let a = BandwidthTrace::disaster_wifi(1);
        let b = BandwidthTrace::disaster_wifi(2);
        let same = (0..50)
            .filter(|&i| a.bps_at(i as f64 * 2.0) == b.bps_at(i as f64 * 2.0))
            .count();
        assert!(same < 5);
    }
}
