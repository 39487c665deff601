//! The simulated transfer channel.

use crate::{BandwidthTrace, NetError, Result};

/// Default stall limit: give up on a transfer after this many simulated
/// seconds of cumulative waiting (guards against all-zero traces).
pub const DEFAULT_STALL_LIMIT_S: f64 = 7.0 * 24.0 * 3600.0;

/// A channel that moves bytes according to a [`BandwidthTrace`].
///
/// # Examples
///
/// ```
/// use bees_net::{BandwidthTrace, Channel};
///
/// # fn main() -> Result<(), bees_net::NetError> {
/// // 100 Kbps for 1 s, dead air for 1 s, repeating.
/// let trace = BandwidthTrace::schedule(vec![(1.0, 100_000.0), (1.0, 0.0)])?;
/// let ch = Channel::new(trace);
/// // 25 KB = 200 Kbit takes 2 s of airtime spread over 3 s of wall clock.
/// let d = ch.transfer_duration(0.0, 25_000)?;
/// assert!((d - 3.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    trace: BandwidthTrace,
    stall_limit_s: f64,
    /// When set, the channel carries bits at exactly this rate instead of
    /// the trace's — the mechanism by which a shared-cell airtime grant
    /// pins a device to its slice of the cell for one scheduling epoch.
    rate_override_bps: Option<f64>,
}

impl Channel {
    /// Creates a channel over the given trace with the default stall limit.
    pub fn new(trace: BandwidthTrace) -> Self {
        Channel {
            trace,
            stall_limit_s: DEFAULT_STALL_LIMIT_S,
            rate_override_bps: None,
        }
    }

    /// Overrides the stall limit in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if the limit is not finite
    /// and positive.
    pub fn with_stall_limit(mut self, limit_s: f64) -> Result<Self> {
        if !limit_s.is_finite() || limit_s <= 0.0 {
            return Err(NetError::InvalidParameter {
                name: "stall_limit_s",
                value: limit_s,
            });
        }
        self.stall_limit_s = limit_s;
        Ok(self)
    }

    /// The underlying bandwidth trace.
    pub fn trace(&self) -> &BandwidthTrace {
        &self.trace
    }

    /// The stall limit in seconds.
    pub fn stall_limit_s(&self) -> f64 {
        self.stall_limit_s
    }

    /// Installs (or clears, with `None`) a constant-rate override that
    /// replaces the trace's rate for subsequent transfers. A shared-cell
    /// grant installs the device's per-epoch slice here; clearing restores
    /// the private trace.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if the rate is negative or
    /// not finite (zero is allowed: a revoked grant carries no bits, and
    /// the stall limit backstops the wait).
    pub fn set_rate_override(&mut self, bps: Option<f64>) -> Result<()> {
        if let Some(r) = bps {
            if !r.is_finite() || r < 0.0 {
                return Err(NetError::InvalidParameter {
                    name: "rate_override_bps",
                    value: r,
                });
            }
        }
        self.rate_override_bps = bps;
        Ok(())
    }

    /// The active constant-rate override, if any.
    pub fn rate_override_bps(&self) -> Option<f64> {
        self.rate_override_bps
    }

    /// The rate the channel carries bits at `t`: the override when one is
    /// installed, the trace otherwise.
    fn rate_bps_at(&self, t: f64) -> f64 {
        self.rate_override_bps
            .unwrap_or_else(|| self.trace.bps_at(t))
    }

    /// Computes how many seconds a transfer of `bytes` takes when it starts
    /// at simulated time `start_s`, integrating the piecewise-constant
    /// trace.
    ///
    /// A zero-byte transfer takes zero time.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Stalled`] if the transfer cannot finish within
    /// the stall limit (e.g. a trace stuck at 0 bps).
    pub fn transfer_duration(&self, start_s: f64, bytes: usize) -> Result<f64> {
        if bytes == 0 {
            return Ok(0.0);
        }
        let mut bits_left = bytes as f64 * 8.0;
        let mut t = start_s;
        loop {
            if t - start_s > self.stall_limit_s {
                return Err(NetError::Stalled {
                    bytes,
                    waited_seconds: t - start_s,
                });
            }
            let bps = self.rate_bps_at(t);
            let mut seg_end = self.trace.segment_end(t);
            if seg_end <= t {
                // Floating-point boundary: `t` sits exactly on a segment
                // edge that rounds back onto itself. Step strictly past it
                // so the integration always makes progress.
                seg_end = next_after(t);
            }
            if bps <= 0.0 {
                // Dead air: skip to the next segment.
                t = seg_end;
                continue;
            }
            let seg_span = seg_end - t;
            let needed = bits_left / bps;
            if needed <= seg_span {
                return Ok(t + needed - start_s);
            }
            bits_left -= bps * seg_span;
            t = seg_end;
        }
    }

    /// Integrates the trace from `start_s` until either `bytes` have been
    /// delivered or `deadline_s` (absolute simulated time) is reached,
    /// whichever comes first. The channel's stall limit always applies as
    /// a backstop, so the call terminates even with an infinite deadline
    /// over an all-zero trace.
    ///
    /// Unlike [`transfer_duration`](Channel::transfer_duration) this never
    /// errors: an interrupted transfer is an answer, not a failure — the
    /// fault layer and retry logic decide what to do with the partial
    /// progress.
    pub fn transfer_progress(
        &self,
        start_s: f64,
        bytes: usize,
        deadline_s: f64,
    ) -> TransferProgress {
        if bytes == 0 {
            return TransferProgress {
                delivered_bytes: 0,
                end_s: start_s,
                completed: true,
            };
        }
        let hard_end = deadline_s.min(start_s + self.stall_limit_s);
        if hard_end <= start_s {
            return TransferProgress {
                delivered_bytes: 0,
                end_s: start_s,
                completed: false,
            };
        }
        let total_bits = bytes as f64 * 8.0;
        let mut bits_done = 0.0;
        let mut t = start_s;
        while t < hard_end {
            let bps = self.rate_bps_at(t);
            let mut seg_end = self.trace.segment_end(t).min(hard_end);
            if seg_end <= t {
                seg_end = next_after(t).min(hard_end);
                if seg_end <= t {
                    // `hard_end` is within one representable step of `t`:
                    // no measurable span remains.
                    break;
                }
            }
            if bps <= 0.0 {
                t = seg_end;
                continue;
            }
            let seg_span = seg_end - t;
            let needed = (total_bits - bits_done) / bps;
            if needed <= seg_span {
                return TransferProgress {
                    delivered_bytes: bytes,
                    end_s: t + needed,
                    completed: true,
                };
            }
            bits_done += bps * seg_span;
            t = seg_end;
        }
        TransferProgress {
            delivered_bytes: ((bits_done / 8.0).floor() as usize).min(bytes),
            end_s: hard_end,
            completed: false,
        }
    }
}

/// Partial-progress result of [`Channel::transfer_progress`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferProgress {
    /// Whole bytes delivered by the time the integration stopped.
    pub delivered_bytes: usize,
    /// Absolute simulated time at which the integration stopped.
    pub end_s: f64,
    /// Whether every requested byte was delivered before the deadline.
    pub completed: bool,
}

/// The smallest representable time strictly after `t` at `t`'s magnitude
/// (a software `nextafter` adequate for positive simulation times).
fn next_after(t: f64) -> f64 {
    let bumped = t + t.abs() * f64::EPSILON;
    if bumped > t {
        bumped
    } else {
        t + f64::MIN_POSITIVE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_transfer() {
        let ch = Channel::new(BandwidthTrace::constant(8000.0).unwrap());
        // 1000 bytes = 8000 bits at 8000 bps = 1 s.
        assert!((ch.transfer_duration(3.0, 1000).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_take_zero_time() {
        let ch = Channel::new(BandwidthTrace::constant(1.0).unwrap());
        assert_eq!(ch.transfer_duration(0.0, 0).unwrap(), 0.0);
    }

    #[test]
    fn transfer_spans_segments() {
        // 1 s at 8 Kbps then 1 s at 16 Kbps, repeating.
        let tr = BandwidthTrace::schedule(vec![(1.0, 8_000.0), (1.0, 16_000.0)]).unwrap();
        let ch = Channel::new(tr);
        // 3000 bytes = 24 Kbit: 8 in the first second, 16 in the next -> 2 s.
        assert!((ch.transfer_duration(0.0, 3000).unwrap() - 2.0).abs() < 1e-9);
        // Starting mid-segment: at t = 0.5, 4 Kbit to segment end, then 16.
        let d = ch.transfer_duration(0.5, 2500).unwrap(); // 20 Kbit
        assert!((d - (0.5 + 1.0)).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn dead_air_adds_waiting_time() {
        let tr = BandwidthTrace::schedule(vec![(1.0, 0.0), (1.0, 8_000.0)]).unwrap();
        let ch = Channel::new(tr);
        let d = ch.transfer_duration(0.0, 1000).unwrap();
        assert!((d - 2.0).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn all_zero_trace_stalls() {
        let ch = Channel::new(BandwidthTrace::constant(0.0).unwrap())
            .with_stall_limit(100.0)
            .unwrap();
        // Constant 0 has an infinite segment; ensure we bail out rather
        // than loop forever.
        let err = ch.transfer_duration(0.0, 10);
        assert!(matches!(err, Err(NetError::Stalled { .. })));
    }

    #[test]
    fn zero_schedule_trace_stalls() {
        let tr = BandwidthTrace::schedule(vec![(1.0, 0.0)]).unwrap();
        let ch = Channel::new(tr).with_stall_limit(50.0).unwrap();
        assert!(matches!(
            ch.transfer_duration(0.0, 10),
            Err(NetError::Stalled { .. })
        ));
    }

    #[test]
    fn fluctuating_transfer_completes() {
        let ch = Channel::new(BandwidthTrace::disaster_wifi(9));
        // 700 KB over 0-512 Kbps (mean 256 Kbps): roughly 22 s.
        let d = ch.transfer_duration(0.0, 700_000).unwrap();
        assert!(d > 8.0 && d < 120.0, "got {d}");
    }

    #[test]
    fn exact_segment_boundary_start_makes_progress() {
        // Regression: starting a transfer exactly on a schedule boundary
        // whose floating-point cycle arithmetic rounds `segment_end(t)`
        // back to `t` used to loop forever.
        let tr = BandwidthTrace::schedule(vec![
            (0.5, 187_792.108_236_747_7),
            (0.731_542_204_884_339_4, 176_291.013_489_094_42),
        ])
        .unwrap();
        let ch = Channel::new(tr);
        // Sweep many starts including ones that land on boundaries.
        for k in 0..2000 {
            let start = k as f64 * 0.020_556_629_734_539_41;
            let d = ch.transfer_duration(start, 28_742).unwrap();
            assert!(d.is_finite() && d > 0.0);
        }
    }

    #[test]
    fn longer_payloads_take_longer() {
        let ch = Channel::new(BandwidthTrace::disaster_wifi(5));
        let small = ch.transfer_duration(0.0, 10_000).unwrap();
        let large = ch.transfer_duration(0.0, 500_000).unwrap();
        assert!(large > small);
    }

    #[test]
    fn invalid_stall_limit_is_an_error_not_a_panic() {
        let mk = || Channel::new(BandwidthTrace::constant(1000.0).unwrap());
        assert!(matches!(
            mk().with_stall_limit(0.0),
            Err(NetError::InvalidParameter {
                name: "stall_limit_s",
                ..
            })
        ));
        assert!(mk().with_stall_limit(-5.0).is_err());
        assert!(mk().with_stall_limit(f64::NAN).is_err());
        assert!(mk().with_stall_limit(f64::INFINITY).is_err());
        let ch = mk().with_stall_limit(42.0).unwrap();
        assert_eq!(ch.stall_limit_s(), 42.0);
    }

    #[test]
    fn progress_matches_duration_when_unbounded() {
        let ch = Channel::new(BandwidthTrace::disaster_wifi(11));
        for (start, bytes) in [(0.0, 40_000usize), (13.7, 250_000), (91.2, 1_000)] {
            let d = ch.transfer_duration(start, bytes).unwrap();
            let p = ch.transfer_progress(start, bytes, f64::INFINITY);
            assert!(p.completed);
            assert_eq!(p.delivered_bytes, bytes);
            assert!(
                (p.end_s - start - d).abs() < 1e-9,
                "{} vs {d}",
                p.end_s - start
            );
        }
    }

    #[test]
    fn progress_respects_deadline() {
        let ch = Channel::new(BandwidthTrace::constant(8_000.0).unwrap());
        // 10 KB needs 10 s; a deadline at 4 s delivers 4 KB.
        let p = ch.transfer_progress(0.0, 10_000, 4.0);
        assert!(!p.completed);
        assert_eq!(p.delivered_bytes, 4_000);
        assert_eq!(p.end_s, 4.0);
    }

    #[test]
    fn progress_with_past_deadline_delivers_nothing() {
        let ch = Channel::new(BandwidthTrace::constant(8_000.0).unwrap());
        let p = ch.transfer_progress(10.0, 1_000, 10.0);
        assert!(!p.completed);
        assert_eq!(p.delivered_bytes, 0);
        assert_eq!(p.end_s, 10.0);
        // Zero bytes complete instantly even with a dead deadline.
        assert!(ch.transfer_progress(10.0, 0, 5.0).completed);
    }

    #[test]
    fn progress_counts_airtime_not_dead_air() {
        // 1 s of dead air, then 1 s at 8 Kbps.
        let tr = BandwidthTrace::schedule(vec![(1.0, 0.0), (1.0, 8_000.0)]).unwrap();
        let ch = Channel::new(tr);
        let p = ch.transfer_progress(0.0, 1_000, f64::INFINITY);
        assert!(p.completed);
        assert!((p.end_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn progress_stall_limit_backstops_infinite_deadline() {
        let ch = Channel::new(BandwidthTrace::constant(0.0).unwrap())
            .with_stall_limit(30.0)
            .unwrap();
        let p = ch.transfer_progress(5.0, 1_000, f64::INFINITY);
        assert!(!p.completed);
        assert_eq!(p.delivered_bytes, 0);
        assert_eq!(p.end_s, 35.0);
    }

    #[test]
    fn rate_override_replaces_the_trace() {
        // A choppy schedule trace, but a granted slice of 8 Kbps: the
        // override must carry the transfer at exactly the granted rate.
        let tr = BandwidthTrace::schedule(vec![(1.0, 0.0), (1.0, 512_000.0)]).unwrap();
        let mut ch = Channel::new(tr);
        ch.set_rate_override(Some(8_000.0)).unwrap();
        assert_eq!(ch.rate_override_bps(), Some(8_000.0));
        // 1000 bytes = 8000 bits at 8000 bps = 1 s, dead air ignored.
        assert!((ch.transfer_duration(0.0, 1_000).unwrap() - 1.0).abs() < 1e-9);
        let p = ch.transfer_progress(0.0, 10_000, 4.0);
        assert!(!p.completed);
        assert_eq!(p.delivered_bytes, 4_000);
        // Clearing restores the trace.
        ch.set_rate_override(None).unwrap();
        assert_eq!(ch.rate_override_bps(), None);
        let d = ch.transfer_duration(0.0, 64_000).unwrap();
        assert!((d - 2.0).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn zero_rate_override_is_dead_air() {
        let mut ch = Channel::new(BandwidthTrace::constant(512_000.0).unwrap())
            .with_stall_limit(30.0)
            .unwrap();
        ch.set_rate_override(Some(0.0)).unwrap();
        assert!(matches!(
            ch.transfer_duration(0.0, 10),
            Err(NetError::Stalled { .. })
        ));
        let p = ch.transfer_progress(0.0, 10, 5.0);
        assert!(!p.completed);
        assert_eq!(p.delivered_bytes, 0);
    }

    #[test]
    fn invalid_rate_override_is_rejected() {
        let mut ch = Channel::new(BandwidthTrace::constant(1.0).unwrap());
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ch.set_rate_override(Some(bad)),
                Err(NetError::InvalidParameter {
                    name: "rate_override_bps",
                    ..
                })
            ));
        }
        assert_eq!(ch.rate_override_bps(), None, "rejected rates don't stick");
    }
}
