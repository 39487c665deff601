//! Deterministic fault injection for the disaster channel.
//!
//! Post-disaster links do not merely fluctuate — they disconnect, black
//! out, and cut transfers mid-flight. [`FaultModel`] describes those
//! impairments as a pure function of `(seed, time, attempt index)`, so
//! every run is reproducible at any thread count, and [`FaultyChannel`]
//! layers them over any [`Channel`], reporting *partial progress* — the
//! bytes delivered before the cut and the time the attempt took — instead of
//! the all-or-nothing durations of [`Channel::transfer_duration`]. Every
//! impairment is seeded, blackouts included: a hashed coin decides which
//! periodic window is dark.

use crate::trace::{hash64, unit};
use crate::{Channel, NetError, Result};
use std::fmt;

/// Upper bound on the number of blackout windows scanned when looking for
/// the next dark one; bounds the search deterministically when the
/// blackout probability is tiny.
const MAX_WINDOW_SCAN: u64 = 100_000;

/// Salt mixed into the per-window blackout coin.
const BLACKOUT_SALT: u64 = 0xB1AC_0017_0000_0001;
/// Salt mixed into the per-attempt drop coin.
const DROP_SALT: u64 = 0xD20F_00AA_0000_0002;
/// Salt mixed into the per-chunk corruption coin.
const CORRUPT_SALT: u64 = 0xC022_0BAD_0000_0004;

/// How a transfer attempt was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The link entered a blackout window while the transfer was in flight
    /// (or was already dark when the attempt started).
    Disconnected,
    /// The attempt was cut mid-flight by the per-attempt failure coin.
    Dropped,
    /// The attempt exceeded its timeout or the channel's stall limit.
    TimedOut,
    /// A delivered transport chunk failed its CRC check and must be
    /// re-requested.
    Corrupted,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::Disconnected => "disconnected",
            FaultKind::Dropped => "dropped",
            FaultKind::TimedOut => "timed out",
            FaultKind::Corrupted => "corrupted",
        };
        f.write_str(name)
    }
}

/// A deterministic, seeded model of disaster-link impairments layered on
/// top of a [`crate::BandwidthTrace`].
///
/// Three impairment families:
///
/// * **Blackout windows** — time is divided into periods of
///   `blackout_period_s`; each period is independently dark (for its first
///   `blackout_duration_s` seconds) with probability
///   `blackout_probability`, decided by a seeded hash of the period index.
///   A transfer in flight when a blackout begins is cut there; one started
///   inside a blackout fails immediately.
/// * **Per-attempt drops** — each attempt is cut mid-flight with
///   probability `drop_probability`, at a seeded fraction of its payload.
/// * **Per-chunk corruption** — each delivered transport chunk is
///   independently bit-flipped in transit with probability
///   `corrupt_probability`, decided by a seeded hash of
///   `(attempt, chunk index)`. The CRC framing in [`crate::wire`] detects
///   it; the retry loop re-requests the chunk.
///
/// [`FaultModel::none`] disables all three and reproduces the perfectly
/// reliable channel bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Probability that a given transfer attempt is cut mid-flight.
    pub drop_probability: f64,
    /// Probability that a given blackout window is dark.
    pub blackout_probability: f64,
    /// Window period in seconds; each period is independently dark or
    /// clear.
    pub blackout_period_s: f64,
    /// Dark span at the start of a dark period, in seconds.
    pub blackout_duration_s: f64,
    /// Probability that a delivered transport chunk arrives bit-flipped
    /// (defaults to 0: no corruption).
    pub corrupt_probability: f64,
}

impl Default for FaultModel {
    /// Defaults to [`FaultModel::none`]: faults are strictly opt-in.
    fn default() -> Self {
        FaultModel::none()
    }
}

impl FaultModel {
    /// The fault-free model: every transfer behaves exactly as on the
    /// underlying [`Channel`].
    pub fn none() -> Self {
        FaultModel {
            seed: 0,
            drop_probability: 0.0,
            blackout_probability: 0.0,
            blackout_period_s: 1.0,
            blackout_duration_s: 0.0,
            corrupt_probability: 0.0,
        }
    }

    /// A validated fault model.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] for probabilities outside
    /// `[0, 1]`, a non-positive period, a negative duration, or a duration
    /// exceeding the period.
    pub fn new(
        seed: u64,
        drop_probability: f64,
        blackout_probability: f64,
        blackout_period_s: f64,
        blackout_duration_s: f64,
    ) -> Result<Self> {
        let model = FaultModel {
            seed,
            drop_probability,
            blackout_probability,
            blackout_period_s,
            blackout_duration_s,
            corrupt_probability: 0.0,
        };
        model.validate()?;
        Ok(model)
    }

    /// The same model with chunk corruption probability `p` — the builder
    /// for the third impairment family, which [`new`](FaultModel::new)
    /// leaves off.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if `p` is outside `[0, 1]`.
    pub fn with_corruption(mut self, p: f64) -> Result<Self> {
        self.corrupt_probability = p;
        self.validate()?;
        Ok(self)
    }

    /// A moderately hostile disaster-network preset: 12 % of attempts cut
    /// mid-flight, a quarter of 30-second windows dark for 10 seconds.
    pub fn disaster(seed: u64) -> Self {
        FaultModel::new(seed, 0.12, 0.25, 30.0, 10.0).expect("constants are valid")
    }

    /// Whether this model can never inject a fault.
    pub fn is_none(&self) -> bool {
        self.drop_probability <= 0.0
            && (self.blackout_probability <= 0.0 || self.blackout_duration_s <= 0.0)
            && self.corrupt_probability <= 0.0
    }

    /// Checks every field.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !self.drop_probability.is_finite() || !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(NetError::InvalidParameter {
                name: "drop_probability",
                value: self.drop_probability,
            });
        }
        if !self.blackout_probability.is_finite()
            || !(0.0..=1.0).contains(&self.blackout_probability)
        {
            return Err(NetError::InvalidParameter {
                name: "blackout_probability",
                value: self.blackout_probability,
            });
        }
        if !self.blackout_period_s.is_finite() || self.blackout_period_s <= 0.0 {
            return Err(NetError::InvalidParameter {
                name: "blackout_period_s",
                value: self.blackout_period_s,
            });
        }
        if !self.blackout_duration_s.is_finite()
            || self.blackout_duration_s < 0.0
            || self.blackout_duration_s > self.blackout_period_s
        {
            return Err(NetError::InvalidParameter {
                name: "blackout_duration_s",
                value: self.blackout_duration_s,
            });
        }
        if !self.corrupt_probability.is_finite() || !(0.0..=1.0).contains(&self.corrupt_probability)
        {
            return Err(NetError::InvalidParameter {
                name: "corrupt_probability",
                value: self.corrupt_probability,
            });
        }
        Ok(())
    }

    /// The same impairment statistics under a different seed — what a
    /// fleet uses so phones do not fail in lockstep.
    pub fn reseeded(&self, seed: u64) -> Self {
        FaultModel {
            seed,
            ..self.clone()
        }
    }

    /// The blackout window covering time `t`, as `(start_s, end_s)`, if
    /// the link is dark at `t`.
    pub fn blackout_at(&self, t: f64) -> Option<(f64, f64)> {
        if self.blackout_probability <= 0.0 || self.blackout_duration_s <= 0.0 {
            return None;
        }
        let k = (t / self.blackout_period_s).floor().max(0.0) as u64;
        let start = k as f64 * self.blackout_period_s;
        if self.window_is_dark(k) && t >= start && t < start + self.blackout_duration_s {
            Some((start, start + self.blackout_duration_s))
        } else {
            None
        }
    }

    /// The first instant strictly after `t` at which a blackout begins, or
    /// `f64::INFINITY` if none is found within the deterministic scan
    /// horizon.
    pub fn next_blackout_start(&self, t: f64) -> f64 {
        if self.blackout_probability <= 0.0 || self.blackout_duration_s <= 0.0 {
            return f64::INFINITY;
        }
        let first = (t / self.blackout_period_s).floor().max(0.0) as u64;
        for k in first..first.saturating_add(MAX_WINDOW_SCAN) {
            let start = k as f64 * self.blackout_period_s;
            if start > t && self.window_is_dark(k) {
                return start;
            }
        }
        f64::INFINITY
    }

    /// Where the per-attempt failure coin cuts attempt number `attempt`:
    /// the fraction of the payload delivered before the cut, or `None`
    /// when the attempt may run to completion.
    pub fn attempt_cut_fraction(&self, attempt: u64) -> Option<f64> {
        if self.drop_probability <= 0.0 {
            return None;
        }
        let coin = hash64(
            self.seed
                ^ attempt
                    .wrapping_mul(0x94D0_49BB_1331_11EB)
                    .wrapping_add(DROP_SALT),
        );
        if unit(coin) >= self.drop_probability {
            return None;
        }
        // A second hash round decorrelates the cut point from the coin.
        Some(0.05 + 0.9 * unit(hash64(coin)))
    }

    /// Whether transport chunk `chunk_index` of attempt number `attempt`
    /// arrives bit-flipped. Pure in `(seed, attempt, chunk_index)`, so the
    /// retry loop and a re-run agree on every corruption event at any
    /// thread count.
    pub fn chunk_corrupted(&self, attempt: u64, chunk_index: u64) -> bool {
        if self.corrupt_probability <= 0.0 {
            return false;
        }
        let h = hash64(
            self.seed
                ^ attempt.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ chunk_index
                    .wrapping_mul(0x9FB2_1C65_1E98_DF25)
                    .wrapping_add(CORRUPT_SALT),
        );
        unit(h) < self.corrupt_probability
    }

    fn window_is_dark(&self, k: u64) -> bool {
        let h = hash64(
            self.seed
                ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(BLACKOUT_SALT),
        );
        unit(h) < self.blackout_probability
    }
}

/// What actually happened to one transfer attempt on a [`FaultyChannel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// Whole bytes delivered before the attempt ended.
    pub delivered_bytes: usize,
    /// Wall-clock seconds the attempt occupied — the radio is powered the
    /// whole time, so this is the energy-relevant span.
    pub elapsed_s: f64,
    /// How the attempt was interrupted; `None` means it completed.
    pub fault: Option<FaultKind>,
}

impl TransferOutcome {
    /// Whether every requested byte was delivered.
    pub fn completed(&self) -> bool {
        self.fault.is_none()
    }
}

/// A [`Channel`] with a [`FaultModel`] layered on top.
///
/// Stateful: each call to [`transfer`](FaultyChannel::transfer) consumes
/// one index from a deterministic attempt counter, so a retried transfer
/// sees fresh — but reproducible — coin flips.
///
/// # Examples
///
/// ```
/// use bees_net::{BandwidthTrace, Channel, FaultModel, FaultyChannel};
///
/// # fn main() -> Result<(), bees_net::NetError> {
/// let channel = Channel::new(BandwidthTrace::constant(256_000.0)?);
/// let mut faulty = FaultyChannel::new(channel, FaultModel::none());
/// let out = faulty.transfer(0.0, 32_000, f64::INFINITY);
/// assert!(out.completed());
/// assert_eq!(out.delivered_bytes, 32_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyChannel {
    channel: Channel,
    faults: FaultModel,
    attempts: u64,
}

impl FaultyChannel {
    /// Wraps a channel with a fault model.
    pub fn new(channel: Channel, faults: FaultModel) -> Self {
        FaultyChannel {
            channel,
            faults,
            attempts: 0,
        }
    }

    /// The underlying fault-free channel.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Mutable access to the underlying channel, so a shared-cell grant
    /// can install or clear its per-epoch rate override without disturbing
    /// the fault state.
    pub fn channel_mut(&mut self) -> &mut Channel {
        &mut self.channel
    }

    /// The fault model in force.
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// Transfer attempts made so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Runs one transfer attempt of `bytes` starting at `start_s`,
    /// reporting partial progress instead of all-or-nothing durations.
    /// `timeout_s` bounds the attempt's wall-clock span (`f64::INFINITY`
    /// leaves only the channel's stall limit, which always applies as a
    /// backstop).
    pub fn transfer(&mut self, start_s: f64, bytes: usize, timeout_s: f64) -> TransferOutcome {
        let attempt = self.attempts;
        self.attempts += 1;
        if bytes == 0 {
            return TransferOutcome {
                delivered_bytes: 0,
                elapsed_s: 0.0,
                fault: None,
            };
        }
        if self.faults.blackout_at(start_s).is_some() {
            return TransferOutcome {
                delivered_bytes: 0,
                elapsed_s: 0.0,
                fault: Some(FaultKind::Disconnected),
            };
        }
        let cut = self.faults.attempt_cut_fraction(attempt);
        let target_bytes = match cut {
            // A cut attempt dies strictly before its last byte.
            Some(f) => ((bytes as f64 * f) as usize).min(bytes - 1),
            None => bytes,
        };
        let blackout = self.faults.next_blackout_start(start_s);
        let timeout_end = start_s + timeout_s.max(0.0);
        let stall_end = start_s + self.channel.stall_limit_s();
        let deadline = blackout.min(timeout_end);
        let p = self
            .channel
            .transfer_progress(start_s, target_bytes, deadline);
        let fault = if p.completed {
            // The integration delivered `target_bytes`; when that was a cut
            // point rather than the full payload, the attempt failed there.
            cut.map(|_| FaultKind::Dropped)
        } else if blackout <= timeout_end && blackout <= stall_end {
            Some(FaultKind::Disconnected)
        } else {
            Some(FaultKind::TimedOut)
        };
        TransferOutcome {
            delivered_bytes: p.delivered_bytes,
            elapsed_s: p.end_s - start_s,
            fault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BandwidthTrace;

    fn channel() -> Channel {
        Channel::new(BandwidthTrace::constant(256_000.0).unwrap())
    }

    #[test]
    fn none_model_never_faults() {
        let mut ch = FaultyChannel::new(channel(), FaultModel::none());
        for k in 0..50 {
            let out = ch.transfer(k as f64 * 3.0, 32_000, f64::INFINITY);
            assert!(out.completed());
            assert_eq!(out.delivered_bytes, 32_000);
            assert!(
                (out.elapsed_s - 1.0).abs() < 1e-9,
                "elapsed {}",
                out.elapsed_s
            );
        }
        assert_eq!(ch.attempts(), 50);
    }

    #[test]
    fn transfer_matches_duration_without_faults() {
        let trace = BandwidthTrace::disaster_wifi(3);
        let plain = Channel::new(trace.clone());
        let mut faulty = FaultyChannel::new(Channel::new(trace), FaultModel::none());
        for (start, bytes) in [(0.0, 50_000), (7.3, 120_000), (100.0, 5_000)] {
            let d = plain.transfer_duration(start, bytes).unwrap();
            let out = faulty.transfer(start, bytes, f64::INFINITY);
            assert!(out.completed());
            assert!(
                (out.elapsed_s - d).abs() < 1e-9,
                "elapsed {} vs duration {d}",
                out.elapsed_s
            );
        }
    }

    #[test]
    fn dropped_attempts_report_partial_progress() {
        let model = FaultModel::new(9, 1.0, 0.0, 30.0, 10.0).unwrap();
        let mut ch = FaultyChannel::new(channel(), model);
        let out = ch.transfer(0.0, 100_000, f64::INFINITY);
        assert_eq!(out.fault, Some(FaultKind::Dropped));
        assert!(out.delivered_bytes > 0, "cut fraction floor is 5%");
        assert!(out.delivered_bytes < 100_000);
        assert!(out.elapsed_s > 0.0);
    }

    #[test]
    fn attempts_see_fresh_coins_deterministically() {
        let model = FaultModel::new(5, 0.5, 0.0, 30.0, 10.0).unwrap();
        let run = || {
            let mut ch = FaultyChannel::new(channel(), model.clone());
            (0..20)
                .map(|i| {
                    ch.transfer(i as f64 * 10.0, 8_000, f64::INFINITY)
                        .fault
                        .is_some()
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(
            a.iter().any(|&f| f),
            "at p=0.5 some of 20 attempts should drop"
        );
        assert!(
            a.iter().any(|&f| !f),
            "at p=0.5 some of 20 attempts should pass"
        );
    }

    #[test]
    fn blackout_cuts_inflight_transfers() {
        // Every 10 s window dark for its first 4 s; 256 Kbps clear air.
        let model = FaultModel::new(1, 0.0, 1.0, 10.0, 4.0).unwrap();
        let mut ch = FaultyChannel::new(channel(), model);
        // Started at 4.0 (just clear), 100 KB needs 3.125 s: done by 7.125.
        let ok = ch.transfer(4.0, 100_000, f64::INFINITY);
        assert!(ok.completed(), "fault {:?}", ok.fault);
        // Started at 8.0, the blackout at 10.0 cuts it after 2 s = 64 KB.
        let cut = ch.transfer(8.0, 100_000, f64::INFINITY);
        assert_eq!(cut.fault, Some(FaultKind::Disconnected));
        assert_eq!(cut.delivered_bytes, 64_000);
        assert!(
            (cut.elapsed_s - 2.0).abs() < 1e-6,
            "elapsed {}",
            cut.elapsed_s
        );
        // Starting inside a blackout fails immediately.
        let dark = ch.transfer(11.0, 1_000, f64::INFINITY);
        assert_eq!(dark.fault, Some(FaultKind::Disconnected));
        assert_eq!(dark.delivered_bytes, 0);
        assert_eq!(dark.elapsed_s, 0.0);
    }

    #[test]
    fn timeout_bounds_attempts() {
        let mut ch = FaultyChannel::new(channel(), FaultModel::none());
        // 1 MB at 256 Kbps needs 31.25 s; a 2 s timeout delivers 64 KB.
        let out = ch.transfer(0.0, 1_000_000, 2.0);
        assert_eq!(out.fault, Some(FaultKind::TimedOut));
        assert_eq!(out.delivered_bytes, 64_000);
        assert!((out.elapsed_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stall_limit_is_the_backstop() {
        let ch0 = Channel::new(BandwidthTrace::constant(0.0).unwrap())
            .with_stall_limit(50.0)
            .unwrap();
        let mut ch = FaultyChannel::new(ch0, FaultModel::none());
        let out = ch.transfer(0.0, 1_000, f64::INFINITY);
        assert_eq!(out.fault, Some(FaultKind::TimedOut));
        assert_eq!(out.delivered_bytes, 0);
    }

    #[test]
    fn blackout_windows_are_deterministic_and_seed_sensitive() {
        let a = FaultModel::new(10, 0.0, 0.5, 20.0, 5.0).unwrap();
        let b = FaultModel::new(11, 0.0, 0.5, 20.0, 5.0).unwrap();
        let dark = |m: &FaultModel| {
            (0..200)
                .filter(|&k| m.blackout_at(k as f64 * 20.0 + 1.0).is_some())
                .count()
        };
        assert_eq!(dark(&a), dark(&a));
        let (da, db) = (dark(&a), dark(&b));
        assert!(da > 40 && da < 160, "roughly half of 200 windows: {da}");
        let differs = (0..200).any(|k| {
            let t = k as f64 * 20.0 + 1.0;
            a.blackout_at(t).is_some() != b.blackout_at(t).is_some()
        });
        assert!(
            differs,
            "different seeds must give different windows: {da} vs {db}"
        );
    }

    #[test]
    fn next_blackout_start_is_strictly_after() {
        let m = FaultModel::new(2, 0.0, 0.4, 15.0, 6.0).unwrap();
        let mut t = 0.0;
        for _ in 0..20 {
            let next = m.next_blackout_start(t);
            if !next.is_finite() {
                break;
            }
            assert!(next > t);
            assert!(m.blackout_at(next + 1e-9).is_some());
            t = next;
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(FaultModel::new(0, -0.1, 0.0, 1.0, 0.0).is_err());
        assert!(FaultModel::new(0, 1.1, 0.0, 1.0, 0.0).is_err());
        assert!(FaultModel::new(0, 0.0, f64::NAN, 1.0, 0.0).is_err());
        assert!(FaultModel::new(0, 0.0, 0.5, 0.0, 0.0).is_err());
        assert!(FaultModel::new(0, 0.0, 0.5, 10.0, -1.0).is_err());
        assert!(FaultModel::new(0, 0.0, 0.5, 10.0, 11.0).is_err());
        assert!(FaultModel::new(0, 0.5, 0.5, 10.0, 5.0).is_ok());
        // Corruption probability is validated too.
        let none = FaultModel::none;
        assert!(none().with_corruption(1.5).is_err());
        assert!(none().with_corruption(f64::NAN).is_err());
        assert!(none().with_corruption(1.0).is_ok());
    }

    #[test]
    fn none_is_none_and_disaster_is_not() {
        assert!(FaultModel::none().is_none());
        assert!(!FaultModel::disaster(1).is_none());
        assert!(FaultModel::disaster(1).validate().is_ok());
        // Corruption alone disqualifies the fast path.
        let corrupt = FaultModel::none().with_corruption(0.1).unwrap();
        assert!(!corrupt.is_none());
    }

    #[test]
    fn chunk_corruption_is_deterministic_and_seed_sensitive() {
        let m = FaultModel::none().with_corruption(0.3).unwrap();
        let flips = |m: &FaultModel| {
            (0..10)
                .flat_map(|a| (0..20).map(move |c| (a, c)))
                .map(|(a, c)| m.chunk_corrupted(a, c))
                .collect::<Vec<_>>()
        };
        assert_eq!(flips(&m), flips(&m));
        let hits = flips(&m).iter().filter(|&&f| f).count();
        assert!(
            (20..100).contains(&hits),
            "~30% of 200 chunk coins should flip, got {hits}"
        );
        let reseeded = m.reseeded(99);
        assert_ne!(flips(&m), flips(&reseeded));
        // Zero probability never flips, regardless of indices.
        let clean = FaultModel::none();
        assert!((0..50).all(|c| !clean.chunk_corrupted(0, c)));
    }

    #[test]
    fn reseeded_keeps_statistics_but_changes_decisions() {
        let m = FaultModel::disaster(1);
        let r = m.reseeded(2);
        assert_eq!(m.drop_probability, r.drop_probability);
        assert_eq!(m.blackout_period_s, r.blackout_period_s);
        let cuts = |m: &FaultModel| {
            (0..64)
                .map(|k| m.attempt_cut_fraction(k).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(cuts(&m), cuts(&r), "reseeding must change the coin stream");
    }
}
