//! The smartphone client: battery, ledger, clock, channel.

use crate::config::BeesConfig;
use crate::error::CoreError;
use crate::Result;
use bees_energy::{model, Battery, EnergyCategory, EnergyLedger};
use bees_net::{
    BandwidthTrace, Channel, FaultKind, FaultyChannel, NetError, RetryPolicy, SimClock,
};
use bees_telemetry::{names, Telemetry};

/// Wall-clock bound on a single resumable-transfer attempt, in simulated
/// seconds; an airtime grant's deadline clips it further.
const ATTEMPT_TIMEOUT_S: f64 = 90.0;

/// A simulated smartphone.
///
/// Holds the physical state every scheme manipulates — remaining battery,
/// the per-category energy ledger, a simulated clock, and the
/// bandwidth-limited channel to the server — and exposes the primitive
/// operations (spend CPU, transmit, receive, idle) that drain them
/// consistently. Schemes are written purely in terms of these primitives,
/// so energy/delay accounting cannot diverge between schemes.
#[derive(Debug)]
pub struct Client {
    id: u64,
    battery: Battery,
    ledger: EnergyLedger,
    clock: SimClock,
    channel: FaultyChannel,
    retry: RetryPolicy,
    fault_seed: u64,
    telemetry: Telemetry,
    /// Absolute virtual-time deadline of the device's current airtime
    /// grant; resumable transfers abandon (not retry) past it.
    grant_deadline_s: Option<f64>,
    /// Transfers abandoned at the grant deadline so far.
    deadline_abandons: u64,
}

impl Client {
    /// Creates a client with a full battery, validating the
    /// configuration's network and robustness knobs first. Each client gets
    /// its own bandwidth trace and fault-model seed, derived from the
    /// configured ones and `id`, so that phones in a fleet do not see
    /// identical fluctuations or fail in lockstep. Telemetry starts
    /// disabled; install a handle with
    /// [`set_telemetry`](Client::set_telemetry) to trace transfers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending knob.
    pub fn try_new(id: u64, config: &BeesConfig) -> Result<Self> {
        config.validate()?;
        let trace = match &config.trace {
            BandwidthTrace::Fluctuating {
                seed,
                min_bps,
                max_bps,
                interval_s,
            } => BandwidthTrace::Fluctuating {
                seed: seed.wrapping_add(id.wrapping_mul(0x5851_F42D_4C95_7F2D)),
                min_bps: *min_bps,
                max_bps: *max_bps,
                interval_s: *interval_s,
            },
            other => other.clone(),
        };
        let channel = Channel::new(trace);
        let fault_seed = config.fault.seed ^ id.wrapping_mul(0x2545_F491_4F6C_DD1D);
        Ok(Client {
            id,
            battery: config.battery,
            ledger: EnergyLedger::new(),
            clock: SimClock::new(),
            channel: FaultyChannel::new(channel, config.fault.reseeded(fault_seed)),
            retry: config.retry,
            fault_seed,
            telemetry: Telemetry::disabled(),
            grant_deadline_s: None,
            deadline_abandons: 0,
        })
    }

    /// The client's identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The telemetry handle `net.*` spans are emitted through (disabled by
    /// default, so untraced runs pay nothing).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Installs a telemetry handle; subsequent transfers emit `net.*`
    /// spans against this client's virtual clock.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Remaining battery fraction — the `Ebat` every EAAS scheme reads.
    pub fn ebat(&self) -> f64 {
        self.battery.fraction()
    }

    /// Installs (or clears) the absolute virtual-time deadline of the
    /// device's current airtime grant. While set, every resumable transfer
    /// treats it as a hard stop: once the clock passes it, the transfer is
    /// abandoned — salvage ladder still applying — instead of retried, and
    /// backoff waits never sleep past it. The shared-cell fleet loop sets
    /// this to the grant's epoch end and clears it between rounds.
    pub fn set_grant_deadline(&mut self, deadline_s: Option<f64>) {
        self.grant_deadline_s = deadline_s;
    }

    /// The active grant deadline, if any.
    pub fn grant_deadline_s(&self) -> Option<f64> {
        self.grant_deadline_s
    }

    /// Installs (or clears) a constant-rate override on the underlying
    /// channel — the device's granted slice of a shared cell.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] if the rate is negative or not finite.
    pub fn set_rate_override(&mut self, bps: Option<f64>) -> Result<()> {
        self.channel.channel_mut().set_rate_override(bps)?;
        Ok(())
    }

    /// The active channel rate override, if any.
    pub fn rate_override_bps(&self) -> Option<f64> {
        self.channel.channel().rate_override_bps()
    }

    /// Transfers abandoned at their airtime grant's deadline so far — the
    /// zombie retries that were *not* made.
    pub fn deadline_abandons(&self) -> u64 {
        self.deadline_abandons
    }

    /// The battery.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Mutable battery access (experiments stage specific `Ebat` values).
    pub fn battery_mut(&mut self) -> &mut Battery {
        &mut self.battery
    }

    /// The energy ledger so far.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Clears the ledger (between experiment phases).
    pub fn reset_ledger(&mut self) {
        self.ledger.clear();
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Drains the baseline (screen/system) power for `seconds` of elapsed
    /// activity — the screen stays bright while computing or transferring,
    /// so every wall-clock second costs [`model::IDLE_WATTS`] on top of
    /// the activity-specific energy.
    fn drain_baseline(&mut self, seconds: f64) -> bool {
        let joules = model::idle_energy(seconds);
        let drained = self.battery.drain(joules);
        self.ledger.record(EnergyCategory::Idle, drained);
        drained >= joules
    }

    /// Spends CPU energy on `category`, advancing the clock by the
    /// corresponding CPU time (and draining the screen baseline for that
    /// time). Returns the CPU seconds spent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatteryExhausted`] if the battery empties.
    pub fn spend_cpu(&mut self, category: EnergyCategory, joules: f64) -> Result<f64> {
        let drained = self.battery.drain(joules);
        self.ledger.record(category, drained);
        let seconds = model::cpu_seconds(joules);
        self.clock.advance(seconds);
        let baseline_ok = self.drain_baseline(seconds);
        if drained < joules || !baseline_ok {
            return Err(CoreError::BatteryExhausted {
                during: category_name(category),
            });
        }
        Ok(seconds)
    }

    /// Transmits `bytes` to the server, draining radio energy and advancing
    /// the clock by the transfer duration. Returns that duration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatteryExhausted`] if the battery empties, or a
    /// network error if the channel stalls.
    pub fn transmit(&mut self, category: EnergyCategory, bytes: usize) -> Result<f64> {
        let start = self.clock.now();
        let duration = self.channel.channel().transfer_duration(start, bytes)?;
        let joules = model::radio_tx_energy(duration);
        let drained = self.battery.drain(joules);
        self.ledger.record(category, drained);
        self.clock.advance(duration);
        let baseline_ok = self.drain_baseline(duration);
        if drained < joules || !baseline_ok {
            return Err(CoreError::BatteryExhausted {
                during: category_name(category),
            });
        }
        self.telemetry
            .span(names::NET_TRANSMIT, start)
            .attr_str("category", category_name(category))
            .attr_u64("bytes", bytes as u64)
            .attr_f64("joules", drained)
            .close(self.clock.now());
        Ok(duration)
    }

    /// Receives `bytes` from the server (verdicts, thumbnails).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatteryExhausted`] if the battery empties, or a
    /// network error if the channel stalls.
    pub fn receive(&mut self, bytes: usize) -> Result<f64> {
        let start = self.clock.now();
        let duration = self.channel.channel().transfer_duration(start, bytes)?;
        let joules = model::radio_rx_energy(duration);
        let drained = self.battery.drain(joules);
        self.ledger.record(EnergyCategory::Download, drained);
        self.clock.advance(duration);
        let baseline_ok = self.drain_baseline(duration);
        if drained < joules || !baseline_ok {
            return Err(CoreError::BatteryExhausted { during: "download" });
        }
        self.telemetry
            .span(names::NET_RECEIVE, start)
            .attr_u64("bytes", bytes as u64)
            .attr_f64("joules", drained)
            .close(self.clock.now());
        Ok(duration)
    }

    /// Reclassifies up to `joules` of salvaged energy as wasted — the
    /// caller found the banked prefix undecodable after all. Returns the
    /// joules actually moved.
    pub fn demote_salvage(&mut self, joules: f64) -> f64 {
        self.ledger
            .reassign(EnergyCategory::Salvaged, EnergyCategory::Wasted, joules)
    }

    /// Transmits `bytes` through the fault-injected channel with chunked
    /// resume: attempts that are disconnected, dropped, or timed out keep
    /// their whole delivered chunks (the torn tail chunk is retransmitted),
    /// wait out a deterministic jittered exponential backoff, and try
    /// again. The retry budget is energy-aware — it shrinks linearly with
    /// `Ebat` per the configured [`RetryPolicy`] — and energy burnt on
    /// bytes that were never confirmed is recorded against
    /// [`EnergyCategory::Wasted`].
    ///
    /// With `salvage`, a transfer whose retry budget runs out with
    /// confirmed chunks banked is *salvaged* instead of failed: the banked
    /// prefix's radio energy moves to [`EnergyCategory::Salvaged`] and the
    /// call returns [`ResumableOutcome::Salvaged`] describing what
    /// survived. The caller decides whether the prefix actually decodes
    /// (and may demote the energy back to waste via
    /// [`demote_salvage`](Client::demote_salvage) if it does not). Without
    /// `salvage` every `Ok` is [`ResumableOutcome::Complete`].
    ///
    /// With [`bees_net::FaultModel::none`] this is byte-for-byte identical
    /// to [`transmit`](Client::transmit).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatteryExhausted`] if the battery empties,
    /// [`NetError::RetriesExhausted`] (wrapped in [`CoreError::Net`]) if
    /// the budget runs out first (with `salvage`, only when *nothing* was
    /// banked), or any other network error from the underlying channel.
    pub fn transmit_resumable(
        &mut self,
        category: EnergyCategory,
        bytes: usize,
        salvage: bool,
    ) -> Result<ResumableOutcome> {
        let start = self.clock.now();
        // The transfer's virtual-time deadline: the airtime grant's expiry,
        // when one is set.
        let deadline = self.grant_deadline_s;
        if self.channel.faults().is_none() && deadline.is_none() {
            let duration = self.transmit(category, bytes)?;
            return Ok(ResumableOutcome::Complete(TransmitSummary {
                attempts: 1,
                delivered_bytes: bytes,
                corrupt_chunks_detected: 0,
                wasted_joules: 0.0,
                backoff_s: 0.0,
                elapsed_s: duration,
            }));
        }
        let chunk = self.retry.chunk_bytes.max(1);
        let mut confirmed = 0usize;
        let mut attempts = 0u32;
        let mut wasted = 0.0f64;
        let mut banked_joules = 0.0f64;
        let mut corrupt_total = 0u64;
        let mut backoff_total = 0.0f64;
        loop {
            let loop_now = self.clock.now();
            let past_deadline = deadline.is_some_and(|d| loop_now >= d);
            let over_budget = attempts >= self.retry.budget(self.battery.fraction());
            if over_budget || past_deadline {
                if past_deadline && !over_budget {
                    // The deadline, not the budget, killed this transfer:
                    // the retries it *would* have made are the zombie
                    // retries the grant mechanism exists to prevent.
                    self.deadline_abandons += 1;
                    self.telemetry
                        .span(names::SCHED_PREEMPT, loop_now)
                        .attr_str("category", category_name(category))
                        .attr_u64("attempts", u64::from(attempts))
                        .attr_u64("banked_bytes", confirmed as u64)
                        .attr_u64("total_bytes", bytes as u64)
                        .close(loop_now);
                }
                if salvage && confirmed > 0 {
                    // The budget is gone but whole verified chunks are
                    // banked: their energy bought fidelity, not waste.
                    let moved =
                        self.ledger
                            .reassign(category, EnergyCategory::Salvaged, banked_joules);
                    let now = self.clock.now();
                    self.telemetry
                        .span(names::NET_SALVAGE, now)
                        .attr_str("category", category_name(category))
                        .attr_u64("banked_bytes", confirmed as u64)
                        .attr_u64("total_bytes", bytes as u64)
                        .attr_u64("attempts", u64::from(attempts))
                        .attr_f64("salvaged_joules", moved)
                        .close(now);
                    return Ok(ResumableOutcome::Salvaged(SalvageSummary {
                        attempts,
                        banked_bytes: confirmed,
                        total_bytes: bytes,
                        salvaged_joules: moved,
                        wasted_joules: wasted,
                        corrupt_chunks_detected: corrupt_total,
                        backoff_s: backoff_total,
                        elapsed_s: now - start,
                    }));
                }
                // An abandoned transfer's banked bytes bought nothing —
                // their energy is reclassified as wasted.
                self.ledger
                    .reassign(category, EnergyCategory::Wasted, banked_joules);
                return Err(CoreError::Net(NetError::RetriesExhausted {
                    attempts,
                    delivered_bytes: confirmed,
                    total_bytes: bytes,
                }));
            }
            attempts += 1;
            let now = loop_now;
            // Clamp the attempt so it cannot run past the deadline (we
            // know `now < deadline` here, so the clamp stays positive).
            let timeout = deadline.map_or(ATTEMPT_TIMEOUT_S, |d| ATTEMPT_TIMEOUT_S.min(d - now));
            let outcome = self.channel.transfer(now, bytes - confirmed, timeout);
            let attempt_key = self.channel.attempts().saturating_sub(1);
            let mut kept = if outcome.completed() {
                outcome.delivered_bytes
            } else {
                (outcome.delivered_bytes / chunk) * chunk
            };
            // The receiver checks every delivered transport chunk against
            // its CRC trailer; which chunks arrived corrupt is drawn from
            // the fault model. A corrupt chunk is detected, it and
            // everything after it are re-requested, and it must never
            // reach the decoder.
            let mut fault = outcome.fault;
            if self.channel.faults().corrupt_probability > 0.0 {
                let base = (confirmed / chunk) as u64;
                let mut first_bad: Option<usize> = None;
                for c in 0..kept.div_ceil(chunk) {
                    if self
                        .channel
                        .faults()
                        .chunk_corrupted(attempt_key, base + c as u64)
                    {
                        corrupt_total += 1;
                        first_bad.get_or_insert(c);
                    }
                }
                if let Some(c0) = first_bad {
                    kept = c0 * chunk;
                    if fault.is_none() {
                        fault = Some(FaultKind::Corrupted);
                    }
                }
            }
            let joules = model::radio_tx_energy(outcome.elapsed_s);
            let useful_j = if outcome.delivered_bytes > 0 {
                joules * (kept as f64 / outcome.delivered_bytes as f64)
            } else {
                0.0
            };
            let waste_j = joules - useful_j;
            let drained_useful = self.battery.drain(useful_j);
            self.ledger.record(category, drained_useful);
            banked_joules += drained_useful;
            let drained_waste = if waste_j > 0.0 {
                let d = self.battery.drain(waste_j);
                self.ledger.record(EnergyCategory::Wasted, d);
                d
            } else {
                0.0
            };
            wasted += drained_waste;
            self.clock.advance(outcome.elapsed_s);
            let baseline_ok = self.drain_baseline(outcome.elapsed_s);
            if let Some(fault) = fault {
                // Record the interrupted attempt even if the battery died
                // paying for it — the trace should show what was tried.
                self.telemetry
                    .span(names::NET_RETRY, now)
                    .attr_str("category", category_name(category))
                    .attr_str("fault", fault_name(fault))
                    .attr_u64("attempt", u64::from(attempts))
                    .attr_u64("kept_bytes", kept as u64)
                    .attr_f64("wasted_joules", drained_waste)
                    .close(self.clock.now());
            }
            if drained_useful < useful_j || drained_waste < waste_j || !baseline_ok {
                return Err(CoreError::BatteryExhausted {
                    during: category_name(category),
                });
            }
            confirmed += kept;
            if confirmed >= bytes {
                self.telemetry
                    .span(names::NET_TRANSMIT, start)
                    .attr_str("category", category_name(category))
                    .attr_u64("bytes", bytes as u64)
                    .attr_u64("attempts", u64::from(attempts))
                    .attr_u64("corrupt_chunks", corrupt_total)
                    .attr_f64("wasted_joules", wasted)
                    .close(self.clock.now());
                return Ok(ResumableOutcome::Complete(TransmitSummary {
                    attempts,
                    delivered_bytes: confirmed,
                    corrupt_chunks_detected: corrupt_total,
                    wasted_joules: wasted,
                    backoff_s: backoff_total,
                    elapsed_s: self.clock.now() - start,
                }));
            }
            let mut wait = RetryPolicy::backoff_s(attempts - 1, self.fault_seed);
            if let Some(d) = deadline {
                // Never sleep past the deadline: the next loop iteration
                // abandons the transfer the moment the clock reaches it.
                wait = wait.min((d - self.clock.now()).max(0.0));
            }
            backoff_total += wait;
            self.idle(wait)?;
        }
    }

    /// Idles for `seconds` of wall-clock time (screen on), draining the
    /// baseline power.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatteryExhausted`] if the battery empties.
    pub fn idle(&mut self, seconds: f64) -> Result<()> {
        let joules = model::idle_energy(seconds);
        let drained = self.battery.drain(joules);
        self.ledger.record(EnergyCategory::Idle, drained);
        self.clock.advance(seconds);
        if drained < joules {
            return Err(CoreError::BatteryExhausted { during: "idle" });
        }
        Ok(())
    }
}

/// What a completed [`Client::transmit_resumable`] call cost and
/// achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmitSummary {
    /// Transfer attempts made (1 = no retries needed).
    pub attempts: u32,
    /// Bytes confirmed delivered (equals the payload on success).
    pub delivered_bytes: usize,
    /// Corrupted transport chunks caught by CRC verification and
    /// re-requested along the way (none ever reached the decoder).
    pub corrupt_chunks_detected: u64,
    /// Radio joules burnt on bytes that were never confirmed.
    pub wasted_joules: f64,
    /// Total simulated seconds spent backing off between attempts.
    pub backoff_s: f64,
    /// Total simulated seconds from first attempt to completion,
    /// including backoff waits.
    pub elapsed_s: f64,
}

/// How a [`Client::transmit_resumable`] call ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResumableOutcome {
    /// Every byte was confirmed delivered.
    Complete(TransmitSummary),
    /// The retry budget ran out mid-transfer, but the confirmed chunk
    /// prefix was banked for partial decoding.
    Salvaged(SalvageSummary),
}

/// What survived a transfer that exhausted its retry budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SalvageSummary {
    /// Transfer attempts made before the budget ran out.
    pub attempts: u32,
    /// Bytes confirmed delivered — the decodable-prefix budget.
    pub banked_bytes: usize,
    /// Bytes the full transfer would have carried.
    pub total_bytes: usize,
    /// Radio joules reclassified from the upload category to
    /// [`EnergyCategory::Salvaged`] for the banked prefix.
    pub salvaged_joules: f64,
    /// Radio joules burnt on bytes that were never confirmed.
    pub wasted_joules: f64,
    /// Corrupted transport chunks caught by CRC verification (none ever
    /// reached the decoder).
    pub corrupt_chunks_detected: u64,
    /// Total simulated seconds spent backing off between attempts.
    pub backoff_s: f64,
    /// Total simulated seconds from first attempt to abandonment.
    pub elapsed_s: f64,
}

fn category_name(category: EnergyCategory) -> &'static str {
    match category {
        EnergyCategory::FeatureExtraction => "feature extraction",
        EnergyCategory::FeatureUpload => "feature upload",
        EnergyCategory::ImageUpload => "image upload",
        EnergyCategory::Download => "download",
        EnergyCategory::Compression => "compression",
        EnergyCategory::Wasted => "wasted retry",
        EnergyCategory::Idle => "idle",
        EnergyCategory::Salvaged => "salvaged upload",
        EnergyCategory::PullDown => "pull-down upload",
    }
}

/// Stable, allocation-free trace label for a fault kind.
fn fault_name(fault: FaultKind) -> &'static str {
    match fault {
        FaultKind::Disconnected => "disconnected",
        FaultKind::Dropped => "dropped",
        FaultKind::TimedOut => "timed_out",
        FaultKind::Corrupted => "corrupted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BeesConfig {
        BeesConfig {
            trace: BandwidthTrace::constant(256_000.0).unwrap(),
            ..BeesConfig::default()
        }
    }

    /// A 2,880 bps link behind a fault model that never fires but keeps
    /// the resumable path on: each 90 s attempt times out having delivered
    /// 32,400 bytes, of which one 16,384-byte chunk is banked.
    fn slow_link() -> BeesConfig {
        BeesConfig {
            trace: BandwidthTrace::constant(2_880.0).unwrap(),
            battery: bees_energy::Battery::from_joules(1e9),
            fault: bees_net::FaultModel::new(2, 0.0, 1e-12, 1e9, 1.0).unwrap(),
            ..BeesConfig::default()
        }
    }

    /// The summary of a transfer made without salvage, which completes or
    /// fails.
    fn complete(out: Result<ResumableOutcome>) -> TransmitSummary {
        match out.unwrap() {
            ResumableOutcome::Complete(s) => s,
            salvaged => panic!("salvage is off, got {salvaged:?}"),
        }
    }

    #[test]
    fn spend_cpu_drains_and_advances() {
        let mut c = Client::try_new(1, &config()).unwrap();
        let t = c.spend_cpu(EnergyCategory::FeatureExtraction, 4.0).unwrap();
        assert!((t - 2.0).abs() < 1e-9); // 4 J at 2 W
        assert!((c.now() - 2.0).abs() < 1e-9);
        assert!((c.ledger().get(EnergyCategory::FeatureExtraction) - 4.0).abs() < 1e-9);
        assert!(c.ebat() < 1.0);
    }

    #[test]
    fn transmit_uses_channel_and_radio_power() {
        let mut c = Client::try_new(1, &config()).unwrap();
        // 32 KB at 256 Kbps = 1 s at 0.8 W.
        let d = c.transmit(EnergyCategory::ImageUpload, 32_000).unwrap();
        assert!((d - 1.0).abs() < 1e-9);
        assert!((c.ledger().get(EnergyCategory::ImageUpload) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn screen_keeps_draining_during_activity() {
        // The battery pays IDLE_WATTS for every wall-clock second, whether
        // the phone is transferring, computing, or waiting: slow uploads
        // cost screen time too (the effect Fig. 9/12 depend on).
        let mut c = Client::try_new(1, &config()).unwrap();
        let d = c.transmit(EnergyCategory::ImageUpload, 32_000).unwrap(); // 1 s
        assert!((c.ledger().get(EnergyCategory::Idle) - d * 1.0).abs() < 1e-9);
        c.spend_cpu(EnergyCategory::FeatureExtraction, 4.0).unwrap(); // 2 s CPU
        assert!((c.ledger().get(EnergyCategory::Idle) - (d + 2.0)).abs() < 1e-9);
        // Total drain = activity + baseline.
        let expected = 0.8 + 4.0 + (d + 2.0) * 1.0;
        let drained = c.battery().capacity_joules() - c.battery().remaining_joules();
        assert!((drained - expected).abs() < 1e-9);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut c = Client::try_new(1, &config()).unwrap();
        c.battery_mut().set_fraction(0.0);
        let err = c.spend_cpu(EnergyCategory::Compression, 1.0);
        assert!(matches!(err, Err(CoreError::BatteryExhausted { .. })));
    }

    #[test]
    fn idle_records_idle_category() {
        let mut c = Client::try_new(1, &config()).unwrap();
        c.idle(10.0).unwrap();
        assert!((c.ledger().get(EnergyCategory::Idle) - 10.0).abs() < 1e-9);
        assert!((c.now() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fleet_clients_get_distinct_traces() {
        let cfg = BeesConfig {
            battery: bees_energy::Battery::from_joules(1e9),
            ..BeesConfig::default() // fluctuating trace
        };
        let mut a = Client::try_new(1, &cfg).unwrap();
        let mut b = Client::try_new(2, &cfg).unwrap();
        let da = a.transmit(EnergyCategory::ImageUpload, 200_000).unwrap();
        let db = b.transmit(EnergyCategory::ImageUpload, 200_000).unwrap();
        assert_ne!(da, db);
    }

    #[test]
    fn reset_ledger_clears_counters() {
        let mut c = Client::try_new(3, &config()).unwrap();
        c.idle(1.0).unwrap();
        c.reset_ledger();
        assert_eq!(c.ledger().total(), 0.0);
    }

    #[test]
    fn telemetry_starts_disabled_and_traces_when_installed() {
        use bees_telemetry::{JsonlSink, SharedBuf};
        use std::sync::Arc;
        let mut c = Client::try_new(1, &config()).unwrap();
        assert!(!c.telemetry().is_enabled());
        let buf = SharedBuf::new();
        c.set_telemetry(Telemetry::with_sinks(vec![Arc::new(JsonlSink::new(
            buf.clone(),
        ))]));
        c.transmit(EnergyCategory::ImageUpload, 32_000).unwrap();
        c.receive(1_000).unwrap();
        c.telemetry().flush().unwrap();
        let out = buf.contents_string();
        assert!(out.contains("\"span\":\"net.transmit\""));
        assert!(out.contains("\"span\":\"net.receive\""));
        assert!(out.contains("\"category\":\"image upload\""));
        // Spans run on the virtual clock: the first transmit starts at 0.
        assert!(out.contains("\"start_s\":0"));
    }

    #[test]
    fn faulted_retries_emit_retry_spans() {
        use bees_telemetry::{JsonlSink, SharedBuf};
        use std::sync::Arc;
        let mut cfg = config();
        cfg.battery = bees_energy::Battery::from_joules(1e9);
        cfg.fault = bees_net::FaultModel::new(0xF00D, 0.5, 0.0, 30.0, 10.0).unwrap();
        cfg.retry.max_attempts = 200;
        let mut c = Client::try_new(0, &cfg).unwrap();
        let buf = SharedBuf::new();
        c.set_telemetry(Telemetry::with_sinks(vec![Arc::new(JsonlSink::new(
            buf.clone(),
        ))]));
        for _ in 0..8 {
            c.transmit_resumable(EnergyCategory::ImageUpload, 200_000, false)
                .unwrap();
        }
        let out = buf.contents_string();
        assert!(
            out.contains("\"span\":\"net.retry\""),
            "p=0.5 drops must produce retry spans"
        );
        assert!(out.contains("\"fault\":"));
        assert!(out.contains("\"span\":\"net.transmit\""));
        assert!(out.contains("\"attempts\":"));
    }

    #[test]
    fn resumable_equals_plain_transmit_without_faults() {
        // The fast path must be *exactly* the legacy path: same duration,
        // same ledger, same battery, same clock — bit for bit.
        let cfg = config();
        let mut plain = Client::try_new(7, &cfg).unwrap();
        let mut resumable = Client::try_new(7, &cfg).unwrap();
        let d = plain
            .transmit(EnergyCategory::ImageUpload, 100_000)
            .unwrap();
        let s = complete(resumable.transmit_resumable(EnergyCategory::ImageUpload, 100_000, false));
        assert_eq!(s.attempts, 1);
        assert_eq!(s.delivered_bytes, 100_000);
        assert_eq!(s.wasted_joules, 0.0);
        assert_eq!(s.elapsed_s, d);
        assert_eq!(plain.now(), resumable.now());
        assert_eq!(
            plain.battery().remaining_joules(),
            resumable.battery().remaining_joules()
        );
        assert_eq!(plain.ledger(), resumable.ledger());
    }

    #[test]
    fn resumable_retries_through_faults() {
        let mut cfg = config();
        cfg.battery = bees_energy::Battery::from_joules(1e9);
        cfg.fault = bees_net::FaultModel::new(0xF00D, 0.5, 0.0, 30.0, 10.0).unwrap();
        cfg.retry.max_attempts = 200;
        let mut c = Client::try_new(0, &cfg).unwrap();
        // Several transfers so at least one hits a dropped attempt.
        let mut total_attempts = 0;
        let mut total_wasted = 0.0;
        for _ in 0..8 {
            let s = complete(c.transmit_resumable(EnergyCategory::ImageUpload, 200_000, false));
            assert_eq!(s.delivered_bytes, 200_000);
            total_attempts += s.attempts;
            total_wasted += s.wasted_joules;
        }
        assert!(total_attempts > 8, "p=0.5 drops must force retries");
        assert!(total_wasted > 0.0);
        assert!(c.ledger().get(EnergyCategory::Wasted) > 0.0);
        assert!(
            (c.ledger().get(EnergyCategory::Wasted) - total_wasted).abs() < 1e-9,
            "summary waste must match the ledger"
        );
    }

    #[test]
    fn retry_exhaustion_is_a_typed_error() {
        let mut cfg = config();
        cfg.battery = bees_energy::Battery::from_joules(1e9);
        // Every attempt drops, and the chunk is larger than any partial
        // delivery, so no progress is ever banked.
        cfg.fault = bees_net::FaultModel::new(1, 1.0, 0.0, 30.0, 10.0).unwrap();
        cfg.retry.max_attempts = 3;
        cfg.retry.chunk_bytes = 1 << 30;
        let mut c = Client::try_new(0, &cfg).unwrap();
        let err = c.transmit_resumable(EnergyCategory::ImageUpload, 50_000, false);
        match err {
            Err(CoreError::Net(NetError::RetriesExhausted {
                attempts,
                delivered_bytes,
                total_bytes,
            })) => {
                assert_eq!(attempts, 3);
                assert_eq!(delivered_bytes, 0);
                assert_eq!(total_bytes, 50_000);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // The failed attempts still burnt real energy.
        assert!(c.ledger().get(EnergyCategory::Wasted) > 0.0);
        assert_eq!(c.ledger().get(EnergyCategory::ImageUpload), 0.0);
    }

    #[test]
    fn resumable_banks_whole_chunks_across_attempts() {
        let mut c = Client::try_new(0, &slow_link()).unwrap();
        let s = complete(c.transmit_resumable(EnergyCategory::ImageUpload, 60_000, false));
        // Attempts 1 and 2 each time out after delivering 32 400 bytes and
        // bank one 16 384-byte chunk apiece; the remaining 27 232 bytes
        // (75.6 s) complete within the third attempt's timeout.
        assert_eq!(s.attempts, 3);
        assert_eq!(s.delivered_bytes, 60_000);
        assert!(s.wasted_joules > 0.0);
        assert!(s.backoff_s > 0.0);
    }

    #[test]
    fn salvageable_banks_a_prefix_and_reclassifies_its_energy() {
        // Each attempt banks one 16 384-byte chunk. A 2-attempt budget
        // cannot finish 60 000 bytes, so the transfer is cut with two
        // chunks banked.
        let mut cfg = slow_link();
        cfg.retry.max_attempts = 2;
        let mut c = Client::try_new(0, &cfg).unwrap();
        let out = c
            .transmit_resumable(EnergyCategory::ImageUpload, 60_000, true)
            .unwrap();
        let ResumableOutcome::Salvaged(s) = out else {
            panic!("2 attempts cannot deliver 60 kB, got {out:?}");
        };
        assert_eq!(s.attempts, 2);
        assert_eq!(s.banked_bytes, 2 * 16_384);
        assert_eq!(s.total_bytes, 60_000);
        assert!(s.salvaged_joules > 0.0);
        assert!(s.wasted_joules > 0.0);
        // The banked prefix's energy moved to Salvaged; nothing remains
        // booked as a completed image upload.
        assert!((c.ledger().get(EnergyCategory::Salvaged) - s.salvaged_joules).abs() < 1e-12);
        assert_eq!(c.ledger().get(EnergyCategory::ImageUpload), 0.0);
        assert!((c.ledger().get(EnergyCategory::Wasted) - s.wasted_joules).abs() < 1e-12);
        // Demotion sends it back to waste (undecodable prefix).
        let moved = c.demote_salvage(s.salvaged_joules);
        assert!((moved - s.salvaged_joules).abs() < 1e-12);
        assert_eq!(c.ledger().get(EnergyCategory::Salvaged), 0.0);
    }

    #[test]
    fn salvage_off_wastes_what_salvage_on_redeems() {
        // The A/B the fault_resilience bench reports: at identical seeds,
        // disabling salvage strictly grows the wasted bucket.
        let mut cfg = slow_link();
        cfg.retry.max_attempts = 2;
        let mut on = Client::try_new(0, &cfg).unwrap();
        let mut off = Client::try_new(0, &cfg).unwrap();
        on.transmit_resumable(EnergyCategory::ImageUpload, 60_000, true)
            .unwrap();
        let err = off.transmit_resumable(EnergyCategory::ImageUpload, 60_000, false);
        assert!(matches!(
            err,
            Err(CoreError::Net(NetError::RetriesExhausted { .. }))
        ));
        assert_eq!(off.ledger().get(EnergyCategory::ImageUpload), 0.0);
        assert!(
            off.ledger().get(EnergyCategory::Wasted)
                > on.ledger().get(EnergyCategory::Wasted) + 1e-9,
            "salvage-off must waste strictly more at equal seeds"
        );
        // Total drain is identical either way — salvage relabels energy,
        // it does not refund it.
        assert_eq!(
            on.battery().remaining_joules(),
            off.battery().remaining_joules()
        );
    }

    #[test]
    fn corrupt_chunks_are_detected_retried_and_deterministic() {
        let mut cfg = config();
        cfg.battery = bees_energy::Battery::from_joules(1e9);
        cfg.fault = bees_net::FaultModel::none().with_corruption(0.5).unwrap();
        cfg.retry.max_attempts = 200;
        let run = || {
            let mut c = Client::try_new(0, &cfg).unwrap();
            let s = complete(c.transmit_resumable(EnergyCategory::ImageUpload, 200_000, false));
            (s, c.ledger().clone())
        };
        let (s, ledger) = run();
        assert_eq!(s.delivered_bytes, 200_000);
        assert!(
            s.corrupt_chunks_detected > 0,
            "p=0.5 must corrupt some of ~13 chunks"
        );
        assert!(s.attempts > 1, "corruption must force re-requests");
        assert!(
            ledger.get(EnergyCategory::Wasted) > 0.0,
            "re-sent corrupt chunks burn real energy"
        );
        // Pure function of the seed: an identical client repeats exactly.
        let (s2, ledger2) = run();
        assert_eq!(s, s2);
        assert_eq!(ledger, ledger2);
    }

    #[test]
    fn grant_deadline_abandons_instead_of_retrying() {
        // Every attempt times out after 90 s having delivered 32 400 bytes;
        // without a deadline the 200-attempt budget would grind on.
        let mut cfg = slow_link();
        cfg.retry.max_attempts = 200;
        let mut c = Client::try_new(0, &cfg).unwrap();
        c.set_grant_deadline(Some(225.0));
        assert_eq!(c.grant_deadline_s(), Some(225.0));
        let err = c.transmit_resumable(EnergyCategory::ImageUpload, 10_000_000, false);
        assert!(matches!(
            err,
            Err(CoreError::Net(NetError::RetriesExhausted { .. }))
        ));
        assert_eq!(c.deadline_abandons(), 1);
        // No zombie retries: the clock never ran past the deadline.
        assert!(c.now() <= 225.0 + 1e-9, "clock at {}", c.now());
        // All spent airtime is accounted: banked bytes' energy was wasted
        // (non-salvage path), nothing lingers in the upload bucket.
        assert_eq!(c.ledger().get(EnergyCategory::ImageUpload), 0.0);
        assert!(c.ledger().get(EnergyCategory::Wasted) > 0.0);
    }

    #[test]
    fn deadline_abandons_still_salvage_banked_chunks() {
        let mut cfg = slow_link();
        cfg.retry.max_attempts = 200;
        let mut c = Client::try_new(0, &cfg).unwrap();
        c.set_grant_deadline(Some(225.0));
        let out = c
            .transmit_resumable(EnergyCategory::ImageUpload, 10_000_000, true)
            .unwrap();
        let ResumableOutcome::Salvaged(s) = out else {
            panic!("the deadline must cut this transfer, got {out:?}");
        };
        assert!(s.banked_bytes >= 16_384, "whole chunks were banked");
        assert!(s.salvaged_joules > 0.0);
        assert_eq!(c.deadline_abandons(), 1);
        assert!((c.ledger().get(EnergyCategory::Salvaged) - s.salvaged_joules).abs() < 1e-12);
    }

    #[test]
    fn expired_grant_defers_before_spending_radio_energy() {
        let mut cfg = config();
        cfg.fault = bees_net::FaultModel::new(2, 0.0, 1e-12, 1e9, 1.0).unwrap();
        let mut c = Client::try_new(0, &cfg).unwrap();
        c.idle(10.0).unwrap();
        c.set_grant_deadline(Some(5.0)); // already in the past
        let idle_before = c.ledger().get(EnergyCategory::Idle);
        let err = c.transmit_resumable(EnergyCategory::ImageUpload, 50_000, false);
        match err {
            Err(CoreError::Net(NetError::RetriesExhausted { attempts, .. })) => {
                assert_eq!(attempts, 0, "not a single attempt was made");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(c.ledger().get(EnergyCategory::Wasted), 0.0);
        assert_eq!(c.ledger().get(EnergyCategory::ImageUpload), 0.0);
        assert_eq!(c.ledger().get(EnergyCategory::Idle), idle_before);
    }

    #[test]
    fn clearing_the_grant_deadline_restores_plain_behavior() {
        let cfg = config();
        let mut gated = Client::try_new(7, &cfg).unwrap();
        let mut plain = Client::try_new(7, &cfg).unwrap();
        gated.set_grant_deadline(Some(1e9));
        gated.set_grant_deadline(None);
        gated
            .transmit_resumable(EnergyCategory::ImageUpload, 100_000, false)
            .unwrap();
        plain
            .transmit_resumable(EnergyCategory::ImageUpload, 100_000, false)
            .unwrap();
        assert_eq!(gated.ledger(), plain.ledger());
        assert_eq!(gated.now(), plain.now());
        assert_eq!(gated.deadline_abandons(), 0);
    }

    #[test]
    fn rate_override_round_trips_through_the_client() {
        let mut c = Client::try_new(0, &config()).unwrap();
        assert_eq!(c.rate_override_bps(), None);
        c.set_rate_override(Some(64_000.0)).unwrap();
        assert_eq!(c.rate_override_bps(), Some(64_000.0));
        // 32 KB at a granted 64 Kbps slice = 4 s instead of 1 s.
        let d = c.transmit(EnergyCategory::ImageUpload, 32_000).unwrap();
        assert!((d - 4.0).abs() < 1e-9);
        c.set_rate_override(None).unwrap();
        assert!(c.set_rate_override(Some(-1.0)).is_err());
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut cfg = config();
        cfg.retry.max_attempts = 0;
        assert!(matches!(
            Client::try_new(0, &cfg),
            Err(CoreError::InvalidConfig { .. })
        ));
        let mut cfg2 = config();
        cfg2.fault.drop_probability = 2.0;
        assert!(Client::try_new(0, &cfg2).is_err());
    }
}
