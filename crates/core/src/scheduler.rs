//! Server-side airtime scheduling for a shared uplink cell.
//!
//! When a whole fleet draws airtime from one [`bees_net::SharedCell`],
//! somebody has to decide who transmits, at what fidelity, each epoch.
//! This module is that somebody: the [`AirtimeScheduler`] ranks pending
//! uploads by **marginal utility** — SSMM novelty × battery state ×
//! geotag coverage gap — and walks the ranking, admitting each device at
//! the highest [`UploadTier`] whose airtime still fits under the cell
//! budget (scaled by [`OVERSUBSCRIPTION_THRESHOLD`]). Devices
//! past the budget are told to *degrade before spending radio energy*:
//! full progressive upload → partial scans → thumbnail → defer.
//!
//! Two simpler policies ([`SchedulerPolicy::Fifo`] and
//! [`SchedulerPolicy::RoundRobin`]) share the same admission walk so the
//! `contention` bench compares rankings, not mechanisms. A starvation
//! bound (`max_consecutive_denials`) force-grants any device the utility
//! ranking has deferred too many epochs in a row.
//!
//! Everything here is pure integer/float arithmetic over explicit inputs
//! — no clocks, no randomness — so fleet reports stay byte-identical
//! across thread counts and shard counts.

use std::fmt;

/// Fraction of a full-tier upload's bytes a partial-scans upload costs
/// (the first spectral bands of the progressive stream).
pub const PARTIAL_TIER_FRACTION: f64 = 0.4;
/// Fraction of a full-tier upload's bytes a thumbnail upload costs.
pub const THUMBNAIL_TIER_FRACTION: f64 = 0.1;
/// Demand-to-budget ratio above which admission control starts degrading
/// low-utility devices (tier ladder) instead of granting everyone: grants
/// may overfill an epoch's airtime budget by half before backpressure
/// engages.
pub const OVERSUBSCRIPTION_THRESHOLD: f64 = 1.5;

/// How the scheduler ranks devices competing for cell airtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Arrival order (event-queue pop order): first come, first granted.
    Fifo,
    /// A rotating cursor over device ids: fairness without content
    /// awareness.
    RoundRobin,
    /// Marginal utility: SSMM novelty × battery state × coverage gap,
    /// highest first — the BEES answer.
    Utility,
}

impl Default for SchedulerPolicy {
    /// Defaults to [`Utility`](SchedulerPolicy::Utility): the policy only
    /// engages when the shared cell is enabled, and when it is, the
    /// content-aware ranking is the one the system is built around.
    fn default() -> Self {
        SchedulerPolicy::Utility
    }
}

impl SchedulerPolicy {
    /// Stable lowercase name, used in bench output and telemetry attrs.
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedulerPolicy::Fifo => "fifo",
            SchedulerPolicy::RoundRobin => "round_robin",
            SchedulerPolicy::Utility => "utility",
        }
    }
}

impl fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SchedulerPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('-', "_").as_str() {
            "fifo" => Ok(SchedulerPolicy::Fifo),
            "round_robin" | "rr" => Ok(SchedulerPolicy::RoundRobin),
            "utility" => Ok(SchedulerPolicy::Utility),
            other => Err(format!("unknown scheduler policy `{other}`")),
        }
    }
}

/// The fidelity a device is granted for one epoch — the degradation
/// ladder admission control walks down under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UploadTier {
    /// The full progressive upload at the scheme's adapted quality.
    Full,
    /// Only the leading spectral-selection scans — a deliberate partial
    /// image, ingested through the salvage machinery.
    PartialScans,
    /// A thumbnail only.
    Thumbnail,
    /// No airtime this epoch: the device idles and re-queues.
    Defer,
}

impl UploadTier {
    /// Estimated uplink bytes of this tier given the full-tier estimate.
    pub fn est_bytes(&self, full_bytes: usize) -> usize {
        match self {
            UploadTier::Full => full_bytes,
            UploadTier::PartialScans => {
                ((full_bytes as f64 * PARTIAL_TIER_FRACTION).ceil() as usize).max(1)
            }
            UploadTier::Thumbnail => {
                ((full_bytes as f64 * THUMBNAIL_TIER_FRACTION).ceil() as usize).max(1)
            }
            UploadTier::Defer => 0,
        }
    }

    /// Stable lowercase name for telemetry attributes.
    pub fn as_str(&self) -> &'static str {
        match self {
            UploadTier::Full => "full",
            UploadTier::PartialScans => "partial_scans",
            UploadTier::Thumbnail => "thumbnail",
            UploadTier::Defer => "defer",
        }
    }
}

impl fmt::Display for UploadTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One device's standing request for epoch airtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceDemand {
    /// Device index in the fleet.
    pub device: usize,
    /// Novelty proxy in `[0, 1]`: the fraction of last round's captures
    /// that survived redundancy elimination (1.0 before any history).
    pub novelty: f64,
    /// Battery fraction in `[0, 1]`.
    pub ebat: f64,
    /// Geotag coverage gap in `[0, 1]`: 1.0 when the server has nothing
    /// from this device's location yet, low when the spot is covered.
    pub coverage_gap: f64,
    /// Estimated full-tier uplink bytes for the device's pending batch.
    pub est_bytes: usize,
    /// Arrival rank in the event queue (FIFO order).
    pub arrival_order: usize,
    /// Epochs in a row this device has been denied (tier `Defer`).
    pub consecutive_denials: u32,
}

impl DeviceDemand {
    /// The marginal-utility score the `Utility` policy ranks by.
    pub fn utility(&self) -> f64 {
        let clamp = |x: f64| {
            if x.is_finite() {
                x.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        clamp(self.novelty) * clamp(self.ebat) * clamp(self.coverage_gap)
    }
}

/// One device's verdict for the epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// Device index.
    pub device: usize,
    /// Granted fidelity tier (`Defer` = denied).
    pub tier: UploadTier,
    /// The utility score the verdict was ranked under.
    pub utility: f64,
    /// Whether the starvation bound forced this grant past the budget.
    pub forced: bool,
}

/// The scheduler's output for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// Per-demand verdicts, in the *input* demand order.
    pub grants: Vec<Grant>,
    /// Devices granted airtime (tier != `Defer`).
    pub granted: usize,
}

impl EpochPlan {
    /// The grant for `device`, if it was in the demand set.
    pub fn grant_for(&self, device: usize) -> Option<&Grant> {
        self.grants.iter().find(|g| g.device == device)
    }
}

/// Issues per-epoch airtime grants under a shared-cell budget.
///
/// Stateful only for the round-robin cursor; everything else is a pure
/// function of the inputs.
#[derive(Debug, Clone)]
pub struct AirtimeScheduler {
    policy: SchedulerPolicy,
    max_consecutive_denials: u32,
    rr_cursor: usize,
}

impl AirtimeScheduler {
    /// A scheduler running `policy` with the cell's starvation bound.
    pub fn new(policy: SchedulerPolicy, max_consecutive_denials: u32) -> Self {
        AirtimeScheduler {
            policy,
            max_consecutive_denials: max_consecutive_denials.max(1),
            rr_cursor: 0,
        }
    }

    /// The active ranking policy.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Plans one epoch: ranks `demands` under `policy`, then admits each
    /// device at the highest tier whose cumulative airtime (at the shared
    /// rate `capacity_bps`) stays within `budget_s` ×
    /// [`OVERSUBSCRIPTION_THRESHOLD`]. A device denied
    /// `max_consecutive_denials` epochs in a row is force-granted a
    /// thumbnail even past the budget.
    ///
    /// `budget_s` is the epoch length minus cell-outage overlap;
    /// `capacity_bps` is the cell capacity sampled at the epoch start.
    /// When either is zero every device defers — transmitting into a dark
    /// cell only books `Wasted` joules.
    pub fn plan_epoch(
        &mut self,
        demands: &[DeviceDemand],
        budget_s: f64,
        capacity_bps: f64,
    ) -> EpochPlan {
        let rr_cursor = self.rr_cursor;
        self.rr_cursor = self.rr_cursor.wrapping_add(1);

        if demands.is_empty() {
            return EpochPlan {
                grants: Vec::new(),
                granted: 0,
            };
        }

        let airtime_s = |bytes: usize| -> f64 {
            if capacity_bps <= 0.0 {
                f64::INFINITY
            } else {
                bytes as f64 * 8.0 / capacity_bps
            }
        };
        // Rank: a stable order of indices into `demands`.
        let mut order: Vec<usize> = (0..demands.len()).collect();
        match self.policy {
            SchedulerPolicy::Fifo => {
                order.sort_by_key(|&i| (demands[i].arrival_order, demands[i].device));
            }
            SchedulerPolicy::RoundRobin => {
                // Rotate device-id order by the epoch cursor.
                order.sort_by_key(|&i| demands[i].device);
                let n = order.len();
                order.rotate_left(rr_cursor % n);
            }
            SchedulerPolicy::Utility => {
                order.sort_by(|&a, &b| {
                    demands[b]
                        .utility()
                        .total_cmp(&demands[a].utility())
                        .then(demands[a].device.cmp(&demands[b].device))
                });
            }
        }
        // Starving devices jump the queue regardless of policy, keeping
        // their relative order. sort_by_key is stable.
        order.sort_by_key(|&i| demands[i].consecutive_denials < self.max_consecutive_denials);

        let allowance_s = budget_s * OVERSUBSCRIPTION_THRESHOLD;
        let mut spent_s = 0.0f64;
        let mut grants = vec![
            Grant {
                device: 0,
                tier: UploadTier::Defer,
                utility: 0.0,
                forced: false,
            };
            demands.len()
        ];
        let mut granted = 0usize;
        for &i in &order {
            let d = &demands[i];
            let starving = d.consecutive_denials >= self.max_consecutive_denials;
            let mut tier = UploadTier::Defer;
            for candidate in [
                UploadTier::Full,
                UploadTier::PartialScans,
                UploadTier::Thumbnail,
            ] {
                let cost = airtime_s(candidate.est_bytes(d.est_bytes));
                if spent_s + cost <= allowance_s {
                    tier = candidate;
                    break;
                }
            }
            let mut forced = false;
            if tier == UploadTier::Defer && starving && capacity_bps > 0.0 {
                // Starvation bound: the cell is up, so the device gets a
                // thumbnail slot even past the allowance.
                tier = UploadTier::Thumbnail;
                forced = true;
            }
            if tier != UploadTier::Defer {
                spent_s += airtime_s(tier.est_bytes(d.est_bytes));
                granted += 1;
            }
            grants[i] = Grant {
                device: d.device,
                tier,
                utility: d.utility(),
                forced,
            };
        }
        EpochPlan { grants, granted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(device: usize, novelty: f64, ebat: f64, gap: f64, bytes: usize) -> DeviceDemand {
        DeviceDemand {
            device,
            novelty,
            ebat,
            coverage_gap: gap,
            est_bytes: bytes,
            arrival_order: device,
            consecutive_denials: 0,
        }
    }

    fn sched(policy: SchedulerPolicy) -> AirtimeScheduler {
        AirtimeScheduler::new(policy, 8)
    }

    /// The epoch budget whose allowance is `allowance_s`: the cases below
    /// are sized in allowance seconds.
    fn budget(allowance_s: f64) -> f64 {
        allowance_s / OVERSUBSCRIPTION_THRESHOLD
    }

    #[test]
    fn utility_is_the_clamped_product() {
        let d = demand(0, 0.5, 0.5, 0.5, 1);
        assert!((d.utility() - 0.125).abs() < 1e-12);
        let wild = demand(0, 7.0, -1.0, f64::NAN, 1);
        assert_eq!(wild.utility(), 0.0);
    }

    #[test]
    fn undersubscribed_epochs_grant_everyone_full() {
        // 4 devices × 10_000 B = 320_000 bits over 256 Kbps = 1.25 s of
        // airtime against a 30 s allowance.
        let demands: Vec<_> = (0..4).map(|d| demand(d, 1.0, 1.0, 1.0, 10_000)).collect();
        for policy in [
            SchedulerPolicy::Fifo,
            SchedulerPolicy::RoundRobin,
            SchedulerPolicy::Utility,
        ] {
            let plan = sched(policy).plan_epoch(&demands, budget(30.0), 256_000.0);
            assert_eq!(plan.granted, 4, "{policy}");
            assert!(plan.grants.iter().all(|g| g.tier == UploadTier::Full));
        }
    }

    #[test]
    fn oversubscription_degrades_the_lowest_utility_first() {
        // The allowance fits exactly one full upload; device 2 has the
        // highest utility and must keep Full while the others degrade.
        let demands = vec![
            demand(0, 0.2, 1.0, 1.0, 96_000),
            demand(1, 0.5, 1.0, 1.0, 96_000),
            demand(2, 1.0, 1.0, 1.0, 96_000),
        ];
        // 96_000 B = 768_000 bits at 256 Kbps = 3 s each; allowance 3 s.
        let plan = sched(SchedulerPolicy::Utility).plan_epoch(&demands, budget(3.0), 256_000.0);
        assert_eq!(plan.grant_for(2).unwrap().tier, UploadTier::Full);
        assert!(plan.grant_for(0).unwrap().tier > UploadTier::Full);
        // FIFO instead favors arrival order: device 0 keeps Full.
        let plan = sched(SchedulerPolicy::Fifo).plan_epoch(&demands, budget(3.0), 256_000.0);
        assert_eq!(plan.grant_for(0).unwrap().tier, UploadTier::Full);
    }

    #[test]
    fn ties_break_by_device_id() {
        let demands: Vec<_> = (0..3).map(|d| demand(d, 1.0, 1.0, 1.0, 96_000)).collect();
        let plan = sched(SchedulerPolicy::Utility).plan_epoch(&demands, budget(3.0), 256_000.0);
        assert_eq!(plan.grant_for(0).unwrap().tier, UploadTier::Full);
        assert_ne!(plan.grant_for(2).unwrap().tier, UploadTier::Full);
    }

    #[test]
    fn round_robin_rotates_across_epochs() {
        let demands: Vec<_> = (0..3).map(|d| demand(d, 1.0, 1.0, 1.0, 96_000)).collect();
        let mut s = sched(SchedulerPolicy::RoundRobin);
        let first: Vec<_> = (0..3)
            .map(|_| {
                let plan = s.plan_epoch(&demands, budget(3.0), 256_000.0);
                plan.grants
                    .iter()
                    .position(|g| g.tier == UploadTier::Full)
                    .unwrap()
            })
            .collect();
        assert_eq!(first, vec![0, 1, 2], "the full slot rotates");
    }

    #[test]
    fn dark_cell_defers_everyone() {
        let demands: Vec<_> = (0..3).map(|d| demand(d, 1.0, 1.0, 1.0, 1_000)).collect();
        let mut s = sched(SchedulerPolicy::Utility);
        let plan = s.plan_epoch(&demands, 0.0, 256_000.0);
        assert_eq!(plan.granted, 0);
        let plan = s.plan_epoch(&demands, budget(30.0), 0.0);
        assert_eq!(plan.granted, 0);
        assert!(plan.grants.iter().all(|g| g.tier == UploadTier::Defer));
    }

    #[test]
    fn starvation_bound_forces_a_thumbnail_grant() {
        let mut hungry = demand(0, 0.0, 0.0, 0.0, 96_000); // utility 0
        let rich = demand(1, 1.0, 1.0, 1.0, 96_000);
        hungry.consecutive_denials = 8;
        let mut s = sched(SchedulerPolicy::Utility);
        // The allowance fits one full upload; the starving device jumps the
        // queue.
        let plan = s.plan_epoch(&[hungry, rich], budget(3.0), 256_000.0);
        let g = plan.grant_for(0).unwrap();
        assert_ne!(g.tier, UploadTier::Defer, "starving device is granted");
        // Below the bound the same device is simply outranked.
        let mut s = sched(SchedulerPolicy::Utility);
        hungry.consecutive_denials = 7;
        let plan = s.plan_epoch(&[hungry, rich], budget(0.001), 256_000.0);
        assert_eq!(plan.grant_for(0).unwrap().tier, UploadTier::Defer);
    }

    #[test]
    fn threshold_stretches_the_allowance() {
        // Two full uploads need 6 s. Grants may overfill a 4 s budget by
        // half, so it admits both at Full; just below it, the second
        // degrades.
        let demands = vec![
            demand(0, 1.0, 1.0, 1.0, 96_000),
            demand(1, 0.5, 1.0, 1.0, 96_000),
        ];
        let mut s = sched(SchedulerPolicy::Utility);
        let plan = s.plan_epoch(&demands, 4.0, 256_000.0);
        assert!(plan.grants.iter().all(|g| g.tier == UploadTier::Full));
        let plan = s.plan_epoch(&demands, 3.9, 256_000.0);
        assert_ne!(plan.grant_for(1).unwrap().tier, UploadTier::Full);
    }

    #[test]
    fn tier_byte_estimates_shrink_down_the_ladder() {
        let full = 100_000;
        assert_eq!(UploadTier::Full.est_bytes(full), 100_000);
        assert_eq!(UploadTier::PartialScans.est_bytes(full), 40_000);
        assert_eq!(UploadTier::Thumbnail.est_bytes(full), 10_000);
        assert_eq!(UploadTier::Defer.est_bytes(full), 0);
        // Tiny estimates never round to zero for a granted tier.
        assert_eq!(UploadTier::Thumbnail.est_bytes(1), 1);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            SchedulerPolicy::Fifo,
            SchedulerPolicy::RoundRobin,
            SchedulerPolicy::Utility,
        ] {
            assert_eq!(p.as_str().parse::<SchedulerPolicy>().unwrap(), p);
        }
        assert_eq!(
            "rr".parse::<SchedulerPolicy>().unwrap(),
            SchedulerPolicy::RoundRobin
        );
        assert!("bogus".parse::<SchedulerPolicy>().is_err());
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::Utility);
    }

    #[test]
    fn plans_are_deterministic() {
        let demands: Vec<_> = (0..6)
            .map(|d| {
                demand(
                    d,
                    0.1 * d as f64,
                    1.0 - 0.1 * d as f64,
                    1.0,
                    50_000 + d * 1000,
                )
            })
            .collect();
        let mut a = sched(SchedulerPolicy::Utility);
        let mut b = sched(SchedulerPolicy::Utility);
        for _ in 0..5 {
            assert_eq!(
                a.plan_epoch(&demands, budget(10.0), 256_000.0),
                b.plan_epoch(&demands, budget(10.0), 256_000.0)
            );
        }
    }
}
