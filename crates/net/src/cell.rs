//! The shared uplink cell: one capacity trace that a whole fleet draws
//! airtime from.
//!
//! The paper's disaster setting is many phones fighting over a single
//! damaged base station, yet the fleet simulation historically gave every
//! device a private copy of the channel trace — N devices enjoyed N times
//! the spectrum. [`SharedCell`] replaces that fiction: the cell has one
//! seeded capacity trace, and devices only transmit through *grants* that
//! carve the per-epoch capacity into constant-rate slices (installed on
//! each device's [`Channel`](crate::Channel) via
//! [`set_rate_override`](crate::Channel::set_rate_override)).
//!
//! A cell **outage** reuses the [`FaultModel`] machinery: its seeded
//! periodic blackout windows darken the whole cell (capacity 0), exactly
//! like device-level blackouts.
//!
//! [`SharedCellConfig`] is the validated knob set; it defaults to
//! *disabled* so existing configs and reports are untouched. How far
//! grants may overfill an epoch is the scheduler's constant
//! (`bees_core::OVERSUBSCRIPTION_THRESHOLD`), not a cell knob.

use crate::{BandwidthTrace, FaultModel, NetError, Result};

/// Iteration bound for the outage-overlap walk; far above any realistic
/// number of blackout windows inside one scheduling epoch.
const MAX_OVERLAP_STEPS: u32 = 10_000;

/// A single uplink cell shared by every device in a fleet.
///
/// Built from a validated [`SharedCellConfig`]; pure and deterministic —
/// every query is a function of the (seeded) traces and `t` alone.
///
/// # Examples
///
/// ```
/// use bees_net::{SharedCell, SharedCellConfig};
///
/// let cell = SharedCellConfig::default().build().unwrap();
/// assert_eq!(cell.capacity_bps(0.0), 256_000.0);
/// // Two granted devices split the epoch capacity evenly.
/// assert_eq!(cell.share_bps(0.0, 2), 128_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SharedCell {
    capacity: BandwidthTrace,
    epoch_s: f64,
    outage: FaultModel,
}

impl SharedCell {
    /// The scheduling epoch length in seconds.
    pub fn epoch_s(&self) -> f64 {
        self.epoch_s
    }

    /// Index of the scheduling epoch containing time `t`.
    pub fn epoch_of(&self, t: f64) -> u64 {
        (t / self.epoch_s).floor().max(0.0) as u64
    }

    /// Start time of epoch `epoch`.
    pub fn epoch_start(&self, epoch: u64) -> f64 {
        epoch as f64 * self.epoch_s
    }

    /// End time of epoch `epoch` (exclusive).
    pub fn epoch_end(&self, epoch: u64) -> f64 {
        (epoch + 1) as f64 * self.epoch_s
    }

    /// The cell's deliverable capacity at time `t`, in bits per second:
    /// zero inside an outage window, the raw trace otherwise.
    pub fn capacity_bps(&self, t: f64) -> f64 {
        if self.outage.blackout_at(t).is_some() {
            0.0
        } else {
            self.capacity.bps_at(t)
        }
    }

    /// The constant rate each of `granted` devices receives when the epoch
    /// capacity (sampled at `t`, normally the epoch start) is split evenly.
    /// Zero when nothing is granted or the cell is dark.
    pub fn share_bps(&self, t: f64, granted: usize) -> f64 {
        if granted == 0 {
            return 0.0;
        }
        self.capacity_bps(t) / granted as f64
    }

    /// Seconds of `[start_s, end_s)` covered by outage windows — the dark
    /// time an airtime budget must discount. Bounded walk over the outage
    /// schedule; deterministic.
    pub fn outage_overlap_s(&self, start_s: f64, end_s: f64) -> f64 {
        if end_s <= start_s {
            return 0.0;
        }
        let mut dark = 0.0;
        let mut t = start_s;
        for _ in 0..MAX_OVERLAP_STEPS {
            if t >= end_s {
                break;
            }
            match self.outage.blackout_at(t) {
                Some((_, window_end)) => {
                    let stop = window_end.min(end_s);
                    dark += stop - t;
                    t = stop;
                }
                None => {
                    let next = self.outage.next_blackout_start(t);
                    if next >= end_s {
                        break;
                    }
                    t = next;
                }
            }
        }
        dark
    }

    /// The airtime budget of the epoch containing `t`: the epoch length
    /// minus its outage overlap.
    pub fn epoch_budget_s(&self, t: f64) -> f64 {
        let e = self.epoch_of(t);
        let (start, end) = (self.epoch_start(e), self.epoch_end(e));
        (end - start) - self.outage_overlap_s(start, end)
    }
}

/// Validated configuration for a [`SharedCell`].
///
/// Strictly opt-in: `Default` has `enabled: false`, leaving the fleet on
/// its historical private-channel behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedCellConfig {
    /// Whether the fleet draws airtime from a shared cell at all.
    pub enabled: bool,
    /// The cell's capacity trace — the *total* uplink all devices share.
    pub capacity: BandwidthTrace,
    /// Scheduling epoch length in seconds: grants are issued per epoch.
    pub epoch_s: f64,
    /// Cell outage windows: the whole cell goes dark.
    pub outage: FaultModel,
    /// After this many consecutive denied epochs a starving device is
    /// granted unconditionally — the starvation bound.
    pub max_consecutive_denials: u32,
}

impl Default for SharedCellConfig {
    fn default() -> Self {
        SharedCellConfig {
            enabled: false,
            capacity: BandwidthTrace::constant(256_000.0).expect("constant is valid"),
            epoch_s: 30.0,
            outage: FaultModel::none(),
            max_consecutive_denials: 8,
        }
    }
}

impl SharedCellConfig {
    /// Checks every field.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        self.capacity.validate()?;
        if !self.epoch_s.is_finite() || self.epoch_s <= 0.0 {
            return Err(NetError::InvalidParameter {
                name: "cell epoch_s",
                value: self.epoch_s,
            });
        }
        if self.max_consecutive_denials == 0 {
            return Err(NetError::InvalidParameter {
                name: "cell max_consecutive_denials",
                value: 0.0,
            });
        }
        self.outage.validate()
    }

    /// Builds the runtime [`SharedCell`] after validation.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if any field fails
    /// [`validate`](SharedCellConfig::validate).
    pub fn build(&self) -> Result<SharedCell> {
        self.validate()?;
        Ok(SharedCell {
            capacity: self.capacity.clone(),
            epoch_s: self.epoch_s,
            outage: self.outage.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled_and_valid() {
        let cfg = SharedCellConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.validate().is_ok());
        let cell = cfg.build().unwrap();
        assert_eq!(cell.epoch_s(), 30.0);
        assert_eq!(cell.capacity_bps(12.0), 256_000.0);
        assert_eq!(cell.epoch_budget_s(12.0), 30.0);
    }

    #[test]
    fn epoch_arithmetic_round_trips() {
        let cell = SharedCellConfig::default().build().unwrap();
        assert_eq!(cell.epoch_of(0.0), 0);
        assert_eq!(cell.epoch_of(29.999), 0);
        assert_eq!(cell.epoch_of(30.0), 1);
        assert_eq!(cell.epoch_of(-5.0), 0, "pre-history clamps to epoch 0");
        assert_eq!(cell.epoch_start(3), 90.0);
        assert_eq!(cell.epoch_end(3), 120.0);
        for e in [0u64, 1, 7, 1000] {
            assert_eq!(cell.epoch_of(cell.epoch_start(e)), e);
        }
    }

    #[test]
    fn outage_zeroes_capacity_and_shrinks_the_budget() {
        // Every 30 s period is dark for its first 10 s.
        let cfg = SharedCellConfig {
            outage: FaultModel::new(0xCE11, 0.0, 1.0, 30.0, 10.0).unwrap(),
            ..SharedCellConfig::default()
        };
        let cell = cfg.build().unwrap();
        assert_eq!(cell.capacity_bps(29.9), 256_000.0);
        assert_eq!(cell.capacity_bps(30.0), 0.0);
        assert_eq!(cell.capacity_bps(39.9), 0.0);
        assert_eq!(cell.capacity_bps(40.0), 256_000.0);
        assert!((cell.outage_overlap_s(30.0, 60.0) - 10.0).abs() < 1e-9);
        assert!((cell.epoch_budget_s(35.0) - 20.0).abs() < 1e-9);
        // Overlap clips to the queried span.
        assert!((cell.outage_overlap_s(35.0, 38.0) - 3.0).abs() < 1e-9);
        assert_eq!(cell.outage_overlap_s(40.0, 60.0), 0.0);
    }

    #[test]
    fn shares_split_evenly_and_handle_zero_grants() {
        let cell = SharedCellConfig::default().build().unwrap();
        assert_eq!(cell.share_bps(0.0, 0), 0.0);
        assert_eq!(cell.share_bps(0.0, 1), 256_000.0);
        assert_eq!(cell.share_bps(0.0, 4), 64_000.0);
    }

    #[test]
    fn seeded_periodic_outages_are_deterministic() {
        let outage = FaultModel::new(0xCE11, 0.0, 0.5, 30.0, 10.0).unwrap();
        let cfg = SharedCellConfig {
            outage,
            ..SharedCellConfig::default()
        };
        let a = cfg.build().unwrap();
        let b = cfg.build().unwrap();
        let mut saw_dark = false;
        let mut saw_light = false;
        for k in 0..400 {
            let t = k as f64 * 7.3;
            assert_eq!(a.capacity_bps(t), b.capacity_bps(t));
            if a.capacity_bps(t) == 0.0 {
                saw_dark = true;
            } else {
                saw_light = true;
            }
        }
        assert!(saw_dark && saw_light, "p=0.5 outages must fire sometimes");
    }

    #[test]
    fn validation_names_the_offending_knob() {
        let ok = SharedCellConfig::default();
        let cases: [(SharedCellConfig, &str); 2] = [
            (
                SharedCellConfig {
                    epoch_s: 0.0,
                    ..ok.clone()
                },
                "epoch_s",
            ),
            (
                SharedCellConfig {
                    max_consecutive_denials: 0,
                    ..ok.clone()
                },
                "max_consecutive_denials",
            ),
        ];
        for (cfg, field) in cases {
            match cfg.validate() {
                Err(NetError::InvalidParameter { name, .. }) => {
                    assert!(name.contains(field), "{name} should mention {field}");
                }
                other => panic!("expected InvalidParameter for {field}, got {other:?}"),
            }
        }
        // Nested fault models are validated too.
        let bad_outage = SharedCellConfig {
            outage: FaultModel {
                drop_probability: 2.0,
                ..FaultModel::none()
            },
            ..ok
        };
        assert!(bad_outage.validate().is_err());
    }
}
