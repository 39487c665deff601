//! The battery-lifetime session (paper Fig. 9).
//!
//! One phone uploads a 40-image group every 20 minutes (screen bright the
//! whole time) until its battery dies; the remaining energy is sampled at
//! every interval. The paper's headline shape: BEES' curve is convex — its
//! slope flattens as `Ebat` drops because the adaptive schemes shed load —
//! while every other scheme discharges linearly.

use crate::schemes::{BatchCtx, UploadScheme};
use crate::{BeesConfig, Client, CoreError, Result, Server};
use bees_datasets::{disaster_batch, SceneConfig};
use bees_telemetry::Telemetry;

/// Parameters of a lifetime run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeConfig {
    /// Images per group (paper: 40).
    pub group_size: usize,
    /// Maximum number of groups available (paper: 150).
    pub n_groups: usize,
    /// Interval between group uploads in seconds (paper: 20 minutes).
    pub interval_s: f64,
    /// Cross-batch redundancy ratio staged for each group (paper: ~50%).
    pub cross_ratio: f64,
    /// Scene parameters for the generated groups.
    pub scene: SceneConfig,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        LifetimeConfig {
            group_size: 40,
            n_groups: 150,
            interval_s: 1200.0,
            cross_ratio: 0.5,
            scene: SceneConfig::default(),
            seed: 0xF19,
        }
    }
}

impl LifetimeConfig {
    /// Rejects a run that would panic: an empty group, an upload interval
    /// that is negative or not finite, a scene with a zero side, or a
    /// `cross_ratio` outside `[0, 1]`.
    fn validate(&self) -> Result<()> {
        super::check_counts_and_interval(
            "lifetime",
            &[("group_size", self.group_size)],
            self.interval_s,
        )?;
        super::check_scene("lifetime", "scene", &self.scene)?;
        if !(0.0..=1.0).contains(&self.cross_ratio) {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "lifetime cross_ratio must be in [0, 1], got {}",
                    self.cross_ratio
                ),
            });
        }
        Ok(())
    }
}

/// One sample of the discharge curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeSample {
    /// Simulated time in seconds.
    pub time_s: f64,
    /// Remaining battery fraction at that time.
    pub ebat: f64,
}

/// Result of a lifetime run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeResult {
    /// Scheme name.
    pub scheme: String,
    /// The discharge curve, one sample per completed interval (starting
    /// with `(0, 1.0)`).
    pub samples: Vec<LifetimeSample>,
    /// Simulated seconds until the battery died (or the workload ran out).
    pub lifetime_s: f64,
    /// Groups fully uploaded before exhaustion.
    pub groups_uploaded: usize,
}

/// Runs the lifetime session for one scheme.
///
/// # Errors
///
/// Returns a network error if the channel stalls beyond its limit, or an
/// invalid-config error from server/client construction or naming the
/// [`LifetimeConfig`] field that is unusable: a zero `group_size`, an
/// `interval_s` that is negative or not finite, or a `cross_ratio` outside
/// `[0, 1]`. Battery exhaustion is the expected terminal state, not an
/// error.
pub fn run_lifetime(
    scheme: &dyn UploadScheme,
    config: &BeesConfig,
    lt: &LifetimeConfig,
) -> Result<LifetimeResult> {
    run_lifetime_traced(scheme, config, lt, Telemetry::disabled())
}

/// Runs the lifetime session with a telemetry handle installed on the
/// client and server, so every stage span and `net.*`/`srv.*` record of
/// the whole discharge curve lands in one trace. With a disabled handle
/// this is exactly [`run_lifetime`].
///
/// # Errors
///
/// Same as [`run_lifetime`].
pub fn run_lifetime_traced(
    scheme: &dyn UploadScheme,
    config: &BeesConfig,
    lt: &LifetimeConfig,
    telemetry: Telemetry,
) -> Result<LifetimeResult> {
    lt.validate()?;
    let mut server = Server::try_new(config)?;
    let mut client = Client::try_new(0, config)?;
    client.set_telemetry(telemetry.clone());
    server.set_telemetry(telemetry);
    let mut samples = vec![LifetimeSample {
        time_s: 0.0,
        ebat: 1.0,
    }];
    let mut groups_uploaded = 0usize;

    for g in 0..lt.n_groups {
        let interval_start = client.now();
        // Each group gets fresh scenes; the server is preloaded so that the
        // staged fraction of the group is cross-batch redundant. There are
        // no in-batch similars in this workload (paper: "almost no in-batch
        // similar images in each group").
        let data = disaster_batch(
            lt.seed.wrapping_add(g as u64 * 7919),
            lt.group_size,
            0,
            lt.cross_ratio,
            lt.scene,
        );
        scheme.preload_server(&mut server, &data.server_preload);
        let report = scheme.upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))?;
        if report.exhausted {
            break;
        }
        groups_uploaded += 1;

        // Idle out the rest of the interval with the screen on.
        let elapsed = client.now() - interval_start;
        if elapsed < lt.interval_s && client.idle(lt.interval_s - elapsed).is_err() {
            break;
        }
        samples.push(LifetimeSample {
            time_s: client.now(),
            ebat: client.ebat(),
        });
        if client.battery().is_empty() {
            break;
        }
    }

    Ok(LifetimeResult {
        scheme: scheme.kind().to_string(),
        lifetime_s: client.now(),
        samples,
        groups_uploaded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{Bees, DirectUpload};
    use bees_energy::Battery;
    use bees_net::BandwidthTrace;

    fn tiny_lifetime() -> LifetimeConfig {
        LifetimeConfig {
            group_size: 3,
            n_groups: 12,
            interval_s: 300.0,
            cross_ratio: 0.3,
            scene: SceneConfig {
                width: 96,
                height: 72,
                n_shapes: 8,
                texture_amp: 8.0,
            },
            seed: 5,
        }
    }

    fn config_with_small_battery() -> BeesConfig {
        BeesConfig {
            trace: BandwidthTrace::constant(256_000.0).unwrap(),
            // Small battery so the test exhausts it quickly: ~20 min of idle.
            battery: Battery::from_joules(1200.0),
            ..BeesConfig::default()
        }
    }

    #[test]
    fn battery_discharges_monotonically_until_death() {
        let cfg = config_with_small_battery();
        let res = run_lifetime(&DirectUpload::new(&cfg), &cfg, &tiny_lifetime()).unwrap();
        assert!(res.samples.len() >= 2);
        for pair in res.samples.windows(2) {
            assert!(pair[1].ebat <= pair[0].ebat);
            assert!(pair[1].time_s > pair[0].time_s);
        }
        assert!(res.lifetime_s > 0.0);
    }

    #[test]
    fn bees_outlives_direct_upload() {
        let cfg = config_with_small_battery();
        let direct = run_lifetime(&DirectUpload::new(&cfg), &cfg, &tiny_lifetime()).unwrap();
        let bees = run_lifetime(&Bees::adaptive(&cfg), &cfg, &tiny_lifetime()).unwrap();
        assert!(
            bees.lifetime_s >= direct.lifetime_s,
            "BEES {} vs Direct {}",
            bees.lifetime_s,
            direct.lifetime_s
        );
        assert!(bees.groups_uploaded >= direct.groups_uploaded);
    }

    #[test]
    fn workload_can_outlast_battery() {
        let mut cfg = config_with_small_battery();
        cfg.battery = Battery::from_joules(1e9); // effectively infinite
        let lt = LifetimeConfig {
            n_groups: 2,
            ..tiny_lifetime()
        };
        let res = run_lifetime(&DirectUpload::new(&cfg), &cfg, &lt).unwrap();
        assert_eq!(res.groups_uploaded, 2);
        assert!(res.samples.last().unwrap().ebat > 0.99);
    }

    #[test]
    fn unusable_lifetime_fields_are_typed_errors() {
        let cfg = config_with_small_battery();
        let scheme = DirectUpload::new(&cfg);
        let with = |edit: fn(&mut LifetimeConfig)| {
            let mut lt = tiny_lifetime();
            edit(&mut lt);
            lt
        };
        for (field, lt) in [
            ("group_size", with(|lt| lt.group_size = 0)),
            ("interval_s", with(|lt| lt.interval_s = f64::INFINITY)),
            ("scene.width", with(|lt| lt.scene.width = 0)),
            ("scene.height", with(|lt| lt.scene.height = 0)),
            ("cross_ratio", with(|lt| lt.cross_ratio = 1.5)),
            ("cross_ratio", with(|lt| lt.cross_ratio = f64::NAN)),
        ] {
            match run_lifetime(&scheme, &cfg, &lt) {
                Err(CoreError::InvalidConfig { detail }) => {
                    assert!(detail.contains(field), "{field}: {detail}")
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
    }
}
